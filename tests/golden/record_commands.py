"""Record ``commands.json``: ``--json`` stdout and exit code per (command, preset).

Run from a checkout with ``PYTHONPATH=src python tests/golden/record_commands.py``.
Pairs whose instance kind the command refuses (exit 2) are left out, as are
``cohomology`` (``cohomology.json`` covers it) and the slow
``brackets hom-sl2-id``.  The file pins today's outputs, exit 3 included,
so re-record it only for an intended output change.
"""
import contextlib
import io
import json
from pathlib import Path

from linfty.cli import main
from linfty.instances import fixture_path

COMMANDS = ("validate", "oracle-compare", "mc-check", "subalg-check", "simultaneous", "axioms", "brackets")
SKIP = {("brackets", "hom-sl2-id")}


def presets() -> list[str]:
    return sorted(p.stem for p in fixture_path("sl2").parent.glob("*.json"))


def record() -> dict[str, dict]:
    golden = {}
    for command in COMMANDS:
        for preset in presets():
            if (command, preset) in SKIP:
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([command, preset, "--json"])
            if code != 2:
                golden[f"{command} {preset}"] = {"exit": code, "stdout": out.getvalue()}
    return golden


if __name__ == "__main__":
    path = Path(__file__).with_name("commands.json")
    path.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
