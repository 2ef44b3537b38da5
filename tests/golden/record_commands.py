"""Record ``commands.json``: ``--json`` stdout and exit code per (command, preset).

Run from a checkout with ``PYTHONPATH=src python tests/golden/record_commands.py``.
Every command runs on every preset.
Refusals are kept (exit 2 with empty stdout), so a command that starts or
stops accepting an instance kind shows up as a changed entry; ``cohomology``
runs without ``--truncate`` here (``cohomology.json`` covers truncated runs).
The file pins today's outputs, so re-record it only for an intended output
change.
"""
import contextlib
import io
import json
from pathlib import Path

from linfty.cli import COMMANDS, main
from linfty.instances import fixture_path


def presets() -> list[str]:
    return sorted(p.stem for p in fixture_path("sl2").parent.glob("*.json"))


def record() -> dict[str, dict]:
    golden = {}
    for command in sorted(COMMANDS):
        for preset in presets():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([command, preset, "--json"])
            golden[f"{command} {preset}"] = {"exit": code, "stdout": out.getvalue()}
    return golden


if __name__ == "__main__":
    path = Path(__file__).with_name("commands.json")
    path.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
