"""The benchmark's per-layer tracer still wraps the functions it names.

``perfbench/tracing.py`` rebinds linfty functions by identity and raises when
one of them is gone, so a rename or signature change in ``src/`` can break the
traced benchmark run without failing any other test.  This runs the tracer in
a subprocess, so its patches never reach this test process.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import argparse, json
import linfty.cli as cli
from linfty.instances import fixture_path, parse_instance
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)
inst = parse_instance(fixture_path("sl2-borel"))
flags = dict(truncate=None, seed=None, phi=None, degree=None)
codes = [
    cli.run_command("axioms", inst, argparse.Namespace(probes=2, **flags)).exit_code,
    cli.run_command("brackets", inst, argparse.Namespace(probes=None, **flags)).exit_code,
    cli.run_command("oracle-compare", inst).exit_code,
    cli.run_command("subalg-check", parse_instance(fixture_path("hom-sl2-id"))).exit_code,
]
before = tracer.calls["superfield.commutator"]
codes.append(cli.run_command("cohomology", parse_instance(fixture_path("sl2")),
                             argparse.Namespace(**dict(flags, degree=1))).exit_code)
print(json.dumps({
    "cohomology_commutators": tracer.calls["superfield.commutator"] - before,
    "codes": codes,
    "yielded": tracer.counts["signs.shuffles.yielded"],
    "explicit_calls": tracer.calls["subalgebroid.explicit_maps"],
    "mc_residual_calls": tracer.calls["subalgebroid.mc_residual"],
}))
"""


def test_tracer_installs_and_counts():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT / "perfbench", env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["yielded"] > 0
    assert result["explicit_calls"] > 0
    assert result["mc_residual_calls"] > 0  # the residual the CLI computes is the traced one
    # H^1(sl2; sl2) maps the weight-0 blocks of B_0 (xi_j d/dxi_j for the three j) and of B_-1
    # (d/dxi_h) once each and checks [Q, Q] once: a commutator that bypasses the traced name
    # would leave the per-layer counters empty
    assert result["cohomology_commutators"] == 3 + 1 + 1
