"""Dump exit code and ``--json`` stdout of every benchmark op of a source tree.

Usage: ``python tests/golden/dump_ops.py TREE OUT.json [--seeds 1 2]``

TREE is a checkout (this one, or a second copy of another commit). The script
imports that tree's ``src/linfty`` and ``perfbench/workloads.py`` and writes
nothing inside it. OUT.json maps ``"<seed>:<op name>"`` to ``[exit code,
stdout]`` for every op of the ``decide``, ``chains`` and ``cohomology``
workloads, each op run on a freshly parsed instance as ``linfty ... --json``
would run it. It also maps ``"cohomology <preset>"`` to the all-degree
``cohomology`` of every bundled preset, and ``"cohomology <name> --truncate
<t>"`` to the truncated windows t = 1-4 of ``foliation-r3``, ``tangent-r1``
and ``tangent-r2``: paths the benchmark ops, which all pass ``--degree``,
never take. Larger eliminations than any preset's come from the generated
Lie algebras of ``perfbench/ladder.py``: ``"cohomology <name>"`` is the
all-degree ``cohomology`` of sl3, heisenberg-5 and heisenberg-7, and
``"cohomology sl4 --degree <q>"`` that of sl(4) at q = 0-2. Two trees print
the same outputs exactly when their dumps are byte-identical::

    python tests/golden/dump_ops.py OLD old.json
    python tests/golden/dump_ops.py NEW new.json
    cmp old.json new.json
"""
import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("decide", "chains", "cohomology")
TRUNCATION_LADDER = ("foliation-r3", "tangent-r1", "tangent-r2")  # each at --truncate 1-4
GENERATED = ("sl3", "heisenberg-5", "heisenberg-7")  # every degree
SL4_DEGREES = (0, 1, 2)


def dump(tree: Path, seeds: list[int]) -> dict[str, list]:
    sys.dont_write_bytecode = True  # leave the tree as it is
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import ladder
    import workloads
    from linfty import cli
    from linfty.instances import InstanceError, fixture_path, parse_instance
    from linfty.valgebra import SeriesCapExceeded

    out: dict[str, list] = {}

    def run(key: str, command: str, source, args: dict) -> None:
        if key in out:
            raise SystemExit(f"duplicate op name {key}")
        values = dict(truncate=None, probes=None, seed=None, phi=None, degree=None)
        values.update(args)
        try:
            inst = parse_instance(source)
            report = cli.run_command(command, inst, argparse.Namespace(**values))
        except (InstanceError, SeriesCapExceeded, ValueError):
            out[key] = [cli.EXIT_INPUT_ERROR, ""]
            return
        except Exception:
            out[key] = [cli.EXIT_INTERNAL_ERROR, ""]
            return
        text = json.dumps(report.to_json_obj(), sort_keys=True, indent=1) + "\n"
        out[key] = [report.exit_code, text]

    for seed in seeds:
        for name in WORKLOADS:
            workload = getattr(workloads, name)(seed, tree)
            for op in workload.ops:
                run(f"{seed}:{op.name}", op.command, workload.inputs[op.instance], op.args)
    # the benchmark ops all pass --degree: every degree at once, and truncated windows, here
    presets = sorted(path.stem for path in (tree / "src" / "linfty" / "fixtures").glob("*.json"))
    for name in presets:
        run(f"cohomology {name}", "cohomology", fixture_path(name), {})
    for name in TRUNCATION_LADDER:
        for truncate in (1, 2, 3, 4):
            run(f"cohomology {name} --truncate {truncate}", "cohomology", fixture_path(name), {"truncate": truncate})
    for name in GENERATED:
        run(f"cohomology {name}", "cohomology", ladder.lie_algebra(*ladder.algebra(name)), {})
    for degree in SL4_DEGREES:
        run(f"cohomology sl4 --degree {degree}", "cohomology", ladder.lie_algebra(*ladder.sl_n(4)), {"degree": degree})
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args()
    result = dump(args.tree.resolve(), args.seeds)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{len(result)} ops written to {args.out}")


if __name__ == "__main__":
    main()
