"""Time every op of one benchmark workload on two source trees in one process.

Usage: ``python tests/golden/pass_ab.py PARENT CHANGE --workload W [--rounds N] [--seed S]``

PARENT and CHANGE are checkouts (this one, or a second copy of another
commit). The script imports both trees' ``src/linfty`` side by side, and
reads PARENT's ``perfbench/workloads.py`` for the op list; it writes nothing
inside either tree. Each tree parses the workload's inputs once, as one cold
set-up of the benchmark does. Then, in each round, every op runs on both trees
back to back (``run_command`` plus the ``--json`` serialisation), the tree
that goes first alternating from round to round, so both see the same host
speed. The two ``--json`` outputs of an op must agree once ``timing_ms`` is
removed, or the script stops. It prints the median ratio CHANGE/PARENT of
each op's times, and the sum of the op medians of each tree with their
ratio. A tree compared with itself reads about 1.000::

    python tests/golden/pass_ab.py OLD NEW --workload cohomology --rounds 200

It is a development aid, not a benchmark: it sees no cold set-up, no host
probe and no memory, and both trees share one interpreter and its heap.
"""
import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = ("decide", "chains", "cohomology")


def _drop_linfty() -> None:
    for name in [n for n in sys.modules if n == "linfty" or n.startswith("linfty.")]:
        del sys.modules[name]


def load_tree(tree: Path) -> dict:
    """Import ``tree``'s linfty under its own module objects, and leave ``sys.modules`` without it."""
    _drop_linfty()
    src = str(tree / "src")
    sys.path.insert(0, src)
    try:
        import linfty.cli as cli
        import linfty.instances as instances
        from linfty.valgebra import SeriesCapExceeded
    finally:
        sys.path.remove(src)
    if not Path(cli.__file__).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"linfty was imported from {cli.__file__}, not from {src}")
    modules = {n: m for n, m in sys.modules.items() if n == "linfty" or n.startswith("linfty.")}
    _drop_linfty()
    return {
        "modules": modules,
        "cli": cli,
        "parse": instances.parse_instance,
        "input_errors": (instances.InstanceError, SeriesCapExceeded, ValueError),
    }


def _namespace(op) -> argparse.Namespace:
    values = dict(truncate=None, probes=None, seed=None, phi=None, degree=None)
    values.update(op.args)
    return argparse.Namespace(**values)


def run_op(tree: dict, parsed: dict, op) -> tuple[float, str]:
    """Seconds taken by one op, and its ``--json`` output without ``timing_ms`` (or the error it raised)."""
    sys.modules.update(tree["modules"])  # a lazy import inside the op finds this tree's modules
    args = _namespace(op)
    start = time.perf_counter()
    try:
        obj = tree["cli"].run_command(op.command, parsed[op.instance], args).to_json_obj()
        json.dumps(obj, sort_keys=True, indent=1)
        seconds = time.perf_counter() - start
    except tree["input_errors"] as exc:
        return time.perf_counter() - start, f"input error {type(exc).__name__}: {exc}"
    obj.pop("timing_ms", None)
    return seconds, json.dumps(obj, sort_keys=True)


def compare(parent: Path, change: Path, workload: str, rounds: int, seed: int) -> dict:
    sys.dont_write_bytecode = True  # leave both trees as they are
    sys.path.insert(0, str(parent / "perfbench"))
    import workloads

    trees = [load_tree(parent), load_tree(change)]
    ops = getattr(workloads, workload)(seed, parent).ops
    parsed = []
    for tree, root in zip(trees, (parent, change)):  # each tree parses its own fixtures
        sys.modules.update(tree["modules"])
        inputs = getattr(workloads, workload)(seed, root).inputs
        parsed.append({name: tree["parse"](obj) for name, obj in inputs.items()})
    times: dict[str, list[list[float]]] = {op.name: [[], []] for op in ops}
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for op in ops:
            outputs = [None, None]
            for t in order:
                seconds, outputs[t] = run_op(trees[t], parsed[t], op)
                times[op.name][t].append(seconds)
            if outputs[0] != outputs[1]:
                raise SystemExit(f"{op.name}: the two trees print different --json\n{outputs[0]}\n{outputs[1]}")
        gc.collect()
    _drop_linfty()
    per_op = {}
    for name, (a, b) in times.items():
        per_op[name] = (statistics.median(a), statistics.median(b),
                        statistics.median(y / x for x, y in zip(a, b)))
    sums = [sum(v[0] for v in per_op.values()), sum(v[1] for v in per_op.values())]
    return {"per_op": per_op, "parent_s": sums[0], "change_s": sums[1], "ratio": sums[1] / sums[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--rounds", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for tree in (args.parent, args.change):
        if not (tree / "src" / "linfty" / "__init__.py").is_file():
            parser.error(f"no src/linfty package under {tree}")
    if not (args.parent / "perfbench" / "workloads.py").is_file():
        parser.error(f"no perfbench/workloads.py under {args.parent}")
    result = compare(args.parent.resolve(), args.change.resolve(), args.workload, args.rounds, args.seed)
    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds: median ms parent, change, ratio change/parent")
    for name, (a, b, ratio) in result["per_op"].items():
        print(f"  {name:48s} {a * 1e3:9.3f} {b * 1e3:9.3f} {ratio:7.3f}")
    print(f"sum of op medians: parent {result['parent_s'] * 1e3:.2f} ms, change {result['change_s'] * 1e3:.2f} ms,"
          f" ratio {result['ratio']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
