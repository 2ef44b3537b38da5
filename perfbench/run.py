#!/usr/bin/env python3
"""linfty benchmark: CLI-equivalent decisions in a closed loop, one client, no threads.

Usage (from the repository root):

    python3 perfbench/run.py                          # every workload, one process each
    python3 perfbench/run.py --workload decide --seed 3 --seconds 30 --trace 0

A run generates its inputs from ``--seed`` (see ``ladder.py``), imports
``linfty`` from ``src/`` and parses every input (``setup_s``: the median of
cold set-ups made before the first pass and between the first passes), then
repeats passes over the workload's fixed op list until ``--seconds`` have
gone by.  Every op is checked against the
benchmark's own expectation.  With ``--trace 1`` the run first measures
untraced passes, then wraps the program's functions (``tracing.py``) and
reports per-layer metrics per pass instead of the end-to-end ones.

Before every cold set-up, and before every op that starts ``PROBE_GAP_S`` or
more after the last probe, the run times a fixed piece of the benchmark's
own pure-Python work, the host probe.  On a shared host the
same code runs up to twice as fast in some minutes as in others; the probe
slows down with it.  Every end-to-end timing is reported at a fixed host
speed: each measured op latency and set-up time is multiplied by
``PROBE_REF_S`` over the median time of the probes run within
``PROBE_WINDOW_S`` of it.  The stamp keeps the measured values too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the result stamp, which is also written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import ladder  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5  # cold set-ups before the first pass
RELOADS = 8  # cold set-ups between passes; a fixed count, so memory does not track speed
UNTRACED_SHARE = 0.4  # of --seconds, spent on untraced passes in a traced run
FAILURE_EXAMPLES = 5
PROBE_REF_S = 0.0015  # reference probe time: about the probe's median on a 2-vCPU x86-64 VM, Python 3.11.7
PROBE_GAP_S = 0.01  # at most one probe per 10 ms, so short ops do not pay a probe each
PROBE_WINDOW_S = 1.0  # probes this close to a timed interval set its host speed; slow phases last longer


class BenchmarkError(Exception):
    """The checkout cannot be benchmarked (no program, no fixtures)."""


# ---------------------------------------------------------------------
# host probe: fixed work that tracks the host's speed, outside every timing
# ---------------------------------------------------------------------
_probe_rng = random.Random("host probe")
PROBE_P, PROBE_Q = (
    {tuple(_probe_rng.randrange(3) for _ in range(4)): Fraction(_probe_rng.choice([-7, -3, -1, 1, 2, 5]),
                                                                _probe_rng.randint(1, 5))
     for _ in range(10)}
    for _ in range(2)
)
PROBE_MATRIX = [[Fraction(_probe_rng.randint(-5, 5), _probe_rng.randint(1, 3)) for _ in range(7)] for _ in range(6)]


def _eliminate(rows: list) -> list:
    """Gauss-Jordan elimination over Fraction, as the program's ``linalg`` does it."""
    rows = [row[:] for row in rows]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return rows


class HostProbe:
    """Times a sparse Fraction polynomial product and a small Fraction elimination.

    These are the two kinds of work linfty's inner loops do (superfield
    products, linalg rows).  A probe runs before an op or a set-up when
    ``PROBE_GAP_S`` have gone by since the last one, and never inside a timing.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def __call__(self, force: bool = False):
        start = time.perf_counter()
        if not force and self.starts and start - self.starts[-1] < PROBE_GAP_S:
            return
        ladder.pmul(PROBE_P, PROBE_Q)
        _eliminate(PROBE_MATRIX)
        self.starts.append(start)
        self.times.append(time.perf_counter() - start)

    def at_reference(self, start: float, seconds: float) -> float:
        """``seconds`` timed from ``start``, brought to the host speed at which a probe takes PROBE_REF_S."""
        lo = bisect.bisect_left(self.starts, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + seconds + PROBE_WINDOW_S)
        return seconds * PROBE_REF_S / statistics.median(self.times[lo:hi])


# ---------------------------------------------------------------------
# set-up: import linfty and parse every input, several times from cold
# ---------------------------------------------------------------------
class ColdSetup:
    """Imports linfty from ``src/`` and parses every input, from cold on each call.

    Each call first drops every module the previous call loaded, so the
    import is repeated in full; the benchmark calls it several times before
    the first pass and once before each of the next few passes, which
    spreads the set-up samples over the run.
    """

    def __init__(self, inputs: dict):
        if not (SRC / "linfty" / "__init__.py").is_file():
            raise BenchmarkError(f"no linfty package under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.inputs = inputs
        self.snapshot = set(sys.modules)
        self.starts: list[float] = []
        self.times: list[float] = []

    def __call__(self) -> dict:
        for name in list(sys.modules):
            if name not in self.snapshot:
                del sys.modules[name]
        gc.collect()
        start = time.perf_counter()
        import linfty.instances as instances

        parsed = {name: instances.parse_instance(obj) for name, obj in self.inputs.items()}
        self.starts.append(start)
        self.times.append(time.perf_counter() - start)
        if not Path(instances.__file__).resolve().is_relative_to(SRC.resolve()):
            raise BenchmarkError(f"linfty was imported from {instances.__file__}, not from {SRC}")
        return parsed


# ---------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------
def _namespace(op):
    values = dict(cap=None, truncate=None, probes=None, seed=None, phi=None, degree=None)
    values.update(op.args)
    return argparse.Namespace(**values)


def _lookup(obj, path: str):
    for part in path.split("."):
        if not isinstance(obj, dict) or part not in obj:
            return "<missing>"
        obj = obj[part]
    return obj


def classify(op, outcome) -> tuple[str, str]:
    """('ok' | 'mismatch' | 'inconsistent' | 'input-error' | 'exception', message)."""
    kind, payload = outcome
    if kind != "report":
        return kind, payload
    text, exit_code = payload
    if exit_code == 3:
        return "inconsistent", "exit 3: the two routes disagreed"
    report = json.loads(text)
    for path, want in op.expect.items():
        got = _lookup(report, path)
        if got != want:
            return "mismatch", f"{path}: expected {want!r}, got {got!r}"
    return "ok", ""


class Runner:
    def __init__(self, workload, cold_setup: ColdSetup):
        self.workload = workload
        self.cold_setup = cold_setup
        self.tracer = None
        self.latencies = {op.name: [] for op in workload.ops}
        self.timed: list[tuple] = []  # (pass index, start, seconds) of every op sample
        self.pass_times = []
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.examples: list = []
        self.correct = True
        self.probe = HostProbe()
        for _ in range(SETUP_REPEATS):
            self.load()

    def load(self):
        """A cold set-up; the following passes use the modules and instances it made."""
        self.probe(force=True)
        self.parsed = self.cold_setup()
        import linfty.cli as cli
        from linfty.instances import InstanceError
        from linfty.valgebra import SeriesCapExceeded

        self.cli = cli
        # the exceptions cli.main maps to exit 2 (input error)
        self.input_errors = (InstanceError, SeriesCapExceeded, ValueError)

    def _serialise(self, report):
        return json.dumps(report.to_json_obj(), sort_keys=True, indent=1)

    def run_op(self, op):
        inst = self.parsed[op.instance]
        args = _namespace(op)
        tracer = self.tracer
        try:
            if tracer is None:
                report = self.cli.run_command(op.command, inst, args)
                text = self._serialise(report)
            else:
                report = tracer.run("cli.handler", self.cli.run_command, op.command, inst, args)
                text = tracer.run("cli.report", self._serialise, report)
            return "report", (text, report.exit_code)
        except self.input_errors as exc:
            return "input-error", f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # an uncaught exception is a failed op, not a crashed run
            return "exception", f"{type(exc).__name__}: {exc}"

    def one_pass(self):
        """One pass over the op list; the pass time is the sum of its op latencies (no probes)."""
        outcomes = []
        clock = time.perf_counter
        for index, op in enumerate(self.workload.ops):
            if self.tracer is not None:
                self.tracer.trace_id = len(self.pass_times) * 100_000 + index + 1
            self.probe()
            t0 = clock()
            outcome = self.run_op(op)
            outcomes.append((op, t0, clock() - t0, outcome))
        self.pass_times.append(sum(seconds for _, _, seconds, _ in outcomes))
        for op, t0, seconds, outcome in outcomes:
            self.latencies[op.name].append(seconds)
            self.timed.append((len(self.pass_times) - 1, t0, seconds))
            self.attempted += 1
            kind, message = classify(op, outcome)
            if kind == "ok":
                continue
            self.failures[kind] = self.failures.get(kind, 0) + 1
            if kind == "mismatch":
                self.correct = False  # a wrong answer given as a success
            if len(self.examples) < FAILURE_EXAMPLES and op.name not in [e[0] for e in self.examples]:
                self.examples.append((op.name, kind, message[:300]))

    def run_for(self, seconds: float, reload: bool):
        """Passes until ``seconds`` are up; with ``reload``, a cold set-up before passes 2..RELOADS+1."""
        deadline = time.perf_counter() + seconds
        first = len(self.pass_times)
        while len(self.pass_times) == first or time.perf_counter() < deadline:
            if reload and 0 < len(self.pass_times) - first <= RELOADS:
                self.load()
            self.one_pass()
        return self.pass_times[first:]

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


# ---------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------
def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _p90(samples: list) -> float:
    return statistics.quantiles(samples, n=10)[8]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name](seed, ROOT)
    cold_setup = ColdSetup(workload.inputs)
    runner = Runner(workload, cold_setup)
    stamp = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": _nproc(), "loop": "closed, 1 client, no threads",
        "inputs": len(workload.inputs), "ops_per_pass": len(workload.ops),
        "accept_ratio": workload.accept_ratio(),
    }
    if not trace:
        runner.run_for(seconds, reload=True)
        samples = [s for values in runner.latencies.values() for s in values]
        measured = {
            "setup_s": statistics.median(cold_setup.times),
            "pass_s": statistics.median(runner.pass_times),
            "op_p50_ms": statistics.median(samples) * 1000.0,
            "op_p90_ms": _p90(samples) * 1000.0,
        }
        at_ref = runner.probe.at_reference
        setups = [at_ref(t0, seconds) for t0, seconds in zip(cold_setup.starts, cold_setup.times)]
        ops = [at_ref(t0, seconds) for _, t0, seconds in runner.timed]
        passes = [0.0] * len(runner.pass_times)
        for (index, _, _), seconds in zip(runner.timed, ops):
            passes[index] += seconds
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(passes), "s"),
            "op_p50_ms": (statistics.median(ops) * 1000.0, "ms"),
            "op_p90_ms": (_p90(ops) * 1000.0, "ms"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
        stamp.update({"measured": measured, "probe_median_s": statistics.median(runner.probe.times),
                      "probe_count": len(runner.probe.times)})
    else:
        untraced = runner.run_for(seconds * UNTRACED_SHARE, reload=True)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        import linfty.instances as instances

        tracer.run("setup", lambda: [instances.parse_instance(obj) for obj in workload.inputs.values()])
        parse_calls, parse_self = tracer.calls["instances.parse"], tracer.self_s["instances.parse"]
        tracer.reset()
        runner.tracer = tracer
        traced = runner.run_for(seconds * (1 - UNTRACED_SHARE), reload=False)
        runner.tracer = None
        metrics = tracing.layer_metrics(tracer, len(traced), parse_calls, parse_self)
        self_sum = sum(tracer.self_s.values()) / len(traced)
        stamp.update({
            "untraced_pass_s": statistics.median(untraced),
            "traced_pass_s": statistics.median(traced),
            "tracing_overhead_s": statistics.median(traced) - statistics.median(untraced),
            "traced_self_sum_s": self_sum,
            "layer_self_s": tracing.layer_self_totals(tracer, len(traced)),
            "predictions": predictions(name, metrics, tracer),
            "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
        })
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"{name}-seed{seed}-spans.jsonl"
        with open(spans_path, "w") as fh:
            for trace_id, span_id, parent, span_name, start, end in tracer.spans:
                fh.write(json.dumps({"trace": trace_id, "span": span_id, "parent": parent,
                                     "name": span_name, "start": start, "end": end}) + "\n")
        stamp["spans_file"] = str(spans_path.relative_to(ROOT))
    stamp.update({
        "passes": len(runner.pass_times),
        "samples": sum(len(values) for values in runner.latencies.values()),
        "setup_s_samples": cold_setup.times,
        "pass_s_samples": runner.pass_times,
        "attempted": runner.attempted, "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted, "failures": runner.failures,
        "failure_examples": runner.examples, "correct": runner.correct,
        "op_median_ms": {op: statistics.median(v) * 1000.0 for op, v in runner.latencies.items() if v},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    return stamp


def predictions(name: str, metrics: dict, tracer) -> dict:
    """The zero-call predictions of PREDICTIONS.md that apply to this workload."""
    checks = {}
    linalg_calls = metrics["linalg.rref.calls"][0] + metrics["linalg.rank.calls"][0]
    if name in ("decide", "chains"):
        checks["no linalg calls"] = linalg_calls == 0
    if name == "decide":
        checks["no explicit_maps calls of arity >= 2"] = tracer.counts["subalgebroid.explicit_maps.calls_arity_ge2"] == 0
    if name == "cohomology":
        checks["no explicit_maps calls"] = metrics["subalgebroid.explicit_maps.calls"][0] == 0
        checks["no derived_bracket calls"] = metrics["valgebra.derived_bracket.calls"][0] == 0
    return checks


def result_line(stamp: dict) -> dict:
    return {
        "correct": stamp["correct"], "attempted": stamp["attempted"], "failed": stamp["failed"],
        "metrics": stamp["metrics"],
    }


# ---------------------------------------------------------------------
# every workload, each in its own process
# ---------------------------------------------------------------------
def run_all(seed: int, seconds: float, trace: bool) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        stamp = json.loads(lines[-2])
        print(f"== {name}  (seed {seed}, {stamp['passes']} passes, {stamp['samples']} op samples, "
              f"python {stamp['python']}, nproc {stamp['nproc']})")
        rows = dict(stamp["metrics"])
        if not trace:
            rows["fail_ratio"] = {"value": stamp["fail_ratio"], "unit": "ratio"}
        for key, m in rows.items():
            print(f"  {key:40s} {m['value']:14.6g} {m['unit']}")
        print(f"  correct={stamp['correct']} attempted={stamp['attempted']} failed={stamp['failed']} "
              f"accept_ratio={stamp['accept_ratio']}")
        for op_name, kind, message in stamp["failure_examples"]:
            print(f"  failed op {op_name}: {kind}: {message}")
        if trace:
            print(f"  untraced pass_s {stamp['untraced_pass_s']:.4f} s, traced pass_s "
                  f"{stamp['traced_pass_s']:.4f} s, tracing overhead {stamp['tracing_overhead_s']:.4f} s, "
                  f"self times sum {stamp['traced_self_sum_s']:.4f} s")
            for check, ok in stamp["predictions"].items():
                print(f"  prediction {check}: {'holds' if ok else 'FAILS'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        stamp = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(stamp, indent=1) + "\n"
    )
    print(json.dumps(stamp))
    print(json.dumps(result_line(stamp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
