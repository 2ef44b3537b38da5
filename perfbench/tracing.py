"""Per-layer tracing from outside the program.

``install(tracer)`` wraps public functions of the ``linfty`` modules and
rebinds every module attribute that refers to the original, so names that
consumers imported with ``from .superfield import super_commutator`` are
wrapped too.  Larger functions become spans (name, start, end, parent, trace
id); the hottest small ones (``SuperFunction.__init__``, ``__mul__``,
``partial``) only count calls, so their time stays in the calling span.  A
span's self time is its duration minus the durations of its child spans.
Layer names are module names.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

SPAN_CAP = 50_000  # spans kept for the trace file; aggregates cover every span


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [child_seconds, span_id, commutator_children]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.trace_id = 0
        self._next_id = 0

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def run(self, name: str, fn, *args, observe=None, **kwargs):
        """Call ``fn`` inside a span called ``name``; ``observe(args, result, frame)`` sees the result."""
        stack = self.stack
        self._next_id += 1
        frame = [0.0, self._next_id, 0]
        parent = stack[-1] if stack else None
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - frame[0]
            if parent is not None:
                parent[0] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append(
                    (self.trace_id, frame[1], parent[1] if parent else 0, name, start, end)
                )
            else:
                self.dropped += 1
        if observe is not None:
            observe(args, result, frame)
        return result

    def span(self, name: str, fn, observe=None):
        def wrapper(*args, **kwargs):
            return self.run(name, fn, *args, observe=observe, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def generator_span(self, name: str, fn, yielded: str):
        """Each resumption of the generator is one span; ``yielded`` counts items."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = tracer.run(name, next, it)
                except StopIteration:
                    return
                tracer.counts[yielded] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper


def _rebind(original, replacement):
    """Point every attribute of every linfty module that holds ``original`` at ``replacement``."""
    hits = 0
    for name, module in list(sys.modules.items()):
        if name != "linfty" and not name.startswith("linfty."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    if not hits:
        raise RuntimeError(f"nothing to wrap for {original!r}")


def _patch_method(cls, attr: str, make):
    original = cls.__dict__[attr]
    if isinstance(original, staticmethod):
        setattr(cls, attr, staticmethod(make(original.__func__)))
        return
    replacement = make(original)
    for name, value in list(cls.__dict__.items()):  # aliases such as __rmul__ = __mul__
        if value is original:
            setattr(cls, name, replacement)


def install(tracer: Tracer):
    """Wrap the program's public functions; returns nothing, patches in place."""
    from linfty import algebroid, applications, instances, linalg, signs, subalgebroid, superfield, valgebra

    counts = tracer.counts

    def commutator_observe(args, result, frame):
        n = len(result.terms)
        if not n:
            counts["superfield.commutator.zero"] += 1
        counts["superfield.commutator.out_terms_max"] = max(
            counts["superfield.commutator.out_terms_max"], n
        )

    def commutator(fn):
        inner = tracer.span("superfield.commutator", fn, commutator_observe)

        def wrapper(X, Y):
            if tracer.stack:
                tracer.stack[-1][2] += 1  # the caller's series depth
            return inner(X, Y)

        return wrapper

    def rref_observe(args, result, frame):
        matrix = args[0]
        rows = len(matrix)
        counts["linalg.rref.cells"] += rows * (len(matrix[0]) if rows else 0)
        counts["linalg.rref.rows"] += rows
        counts["linalg.rref.pivots"] += len(result[1])

    def zero_observe(key):
        def observe(args, result, frame):
            if result.value.is_zero():
                counts[key] += 1
        return observe

    def depth_observe(key):
        def observe(args, result, frame):
            counts[key] += frame[2]
        return observe

    def explicit_observe(args, result, frame):
        arity = args[1] if len(args) > 1 else None
        if arity is not None and arity >= 2:
            counts["subalgebroid.explicit_maps.calls_arity_ge2"] += 1

    def basis_observe(args, result, frame):
        counts["algebroid.field_basis.size"] += len(result)

    functions = [
        (linalg.rref, "linalg.rref", rref_observe),
        (linalg.rank, "linalg.rank", None),
        (linalg.nullspace, "linalg.nullspace", None),
        (linalg.quotient_representatives, "linalg.quotient_representatives", None),
        (signs.koszul_sign, "signs.koszul", None),
        (valgebra.derived_bracket, "valgebra.derived_bracket", zero_observe("valgebra.derived_bracket.zero")),
        (valgebra.generalized_jacobi, "valgebra.jacobi", None),
        (valgebra.mc_residual, "valgebra.mc_series", depth_observe("valgebra.mc_series.depth")),
        (valgebra.twisted_projection, "valgebra.twist", depth_observe("valgebra.twist.depth")),
        (subalgebroid.subalgebroid_mc_residual, "subalgebroid.mc_residual", None),
        (subalgebroid.graph_closure_oracle, "subalgebroid.graph_oracle", None),
        (subalgebroid.tangency_oracle, "subalgebroid.tangency_oracle", None),
        (subalgebroid.explicit_structure_maps, "subalgebroid.explicit_maps", explicit_observe),
        (subalgebroid.m1_cohomology, "subalgebroid.m1_cohomology", None),
        (algebroid.complex_cohomology, "algebroid.complex_cohomology", None),
        (algebroid.dgla_cohomology, "algebroid.dgla_cohomology", None),
        (algebroid.field_basis, "algebroid.field_basis", basis_observe),
        (algebroid.validate_algebroid, "algebroid.validate", None),
        (algebroid.classical_anchor_defects, "algebroid.classical", None),
        (algebroid.classical_jacobi_defects, "algebroid.classical", None),
        (algebroid.build_xq, "algebroid.build_xq", None),
        (applications.graph_setup, "applications.graph_setup", None),
        (applications.foliation_infinitesimal, "applications.foliation_infinitesimal", None),
        (applications.simultaneous_homomorphism, "applications.simultaneous_homomorphism", None),
        (instances.parse_instance, "instances.parse", None),
    ]
    for fn, name, observe in functions:
        _rebind(fn, tracer.span(name, fn, observe))
    _rebind(superfield.super_commutator, commutator(superfield.super_commutator))
    _rebind(signs.iter_shuffles, tracer.generator_span("signs.shuffles", signs.iter_shuffles,
                                                       "signs.shuffles.yielded"))

    SF = superfield.SuperFunction
    _patch_method(SF, "__init__", lambda fn: tracer.counter("superfield.function_init.calls", fn))
    _patch_method(SF, "__mul__", lambda fn: tracer.counter("superfield.mul.calls", fn))
    _patch_method(SF, "partial", lambda fn: tracer.counter("superfield.partial.calls", fn))
    _patch_method(SF, "substitute", lambda fn: tracer.span("superfield.substitute", fn))
    _patch_method(subalgebroid.SplitSetup, "project", lambda fn: tracer.span("subalgebroid.project", fn))
    _patch_method(valgebra.MCDelta, "of", lambda fn: tracer.span("valgebra.mcdelta_check", fn))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, parse_calls: int, parse_self_s: float) -> dict:
    """Per-layer metrics per pass (counts and self seconds divided by the traced passes)."""
    c, s, n = tracer.calls, tracer.self_s, tracer.counts
    per = 1.0 / passes

    def calls(name):
        return c[name] * per

    signs_self = s["signs.koszul"] + s["signs.shuffles"]
    values = {
        "linalg.rref.calls": (calls("linalg.rref"), "count"),
        "linalg.rref.self_s": (s["linalg.rref"] * per, "s"),
        "linalg.rref.cells": (n["linalg.rref.cells"] * per, "count"),
        "linalg.rref.pivot_ratio": (_ratio(n["linalg.rref.pivots"], n["linalg.rref.rows"]), "ratio"),
        "linalg.rank.calls": (calls("linalg.rank"), "count"),
        "superfield.commutator.calls": (calls("superfield.commutator"), "count"),
        "superfield.commutator.self_s": (s["superfield.commutator"] * per, "s"),
        "superfield.commutator.zero_ratio": (
            _ratio(n["superfield.commutator.zero"], c["superfield.commutator"]), "ratio"),
        "superfield.commutator.out_terms_max": (n["superfield.commutator.out_terms_max"], "count"),
        "superfield.function_init.calls": (n["superfield.function_init.calls"] * per, "count"),
        "superfield.mul.calls": (n["superfield.mul.calls"] * per, "count"),
        "superfield.partial.calls": (n["superfield.partial.calls"] * per, "count"),
        "superfield.substitute.calls": (calls("superfield.substitute"), "count"),
        "superfield.substitute.self_s": (s["superfield.substitute"] * per, "s"),
        "signs.koszul.calls": (calls("signs.koszul"), "count"),
        "signs.shuffles.yielded": (n["signs.shuffles.yielded"] * per, "count"),
        "signs.self_s": (signs_self * per, "s"),
        "valgebra.derived_bracket.calls": (calls("valgebra.derived_bracket"), "count"),
        "valgebra.derived_bracket.self_s": (s["valgebra.derived_bracket"] * per, "s"),
        "valgebra.derived_bracket.zero_ratio": (
            _ratio(n["valgebra.derived_bracket.zero"], c["valgebra.derived_bracket"]), "ratio"),
        "valgebra.jacobi.calls": (calls("valgebra.jacobi"), "count"),
        "valgebra.jacobi.self_s": (s["valgebra.jacobi"] * per, "s"),
        "valgebra.mc_series.calls": (calls("valgebra.mc_series"), "count"),
        "valgebra.mc_series.depth_mean": (
            _ratio(n["valgebra.mc_series.depth"], c["valgebra.mc_series"]), "count"),
        "valgebra.twist.calls": (calls("valgebra.twist"), "count"),
        "valgebra.twist.depth_mean": (_ratio(n["valgebra.twist.depth"], c["valgebra.twist"]), "count"),
        "valgebra.mcdelta_check.calls": (calls("valgebra.mcdelta_check"), "count"),
        "subalgebroid.project.calls": (calls("subalgebroid.project"), "count"),
        "subalgebroid.project.self_s": (s["subalgebroid.project"] * per, "s"),
        "subalgebroid.mc_residual.self_s": (s["subalgebroid.mc_residual"] * per, "s"),
        "subalgebroid.graph_oracle.self_s": (s["subalgebroid.graph_oracle"] * per, "s"),
        "subalgebroid.tangency_oracle.self_s": (s["subalgebroid.tangency_oracle"] * per, "s"),
        "subalgebroid.explicit_maps.calls": (calls("subalgebroid.explicit_maps"), "count"),
        "subalgebroid.explicit_maps.self_s": (s["subalgebroid.explicit_maps"] * per, "s"),
        "subalgebroid.m1_cohomology.self_s": (s["subalgebroid.m1_cohomology"] * per, "s"),
        "algebroid.complex_cohomology.self_s": (s["algebroid.complex_cohomology"] * per, "s"),
        "algebroid.field_basis.size": (n["algebroid.field_basis.size"] * per, "count"),
        "algebroid.validate.calls": (calls("algebroid.validate"), "count"),
        "algebroid.validate.self_s": (s["algebroid.validate"] * per, "s"),
        "algebroid.classical.self_s": (s["algebroid.classical"] * per, "s"),
        "algebroid.build_xq.calls": (calls("algebroid.build_xq"), "count"),
        "applications.graph_setup.calls": (calls("applications.graph_setup"), "count"),
        "applications.graph_setup.self_s": (s["applications.graph_setup"] * per, "s"),
        "instances.parse.calls": (parse_calls, "count"),
        "instances.parse.self_s": (parse_self_s, "s"),
        "cli.handler.self_s": (s["cli.handler"] * per, "s"),
        "cli.report.self_s": (s["cli.report"] * per, "s"),
    }
    return values


def layer_self_totals(tracer: Tracer, passes: int) -> dict:
    """Self seconds per pass summed by module (the part of a span name before the first dot)."""
    totals: dict[str, float] = defaultdict(float)
    for name, seconds in tracer.self_s.items():
        totals[name.split(".")[0]] += seconds / passes
    return dict(sorted(totals.items()))
