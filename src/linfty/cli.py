"""Command-line interface: validation, MC checks, cohomology, oracle cross-runs.

Every command produces a deterministic report; ``--json`` emits the
machine-readable form (timing omitted so reports are byte-stable).  Exit
codes: 0 pass/mc-zero, 1 mathematical failure, 2 input error (a bad file
or flag, a series over its cap, or input that fails a documented
precondition, raised as ``PreconditionError``), 3 internal inconsistency
(the two independent routes disagreed; must never happen), 4 internal
error (any other exception, a plain ``ValueError`` included; must never
happen either).
"""
from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
from fractions import Fraction
from typing import Any

from .algebroid import (
    AlgebroidData,
    build_xq,
    classically_valid,
    dgla_cohomology,
    merge_polys,
    structure_residual,
    validate_algebroid,
)
from .applications import block_perturbation, foliation_infinitesimal, structure_delta
from .instances import InstanceError, InstanceFile, parse_instance, resolve_instance
from .signs import koszul_sign
from .subalgebroid import (
    DeformationPair,
    SplitSetup,
    decode_form,
    encode_form,
    explicit_structure_maps,
    graph_closure_oracle,
    m1_cohomology,
    simultaneous_residual,
    subalgebroid_mc_residual,
    tangency_oracle,
)
from .superfield import PreconditionError, Record, SuperVectorField, render_field
from .valgebra import DerivedBrackets, LInftyElement, MCDelta, SeriesCapExceeded, check_linfty_axioms

CONVENTIONS = (
    "candidate-sign=-1",
    "form-shift-sign=(-1)^(k(k-1)/2)",
    "m3-signs=bracket-matched",
)

EXIT_PASS = 0
EXIT_MATH_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_INCONSISTENT = 3
EXIT_INTERNAL_ERROR = 4


class Report(Record):
    __slots__ = _fields = ("command", "verdict", "residual_terms", "oracle_agreement", "timing_ms", "details")

    def __init__(self, command: str, verdict: str, residual_terms: list[str] | None = None,
                 oracle_agreement: bool | None = None, timing_ms: float = 0.0, details: dict[str, Any] | None = None):
        self.command, self.verdict, self.residual_terms = command, verdict, residual_terms
        self.oracle_agreement, self.timing_ms = oracle_agreement, timing_ms
        self.details = {} if details is None else details

    @property
    def exit_code(self) -> int:
        if self.oracle_agreement is False:
            return EXIT_INCONSISTENT
        if self.verdict in ("pass", "mc-zero"):
            return EXIT_PASS
        return EXIT_MATH_FAIL

    def to_json_obj(self) -> dict:
        obj = {
            "command": self.command,
            "verdict": self.verdict,
            "conventions": list(CONVENTIONS),
            "details": self.details,
        }
        if self.residual_terms is not None:
            obj["residual_terms"] = self.residual_terms
        if self.oracle_agreement is not None:
            obj["oracle_agreement"] = self.oracle_agreement
        return obj

    def render_text(self) -> str:
        lines = [f"command:  {self.command}", f"verdict:  {self.verdict}"]
        if self.residual_terms is not None:
            if self.residual_terms:
                lines.append("residual:")
                lines.extend(f"  {t}" for t in self.residual_terms)
            else:
                lines.append("residual: 0")
        if self.oracle_agreement is not None:
            lines.append(f"oracle:   {'agree' if self.oracle_agreement else 'DISAGREE'}")
        for key in sorted(self.details):
            lines.append(f"{key}: {self.details[key]}")
        lines.append(f"time:     {self.timing_ms:.1f} ms")
        lines.append(f"conventions: {', '.join(CONVENTIONS)}")
        return "\n".join(lines)


def _residual_terms(value: SuperVectorField) -> list[str]:
    if value.is_zero():
        return []
    return [
        render_field(SuperVectorField(value.chart, {key: c}))
        for key, c in sorted(value.terms.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1]))
    ]


def _data_sum(a: AlgebroidData, b: AlgebroidData) -> AlgebroidData:
    if (a.base_dim, a.fiber_rank) != (b.base_dim, b.fiber_rank):
        raise ValueError("summands have different dimensions")
    structure = merge_polys([*a.structure.items(), *b.structure.items()])
    anchor = merge_polys([*a.anchor.items(), *b.anchor.items()])
    return AlgebroidData.build(a.base_dim, a.fiber_rank, structure, anchor)


def _lie_candidate(data: AlgebroidData, cand: AlgebroidData) -> tuple[SuperVectorField, bool]:
    """MC residual [X, X~] + (1/2)[X~, X~] of a structure candidate, and whether the sum is classically valid.

    The base structure need not be homological: the residual is reported as it is.
    """
    calc = data.calculus
    residual = structure_residual(calc.xq, build_xq(cand, calc.chart))
    return residual, classically_valid(_data_sum(data, cand).calculus)


def _phi_override(setup: SplitSetup, values: list[str]) -> DeformationPair:
    """Fill the bundle-map entries in row-major frame order from CLI numbers."""
    slots = [(i, j) for i in setup.sub_indices for j in setup.comp_indices]
    if len(values) != len(slots):
        raise InstanceError("--phi", f"expected {len(slots)} entries, got {len(values)}")
    phi = {}
    for slot, text in zip(slots, values):
        try:
            c = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError("--phi", f"bad rational {text!r}: {exc}") from exc
        if c != 0:
            phi[slot] = c
    return DeformationPair.build(setup, phi=phi)


# count flags: (name, least value, what the refusal expects); checked once in run_command
_COUNT_FLAGS = (
    ("truncate", 0, "a nonnegative integer"),
    ("probes", 0, "a nonnegative integer"),
)


_SPLIT_KINDS = ("subalgebroid", "subalgebra")


def _over_a_point(inst: InstanceFile) -> bool:
    """Whether the instance's cohomology lives over a point: no coefficient has a degree to truncate."""
    split = inst.payload.get("setup")
    return (split.base_dim if split is not None else inst.payload["data"].base_dim) == 0


# flags that only some (command, instance) pairs read; every other pair refuses them in run_command
_READERS = {
    "truncate": lambda command, inst: command == "cohomology" and not _over_a_point(inst),
    "probes": lambda command, inst: command == "axioms",
    "seed": lambda command, inst: command == "axioms",
    "degree": lambda command, inst: command == "cohomology",
    "phi": lambda command, inst: (
        command in ("subalg-check", "mc-check", "simultaneous", "oracle-compare") and inst.kind in _SPLIT_KINDS
    ),
}


DEFAULT_PROBES = 100
DEFAULT_SEED = 0


def _option(args, name: str, default: int) -> int:
    """A count flag from the command line, or its default when it is not given."""
    value = getattr(args, name)
    return default if value is None else value


# (command, kind) pairs a split payload does not support: a foliation's tangent structure is fixed, and a
# homomorphism's cohomology would be that of its graph, not of the map
_UNSUPPORTED = {("simultaneous", "foliation"), ("cohomology", "homomorphism")}


def _split_case(inst: InstanceFile, args, command: str) -> tuple[SplitSetup, DeformationPair, DeformationPair]:
    """An instance as a subalgebroid in its split presentation: (setup, base pair, candidate pair).

    The ambient algebroid is ``setup.data``; the deformed graph is that of
    ``base.add(cand)``.  Subalgebroids, foliations and homomorphisms (the
    graph of the bundle map in the direct sum) are presented at parse.
    """
    if "setup" not in inst.payload or (command, inst.kind) in _UNSUPPORTED:
        raise InstanceError("$.kind", f"{command} does not support kind {inst.kind!r}")
    setup = inst.payload["setup"]
    phi = getattr(args, "phi", None)  # an empty --phi is given too, and refused for its length
    cand = inst.payload["candidate"] if phi is None else _phi_override(setup, phi)
    return setup, inst.payload.get("base") or DeformationPair.zero(), cand


def _structure_delta(inst: InstanceFile, setup: SplitSetup) -> MCDelta:
    """The checked MCDelta of the ambient structure field, computed once per split record (``SplitSetup.delta``)."""
    return structure_delta(setup, inst.payload.get("homomorphism"))


def _summand_brackets(inst: InstanceFile, setup: SplitSetup) -> tuple[DerivedBrackets, list[LInftyElement]]:
    """The derived brackets of the split and the constant-coefficient basis of its summand.

    The brackets share their chains and checks for as long as the returned object lives: one command.
    """
    delta = _structure_delta(inst, setup)
    basis: list[LInftyElement] = []
    for d in range(-1, setup.sub_rank + 1):
        basis.extend(LInftyElement.of(setup, b) for b in setup.abelian_basis(d))
    return DerivedBrackets(setup, delta), basis


# ---------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------
def _cmd_validate(inst: InstanceFile, args) -> Report:
    if inst.kind in ("algebroid", "lie_algebra"):
        calc = inst.payload["data"].calculus
        rep = validate_algebroid(calc)
        agreement = rep.ok == rep.classical_ok
        details: dict[str, Any] = {}
        if rep.anchor_defects:
            details["anchor_defects"] = {str(k): v for k, v in sorted(rep.anchor_defects.items())}
        if rep.jacobi_defects:
            details["jacobi_defects"] = {str(k): v for k, v in sorted(rep.jacobi_defects.items())}
        return Report(
            "validate",
            "pass" if rep.ok else "fail",
            residual_terms=_residual_terms(calc.square),
            oracle_agreement=agreement,
            details=details,
        )
    setup, base, _ = _split_case(inst, args, "validate")
    if inst.kind == "homomorphism":  # its graph, the base pair, must be a subalgebroid
        res = subalgebroid_mc_residual(setup, _structure_delta(inst, setup), base)
        return Report(
            "validate",
            "pass" if res.value.is_zero() else "fail",
            residual_terms=_residual_terms(res.value),
            oracle_agreement=res.value.is_zero() == graph_closure_oracle(setup, base).accepts,
        )
    calc = setup.calculus
    rep = validate_algebroid(calc)
    projected = setup.project(calc.xq)
    closed = projected.is_zero()
    if inst.kind == "foliation":  # closed: the distribution is integrable
        return Report(
            "validate",
            "pass" if (closed and rep.ok) else "fail",
            oracle_agreement=rep.ok == rep.classical_ok,
            details={"integrable": closed},
        )
    oracle = graph_closure_oracle(setup, DeformationPair.zero())
    return Report(
        "validate",
        "pass" if (rep.ok and closed) else "fail",
        residual_terms=_residual_terms(calc.square) + _residual_terms(projected),
        oracle_agreement=(rep.ok and closed) == (rep.classical_ok and oracle.accepts),
        details={"ambient_valid": rep.ok, "subbundle_closed": closed},
    )


def _cmd_mc_check(inst: InstanceFile, args) -> Report:
    if inst.kind in ("algebroid", "lie_algebra"):
        cand = inst.payload.get("candidate")
        if cand is None:
            raise InstanceError("$.candidate", "mc-check needs a candidate block")
        residual, summed_ok = _lie_candidate(inst.payload["data"], cand)
        zero = residual.is_zero()
        return Report(
            "mc-check",
            "mc-zero" if zero else "mc-nonzero",
            residual_terms=_residual_terms(residual),
            oracle_agreement=zero == summed_ok,
        )
    return _cmd_subalg_check(inst, args, command="mc-check")


def _cmd_subalg_check(inst: InstanceFile, args, command: str = "subalg-check") -> Report:
    setup, base, cand = _split_case(inst, args, command)
    delta = _structure_delta(inst, setup)
    if inst.kind == "homomorphism" and not subalgebroid_mc_residual(setup, delta, base).value.is_zero():
        raise PreconditionError("the base bundle map is not a homomorphism")
    pair = base.add(cand)
    residual = subalgebroid_mc_residual(setup, delta, pair)
    oracle = graph_closure_oracle(setup, pair)
    zero = residual.value.is_zero()
    return Report(
        command,
        "mc-zero" if zero else "mc-nonzero",
        residual_terms=_residual_terms(residual.value),
        oracle_agreement=zero == oracle.accepts,
    )


def _cmd_simultaneous(inst: InstanceFile, args) -> Report:
    setup, base, cand_def = _split_case(inst, args, "simultaneous")
    cand_data = inst.payload.get("candidate_xq")
    if inst.kind == "homomorphism" and cand_data is not None:  # one perturbation per block
        cand_data = block_perturbation(inst.payload["homomorphism"], cand_data.get("source"), cand_data.get("target"))
    cand_xq = build_xq(cand_data, setup.chart) if cand_data is not None else SuperVectorField.zero(setup.chart)
    v_res, a_res = simultaneous_residual(setup, _structure_delta(inst, setup), base, cand_xq, cand_def)
    zero = v_res.is_zero() and a_res.is_zero()
    summed = setup if cand_data is None else SplitSetup.build(
        _data_sum(setup.data, cand_data), setup.base_dim, setup.normal_rank, setup.sub_rank
    )
    oracle_ok = classically_valid(summed.calculus) and graph_closure_oracle(summed, base.add(cand_def)).accepts
    return Report(
        "simultaneous",
        "mc-zero" if zero else "mc-nonzero",
        residual_terms=_residual_terms(v_res) + _residual_terms(a_res),
        oracle_agreement=zero == oracle_ok,
        details={
            "structure_residual_zero": v_res.is_zero(),
            "graph_residual_zero": a_res.is_zero(),
        },
    )


def _cmd_cohomology(inst: InstanceFile, args) -> Report:
    truncate = args.truncate
    if inst.kind in ("algebroid", "lie_algebra"):
        data: AlgebroidData = inst.payload["data"]
        top = data.fiber_rank
        groups = lambda qs: dgla_cohomology(data, qs, truncate=truncate)
    else:
        setup = _split_case(inst, args, "cohomology")[0]
        top = setup.sub_rank + (1 if setup.normal_rank else 0)
        groups = lambda qs: m1_cohomology(
            setup, _structure_delta(inst, setup), [q - 1 for q in qs], truncate=truncate
        )
    if args.degree is not None and not 0 <= args.degree <= top:
        raise InstanceError("--degree", f"expected a degree in 0..{top}")
    degrees = [args.degree] if args.degree is not None else list(range(top + 1))
    dims = groups(degrees)  # in increasing degree, each differential applied once
    details: dict[str, Any] = {"dimensions": {f"H^{q}": dim for q, dim in zip(degrees, dims)}}
    if not _over_a_point(inst):
        details["truncated_at"] = truncate
    return Report("cohomology", "pass", details=details)


def _cmd_brackets(inst: InstanceFile, args) -> Report:
    """The derived brackets of every ordered basis combination up to arity 3.

    On a fixed base the explicit route checks each one: the explicit maps
    are evaluated once per multiset, on its sorted combination, and every
    ordering is compared to that value times its Koszul sign.  The sorted
    combination comes first among its orderings, so its value is ready when
    the others need it.
    """
    setup = _split_case(inst, args, "brackets")[0]
    bracket, basis = _summand_brackets(inst, setup)
    table = {}
    details: dict[str, Any] = {"nonzero_brackets": table, "basis_size": len(basis)}
    fixed_base = setup.normal_rank == 0
    agreement = True if fixed_base else None
    if fixed_base:  # every basis form decoded once
        forms = [decode_form(setup, el, el.degree + 1) for el in basis]
        by_multiset: dict[tuple[int, ...], SuperVectorField] = {}
    for arity in (1, 2, 3):
        for combo in itertools.product(range(len(basis)), repeat=arity):
            value = bracket([basis[i] for i in combo])
            if not value.value.is_zero():
                table[f"m{arity}{list(combo)}"] = render_field(value.value)
            if fixed_base:
                order = sorted(range(arity), key=combo.__getitem__)
                multiset = tuple(combo[p] for p in order)
                if multiset == combo:
                    explicit = by_multiset[combo] = encode_form(
                        explicit_structure_maps(setup, arity, [forms[i] for i in combo])).value
                elif koszul_sign(order, [basis[i].degree for i in combo]) == 1:
                    explicit = by_multiset[multiset]
                else:
                    explicit = -by_multiset[multiset]
                if explicit != value.value and agreement:
                    agreement = False
                    details["first_disagreement"] = {
                        "combination": f"m{arity}{list(combo)}",
                        "derived": render_field(value.value),
                        "explicit": render_field(explicit),
                    }
    return Report("brackets", "pass", oracle_agreement=agreement, details=details)


def _cmd_axioms(inst: InstanceFile, args) -> Report:
    probes_count = _option(args, "probes", DEFAULT_PROBES)
    seed = _option(args, "seed", DEFAULT_SEED)
    setup = _split_case(inst, args, "axioms")[0]
    bracket, basis = _summand_brackets(inst, setup)
    probes: list[tuple[LInftyElement, ...]] = [(b,) for b in basis]
    probes += [(a, b) for a in basis for b in basis]
    rng = random.Random(seed)
    for n in (3, 4) if basis else ():  # an empty summand has nothing to draw
        for _ in range(probes_count):
            probes.append(tuple(rng.choice(basis) for _ in range(n)))
    rep = check_linfty_axioms(bracket, setup.chart, probes)
    return Report(
        "axioms",
        "pass" if rep.ok else "fail",
        details={"checked": rep.checked, "failures": rep.failures[:3]},
    )


def _cmd_oracle_compare(inst: InstanceFile, args) -> Report:
    if inst.kind in ("algebroid", "lie_algebra"):
        rep = validate_algebroid(inst.payload["data"].calculus)
        agree = rep.ok == rep.classical_ok
        details: dict[str, Any] = {"homological": rep.ok, "classical": rep.classical_ok}
        cand = inst.payload.get("candidate")
        if cand is not None:
            residual, summed_ok = _lie_candidate(inst.payload["data"], cand)
            details["mc_zero"] = residual.is_zero()
            details["summed_classical"] = summed_ok
            agree = agree and (residual.is_zero() == summed_ok)
        return Report(
            "oracle-compare",
            "pass" if (rep.ok and agree) else "fail",
            oracle_agreement=agree,
            details=details,
        )
    # MC residual vs graph closure, plus a third route: the classical
    # infinitesimal condition for a foliation, graph substitution otherwise
    setup, base, cand = _split_case(inst, args, "oracle-compare")
    pair = base.add(cand)
    delta = _structure_delta(inst, setup)
    mc = subalgebroid_mc_residual(setup, delta, pair).value
    if inst.kind == "foliation":
        infinitesimal = foliation_infinitesimal(setup, delta, cand)
        third_agrees = infinitesimal.agree
        details = {"infinitesimal_closed": infinitesimal.closed}
    else:
        # along the structure field the tangency series is the MC residual itself
        third_agrees = mc == tangency_oracle(setup, delta.delta, pair)
        details = {"tangency_routes_agree": third_agrees}
    oracle = graph_closure_oracle(setup, pair)
    zero = mc.is_zero()
    agree = zero == oracle.accepts and third_agrees
    details.update(mc_zero=zero, graph_oracle=oracle.accepts)
    return Report(
        "oracle-compare",
        "pass" if (zero and agree) else "fail",
        residual_terms=None if inst.kind == "foliation" else _residual_terms(mc),
        oracle_agreement=agree,
        details=details,
    )


COMMANDS = {
    "validate": _cmd_validate,
    "mc-check": _cmd_mc_check,
    "subalg-check": _cmd_subalg_check,
    "simultaneous": _cmd_simultaneous,
    "cohomology": _cmd_cohomology,
    "brackets": _cmd_brackets,
    "oracle-compare": _cmd_oracle_compare,
    "axioms": _cmd_axioms,
}


def run_command(cmd: str, inst: InstanceFile, args=None) -> Report:
    """Dispatch a command on a parsed instance; deterministic given the seed."""
    if cmd not in COMMANDS:
        raise InstanceError("command", f"unsupported command {cmd!r}")
    if args is None:
        args = argparse.Namespace(truncate=None, probes=None, seed=None, phi=None, degree=None)
    for name, least, expected in _COUNT_FLAGS:
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise InstanceError(f"--{name}", f"expected {expected}")
    for name, reads in _READERS.items():
        if getattr(args, name, None) is not None and not reads(cmd, inst):
            raise InstanceError(f"--{name}", f"{cmd} does not read it for kind {inst.kind!r}")
    start = time.perf_counter()
    report = COMMANDS[cmd](inst, args)
    report.timing_ms = (time.perf_counter() - start) * 1000.0
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linfty",
        description="Exact Maurer-Cartan checks for algebroid, subalgebroid and homomorphism deformations.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("instance", help="instance file path or bundled preset name (e.g. sl2, sl2-borel, abelian-3)")
    parser.add_argument("--truncate", type=int, default=None,
                        help="cohomology polynomial truncation degree (required over a base, refused over a point)")
    parser.add_argument("--probes", type=int, default=None,
                        help=f"random probe count for the axiom checker (default {DEFAULT_PROBES})")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"random seed for probe generation (default {DEFAULT_SEED})")
    parser.add_argument("--degree", type=int, default=None, help="restrict cohomology to a single degree")
    parser.add_argument("--phi", nargs="*", default=None, help="override bundle-map entries (row-major rationals)")
    parser.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    return parser


def main(argv=None) -> int:
    """Run one command; exact coefficients of any length are read and rendered in full while it runs."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _main(build_parser().parse_args(argv))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _main(args) -> int:
    try:
        path = resolve_instance(args.instance)
        inst = parse_instance(path)
        report = run_command(args.command, inst, args)
    except InstanceError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SeriesCapExceeded as exc:
        print(f"series cap exceeded: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    if args.json:
        print(json.dumps(report.to_json_obj(), sort_keys=True, indent=1))
    else:
        print(report.render_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
