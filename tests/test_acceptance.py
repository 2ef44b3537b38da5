"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
All checks are exact over the rationals; the stated runtime bounds are
asserted where the criterion carries one.
"""
import itertools
import random
import time
from fractions import Fraction

import pytest

from instance_gen import random_candidate, random_instance
from linfty.algebroid import AlgebroidData, build_xq, dgla_cohomology, validate_algebroid
from linfty.applications import HomomorphismData, foliation_infinitesimal, graph_setup, structure_delta, tangent_rn
from linfty.cli import run_command
from linfty.instances import fixture_path, parse_instance
from linfty.subalgebroid import (
    DeformationPair,
    FrameForm,
    SplitSetup,
    encode_deformation,
    encode_form,
    explicit_structure_maps,
    graph_closure_oracle,
    m1_cohomology,
    subalgebroid_mc_residual,
    tangency_oracle,
)
from linfty.superfield import SuperFunction, SuperVectorField, super_commutator
from linfty.valgebra import (
    LInftyElement,
    MCDelta,
    check_linfty_axioms,
    derived_bracket,
    mc_residual,
    twisted_projection,
)
from reference_oracles import Derivation, derivation_bracket, derivation_to_field

SL2 = parse_instance(fixture_path("sl2")).payload["data"]


def verdict(number: int, ok: bool, text: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"acceptance criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def borel():
    setup = parse_instance(fixture_path("sl2-borel")).payload["setup"]
    xq = build_xq(setup.data, setup.chart)
    return setup, xq, MCDelta.of(setup, xq)


def phi_pair(setup, a, b):
    return DeformationPair.build(setup, phi={(0, 2): Fraction(a), (1, 2): Fraction(b)})


def test_criterion_1_homological_validation():
    fixtures = [
        ("abelian-2", True), ("abelian-3", True), ("abelian-4", True),
        ("sl2", True), ("heisenberg-3", True),
        ("tangent-r1", True), ("tangent-r2", True), ("sl2-sum", True),
        ("non-jacobi-3", False),
    ]
    ok = True
    for name, expected in fixtures:
        start = time.perf_counter()
        inst = parse_instance(fixture_path(name))
        rep = validate_algebroid(inst.payload["data"].calculus)
        elapsed = time.perf_counter() - start
        ok = ok and (rep.ok == expected) and elapsed < 1.0
        if name == "non-jacobi-3":
            ok = ok and rep.jacobi_defects == {(0, 1, 2, 2): "-1"}
    verdict(1, ok, "fixture library validates; non-Jacobi fails with coefficient -1 on e3; < 1 s each")


def test_criterion_2_linfty_axioms(borel):
    setup, xq, delta = borel
    start = time.perf_counter()
    basis = []
    for d in (-1, 0, 1):
        basis.extend(LInftyElement.of(setup, b) for b in setup.abelian_basis(d))
    probes = [(b,) for b in basis]
    probes += [(a, b) for a in basis for b in basis]
    exhaustive = len(probes)
    rng = random.Random(2026)
    for n in (3, 4):
        for _ in range(100):
            probes.append(tuple(rng.choice(basis) for _ in range(n)))
    report = check_linfty_axioms(
        lambda args: derived_bracket(setup, delta, args), setup.chart, probes
    )
    elapsed = time.perf_counter() - start
    ok = report.ok and report.checked == exhaustive + 200 and elapsed < 30.0
    verdict(2, ok, f"generalized Jacobi exact for n <= 4 on {report.checked} probes "
                   f"(exhaustive basis pairs + 200 seeded random) in {elapsed:.1f} s")


def test_criterion_3_explicit_formula_equivalence():
    instances = [
        (SL2, 2, "borel split"),
        (AlgebroidData.build(0, 3), 2, "rank-(2,1) abelian"),
    ]
    ok = True
    for data, sub_rank, _ in instances:
        setup = SplitSetup.build(data, 0, 0, sub_rank)
        xq = build_xq(data, setup.chart)
        delta = MCDelta.of(setup, xq)
        forms = []
        for deg in range(setup.sub_rank + 1):
            for idx in itertools.combinations(setup.sub_indices, deg):
                for j in setup.comp_indices:
                    forms.append(FrameForm.build(setup, deg, {(idx, j): 1}))
        for arity in (1, 2, 3):
            for combo in itertools.product(forms, repeat=arity):
                derived = derived_bracket(setup, delta, [encode_form(f) for f in combo])
                explicit = encode_form(explicit_structure_maps(setup, arity, list(combo)))
                ok = ok and derived.value == explicit.value
        for combo in itertools.product(forms, repeat=4):
            ok = ok and derived_bracket(setup, delta, [encode_form(f) for f in combo]).value.is_zero()
    verdict(3, ok, "shuffle-sum formulas equal nested brackets exhaustively; arity >= 4 vanishes")


def test_criterion_4_mc_locus(borel):
    setup, xq, delta = borel
    expected_zero = {(-2, 1), (0, 0), (2, 1)}
    ok = True
    zero_points = set()
    for a in range(-2, 3):
        for b in range(-2, 3):
            inst = parse_instance(fixture_path("sl2-borel"))
            import argparse

            args = argparse.Namespace(truncate=None, probes=None, seed=None,
                                      phi=[str(a), str(b)], degree=None)
            report = run_command("subalg-check", inst, args)
            expected = SuperVectorField(
                setup.chart, {((), (0, 1), 2): Fraction(a * a - 4 * b)}
            )
            residual = subalgebroid_mc_residual(setup, delta, phi_pair(setup, a, b))
            ok = ok and residual.value == expected
            if report.verdict == "mc-zero":
                zero_points.add((a, b))
            ok = ok and (report.verdict == "mc-zero") == ((a, b) in expected_zero)
            ok = ok and report.oracle_agreement
    ok = ok and zero_points == expected_zero
    verdict(4, ok, "grid locus is exactly {(-2,1),(0,0),(2,1)}; residual = (a^2-4b) on the top generator")


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(515)
    checked = accepted = rejected = 0
    ok = True
    while checked < 50:
        setup, xq = random_instance(rng)
        pair = random_candidate(setup, rng)
        residual = subalgebroid_mc_residual(setup, MCDelta.of(setup, xq), pair)
        oracle = graph_closure_oracle(setup, pair)
        ok = ok and (residual.value.is_zero() == oracle.accepts)
        ok = ok and tangency_oracle(setup, xq, pair) == residual.value
        if oracle.accepts:
            accepted += 1
        else:
            rejected += 1
        checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and accepted > 0 and rejected > 0 and elapsed < 120.0
    verdict(5, ok, f"{checked} random polynomial instances: residual zero iff graph-closure accepts "
                   f"({accepted} accept / {rejected} reject); tangency routes agree; {elapsed:.1f} s")


def test_criterion_6_twisting(borel):
    setup, xq, delta = borel
    base = encode_deformation(setup, phi_pair(setup, 2, 1)).value
    ok = True
    for a in range(-2, 3):
        for b in range(-2, 3):
            cand = encode_deformation(setup, phi_pair(setup, a, b)).value
            twisted = twisted_projection(setup, LInftyElement(-(base + cand), 0), delta.delta)
            on_locus = (2 + a) ** 2 == 4 * (1 + b)
            ok = ok and twisted.is_zero() == on_locus
            summed = mc_residual(setup, delta, LInftyElement(-(base + cand), 0))
            ok = ok and twisted == summed.value
    verdict(6, ok, "twisted locus around (2,1) is {(2+a)^2 = 4(1+b)} on the 5x5 grid")


def test_criterion_7_cohomology(borel):
    start = time.perf_counter()
    ok = dgla_cohomology(SL2, range(4)) == [0, 0, 0, 0]
    setup, xq, delta = borel
    ok = ok and m1_cohomology(setup, delta, (-1, 0, 1)) == [0, 0, 0]
    import math

    ab = SplitSetup.build(AlgebroidData.build(0, 3), 0, 0, 2)
    ab_xq = SuperVectorField.zero(ab.chart)
    dims = m1_cohomology(ab, MCDelta.of(ab, ab_xq), (-1, 0, 1))
    ok = ok and dims == [math.comb(2, n) for n in (0, 1, 2)]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    verdict(7, ok, f"H^2(sl2; sl2) = 0, acyclic split complex, full-dimensional abelian case; {elapsed:.1f} s")


def test_criterion_8_derivation_transport():
    ok = True
    rng = random.Random(88)
    # the bracket-derivation with anchor symbol maps to the structure field
    for g in (SL2, tangent_rn(1)):
        chart = g.plain_chart()
        body = {
            ((i, j), k): SuperFunction(chart, {(e, ()): c for e, c in poly.items()})
            for (i, j, k), poly in g.structure.items()
        }
        symbol = {
            ((i,), t): SuperFunction(chart, {(e, ()): c for e, c in poly.items()})
            for (i, t), poly in g.anchor.items()
        }
        dq = Derivation.build(chart, 1, body=body, symbol=symbol)
        ok = ok and derivation_to_field(chart, dq) == build_xq(g, chart)
        checked = 0
        while checked < 100:
            ds = []
            for _ in range(2):
                p = rng.randint(0, 2)
                body_r, symbol_r = {}, {}
                for idx in itertools.combinations(range(g.fiber_rank), p + 1):
                    for a in range(g.fiber_rank):
                        c = rng.randint(-2, 2)
                        if c:
                            e = tuple(rng.randint(0, 2) for _ in range(g.base_dim))
                            body_r[(idx, a)] = SuperFunction(chart, {(e, ()): Fraction(c)})
                for idx in itertools.combinations(range(g.fiber_rank), p):
                    for t in range(g.base_dim):
                        c = rng.randint(-2, 2)
                        if c:
                            e = tuple(rng.randint(0, 2) for _ in range(g.base_dim))
                            symbol_r[(idx, t)] = SuperFunction(chart, {(e, ()): Fraction(c)})
                ds.append(Derivation.build(chart, p, body=body_r, symbol=symbol_r))
            transported = derivation_to_field(chart, derivation_bracket(chart, ds[0], ds[1]))
            direct = super_commutator(
                derivation_to_field(chart, ds[0]), derivation_to_field(chart, ds[1])
            )
            ok = ok and transported == direct
            checked += 1
    verdict(8, ok, "bracket transport exact on 200 random derivation pairs; structure derivation maps to the field")


def test_criterion_9_applications():
    setup = parse_instance(fixture_path("foliation-r3")).payload["setup"]
    delta = MCDelta.of(setup, build_xq(setup.data, setup.chart))
    psi = {(0, 2): {(0, 1, 0): 1}, (1, 2): {(1, 0, 0): 1}}
    accept = foliation_infinitesimal(setup, delta, DeformationPair.build(setup, phi=psi))
    reject = foliation_infinitesimal(setup, delta, DeformationPair.build(setup, phi={(0, 2): psi[(0, 2)]}))
    ok = accept.closed and accept.agree
    ok = ok and (not reject.closed) and reject.agree
    ok = ok and reject.residual.values == {
        ((0, 1), 2): SuperFunction.constant(setup.chart, -1)
    }
    h = parse_instance(fixture_path("hom-sl2-id")).payload["homomorphism"]
    setup, base, _ = graph_setup(h)
    delta = structure_delta(setup, h)
    ok = ok and subalgebroid_mc_residual(setup, delta, base).value.is_zero()
    for t, expected in ((1, False), (0, True), (-1, True)):
        offsets = HomomorphismData.build(h.source, h.target, {(i, i): t for i in range(3)})
        pair = base.add(graph_setup(h, offsets)[2])
        res = subalgebroid_mc_residual(setup, delta, pair)
        ok = ok and res.value.is_zero() == expected
    verdict(9, ok, "foliation fixture accepts/rejects with coefficient -1; scaled identity rejected except t in {0,-1}")
