import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from golden import record_instance_gen
from instance_gen import heisenberg, random_candidate, random_instance, sl_n
from linfty.algebroid import (
    AlgebroidData,
    SectionCalculus,
    build_xq,
    classical_anchor_defects,
    classical_jacobi_defects,
    dgla_cohomology,
    merge_polys,
    structure_residual,
    validate_algebroid,
)
from linfty.applications import tangent_rn
from linfty.instances import fixture_path, parse_instance
from linfty.subalgebroid import DeformationPair, graph_closure_oracle, simultaneous_residual
from linfty.valgebra import MCDelta
from reference_oracles import (
    CEForm,
    Derivation,
    ce_differential,
    derivation_bracket,
    derivation_to_field,
    field_to_derivation,
    form_to_superfunction,
    superfunction_to_form,
)
from linfty.superfield import (
    SuperFunction,
    SuperVectorField,
    apply,
    is_homological,
    super_commutator,
)

SL2 = AlgebroidData.build(0, 3, structure={(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1})
HEIS = AlgebroidData.build(0, 3, structure={(0, 1, 2): 1})
NON_JACOBI = AlgebroidData.build(0, 3, structure={(0, 1, 2): 1, (0, 2, 0): 1})
TR1 = AlgebroidData.build(1, 1, anchor={(0, 0): 1})
TR2 = AlgebroidData.build(2, 2, anchor={(0, 0): 1, (1, 1): 1})


class TestBuildXq:
    def test_abelian_gives_zero(self):
        assert build_xq(AlgebroidData.build(0, 3)).is_zero()

    def test_sl2_field(self):
        chart = SL2.plain_chart()
        expected = SuperVectorField(
            chart,
            {
                ((), (1, 2), 0): Fraction(1),
                ((), (0, 1), 1): Fraction(2),
                ((), (0, 2), 2): Fraction(-2),
            },
        )
        assert build_xq(SL2) == expected

    def test_tangent_line(self):
        chart = TR1.plain_chart()
        assert build_xq(TR1) == SuperVectorField(chart, {((0,), (0,), 0): Fraction(-1)})

    def test_degree_one_and_low_odd_degree(self):
        for data in (SL2, HEIS, TR2):
            xq = build_xq(data)
            assert xq.degree() == 1
            assert all(len(odd) <= 2 for (_, odd, _) in xq.terms)

    def test_antisymmetry_folding(self):
        # supplying (j, i) entries folds them with a sign
        a = AlgebroidData.build(0, 2, structure={(1, 0, 0): 1})
        b = AlgebroidData.build(0, 2, structure={(0, 1, 0): -1})
        assert build_xq(a) == build_xq(b)

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            AlgebroidData.build(0, 2, structure={(0, 0, 1): 1})


class TestValidateAlgebroid:
    @pytest.mark.parametrize("data", [SL2, HEIS, TR1, TR2, AlgebroidData.build(0, 4)])
    def test_valid_instances(self, data):
        rep = validate_algebroid(data)
        assert rep.ok and rep.classical_ok

    def test_non_jacobi_fails_with_localized_defect(self):
        rep = validate_algebroid(NON_JACOBI)
        assert not rep.ok
        assert not rep.square.is_zero()
        assert rep.jacobi_defects == {(0, 1, 2, 2): "-1"}

    def test_rank_one_trivial_bracket_any_anchor(self):
        # a single generator with zero self-bracket is a Lie algebroid for
        # every polynomial anchor coefficient
        data = AlgebroidData.build(1, 1, anchor={(0, 0): {(3,): Fraction(2, 3)}})
        assert validate_algebroid(data).ok

    def test_anchor_homomorphism_defect_detected(self):
        # constant bracket with anchors that do not commute
        data = AlgebroidData.build(
            1, 2, structure={}, anchor={(0, 0): 1, (1, 0): {(1,): 1}}
        )
        rep = validate_algebroid(data)
        assert not rep.ok
        assert classical_anchor_defects(data)
        assert rep.anchor_defects

    def test_homological_iff_classical_on_random_perturbations(self):
        rng = random.Random(9)
        for _ in range(30):
            structure = {}
            for (i, j) in itertools.combinations(range(3), 2):
                for k in range(3):
                    c = rng.randint(-1, 1)
                    if c:
                        structure[(i, j, k)] = c
            data = AlgebroidData.build(0, 3, structure)
            rep = validate_algebroid(data)
            assert rep.ok == rep.classical_ok
            assert rep.ok == (not classical_jacobi_defects(data))

    def test_homological_iff_classical_polynomial_coefficients(self):
        rng = random.Random(10)
        for _ in range(25):
            structure = {}
            for k in range(2):
                poly = {}
                for _ in range(2):
                    c = rng.randint(-2, 2)
                    if c:
                        poly[(rng.randint(0, 2),)] = Fraction(c)
                if poly:
                    structure[(0, 1, k)] = poly
            anchor = {}
            for i in range(2):
                c = rng.randint(-1, 1)
                if c:
                    anchor[(i, 0)] = {(rng.randint(0, 1),): Fraction(c)}
            data = AlgebroidData.build(1, 2, structure, anchor)
            rep = validate_algebroid(data)
            assert rep.ok == rep.classical_ok


def preset_data(name):
    return parse_instance(fixture_path(name)).payload["data"]


class TestDeformationResidual:
    """The residual of a structure candidate, as ``mc-check`` and ``simultaneous`` compute it."""

    def test_zero_candidate(self):
        xq = build_xq(preset_data("sl2"))
        assert structure_residual(xq, SuperVectorField.zero(xq.chart)).is_zero()

    def test_two_dim_brackets_always_lie(self):
        ab2 = preset_data("abelian-2")
        cand = build_xq(AlgebroidData.build(0, 2, structure={(0, 1, 0): 1}), ab2.plain_chart())
        assert structure_residual(build_xq(ab2), cand).is_zero()

    def test_detects_jacobiator(self):
        ab3 = preset_data("abelian-3")
        cand = build_xq(preset_data("non-jacobi-3"), ab3.plain_chart())
        assert not structure_residual(build_xq(ab3), cand).is_zero()

    def test_zero_iff_sum_homological(self):
        rng = random.Random(2)
        xq = build_xq(preset_data("sl2"))
        chart = SL2.plain_chart()
        hits = {True: 0, False: 0}
        for _ in range(30):
            structure = {}
            for (i, j) in itertools.combinations(range(3), 2):
                for k in range(3):
                    c = rng.randint(-1, 1)
                    if c:
                        structure[(i, j, k)] = c
            cand = build_xq(AlgebroidData.build(0, 3, structure), chart)
            zero = structure_residual(xq, cand).is_zero()
            hits[zero] += 1
            assert zero == is_homological(xq + cand)
        assert hits[False] > 0  # the sample is not vacuous

    def test_degree_violation(self):
        setup = parse_instance(fixture_path("sl2-borel")).payload["setup"]
        delta = MCDelta.of(setup, build_xq(setup.data, setup.chart))
        bad = SuperVectorField(setup.chart, {((), (0, 1), 0): Fraction(1), ((), (), 0): Fraction(1)})
        with pytest.raises(ValueError, match="degree 1"):
            simultaneous_residual(setup, delta, DeformationPair.zero(), bad, DeformationPair.zero())


class TestCEDifferential:
    def test_constant_function_closed_over_point(self):
        chart = SL2.plain_chart()
        f = CEForm.build(chart, 0, {(): 1})
        assert ce_differential(SL2, f).is_zero()

    def test_sl2_dual_generator(self):
        chart = SL2.plain_chart()
        hstar = CEForm.build(chart, 1, {(0,): 1})
        d = ce_differential(SL2, hstar)
        assert d.evaluate((1, 2)) == SuperFunction.constant(chart, -1)

    def test_tangent_line_function(self):
        chart = TR1.plain_chart()
        f = CEForm.build(chart, 0, {(): SuperFunction(chart, {((2,), ()): Fraction(1)})})
        d = ce_differential(TR1, f)
        assert d.evaluate((0,)) == SuperFunction(chart, {((1,), ()): Fraction(2)})

    def test_squares_to_zero_when_valid(self):
        rng = random.Random(1)
        for data in (SL2, HEIS, TR2):
            chart = data.plain_chart()
            for n in range(data.fiber_rank):
                values = {}
                for idx in itertools.combinations(range(data.fiber_rank), n):
                    e = tuple(rng.randint(0, 1) for _ in range(data.base_dim))
                    values[idx] = SuperFunction(chart, {(e, ()): Fraction(rng.randint(-2, 2))})
                form = CEForm.build(chart, n, values)
                assert ce_differential(data, ce_differential(data, form)).is_zero()

    def test_matches_structure_field_action(self):
        rng = random.Random(8)
        for data in (SL2, HEIS, TR1, TR2):
            chart = data.plain_chart()
            xq = build_xq(data, chart)
            for n in range(data.fiber_rank + 1):
                values = {}
                for idx in itertools.combinations(range(data.fiber_rank), n):
                    e = tuple(rng.randint(0, 2) for _ in range(data.base_dim))
                    values[idx] = SuperFunction(chart, {(e, ()): Fraction(rng.randint(-2, 2))})
                form = CEForm.build(chart, n, values)
                assert form_to_superfunction(ce_differential(data, form)) == apply(
                    xq, form_to_superfunction(form)
                )

    def test_identification_round_trip(self):
        chart = SL2.plain_chart()
        form = CEForm.build(chart, 2, {(0, 1): 3, (1, 2): -2})
        back = superfunction_to_form(form_to_superfunction(form), 2)
        assert back.values == form.values


class TestDerivations:
    def test_zero_derivation(self):
        chart = SL2.plain_chart()
        assert derivation_to_field(chart, Derivation.build(chart, 1)).is_zero()

    def test_bracket_derivation_maps_to_structure_field(self):
        chart = SL2.plain_chart()
        body = {((i, j), k): SuperFunction(chart, {(e, ()): c for e, c in poly.items()})
                for (i, j, k), poly in SL2.structure.items()}
        dq = Derivation.build(chart, 1, body=body)
        assert derivation_to_field(chart, dq) == build_xq(SL2, chart)
        assert derivation_bracket(chart, dq, dq).is_zero()

    def test_identity_derivation_gives_euler_field(self):
        chart = SL2.plain_chart()
        euler = Derivation.build(chart, 0, body={((i,), i): 1 for i in range(3)})
        expected = SuperVectorField(
            chart, {((), (i,), i): Fraction(1) for i in range(3)}
        )
        assert derivation_to_field(chart, euler) == expected
        assert derivation_bracket(chart, euler, euler).is_zero()

    def test_bundle_map_commutator(self):
        chart = SL2.plain_chart()
        rng = random.Random(6)
        for _ in range(20):
            A = {(i, j): rng.randint(-2, 2) for i in range(3) for j in range(3)}
            B = {(i, j): rng.randint(-2, 2) for i in range(3) for j in range(3)}
            da = Derivation.build(chart, 0, body={((i,), j): A[(i, j)] for i in range(3) for j in range(3)})
            db = Derivation.build(chart, 0, body={((i,), j): B[(i, j)] for i in range(3) for j in range(3)})
            br = derivation_bracket(chart, da, db)
            expected = {}
            for i in range(3):
                for j in range(3):
                    val = sum(A[(i, a)] * B[(a, j)] for a in range(3)) - sum(
                        B[(i, a)] * A[(a, j)] for a in range(3)
                    )
                    if val:
                        expected[((i,), j)] = val
            assert br.body == Derivation.build(chart, 0, body=expected).body
            assert not br.symbol

    @pytest.mark.parametrize("data", [SL2, TR1])
    def test_transport_is_bracket_isomorphism(self, data):
        chart = data.plain_chart()
        rng = random.Random(13)
        rank, base = data.fiber_rank, data.base_dim
        for _ in range(100):
            ds = []
            for _ in range(2):
                p = rng.randint(0, 2)
                body = {}
                for idx in itertools.combinations(range(rank), p + 1):
                    for a in range(rank):
                        c = rng.randint(-2, 2)
                        if c:
                            e = tuple(rng.randint(0, 2) for _ in range(base))
                            body[(idx, a)] = SuperFunction(chart, {(e, ()): Fraction(c)})
                symbol = {}
                for idx in itertools.combinations(range(rank), p):
                    for t in range(base):
                        c = rng.randint(-2, 2)
                        if c:
                            e = tuple(rng.randint(0, 2) for _ in range(base))
                            symbol[(idx, t)] = SuperFunction(chart, {(e, ()): Fraction(c)})
                ds.append(Derivation.build(chart, p, body=body, symbol=symbol))
            d1, d2 = ds
            f1, f2 = derivation_to_field(chart, d1), derivation_to_field(chart, d2)
            transported = derivation_to_field(chart, derivation_bracket(chart, d1, d2))
            assert transported == super_commutator(f1, f2)

    def test_round_trip(self):
        chart = SL2.plain_chart()
        body = {((0, 1), 2): SuperFunction.constant(chart, 3)}
        symbol = {}
        d = Derivation.build(chart, 1, body=body, symbol=symbol)
        back = field_to_derivation(chart, derivation_to_field(chart, d))
        assert back.body == d.body and back.symbol == d.symbol


class TestDeformationCohomology:
    def test_sl2_rigidity(self):
        assert [r.dimension for r in dgla_cohomology(SL2, range(4))] == [0, 0, 0, 0]

    def test_abelian_full_dimension(self):
        import math

        ab = AlgebroidData.build(0, 3)
        dims = [r.dimension for r in dgla_cohomology(ab, range(4))]
        assert dims == [math.comb(3, q) * 3 for q in range(4)]

    def test_polynomial_base_needs_truncation(self):
        with pytest.raises(ValueError):
            dgla_cohomology(TR1, [1])

    def test_tangent_line_truncated(self):
        (res,) = dgla_cohomology(TR1, [1], truncate=3)
        assert res.truncated
        assert res.dimension == 0

    def test_sl3_whitehead_rigidity(self):
        # H^q(g; g) = H^q(g) (x) g^g = 0 for simple g: in particular sl(3) has no
        # infinitesimal deformations (q = 1) and no obstructions (q = 2); at q = 2
        # the full complex maps 224 fields into 448 coordinates, its weight-0 block 26 into 46
        assert [r.dimension for r in dgla_cohomology(sl_n(3), range(9))] == [0] * 9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_heisenberg_outer_derivations(self, n):
        # H^1(h; h) = Der(h) / ad(h) for the Heisenberg algebra h of dimension 2n + 1
        assert [r.dimension for r in dgla_cohomology(heisenberg(n), [1])] == [2 * n * n + n + 1]

    @pytest.mark.parametrize("name", ["sl2", "heisenberg-3", "abelian-2", "abelian-3", "abelian-4", "sl2-sum",
                                      "sl3", "h3", "h5"])
    def test_euler_characteristic_vanishes(self, name):
        # sum_q (-1)^q dim C^q = n * (1 - 1)^n = 0 for the full complex of an n-dimensional Lie algebra
        built = {"sl3": lambda: sl_n(3), "h3": lambda: heisenberg(1), "h5": lambda: heisenberg(2)}
        data = built[name]() if name in built else parse_instance(fixture_path(name)).payload["data"]
        dims = [r.dimension for r in dgla_cohomology(data, range(data.fiber_rank + 1))]
        assert sum((-1) ** q * d for q, d in enumerate(dims)) == 0


# ---------------------------------------------------------------------
# reference formulas of the classical route
# ---------------------------------------------------------------------
# Test oracles only: the classical tests as written term by term before the
# section calculus, each structure function rebuilt from its polynomial.
def _ref_fn(chart, poly):
    return SuperFunction(chart, {(e, ()): c for e, c in poly.items()})


def _ref_structure_fn(data, chart, i, j, k):
    if i == j:
        return SuperFunction.zero(chart)
    if i < j:
        return _ref_fn(chart, data.structure.get((i, j, k), {}))
    return _ref_fn(chart, {e: -c for e, c in data.structure.get((j, i, k), {}).items()})


def _ref_anchor_fn(data, chart, i, t):
    return _ref_fn(chart, data.anchor.get((i, t), {}))


def _ref_anchor_apply(data, chart, i, f):
    out = SuperFunction.zero(chart)
    for t in range(data.base_dim):
        b = _ref_anchor_fn(data, chart, i, t)
        if not b.is_zero():
            out = out + b * f.partial(t)
    return out


def reference_anchor_defects(data, chart):
    out = {}
    for i, j in itertools.combinations(range(data.fiber_rank), 2):
        for t in range(data.base_dim):
            total = SuperFunction.zero(chart)
            for k in range(data.fiber_rank):
                ck = _ref_structure_fn(data, chart, i, j, k)
                if not ck.is_zero():
                    total = total + ck * _ref_anchor_fn(data, chart, k, t)
            total = total - _ref_anchor_apply(data, chart, i, _ref_anchor_fn(data, chart, j, t))
            total = total + _ref_anchor_apply(data, chart, j, _ref_anchor_fn(data, chart, i, t))
            if not total.is_zero():
                out[(i, j, t)] = total
    return out


def reference_jacobi_defects(data, chart):
    out = {}
    for i, j, k in itertools.combinations(range(data.fiber_rank), 3):
        for c in range(data.fiber_rank):
            total = SuperFunction.zero(chart)
            for (a, b, d) in ((i, j, k), (j, k, i), (k, i, j)):
                for e in range(data.fiber_rank):
                    cab = _ref_structure_fn(data, chart, a, b, e)
                    if cab.is_zero():
                        continue
                    total = total + cab * _ref_structure_fn(data, chart, e, d, c)
                total = total - _ref_anchor_apply(data, chart, d, _ref_structure_fn(data, chart, a, b, c))
            if not total.is_zero():
                out[(i, j, k, c)] = total
    return out


def reference_section_bracket(data, chart, u, v):
    out = {}

    def add(c, val):
        cur = out.get(c, SuperFunction.zero(chart)) + val
        if cur.is_zero():
            out.pop(c, None)
        else:
            out[c] = cur

    for a, ua in u.items():
        for b, vb in v.items():
            for c in range(data.fiber_rank):
                add(c, ua * vb * _ref_structure_fn(data, chart, a, b, c))
    for a, ua in u.items():
        for c, vc in v.items():
            add(c, ua * _ref_anchor_apply(data, chart, a, vc))
    for b, vb in v.items():
        for c, uc in u.items():
            add(c, (vb * _ref_anchor_apply(data, chart, b, uc)).scale(-1))
    return out


def reference_graph_closure(setup, d):
    """(anchor defects, closure defects) of the graph of a candidate."""
    data, chart = setup.data, setup.chart
    ne = chart.n_even
    pad = (0,) * setup.normal_rank
    mapping = {}
    for pos_k, k in enumerate(setup.normal_even_positions):
        mapping[k] = SuperFunction(chart, {(e + pad, ()): c for e, c in d.sigma.get(pos_k, {}).items()})
    for j in setup.comp_indices:
        terms = {}
        for i in setup.sub_indices:
            for e, c in d.phi.get((i, j), {}).items():
                terms[(e + pad, (i,))] = c
        mapping[ne + j] = SuperFunction(chart, terms)

    def phi_fn(i, j):
        return SuperFunction(chart, {(e + pad, ()): c for e, c in d.phi.get((i, j), {}).items()})

    def sigma_fn(pos_k):
        return SuperFunction(chart, {(e + pad, ()): c for e, c in d.sigma.get(pos_k, {}).items()})

    sections = {}
    one = SuperFunction.constant(chart, 1)
    for i in setup.sub_indices:
        comp = {i: one}
        for j in setup.comp_indices:
            f = phi_fn(i, j)
            if not f.is_zero():
                comp[j] = f
        sections[i] = comp
    anchor_defects, closure_defects = {}, {}
    for i in setup.sub_indices:
        for pos_k, k in enumerate(setup.normal_even_positions):
            total = SuperFunction.zero(chart)
            sig = sigma_fn(pos_k)
            for a, fa in sections[i].items():
                normal_part = _ref_anchor_fn(data, chart, a, k)
                push = SuperFunction.zero(chart)
                for t in range(setup.base_dim):
                    push = push + _ref_anchor_fn(data, chart, a, t) * sig.partial(t)
                total = total + fa * (normal_part - push)
            total = total.substitute(mapping)
            if not total.is_zero():
                anchor_defects[(i, pos_k)] = total
    for i1, i2 in itertools.combinations(setup.sub_indices, 2):
        g = reference_section_bracket(data, chart, sections[i1], sections[i2])
        g = {c: f.substitute(mapping) for c, f in g.items()}
        for j in setup.comp_indices:
            defect = g.get(j, SuperFunction.zero(chart))
            for i in setup.sub_indices:
                e_part = g.get(i)
                if e_part is None:
                    continue
                defect = defect - (phi_fn(i, j).substitute(mapping)) * e_part
            if not defect.is_zero():
                closure_defects[(i1, i2, j)] = defect
    return anchor_defects, closure_defects


def _presets():
    return sorted(p.stem for p in fixture_path("sl2").parent.glob("*.json"))


def _preset_algebroids():
    """(data, chart) of every algebroid a preset carries, on the chart its commands use."""
    out = []
    for name in _presets():
        inst = parse_instance(fixture_path(name))
        if inst.kind in ("algebroid", "lie_algebra"):
            out.append((inst.payload["data"], None))
        elif inst.kind in ("subalgebroid", "subalgebra"):
            out.append((inst.payload["data"], inst.payload["setup"].chart))
        elif inst.kind == "foliation":
            fol = inst.payload["foliation"]
            out.append((fol.setup.data, fol.setup.chart))
        else:
            h, setup = inst.payload["homomorphism"], inst.payload["setup"]
            out += [(h.source, None), (h.target, None), (setup.data, setup.chart)]
    return out


def _rand_poly(rng, n_vars, max_degree=2):
    poly = {}
    for _ in range(rng.randint(1, 2)):
        e = [0] * n_vars
        for _ in range(rng.randint(0, max_degree) if n_vars else 0):
            e[rng.randrange(n_vars)] += 1
        c = rng.randint(-2, 2)
        if c:
            poly[tuple(e)] = Fraction(c)
    return poly


def _perturb(data, rng):
    """The data plus a random structure entry and, over a base, a random anchor entry."""
    n, r = data.base_dim, data.fiber_rank
    i, j = sorted(rng.sample(range(r), 2))
    structure = merge_polys([*data.structure.items(), ((i, j, rng.randrange(r)), _rand_poly(rng, n))])
    anchor = dict(data.anchor)
    if n and rng.random() < 0.5:
        anchor = merge_polys([*anchor.items(), ((rng.randrange(r), rng.randrange(n)), _rand_poly(rng, n))])
    return AlgebroidData.build(n, r, structure, anchor)


def _classical_cases():
    rng = random.Random(21)
    cases = _preset_algebroids()
    for _ in range(40):
        setup, _ = random_instance(rng)
        cases.append((setup.data, setup.chart))
        if setup.data.fiber_rank >= 2:
            cases.append((_perturb(setup.data, rng), setup.chart))
    for data in (SL2, HEIS, TR2, sl_n(3)):
        for _ in range(3):
            cases.append((_perturb(data, rng), None))
    return cases


CLASSICAL_CASES = _classical_cases()


class TestClassicalRouteAgainstReference:
    def test_jacobi_defects_match(self):
        nonzero = 0
        for data, chart in CLASSICAL_CASES:
            chart = chart or data.plain_chart()
            got = classical_jacobi_defects(data, chart)
            assert list(got.items()) == list(reference_jacobi_defects(data, chart).items())
            nonzero += bool(got)
        assert nonzero >= 10  # perturbations break Jacobi, so nonzero defects are compared

    def test_anchor_defects_match(self):
        nonzero = 0
        for data, chart in CLASSICAL_CASES:
            chart = chart or data.plain_chart()
            got = classical_anchor_defects(data, chart)
            assert list(got.items()) == list(reference_anchor_defects(data, chart).items())
            nonzero += bool(got)
        assert nonzero >= 10

    def test_section_bracket_matches(self):
        rng = random.Random(22)
        for data, chart in CLASSICAL_CASES[::3]:
            chart = chart or data.plain_chart()
            calc = SectionCalculus.of(data, chart)

            def section():
                return {a: _ref_fn(chart, _rand_poly(rng, chart.n_even))
                        for a in rng.sample(range(data.fiber_rank), rng.randint(1, data.fiber_rank))}

            for _ in range(3):
                u, v = section(), section()
                assert calc.bracket(u, v) == reference_section_bracket(data, chart, u, v)

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(SL2, id="anchor-free"),
            pytest.param(tangent_rn(2), id="anchored"),
            # frame 0 anchored, frames 1 and 2 not; constant and polynomial structure functions
            pytest.param(
                AlgebroidData.build(
                    2, 3, structure={(0, 1, 2): {(1, 0): 1}, (0, 2, 1): 2, (1, 2, 0): -1},
                    anchor={(0, 0): {(0, 1): 1}, (0, 1): 3},
                ),
                id="partly-anchored",
            ),
        ],
    )
    def test_section_bracket_matches_on_constant_and_polynomial_sections(self, data):
        chart = data.plain_chart()
        calc = SectionCalculus.of(data, chart)
        rng = random.Random(25)
        frames = range(data.fiber_rank)
        sections = [{a: SuperFunction.constant(chart, a + 1)} for a in frames]
        sections.append({a: SuperFunction.constant(chart, rng.randint(-2, 2) or 1) for a in frames})
        sections += [
            {a: _ref_fn(chart, _rand_poly(rng, chart.n_even)) for a in rng.sample(frames, rng.randint(1, len(frames)))}
            for _ in range(4)
        ]
        nonzero = 0
        for u, v in itertools.product(sections, repeat=2):
            expected = reference_section_bracket(data, chart, u, v)
            assert calc.bracket(u, v) == expected
            nonzero += bool(expected)
        assert nonzero

    def test_tangent_bracket_is_vector_field_bracket(self):
        rng = random.Random(23)
        for n in (1, 2, 3):
            calc = SectionCalculus.of(tangent_rn(n))
            chart = calc.chart
            for _ in range(10):
                u = [_ref_fn(chart, _rand_poly(rng, n)) for _ in range(n)]
                v = [_ref_fn(chart, _rand_poly(rng, n)) for _ in range(n)]
                got = calc.bracket(dict(enumerate(u)), dict(enumerate(v)))
                for t in range(n):
                    want = SuperFunction.zero(chart)
                    for s in range(n):
                        want = want + u[s] * v[t].partial(s) - v[s] * u[t].partial(s)
                    assert got.get(t, SuperFunction.zero(chart)) == want

    def test_graph_closure_matches(self):
        cases = []
        for name in _presets():
            inst = parse_instance(fixture_path(name))
            if inst.kind in ("subalgebroid", "subalgebra", "homomorphism"):
                setup, cand = inst.payload["setup"], inst.payload["candidate"]
                base = inst.payload.get("base") or DeformationPair.zero()
                cases += [(setup, base), (setup, base.add(cand))]
            elif inst.kind == "foliation":
                cases.append((inst.payload["setup"], inst.payload["candidate"]))
        rng = random.Random(24)
        for _ in range(40):
            setup, _ = random_instance(rng)
            cases += [(setup, random_candidate(setup, rng, max_degree=2)) for _ in range(2)]
        verdicts = {True: 0, False: 0}
        for setup, pair in cases:
            report = graph_closure_oracle(setup, pair)
            anchor, closure = reference_graph_closure(setup, pair)
            assert list(report.anchor_defects.items()) == list(anchor.items())
            assert list(report.closure_defects.items()) == list(closure.items())
            verdicts[report.accepts] += not pair.is_zero()
        assert verdicts[True] >= 5 and verdicts[False] >= 5  # nonzero candidates of both verdicts


def test_instance_generator_is_unchanged():
    """``instance_gen`` draws the recorded instances (``tests/golden/instance_gen.json``)."""
    recorded = json.loads((Path(__file__).parent / "golden" / "instance_gen.json").read_text())
    assert json.loads(json.dumps(record_instance_gen.record())) == recorded


def test_recorded_instances_parse_as_drawn():
    """Each recorded instance is a ``subalgebroid`` file that reads back as the split and candidate drawn."""
    recorded = json.loads((Path(__file__).parent / "golden" / "instance_gen.json").read_text())
    for seed, obj in recorded.items():
        rng = random.Random(int(seed))
        setup, _ = random_instance(rng)
        inst = parse_instance(obj)
        assert inst.payload["setup"] == setup and inst.payload["candidate"] == random_candidate(setup, rng), seed
