import itertools
import random
from fractions import Fraction

import pytest

from cohomology_oracle import m1_representatives
from instance_gen import random_candidate, random_fixed_base_instance, random_instance
from linfty.algebroid import AlgebroidData, build_xq, structure_residual
from linfty.applications import block_sum_data
from linfty.instances import fixture_path, parse_instance
from linfty.subalgebroid import (
    DeformationPair,
    FrameForm,
    SplitSetup,
    decode_form,
    encode_deformation,
    encode_form,
    explicit_structure_maps,
    graph_closure_oracle,
    m1_cohomology,
    simultaneous_residual,
    subalgebroid_mc_residual,
    tangency_oracle,
)
from linfty.superfield import SuperFunction, SuperVectorField, super_commutator
from linfty.valgebra import DerivedBrackets, LInftyElement, MCDelta, derived_bracket

SL2 = AlgebroidData.build(0, 3, structure={(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1})
HEIS_CENTER = AlgebroidData.build(0, 3, structure={(1, 2, 0): 1})
# sl(2) in the frame (e, h, f); split along span{e}, its complement brackets land back in it
SL2_EHF = AlgebroidData.build(0, 3, structure={(0, 1, 0): -2, (0, 2, 1): 1, (1, 2, 2): -2})
# the split of sl(2) + sl(2) along the graph of the identity (the hom-sl2-id preset)
HOM_SL2_ID = parse_instance(fixture_path("hom-sl2-id")).payload["setup"]
# the coordinate distribution spanned by the first two directions of R^3 (the foliation-r3 preset)
FOLIATION_R3 = parse_instance(fixture_path("foliation-r3")).payload["foliation"].setup


@pytest.fixture(scope="module")
def borel():
    setup = SplitSetup.build(SL2, 0, 0, 2)
    return setup, build_xq(SL2, setup.chart)


def checked(setup, xq):
    return MCDelta.of(setup, xq)


def tangent(res):
    """Both tangency routes read zero: the field is tangent to the candidate's graph."""
    return res.series.is_zero() and res.substitution.is_zero()


def phi_pair(setup, a, b):
    return DeformationPair.build(setup, phi={(0, 2): Fraction(a), (1, 2): Fraction(b)})


class TestEncodeDeformation:
    def test_zero(self, borel):
        setup, _ = borel
        assert encode_deformation(setup, DeformationPair.zero()).value.is_zero()

    def test_borel_matrix(self, borel):
        setup, _ = borel
        enc = encode_deformation(setup, phi_pair(setup, 3, 5))
        expected = SuperVectorField(
            setup.chart, {((), (0,), 2): Fraction(3), ((), (1,), 2): Fraction(5)}
        )
        assert enc.value == expected and enc.degree == 0

    def test_normal_section_only(self):
        # tangent line over the origin: rank-0 subbundle, one normal direction
        data = AlgebroidData.build(1, 1, anchor={(0, 0): 1})
        setup = SplitSetup.build(data, 0, 1, 0)
        d = DeformationPair.build(setup, sigma={0: 7})
        assert encode_deformation(setup, d).value == SuperVectorField(
            setup.chart, {((0,), (), 0): Fraction(7)}
        )

    def test_bijection_on_basis(self, borel):
        setup, _ = borel
        seen = set()
        for a in range(-1, 2):
            for b in range(-1, 2):
                enc = encode_deformation(setup, phi_pair(setup, a, b)).value
                seen.add(tuple(sorted(enc.terms.items())))
        assert len(seen) == 9

    def test_index_range_errors(self, borel):
        setup, _ = borel
        with pytest.raises(ValueError):
            DeformationPair.build(setup, phi={(2, 0): 1})
        with pytest.raises(ValueError):
            DeformationPair.build(setup, sigma={0: 1})


class TestProjection:
    def test_retraction_on_basis(self, borel):
        setup, _ = borel
        for d in (-1, 0, 1):
            for a in setup.abelian_basis(d):
                assert setup.project(a) == a

    def test_structure_field_projects_to_zero(self, borel):
        setup, xq = borel
        assert setup.project(xq).is_zero()

    def test_tangential_component_dropped(self, borel):
        setup, _ = borel
        v = SuperVectorField(setup.chart, {((), (0,), 0): Fraction(1)})  # xi1 d/dxi1
        assert setup.project(v).is_zero()

    def test_fixed_base_has_no_normal_directions(self, borel):
        # the normal-bundle component is structurally absent when the base is fixed
        setup, _ = borel
        ne = setup.chart.n_even
        for d in (-1, 0, 1, 2):
            for b in setup.abelian_basis(d):
                assert all(t >= ne for (_, _, t) in b.terms)


class TestTangencyOracle:
    @pytest.fixture()
    def plane(self):
        data = AlgebroidData.build(2, 0)
        return SplitSetup.build(data, 1, 1, 0)

    def test_horizontal_field_always_tangent(self, plane):
        Z = SuperVectorField(plane.chart, {((0, 1), (), 0): Fraction(1)})  # y d/dx
        for c in (-2, 0, 5):
            res = tangency_oracle(plane, Z, DeformationPair.build(plane, sigma={0: c}))
            assert res.agree and tangent(res)

    def test_quadratic_vertical_field(self, plane):
        Z = SuperVectorField(plane.chart, {((0, 2), (), 1): Fraction(1)})  # y^2 d/dy
        for c in (0, 1, 3):
            res = tangency_oracle(plane, Z, DeformationPair.build(plane, sigma={0: c}))
            assert res.agree
            expected = SuperVectorField(plane.chart, {((0, 0), (), 1): Fraction(c * c)})
            assert res.series == expected
            assert tangent(res) == (c == 0)

    def test_zero_field(self, plane):
        res = tangency_oracle(
            plane, SuperVectorField.zero(plane.chart), DeformationPair.build(plane, sigma={0: 4})
        )
        assert tangent(res) and res.agree

    def test_precondition_enforced(self, plane):
        Z = SuperVectorField(plane.chart, {((0, 0), (), 1): Fraction(1)})  # d/dy
        with pytest.raises(ValueError):
            tangency_oracle(plane, Z, DeformationPair.zero())

    def test_routes_agree_on_random_polynomial_inputs(self):
        rng = random.Random(99)
        for _ in range(25):
            setup, xq = random_instance(rng)
            gamma = random_candidate(setup, rng)
            res = tangency_oracle(setup, xq, gamma)
            assert res.agree


class TestMCResidual:
    def test_zero_candidate(self, borel):
        setup, xq = borel
        assert subalgebroid_mc_residual(setup, checked(setup, xq), DeformationPair.zero()).value.is_zero()

    def test_borel_locus_and_defect(self, borel):
        setup, xq = borel
        for a in range(-2, 3):
            for b in range(-2, 3):
                res = subalgebroid_mc_residual(setup, checked(setup, xq), phi_pair(setup, a, b))
                expected = SuperVectorField(
                    setup.chart, {((), (0, 1), 2): Fraction(a * a - 4 * b)}
                )
                assert res.value == expected

    def test_rank_zero_subbundle_always_deforms(self):
        data = AlgebroidData.build(1, 1, anchor={(0, 0): 1})
        setup = SplitSetup.build(data, 0, 1, 0)
        xq = build_xq(data, setup.chart)
        for c in (-1, 0, 2):
            pair = DeformationPair.build(setup, sigma={0: c})
            assert subalgebroid_mc_residual(setup, checked(setup, xq), pair).value.is_zero()
            assert graph_closure_oracle(setup, pair).accepts

    def test_matches_series_of_tangency_oracle(self, borel):
        setup, xq = borel
        pair = phi_pair(setup, 1, -1)
        res = subalgebroid_mc_residual(setup, checked(setup, xq), pair)
        tan = tangency_oracle(setup, xq, pair)
        assert res.value == tan.series == tan.substitution


class TestGraphClosureOracle:
    def test_borel_grid(self, borel):
        setup, _ = borel
        for a in range(-2, 3):
            for b in range(-2, 3):
                rep = graph_closure_oracle(setup, phi_pair(setup, a, b))
                assert rep.accepts == (a * a == 4 * b)

    def test_anchor_condition_detected(self):
        # tangent plane, subbundle the x-axis direction over the x-axis:
        # tilting the graph by phi = c makes the anchor leave the section image
        data = AlgebroidData.build(2, 2, anchor={(0, 0): 1, (1, 1): 1})
        setup = SplitSetup.build(data, 1, 1, 1)
        pair = DeformationPair.build(setup, phi={(0, 1): 3})
        rep = graph_closure_oracle(setup, pair)
        assert rep.anchor_defects and not rep.accepts
        xq = build_xq(data, setup.chart)
        assert not subalgebroid_mc_residual(setup, checked(setup, xq), pair).value.is_zero()

    def test_oracle_equivalence_on_random_instances(self):
        rng = random.Random(2024)
        zero_count = nonzero_count = 0
        for _ in range(25):
            setup, xq = random_instance(rng)
            for pair in (DeformationPair.zero(), random_candidate(setup, rng)):
                res = subalgebroid_mc_residual(setup, checked(setup, xq), pair)
                rep = graph_closure_oracle(setup, pair)
                assert res.value.is_zero() == rep.accepts
                if rep.accepts:
                    zero_count += 1
                else:
                    nonzero_count += 1
        assert zero_count and nonzero_count


class TestExplicitStructureMaps:
    def frame_forms(self, setup):
        """Unit forms with entry 1 or one base coordinate, in every degree and slot."""
        chart = setup.chart
        entries = [SuperFunction.constant(chart, 1)]
        entries += [SuperFunction.even_var(chart, t) for t in range(setup.base_dim)]
        out = []
        for deg in range(setup.sub_rank + 1):
            for idx in itertools.combinations(setup.sub_indices, deg):
                for j in setup.comp_indices:
                    out.extend(FrameForm.build(setup, deg, {(idx, j): e}) for e in entries)
        return out

    def test_unary_on_zero(self, borel):
        setup, _ = borel
        zero = FrameForm.build(setup, 1, {})
        assert explicit_structure_maps(setup, 1, [zero]).is_zero()

    def test_borel_unary_matrix(self, borel):
        setup, _ = borel
        phi = FrameForm.build(setup, 1, {((0,), 2): Fraction(3), ((1,), 2): Fraction(5)})
        out = explicit_structure_maps(setup, 1, [phi])
        # value on (h, e) is -4b with b the second entry
        assert out.values == {((0, 1), 2): SuperFunction.constant(setup.chart, -20)}

    def test_binary_quadratic_part(self, borel):
        setup, _ = borel
        phi = FrameForm.build(setup, 1, {((0,), 2): Fraction(2), ((1,), 2): Fraction(1)})
        out = explicit_structure_maps(setup, 2, [phi, phi])
        assert out.values == {((0, 1), 2): SuperFunction.constant(setup.chart, -8)}

    @pytest.mark.parametrize(
        "data,sub_rank",
        [
            (SL2, 2),
            (HEIS_CENTER, 1),
            (AlgebroidData.build(0, 3), 2),
            (AlgebroidData.build(0, 4, structure={(2, 3, 0): 1}), 2),
            pytest.param(SL2_EHF, 1, id="sl2-e-split"),
            pytest.param(HOM_SL2_ID.data, HOM_SL2_ID.sub_rank, id="hom-sl2-id"),
            # nonzero anchors and polynomial form entries
            pytest.param(FOLIATION_R3.data, FOLIATION_R3.sub_rank, id="foliation-r3"),
            pytest.param(block_sum_data(SL2, SL2), 3, id="sl2-sum-first-summand"),
            *(
                pytest.param(*random_fixed_base_instance(random.Random(seed)), id=f"instance-gen-{seed}")
                for seed in (1, 2, 3)
            ),
        ],
    )
    def test_matches_derived_brackets_exhaustively(self, data, sub_rank):
        setup = SplitSetup.build(data, data.base_dim, 0, sub_rank)
        xq = build_xq(data, setup.chart)
        bracket = DerivedBrackets(setup, MCDelta.of(setup, xq))
        forms = self.frame_forms(setup)
        encoded = [encode_form(f) for f in forms]
        # every ordering, not one per multiset: this backs the shortcut of the brackets command
        # (13,824 arity-3 combinations on the 24 forms of hom-sl2-id)
        for arity in (1, 2, 3):
            for combo in itertools.product(range(len(forms)), repeat=arity):
                derived = bracket([encoded[i] for i in combo])
                explicit = explicit_structure_maps(setup, arity, [forms[i] for i in combo])
                assert derived.value == encode_form(explicit).value

    @pytest.mark.parametrize(
        "data,sub_rank", [(SL2, 2), (AlgebroidData.build(0, 3), 2)]
    )
    def test_arity_four_and_up_vanish(self, data, sub_rank):
        setup = SplitSetup.build(data, 0, 0, sub_rank)
        xq = build_xq(data, setup.chart)
        delta = MCDelta.of(setup, xq)
        forms = [encode_form(f) for f in self.frame_forms(setup)]
        for combo in itertools.product(forms, repeat=4):
            assert derived_bracket(setup, delta, list(combo)).value.is_zero()

    def test_form_encoding_round_trip(self, borel):
        setup, _ = borel
        for deg in range(setup.sub_rank + 1):
            for idx in itertools.combinations(setup.sub_indices, deg):
                form = FrameForm.build(setup, deg, {(idx, 2): Fraction(5, 3)})
                enc = encode_form(form)
                assert decode_form(setup, enc, deg).values == form.values

    def test_arity_guards(self, borel):
        setup, _ = borel
        zero = FrameForm.build(setup, 0, {})
        for k in (0, 4):
            with pytest.raises(ValueError):
                explicit_structure_maps(setup, k, [zero] * k)
        with pytest.raises(ValueError):
            explicit_structure_maps(setup, 2, [zero])
        # three degree-0 arguments: the output degree would be -1
        out = explicit_structure_maps(setup, 3, [zero] * 3)
        assert out.degree == 0 and out.is_zero()

    def test_requires_fixed_base(self):
        data = AlgebroidData.build(1, 1, anchor={(0, 0): 1})
        setup = SplitSetup.build(data, 0, 1, 0)
        with pytest.raises(ValueError):
            explicit_structure_maps(setup, 1, [FrameForm.build(setup, 0, {})])


class TestSimultaneous:
    def test_zero_candidates(self, borel):
        setup, xq = borel
        v, a = simultaneous_residual(
            setup, checked(setup, xq), DeformationPair.zero(), SuperVectorField.zero(setup.chart),
            DeformationPair.zero(),
        )
        assert v.is_zero() and a.is_zero()

    def test_rescaled_structure_keeps_subalgebra(self, borel):
        setup, xq = borel
        for eps in (1, -1, 3):
            v, a = simultaneous_residual(
                setup, checked(setup, xq), DeformationPair.zero(), xq.scale(eps), DeformationPair.zero()
            )
            assert v.is_zero() and a.is_zero()

    def test_abelian_two_dim_deformation(self):
        data = AlgebroidData.build(0, 2)
        setup = SplitSetup.build(data, 0, 0, 1)
        xq = build_xq(data, setup.chart)
        cand = build_xq(AlgebroidData.build(0, 2, structure={(0, 1, 0): 1}), setup.chart)
        v, a = simultaneous_residual(
            setup, checked(setup, xq), DeformationPair.zero(), cand, DeformationPair.zero()
        )
        assert v.is_zero() and a.is_zero()

    def test_residual_components_match_direct_checks(self, borel):
        setup, xq = borel
        rng = random.Random(42)
        for _ in range(15):
            structure = {}
            for (i, j) in itertools.combinations(range(3), 2):
                for k in range(3):
                    c = rng.randint(-1, 1)
                    if c:
                        structure[(i, j, k)] = c
            pert = AlgebroidData.build(0, 3, structure)
            cand_xq = build_xq(pert, setup.chart)
            if not setup.project(cand_xq).is_zero():
                continue
            cand_def = phi_pair(setup, rng.randint(-2, 2), rng.randint(-2, 2))
            v, a = simultaneous_residual(
                setup, checked(setup, xq), DeformationPair.zero(), cand_xq, cand_def
            )
            # first component: the structure deformation residual
            assert v == structure_residual(xq, cand_xq)
            # second: when the sum is a structure, the plain residual of the sum
            if v.is_zero():
                direct = subalgebroid_mc_residual(setup, checked(setup, xq + cand_xq), cand_def)
                assert a == direct.value

    def test_base_must_be_mc(self, borel):
        setup, xq = borel
        with pytest.raises(ValueError):
            simultaneous_residual(
                setup, checked(setup, xq), phi_pair(setup, 1, 1), SuperVectorField.zero(setup.chart),
                DeformationPair.zero(),
            )

    def test_candidate_must_be_in_kernel(self, borel):
        setup, xq = borel
        bad = SuperVectorField(setup.chart, {((), (0, 1), 2): Fraction(1)})
        with pytest.raises(ValueError):
            simultaneous_residual(
                setup, checked(setup, xq), DeformationPair.zero(), bad, DeformationPair.zero()
            )

    def test_twisted_base_point(self, borel):
        # around the known deformation (2,1): candidates live on the shifted locus
        setup, xq = borel
        base = phi_pair(setup, 2, 1)
        for a in range(-2, 3):
            for b in range(-2, 3):
                v, ares = simultaneous_residual(
                    setup, checked(setup, xq), base, SuperVectorField.zero(setup.chart), phi_pair(setup, a, b)
                )
                assert v.is_zero()
                assert ares.is_zero() == ((2 + a) ** 2 == 4 * (1 + b))


class TestM1Cohomology:
    def test_abelian_full_dimension(self):
        import math

        data = AlgebroidData.build(0, 3)
        setup = SplitSetup.build(data, 0, 0, 2)
        xq = build_xq(data, setup.chart)
        dims = [r.dimension for r in m1_cohomology(setup, checked(setup, xq), (-1, 0, 1))]
        assert dims == [math.comb(2, n) for n in (0, 1, 2)]

    def test_borel_complex_is_acyclic(self, borel):
        setup, xq = borel
        dims = [r.dimension for r in m1_cohomology(setup, checked(setup, xq), (-1, 0, 1))]
        assert dims == [0, 0, 0]

    def test_heisenberg_center_complex(self):
        setup = SplitSetup.build(HEIS_CENTER, 0, 0, 1)
        xq = build_xq(HEIS_CENTER, setup.chart)
        # m_1 vanishes: [center, -] = 0, so every degree is fully cohomological
        assert [r.dimension for r in m1_cohomology(setup, checked(setup, xq), (-1, 0))] == [2, 2]

    def test_induced_bracket_jacobi_on_representatives(self):
        # on an instance with nonzero binary map and m_1 = 0 the induced
        # bracket must satisfy the shuffle Jacobi identity exactly
        setup = SplitSetup.build(HEIS_CENTER, 0, 0, 1)
        xq = build_xq(HEIS_CENTER, setup.chart)
        delta = MCDelta.of(setup, xq)
        reps = m1_representatives(setup, xq, -1) + m1_representatives(setup, xq, 0)
        assert len(reps) == 4
        elements = [LInftyElement.of(setup, r) for r in reps]
        from linfty.valgebra import generalized_jacobi

        m = lambda args: derived_bracket(setup, delta, args)
        for combo in itertools.product(elements, repeat=3):
            assert generalized_jacobi(m, list(combo), setup.chart).is_zero()

    def test_polynomial_base_requires_truncation(self):
        data = AlgebroidData.build(1, 2, anchor={(0, 0): 1})
        setup = SplitSetup.build(data, 1, 0, 1)
        xq = build_xq(data, setup.chart)
        with pytest.raises(ValueError):
            m1_cohomology(setup, checked(setup, xq), [0])
        (res,) = m1_cohomology(setup, checked(setup, xq), [0], truncate=2)
        assert res.truncated

    def test_unary_map_squares_to_zero_on_random_setups(self):
        rng = random.Random(33)
        for _ in range(10):
            setup, xq = random_instance(rng)
            for d in range(-1, setup.sub_rank + 1):
                for b in setup.abelian_basis(d, poly_degree=1):
                    once = setup.project(super_commutator(xq, b))
                    twice = setup.project(super_commutator(xq, once))
                    assert twice.is_zero()
