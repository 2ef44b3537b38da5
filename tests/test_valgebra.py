import gc
import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from linfty.algebroid import AlgebroidData, build_xq
from linfty.instances import fixture_path, parse_instance
from linfty.signs import iter_shuffles, koszul_sign
from linfty.subalgebroid import DeformationPair, SplitSetup, encode_deformation
from linfty.superfield import SuperVectorField, super_commutator
from linfty.valgebra import (
    DerivedBrackets,
    LInftyElement,
    MCDelta,
    NotInAbelianPart,
    SeriesCapExceeded,
    check_linfty_axioms,
    derived_bracket,
    generalized_jacobi,
    mc_residual,
    twisted_projection,
)
from reference_oracles import ExtElement, check_v_algebra, extended_bracket, kernel_basis

SL2 = AlgebroidData.build(0, 3, structure={(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1})
# sl(2) in the frame (e, h, f), to be split along span{e}
SL2_EHF = AlgebroidData.build(0, 3, structure={(0, 1, 0): -2, (0, 2, 1): 1, (1, 2, 2): -2})
# [e1, e2] = e3, [e1, e3] = e1: the Jacobi identity fails on (e1, e2, e3)
NON_JACOBI = AlgebroidData.build(0, 3, structure={(0, 1, 2): 1, (0, 2, 0): 1})


@pytest.fixture(scope="module")
def borel():
    setup = SplitSetup.build(SL2, 0, 0, 2)
    xq = build_xq(SL2, setup.chart)
    return setup, xq, MCDelta.of(setup, xq)


def basis_elements(setup):
    out = []
    for d in (-1, 0, 1):
        out.extend(LInftyElement.of(setup, b) for b in setup.abelian_basis(d))
    return out


def phi_pair(setup, a, b):
    return DeformationPair.build(setup, phi={(0, 2): Fraction(a), (1, 2): Fraction(b)})


class TestCheckVAlgebra:
    def test_borel_split_passes(self, borel):
        setup, xq, delta = borel
        report = check_v_algebra(setup, probe_degree_bound=2, poly_degree_bound=0)
        assert report.ok

    def test_enlarged_summand_fails_abelianness(self, borel):
        setup, xq, delta = borel
        ne = setup.chart.n_even
        extra = [
            SuperVectorField(setup.chart, {((), (0,), ne + 2): Fraction(1)}),
            SuperVectorField(setup.chart, {((), (2,), ne + 0): Fraction(1)}),
        ]

        def bigger_basis(d):
            fields = setup.abelian_basis(d)
            if d == 0:
                fields = fields + extra
            return fields

        # a split whose projection is the identity, so its summand is not abelian
        bad = SimpleNamespace(chart=setup.chart, project=lambda v: v, abelian_basis=bigger_basis)
        report = check_v_algebra(bad, probe_degree_bound=1, poly_degree_bound=0)
        assert not report.abelian_ok

    def test_fully_abelian_identity_projection(self):
        ab = AlgebroidData.build(0, 2)
        setup = SplitSetup.build(ab, 0, 0, 0)
        report = check_v_algebra(setup, probe_degree_bound=1, poly_degree_bound=0)
        assert report.ok


class TestDerivedBracket:
    def test_zero_delta_gives_zero(self, borel):
        setup, xq, _ = borel
        delta0 = MCDelta.of(setup, SuperVectorField.zero(setup.chart))
        args = basis_elements(setup)[:2]
        assert derived_bracket(setup, delta0, args).value.is_zero()

    def test_unary_on_zero(self, borel):
        setup, xq, delta = borel
        zero = LInftyElement(SuperVectorField.zero(setup.chart), 0)
        assert derived_bracket(setup, delta, [zero]).value.is_zero()

    def test_unary_linear_part_of_closure_defect(self, borel):
        # the unary bracket sees only the linear part -4b (as field: +4b on the
        # top generator under the encoding sign conventions)
        setup, xq, delta = borel
        enc = encode_deformation(setup, phi_pair(setup, 0, 1))
        out = derived_bracket(setup, delta, [enc])
        ne = setup.chart.n_even
        assert out.value == SuperVectorField(setup.chart, {((), (0, 1), ne + 2): Fraction(4)})

    def test_rejects_non_summand_argument(self, borel):
        setup, xq, delta = borel
        ne = setup.chart.n_even
        bad = LInftyElement(SuperVectorField(setup.chart, {((), (2,), ne): Fraction(1)}), 0)
        with pytest.raises(NotInAbelianPart):
            derived_bracket(setup, delta, [bad])

    def test_koszul_symmetry(self, borel):
        setup, xq, delta = borel
        basis = basis_elements(setup)
        rng = random.Random(5)
        for _ in range(40):
            args = [rng.choice(basis) for _ in range(3)]
            degs = tuple(a.degree for a in args)
            base_val = derived_bracket(setup, delta, args).value
            order = tuple(rng.sample((0, 1, 2), 3))
            permuted = [args[p] for p in order]
            assert derived_bracket(setup, delta, permuted).value == base_val.scale(
                koszul_sign(order, degs)
            )


class TestMCResidual:
    def test_zero_candidate(self, borel):
        setup, xq, delta = borel
        zero = LInftyElement(SuperVectorField.zero(setup.chart), 0)
        assert mc_residual(setup, delta, zero).value.is_zero()

    def test_sl2_borel_locus(self, borel):
        setup, xq, delta = borel
        ne = setup.chart.n_even
        for a, b in [(2, 1), (-2, 1), (0, 0), (1, 1), (2, -2)]:
            cand = LInftyElement(-encode_deformation(setup, phi_pair(setup, a, b)).value, 0)
            res = mc_residual(setup, delta, cand)
            expected = SuperVectorField(
                setup.chart, {((), (0, 1), ne + 2): Fraction(a * a - 4 * b)}
            )
            assert res.value == expected

    def test_agrees_with_twisted_projection(self, borel):
        setup, xq, delta = borel
        for a, b in [(1, 1), (2, 1), (-1, 2)]:
            cand = LInftyElement(-encode_deformation(setup, phi_pair(setup, a, b)).value, 0)
            assert mc_residual(setup, delta, cand).value == twisted_projection(
                setup, cand, delta.delta
            )

    def test_cap_exceeded_is_typed(self, borel):
        setup, xq, delta = borel
        cand = LInftyElement(-encode_deformation(setup, phi_pair(setup, 1, 1)).value, 0)
        with pytest.raises(SeriesCapExceeded):
            mc_residual(setup, delta, cand, cap=1)

    def test_cap_counts_the_nonzero_brackets(self, borel):
        # the cap bounds the number of nonzero brackets [..[delta, x], .., x]: a series of
        # exactly that many passes at the cap and is refused one below it
        setup, xq, delta = borel
        cand = LInftyElement(-encode_deformation(setup, phi_pair(setup, 1, 1)).value, 0)
        w, n = delta.delta, 0
        while not (w := super_commutator(w, cand.value)).is_zero():
            n += 1
        assert n >= 2
        mc_residual(setup, delta, cand, cap=n)
        with pytest.raises(SeriesCapExceeded):
            mc_residual(setup, delta, cand, cap=n - 1)

    @staticmethod
    def preset():
        setup = parse_instance(fixture_path("sl2-borel")).payload["setup"]
        return setup, MCDelta.of(setup, build_xq(setup.data, setup.chart))

    def test_refuses_a_mixed_degree_candidate(self):
        # LInftyElement.of tags a value of degrees {0, 1} None: the value's degree decides
        setup, delta = self.preset()
        cand = LInftyElement.of(setup, setup.abelian_basis(0)[0] + setup.abelian_basis(1)[0])
        assert cand.degree is None
        with pytest.raises(ValueError, match="degree 0"):
            mc_residual(setup, delta, cand)
        with pytest.raises(ValueError, match="degree 0"):
            twisted_projection(setup, cand, delta.delta)

    def test_refuses_a_degree_one_candidate_tagged_none(self):
        setup, delta = self.preset()
        cand = LInftyElement(setup.abelian_basis(1)[0], None)
        with pytest.raises(ValueError, match="degree 0"):
            mc_residual(setup, delta, cand)

    def test_a_degree_zero_value_is_accepted_whatever_its_tag(self):
        setup, delta = self.preset()
        v = setup.abelian_basis(0)[0]
        assert mc_residual(setup, delta, LInftyElement(v, None)) == mc_residual(setup, delta, LInftyElement(v, 0))


class TestTwistedProjection:
    def test_zero_twist_is_projection(self, borel):
        setup, xq, delta = borel
        zero = LInftyElement(SuperVectorField.zero(setup.chart), 0)
        v = SuperVectorField(setup.chart, {((), (0,), setup.chart.n_even + 2): Fraction(3)})
        assert twisted_projection(setup, zero, v) == setup.project(v)

    def test_quadratic_vertical_example(self):
        # chart with one base and one normal even coordinate, no odd frame
        data = AlgebroidData.build(2, 0)
        setup = SplitSetup.build(data, 1, 1, 0)
        v = SuperVectorField(setup.chart, {((0, 2), (), 1): Fraction(1)})  # y^2 d/dy
        for c in (1, 2, -3):
            phi = LInftyElement(
                SuperVectorField(setup.chart, {((0, 0), (), 1): Fraction(c)}), 0
            )
            out = twisted_projection(setup, phi, v)
            assert out == SuperVectorField(setup.chart, {((0, 0), (), 1): Fraction(c * c)})

    def test_linear_normal_dependence_two_terms(self):
        data = AlgebroidData.build(2, 0)
        setup = SplitSetup.build(data, 1, 1, 0)
        v = SuperVectorField(setup.chart, {((0, 1), (), 1): Fraction(1)})  # y d/dy
        phi = LInftyElement(SuperVectorField(setup.chart, {((0, 0), (), 1): Fraction(5)}), 0)
        # series ends after the first bracket: second derivative of a linear
        # coefficient vanishes, leaving [[y d/dy, 5 d/dy]] = -5 d/dy
        assert twisted_projection(setup, phi, v) == SuperVectorField(
            setup.chart, {((0, 0), (), 1): Fraction(-5)}
        )


class TestExtendedBracket:
    def test_empty_arity_flat(self, borel):
        setup, xq, delta = borel
        out = extended_bracket(setup, delta, [])
        assert out.is_zero()

    def test_unary_with_zero_delta(self, borel):
        setup, xq, _ = borel
        delta0 = MCDelta.of(setup, SuperVectorField.zero(setup.chart))
        v = xq  # any degree-1 field
        x = ExtElement.of(setup, v, SuperVectorField.zero(setup.chart))
        out = extended_bracket(setup, delta0, [x])
        assert out.v.is_zero()
        assert out.a == setup.project(v)

    def test_binary_on_shifted_fields(self, borel):
        setup, xq, delta = borel
        ne = setup.chart.n_even
        v = SuperVectorField(setup.chart, {((), (0,), 0 + 0): Fraction(0)})
        # v = xi1 d/dxi3 (degree 0), w = d/dxi1 (degree -1)
        v = SuperVectorField(setup.chart, {((), (0,), ne + 2): Fraction(1)})
        w = SuperVectorField(setup.chart, {((), (), ne + 0): Fraction(1)})
        x = ExtElement.of(setup, v, SuperVectorField.zero(setup.chart))
        y = ExtElement.of(setup, w, SuperVectorField.zero(setup.chart))
        out = extended_bracket(setup, delta, [x, y])
        assert out.v == super_commutator(v, w)  # (-1)^{|v|} with |v| = 0

    def test_simultaneous_decomposition(self, borel):
        # MC residual of (v[1], a) decomposes into the structure residual and
        # the twisted projection of the summed field
        setup, xq, delta = borel
        rng = random.Random(3)
        kernel = [f for f in kernel_basis(setup, 0) if f.degree() == 1]
        for _ in range(10):
            v = SuperVectorField.zero(setup.chart)
            for f in rng.sample(kernel, 3):
                v = v + f.scale(Fraction(rng.randint(-2, 2)))
            a = encode_deformation(
                setup, phi_pair(setup, rng.randint(-2, 2), rng.randint(-2, 2))
            ).value
            elt = ExtElement.of(setup, v, a)
            total = ExtElement(
                SuperVectorField.zero(setup.chart), SuperVectorField.zero(setup.chart), None
            )
            acc_v = SuperVectorField.zero(setup.chart)
            acc_a = SuperVectorField.zero(setup.chart)
            import math

            for k in range(1, 8):
                mk = extended_bracket(setup, delta, [elt] * k)
                acc_v = acc_v + mk.v.scale(Fraction(1, math.factorial(k)))
                acc_a = acc_a + mk.a.scale(Fraction(1, math.factorial(k)))
            expected_v = -(
                super_commutator(delta.delta, v)
                + super_commutator(v, v).scale(Fraction(1, 2))
            )
            expected_a = twisted_projection(
                setup, LInftyElement(a, 0), delta.delta + v
            )
            assert acc_v == expected_v
            assert acc_a == expected_a

    def test_mixed_pattern_vanishes(self, borel):
        # two shifted fields plus a summand argument must give zero
        setup, xq, delta = borel
        ne = setup.chart.n_even
        v = SuperVectorField(setup.chart, {((), (0,), ne + 2): Fraction(1)})
        a = SuperVectorField(setup.chart, {((), (0,), ne + 2): Fraction(1)})
        x = ExtElement.of(setup, v, SuperVectorField.zero(setup.chart))
        y = ExtElement.of(setup, v, SuperVectorField.zero(setup.chart))
        z = ExtElement.of(setup, SuperVectorField.zero(setup.chart), a)
        out = extended_bracket(setup, delta, [x, y, z])
        assert out.v.is_zero() and out.a.is_zero()


def dgla_package(delta_field):
    """The shifted packaging of the field algebra with differential [[delta, .]]."""
    chart = delta_field.chart

    def m(args):
        args = list(args)
        if len(args) == 1:
            (x,) = args
            return LInftyElement(-super_commutator(delta_field, x.value), None)
        if len(args) == 2:
            x, y = args
            vx = x.value
            if vx.is_zero():
                return LInftyElement(SuperVectorField.zero(chart), None)
            sign = -1 if vx.degree() % 2 else 1
            return LInftyElement(super_commutator(vx, y.value).scale(sign), None)
        return LInftyElement(SuperVectorField.zero(chart), None)

    return m


def summand_basis(setup, poly_degree=0):
    out = []
    for d in range(-1, setup.sub_rank + 1):
        out.extend(LInftyElement.of(setup, b) for b in setup.abelian_basis(d, poly_degree))
    return out


def preset_setup(name):
    payload = parse_instance(fixture_path(name)).payload
    return payload["foliation"].setup if "foliation" in payload else payload["setup"]


class TestDerivedBracketsEngine:
    @pytest.mark.parametrize(
        "make_setup",
        [
            pytest.param(lambda: preset_setup("sl2-borel"), id="sl2-borel"),
            pytest.param(lambda: preset_setup("foliation-r3"), id="foliation-r3"),
            pytest.param(lambda: preset_setup("tangent-r1-origin"), id="tangent-r1-origin"),
            pytest.param(lambda: SplitSetup.build(SL2_EHF, 0, 0, 1), id="sl2-e-split"),
        ],
    )
    def test_shared_matches_one_shot(self, make_setup):
        setup = make_setup()
        delta = MCDelta.of(setup, build_xq(setup.data, setup.chart))
        # linear coefficients too: on foliation-r3 every constant-coefficient bracket vanishes
        basis = summand_basis(setup, poly_degree=1)
        engine = DerivedBrackets(setup, delta)
        nonzero = 0
        for arity in (1, 2, 3):
            for combo in itertools.product(basis, repeat=arity):
                shared = engine(combo)
                fresh = derived_bracket(setup, delta, combo)
                assert (shared.value, shared.degree) == (fresh.value, fresh.degree)
                nonzero += not fresh.is_zero()
        assert nonzero

    @pytest.mark.parametrize(
        "data,sub_rank,ok", [(SL2, 2, True), (SL2_EHF, 1, True), (NON_JACOBI, 1, False)]
    )
    def test_axiom_report_same_as_fresh_provider(self, data, sub_rank, ok):
        setup = SplitSetup.build(data, 0, 0, sub_rank)
        # MCDelta.of would refuse the non-Jacobi field; its failing report is compared too
        delta = MCDelta(build_xq(data, setup.chart))
        basis = summand_basis(setup)
        rng = random.Random(3)
        probes = [(b,) for b in basis] + [(a, b) for a in basis for b in basis]
        probes += [tuple(rng.choice(basis) for _ in range(n)) for n in (3, 4) for _ in range(20)]
        shared = check_linfty_axioms(DerivedBrackets(setup, delta), setup.chart, probes)
        fresh = check_linfty_axioms(
            lambda args: derived_bracket(setup, delta, args), setup.chart, probes
        )
        assert shared == fresh
        assert shared.ok == ok and shared.checked == len(probes)

    def test_axiom_check_leaves_no_reference_cycles(self):
        # every object of an axiom check is freed by reference counting; a cycle
        # (such as a self-calling closure in the shuffle enumeration) would wait
        # for the cyclic collector
        setup = SplitSetup.build(SL2, 0, 0, 2)
        delta = MCDelta.of(setup, build_xq(SL2, setup.chart))
        basis = summand_basis(setup)
        rng = random.Random(5)
        probes = [tuple(rng.choice(basis) for _ in range(n)) for n in (3, 4) for _ in range(6)]
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            report = check_linfty_axioms(DerivedBrackets(setup, delta), setup.chart, probes)
            gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert report.ok and report.checked == len(probes)
        assert garbage == 0

    def test_rejects_non_summand_argument_after_cached_ones(self, borel):
        setup, xq, delta = borel
        ne = setup.chart.n_even
        bad = LInftyElement(SuperVectorField(setup.chart, {((), (2,), ne): Fraction(1)}), 0)
        engine = DerivedBrackets(setup, delta)
        good = basis_elements(setup)
        for a, b in itertools.product(good, repeat=2):
            engine([a, b])
        for args in ([bad], [good[0], bad], [bad, good[0]], [good[0], good[1], bad]):
            with pytest.raises(NotInAbelianPart):
                engine(args)

    def test_engines_share_no_state(self, borel):
        setup, xq, delta = borel
        basis = basis_elements(setup)
        pairs = list(itertools.product(basis, repeat=2))
        live = DerivedBrackets(setup, delta)
        assert any(not live(list(p)).is_zero() for p in pairs)
        dead = DerivedBrackets(setup, MCDelta.of(setup, SuperVectorField.zero(setup.chart)))
        assert all(dead(list(p)).is_zero() for p in pairs)
        # a value one engine accepted is still checked by an engine of another split
        ne = setup.chart.n_even
        outside = LInftyElement(SuperVectorField(setup.chart, {((), (2,), ne): Fraction(1)}), 0)
        everything = SimpleNamespace(chart=setup.chart, project=lambda v: v)  # every field is in its summand
        DerivedBrackets(everything, delta)([outside])
        with pytest.raises(NotInAbelianPart):
            live([outside])


class TestLInftyAxioms:
    def test_unary_square_zero_on_basis(self, borel):
        setup, xq, delta = borel
        m = lambda args: derived_bracket(setup, delta, args)
        probes = [(b,) for b in basis_elements(setup)]
        report = check_linfty_axioms(m, setup.chart, probes)
        assert report.ok and report.checked == len(probes)

    @pytest.mark.parametrize(
        "data,sub_rank",
        [
            (SL2, 2),
            (AlgebroidData.build(0, 3, structure={(1, 2, 0): 1}), 1),
            (AlgebroidData.build(0, 4, structure={(2, 3, 0): 1}), 2),
        ],
    )
    def test_derived_structure_all_arities(self, data, sub_rank):
        setup = SplitSetup.build(data, 0, 0, sub_rank)
        xq = build_xq(data, setup.chart)
        delta = MCDelta.of(setup, xq)
        basis = basis_elements(setup)
        m = lambda args: derived_bracket(setup, delta, args)
        probes = [(b,) for b in basis] + [(a, b) for a in basis for b in basis]
        rng = random.Random(11)
        for n in (3, 4):
            for _ in range(40):
                probes.append(tuple(rng.choice(basis) for _ in range(n)))
        report = check_linfty_axioms(m, setup.chart, probes)
        assert report.ok

    def test_dgla_packaging_reduces_to_jacobi(self, borel):
        # m_k = 0 for k >= 3: the arity-3 identity is the graded Jacobi identity
        setup, xq, delta = borel
        m = dgla_package(xq)
        fields = []
        rng = random.Random(4)
        monos = kernel_basis(setup, 0) + setup.abelian_basis(-1) + setup.abelian_basis(0)
        for _ in range(12):
            f = rng.choice(monos)
            d = f.degree()
            fields.append(LInftyElement(f, (d if d is not None else 0) - 1))
        probes = []
        for n in (1, 2, 3):
            for _ in range(25):
                probes.append(tuple(rng.choice(fields) for _ in range(n)))
        report = check_linfty_axioms(m, setup.chart, probes)
        assert report.ok

    def test_detects_broken_structure(self, borel):
        # the DGLA packaging with the shift sign dropped from the binary map
        # violates the arity-2 identity on odd-degree fields
        setup, xq, delta = borel
        chart = setup.chart

        def broken(args):
            args = list(args)
            if len(args) == 1:
                return LInftyElement(-super_commutator(xq, args[0].value), None)
            if len(args) == 2:
                x, y = args
                if x.value.is_zero():
                    return LInftyElement(SuperVectorField.zero(chart), None)
                return LInftyElement(super_commutator(x.value, y.value), None)
            return LInftyElement(SuperVectorField.zero(chart), None)

        rng = random.Random(4)
        monos = (
            kernel_basis(setup, 0)
            + setup.abelian_basis(-1)
            + setup.abelian_basis(0)
            + setup.abelian_basis(1)
        )
        fields = [
            LInftyElement(f, (0 if f.degree() is None else f.degree()) - 1) for f in monos
        ]
        probes = [
            tuple(rng.choice(fields) for _ in range(n)) for n in (1, 2, 3) for _ in range(40)
        ]
        report = check_linfty_axioms(broken, setup.chart, probes)
        assert not report.ok


class TestTwisting:
    def test_round_trip_on_known_locus(self, borel):
        # with base (2,1) the twisted locus is (2+a)^2 = 4(1+b)
        setup, xq, delta = borel
        base = phi_pair(setup, 2, 1)
        enc_base = encode_deformation(setup, base).value
        for a in range(-2, 3):
            for b in range(-2, 3):
                cand = phi_pair(setup, a, b)
                enc_cand = encode_deformation(setup, cand).value
                twisted = twisted_projection(
                    setup, LInftyElement(-(enc_base + enc_cand), 0), delta.delta
                )
                summed = mc_residual(
                    setup, delta, LInftyElement(-(enc_base + enc_cand), 0)
                )
                assert twisted == summed.value
                assert twisted.is_zero() == ((2 + a) ** 2 == 4 * (1 + b))


def reference_generalized_jacobi(m, elements, chart):
    """The coherence sum as a sum of scaled fields, one new field per shuffle."""
    n = len(elements)
    degs = tuple(e.degree if e.degree is not None else 0 for e in elements)
    total = SuperVectorField.zero(chart)
    for j in range(1, n + 1):
        for sign, (first, rest) in iter_shuffles((j, n - j), degs):
            inner = m([elements[p] for p in first])
            outer = m([inner] + [elements[p] for p in rest])
            total = total + outer.value.scale(sign)
    return total


class TestGeneralizedJacobiAgainstReference:
    @pytest.mark.parametrize(
        "data,sub_rank", [(SL2, 2), (SL2_EHF, 1), (NON_JACOBI, 1)]
    )
    def test_in_place_sum_matches_field_sum(self, data, sub_rank):
        setup = SplitSetup.build(data, 0, 0, sub_rank)
        # unchecked, so the non-Jacobi structure gives nonzero sums to compare
        engine = DerivedBrackets(setup, MCDelta(build_xq(data, setup.chart)))
        basis = summand_basis(setup)
        odd = [b for b in basis if b.degree % 2]
        rng = random.Random(4)
        probes = [tuple(rng.choice(basis) for _ in range(n)) for n in (1, 2, 3, 4) for _ in range(15)]
        probes += [tuple(rng.choice(odd) for _ in range(n)) for n in (2, 3, 4) for _ in range(10)]
        nonzero = 0
        for probe in probes:
            expected = reference_generalized_jacobi(engine, probe, setup.chart)
            assert generalized_jacobi(engine, probe, setup.chart) == expected
            nonzero += not expected.is_zero()
        assert (nonzero > 0) == (data is NON_JACOBI)


REIMPORT_SCRIPT = textwrap.dedent(
    """
    import gc, importlib, sys
    for _ in range(6):
        for name in [n for n in sys.modules if n == "linfty" or n.startswith("linfty.")]:
            del sys.modules[name]
        importlib.import_module("linfty")
    gc.collect()
    print(sum(isinstance(o, type) and o.__name__ == "LInftyElement" for o in gc.get_objects()))
    """
)


def test_reimport_frees_the_dropped_copy():
    """Nothing outside the package (such as a cached typing alias) keeps a dropped copy of it alive."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", REIMPORT_SCRIPT], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "1"
