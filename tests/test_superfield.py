import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfty.algebroid import AlgebroidData, build_xq
from linfty.superfield import (
    ChartMismatchError,
    CoordinateChart,
    SuperFunction,
    SuperVectorField,
    apply,
    is_homological,
    super_commutator,
)

CHART = CoordinateChart(1, 1, 3)  # x1, y1; xi1, xi2, xi3
NE = CHART.n_even


def fn(terms):
    return SuperFunction(CHART, {k: Fraction(v) for k, v in terms.items()})


def fld(terms):
    return SuperVectorField(CHART, {k: Fraction(v) for k, v in terms.items()})


def d_by(name):
    """The coordinate field d/d(name) on the test chart."""
    names = CHART.even_names + CHART.odd_names
    return SuperVectorField(CHART, {((0,) * NE, (), names.index(name)): 1})


def degree_part(v, d):
    """The terms of a superfunction or field in one degree."""
    if isinstance(v, SuperFunction):
        return SuperFunction(v.chart, {k: c for k, c in v.terms.items() if len(k[1]) == d})
    ne = v.chart.n_even
    return SuperVectorField(v.chart, {k: c for k, c in v.terms.items() if len(k[1]) - (k[2] >= ne) == d})


class TestSuperFunctionAlgebra:
    def test_canonical_zero_dropped(self):
        f = fn({((0, 0), (0,)): 1}) + fn({((0, 0), (0,)): -1})
        assert f.is_zero()

    def test_odd_square_is_zero(self):
        xi = SuperFunction.odd_var(CHART, 0)
        assert (xi * xi).is_zero()

    def test_grassmann_anticommute(self):
        a = SuperFunction.odd_var(CHART, 0)
        b = SuperFunction.odd_var(CHART, 1)
        assert a * b == -(b * a)

    def test_even_commute(self):
        x = SuperFunction.even_var(CHART, 0)
        f = fn({((1, 2), (0, 2)): 3})
        assert x * f == f * x

    def test_merge_sign(self):
        # xi2 * xi1 = -xi1 xi2
        a = SuperFunction.odd_var(CHART, 1)
        b = SuperFunction.odd_var(CHART, 0)
        assert (a * b).terms == {((0, 0), (0, 1)): Fraction(-1)}

    def test_substitute_even(self):
        # x -> y^2 in x^2: gives y^4
        f = fn({((2, 0), ()): 1})
        out = f.substitute({0: fn({((0, 2), ()): 1})})
        assert out == fn({((0, 4), ()): 1})

    def test_substitute_odd_linear(self):
        # xi3 -> xi1 + xi2 in xi1 xi3: gives xi1 xi2
        f = fn({((0, 0), (0, 2)): 1})
        sub = fn({((0, 0), (0,)): 1, ((0, 0), (1,)): 1})
        assert f.substitute({NE + 2: sub}) == fn({((0, 0), (0, 1)): 1})

    def test_substitute_parity_enforced(self):
        f = fn({((1, 0), ()): 1})
        with pytest.raises(ValueError):
            f.substitute({0: SuperFunction.odd_var(CHART, 0)})


class TestApply:
    def test_odd_derivative_kills_leading_factor(self):
        X = d_by("xi1")
        assert apply(X, fn({((0, 0), (0, 1)): 1})) == fn({((0, 0), (1,)): 1})

    def test_even_calculus(self):
        X = fld({((0, 1), (), 0): 1})  # y d/dx
        assert apply(X, fn({((2, 0), ()): 1})) == fn({((1, 1), ()): 2})

    def test_leibniz_expansion(self):
        # (xi1 d/dx)(x xi2) = xi1 xi2
        X = fld({((0, 0), (0,), 0): 1})
        assert apply(X, fn({((1, 0), (1,)): 1})) == fn({((0, 0), (0, 1)): 1})

    def test_left_derivative_sign(self):
        # d/dxi2 (xi1 xi2) = -xi1
        X = d_by("xi2")
        assert apply(X, fn({((0, 0), (0, 1)): 1})) == fn({((0, 0), (0,)): -1})

    def test_chart_mismatch(self):
        other = CoordinateChart(1, 0, 1)
        with pytest.raises(ChartMismatchError):
            apply(d_by("x1"), SuperFunction.constant(other, 1))


class TestSuperCommutator:
    def test_even_case(self):
        assert super_commutator(d_by("y1"), fld({((0, 1), (), 0): 1})) == d_by("x1")

    def test_odd_coefficient_square(self):
        X = fld({((0, 0), (0,), 0): 1})  # xi1 d/dx
        assert super_commutator(X, X).is_zero()

    def test_mixed_odd_pair(self):
        X = fld({((0, 0), (0,), NE + 1): 1})  # xi1 d/dxi2
        Y = fld({((0, 0), (1,), NE + 0): 1})  # xi2 d/dxi1
        expected = fld({((0, 0), (0,), NE + 0): 1, ((0, 0), (1,), NE + 1): -1})
        assert super_commutator(X, Y) == expected

    def test_degree_adds(self):
        X = fld({((0, 0), (0, 1), NE): 1})  # degree 1
        Y = fld({((1, 0), (), NE + 2): 1})  # degree -1
        br = super_commutator(X, Y)
        assert br.is_zero() or br.degree() == 0


def random_fields(max_terms=3, max_exponent=2, odd_indices=3):
    keys = st.tuples(
        st.tuples(st.integers(0, max_exponent), st.integers(0, max_exponent)),
        st.lists(st.integers(0, odd_indices - 1), max_size=odd_indices, unique=True).map(
            lambda idx: tuple(sorted(idx))
        ),
        st.integers(0, NE + CHART.n_odd - 1),
    )
    coeffs = st.fractions(
        min_value=-3, max_value=3, max_denominator=3
    ).filter(lambda c: c != 0)
    return st.lists(st.tuples(keys, coeffs), max_size=max_terms).map(
        lambda items: SuperVectorField(CHART, dict(items))
    )


def random_functions(max_terms=3):
    keys = st.tuples(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.lists(st.integers(0, 2), max_size=3, unique=True).map(
            lambda idx: tuple(sorted(idx))
        ),
    )
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(
        lambda c: c != 0
    )
    return st.lists(st.tuples(keys, coeffs), max_size=max_terms).map(
        lambda items: SuperFunction(CHART, dict(items))
    )


def homogeneous_parts(X):
    return [degree_part(X, d) for d in sorted(X.degrees())]


class TestGradedIdentities:
    @settings(max_examples=60)
    @given(random_fields(), random_fields())
    def test_graded_antisymmetry(self, X, Y):
        for Xh in homogeneous_parts(X):
            for Yh in homogeneous_parts(Y):
                sign = -1 if (Xh.degree() * Yh.degree()) % 2 else 1
                assert super_commutator(Xh, Yh) == super_commutator(Yh, Xh).scale(-sign)

    @settings(max_examples=30, deadline=None)
    @given(random_fields(2), random_fields(2), random_fields(2))
    def test_graded_jacobi(self, X, Y, Z):
        for Xh in homogeneous_parts(X):
            for Yh in homogeneous_parts(Y):
                for Zh in homogeneous_parts(Z):
                    a, b = Xh.degree(), Yh.degree()
                    lhs = super_commutator(Xh, super_commutator(Yh, Zh))
                    rhs = super_commutator(super_commutator(Xh, Yh), Zh) + super_commutator(
                        Yh, super_commutator(Xh, Zh)
                    ).scale(-1 if (a * b) % 2 else 1)
                    assert lhs == rhs

    @settings(max_examples=60)
    @given(random_fields(2), random_functions(2), random_functions(2))
    def test_leibniz_rule(self, X, f, g):
        for Xh in homogeneous_parts(X):
            dX = Xh.degree()
            for fh in (degree_part(f, d) for d in sorted(f.degrees())):
                df = next(iter(fh.degrees()))
                sign = -1 if (dX * df) % 2 else 1
                lhs = apply(Xh, fh * g)
                rhs = apply(Xh, fh) * g + (fh * apply(Xh, g)).scale(sign)
                assert lhs == rhs

    @settings(max_examples=60)
    @given(random_fields(2), random_fields(2), random_functions(2))
    def test_composition_oracle(self, X, Y, f):
        # the commutator as a derivation equals the graded operator commutator
        for Xh in homogeneous_parts(X):
            for Yh in homogeneous_parts(Y):
                sign = -1 if (Xh.degree() * Yh.degree()) % 2 else 1
                lhs = apply(super_commutator(Xh, Yh), f)
                rhs = apply(Xh, apply(Yh, f)) - apply(Yh, apply(Xh, f)).scale(sign)
                assert lhs == rhs

    @settings(max_examples=40)
    @given(random_fields(), random_fields())
    def test_polynomial_closure(self, X, Y):
        # output odd degree is bounded by the sum of the inputs' odd degrees
        br = super_commutator(X, Y)
        if br.is_zero():
            return
        bound = max((len(o) for (_, o, _) in X.terms), default=0) + max(
            (len(o) for (_, o, _) in Y.terms), default=0
        )
        assert all(len(odd) <= bound for (_, odd, _) in br.terms)


def pairwise_commutator(X, Y):
    """Reference: the term-pair expansion through single-term SuperFunctions.

    The fused ``super_commutator`` must match it in value and in the order
    of its result's terms: every f*(d_a g)*d_b piece over (X's terms, Y's
    terms), then every g*(d_b f)*d_a piece over (Y's terms, X's terms).
    """
    chart = X.chart
    out = {}

    def add_terms(f, target, sign):
        for (even, odd), c in f.terms.items():
            key = (even, odd, target)
            val = out.get(key, Fraction(0)) + sign * c
            if val == 0:
                out.pop(key, None)
            else:
                out[key] = val

    for (e1, o1, a), c1 in X.terms.items():
        f1 = SuperFunction(chart, {(e1, o1): c1})
        for (e2, o2, b), c2 in Y.terms.items():
            left = f1 * SuperFunction(chart, {(e2, o2): c2}).partial(a)
            if not left.is_zero():
                add_terms(left, b, 1)
    for (e2, o2, b), c2 in Y.terms.items():
        d2 = len(o2) - (1 if chart.target_is_odd(b) else 0)
        f2 = SuperFunction(chart, {(e2, o2): c2})
        for (e1, o1, a), c1 in X.terms.items():
            d1 = len(o1) - (1 if chart.target_is_odd(a) else 0)
            sign = -1 if (d1 * d2) % 2 else 1
            right = f2 * SuperFunction(chart, {(e1, o1): c1}).partial(b)
            if not right.is_zero():
                add_terms(right, a, -sign)
    return SuperVectorField(chart, out)


def assert_matches_reference(X, Y):
    fused, reference = super_commutator(X, Y), pairwise_commutator(X, Y)
    assert fused == reference
    assert list(fused.terms) == list(reference.terms)


MONOMIAL_FIELDS = [
    fld({(even, odd, target): Fraction(1 + len(odd), 1 + target)})
    for even in ((0, 0), (1, 0), (0, 2), (1, 1))
    for r in range(CHART.n_odd + 1)
    for odd in itertools.combinations(range(CHART.n_odd), r)
    for target in range(NE + CHART.n_odd)
]


class TestFusedKernel:
    def test_every_monomial_pair(self):
        # single terms: odd targets, repeated odd indices (products that
        # vanish) and pairs whose two pieces cancel all occur
        for X in MONOMIAL_FIELDS:
            for Y in MONOMIAL_FIELDS:
                assert_matches_reference(X, Y)

    @settings(max_examples=150, deadline=None)
    @given(random_fields(4), random_fields(4))
    def test_random_fields(self, X, Y):
        assert_matches_reference(X, Y)

    @settings(max_examples=150, deadline=None)
    @given(random_fields(4, max_exponent=1, odd_indices=2), random_fields(4, max_exponent=1, odd_indices=2))
    def test_colliding_terms(self, X, Y):
        # few distinct monomials, so output terms often sum, cancel and return
        assert_matches_reference(X, Y)
        assert_matches_reference(X, X)

    def test_homological_square_cancels(self):
        sl2 = AlgebroidData.build(0, 3, structure={(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1})
        xq = build_xq(sl2)
        assert super_commutator(xq, xq).is_zero()
        assert_matches_reference(xq, xq)


def snapshot(fields):
    return [list(V.terms.items()) for V in fields]


class TestOperandReuse:
    """A field keeps its term rows from its first commutator on; reusing it changes no result."""

    @staticmethod
    def check_against(X, Ys):
        # each result is dropped after use, so a later result may take its place in memory
        for Y in Ys:
            Z = super_commutator(X, Y)
            expected = pairwise_commutator(X, Y)
            assert Z == expected
            assert list(Z.terms) == list(expected.terms)
            for U, V in ((Z, X), (Y, Z), (Z, Z), (X, Z)):
                assert_matches_reference(U, V)

    def test_one_field_against_every_monomial(self):
        for X in (MONOMIAL_FIELDS[7], MONOMIAL_FIELDS[-1], fld({((1, 0), (0,), 0): 2, ((0, 1), (1, 2), NE): -1})):
            before = snapshot(MONOMIAL_FIELDS + [X])
            self.check_against(X, MONOMIAL_FIELDS)
            assert snapshot(MONOMIAL_FIELDS + [X]) == before

    @settings(max_examples=40, deadline=None)
    @given(random_fields(4), st.lists(random_fields(4), min_size=1, max_size=6))
    def test_one_field_against_random_fields(self, X, Ys):
        before = snapshot([X] + Ys)
        self.check_against(X, Ys)
        self.check_against(X, Ys)  # now every operand already holds its rows
        assert snapshot([X] + Ys) == before

    @settings(max_examples=60, deadline=None)
    @given(random_fields(4), random_fields(4))
    def test_equal_operands_give_equal_results(self, X, Y):
        first = super_commutator(X, Y)
        X2, Y2 = SuperVectorField(CHART, X.terms), SuperVectorField(CHART, Y.terms)
        for U, V in ((X2, Y2), (X, Y2), (X2, Y), (X, Y)):
            again = super_commutator(U, V)
            assert again == first
            assert list(again.terms) == list(first.terms)


class TestSuperVectorFieldKeys:
    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            fld({((-1, 0), (), 0): 1})

    def test_odd_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="odd index out of range"):
            fld({((0, 0), (7,), 0): 1})
        with pytest.raises(ValueError, match="odd index out of range"):
            fld({((0, 0), (-1, 0), NE): 1})

    def test_key_shape_follows_the_type(self):
        # one shared constructor: a function key has no target, a field key has one
        with pytest.raises(ValueError, match="SuperFunction term key"):
            fn({((0, 0), (), 0): 1})
        with pytest.raises(ValueError, match="SuperVectorField term key"):
            fld({((0, 0), ()): 1})
        with pytest.raises(ValueError, match="derivative target out of range"):
            fld({((0, 0), (), NE + CHART.n_odd): 1})
        assert SuperFunction.zero(CHART) != SuperVectorField.zero(CHART)


class TestIsHomological:
    def test_zero_field(self):
        assert is_homological(SuperVectorField.zero(CHART))

    def test_sl2_structure_field(self):
        sl2 = AlgebroidData.build(0, 3, structure={(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1})
        assert is_homological(build_xq(sl2))

    def test_non_jacobi_bracket(self):
        # [e1,e2]=e3, [e1,e3]=e1: the cyclic defect on (e1,e2,e3) is -e3
        bad = AlgebroidData.build(0, 3, structure={(0, 1, 2): 1, (0, 2, 0): 1})
        assert not is_homological(build_xq(bad))

    def test_even_degree_rejected(self):
        X = fld({((0, 0), (0,), NE + 1): 1})  # degree 0
        assert not is_homological(X)


# -- the trusted kernel path ------------------------------------------
def assert_coefficient(c):
    """A canonical coefficient: a nonzero int, or a Fraction that is not integral."""
    assert c != 0
    assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def assert_canonical(value):
    """Terms as the public constructor would leave them: tuple keys, sorted odd indices, canonical coefficients."""
    assert value.terms == type(value)(value.chart, value.terms).terms
    for key, c in value.terms.items():
        assert_coefficient(c)
        assert type(key[0]) is tuple and type(key[1]) is tuple


def split_setup():
    from linfty.subalgebroid import SplitSetup

    data = AlgebroidData.build(2, 3)
    return SplitSetup.build(data, 1, 1, 1)


SETUP = split_setup()


class TestTrustedResults:
    @settings(max_examples=100, deadline=None)
    @given(random_functions(4), random_functions(4), st.fractions(-2, 2, max_denominator=2))
    def test_function_ops(self, f, g, c):
        results = [f + g, f - g, -f, f.scale(c), f * c, f.scale(0), f * g, g * f, SuperFunction.zero(CHART)]
        results += [f.partial(t) for t in range(NE + CHART.n_odd)]
        results += [degree_part(f, d) for d in range(CHART.n_odd + 1)]
        results.append(f + (-f))
        for value in results:
            assert_canonical(value)

    @settings(max_examples=100, deadline=None)
    @given(random_fields(4), random_fields(4), random_functions(3), st.fractions(-2, 2, max_denominator=2))
    def test_field_ops(self, X, Y, f, c):
        results = [X + Y, X - Y, -X, X.scale(c), X * c, X.scale(0), X + (-X), SuperVectorField.zero(CHART)]
        results += [degree_part(X, d) for d in range(-1, CHART.n_odd + 1)]
        results += [super_commutator(X, Y), super_commutator(X, X)]
        results.append(SETUP.project(SuperVectorField(SETUP.chart, X.terms)))
        for value in results:
            assert_canonical(value)
        for value in [X.component(t) for t in range(NE + CHART.n_odd)] + [apply(X, f)]:
            assert_canonical(value)

    def test_project_refuses_another_chart(self):
        with pytest.raises(ChartMismatchError):
            SETUP.project(d_by("x1"))


HALF, THREE_HALVES, TWO_THIRDS = Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)
X0, Y0, ONE0 = (1, 0), (0, 1), (0, 0)  # exponents of x, y and 1


class TestIntegralResults:
    """Fraction arithmetic that lands on an integer stores an int."""

    def assert_terms(self, value, expected):
        """``value`` has the ``expected`` terms, each stored with the type it is written with."""
        assert value.terms == expected
        assert_canonical(value)
        assert all(type(value.terms[k]) is type(c) for k, c in expected.items())

    def test_constructors(self):
        self.assert_terms(fn({(X0, ()): Fraction(4, 2)}), {(X0, ()): 2})
        self.assert_terms(fld({(X0, (), 0): Fraction(-3, 1)}), {(X0, (), 0): -3})
        self.assert_terms(SuperFunction.constant(CHART, Fraction(6, 3)), {(ONE0, ()): 2})

    def test_sum(self):
        self.assert_terms(fn({(X0, ()): HALF}) + fn({(X0, ()): HALF}), {(X0, ()): 1})
        self.assert_terms(fld({(X0, (0,), 1): HALF}) + fld({(X0, (0,), 1): HALF}), {(X0, (0,), 1): 1})

    def test_product_and_scale(self):
        self.assert_terms(fn({(X0, ()): HALF}) * 2, {(X0, ()): 1})
        self.assert_terms(fn({(X0, ()): HALF}).scale(Fraction(4)), {(X0, ()): 2})
        self.assert_terms(fld({(X0, (), 2): HALF}).scale(2), {(X0, (), 2): 1})
        self.assert_terms(fn({(X0, ()): THREE_HALVES}) * fn({(Y0, ()): TWO_THIRDS}), {((1, 1), ()): 1})
        # two products of non-integral coefficients meet on one monomial: 1/2 + 1/2
        f = fn({(X0, ()): HALF, (Y0, ()): HALF})
        self.assert_terms(f * fn({(Y0, ()): 1, (X0, ()): 1}), {((2, 0), ()): HALF, ((1, 1), ()): 1, ((0, 2), ()): HALF})

    def test_partial(self):
        self.assert_terms(fn({((2, 0), ()): HALF}).partial(0), {(X0, ()): 1})
        self.assert_terms(fn({((0, 3), (1,)): TWO_THIRDS}).partial(1), {((0, 2), (1,)): 2})

    def test_substitute(self):
        f = fn({(X0, ()): HALF, (Y0, ()): THREE_HALVES})
        mapping = {0: fn({(Y0, ()): 2}), 1: fn({(X0, ()): TWO_THIRDS})}
        self.assert_terms(f.substitute(mapping), {(Y0, ()): 1, (X0, ()): 1})

    def test_super_commutator(self):
        # [(3/2) d/dx, (2/3) x d/dy] = d/dy
        X = fld({(ONE0, (), 0): THREE_HALVES})
        Y = fld({(X0, (), 1): TWO_THIRDS})
        self.assert_terms(super_commutator(X, Y), {(ONE0, (), 1): 1})
        # [(1/2) d/dx + (1/2) d/dy, (x + y) d/dy]: two halves meet on d/dy
        X = fld({(ONE0, (), 0): HALF, (ONE0, (), 1): HALF})
        Y = fld({(X0, (), 1): 1, (Y0, (), 1): 1})
        self.assert_terms(super_commutator(X, Y), {(ONE0, (), 1): 1})
        # [2 x d/dx, (1/2) x^2 d/dx]: the partial's factor 2 and the sum -1 + 2
        X = fld({(X0, (), 0): 2})
        Y = fld({((2, 0), (), 0): HALF})
        self.assert_terms(super_commutator(X, Y), {((2, 0), (), 0): 1})

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            SuperFunction(CHART, {(X0, ()): 0.5})
        with pytest.raises(TypeError):
            SuperVectorField(CHART, {(X0, (), 0): 1.0})
        with pytest.raises(TypeError):
            SuperFunction.constant(CHART, 2.0)
        with pytest.raises(TypeError):
            fn({(X0, ()): 1}).scale(0.5)
        with pytest.raises(TypeError):
            fld({(X0, (), 0): 1}).scale(1.0)
        with pytest.raises(TypeError):
            AlgebroidData.build(1, 2, structure={(0, 1, 0): {(0,): 0.5}})


def substitute_reference(f, mapping):
    """Substitution that gives every coordinate a value and expands each power by repeated products."""
    chart = f.chart
    one = SuperFunction.constant(chart, 1)
    even_values = {i: mapping.get(i, SuperFunction.even_var(chart, i)) for i in range(chart.n_even)}
    odd_values = {
        j: mapping.get(chart.n_even + j, SuperFunction.odd_var(chart, j)) for j in range(chart.n_odd)
    }
    total = SuperFunction.zero(chart)
    for (even, odd), c in f.terms.items():
        acc = one.scale(c)
        for i, e in enumerate(even):
            for _ in range(e):
                acc = acc * even_values[i]
        for j in odd:
            acc = acc * odd_values[j]
        total = total + acc
    return total


@st.composite
def substitutions(draw):
    """A mapping of some coordinates: even ones to even values, odd ones to degree-1 values."""
    mapping = {}
    for t in range(NE + CHART.n_odd):
        if draw(st.booleans()):
            value = draw(random_functions(3))
            if t < NE:
                mapping[t] = degree_part(value, 0) + degree_part(value, 2)
            else:
                mapping[t] = degree_part(value, 1)
    return mapping


class TestSubstitute:
    @settings(max_examples=100, deadline=None)
    @given(random_functions(4), substitutions())
    def test_matches_identity_rebuilding_reference(self, f, mapping):
        result = f.substitute(mapping)
        assert result == substitute_reference(f, mapping)
        assert_canonical(result)

    def test_high_powers(self):
        f = fn({((3, 2), (0, 2)): 2, ((0, 4), (1,)): -1})
        mapping = {0: fn({((0, 1), ()): 1, ((0, 0), (0, 1)): 1}), 1: fn({((1, 0), ()): 3})}
        assert f.substitute(mapping) == substitute_reference(f, mapping)

    def test_unmapped_coordinates_stay(self):
        f = fn({((2, 1), (0, 1)): 3, ((0, 0), (2,)): 1})
        assert f.substitute({}) == f
