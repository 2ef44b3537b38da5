"""Split subalgebroid setups and their deformation calculus.

A split setup fixes adapted coordinates: base coordinates along the
submanifold, normal even coordinates spanning its normal bundle, and the
odd frame split into the subbundle part and a complement.  The abelian
summand consists of fields with coefficients in the exterior algebra of
the sub-frame (times base polynomials) pointing in complement-odd or
normal-even directions; deformation candidates (a section of the normal
bundle plus a bundle map into the complement) encode bijectively as its
degree-0 elements.

Everything is exact.  The Maurer-Cartan residual of a candidate is checked
two independent ways throughout the test suite: the bracket series here,
and the classical graph-closure/anchor oracle also implemented here.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .algebroid import (
    AlgebroidData,
    CohomologyResult,
    PolyDict,
    SectionCalculus,
    _as_poly,
    add_into,
    complex_cohomology,
    merge_polys,
    structure_residual,
)
from .signs import ShuffleSpec, iter_shuffles
from .superfield import (
    CoordinateChart,
    SuperFunction,
    SuperVectorField,
    apply,
    is_homological,
    super_commutator,
)
from .valgebra import (
    DEFAULT_SERIES_CAP,
    LInftyElement,
    MCDelta,
    VAlgebra,
    mc_residual,
    twisted_projection,
)


@dataclass(frozen=True)
class SplitSetup:
    """Adapted-coordinate data of a subbundle over a submanifold.

    ``base_dim`` (p) counts base coordinates, ``normal_rank`` (q) normal
    ones, ``sub_rank`` (l) the sub-frame size; the algebroid lives over the
    p+q even coordinates with the full odd frame.
    """

    data: AlgebroidData
    base_dim: int
    normal_rank: int
    sub_rank: int
    chart: CoordinateChart

    @staticmethod
    def build(data: AlgebroidData, base_dim: int, normal_rank: int, sub_rank: int) -> "SplitSetup":
        chart = data.split_chart(base_dim, normal_rank, sub_rank)
        return SplitSetup(data, base_dim, normal_rank, sub_rank, chart)

    # -- index ranges ---------------------------------------------------
    @property
    def sub_indices(self) -> tuple[int, ...]:
        return tuple(range(self.sub_rank))

    @property
    def comp_indices(self) -> tuple[int, ...]:
        return tuple(range(self.sub_rank, self.data.fiber_rank))

    @property
    def normal_even_positions(self) -> tuple[int, ...]:
        return tuple(range(self.base_dim, self.base_dim + self.normal_rank))

    # -- the projection and the abelian summand --------------------------
    def project(self, v: SuperVectorField) -> SuperVectorField:
        """Restrict coefficients to the subbundle slice, keep normal directions.

        Keeps terms pointing in complement-odd or normal-even directions
        whose coefficients survive setting normal evens and complement odds
        to zero.
        """
        ne = self.chart.n_even
        sub = set(self.sub_indices)
        normal_pos = set(self.normal_even_positions)
        comp_targets = {ne + j for j in self.comp_indices}
        normal_targets = set(normal_pos)
        kept = {}
        for (even, odd, target), c in v.terms.items():
            if target not in comp_targets and target not in normal_targets:
                continue
            if any(even[pos] for pos in normal_pos):
                continue
            if any(j not in sub for j in odd):
                continue
            kept[(even, odd, target)] = c
        return SuperVectorField(self.chart, kept)

    def abelian_basis(self, degree: int, poly_degree: int = 0) -> list[SuperVectorField]:
        """Monomial basis of the summand in one field degree."""
        from .algebroid import _exponents_up_to

        ne = self.chart.n_even
        exps = [
            e
            for e in _exponents_up_to(ne, poly_degree)
            if all(e[pos] == 0 for pos in self.normal_even_positions)
        ]
        out = []
        size_f = degree + 1
        if 0 <= size_f <= self.sub_rank:
            for odd in itertools.combinations(self.sub_indices, size_f):
                for j in self.comp_indices:
                    for e in exps:
                        out.append(SuperVectorField(self.chart, {(e, odd, ne + j): Fraction(1)}))
        if 0 <= degree <= self.sub_rank:
            for odd in itertools.combinations(self.sub_indices, degree):
                for k in self.normal_even_positions:
                    for e in exps:
                        out.append(SuperVectorField(self.chart, {(e, odd, k): Fraction(1)}))
        return out

    def kernel_basis(self, poly_degree: int = 1) -> list[SuperVectorField]:
        """Monomial fields annihilated by the projection, up to a poly bound."""
        from .algebroid import _exponents_up_to

        ne, no = self.chart.n_even, self.chart.n_odd
        out = []
        for e in _exponents_up_to(ne, poly_degree):
            for size in range(no + 1):
                for odd in itertools.combinations(range(no), size):
                    for target in range(ne + no):
                        mono = SuperVectorField(self.chart, {(e, odd, target): Fraction(1)})
                        if self.project(mono).is_zero():
                            out.append(mono)
        return out

    def valgebra(self, poly_degree: int = 0) -> VAlgebra:
        return VAlgebra(
            chart=self.chart,
            project=self.project,
            abelian_basis=lambda d: self.abelian_basis(d, poly_degree),
            kernel_basis=self.kernel_basis,
        )


@dataclass(frozen=True)
class DeformationPair:
    """Candidate deformation: normal section coefficients plus a bundle map.

    ``sigma`` maps a normal index k to the polynomial (in base coordinates)
    coefficients of the section; ``phi`` maps (sub index i, complement
    index j) to the polynomial matrix entry.
    """

    sigma: Mapping[int, PolyDict]
    phi: Mapping[tuple[int, int], PolyDict]

    @staticmethod
    def build(setup: SplitSetup, sigma=None, phi=None) -> "DeformationPair":
        p = setup.base_dim
        sig: dict[int, PolyDict] = {}
        for k, value in (sigma or {}).items():
            if not 0 <= k < setup.normal_rank:
                raise ValueError(f"normal index out of range: {k}")
            poly = _as_poly(value, p)
            if poly:
                sig[k] = poly
        ph: dict[tuple[int, int], PolyDict] = {}
        for (i, j), value in (phi or {}).items():
            if i not in setup.sub_indices:
                raise ValueError(f"sub-frame index out of range: {i}")
            if j not in setup.comp_indices:
                raise ValueError(f"complement index out of range: {j}")
            poly = _as_poly(value, p)
            if poly:
                ph[(i, j)] = poly
        return DeformationPair(sig, ph)

    @staticmethod
    def zero() -> "DeformationPair":
        return DeformationPair({}, {})

    def add(self, other: "DeformationPair") -> "DeformationPair":
        return DeformationPair(
            merge_polys([*self.sigma.items(), *other.sigma.items()]),
            merge_polys([*self.phi.items(), *other.phi.items()]),
        )

    def is_zero(self) -> bool:
        return not self.sigma and not self.phi


def _pad_exponents(exps: tuple[int, ...], total_even: int) -> tuple[int, ...]:
    return exps + (0,) * (total_even - len(exps))


def encode_deformation(setup: SplitSetup, d: DeformationPair) -> LInftyElement:
    """The degree-0 summand element of a candidate pair (a bijection)."""
    ne = setup.chart.n_even
    terms: dict[tuple, Fraction] = {}
    for (i, j), poly in d.phi.items():
        for exps, c in poly.items():
            key = (_pad_exponents(exps, ne), (i,), ne + j)
            terms[key] = terms.get(key, Fraction(0)) + c
    for k, poly in d.sigma.items():
        for exps, c in poly.items():
            key = (_pad_exponents(exps, ne), (), setup.base_dim + k)
            terms[key] = terms.get(key, Fraction(0)) + c
    value = SuperVectorField(setup.chart, terms)
    return LInftyElement(value, 0)


def project_P(setup: SplitSetup, v: SuperVectorField) -> LInftyElement:
    value = setup.project(v)
    return LInftyElement(value, value.degree() if not value.is_zero() else 0)


# ---------------------------------------------------------------------
# tangency oracle: bracket series against direct graph substitution
# ---------------------------------------------------------------------
def graph_substitution(setup: SplitSetup, d: DeformationPair) -> dict[int, SuperFunction]:
    """Coordinate replacements realizing restriction to the candidate graph."""
    chart = setup.chart
    ne = chart.n_even
    mapping: dict[int, SuperFunction] = {}
    for pos_k, k in enumerate(setup.normal_even_positions):
        poly = d.sigma.get(pos_k, {})
        mapping[k] = SuperFunction(
            chart, {(_pad_exponents(e, ne), ()): c for e, c in poly.items()}
        )
    for j in setup.comp_indices:
        terms = {}
        for i in setup.sub_indices:
            poly = d.phi.get((i, j), {})
            for e, c in poly.items():
                terms[(_pad_exponents(e, ne), (i,))] = c
        mapping[ne + j] = SuperFunction(chart, terms)
    return mapping


@dataclass
class TangencyResult:
    series: SuperVectorField
    substitution: SuperVectorField

    @property
    def agree(self) -> bool:
        return self.series == self.substitution

    @property
    def tangent(self) -> bool:
        return self.series.is_zero() and self.substitution.is_zero()


def tangency_oracle(
    setup: SplitSetup,
    z: SuperVectorField,
    gamma: DeformationPair,
    cap: int = DEFAULT_SERIES_CAP,
) -> TangencyResult:
    """Both characterizations of tangency to the graph of a candidate.

    The series route sums (1/n!) P(ad^n by minus the encoded section) of z;
    the substitution route applies z to each graph-defining function and
    restricts to the graph.  Exact agreement is part of the contract.
    """
    if not setup.project(z).is_zero():
        raise ValueError("field is not tangent to the zero section")
    valg = setup.valgebra()
    enc = encode_deformation(setup, gamma)
    series = twisted_projection(valg, LInftyElement(-enc.value, 0), z, cap=cap)

    chart = setup.chart
    ne = chart.n_even
    mapping = graph_substitution(setup, gamma)
    terms: dict[tuple, Fraction] = {}
    for pos_k, k in enumerate(setup.normal_even_positions):
        sigma_fn = mapping[k]
        residual = (z.component(k) - apply(z, sigma_fn)).substitute(mapping)
        for (even, odd), c in residual.terms.items():
            key = (even, odd, k)
            terms[key] = terms.get(key, Fraction(0)) + c
    for j in setup.comp_indices:
        phi_fn = mapping[ne + j]
        residual = (z.component(ne + j) - apply(z, phi_fn)).substitute(mapping)
        for (even, odd), c in residual.terms.items():
            key = (even, odd, ne + j)
            terms[key] = terms.get(key, Fraction(0)) + c
    substitution = SuperVectorField(chart, terms)
    return TangencyResult(series, substitution)


# ---------------------------------------------------------------------
# Maurer-Cartan residual and the classical oracle
# ---------------------------------------------------------------------
def subalgebroid_mc_residual(
    setup: SplitSetup,
    xq: SuperVectorField,
    d: DeformationPair,
    cap: int = DEFAULT_SERIES_CAP,
) -> LInftyElement:
    """Residual of the candidate in the derived-bracket structure.

    The candidate enters with a global minus sign (the convention validated
    against the graph-closure oracle); zero iff the deformed graph is again
    a subalgebroid.
    """
    valg = setup.valgebra()
    delta = MCDelta.of(valg, xq)
    candidate = LInftyElement(-encode_deformation(setup, d).value, 0)
    return mc_residual(valg, delta, candidate, cap=cap)


@dataclass
class GraphClosureReport:
    anchor_defects: dict[tuple[int, int], SuperFunction] = field(default_factory=dict)
    closure_defects: dict[tuple[int, int, int], SuperFunction] = field(default_factory=dict)

    @property
    def accepts(self) -> bool:
        return not self.anchor_defects and not self.closure_defects


def graph_closure_oracle(setup: SplitSetup, d: DeformationPair) -> GraphClosureReport:
    """Classical subalgebroid test for the graph of a candidate.

    Brackets the graph frame sections, restricts to the section's image,
    and checks that the result stays in the graph and that anchors stay
    tangent to it.  Independent of the bracket-series machinery.
    """
    chart = setup.chart
    ne = chart.n_even
    calc = SectionCalculus.of(setup.data, chart)
    mapping = graph_substitution(setup, d)
    zero = SuperFunction.zero(chart)
    report = GraphClosureReport()

    # graph frame: eps_i = xi_i + sum_j phi^j_i xi_j
    sections = {i: {i: SuperFunction.constant(chart, 1)} for i in setup.sub_indices}
    for (i, j), poly in d.phi.items():
        sections[i][j] = SuperFunction(chart, {(_pad_exponents(e, ne), ()): c for e, c in poly.items()})

    # anchor condition: rho(eps_i) kills y_k - sigma_k on the section image
    for i in setup.sub_indices:
        for pos_k, k in enumerate(setup.normal_even_positions):
            defining = SuperFunction.even_var(chart, k) - mapping[k]
            total = zero
            for a, fa in sections[i].items():
                total = total + fa * calc.anchor_apply(a, defining)
            total = total.substitute(mapping)
            if not total.is_zero():
                report.anchor_defects[(i, pos_k)] = total
    # closure condition: bracket of graph sections lies in the graph over the section
    # (phi depends on base coordinates only, which the substitution leaves alone)
    for i1, i2 in itertools.combinations(setup.sub_indices, 2):
        g = {c: f.substitute(mapping) for c, f in calc.bracket(sections[i1], sections[i2]).items()}
        for j in setup.comp_indices:
            defect = g.get(j, zero)
            for i in setup.sub_indices:
                if i in g and j in sections[i]:
                    defect = defect - sections[i][j] * g[i]
            if not defect.is_zero():
                report.closure_defects[(i1, i2, j)] = defect
    return report


# ---------------------------------------------------------------------
# explicit low-arity structure maps for the fixed-base case
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class FrameForm:
    """Alternating sub-frame form with complement-valued polynomial entries."""

    setup: SplitSetup
    degree: int
    values: Mapping[tuple[tuple[int, ...], int], SuperFunction]

    @staticmethod
    def build(setup: SplitSetup, degree: int, values: Mapping) -> "FrameForm":
        chart = setup.chart
        canon: dict[tuple[tuple[int, ...], int], SuperFunction] = {}
        for (idx, j), val in (values or {}).items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError("index tuple must be strictly increasing of the form degree")
            if any(i not in setup.sub_indices for i in idx):
                raise ValueError("form indices must lie in the sub-frame")
            if j not in setup.comp_indices:
                raise ValueError("form values must lie in the complement frame")
            if not isinstance(val, SuperFunction):
                val = SuperFunction.constant(chart, val)
            if val.degrees() - {0}:
                raise ValueError("form entries must be even polynomials")
            if not val.is_zero():
                key = (idx, j)
                canon[key] = canon.get(key, SuperFunction.zero(chart)) + val
        return FrameForm(setup, degree, {k: v for k, v in canon.items() if not v.is_zero()})

    def is_zero(self) -> bool:
        return not self.values

    def evaluate(self, args: Sequence[dict[int, SuperFunction]]) -> dict[int, SuperFunction]:
        """Multilinear antisymmetric evaluation on sub-frame sections."""
        if len(args) != self.degree:
            raise ValueError("wrong number of arguments")
        out: dict[int, SuperFunction] = {}
        for assignment in itertools.product(*(list(a.items()) for a in args)):
            indices = tuple(idx for idx, _ in assignment)
            if len(set(indices)) != len(indices):
                continue
            coeff = None
            for _, f in assignment:
                coeff = f if coeff is None else coeff * f
            inversions = sum(
                1
                for a, b in itertools.combinations(range(len(indices)), 2)
                if indices[a] > indices[b]
            )
            sign = -1 if inversions % 2 else 1
            key = tuple(sorted(indices))
            for (idx, j), val in self.values.items():
                if idx == key:
                    add_into(out, j, (val if coeff is None else coeff * val).scale(sign))
        return out


def _m3_signs(k: int, l: int, m: int) -> tuple[int, int, int]:
    """Orientation signs of the three arity-3 sums, by argument degrees.

    Pinned by exact agreement with the nested-bracket route on instances
    whose complement brackets hit the sub-frame (the only place the sums
    are nonzero); the agreement is enforced test-side on exhaustive bases.
    """
    s1 = -1 if (l + m + k * l + l * m + k * m) % 2 else 1
    s2 = -1 if (k + l + l * m) % 2 else 1
    s3 = -1 if (k * l) % 2 else 1
    return s1, s2, s3


def _pi_sub(setup: SplitSetup, s: dict[int, SuperFunction]) -> dict[int, SuperFunction]:
    return {i: f for i, f in s.items() if i in setup.sub_indices}


def _pi_comp(setup: SplitSetup, s: dict[int, SuperFunction]) -> dict[int, SuperFunction]:
    return {j: f for j, f in s.items() if j in setup.comp_indices}


def explicit_structure_maps(
    setup: SplitSetup, k: int, args: Sequence[FrameForm], calculus: SectionCalculus | None = None
) -> FrameForm:
    """Shuffle-sum formulas for the arity-1..3 maps of the fixed-base case.

    Must agree with the nested-bracket route under the encoding; arities
    four and up vanish in this setting.  ``calculus`` is the section
    calculus of ``setup.data`` on ``setup.chart``; a caller that evaluates
    many maps passes it to build it once.
    """
    if setup.normal_rank != 0:
        raise ValueError("explicit maps require the fixed-base setup (no normal coordinates)")
    if k != len(args):
        raise ValueError("arity does not match the number of arguments")
    chart = setup.chart
    bracket = (calculus or SectionCalculus.of(setup.data, chart)).bracket
    one = SuperFunction.constant(chart, 1)
    frame = {i: {i: one} for i in setup.sub_indices}

    def frame_word(indices: Sequence[int]) -> list[dict[int, SuperFunction]]:
        return [frame[i] for i in indices]

    out_values: dict[tuple[tuple[int, ...], int], SuperFunction] = {}

    def add_value(idx: tuple[int, ...], section: dict[int, SuperFunction], sign: int):
        for j, val in section.items():
            if j not in setup.comp_indices:
                raise AssertionError("structure map produced a non-complement value")
            add_into(out_values, (idx, j), val.scale(sign))

    if k == 1:
        (xi,) = args
        deg = xi.degree
        n_out = deg + 1
        for idx in itertools.combinations(setup.sub_indices, n_out):
            word = list(idx)
            for tau in iter_shuffles(ShuffleSpec((deg, 1))):
                sign = tau.parity()
                head = [word[tau(p) - 1] for p in range(1, deg + 1)]
                last = word[tau(deg + 1) - 1]
                val = xi.evaluate(frame_word(head))
                br = bracket(val, frame[last])
                add_value(idx, _pi_comp(setup, br), sign)
            if deg >= 1:
                outer = -1 if (deg - 1) % 2 else 1
                for tau in iter_shuffles(ShuffleSpec((2, deg - 1))):
                    sign = tau.parity()
                    u, v = word[tau(1) - 1], word[tau(2) - 1]
                    rest = [word[tau(p) - 1] for p in range(3, deg + 2)]
                    br = _pi_sub(setup, bracket(frame[u], frame[v]))
                    val = xi.evaluate([br] + frame_word(rest))
                    add_value(idx, val, -outer * sign)
        return FrameForm.build(setup, n_out, out_values)

    if k == 2:
        xi, psi = args
        ka, la = xi.degree, psi.degree
        n_out = ka + la
        for idx in itertools.combinations(setup.sub_indices, n_out):
            word = list(idx)
            front = -1 if ka % 2 else 1
            for tau in iter_shuffles(ShuffleSpec((la, ka))):
                sign = tau.parity()
                psi_args = [word[tau(p) - 1] for p in range(1, la + 1)]
                xi_args = [word[tau(p) - 1] for p in range(la + 1, la + ka + 1)]
                br = bracket(xi.evaluate(frame_word(xi_args)), psi.evaluate(frame_word(psi_args)))
                add_value(idx, _pi_comp(setup, br), -front * sign)
            if ka >= 1:
                for tau in iter_shuffles(ShuffleSpec((la, 1, ka - 1))):
                    sign = tau.parity()
                    psi_args = [word[tau(p) - 1] for p in range(1, la + 1)]
                    mid = word[tau(la + 1) - 1]
                    rest = [word[tau(p) - 1] for p in range(la + 2, la + ka + 1)]
                    br = _pi_sub(setup, bracket(psi.evaluate(frame_word(psi_args)), frame[mid]))
                    val = xi.evaluate([br] + frame_word(rest))
                    add_value(idx, val, -front * sign)
            if la >= 1:
                front2 = -1 if ((la - 1) * ka) % 2 else 1
                for tau in iter_shuffles(ShuffleSpec((ka, 1, la - 1))):
                    sign = tau.parity()
                    xi_args = [word[tau(p) - 1] for p in range(1, ka + 1)]
                    mid = word[tau(ka + 1) - 1]
                    rest = [word[tau(p) - 1] for p in range(ka + 2, ka + la + 1)]
                    br = _pi_sub(setup, bracket(xi.evaluate(frame_word(xi_args)), frame[mid]))
                    val = psi.evaluate([br] + frame_word(rest))
                    add_value(idx, val, front2 * sign)
        return FrameForm.build(setup, n_out, out_values)

    if k == 3:
        xi, psi, phi = args
        ka, la, ma = xi.degree, psi.degree, phi.degree
        n_out = ka + la + ma - 1
        if n_out < 0:
            return FrameForm.build(setup, 0, {})
        s1, s2, s3 = _m3_signs(ka, la, ma)
        cases = (
            (s1, xi, ka, psi, la, phi, ma),
            (s2, psi, la, phi, ma, xi, ka),
            (s3, phi, ma, xi, ka, psi, la),
        )
        for idx in itertools.combinations(setup.sub_indices, n_out):
            word = list(idx)
            for s, f1, d1, f2, d2, f3, d3 in cases:
                if d3 < 1:
                    continue
                for tau in iter_shuffles(ShuffleSpec((d1, d2, d3 - 1))):
                    sign = tau.parity()
                    a1 = [word[tau(p) - 1] for p in range(1, d1 + 1)]
                    a2 = [word[tau(p) - 1] for p in range(d1 + 1, d1 + d2 + 1)]
                    rest = [word[tau(p) - 1] for p in range(d1 + d2 + 1, d1 + d2 + d3)]
                    br = _pi_sub(setup, bracket(f1.evaluate(frame_word(a1)), f2.evaluate(frame_word(a2))))
                    val = f3.evaluate([br] + frame_word(rest))
                    add_value(idx, val, s * sign)
        return FrameForm.build(setup, n_out, out_values)

    raise ValueError("explicit formulas exist for arities 1..3 only")


# shift-isomorphism sign of the encoding, degree k form -> summand element
def _encode_sign(k: int) -> int:
    return -1 if (k * (k - 1) // 2) % 2 else 1


def encode_form(form: FrameForm) -> LInftyElement:
    """Identify a sub-frame form with a summand field (shift signs included)."""
    setup = form.setup
    chart = setup.chart
    ne = chart.n_even
    sign = _encode_sign(form.degree)
    terms: dict[tuple, Fraction] = {}
    for (idx, j), val in form.values.items():
        for (even, _), c in val.terms.items():
            key = (even, idx, ne + j)
            terms[key] = terms.get(key, Fraction(0)) + sign * c
    value = SuperVectorField(chart, terms)
    return LInftyElement(value, form.degree - 1)


def decode_form(setup: SplitSetup, element: LInftyElement, degree: int) -> FrameForm:
    """Inverse of the form encoding in one degree."""
    chart = setup.chart
    ne = chart.n_even
    sign = _encode_sign(degree)
    values: dict[tuple[tuple[int, ...], int], SuperFunction] = {}
    for (even, odd, target), c in element.value.terms.items():
        if len(odd) != degree or not chart.target_is_odd(target):
            raise ValueError("element is not a pure form of the requested degree")
        key = (odd, target - ne)
        cur = values.get(key, SuperFunction.zero(chart))
        values[key] = cur + SuperFunction(chart, {(even, ()): c * sign})
    return FrameForm.build(setup, degree, values)


# ---------------------------------------------------------------------
# simultaneous deformation
# ---------------------------------------------------------------------
def simultaneous_residual(
    setup: SplitSetup,
    xq: SuperVectorField,
    base: DeformationPair,
    cand_xq: SuperVectorField,
    cand_def: DeformationPair,
    cap: int = DEFAULT_SERIES_CAP,
) -> tuple[SuperVectorField, SuperVectorField]:
    """Residual pair of a joint (structure, graph) deformation.

    The first component vanishes iff the deformed field is homological; the
    second iff the summed candidate graph is a subalgebroid of the deformed
    structure.  The base pair must already be a deformation.
    """
    valg = setup.valgebra()
    if not subalgebroid_mc_residual(setup, xq, base, cap=cap).value.is_zero():
        raise ValueError("the base pair is not a deformation of the subalgebroid")
    if not cand_xq.is_zero():
        if cand_xq.degree() != 1:
            raise ValueError("the structure candidate must have degree 1")
        if not valg.project(cand_xq).is_zero():
            raise ValueError("the structure candidate must lie in ker(P)")
    v_residual = structure_residual(xq, cand_xq)
    twist = LInftyElement(
        -(encode_deformation(setup, base).value + encode_deformation(setup, cand_def).value), 0
    )
    a_residual = twisted_projection(valg, twist, xq + cand_xq, cap=cap)
    return v_residual, a_residual


# ---------------------------------------------------------------------
# cohomology of the unary structure map
# ---------------------------------------------------------------------
def m1_cohomology(
    setup: SplitSetup,
    xq: SuperVectorField,
    degree: int,
    truncate: int | None = None,
) -> CohomologyResult:
    """Exact rank computation of ker/im of the unary map on the summand.

    ``degree`` is the intrinsic field degree of the summand.  A polynomial
    base requires a truncation bound for the coefficient degree; the result
    is flagged as truncated in that case.
    """
    if setup.base_dim > 0 and truncate is None:
        raise ValueError("polynomial base needs a truncation degree")
    bound = 0 if setup.base_dim == 0 else int(truncate)  # type: ignore[arg-type]
    if not is_homological(xq):
        raise ValueError("the structure field must be homological")
    if not setup.project(xq).is_zero():
        raise ValueError("the sub-frame must be a subalgebroid")

    def diff(v: SuperVectorField) -> SuperVectorField:
        return setup.project(super_commutator(xq, v))

    return complex_cohomology(
        diff,
        lambda d: setup.abelian_basis(d, bound),
        degree,
        truncated=setup.base_dim > 0,
    )
