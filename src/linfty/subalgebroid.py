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
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .algebroid import (
    AlgebroidData,
    PolyDict,
    SectionCalculus,
    _exponents_up_to,
    _poly_fn,
    _poly_terms,
    _product_into,
    add_into,
    complex_cohomology,
    merge_polys,
    monomial_fields,
    poly_map,
    structure_residual,
    window_bound,
)
from .signs import shuffle_table
from .superfield import (
    ChartMismatchError,
    Coefficient,
    CoordinateChart,
    Frozen,
    PreconditionError,
    Record,
    SuperFunction,
    SuperVectorField,
    apply,
    super_commutator,
)
from .valgebra import LInftyElement, MCDelta, mc_residual, twisted_projection


class SplitSetup(Frozen):
    """Adapted-coordinate data of a subbundle over a submanifold.

    ``base_dim`` (p) counts base coordinates, ``normal_rank`` (q) normal
    ones, ``sub_rank`` (l) the sub-frame size; the algebroid lives over the
    p+q even coordinates with the full odd frame.
    """

    __slots__ = ("data", "base_dim", "normal_rank", "sub_rank", "chart", "__dict__")  # the dict holds cached values
    _fields = __slots__[:5]

    def __init__(self, data: AlgebroidData, base_dim: int, normal_rank: int, sub_rank: int, chart: CoordinateChart):
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "base_dim", base_dim)
        object.__setattr__(self, "normal_rank", normal_rank)
        object.__setattr__(self, "sub_rank", sub_rank)
        object.__setattr__(self, "chart", chart)

    @staticmethod
    def build(data: AlgebroidData, base_dim: int, normal_rank: int, sub_rank: int) -> "SplitSetup":
        chart = data.split_chart(base_dim, normal_rank, sub_rank)
        return SplitSetup(data, base_dim, normal_rank, sub_rank, chart)

    # -- index ranges ---------------------------------------------------
    @property
    def sub_indices(self) -> range:
        return range(self.sub_rank)

    @property
    def comp_indices(self) -> range:
        return range(self.sub_rank, self.data.fiber_rank)

    @property
    def normal_even_positions(self) -> range:
        return range(self.base_dim, self.base_dim + self.normal_rank)

    # -- the projection and the abelian summand --------------------------
    def project(self, v: SuperVectorField) -> SuperVectorField:
        """Restrict coefficients to the subbundle slice, keep normal directions.

        Keeps terms pointing in complement-odd or normal-even directions
        whose coefficients survive setting normal evens and complement odds
        to zero.
        """
        if v.chart is not self.chart and v.chart != self.chart:
            raise ChartMismatchError("field and split setup on different charts")
        # the chart lists base then normal evens, sub-frame then complement odds
        p, ne, l = self.base_dim, self.chart.n_even, self.sub_rank
        kept = {}
        for key, c in v.terms.items():
            even, odd, target = key
            if not (p <= target < ne or target >= ne + l):
                continue  # neither a normal-even nor a complement-odd direction
            if any(even[p:]) or (odd and odd[-1] >= l):
                continue  # a normal even or a complement odd in the coefficient
            kept[key] = c
        return SuperVectorField._of(self.chart, kept)

    @cached_property
    def calculus(self) -> SectionCalculus:
        """The section calculus of the ambient algebroid on the split chart."""
        return SectionCalculus.of(self.data, self.chart)

    @cached_property
    def delta(self) -> MCDelta:
        """The structure field on the split chart, checked like ``MCDelta.of`` but with the calculus's own square
        (a built field has degree 1 or is zero); a refusal is not kept, so each read raises it."""
        calc = self.calculus
        if not self.project(calc.xq).is_zero():
            raise PreconditionError("delta must lie in ker(P)")
        if not calc.square.is_zero():
            raise PreconditionError("delta must satisfy [[delta, delta]] = 0")
        return MCDelta(calc.xq)

    @cached_property
    def sub_frame(self) -> "FrameForm":
        """The sub-frame as a 1-form: values in the sub-frame, so not through ``FrameForm.build``."""
        one = SuperFunction.constant(self.chart, 1)
        return FrameForm(self, 1, {((i,), i): one for i in self.sub_indices})

    def abelian_basis(self, degree: int, poly_degree: int = 0) -> list[SuperVectorField]:
        """Monomial basis of the summand in one field degree.

        Coefficients are sub-frame odd monomials times base monomials; complement-odd targets come before normal-even ones.
        """
        ne = self.chart.n_even
        exps = [e for e in _exponents_up_to(ne, poly_degree) if not any(e[self.base_dim :])]
        odd_targets = [ne + j for j in self.comp_indices]
        return monomial_fields(self.chart, degree, exps, self.sub_indices, odd_targets, self.normal_even_positions)


class DeformationPair(Frozen):
    """Candidate deformation: normal section coefficients plus a bundle map.

    ``sigma`` maps a normal index k to the polynomial (in base coordinates)
    coefficients of the section; ``phi`` maps (sub index i, complement
    index j) to the polynomial matrix entry.
    """

    __slots__ = _fields = ("sigma", "phi")

    def __init__(self, sigma: Mapping[int, PolyDict], phi: Mapping[tuple[int, int], PolyDict]):
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "phi", phi)

    @staticmethod
    def build(setup: SplitSetup, sigma=None, phi=None) -> "DeformationPair":
        p = setup.base_dim
        sigma = poly_map(sigma or {}, p, (range(setup.normal_rank),), "normal section")
        return DeformationPair(sigma, poly_map(phi or {}, p, (setup.sub_indices, setup.comp_indices), "bundle map"))

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


def encode_deformation(setup: SplitSetup, d: DeformationPair) -> LInftyElement:
    """The degree-0 summand element of a candidate pair (a bijection)."""
    ne = setup.chart.n_even
    terms: dict[tuple, Coefficient] = {}
    for (i, j), poly in d.phi.items():
        _poly_terms(terms, poly, ne, (i,), ne + j)
    for k, poly in d.sigma.items():
        _poly_terms(terms, poly, ne, (), setup.base_dim + k)
    return LInftyElement(SuperVectorField(setup.chart, terms), 0)


# ---------------------------------------------------------------------
# tangency oracle: direct graph substitution
# ---------------------------------------------------------------------
def normal_substitution(setup: SplitSetup, d: DeformationPair) -> dict[int, SuperFunction]:
    """The replacements y_k -> sigma_k: restriction to the section's image, for functions of the even coordinates."""
    return {k: _poly_fn(setup.chart, d.sigma.get(pos_k, {})) for pos_k, k in enumerate(setup.normal_even_positions)}


def graph_substitution(setup: SplitSetup, d: DeformationPair) -> dict[int, SuperFunction]:
    """Coordinate replacements realizing restriction to the candidate graph."""
    chart, ne = setup.chart, setup.chart.n_even
    mapping = normal_substitution(setup, d)
    for j in setup.comp_indices:
        terms = {}
        for i in setup.sub_indices:
            if (i, j) in d.phi:
                _poly_terms(terms, d.phi[(i, j)], ne, (i,))
        mapping[ne + j] = SuperFunction(chart, terms)
    return mapping


def tangency_oracle(setup: SplitSetup, z: SuperVectorField, gamma: DeformationPair) -> SuperVectorField:
    """The failure of a field to be tangent to the graph of a candidate, by direct graph substitution.

    Applies z to each graph-defining function and restricts to the graph.
    The series route, (1/n!) P(ad^n by minus the encoded section) of z summed
    over n >= 0, is ``twisted_projection``; along a checked structure field
    it is ``subalgebroid_mc_residual``.  The two routes agree exactly, on
    any field, tangent to the zero section or not: that is part of the
    contract.
    """
    mapping = graph_substitution(setup, gamma)
    terms: dict[tuple, Coefficient] = {}
    for t, graph_fn in mapping.items():
        residual = (z.component(t) - apply(z, graph_fn)).substitute(mapping)
        terms.update(((even, odd, t), c) for (even, odd), c in residual.terms.items())
    return SuperVectorField(setup.chart, terms)


# ---------------------------------------------------------------------
# Maurer-Cartan residual and the classical oracle
# ---------------------------------------------------------------------
def subalgebroid_mc_residual(setup: SplitSetup, delta: MCDelta, d: DeformationPair) -> LInftyElement:
    """Residual of the candidate in the derived-bracket structure of the checked structure field ``delta``.

    The candidate enters with a global minus sign (the convention validated
    against the graph-closure oracle); zero iff the deformed graph is again
    a subalgebroid.
    """
    candidate = LInftyElement(-encode_deformation(setup, d).value, 0)
    return mc_residual(setup, delta, candidate)


class GraphClosureReport(Record):
    __slots__ = _fields = ("anchor_defects", "closure_defects")

    def __init__(self, anchor_defects: dict[tuple[int, int], SuperFunction] | None = None,
                 closure_defects: dict[tuple[int, int, int], SuperFunction] | None = None):
        self.anchor_defects = {} if anchor_defects is None else anchor_defects
        self.closure_defects = {} if closure_defects is None else closure_defects

    @property
    def accepts(self) -> bool:
        return not self.anchor_defects and not self.closure_defects


def graph_closure_oracle(setup: SplitSetup, d: DeformationPair) -> GraphClosureReport:
    """Classical subalgebroid test for the graph of a candidate.

    Brackets the graph frame sections, restricts to the section's image,
    and checks that the result stays in the graph and that anchors stay
    tangent to it.  Independent of the bracket-series machinery.  Every
    function it restricts is even, so it replaces only y_k -> sigma_k.
    """
    chart, calc = setup.chart, setup.calculus
    mapping = normal_substitution(setup, d)
    restrict = (lambda f: f.substitute(mapping)) if mapping else (lambda f: f)
    report = GraphClosureReport()

    # graph frame: eps_i = xi_i + sum_j phi^j_i xi_j, all sharing one constant 1
    one = SuperFunction._of(chart, {((0,) * chart.n_even, ()): 1})
    sections = {i: {i: one} for i in setup.sub_indices}
    for (i, j), poly in d.phi.items():
        sections[i][j] = _poly_fn(chart, poly)

    # anchor condition: rho(eps_i) kills y_k - sigma_k on the section image
    definings = [SuperFunction.even_var(chart, k) - mapping[k] for k in setup.normal_even_positions]
    for i in setup.sub_indices:
        for pos_k, defining in enumerate(definings):
            total: dict = {}
            for a, fa in sections[i].items():
                _product_into(total, fa.terms, calc.anchor_apply(a, defining).terms)
            total = restrict(SuperFunction._of(chart, total))
            if not total.is_zero():
                report.anchor_defects[(i, pos_k)] = total
    # closure condition: g_j - sum_i phi^j_i g_i = 0 for g = [eps_i1, eps_i2] restricted to the section image
    # (phi depends on base coordinates only, which the substitution leaves alone)
    for i1, i2 in itertools.combinations(setup.sub_indices, 2):
        g = {c: restrict(f) for c, f in calc.bracket(sections[i1], sections[i2]).items()}
        for j in setup.comp_indices:
            defect = dict(g[j].terms) if j in g else {}
            for i in setup.sub_indices:
                if i in g and j in sections[i]:
                    _product_into(defect, sections[i][j].terms, g[i].terms, -1)
            if defect:
                report.closure_defects[(i1, i2, j)] = SuperFunction._of(chart, defect)
    return report


# ---------------------------------------------------------------------
# explicit low-arity structure maps for the fixed-base case
# ---------------------------------------------------------------------
def _parity_sign(n: int) -> int:
    return -1 if n % 2 else 1


class FrameForm(Frozen):
    """Alternating sub-frame form with complement-valued polynomial entries."""

    __slots__ = _fields = ("setup", "degree", "values")

    def __init__(self, setup: SplitSetup, degree: int, values: Mapping[tuple[tuple[int, ...], int], SuperFunction]):
        object.__setattr__(self, "setup", setup)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "values", values)

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

    def at(self, word: Sequence[int]) -> dict[int, SuperFunction]:
        """The section the form takes on an increasing frame word: a lookup of its entries."""
        word = tuple(word)
        return {j: val for (idx, j), val in self.values.items() if idx == word}

    def contract(self, section: dict[int, SuperFunction], word: Sequence[int]) -> dict[int, SuperFunction]:
        """The form on (section, frame word...) for an increasing word.

        Frame element a of the section moves past the word letters below it,
        with sign (-1)^#{w in word : w < a}; an element already in the word,
        or outside the sub-frame, contributes nothing.
        """
        out: dict[int, SuperFunction] = {}
        for a, f in section.items():
            if a in word:
                continue
            sign = _parity_sign(sum(1 for w in word if w < a))
            for j, val in self.at(sorted((a, *word))).items():
                add_into(out, j, (f * val).scale(sign))
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


def explicit_structure_maps(setup: SplitSetup, k: int, args: Sequence[FrameForm]) -> FrameForm:
    """Shuffle-sum formulas for the arity-1..3 maps of the fixed-base case.

    Each map is a table of terms (c, F, G) and (c, F, G, H).  On every
    increasing sub-frame word they add c pi_comp[F(a), G(b)], summed over
    the (|F|, |G|) shuffles (a, b) of the word, and c H(pi_sub[F(a), G(b)],
    rest), summed over its (|F|, |G|, |H| - 1) shuffles; F, G and H are
    argument forms or the sub-frame itself.  Must agree with the
    nested-bracket route under the encoding; arities four and up vanish in
    this setting.  The brackets are those of ``setup.calculus``, and the
    signed shuffles come from the process's tables (``signs.shuffle_table``).
    """
    if setup.normal_rank != 0:
        raise ValueError("explicit maps require the fixed-base setup (no normal coordinates)")
    if k != len(args):
        raise ValueError("arity does not match the number of arguments")
    if not 1 <= k <= 3:
        raise ValueError("explicit formulas exist for arities 1..3 only")
    n_out = sum(form.degree for form in args) + 2 - k
    if n_out < 0:
        return FrameForm.build(setup, 0, {})
    bracket = setup.calculus.bracket
    frame = setup.sub_frame
    if k == 1:
        (xi,) = args
        # F = G = frame meets each pair of letters in both orders, with equal sums
        terms = [(1, xi, frame), (Fraction(_parity_sign(xi.degree), 2), frame, frame, xi)]
    elif k == 2:
        xi, psi = args
        front = _parity_sign(xi.degree)
        terms = [
            (front, psi, xi),
            (-front, psi, frame, xi),
            (_parity_sign((psi.degree - 1) * xi.degree), xi, frame, psi),
        ]
    else:
        xi, psi, phi = args
        s1, s2, s3 = _m3_signs(xi.degree, psi.degree, phi.degree)
        terms = [(s1, xi, psi, phi), (s2, psi, phi, xi), (s3, phi, xi, psi)]

    odd = (1,) * n_out  # a shuffle of frame letters is signed by its parity
    out_values: dict[tuple[tuple[int, ...], int], SuperFunction] = {}
    for idx in itertools.combinations(setup.sub_indices, n_out):
        for c, f, g, *h in terms:
            if h and h[0].degree < 1:
                continue
            sizes = (f.degree, g.degree, n_out - f.degree - g.degree)
            for sign, (a, b, rest) in shuffle_table(sizes, odd):
                br = bracket(f.at([idx[p] for p in a]), g.at([idx[p] for p in b]))
                if h:
                    section = h[0].contract(br, [idx[p] for p in rest])
                else:
                    section = {j: val for j, val in br.items() if j in setup.comp_indices}
                for j, val in section.items():
                    if j not in setup.comp_indices:
                        raise AssertionError("structure map produced a non-complement value")
                    add_into(out_values, (idx, j), val.scale(c * sign))
    return FrameForm.build(setup, n_out, out_values)


# shift-isomorphism sign of the encoding, degree k form -> summand element
def _encode_sign(k: int) -> int:
    return -1 if (k * (k - 1) // 2) % 2 else 1


def encode_form(form: FrameForm) -> LInftyElement:
    """Identify a sub-frame form with a summand field (shift signs included)."""
    setup = form.setup
    chart = setup.chart
    ne = chart.n_even
    sign = _encode_sign(form.degree)
    terms: dict[tuple, Coefficient] = {}
    for (idx, j), val in form.values.items():
        for (even, _), c in val.terms.items():
            key = (even, idx, ne + j)
            terms[key] = terms.get(key, 0) + sign * c
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
    delta: MCDelta,
    base: DeformationPair,
    cand_xq: SuperVectorField,
    cand_def: DeformationPair,
) -> tuple[SuperVectorField, SuperVectorField]:
    """Residual pair of a joint (structure, graph) deformation of the checked structure field ``delta``.

    The first component vanishes iff the deformed field is homological; the
    second iff the summed candidate graph is a subalgebroid of the deformed
    structure.  The base pair must already be a deformation.
    """
    if not subalgebroid_mc_residual(setup, delta, base).value.is_zero():
        raise PreconditionError("the base pair is not a deformation of the subalgebroid")
    if not cand_xq.is_zero():
        if cand_xq.degree() != 1:
            raise PreconditionError("the structure candidate must have degree 1")
        if not setup.project(cand_xq).is_zero():
            raise PreconditionError("the structure candidate must lie in ker(P)")
    v_residual = structure_residual(delta.delta, cand_xq)
    twist = LInftyElement(
        -(encode_deformation(setup, base).value + encode_deformation(setup, cand_def).value), 0
    )
    a_residual = twisted_projection(setup, twist, delta.delta + cand_xq)
    return v_residual, a_residual


# ---------------------------------------------------------------------
# cohomology of the unary structure map
# ---------------------------------------------------------------------
def m1_cohomology(setup: SplitSetup, delta: MCDelta, degrees: Iterable[int], truncate: int | None = None) -> list[int]:
    """Dimensions of ker/im of the unary map on the summand at the given degrees, in increasing degree.

    A degree is the intrinsic field degree of the summand.  A polynomial
    base requires a truncation bound for the coefficient degree
    (``window_bound``).  The unary map squares to zero because the checked
    structure field ``delta`` has [Q, Q] = 0 and P(Q) = 0.
    """
    bound = window_bound(setup.base_dim, truncate)

    def diff(v: SuperVectorField) -> SuperVectorField:
        return setup.project(super_commutator(delta.delta, v))

    return complex_cohomology(diff, lambda d: setup.abelian_basis(d, bound), degrees)
