"""Lie algebroids from polynomial structure data.

An algebroid over a polynomial chart is given by antisymmetric structure
functions C^k_ij(x) and anchor coefficients b^t_i(x).  The odd degree-1
field built from them squares to zero exactly when the data satisfies the
classical axioms; both routes are implemented and cross-checked.  The
module also carries the residual of a candidate structure and the
deformation cohomology of the field complex.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

from . import linalg
from .superfield import (
    BASE,
    NORMAL,
    PLAIN,
    SUB_FRAME,
    COMPLEMENT_FRAME,
    Coefficient,
    CoordinateChart,
    Frozen,
    PreconditionError,
    Record,
    SuperFunction,
    SuperVectorField,
    coefficient,
    is_homological,
    render_function,
    super_commutator,
)

PolyDict = dict[tuple[int, ...], Coefficient]


def _as_poly(value, base_dim: int) -> PolyDict:
    if isinstance(value, (int, Fraction)):
        c = coefficient(value)
        return {} if c == 0 else {(0,) * base_dim: c}
    out: PolyDict = {}
    for exps, c in dict(value).items():
        exps = tuple(exps)
        if len(exps) != base_dim:
            raise ValueError(f"exponent tuple {exps} has wrong length (need {base_dim})")
        if exps and min(exps) < 0:
            raise ValueError("negative exponent")
        c = coefficient(c)
        if c != 0:
            out[exps] = c
    return out


def poly_map(values: Mapping, base_dim: int, bounds: tuple[range, ...], what: str) -> dict:
    """A keyed polynomial map, checked and normalised: the one way such a map enters a record.

    A key is a tuple of indices, or a bare index when ``bounds`` holds one
    range; each index must lie in its range, and any other key is refused.  A value is a rational (a
    constant) or a map from exponent tuples over ``base_dim`` coordinates to
    rationals; it is normalised by ``_as_poly``, and zero entries are dropped.
    """
    out = {}
    for key, value in values.items():
        indices = (key,) if len(bounds) == 1 else key
        if type(indices) is not tuple or len(indices) != len(bounds):
            raise ValueError(f"{what} index out of range: {key}")
        for index, bound in zip(indices, bounds):
            if index not in bound:
                raise ValueError(f"{what} index out of range: {key}")
        poly = _as_poly(value, base_dim)
        if poly:
            out[key] = poly
    return out


def merge_polys(entries: Iterable[tuple[Any, PolyDict]]) -> dict[Any, PolyDict]:
    """Sum normal polynomials of equal keys, in first-seen key order; zero terms and entries dropped."""
    out: dict[Any, PolyDict] = {}
    for key, poly in entries:
        merged = out.setdefault(key, {})
        for e, c in poly.items():
            merged[e] = merged.get(e, 0) + c
    return {
        key: nonzero
        for key, poly in out.items()
        if (nonzero := {e: coefficient(c) for e, c in poly.items() if c})
    }


def _poly_terms(out: dict, poly: PolyDict, n_even: int, *tail) -> dict:
    """Write poly(x)'s terms into ``out`` under keys (exps, *tail), exps zero-padded to ``n_even`` entries."""
    for exps, c in poly.items():
        out[(exps + (0,) * (n_even - len(exps)),) + tail] = c
    return out


def _poly_fn(chart: CoordinateChart, poly: PolyDict) -> SuperFunction:
    return SuperFunction(chart, _poly_terms({}, poly, chart.n_even, ()))


def add_into(out: dict, key, val: SuperFunction) -> None:
    """out[key] += val, keeping only nonzero entries."""
    if val.is_zero():
        return
    total = out[key] + val if key in out else val
    if total.is_zero():
        del out[key]
    else:
        out[key] = total


class AlgebroidData(Frozen):
    """Polynomial structure functions of a Lie algebroid candidate.

    ``structure`` maps (i, j, k) with i < j to the polynomial coefficient of
    frame element k in the bracket of frame elements i and j; ``anchor``
    maps (i, t) to the coefficient of the t-th coordinate field.  Indices
    are 0-based.  Only antisymmetry is enforced at construction; the
    Jacobi/anchor axioms are what ``validate_algebroid`` decides.
    """

    __slots__ = ("base_dim", "fiber_rank", "structure", "anchor", "__dict__")  # the dict holds ``toral_weights``
    _fields = __slots__[:4]

    def __init__(self, base_dim: int, fiber_rank: int, structure: Mapping[tuple[int, int, int], PolyDict],
                 anchor: Mapping[tuple[int, int], PolyDict]):
        object.__setattr__(self, "base_dim", base_dim)
        object.__setattr__(self, "fiber_rank", fiber_rank)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "anchor", anchor)

    @staticmethod
    def build(base_dim: int, fiber_rank: int, structure=None, anchor=None) -> "AlgebroidData":
        frame = range(fiber_rank)
        entries = []
        for (i, j, k), poly in poly_map(structure or {}, base_dim, (frame,) * 3, "structure").items():
            if i == j:
                raise ValueError(f"nonzero diagonal structure constant at {(i, j, k)}")
            if i > j:
                i, j = j, i
                poly = {e: -c for e, c in poly.items()}
            entries.append(((i, j, k), poly))
        anchor = poly_map(anchor or {}, base_dim, (frame, range(base_dim)), "anchor")
        return AlgebroidData(base_dim, fiber_rank, merge_polys(entries), anchor)

    @cached_property
    def toral_weights(self) -> tuple[dict[int, Coefficient], ...]:
        """The weights of the toral frame elements of a Lie algebra, those with a nonzero weight only.

        A frame element x is toral when ad x is diagonal in the frame: c_{xj}^m = 0
        unless m = j.  Its weights w_j = c_{xj}^j (nonzero entries only) are read
        off the structure constants in one scan, once per record: every later
        command on the same parsed instance reuses them.  Distinct toral elements
        commute, since c_{xy} = -c_{yx} is a multiple of both y and x.
        """
        weights: dict[int, dict[int, Coefficient]] = {}
        off_diagonal = set()
        for (i, j, k), poly in self.structure.items():  # c_ij^k, and c_ji^k = -c_ij^k
            for x, y, c in ((i, j, poly[()]), (j, i, -poly[()])):
                if k == y:
                    weights.setdefault(x, {})[y] = c
                else:
                    off_diagonal.add(x)
        return tuple(w for x, w in weights.items() if x not in off_diagonal)

    # -- charts ---------------------------------------------------------
    def plain_chart(self) -> CoordinateChart:
        return CoordinateChart(
            tuple(f"x{t+1}" for t in range(self.base_dim)),
            (BASE,) * self.base_dim,
            tuple(f"xi{i+1}" for i in range(self.fiber_rank)),
            (PLAIN,) * self.fiber_rank,
        )

    def split_chart(self, base_dim_s: int, normal_rank: int, sub_rank: int) -> CoordinateChart:
        if base_dim_s + normal_rank != self.base_dim:
            raise ValueError("base + normal dimensions must sum to the even dimension")
        if not 0 <= sub_rank <= self.fiber_rank:
            raise ValueError("sub rank out of range")
        evens = tuple(f"x{t+1}" for t in range(base_dim_s)) + tuple(
            f"y{k+1}" for k in range(normal_rank)
        )
        roles = (BASE,) * base_dim_s + (NORMAL,) * normal_rank
        odds = tuple(f"xi{i+1}" for i in range(self.fiber_rank))
        odd_roles = (SUB_FRAME,) * sub_rank + (COMPLEMENT_FRAME,) * (self.fiber_rank - sub_rank)
        return CoordinateChart(evens, roles, odds, odd_roles)


def build_xq(data: AlgebroidData, chart: CoordinateChart | None = None) -> SuperVectorField:
    """Degree-1 field (1/2) C^k_ij xi^i xi^j d/dxi^k - b^t_i xi^i d/dx^t."""
    chart = chart or data.plain_chart()
    ne = chart.n_even
    terms: dict[tuple, Coefficient] = {}
    for (i, j, k), poly in data.structure.items():
        for exps, c in poly.items():
            key = (exps, (i, j), ne + k)
            terms[key] = terms.get(key, 0) + c
    for (i, t), poly in data.anchor.items():
        for exps, c in poly.items():
            key = (exps, (i,), t)
            terms[key] = terms.get(key, 0) - c
    return SuperVectorField(chart, terms)


# ---------------------------------------------------------------------
# validation: homological route and classical route
# ---------------------------------------------------------------------
class AlgebroidReport(Record):
    """Both routes' verdicts, with the structure field the homological route squared and that square."""

    __slots__ = _fields = ("homological", "xq", "square", "anchor_defects", "jacobi_defects")

    def __init__(self, homological: bool, xq: SuperVectorField | None = None, square: SuperVectorField | None = None,
                 anchor_defects: dict[tuple[int, int, int], str] | None = None,
                 jacobi_defects: dict[tuple[int, int, int, int], str] | None = None):
        self.homological, self.xq, self.square = homological, xq, square
        self.anchor_defects = {} if anchor_defects is None else anchor_defects
        self.jacobi_defects = {} if jacobi_defects is None else jacobi_defects

    @property
    def ok(self) -> bool:
        return self.homological

    @property
    def classical_ok(self) -> bool:
        return not self.anchor_defects and not self.jacobi_defects


def validate_algebroid(data: AlgebroidData, chart: CoordinateChart | None = None) -> AlgebroidReport:
    """Pass iff the built field is homological; localizes failing terms."""
    chart = chart or data.plain_chart()
    xq = build_xq(data, chart)
    square = super_commutator(xq, xq)
    degree = xq.degree()  # is_homological's rules, reusing the square
    homological = xq.is_zero() or (degree is not None and degree % 2 == 1 and square.is_zero())
    report = AlgebroidReport(homological, xq, square)
    for (i, j, t), poly in classical_anchor_defects(data, chart).items():
        report.anchor_defects[(i, j, t)] = render_function(poly)
    for (i, j, k, c), poly in classical_jacobi_defects(data, chart).items():
        report.jacobi_defects[(i, j, k, c)] = render_function(poly)
    return report


Section = dict[int, SuperFunction]  # frame index -> coefficient


class SectionCalculus(Frozen):
    """The bracket and anchor of an algebroid on sections in its frame, on one chart.

    ``structure[(a, b)]`` holds the nonzero C^c_ab as ``{c: function}`` for
    both orders of every pair, ``anchor[a]`` the nonzero b^t_a as ``{t: function}``;
    each is built once from the polynomial data.
    """

    __slots__ = _fields = ("chart", "structure", "anchor")

    def __init__(self, chart: CoordinateChart, structure: Mapping[tuple[int, int], Section],
                 anchor: Mapping[int, Section]):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "anchor", anchor)

    @staticmethod
    def of(data: AlgebroidData, chart: CoordinateChart | None = None) -> "SectionCalculus":
        chart = chart or data.plain_chart()
        structure: dict[tuple[int, int], Section] = {}
        for (i, j, k), poly in sorted(data.structure.items()):
            f = _poly_fn(chart, poly)
            structure.setdefault((i, j), {})[k] = f
            structure.setdefault((j, i), {})[k] = -f
        anchor: dict[int, Section] = {}
        for (i, t), poly in sorted(data.anchor.items()):
            anchor.setdefault(i, {})[t] = _poly_fn(chart, poly)
        return SectionCalculus(chart, structure, anchor)

    def anchor_apply(self, a: int, f: SuperFunction) -> SuperFunction:
        """Action of the anchor image of frame element a on a function."""
        out = SuperFunction.zero(self.chart)
        for t, b in self.anchor.get(a, {}).items():
            out = out + b * f.partial(t)
        return out

    def bracket(self, u: Section, v: Section) -> Section:
        """[u, v]^c = u^a v^b C^c_ab + u^a rho_a(v^c) - v^b rho_b(u^c).

        u^a v^b is formed once per frame pair with structure functions, and
        frame elements without an anchor skip the anchor terms.
        """
        out: Section = {}
        for a, ua in u.items():
            for b, vb in v.items():
                cab = self.structure.get((a, b))
                if cab is None:
                    continue
                uv = ua * vb
                for c, cf in cab.items():
                    add_into(out, c, _times(uv, cf))
        anchor = self.anchor
        for x, y, sign in ((u, v, 1), (v, u, -1)):
            for a, xa in x.items():
                if a in anchor:
                    for c, yc in y.items():
                        add_into(out, c, (xa * self.anchor_apply(a, yc)).scale(sign))
        return out


def _times(f: SuperFunction, g: SuperFunction) -> SuperFunction:
    """f * g, as a scaling of f when g is a constant."""
    if len(g.terms) == 1:
        ((even, odd), c), = g.terms.items()
        if not odd and not any(even):
            return f.scale(c)
    return f * g


def classical_anchor_defects(
    data: AlgebroidData, chart: CoordinateChart | None = None
) -> dict[tuple[int, int, int], SuperFunction]:
    """rho([xi_i, xi_j]) - [rho(xi_i), rho(xi_j)], componentwise, nonzero only."""
    calc = SectionCalculus.of(data, chart)
    zero = SuperFunction.zero(calc.chart)
    out = {}
    for i, j in itertools.combinations(range(data.fiber_rank), 2):
        for t in range(data.base_dim):
            total = zero
            for k, ck in calc.structure.get((i, j), {}).items():
                total = total + ck * calc.anchor.get(k, {}).get(t, zero)
            total = total - calc.anchor_apply(i, calc.anchor.get(j, {}).get(t, zero))
            total = total + calc.anchor_apply(j, calc.anchor.get(i, {}).get(t, zero))
            if not total.is_zero():
                out[(i, j, t)] = total
    return out


def classical_jacobi_defects(
    data: AlgebroidData, chart: CoordinateChart | None = None
) -> dict[tuple[int, int, int, int], SuperFunction]:
    """Cyclic sum of [[xi_a, xi_b], xi_d] on frame triples, componentwise, nonzero only."""
    calc = SectionCalculus.of(data, chart)
    one = SuperFunction.constant(calc.chart, 1)
    out = {}
    for i, j, k in itertools.combinations(range(data.fiber_rank), 3):
        total: Section = {}
        for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
            for c, f in calc.bracket(calc.bracket({a: one}, {b: one}), {d: one}).items():
                add_into(total, c, f)
        for c in sorted(total):
            out[(i, j, k, c)] = total[c]
    return out


def classically_valid(data: AlgebroidData, chart: CoordinateChart | None = None) -> bool:
    """The classical route of ``validate_algebroid`` alone: no anchor or Jacobi defect."""
    return not classical_anchor_defects(data, chart) and not classical_jacobi_defects(data, chart)


def structure_residual(xq: SuperVectorField, xq_tilde: SuperVectorField) -> SuperVectorField:
    """[[X, X~]] + (1/2)[[X~, X~]], unchecked; with [[X, X]] = 0 it is half of [[X + X~, X + X~]]."""
    return super_commutator(xq, xq_tilde) + super_commutator(xq_tilde, xq_tilde).scale(Fraction(1, 2))


# ---------------------------------------------------------------------
# deformation cohomology of the field complex
# ---------------------------------------------------------------------
def monomial_fields(
    chart: CoordinateChart, field_degree: int, exps: list[tuple[int, ...]], odd_pool: Iterable[int],
    odd_targets: Iterable[int], even_targets: Iterable[int], keep=None,
) -> list[SuperVectorField]:
    """Monomial fields of one degree: x^e * (odd subset of the pool) * d/d(target), coefficient 1.

    Odd targets come first, then even ones; within each, odd subsets
    outermost, then targets, then the exponent tuples in the given order.
    ``keep(odd, target)``, when given, selects the (odd subset, target) pairs.
    Each field is one canonical term, so it is wrapped without re-validation.
    """
    out = []
    for odd_size, targets in ((field_degree + 1, odd_targets), (field_degree, even_targets)):
        if odd_size < 0:
            continue
        for odd in itertools.combinations(odd_pool, odd_size):
            for target in targets:
                if keep is not None and not keep(odd, target):
                    continue
                for e in exps:
                    out.append(SuperVectorField._of(chart, {(e, odd, target): 1}))
    return out


def field_basis(
    chart: CoordinateChart, field_degree: int, poly_bound: int, weights: Sequence[dict[int, Coefficient]] = ()
) -> list[SuperVectorField]:
    """Monomial fields of one degree with coefficient poly degree <= bound.

    Over a point, ``weights`` (``AlgebroidData.toral_weights``) keeps only the weight-0 block:
    xi^S d/dxi_t with sum_{j in S} w_j = w_t for every weight map w.
    """
    ne, no = chart.n_even, chart.n_odd
    keep = None
    if weights:
        def keep(odd, target):
            return all(sum(w.get(j, 0) for j in odd) == w.get(target, 0) for w in weights)
    return monomial_fields(
        chart, field_degree, _exponents_up_to(ne, poly_bound), range(no), range(ne, ne + no), range(ne), keep
    )


def _exponents_up_to(n_even: int, bound: int) -> list[tuple[int, ...]]:
    if n_even == 0:
        return [()]
    out = []
    for total in range(bound + 1):
        for combo in itertools.combinations_with_replacement(range(n_even), total):
            e = [0] * n_even
            for c in combo:
                e[c] += 1
            out.append(tuple(e))
    return out


class CohomologyResult(Record):
    __slots__ = _fields = ("degree", "dimension", "truncated")

    def __init__(self, degree: int, dimension: int, truncated: bool = False):
        self.degree, self.dimension, self.truncated = degree, dimension, truncated


def _image_ranks(images: Iterable[SuperVectorField], window: list[SuperVectorField]) -> tuple[int, int]:
    """Rank of the images, and rank of their parts outside the span of the window's monomials.

    Window coordinates are numbered 0, 1, ... and every other coordinate
    -1, -2, ...; an echelon row's pivot is its lowest column, so the rows
    nonzero outside the window are exactly those pivoting there.
    """
    cols = {key: i for i, key in enumerate(key for w in window for key in w.terms)}
    inside = len(cols)
    echelon = linalg.EchelonBasis()
    for v in images:
        echelon.add({cols.setdefault(key, inside - 1 - len(cols)): c for key, c in v.terms.items()})
    return len(echelon), sum(1 for p in echelon.rows if p < 0)


def complex_cohomology(
    differential, basis_of_degree, degrees: Iterable[int], truncated: bool = False
) -> list[CohomologyResult]:
    """Dimensions of ker/im of a degree +1 differential on an enumerated field complex.

    ``basis_of_degree(p)`` enumerates the chosen window B_p in degree p:
    distinct monomial fields, so their span W_p is a coordinate subspace.
    With pi_out the projection onto the coordinates outside W_p,

        dim H^p = |B_p| - rank d(B_p) - rank d(B_{p-1}) + rank pi_out d(B_{p-1}),

    the dimension of (ker d on W_p) / (image span ∩ ker).  As d^2 = 0 (every
    caller checks it), an image vector inside W_p is a cycle, so image
    span ∩ ker = image span ∩ W_p, of dimension rank d(B_{p-1}) - rank
    pi_out d(B_{p-1}).  The count is exact whenever the window is closed
    under d, and in every window it equals the number of kernel vectors
    independent of the image.

    Results come in increasing degree.  d is applied to each basis once:
    the ranks of d(B_p) serve degree p and, when it is asked for, p + 1.
    """
    wanted = set(degrees)
    bases: dict[int, list[SuperVectorField]] = {}
    ranks: dict[int, tuple[int, int]] = {}

    def basis(p: int) -> list[SuperVectorField]:
        if p not in bases:
            bases[p] = basis_of_degree(p)
        return bases[p]

    def image_ranks(p: int) -> tuple[int, int]:
        """rank d(B_p), and its rank outside W_{p+1} (all of it when p + 1 is not asked for)."""
        if p not in ranks:
            window = basis(p + 1) if p + 1 in wanted else []
            ranks[p] = _image_ranks((differential(v) for v in basis(p)), window)
        return ranks[p]

    out = []
    for p in sorted(wanted):
        rank_below, outside_below = image_ranks(p - 1)
        dimension = len(basis(p)) - image_ranks(p)[0] - rank_below + outside_below
        out.append(CohomologyResult(p, dimension, truncated))
    return out


def dgla_cohomology(
    data: AlgebroidData, ce_degrees: Iterable[int], truncate: int | None = None
) -> list[CohomologyResult]:
    """Deformation cohomology of the field complex at the given cochain degrees.

    Cochain degree q corresponds to field degree q - 1.  Over a point the
    complex is finite and the answer exact; a polynomial base requires a
    truncation bound.  The structure field must be homological ([Q, Q] = 0),
    else the field complex is not a complex; it is built and checked once
    for all the degrees.

    Over a point, Q = 0 gives dim H^q = |B_{q-1}| with no differential
    applied.  Otherwise the ranks are taken on the weight-0 block of the
    toral elements (``AlgebroidData.toral_weights``): for a toral x, iota = d/dxi_x and
    L = [Q, iota] acts on xi^S d/dxi_t by sum_{j in S} w_j - w_t, and by
    Jacobi ad_L = ad_Q ad_iota + ad_iota ad_Q, so every block of nonzero
    weight is acyclic (the Cartan homotopy; Hochschild-Serre, 1953).
    """
    chart = data.plain_chart()
    if data.base_dim > 0 and truncate is None:
        raise PreconditionError("polynomial base needs a truncation degree")
    if data.base_dim == 0 and not data.structure:  # Q = 0: every cochain is a cocycle, none a coboundary
        return [CohomologyResult(q, len(field_basis(chart, q - 1, 0))) for q in sorted(set(ce_degrees))]
    bound = 0 if data.base_dim == 0 else int(truncate)  # type: ignore[arg-type]
    xq = build_xq(data, chart)
    if not is_homological(xq):
        raise PreconditionError("the structure field must be homological")
    weights = data.toral_weights if data.base_dim == 0 else ()

    def diff(v: SuperVectorField) -> SuperVectorField:
        return super_commutator(xq, v)

    results = complex_cohomology(
        diff,
        lambda d: field_basis(chart, d, bound, weights),
        [q - 1 for q in ce_degrees],
        truncated=data.base_dim > 0,
    )
    return [CohomologyResult(r.degree + 1, r.dimension, r.truncated) for r in results]
