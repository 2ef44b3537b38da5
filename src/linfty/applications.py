"""Foliations and homomorphism graphs as split setups.

Both reduce to the split-setup machinery: a foliation is a subalgebroid of
a tangent algebroid over a fixed base, and a bundle-map homomorphism is a
graph subalgebroid of a direct sum presented in adapted coordinates around
the zero map.  A foliation is its split alone: the frame fields are the
anchor of the split's data, so no other record holds them.  (A Lie
(sub)algebra needs nothing here: it is an algebroid over a point.)
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Sequence

from .algebroid import (
    AlgebroidData,
    PolyDict,
    _poly_fn,
    add_into,
    build_xq,
    poly_map,
)
from .subalgebroid import (
    DeformationPair,
    FrameForm,
    SplitSetup,
    explicit_structure_maps,
    simultaneous_residual,
)
from .superfield import Frozen, PreconditionError, Record, SuperFunction, SuperVectorField, is_homological
from .valgebra import MCDelta


# ---------------------------------------------------------------------
# direct sums and block embeddings
# ---------------------------------------------------------------------
def block_sum_data(a: AlgebroidData, b: AlgebroidData) -> AlgebroidData:
    """Block-diagonal structure and anchor tensors on the product base (both blocks normal, so the sum is)."""
    m_a, n_a = a.base_dim, a.fiber_rank
    structure: dict[tuple[int, int, int], PolyDict] = {}
    anchor: dict[tuple[int, int], PolyDict] = {}
    for (i, j, k), poly in a.structure.items():
        structure[(i, j, k)] = {e + (0,) * b.base_dim: c for e, c in poly.items()}
    for (i, t), poly in a.anchor.items():
        anchor[(i, t)] = {e + (0,) * b.base_dim: c for e, c in poly.items()}
    for (i, j, k), poly in b.structure.items():
        structure[(i + n_a, j + n_a, k + n_a)] = {(0,) * m_a + e: c for e, c in poly.items()}
    for (i, t), poly in b.anchor.items():
        anchor[(i + n_a, t + m_a)] = {(0,) * m_a + e: c for e, c in poly.items()}
    return AlgebroidData(m_a + b.base_dim, n_a + b.fiber_rank, structure, anchor)


# ---------------------------------------------------------------------
# foliations: tangent-algebroid subbundles in a polynomial frame
# ---------------------------------------------------------------------
VectorFieldCoeffs = Mapping[int, PolyDict]


def foliation_setup(base_dim: int, sub_rank: int, frames: Sequence[VectorFieldCoeffs]) -> SplitSetup:
    """The fixed-base split of the tangent algebroid in a polynomial frame, distribution first.

    The first ``sub_rank`` frame fields span the distribution; the frame
    matrix must have constant nonzero determinant so that expansions in the
    frame stay polynomial.  The split's ``data`` holds the structure
    functions in this frame, and its anchor the frame fields themselves.
    """
    if len(frames) != base_dim:
        raise ValueError("need one frame field per tangent direction")
    coords = range(base_dim)
    fields = [poly_map(f, base_dim, (coords,), f"frame {fi} coordinate") for fi, f in enumerate(frames)]
    norm = tuple(tuple([f.get(t, {}) for t in coords]) for f in fields)
    return SplitSetup.build(_tangent_in_frame(base_dim, norm), base_dim, 0, sub_rank)


def _poly_matrix_inverse(chart, mat):
    """Inverse of a polynomial matrix with constant nonzero determinant, by Faddeev-LeVerrier.

    With M_1 = I, c_k = -tr(A M_k)/k and M_(k+1) = A M_k + c_k I, the c_k are
    the coefficients of det(tI - A), so det A = (-1)^n c_n and the adjugate
    is (-1)^(n+1) M_n; the inverse is -M_n / c_n.  That takes n matrix
    products and no division but by 1..n.
    """
    n = len(mat)
    zero = SuperFunction.zero(chart)
    m, am, c = [], [[zero] * n for _ in range(n)], SuperFunction.constant(chart, 1)  # A M_0 = 0, c_0 = 1
    for k in range(1, n + 1):
        m = [[am[r][col] + c if r == col else am[r][col] for col in range(n)] for r in range(n)]
        am = [[sum((mat[r][i] * m[i][col] for i in range(n)), zero) for col in range(n)] for r in range(n)]
        c = sum((am[r][r] for r in range(n)), zero).scale(Fraction(-1, k))
    terms = c.terms
    if len(terms) != 1 or list(terms.keys())[0][0] != (0,) * chart.n_even:
        raise ValueError("frame determinant is not a nonzero constant")
    factor = Fraction(-1) / list(terms.values())[0]
    return [[m[r][col].scale(factor) for col in range(n)] for r in range(n)]


def _tangent_in_frame(base_dim: int, frames) -> AlgebroidData:
    """Tangent-algebroid structure functions in an arbitrary polynomial frame.

    A frame field is a section of the coordinate tangent algebroid, so the
    frame brackets are its section brackets, expanded back in the frame.
    """
    calc = tangent_rn(base_dim).calculus
    chart = calc.chart
    mat = [
        [_poly_fn(chart, frames[col][t]) for col in range(base_dim)]
        for t in range(base_dim)
    ]
    inv = _poly_matrix_inverse(chart, mat)
    zero = SuperFunction.zero(chart)

    def as_section(col: int) -> dict[int, SuperFunction]:
        return {t: mat[t][col] for t in range(base_dim) if not mat[t][col].is_zero()}

    structure: dict[tuple[int, int, int], PolyDict] = {}
    anchor: dict[tuple[int, int], PolyDict] = {}
    for i in range(base_dim):
        for t in range(base_dim):
            f = frames[i][t]
            if f:
                anchor[(i, t)] = dict(f)
    for i, j in itertools.combinations(range(base_dim), 2):
        br = calc.bracket(as_section(i), as_section(j))
        for k in range(base_dim):
            coeff = zero
            for t, f in br.items():
                coeff = coeff + inv[k][t] * f
            if not coeff.is_zero():
                structure[(i, j, k)] = {e: c for (e, _), c in coeff.terms.items()}
    return AlgebroidData.build(base_dim, base_dim, structure, anchor)


class FoliationResult(Record):
    __slots__ = _fields = ("closed", "residual", "condition_defects")

    def __init__(self, closed: bool, residual: FrameForm, condition_defects: dict[tuple[int, int, int], SuperFunction]):
        self.closed, self.residual, self.condition_defects = closed, residual, condition_defects

    @property
    def agree(self) -> bool:
        return self.closed == (not self.condition_defects)


def foliation_infinitesimal(setup: SplitSetup, delta: MCDelta, cand: DeformationPair) -> FoliationResult:
    """Whether a candidate bundle map ``cand.phi`` is closed for the unary structure map.

    Evaluates the unary map on the candidate and, independently, the
    classical condition pi_F([psi v, w] + [v, psi w]) = psi([v, w]) on
    frame pairs of the distribution; both verdicts are reported.  The
    checked structure field ``delta`` of the foliation's ``setup`` is the
    proof that the distribution is integrable (P(delta) = 0), which the
    unary map needs.
    """
    chart, calc = setup.chart, setup.calculus
    form = FrameForm.build(setup, 1, {((i,), j): _poly_fn(chart, poly) for (i, j), poly in cand.phi.items()})
    residual = explicit_structure_maps(setup, 1, [form])

    # classical route on distribution frame pairs
    one = SuperFunction.constant(chart, 1)
    zero = SuperFunction.zero(chart)
    defects: dict[tuple[int, int, int], SuperFunction] = {}

    def comp(section: dict[int, SuperFunction]) -> dict[int, SuperFunction]:
        return {j: f for j, f in section.items() if j in setup.comp_indices}

    for v, w in itertools.combinations(setup.sub_indices, 2):
        xv, xw = {v: one}, {w: one}
        lhs = comp(calc.bracket(form.at((v,)), xw))
        for j, val in comp(calc.bracket(xv, form.at((w,)))).items():
            add_into(lhs, j, val)
        rhs = form.contract(calc.bracket(xv, xw), ())  # psi of the sub-frame part
        for j in setup.comp_indices:
            diff = lhs.get(j, zero) - rhs.get(j, zero)
            if not diff.is_zero():
                defects[(v, w, j)] = diff
    return FoliationResult(residual.is_zero(), residual, defects)


# ---------------------------------------------------------------------
# homomorphisms of algebroids via the graph construction
# ---------------------------------------------------------------------
class HomomorphismData(Frozen):
    """Bundle map over a polynomial base map between two algebroids.

    ``bundle_map`` sends (source frame index, target frame index) to the
    polynomial entry in source base coordinates; ``base_map`` sends a
    target coordinate index to its polynomial expression.
    """

    __slots__ = _fields = ("source", "target", "bundle_map", "base_map")

    def __init__(self, source: AlgebroidData, target: AlgebroidData, bundle_map: Mapping[tuple[int, int], PolyDict],
                 base_map: Mapping[int, PolyDict]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "bundle_map", bundle_map)
        object.__setattr__(self, "base_map", base_map)

    @staticmethod
    def build(source, target, bundle_map=None, base_map=None) -> "HomomorphismData":
        m, coords = source.base_dim, (range(target.base_dim),)
        bundle_map = poly_map(bundle_map or {}, m, (range(source.fiber_rank), range(target.fiber_rank)), "bundle map")
        return HomomorphismData(source, target, bundle_map, poly_map(base_map or {}, m, coords, "base map"))


def graph_setup(
    h: HomomorphismData, offsets: HomomorphismData | None = None
) -> tuple[SplitSetup, DeformationPair, DeformationPair]:
    """Adapted split around the zero map: (setup, base pair, candidate pair).

    Source coordinates and frame form the base/sub blocks, target ones the
    normal/complement blocks; the homomorphism itself enters as the base
    deformation pair (its graph is the base subbundle), and the maps of
    ``offsets`` (between the same blocks) as the candidate.  Both records
    are normal already, so no map is normalised again.
    """
    offset = h.source.fiber_rank
    setup = SplitSetup.build(block_sum_data(h.source, h.target), h.source.base_dim, h.target.base_dim, offset)

    def pair(maps: HomomorphismData) -> DeformationPair:
        return DeformationPair(maps.base_map, {(i, offset + j): poly for (i, j), poly in maps.bundle_map.items()})

    return setup, pair(h), pair(offsets) if offsets is not None else DeformationPair.zero()


def structure_delta(setup: SplitSetup, h: HomomorphismData | None = None) -> MCDelta:
    """The checked structure field of a split, ``setup.delta``: squared once per split record.

    On the graph of a homomorphism ``h`` the square of the block sum is the
    sum of the blocks' squares, so the blocks are squared only when it
    fails, to name the one at fault.
    """
    try:
        return setup.delta
    except PreconditionError:
        for name, block in (("source", h.source), ("target", h.target)) if h is not None else ():
            if not is_homological(build_xq(block)):
                raise PreconditionError(f"invalid {name} algebroid") from None
        raise


def block_perturbation(
    h: HomomorphismData, source: AlgebroidData | None, target: AlgebroidData | None
) -> AlgebroidData:
    """Source and target structure perturbations as one perturbation of the sum; a missing block is zero."""
    blocks = []
    for name, block, pert in (("source", h.source, source), ("target", h.target, target)):
        dims = (block.base_dim, block.fiber_rank)
        if pert is None:
            pert = AlgebroidData(*dims, {}, {})
        elif (pert.base_dim, pert.fiber_rank) != dims:
            raise ValueError(f"{name} perturbation has wrong dimensions")
        blocks.append(pert)
    return block_sum_data(*blocks)


def simultaneous_homomorphism(
    h: HomomorphismData,
    cand_source: AlgebroidData | None,
    cand_target: AlgebroidData | None,
    bundle_map=None,
    base_map=None,
) -> tuple[SuperVectorField, SuperVectorField]:
    """Joint residual: deform both block structures and the map between them.

    Zero iff both deformed structures are algebroids and the deformed map is
    a homomorphism between them.
    """
    setup, base, cand = graph_setup(h, HomomorphismData.build(h.source, h.target, bundle_map, base_map))
    delta = structure_delta(setup, h)
    perturbation = build_xq(block_perturbation(h, cand_source, cand_target), setup.chart)
    return simultaneous_residual(setup, delta, base, perturbation, cand)


def tangent_rn(n: int) -> AlgebroidData:
    """The tangent algebroid of R^n in the coordinate frame."""
    return AlgebroidData.build(n, n, anchor={(i, i): 1 for i in range(n)})
