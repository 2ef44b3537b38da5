"""Seeded generator of random polynomial subalgebroid instances, and generated Lie algebras.

Instances are produced by twisting a catalog of known Lie algebroid
structures (with the leading frame block a subbundle closed over the zero
section) by polynomial unipotent frame changes that preserve the split.
Every emitted instance is revalidated, so the generator cannot silently
produce a non-algebroid.  The Lie algebras over a point (sl(n), Heisenberg,
random solvable ones with a diagonal action) feed the cohomology tests.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from linfty.algebroid import AlgebroidData, SectionCalculus, build_xq, validate_algebroid
from linfty.applications import _poly_matrix_inverse
from linfty.subalgebroid import DeformationPair, SplitSetup
from linfty.superfield import SuperFunction


def _rand_poly(rng, n_vars, max_degree=2, max_terms=2, bound=2):
    poly = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * n_vars
        for _ in range(rng.randint(0, max_degree)):
            if n_vars:
                exps[rng.randrange(n_vars)] += 1
        c = rng.randint(-bound, bound)
        if c:
            poly[tuple(exps)] = poly.get(tuple(exps), 0) + c
    return {e: Fraction(c) for e, c in poly.items() if c}


def _catalog(rng):
    """(data, p, q, l) with the leading l-block a subalgebroid over y = 0."""
    entries = []
    # constant-coefficient Lie algebra bundles over small bases
    sl2 = {(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1}
    heis_center_first = {(1, 2, 0): 1}
    solvable2 = {(0, 1, 0): 1}
    for consts, l in ((sl2, 2), (heis_center_first, 1), (solvable2, 1), ({}, 1), ({}, 2)):
        rank = 3 if consts in (sl2, heis_center_first) else 2
        for (p, q) in ((1, 0), (0, 1), (1, 1), (2, 0)):
            entries.append((AlgebroidData.build(p + q, rank, consts), p, q, l))
    # tangent algebroids: frame = coordinate fields, distribution = base block
    for (p, q) in ((1, 0), (1, 1), (2, 0)):
        dim = p + q
        data = AlgebroidData.build(dim, dim, anchor={(i, i): 1 for i in range(dim)})
        entries.append((data, p, q, p))
    return entries[rng.randrange(len(entries))]


def _frame_twist(data: AlgebroidData, p: int, q: int, l: int, rng) -> AlgebroidData:
    """Conjugate the structure by a split-preserving unipotent polynomial frame."""
    rank = data.fiber_rank
    chart = data.split_chart(p, q, l)
    constant_only = bool(data.anchor)  # keep anchor-derivative terms out of play
    one = SuperFunction.constant(chart, 1)
    zero = SuperFunction.zero(chart)

    def entry():
        if constant_only:
            c = rng.randint(-1, 1)
            return SuperFunction.constant(chart, c) if c else zero
        poly = _rand_poly(rng, chart.n_even, max_degree=1, max_terms=1, bound=1)
        return SuperFunction(chart, {(e, ()): c for e, c in poly.items()})

    M = [[one if i == j else zero for j in range(rank)] for i in range(rank)]
    for j in range(rank):
        for i in range(rank):
            if i >= l and j < l:
                continue  # keep the sub block invariant
            if i == j:
                continue
            if (i < l) == (j < l) and i > j:
                continue  # unipotent within each diagonal block
            if rng.random() < 0.5:
                M[i][j] = entry()
    Minv = _poly_matrix_inverse(chart, M)
    calc = SectionCalculus.of(data, chart)

    def column(i):
        return {a: M[a][i] for a in range(rank) if not M[a][i].is_zero()}

    structure = {}
    anchor = {}
    for i in range(rank):
        for t in range(chart.n_even):
            val = SuperFunction.zero(chart)
            for a, m in column(i).items():
                b = calc.anchor.get(a, {}).get(t)
                if b is not None:
                    val = val + m * b
            if not val.is_zero():
                anchor[(i, t)] = {e: c for (e, _), c in val.terms.items()}
    for i, j in itertools.combinations(range(rank), 2):
        bracket = calc.bracket(column(i), column(j))  # in the old frame
        for k in range(rank):
            val = SuperFunction.zero(chart)
            for b, f in bracket.items():
                if not Minv[k][b].is_zero():
                    val = val + Minv[k][b] * f
            if not val.is_zero():
                structure[(i, j, k)] = {e: c for (e, _), c in val.terms.items()}
    return AlgebroidData.build(data.base_dim, rank, structure, anchor)


def max_poly_degree(data: AlgebroidData) -> int:
    """The largest total degree of a structure or anchor coefficient (0 for none)."""
    return max((sum(e) for poly in [*data.structure.values(), *data.anchor.values()] for e in poly), default=0)


def random_instance(rng: random.Random):
    """One validated split instance (structure degree <= 3): (setup, field)."""
    while True:
        data, p, q, l = _catalog(rng)
        if rng.random() < 0.7:
            data = _frame_twist(data, p, q, l, rng)
        if max_poly_degree(data) > 3:
            continue
        setup = SplitSetup.build(data, p, q, l)
        xq = build_xq(data, setup.chart)
        assert validate_algebroid(setup.calculus).ok, "generator produced a non-algebroid"
        if setup.project(xq).is_zero():
            return setup, xq


def random_fixed_base_instance(rng: random.Random) -> tuple[AlgebroidData, int]:
    """One validated split with no normal coordinates, a complement, and a
    frame twist that changes the structure: (data, sub rank)."""
    while True:
        data, p, q, l = _catalog(rng)
        if q or l == data.fiber_rank:
            continue
        twisted = _frame_twist(data, p, q, l, rng)
        if twisted == data or max_poly_degree(twisted) > 3:
            continue
        setup = SplitSetup.build(twisted, p, 0, l)
        assert validate_algebroid(setup.calculus).ok, "generator produced a non-algebroid"
        if setup.project(build_xq(twisted, setup.chart)).is_zero():
            return twisted, l


def random_candidate(setup: SplitSetup, rng: random.Random, max_degree=3) -> DeformationPair:
    sigma = {}
    for k in range(setup.normal_rank):
        poly = _rand_poly(rng, setup.base_dim, max_degree=max_degree, max_terms=2)
        if poly:
            sigma[k] = poly
    phi = {}
    for i in setup.sub_indices:
        for j in setup.comp_indices:
            poly = _rand_poly(rng, setup.base_dim, max_degree=max_degree, max_terms=2)
            if poly:
                phi[(i, j)] = poly
    return DeformationPair.build(setup, sigma=sigma, phi=phi)


# ---------------------------------------------------------------------
# Lie algebras over a point
# ---------------------------------------------------------------------
def sl_n(n: int) -> AlgebroidData:
    """sl(n) on the matrix units E_ij (i != j), then H_h = E_hh - E_h+1,h+1: the H_h are toral."""
    units = [(i, j) for i in range(n) for j in range(n) if i != j]
    basis = [{u: 1} for u in units] + [{(h, h): 1, (h + 1, h + 1): -1} for h in range(n - 1)]

    def product(a, b):
        out = {}
        for (i, j), x in a.items():
            for (k, l), y in b.items():
                if j == k:
                    out[i, l] = out.get((i, l), 0) + x * y
        return out

    structure = {}
    for p, q in itertools.combinations(range(len(basis)), 2):
        ab, ba = product(basis[p], basis[q]), product(basis[q], basis[p])
        c = {key: ab.get(key, 0) - ba.get(key, 0) for key in ab.keys() | ba.keys()}
        diagonal = [sum(c.get((t, t), 0) for t in range(h + 1)) for h in range(n - 1)]
        coords = [c.get(u, 0) for u in units] + diagonal
        structure.update({(p, q, k): x for k, x in enumerate(coords) if x})
    return AlgebroidData.build(0, len(basis), structure=structure)


def heisenberg(n: int) -> AlgebroidData:
    """The Heisenberg algebra on (z, p_1..p_n, q_1..q_n), [p_i, q_i] = z."""
    return AlgebroidData.build(0, 2 * n + 1, structure={(1 + i, 1 + n + i, 0): 1 for i in range(n)})


def random_solvable(rng: random.Random) -> AlgebroidData:
    """A validated solvable Lie algebra: 1-2 commuting elements acting diagonally on 2-4 others.

    The toral elements x_a come first and act by [x_a, y_j] = w_aj y_j, with
    weights among 0, +-1/2, +-1, +-2, so weights often coincide.  With three
    or more y, half the draws add [y_1, y_2] = y_3 with w_a3 = w_a1 + w_a2,
    which keeps the Jacobi identity.
    """
    r, m = rng.randint(1, 2), rng.randint(2, 4)
    choices = [Fraction(c, 2) for c in (-4, -2, -1, 0, 0, 1, 2, 4)]
    weights = [[rng.choice(choices) for _ in range(m)] for _ in range(r)]
    structure = {}
    if m >= 3 and rng.random() < 0.5:
        for w in weights:
            w[2] = w[0] + w[1]
        structure[(r, r + 1, r + 2)] = 1
    for a, w in enumerate(weights):
        for j, c in enumerate(w):
            if c:
                structure[(a, r + j, r + j)] = c
    data = AlgebroidData.build(0, r + m, structure=structure)
    assert validate_algebroid(data.calculus).ok, "generator produced a non-Lie algebra"
    return data
