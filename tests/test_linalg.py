"""The sparse echelon basis against dense Gauss-Jordan ``rref``."""
import math
import random
from fractions import Fraction

import pytest

from linfty.linalg import EchelonBasis, nullspace, quotient_representatives, rank, rref


def _dense_rank(rows):
    return len(rref(rows)[1]) if rows and rows[0] else 0


def _dense_nullspace(matrix, cols):
    """Free-column-normalised kernel read off the dense RREF."""
    if cols == 0:
        return []
    reduced, pivots = rref(matrix)
    basis = []
    for j in range(cols):
        if j in pivots:
            continue
        v = [Fraction(0)] * cols
        v[j] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][j]
        basis.append(v)
    return basis


def _greedy_representatives(kernel, image):
    """Keep each kernel vector that raises the dense rank of what is kept so far."""
    reps, current = [], [list(v) for v in image]
    for v in kernel:
        if _dense_rank(current + [v]) > _dense_rank(current):
            reps.append(list(v))
            current.append(list(v))
    return reps


def _entry(rng):
    if rng.random() < 0.6:
        return Fraction(0)
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _matrix(rng, rows, cols):
    """A random matrix, often with zero or repeated rows, zero columns or low rank."""
    shape = rng.choice(["plain", "low-rank", "zero-rows", "repeated", "zero-cols"])
    if shape == "low-rank" and rows and cols:
        k = rng.randint(0, min(rows, cols))
        left = [[_entry(rng) for _ in range(k)] for _ in range(rows)]
        right = [[_entry(rng) for _ in range(cols)] for _ in range(k)]
        return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
                if k else [Fraction(0)] * cols for row in left]
    m = [[_entry(rng) for _ in range(cols)] for _ in range(rows)]
    if shape == "zero-rows":
        for row in m:
            if rng.random() < 0.5:
                row[:] = [Fraction(0)] * cols
    elif shape == "repeated" and rows:
        m = [list(rng.choice(m)) if rng.random() < 0.5 else row for row in m]
    elif shape == "zero-cols" and cols:
        dead = rng.sample(range(cols), rng.randint(1, cols))
        for row in m:
            for j in dead:
                row[j] = Fraction(0)
    return m


def _canonical_entry(rng):
    """Zero, an int or a non-integral Fraction: the entries the program's vectors carry."""
    if rng.random() < 0.5:
        return 0
    x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return x.numerator if x.denominator == 1 else x


def assert_canonical_vector(v):
    """Nonzero entries, each an int or a Fraction that is not integral."""
    for x in v.values():
        assert x != 0
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1), repr(x)


SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 7), (8, 5)]
SEEDS = range(25)


def assert_echelon_of(basis, m):
    """``basis`` is an echelon basis of the row space of ``m``, checked against the dense ``rref``.

    The pivot set is an invariant of the row space; each stored row is a
    coprime integer vector keyed by its lowest column and lies in the span
    of the ``rref`` rows.
    """
    reduced, pivots = rref(m)
    assert len(basis) == len(pivots)
    assert sorted(basis.rows) == pivots
    for c, row in basis.rows.items():
        assert row and min(row) == c
        assert all(type(x) is int and x for x in row.values()), row
        assert math.gcd(*row.values()) == 1
        rest = dict(row)
        for r, p in enumerate(pivots):
            f = rest.get(p, 0)
            for j, x in enumerate(reduced[r]):
                rest[j] = rest.get(j, 0) - f * x
        assert not any(rest.values()), (row, rest)


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_rank_and_rows_match_dense_rref(rows, cols):
    for seed in SEEDS:
        m = _matrix(random.Random(f"{seed}-{rows}x{cols}"), rows, cols)
        assert rank(m) == _dense_rank(m)
        assert_echelon_of(EchelonBasis({j: x for j, x in enumerate(row) if x} for row in m), m)


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_mixed_int_fraction_entries_match_dense_rref(rows, cols):
    for seed in SEEDS:
        rng = random.Random(f"{seed}-{rows}x{cols}-mixed")
        m = [[_canonical_entry(rng) for _ in range(cols)] for _ in range(rows)]
        m += [list(row) for row in m[:2]]  # repeated rows lower the rank
        assert_echelon_of(EchelonBasis({j: x for j, x in enumerate(row) if x} for row in m), m)
        kernel = nullspace(m, cols)
        assert kernel == _dense_nullspace(m, cols)
        for v in kernel:
            assert_canonical_vector({j: x for j, x in enumerate(v) if x})


def test_float_entry_refused():
    with pytest.raises(TypeError):
        EchelonBasis([{0: 0.5}])


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_nullspace_matches_dense_reference(rows, cols):
    for seed in SEEDS:
        m = _matrix(random.Random(f"{seed}-{rows}x{cols}"), rows, cols)
        kernel = nullspace(m, cols)
        assert kernel == _dense_nullspace(m, cols)
        for v in kernel:
            assert all(sum((a * b for a, b in zip(row, v)), Fraction(0)) == 0 for row in m)


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_quotient_representatives_match_greedy_dense_rank(rows, cols):
    for seed in SEEDS:
        rng = random.Random(f"{seed}-{rows}x{cols}-quotient")
        image = _matrix(rng, rows, cols)
        kernel = _matrix(rng, rng.randint(0, 6), cols) + image[:2] + [[Fraction(0)] * cols]
        rng.shuffle(kernel)
        assert quotient_representatives(kernel, image) == _greedy_representatives(kernel, image)
