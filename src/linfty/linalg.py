"""Exact linear algebra over Q used by the cohomology computations.

Cohomology dimensions need ranks only, and ``EchelonBasis`` counts them.
Its rows are sparse ``{column: int}`` dicts: every vector it is given is
scaled to a row of coprime integers, so no ``Fraction`` is stored, and
floats are refused.  A row's pivot is its lowest column.  While another
row already holds that pivot, the new row becomes the integer combination
that cancels it (fraction-free elimination, after Bareiss, with each row
divided by its content gcd instead of by the previous pivot); a row whose
lowest column is free is stored under it and never touched again.
Field-complex differentials are very sparse and reach a few hundred rows
and columns (sl(3) at cochain degree 2 is a 448x224 system), so a vector
meets only the rows whose pivots it reaches.  Two invariants hold:

- the pivots are those of every echelon form of the span, the pivot list
  of the dense ``rref``, and the rows nonzero in some column below c are
  exactly the rows pivoting below c;
- vectors are taken in the order given, and ``add`` keeps one exactly when
  it is independent of everything kept before it, so a quotient basis is
  chosen greedily in input order.

``rref`` is the dense Gauss-Jordan reference: it works in ``Fraction``
throughout, ``nullspace`` reads its canonical kernel basis off it, and the
tests compare the echelon basis against it.  Dense matrices are lists of
row lists of rationals.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from .superfield import Coefficient, coefficient

Matrix = list[list[Coefficient]]
Vector = dict[int, Coefficient]  # sparse: column -> nonzero canonical entry


def _sparse(row: Sequence[Coefficient]) -> Vector:
    return {j: x for j, x in enumerate(row) if x}


def _coprime(row: dict[int, int]) -> dict[int, int]:
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {k: x // g for k, x in row.items()} if g > 1 else row


_DENOMINATOR = attrgetter("denominator")


class EchelonBasis:
    """Echelon basis of a subspace of Q^n that grows one vector at a time; its size is the rank."""

    def __init__(self, vectors: Iterable[Vector] = ()) -> None:
        self.rows: dict[int, dict[int, int]] = {}  # pivot (lowest) column -> coprime integer row
        for v in vectors:
            self.add(v)

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, vector: Vector) -> bool:
        """Insert ``vector`` if it is independent of the span; report whether it was."""
        row = {k: coefficient(x) for k, x in vector.items()}
        den = lcm(*map(_DENOMINATOR, row.values()))
        if den > 1:
            row = {k: x.numerator * (den // x.denominator) for k, x in row.items()}
        row = _coprime(row)
        while row:
            p = min(row)
            other = self.rows.get(p)
            if other is None:
                self.rows[p] = row
                return True
            g = gcd(other[p], row[p])
            a, b = other[p] // g, row[p] // g
            row = {k: a * x for k, x in row.items()}
            for k, y in other.items():
                z = row.get(k, 0) - b * y
                if z:
                    row[k] = z
                else:
                    del row[k]
            row = _coprime(row)
        return False


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(matrix: Matrix) -> int:
    return len(EchelonBasis(_sparse(row) for row in matrix))


def nullspace(matrix: Matrix, cols: int) -> list[list[Coefficient]]:
    """Basis of the kernel of the linear map given by rows acting on R^cols.

    The matrix maps column vectors of length ``cols``; rows are the images'
    coordinates, i.e. entry [i][j] is the i-th output coordinate of basis
    vector j.  (Column-convention kernel.)  There is one basis vector per
    free column of ``rref``, in increasing column order, 1 at that column
    and 0 at the other free ones; entries are canonical coefficients.
    """
    reduced, pivots = rref(matrix)
    out = []
    for j in sorted(set(range(cols)) - set(pivots)):
        v: list[Coefficient] = [0] * cols
        v[j] = 1
        for r, c in enumerate(pivots):
            v[c] = coefficient(-reduced[r][j])
        out.append(v)
    return out


def quotient_representatives(
    kernel: list[list[Coefficient]], image: list[list[Coefficient]]
) -> list[list[Coefficient]]:
    """Kernel vectors projecting to a basis of ker/im."""
    span = EchelonBasis(_sparse(v) for v in image)
    return [list(v) for v in kernel if span.add(_sparse(v))]
