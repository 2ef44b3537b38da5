"""Exact linear algebra over Q used by the cohomology computations.

The work is done by ``EchelonBasis``: a reduced echelon basis whose rows are
sparse ``{column: entry}`` dicts.  Entries are canonical coefficients, as in
``superfield``: an ``int`` when integral, else a ``Fraction`` with
denominator > 1, so the integral entries that dominate field-complex
differentials stay in int arithmetic.  Field-complex differentials are very
sparse and reach a few hundred rows and columns (sl(3) at cochain degree 2
is a 448x224 system), so a vector is reduced against the rows it actually
meets instead of re-eliminating a dense matrix.  Two invariants hold:

- every row has its pivot, its lowest column, equal to 1 and is zero in the
  pivot column of every other row.  The rows are then exactly the nonzero
  rows of the dense ``rref`` of any matrix spanning the same row space, so
  the kernel basis read off them (one vector per free column, in increasing
  column order, 1 at that column) is canonical for a fixed column order;
- vectors are taken in the order given, and ``add`` keeps one exactly when
  it is independent of everything kept before it, so a quotient basis is
  chosen greedily in input order.

``rref`` is the dense Gauss-Jordan reference the tests compare against; it
works in ``Fraction`` throughout.  Dense matrices are lists of row lists of
rationals.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .superfield import Coefficient, coefficient

Matrix = list[list[Coefficient]]
Vector = dict[int, Coefficient]  # sparse: column -> nonzero canonical entry


def _sparse(row: Sequence[Coefficient]) -> Vector:
    return {j: x for j, x in enumerate(row) if x}


def _subtract(target: Vector, f: Coefficient, row: Vector) -> None:
    """``target -= f * row`` in place, keeping only nonzero canonical entries."""
    for k, x in row.items():
        y = target.get(k, 0) - f * x
        if y:
            target[k] = coefficient(y)
        else:
            target.pop(k, None)


class EchelonBasis:
    """Reduced echelon basis of a subspace of Q^n that grows one vector at a time."""

    def __init__(self, vectors: Iterable[Vector] = ()) -> None:
        self.rows: dict[int, Vector] = {}  # pivot column -> row
        for v in vectors:
            self.add(v)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vector: Vector) -> Vector:
        """``vector`` minus its part in the span: zero in every pivot column, entries canonical."""
        out = {k: coefficient(x) for k, x in vector.items()}
        for c in [c for c in out if c in self.rows]:
            _subtract(out, out[c], self.rows[c])
        return out

    def add(self, vector: Vector) -> bool:
        """Insert ``vector`` if it is independent of the span; report whether it was."""
        row = self.reduce(vector)
        if not row:
            return False
        p = min(row)
        pivot = row[p]
        if pivot == -1:
            row = {k: -x for k, x in row.items()}
        elif pivot != 1:
            inv = Fraction(1) / pivot
            row = {k: coefficient(x * inv) for k, x in row.items()}
        for other in self.rows.values():
            if p in other:
                _subtract(other, other[p], row)
        self.rows[p] = row
        return True

    def kernel(self, cols: int) -> list[Vector]:
        """Kernel basis of the map on Q^cols whose matrix rows this basis spans."""
        free = {j: {j: 1} for j in range(cols) if j not in self.rows}
        for c, row in self.rows.items():
            for k, x in row.items():
                if k != c:
                    free[k][c] = -x
        return list(free.values())


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
    vector j.  (Column-convention kernel.)
    """
    basis = EchelonBasis(_sparse(row) for row in matrix)
    out = []
    for v in basis.kernel(cols):
        dense = [0] * cols
        for j, x in v.items():
            dense[j] = x
        out.append(dense)
    return out


def quotient_representatives(
    kernel: list[list[Coefficient]], image: list[list[Coefficient]]
) -> list[list[Coefficient]]:
    """Kernel vectors projecting to a basis of ker/im."""
    span = EchelonBasis(_sparse(v) for v in image)
    return [list(v) for v in kernel if span.add(_sparse(v))]
