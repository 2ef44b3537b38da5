"""Greedy kernel/representative cohomology: the reference the rank formula is checked against.

``greedy_cohomology`` is the route the package took before it computed
dimensions from ranks alone.  It reads a kernel basis of the differential
on the window off the dense ``rref`` (``linalg.nullspace``), not off the
sparse ``EchelonBasis`` whose ranks the package's formula counts, turns
each kernel vector into a field and keeps it when it is independent of the
image of the degree below and of the representatives kept before it.  The
number kept is the dimension.

``full_dgla_dimensions`` is the route the package took over a point before
it restricted the ranks to a weight-0 block: the rank formula on every
monomial of each degree.
"""
from __future__ import annotations

from linfty import linalg
from linfty.algebroid import AlgebroidData, build_xq, complex_cohomology, field_basis
from linfty.subalgebroid import SplitSetup
from linfty.superfield import SuperVectorField, super_commutator


def greedy_cohomology(differential, basis_of_degree, degree: int) -> list[SuperVectorField]:
    """Representatives of ker/im at one degree of an enumerated field complex."""
    src = basis_of_degree(degree)
    below = basis_of_degree(degree - 1)
    keys: dict = {}

    def vec(w: SuperVectorField) -> linalg.Vector:
        return {keys.setdefault(key, len(keys)): c for key, c in w.terms.items()}

    matrix: dict[int, linalg.Vector] = {}  # image coordinate -> {source index: entry}
    for j, v in enumerate(src):
        for i, c in vec(differential(v)).items():
            matrix.setdefault(i, {})[j] = c
    dense = [[row.get(j, 0) for j in range(len(src))] for row in matrix.values()]
    span = linalg.EchelonBasis(vec(differential(v)) for v in below)
    reps = []
    for coeffs in linalg.nullspace(dense, len(src)):
        f = SuperVectorField.zero(src[0].chart)
        for j, c in enumerate(coeffs):
            if c:
                f = f + src[j].scale(c)
        if span.add(vec(f)):
            reps.append(f)
    return reps


def dgla_representatives(data: AlgebroidData, ce_degree: int, truncate: int = 0) -> list[SuperVectorField]:
    """Greedy representatives of the deformation complex at one cochain degree (truncated at ``truncate``)."""
    chart = data.plain_chart()
    xq = build_xq(data, chart)
    return greedy_cohomology(
        lambda v: super_commutator(xq, v), lambda d: field_basis(chart, d, truncate), ce_degree - 1
    )


def m1_representatives(
    setup: SplitSetup, xq: SuperVectorField, degree: int, truncate: int = 0
) -> list[SuperVectorField]:
    """Greedy representatives of the unary-map complex at one field degree (truncated at ``truncate``)."""
    return greedy_cohomology(
        lambda v: setup.project(super_commutator(xq, v)),
        lambda d: setup.abelian_basis(d, truncate),
        degree,
    )


def full_dgla_dimensions(data: AlgebroidData, ce_degrees) -> list[int]:
    """Cohomology dimensions over a point from the full complex: every monomial, Q = 0 included."""
    chart = data.plain_chart()
    xq = build_xq(data, chart)
    return complex_cohomology(
        lambda v: super_commutator(xq, v), lambda d: field_basis(chart, d, 0), [q - 1 for q in ce_degrees]
    )
