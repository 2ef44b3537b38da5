"""Cohomology over a point from the weight-0 block of the toral elements, against the full complex.

For a toral frame element x (ad x diagonal in the frame), L_x = [Q, d/dxi_x]
acts on each monomial field by a scalar, and every block of nonzero weight
is acyclic, so ``dgla_cohomology`` takes its ranks on the weight-0 block
alone; with Q = 0 it applies no differential at all.  The full complex
(``cohomology_oracle.full_dgla_dimensions``) is the oracle, and the weights
the block keeps are checked against the action of L_x itself.
"""
import math
import random

import pytest

from cohomology_oracle import full_dgla_dimensions
from instance_gen import heisenberg, random_solvable, sl_n
from linfty import algebroid
from linfty.algebroid import AlgebroidData, build_xq, dgla_cohomology, field_basis
from linfty.instances import fixture_path, parse_instance
from linfty.superfield import SuperVectorField, super_commutator

SOLVABLE_SEEDS = range(6)
CASES = {
    "sl2": lambda: sl_n(2), "sl3": lambda: sl_n(3), "sl4": lambda: sl_n(4),
    "h3": lambda: heisenberg(1), "h5": lambda: heisenberg(2), "h7": lambda: heisenberg(3),
    "abelian-2": lambda: AlgebroidData.build(0, 2), "abelian-3": lambda: AlgebroidData.build(0, 3),
    "abelian-4": lambda: AlgebroidData.build(0, 4),
    # [a, b] = b, [a, c] = b + c: a has diagonal brackets but a Jordan block, so it is not toral
    "jordan-3": lambda: AlgebroidData.build(0, 3, structure={(0, 1, 1): 1, (0, 2, 1): 1, (0, 2, 2): 1}),
    **{f"solvable-{seed}": lambda seed=seed: random_solvable(random.Random(seed)) for seed in SOLVABLE_SEEDS},
}
TOP = {"sl4": 3}  # the full complex of sl(4) at q = 4 takes seconds


def _dims(data, degrees) -> list[int]:
    return [r.dimension for r in dgla_cohomology(data, degrees)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_block_matches_full_complex(name):
    data = CASES[name]()
    degrees = range(min(TOP.get(name, data.fiber_rank), data.fiber_rank) + 1)
    full = full_dgla_dimensions(data, degrees)
    assert [_dims(data, [q])[0] for q in degrees] == full
    assert _dims(data, degrees) == full


def test_solvable_cases_engage_the_block():
    algebras = [random_solvable(random.Random(seed)) for seed in SOLVABLE_SEEDS]
    assert all(data.toral_weights for data in algebras)
    # the reduced complexes are not all acyclic, so the comparison above sees nonzero dimensions
    assert any(any(full_dgla_dimensions(data, range(data.fiber_rank + 1))) for data in algebras)


def _lie_derivative_weights(data: AlgebroidData, field_degree: int) -> list[list]:
    """For each toral x, the scalars by which L_x = [Q, d/dxi_x] acts on the monomials of one degree.

    x is taken as toral when L_x maps every d/dxi_t into its span; L_x must
    then act diagonally on the monomials of every degree.
    """
    chart = data.plain_chart()
    xq = build_xq(data, chart)
    out = []
    for x in range(data.fiber_rank):
        lx = super_commutator(xq, SuperVectorField(chart, {((), (), x): 1}))
        if any(set(super_commutator(lx, v).terms) - set(v.terms) for v in field_basis(chart, -1, 0)):
            continue  # ad x is not diagonal in the frame
        scalars = []
        for v in field_basis(chart, field_degree, 0):
            (key,) = v.terms
            image = super_commutator(lx, v)
            assert set(image.terms) <= {key}, (x, key)
            scalars.append(image.terms.get(key, 0))
        out.append(scalars)
    return out


@pytest.mark.parametrize("name", ["sl2", "sl3", "h3", "jordan-3"] + [f"solvable-{seed}" for seed in SOLVABLE_SEEDS])
def test_block_is_the_joint_kernel_of_the_lie_derivatives(name):
    data = CASES[name]()
    chart = data.plain_chart()
    weights = data.toral_weights
    for degree in range(-1, data.fiber_rank):
        basis = field_basis(chart, degree, 0)
        scalars = _lie_derivative_weights(data, degree)
        expected = [v for i, v in enumerate(basis) if all(s[i] == 0 for s in scalars)]
        assert field_basis(chart, degree, 0, weights) == expected, degree


def test_sl2_block():
    # the preset's frame (h, e, f): only h is toral, with weights 2 on e and -2 on f
    sl2 = parse_instance(fixture_path("sl2")).payload["data"]
    weights = sl2.toral_weights
    assert [sorted(w.items()) for w in weights] == [[(1, 2), (2, -2)]]
    chart = sl2.plain_chart()
    keys = lambda d: [key for v in field_basis(chart, d, 0, weights) for key in v.terms]
    assert keys(-1) == [((), (), 0)]  # d/dxi_h
    assert keys(0) == [((), (j,), j) for j in range(3)]  # xi_j d/dxi_j


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heisenberg_skips_the_filter(n):
    # the only toral element is the centre, with every weight 0: no block is split off
    assert heisenberg(n).toral_weights == ()


def test_sl4_is_rigid():
    # Whitehead: H^q(g; g) = 0 for simple g (sl2 and sl3 in every degree: tests/test_algebroid.py);
    # it stops at q = 4, as q = 5 alone takes seconds
    assert _dims(sl_n(4), range(5)) == [0] * 5


@pytest.mark.parametrize("n", [2, 3, 4])
def test_zero_structure_maps_nothing(monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError("Q = 0 needs no differential and no elimination")

    for name in ("build_xq", "super_commutator", "complex_cohomology", "_image_ranks"):
        monkeypatch.setattr(algebroid, name, refuse)
    data = AlgebroidData.build(0, n)
    expected = [n * math.comb(n, q) for q in range(n + 1)]
    assert _dims(data, range(n + 1)) == expected
    assert [_dims(data, [q])[0] for q in range(n + 1)] == expected
    assert _dims(data, [n, 0, n]) == [expected[0], expected[n]]  # increasing degree, each once
