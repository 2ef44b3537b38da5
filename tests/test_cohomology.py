"""The rank formula for cohomology dimensions against the greedy kernel/representative oracle.

``complex_cohomology`` counts dim H^p as |B_p| - rank d(B_p) - rank d(B_{p-1})
+ rank pi_out d(B_{p-1}).  ``cohomology_oracle`` builds the kernel basis and
keeps the kernel vectors independent of the image, as the package did
before.  The two must agree on every window, truncated ones included, and
on windows the differential of the degree below leaves.
"""
import argparse
import random

import pytest

from cohomology_oracle import dgla_representatives, m1_representatives
from instance_gen import max_poly_degree, random_fixed_base_instance, random_instance
from linfty import cli
from linfty.algebroid import AlgebroidData, _image_ranks, build_xq, dgla_cohomology, field_basis
from linfty.instances import parse_instance, resolve_instance
from linfty.subalgebroid import SplitSetup, m1_cohomology
from linfty.superfield import super_commutator
from linfty.valgebra import MCDelta

PRESETS = (
    "sl2", "heisenberg-3", "abelian-2", "abelian-3", "abelian-4", "sl2-sum", "sl2-borel",
    "tangent-r1-origin", "tangent-r1", "tangent-r2", "foliation-r3",
)
# differentials that raise the polynomial degree, so d(B_{p-1}) leaves the window B_p;
# on the bundled presets it never does, and the out-of-window rank is 0
RAISING = {
    "x^2 anchor": AlgebroidData.build(1, 1, anchor={(0, 0): {(2,): 1}}),
    "x^2 anchor, x bracket": AlgebroidData.build(
        1, 2, structure={(0, 1, 1): {(1,): 1}}, anchor={(0, 0): {(2,): 1}}
    ),
}


def _truncations(name: str, inst) -> list:
    if (inst.payload.get("setup") or inst.payload["data"]).base_dim == 0:
        return [None]  # over a point: the complex is finite, and --truncate is refused
    return [1, 2, 3] if name == "tangent-r2" else [1, 2, 3, 4]


def _oracle_dims(inst, truncate) -> list[int]:
    """Greedy dimensions in every degree of the complex the cohomology command reads."""
    if inst.kind in ("algebroid", "lie_algebra"):
        data = inst.payload["data"]
        t = truncate if data.base_dim else 0
        return [len(dgla_representatives(data, q, t)) for q in range(data.fiber_rank + 1)]
    setup = inst.payload["setup"]
    xq = build_xq(setup.data, setup.chart)
    t = truncate if setup.base_dim else 0
    top = setup.sub_rank + (1 if setup.normal_rank else 0)
    return [len(m1_representatives(setup, xq, q - 1, t)) for q in range(top + 1)]


def _command_dims(inst, truncate, degree=None) -> list[int]:
    args = argparse.Namespace(truncate=truncate, probes=None, seed=None, phi=None, degree=degree)
    return list(cli.run_command("cohomology", inst, args).details["dimensions"].values())


@pytest.mark.parametrize("name", PRESETS)
def test_formula_matches_greedy_oracle_on_presets(name):
    inst = parse_instance(resolve_instance(name))
    for truncate in _truncations(name, inst):
        expected = _oracle_dims(inst, truncate)
        assert _command_dims(inst, truncate) == expected, (name, truncate)
        for q, dim in enumerate(expected):  # the single-degree path of --degree
            assert _command_dims(inst, truncate, q) == [dim], (name, truncate, q)


def test_formula_matches_greedy_oracle_on_random_splits():
    rng = random.Random(13)
    cases = [random_instance(rng) for _ in range(30)]
    for _ in range(10):  # frame twists with polynomial structure functions
        data, sub_rank = random_fixed_base_instance(rng)
        setup = SplitSetup.build(data, data.base_dim, 0, sub_rank)
        cases.append((setup, build_xq(data, setup.chart)))
    assert sum(max_poly_degree(setup.data) > 0 for setup, _ in cases) >= 5
    for setup, xq in cases:
        top = setup.sub_rank + 1
        for t in ([0] if setup.base_dim == 0 else [1, 2]):
            dims = m1_cohomology(setup, MCDelta.of(setup, xq), range(-1, top), truncate=t)
            assert dims == [len(m1_representatives(setup, xq, p, t)) for p in range(-1, top)]


@pytest.mark.parametrize("label", sorted(RAISING))
def test_formula_matches_greedy_oracle_when_the_image_leaves_the_window(label):
    data = RAISING[label]
    chart = data.plain_chart()
    xq = build_xq(data, chart)
    leaves = 0
    for t in (1, 2, 3):
        expected = [len(dgla_representatives(data, q, t)) for q in range(data.fiber_rank + 1)]
        assert dgla_cohomology(data, range(data.fiber_rank + 1), t) == expected
        for q, dim in enumerate(expected):
            assert dgla_cohomology(data, [q], t) == [dim]
        for p in range(data.fiber_rank):
            images = [super_commutator(xq, v) for v in field_basis(chart, p - 1, t)]
            leaves += _image_ranks(images, field_basis(chart, p, t))[1]
    assert leaves  # the out-of-window rank is exercised, not zero throughout

