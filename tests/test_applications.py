import argparse
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from linfty.algebroid import AlgebroidData, build_xq, validate_algebroid
from linfty.applications import (
    FoliationSetup,
    HomomorphismData,
    block_perturbation,
    block_sum_data,
    foliation_infinitesimal,
    graph_setup,
    simultaneous_homomorphism,
    structure_delta,
    _poly_matrix_inverse,
    tangent_rn,
)
from linfty.cli import run_command
from linfty.instances import FORMAT_VERSION, fixture_path, parse_instance
from linfty.signs import koszul_sign
from linfty.subalgebroid import DeformationPair, graph_closure_oracle, subalgebroid_mc_residual
from linfty.superfield import CoordinateChart, PreconditionError, SuperFunction, is_homological
from linfty.valgebra import MCDelta


def preset_data(name: str) -> AlgebroidData:
    return parse_instance(fixture_path(name)).payload["data"]


def constant_entries(tensor: dict, names: str) -> list[dict]:
    """Instance-file entries of constant values keyed by index tuples."""
    return [{**dict(zip(names, key)), "terms": [{"exponents": [], "numer": c}]} for key, c in tensor.items() if c]


def direct_sum_algebroid(a: AlgebroidData, b: AlgebroidData) -> AlgebroidData:
    """Product algebroid of two valid summands; the structure field is the sum of the two blocks."""
    for name, summand in (("first", a), ("second", b)):
        if not is_homological(build_xq(summand)):
            raise ValueError(f"invalid {name} summand")
    return block_sum_data(a, b)


class TestDirectSum:
    def test_sum_with_zero_algebra_is_isomorphic(self):
        g = preset_data("sl2")
        zero = AlgebroidData.build(0, 0)
        ds = direct_sum_algebroid(g, zero)
        assert ds.structure == g.structure and ds.fiber_rank == 3

    def test_sl2_plus_sl2_validates(self):
        ds = direct_sum_algebroid(preset_data("sl2"), preset_data("sl2"))
        assert validate_algebroid(ds.calculus).ok

    def test_tangent_sum_anchor_blocks(self):
        ds = direct_sum_algebroid(tangent_rn(1), tangent_rn(1))
        assert validate_algebroid(ds.calculus).ok
        assert ds.anchor == {(0, 0): {(0, 0): Fraction(1)}, (1, 1): {(0, 0): Fraction(1)}}

    def test_structure_field_is_sum_of_blocks(self):
        a, b = preset_data("sl2"), preset_data("heisenberg-3")
        ds = direct_sum_algebroid(a, b)
        left = block_sum_data(a, AlgebroidData.build(0, 3))
        right = block_sum_data(AlgebroidData.build(0, 3), b)
        assert build_xq(ds) == build_xq(left) + build_xq(right)

    def test_invalid_summand_rejected(self):
        with pytest.raises(ValueError):
            direct_sum_algebroid(preset_data("non-jacobi-3"), preset_data("sl2"))


def mc_check(name: str, mu: dict) -> bool:
    """Whether ``mc-check`` finds the preset plus the constant perturbation ``mu`` a Lie algebra."""
    obj = json.loads(fixture_path(name).read_text())
    obj["candidate"] = {"structure": constant_entries(mu, "ijk")}
    report = run_command("mc-check", parse_instance(obj))
    assert report.oracle_agreement
    return report.verdict == "mc-zero"


class TestLieAlgebraDeformation:
    def test_zero_perturbation(self):
        assert mc_check("sl2", {})

    def test_every_two_dim_bracket_is_lie(self):
        rng = random.Random(3)
        for _ in range(20):
            mu = {}
            for k in range(2):
                c = rng.randint(-3, 3)
                if c:
                    mu[(0, 1, k)] = c
            assert mc_check("abelian-2", mu)

    def test_non_jacobi_rejected(self):
        mu = {(0, 1, 2): 1, (0, 2, 0): 1}
        assert not mc_check("abelian-3", mu)

    def test_matches_classical_jacobi_exhaustively_dim3(self):
        # small coefficient grid over a fixed sparse support
        support = [(0, 1, 2), (0, 2, 0), (1, 2, 1)]
        for coeffs in itertools.product((-1, 0, 1), repeat=3):
            mu = {key: c for key, c in zip(support, coeffs) if c}
            residual_zero = mc_check("abelian-3", mu)
            classical = validate_algebroid(AlgebroidData.build(0, 3, mu).calculus).classical_ok
            assert residual_zero == classical


def subalg_check(structure: dict, sub_rank: int, phi: dict):
    """``subalg-check`` of the graph of ``phi`` over the span of the first ``sub_rank`` frame elements."""
    obj = {
        "format_version": FORMAT_VERSION, "kind": "subalgebra", "dimension": 3, "sub_rank": sub_rank,
        "structure": constant_entries(structure, "ijk"), "candidate": {"phi": constant_entries(phi, "ij")},
    }
    return run_command("subalg-check", parse_instance(obj))


class TestSubalgebraDeformation:
    def test_borel_locus(self):
        borel = parse_instance(fixture_path("sl2-borel"))
        for a in range(-2, 3):
            for b in range(-2, 3):
                args = argparse.Namespace(cap=None, truncate=None, probes=None, seed=None, degree=None,
                                          phi=[str(a), str(b)])
                assert (run_command("subalg-check", borel, args).verdict == "mc-zero") == (a * a == 4 * b)

    def test_line_in_sl2_always_deforms(self):
        # frame order (f, h, e): span(f) is an abelian line
        g = {(0, 1, 0): 2, (0, 2, 1): -1, (1, 2, 2): 2}
        for a in (-2, 0, 1):
            for b in (-1, 0, 3):
                assert subalg_check(g, 1, {(0, 1): a, (0, 2): b}).verdict == "mc-zero"

    def test_zero_candidate(self):
        assert run_command("subalg-check", parse_instance(fixture_path("sl2-borel"))).verdict == "mc-zero"

    def test_non_subalgebra_rejected(self):
        # frame order (h, f, e): span(h, f) is not closed ([h,f] = -2f is fine,
        # but take span(e, f) instead: [e,f] = h escapes)
        # frame (e, f, h): [e,f]=h, [h,e]=2e, [h,f]=-2f
        g = {(0, 1, 2): 1, (2, 0, 0): 2, (2, 1, 1): -2}
        with pytest.raises(ValueError):
            subalg_check(g, 2, {})


def checked_delta(fol: FoliationSetup) -> MCDelta:
    """The checked structure field of a foliation's split: refused unless the distribution is integrable."""
    return MCDelta.of(fol.setup, build_xq(fol.setup.data, fol.setup.chart))


def psi(fol: FoliationSetup, phi: dict) -> DeformationPair:
    """A foliation candidate: the bundle map ``phi`` from the distribution to the complement."""
    return DeformationPair.build(fol.setup, phi=phi)


class TestFoliation:
    def test_fixture_accepts_symmetric_candidate(self):
        fol = parse_instance(fixture_path("foliation-r3")).payload["foliation"]
        candidate = psi(fol, {(0, 2): {(0, 1, 0): 1}, (1, 2): {(1, 0, 0): 1}})
        res = foliation_infinitesimal(fol, checked_delta(fol), candidate)
        assert res.closed and res.agree and not res.condition_defects

    def test_fixture_rejects_half_candidate_with_minus_one(self):
        fol = parse_instance(fixture_path("foliation-r3")).payload["foliation"]
        res = foliation_infinitesimal(fol, checked_delta(fol), psi(fol, {(0, 2): {(0, 1, 0): 1}}))
        assert not res.closed and res.agree
        assert res.residual.values == {
            ((0, 1), 2): SuperFunction.constant(fol.setup.chart, -1)
        }

    def test_zero_candidate_closed(self):
        fol = parse_instance(fixture_path("foliation-r3")).payload["foliation"]
        res = foliation_infinitesimal(fol, checked_delta(fol), DeformationPair.zero())
        assert res.closed and res.agree

    def test_rank_one_distributions_accept_everything(self):
        rng = random.Random(17)
        for _ in range(10):
            # random polynomial frame with constant determinant: unipotent twist
            frames = [dict() for _ in range(2)]
            frames[0] = {0: 1, 1: {(rng.randint(0, 2), rng.randint(0, 1)): rng.randint(-2, 2)}}
            frames[1] = {1: 1}
            fol = FoliationSetup.build(2, 1, frames)
            delta = checked_delta(fol)  # integrable: P(delta) = 0
            res = foliation_infinitesimal(fol, delta, psi(fol, {(0, 1): {(rng.randint(0, 2), 0): rng.randint(-2, 2)}}))
            assert res.closed and res.agree

    def test_non_integrable_rejected(self):
        # D spanned by d/dx1 and d/dx2 + x1 d/dx3 is not integrable
        frames = [
            {0: 1},
            {1: 1, 2: {(1, 0, 0): 1}},
            {2: 1},
        ]
        fol = FoliationSetup.build(3, 2, frames)
        assert not fol.setup.project(build_xq(fol.setup.data, fol.setup.chart)).is_zero()
        with pytest.raises(PreconditionError, match="ker"):
            checked_delta(fol)

    def test_non_constant_determinant_rejected(self):
        with pytest.raises(ValueError):
            FoliationSetup.build(1, 1, [{0: {(1,): 1}}])


def leibniz_det(chart, mat) -> SuperFunction:
    """Reference determinant: the Leibniz sum over all n! permutations (1 for the empty matrix)."""
    n = len(mat)
    det = SuperFunction.zero(chart)
    for perm in itertools.permutations(range(n)):
        prod = SuperFunction.constant(chart, koszul_sign(perm, (1,) * n))
        for r in range(n):
            prod = prod * mat[r][perm[r]]
        det = det + prod
    return det


def adjugate_inverse(chart, mat):
    """Reference inverse of a matrix with constant determinant: the adjugate over the determinant."""
    n = len(mat)
    (det_c,) = leibniz_det(chart, mat).terms.values()
    return [
        [leibniz_det(chart, [[row[j] for j in range(n) if j != r] for i, row in enumerate(mat) if i != c])
         .scale(Fraction(-1 if (r + c) % 2 else 1) / det_c) for c in range(n)]
        for r in range(n)
    ]


def random_unimodular_frame(rng: random.Random, chart: CoordinateChart, n: int) -> list[list[SuperFunction]]:
    """A polynomial matrix with constant determinant: row additions of polynomial multiples, then a constant."""
    one, zero = SuperFunction.constant(chart, 1), SuperFunction.zero(chart)
    mat = [[one if r == c else zero for c in range(n)] for r in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        exps = tuple(rng.randint(0, 1) for _ in range(chart.n_even))
        p = SuperFunction(chart, {(exps, ()): rng.randint(-2, 2)})
        mat[i] = [a + p * b for a, b in zip(mat[i], mat[j])]
    scale = rng.choice((1, -1, 2, Fraction(1, 3)))
    mat[0] = [a.scale(scale) for a in mat[0]]
    return mat


class TestFrameInverse:
    def test_matches_the_adjugate_reference(self):
        rng = random.Random(5)
        for n in range(1, 6):
            chart = tangent_rn(n).calculus.chart
            for _ in range(5):
                mat = random_unimodular_frame(rng, chart, n)
                assert _poly_matrix_inverse(chart, mat) == adjugate_inverse(chart, mat)

    def test_r9_frame_parses_in_under_a_second(self):
        # the identity frame of R^9 plus x_1 on the superdiagonal: frame field i is d/dx_i + x_1 d/dx_(i-1)
        n = 9
        x1 = [{"exponents": [1] + [0] * (n - 1), "numer": 1}]
        frames = [[{"t": i, "terms": [{"exponents": [0] * n, "numer": 1}]}] + ([{"t": i - 1, "terms": x1}] if i else [])
                  for i in range(n)]
        obj = {"format_version": FORMAT_VERSION, "kind": "foliation", "base_dim": n, "sub_rank": 1, "frames": frames}
        start = time.perf_counter()
        fol = parse_instance(obj).payload["foliation"]
        assert time.perf_counter() - start < 1.0
        assert fol.frames[1][0] == {(1,) + (0,) * (n - 1): 1}


def hom_sl2_id() -> HomomorphismData:
    return parse_instance(fixture_path("hom-sl2-id")).payload["homomorphism"]


def homomorphism_residual(h: HomomorphismData, bundle_map=None, base_map=None):
    """The residual of the graph of ``h`` deformed by the given offsets."""
    setup, base, cand = graph_setup(h, HomomorphismData.build(h.source, h.target, bundle_map, base_map))
    return subalgebroid_mc_residual(setup, structure_delta(setup, h), base.add(cand))


class TestHomomorphisms:
    def test_identity_is_homomorphism(self):
        assert homomorphism_residual(hom_sl2_id()).value.is_zero()

    def test_scaling_sl2_identity(self):
        for t, ok in ((0, True), (-1, True), (1, False), (2, False), (-2, False)):
            res = homomorphism_residual(hom_sl2_id(), bundle_map={(i, i): t for i in range(3)})
            assert res.value.is_zero() == ok

    def test_abelian_linear_maps_always_work(self):
        line = AlgebroidData.build(0, 1)
        h = HomomorphismData.build(line, line, bundle_map={(0, 0): 1})
        for t in (-3, 0, 7):
            res = homomorphism_residual(h, bundle_map={(0, 0): t})
            assert res.value.is_zero()

    def test_invalid_base_homomorphism_rejected(self):
        # the zero-bracket target cannot receive the identity from sl2
        sl2 = json.loads(fixture_path("sl2").read_text())
        inst = parse_instance({
            "format_version": FORMAT_VERSION,
            "kind": "homomorphism",
            "source": {"base_dim": 0, "fiber_rank": 3, "structure": sl2["structure"], "anchor": []},
            "target": {"base_dim": 0, "fiber_rank": 3, "structure": [], "anchor": []},
            "bundle_map": constant_entries({(i, i): 1 for i in range(3)}, "ij"),
            "base_map": [],
            "candidate": {"sigma": [], "phi": []},
        })
        for command in ("subalg-check", "mc-check"):
            with pytest.raises(PreconditionError, match="the base bundle map is not a homomorphism"):
                run_command(command, inst)

    def test_graph_oracle_agrees(self):
        for t in (0, 1, -1, 2):
            h = hom_sl2_id()
            offsets = HomomorphismData.build(h.source, h.target, {(i, i): t for i in range(3)})
            setup, base, cand = graph_setup(h, offsets)
            accepted = graph_closure_oracle(setup, base.add(cand)).accepts
            assert accepted == (t in (0, -1))

    def test_polynomial_base_map(self):
        # identity tangent map of R^1 over the identity base map is a homomorphism
        h = HomomorphismData.build(
            tangent_rn(1), tangent_rn(1), bundle_map={(0, 0): 1}, base_map={0: {(1,): 1}}
        )
        res = homomorphism_residual(h)
        assert res.value.is_zero()
        # shifting the base map without touching anchors breaks the square
        res2 = homomorphism_residual(h, bundle_map={(0, 0): {(2,): 1}})
        assert not res2.value.is_zero()


class TestSimultaneousHomomorphism:
    def test_all_zero(self):
        v, a = simultaneous_homomorphism(hom_sl2_id(), None, None)
        assert v.is_zero() and a.is_zero()

    def test_matched_deformations_of_abelian_pair(self):
        A = preset_data("abelian-2")
        h = HomomorphismData.build(A, A, bundle_map={(0, 0): 1, (1, 1): 1})
        pert = AlgebroidData.build(0, 2, {(0, 1, 0): 1})
        v, a = simultaneous_homomorphism(h, pert, pert)
        assert v.is_zero() and a.is_zero()

    def test_one_sided_deformation_breaks_identity(self):
        A = preset_data("abelian-2")
        h = HomomorphismData.build(A, A, bundle_map={(0, 0): 1, (1, 1): 1})
        pert = AlgebroidData.build(0, 2, {(0, 1, 0): 1})
        v, a = simultaneous_homomorphism(h, pert, None)
        assert v.is_zero() and not a.is_zero()

    def test_map_offsets_are_checked_and_normalised(self):
        h = hom_sl2_id()
        v, a = simultaneous_homomorphism(h, None, None, bundle_map={(0, 0): 1})  # a scalar is a constant
        assert v.is_zero() and not a.is_zero()
        for bundle_map, base_map in (({(0, -3): 1}, None), ({(3, 0): 1}, None), (None, {0: 1})):
            with pytest.raises(ValueError, match="index out of range"):
                simultaneous_homomorphism(h, None, None, bundle_map=bundle_map, base_map=base_map)

    def test_block_perturbation_checks_dimensions(self):
        h = HomomorphismData.build(preset_data("sl2"), preset_data("abelian-2"))
        pert = AlgebroidData.build(0, 3, {(0, 1, 0): 1})
        assert block_perturbation(h, pert, None) == block_sum_data(pert, AlgebroidData.build(0, 2))
        with pytest.raises(ValueError, match="target"):
            block_perturbation(h, None, pert)
        with pytest.raises(ValueError, match="source"):
            block_perturbation(h, AlgebroidData.build(1, 3), None)
        with pytest.raises(ValueError):
            simultaneous_homomorphism(h, None, pert)

    @pytest.mark.parametrize("blocks", [("source",), ("target",), ("source", "target")])
    def test_matches_cli_simultaneous(self, blocks):
        from linfty.cli import _residual_terms

        one = [{"exponents": [], "numer": 1, "denom": 1}]
        block = {"base_dim": 0, "fiber_rank": 2, "structure": [], "anchor": []}
        pert = {"structure": [{"i": 0, "j": 1, "k": 0, "terms": one}]}
        inst = parse_instance({
            "format_version": FORMAT_VERSION,
            "kind": "homomorphism",
            "source": block,
            "target": block,
            "bundle_map": [{"i": 0, "j": 0, "terms": one}, {"i": 1, "j": 1, "terms": one}],
            "base_map": [],
            "candidate": {"sigma": [], "phi": []},
            "candidate_xq": {which: pert for which in blocks},
        })
        report = run_command("simultaneous", inst)
        payload = inst.payload["candidate_xq"]
        v, a = simultaneous_homomorphism(inst.payload["homomorphism"], payload.get("source"), payload.get("target"))
        assert report.residual_terms == _residual_terms(v) + _residual_terms(a)
        assert report.details == {"structure_residual_zero": v.is_zero(), "graph_residual_zero": a.is_zero()}
        assert a.is_zero() == (len(blocks) == 2)