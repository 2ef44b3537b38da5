"""Value semantics of the package's record classes.

Each record is a plain class on ``superfield.Record`` or ``superfield.Frozen``.
These tests pin what callers rely on: the constructor's positional and keyword
signature with its defaults, equality by value and by exact type, the ``repr``,
hashing and the refusal to assign or delete on frozen records, a fresh default
container per instance on mutable ones, and the cached properties.  They
also pin what the builds of records holding keyed polynomial maps share, how
a chart names its coordinates, and that its dimensions keep the charts of
different splits apart.
"""
import re
from fractions import Fraction

import pytest

from linfty import algebroid, applications, cli, instances, subalgebroid, valgebra
from linfty.algebroid import AlgebroidData, build_xq
from linfty.applications import HomomorphismData, foliation_setup, tangent_rn
from linfty.instances import fixture_path, parse_instance
from linfty.subalgebroid import DeformationPair, SplitSetup
from linfty.superfield import (
    ChartMismatchError,
    CoordinateChart,
    SuperFunction,
    SuperVectorField,
    render_field,
    super_commutator,
)

CHART_ARGS = (1, 1, 2, 1)  # x1, y1; xi1 | xi2
CHART = CoordinateChart(*CHART_ARGS)
FIELD = SuperVectorField(CHART, {((1, 0), (0,), 1): 2})

# (class, field names in order, one value per field, the defaults of the trailing fields)
RECORDS = [
    (CoordinateChart, ("base_dim", "normal_rank", "fiber_rank", "sub_rank"), CHART_ARGS, {"sub_rank": None}),
    (AlgebroidData, ("base_dim", "fiber_rank", "structure", "anchor"), (1, 2, {(0, 1, 0): {(1,): 1}}, {}), {}),
    (algebroid.AlgebroidReport, ("homological", "anchor_defects", "jacobi_defects"),
     (False, {(0, 1, 0): "x"}, {(0, 1, 2, 0): "y"}), {"anchor_defects": {}, "jacobi_defects": {}}),
    (algebroid.SectionCalculus, ("data", "chart", "structure", "anchor"), ("data", CHART, {}, {0: {}}), {}),
    (applications.FoliationResult, ("closed", "residual", "condition_defects"), (True, "residual", {}), {}),
    (applications.HomomorphismData, ("source", "target", "bundle_map", "base_map"),
     ("source", "target", {(0, 0): {(): 1}}, {}), {}),
    (subalgebroid.SplitSetup, ("data", "base_dim", "normal_rank", "sub_rank", "chart"),
     ("data", 1, 1, 1, CHART), {}),
    (subalgebroid.DeformationPair, ("sigma", "phi"), ({0: {(0,): 1}}, {}), {}),
    (subalgebroid.GraphClosureReport, ("anchor_defects", "closure_defects"), ({(0, 0): "a"}, {(0, 1, 1): "c"}),
     {"anchor_defects": {}, "closure_defects": {}}),
    (subalgebroid.FrameForm, ("setup", "degree", "values"), ("setup", 1, {((0,), 1): "f"}), {}),
    (valgebra.LInftyElement, ("value", "degree"), (FIELD, 0), {}),
    (valgebra.MCDelta, ("delta",), (FIELD,), {}),
    (valgebra.AxiomReport, ("checked", "failures"), (4, ["arity 2"]), {"checked": 0, "failures": []}),
    (instances.InstanceFile, ("kind", "payload"), ("algebroid", {"data": 1}), {}),
    (cli.Report, ("command", "verdict", "residual_terms", "oracle_agreement", "timing_ms", "details"),
     ("validate", "pass", ["t"], True, 1.5, {"k": 1}),
     {"residual_terms": None, "oracle_agreement": None, "timing_ms": 0.0, "details": {}}),
]
FROZEN = {
    CoordinateChart, AlgebroidData, algebroid.SectionCalculus, applications.HomomorphismData, subalgebroid.SplitSetup,
    subalgebroid.DeformationPair, subalgebroid.FrameForm, valgebra.LInftyElement, valgebra.MCDelta,
}
HASHABLE = {CoordinateChart: CHART_ARGS, valgebra.LInftyElement: (FIELD, 0), valgebra.MCDelta: (FIELD,)}


def _ids(rows):
    return [row[0].__name__ for row in rows]


@pytest.mark.parametrize("cls, names, values, defaults", RECORDS, ids=_ids(RECORDS))
class TestEveryRecord:
    def test_by_position_and_by_keyword(self, cls, names, values, defaults):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names, values)))
        for name, value in zip(names, values):
            assert getattr(by_position, name) is value
            assert getattr(by_keyword, name) is value
        assert by_position == by_keyword

    def test_defaults(self, cls, names, values, defaults):
        required = values[: len(names) - len(defaults)]
        record = cls(*required)
        assert {name: getattr(record, name) for name in defaults} == defaults
        with pytest.raises(TypeError):
            cls(*values, "one too many")
        if required:
            with pytest.raises(TypeError):
                cls(*required[:-1])

    def test_equal_by_value_and_type(self, cls, names, values, defaults):
        record = cls(*values)
        assert record == cls(*values)
        assert not record != cls(*values)
        for i, name in enumerate(names if cls is not CoordinateChart else ()):  # a chart names its coordinates
            other = list(values)
            other[i] = "something else"
            assert record != cls(*other), name
        assert record != values
        assert record != object()
        assert record.__eq__(values) is NotImplemented

    def test_repr_names_every_field(self, cls, names, values, defaults):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(cls(*values)) == f"{cls.__qualname__}({fields})"

    def test_frozen_refuses_assignment_and_deletion_mutable_accepts(self, cls, names, values, defaults):
        record = cls(*values)
        for name in names:
            if cls in FROZEN:
                with pytest.raises(AttributeError):
                    setattr(record, name, "new")
                with pytest.raises(AttributeError):
                    delattr(record, name)
                assert record == cls(*values)
            else:
                setattr(record, name, "new")
                assert getattr(record, name) == "new"
        if cls not in FROZEN:
            with pytest.raises(TypeError):
                hash(record)


def test_different_record_types_with_equal_values_differ():
    assert subalgebroid.DeformationPair(FIELD, FIELD) != valgebra.LInftyElement(FIELD, FIELD)
    assert valgebra.AxiomReport({}, {}) != subalgebroid.GraphClosureReport({}, {})


@pytest.mark.parametrize("cls", list(HASHABLE), ids=[c.__name__ for c in HASHABLE])
def test_frozen_records_hash_by_value(cls):
    args = HASHABLE[cls]
    a, b = cls(*args), cls(*args)
    assert a is not b and hash(a) == hash(b) == hash(tuple(args))
    assert {a: 1}[b] == 1
    assert len({a, b}) == 1


@pytest.mark.parametrize("make, attrs", [
    (lambda: algebroid.AlgebroidReport(False), ("anchor_defects", "jacobi_defects")),
    (subalgebroid.GraphClosureReport, ("anchor_defects", "closure_defects")),
    (valgebra.AxiomReport, ("failures",)),
    (lambda: cli.Report("validate", "pass"), ("details",)),
], ids=["AlgebroidReport", "GraphClosureReport", "AxiomReport", "Report"])
def test_mutable_records_never_share_a_default(make, attrs):
    first, second = make(), make()
    for name in attrs:
        mine, theirs = getattr(first, name), getattr(second, name)
        assert mine is not theirs and mine == theirs
        if isinstance(mine, list):
            mine.append("x")
            assert theirs == []
        else:
            mine["k"] = "x"
            assert theirs == {}


def test_cached_properties_are_computed_once():
    setup = parse_instance(fixture_path("hom-sl2-id")).payload["setup"]
    data = parse_instance(fixture_path("sl2")).payload["data"]
    fresh = subalgebroid.SplitSetup(setup.data, setup.base_dim, setup.normal_rank, setup.sub_rank, setup.chart)
    keys = setup._values(), data._values()  # what ==, hash and repr read
    calc = data.calculus
    fresh_calc = algebroid.SectionCalculus(calc.data, calc.chart, calc.structure, calc.anchor)
    cached = [(setup, "sub_frame"), (setup, "calculus"), (setup, "delta"), (data, "toral_weights")]
    cached += [(c, name) for c in (calc, setup.calculus) for name in ("xq", "square")]
    for record, name in cached:
        assert getattr(record, name) is getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert setup.delta.delta is setup.calculus.xq
    # the cached values are not fields: a split that has computed them compares, hashes and prints as one that has not
    assert (setup._values(), data._values()) == keys and len(keys[0]) == 5
    assert setup == fresh and fresh.__dict__ == {} and repr(setup) == repr(fresh)
    assert data == AlgebroidData(data.base_dim, data.fiber_rank, data.structure, data.anchor)
    assert calc == fresh_calc and fresh_calc.__dict__ == {} and repr(calc) == repr(fresh_calc)


def test_terms_on_equal_but_distinct_charts_compare_and_hash_equal():
    twin = CoordinateChart(*CHART_ARGS)
    assert twin is not CHART and twin == CHART and hash(twin) == hash(CHART)
    f, g = SuperFunction(CHART, {((1, 2), (0,)): 3}), SuperFunction(twin, {((1, 2), (0,)): 3})
    assert f == g and hash(f) == hash(g)
    assert SuperVectorField(twin, FIELD.terms) == FIELD and hash(SuperVectorField(twin, FIELD.terms)) == hash(FIELD)
    assert f != SuperFunction(CoordinateChart(2, 0, 2, 1), {((1, 2), (0,)): 3})  # two evens, none normal
    assert f + g == f.scale(2)


def test_terms_refuse_assignment_and_deletion():
    f = SuperFunction(CHART, {((1, 0), ()): 1})
    for name in ("chart", "terms"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert f.chart is CHART and f.terms == {((1, 0), ()): 1}


# ---------------------------------------------------------------------
# builds of records with keyed polynomial maps
# ---------------------------------------------------------------------
PAIR_SETUP = SplitSetup.build(AlgebroidData.build(2, 2), 1, 1, 1)  # normal index 0, sub 0, complement 1
LINE = tangent_rn(1)

# (a build taking one keyed map, the number of base coordinates, a key in range, keys out of range)
KEYED_MAPS = {
    "structure": (lambda m: AlgebroidData.build(1, 2, structure=m), 1, (0, 1, 0), [(0, 1, 2), (-1, 1, 0), (0, 1), 0]),
    "anchor": (lambda m: AlgebroidData.build(1, 2, anchor=m), 1, (1, 0), [(2, 0), (0, 1), (0, -1), (1, 0, 0)]),
    "sigma": (lambda m: DeformationPair.build(PAIR_SETUP, sigma=m), 1, 0, [1, -1, (0,)]),
    "phi": (lambda m: DeformationPair.build(PAIR_SETUP, phi=m), 1, (0, 1), [(0, 0), (1, 1), (0, 2), 1]),
    "bundle_map": (lambda m: HomomorphismData.build(LINE, LINE, bundle_map=m), 1, (0, 0), [(1, 0), (0, 1)]),
    "base_map": (lambda m: HomomorphismData.build(LINE, LINE, base_map=m), 1, 0, [1, -1, (0,)]),
    # the frame field (1, m) next to (0, 1): its determinant stays 1
    "frames": (lambda m: foliation_setup(2, 1, [{0: 1, **m}, {1: 1}]), 2, 1, [7, -1, 2, (1,)]),
}


@pytest.mark.parametrize("name", KEYED_MAPS)
class TestKeyedMapBuilds:
    """Every build checks each key against its ranges and normalises each polynomial, as a parsed file's are."""

    def test_out_of_range_key_refused(self, name):
        build, n, key, bad_keys = KEYED_MAPS[name]
        for bad in bad_keys:
            with pytest.raises(ValueError, match=re.escape(f"index out of range: {bad}")):
                build({key: 1, bad: 5})

    def test_equal_polynomials_build_equal_records(self, name):
        build, n, key, _ = KEYED_MAPS[name]
        x, one = (1,) + (0,) * (n - 1), (0,) * n
        record = build({key: {x: 2}})
        assert build({key: {x: Fraction(4, 2)}}) == record
        assert build({key: {x: 2, one: Fraction(1, 3) - Fraction(1, 3)}}) == record  # a term that cancels
        assert build({key: {one: 3}}) == build({key: 3})  # a rational is a constant polynomial
        assert build({key: {x: 0, one: Fraction(0)}}) == build({})  # an entry that cancels is dropped


# ---------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------
CHART_DATA = AlgebroidData.build(2, 3)
# a package chart, its even and its odd coordinate names
CHART_NAMES = {
    "plain": (lambda: CHART_DATA.plain_chart(), ("x1", "x2"), ("xi1", "xi2", "xi3")),
    "split": (lambda: CHART_DATA.split_chart(1, 1, 2), ("x1", "y1"), ("xi1", "xi2", "xi3")),
    "fixed base": (lambda: CHART_DATA.split_chart(2, 0, 0), ("x1", "x2"), ("xi1", "xi2", "xi3")),
    "over a point": (lambda: parse_instance(fixture_path("sl2")).payload["data"].plain_chart(), (),
                     ("xi1", "xi2", "xi3")),
    "foliation": (lambda: parse_instance(fixture_path("foliation-r3")).payload["setup"].chart, ("x1", "x2", "x3"),
                  ("xi1", "xi2", "xi3")),
}


@pytest.mark.parametrize("case", CHART_NAMES)
def test_package_charts_name_their_coordinates(case):
    make, evens, odds = CHART_NAMES[case]
    chart = make()
    assert (chart.even_names, chart.odd_names) == (evens, odds)
    assert (chart.n_even, chart.n_odd) == (len(evens), len(odds))


def test_rendered_fields_name_their_coordinates():
    assert render_field(build_xq(ROLE_DATA, ROLE_DATA.plain_chart())) == (
        "-1 xi1 d/dx1 + -1 x1 xi2 d/dx1 + 1 x1 xi1 xi2 d/dxi2"
    )
    assert render_field(build_xq(ROLE_DATA, ROLE_DATA.split_chart(0, 1, 1))) == (
        "-1 xi1 d/dy1 + -1 y1 xi2 d/dy1 + 1 y1 xi1 xi2 d/dxi2"
    )


@pytest.mark.parametrize("sub_rank", [-1, 4])
def test_out_of_range_sub_rank_refused(sub_rank):
    for make in (lambda: CoordinateChart(2, 0, 3, sub_rank), lambda: CHART_DATA.split_chart(1, 1, sub_rank),
                 lambda: SplitSetup.build(CHART_DATA, 1, 1, sub_rank)):
        with pytest.raises(ValueError, match="^sub rank out of range$"):
            make()
    for in_range in (None, 0, 3):
        assert CoordinateChart(2, 0, 3, in_range).sub_rank == in_range


ROLE_DATA = AlgebroidData.build(1, 2, structure={(0, 1, 1): {(1,): 1}}, anchor={(0, 0): 1, (1, 0): {(1,): 1}})
NARROW, WIDE = SplitSetup.build(ROLE_DATA, 1, 0, 1), SplitSetup.build(ROLE_DATA, 1, 0, 2)
# charts with the same coordinate names that only their sub ranks tell apart, each with its split setup if it has one
CHART_PAIRS = {
    "sub ranks 1 and 2": ((NARROW.chart, NARROW), (WIDE.chart, WIDE)),
    "plain and split with normal rank 0": ((ROLE_DATA.plain_chart(), None), (NARROW.chart, NARROW)),
}


@pytest.mark.parametrize("pair", CHART_PAIRS)
def test_dimensions_keep_splits_with_equal_names_apart(pair):
    (chart_a, setup_a), (chart_b, setup_b) = CHART_PAIRS[pair]
    assert (chart_a.even_names, chart_a.odd_names) == (chart_b.even_names, chart_b.odd_names)
    field_a, field_b = build_xq(ROLE_DATA, chart_a), build_xq(ROLE_DATA, chart_b)
    assert not field_a.is_zero() and not field_b.is_zero()
    for setup, other in ((setup_a, field_b), (setup_b, field_a)):
        if setup is not None:
            with pytest.raises(ChartMismatchError):
                setup.project(other)
    for x, y in ((field_a, field_b), (field_b, field_a)):
        with pytest.raises(ChartMismatchError):
            super_commutator(x, y)
    assert chart_a != chart_b
