import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from instance_writer import serialize_algebroid, serialize_instance, write_instance
from linfty.cli import COMMANDS, build_parser, main, run_command
from linfty.instances import FORMAT_VERSION, InstanceError, fixture_path, parse_instance, resolve_instance
from linfty.superfield import ChartMismatchError
from linfty.valgebra import SERIES_CAP, NotInAbelianPart


GOLDEN_COHOMOLOGY = json.loads((Path(__file__).parent / "golden" / "cohomology.json").read_text())
GOLDEN_COMMANDS = json.loads((Path(__file__).parent / "golden" / "commands.json").read_text())
FIXTURES = sorted(path.stem for path in fixture_path("sl2").parent.glob("*.json"))


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # the parser refuses an unknown option itself
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_calls(monkeypatch, original) -> list:
    """Route every linfty binding of the function ``original`` through a wrapper; returns its argument log."""
    import sys

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "linfty" or name.startswith("linfty."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def record_commutators(monkeypatch) -> list:
    """The (X, Y) log of every ``super_commutator`` call."""
    from linfty import superfield

    return record_calls(monkeypatch, superfield.super_commutator)


def record_calculi(monkeypatch) -> list:
    """The arguments of every ``SectionCalculus.of`` call."""
    from linfty.algebroid import SectionCalculus

    original, calls = SectionCalculus.of, []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(SectionCalculus, "of", staticmethod(counting))
    return calls


def deep_series_instances(k: int) -> dict[str, dict]:
    """Two instances whose series take exactly k nonzero brackets: a normal shift and a base map into y^k d/dy.

    The subalgebroid is the line y = 0 in the plane with anchor y^k d/dx, moved to y = 1; the
    homomorphism sends a rank-1 point to the point y = 1 of a rank-1 algebroid over R with anchor
    y^k d/dy.  Both are accepted: y^k d/dx is tangent to y = 1, and the zero bundle map is anchored.
    """
    subalgebroid = {
        "format_version": FORMAT_VERSION, "kind": "subalgebroid", "base_dim": 1, "normal_rank": 1, "fiber_rank": 1,
        "sub_rank": 1, "structure": [], "anchor": [{"i": 0, "t": 0, "terms": terms(((0, k), 1, 1))}],
        "candidate": {"sigma": [{"k": 0, "terms": terms(((0,), 1, 1))}], "phi": []},
    }
    target = {"base_dim": 1, "fiber_rank": 1, "structure": [],
              "anchor": [{"i": 0, "t": 0, "terms": terms(((k,), 1, 1))}]}
    point = {"base_dim": 0, "fiber_rank": 1, "structure": [], "anchor": []}
    homomorphism = homomorphism_obj(point, target, base_map=[{"k": 0, "terms": terms(((), 1, 1))}])
    return {"subalgebroid": subalgebroid, "homomorphism": homomorphism}


def borel_with_broken_jacobi() -> dict:
    """sl2-borel with the structure candidate [e, f] += e: the sum breaks Jacobi, and span{h, e} stays closed."""
    obj = json.loads(fixture_path("sl2-borel").read_text())
    obj["candidate_xq"] = {"structure": [{"i": 1, "j": 2, "k": 1, "terms": terms(((), 1, 1))}]}
    return obj


def record_projections(monkeypatch) -> list:
    """The fields every ``SplitSetup.project`` call projects."""
    from linfty.subalgebroid import SplitSetup

    original = SplitSetup.project
    calls = []

    def counting(setup, v):
        calls.append(v)
        return original(setup, v)

    monkeypatch.setattr(SplitSetup, "project", counting)
    return calls


class TestParsing:
    def test_bundled_sl2_round_trips(self, tmp_path):
        inst = parse_instance(fixture_path("sl2"))
        assert inst.kind == "lie_algebra"
        data = inst.payload["data"]
        assert len(data.structure) == 3
        out = tmp_path / "copy.json"
        write_instance(serialize_algebroid(data, kind="lie_algebra"), out)
        again = parse_instance(out)
        assert again.payload["data"].structure == data.structure

    def test_empty_structure_is_abelian(self):
        inst = parse_instance(
            {"format_version": FORMAT_VERSION, "kind": "lie_algebra", "dimension": 2}
        )
        assert inst.payload["data"].structure == {}

    def test_zero_denominator_rejected_with_path(self):
        obj = {
            "format_version": FORMAT_VERSION,
            "kind": "lie_algebra",
            "dimension": 2,
            "structure": [
                {"i": 0, "j": 1, "k": 0, "terms": [{"exponents": [], "numer": 1, "denom": 0}]}
            ],
        }
        with pytest.raises(InstanceError) as err:
            parse_instance(obj)
        assert "denom" in str(err.value)

    def test_index_out_of_range_localized(self):
        obj = {
            "format_version": FORMAT_VERSION,
            "kind": "lie_algebra",
            "dimension": 2,
            "structure": [{"i": 0, "j": 5, "k": 0, "terms": []}],
        }
        with pytest.raises(InstanceError) as err:
            parse_instance(obj)
        assert "structure[0].j" in str(err.value)

    def test_bad_format_version(self):
        with pytest.raises(InstanceError):
            parse_instance({"format_version": 99, "kind": "lie_algebra", "dimension": 1})

    def test_unknown_kind(self):
        with pytest.raises(InstanceError):
            parse_instance({"format_version": FORMAT_VERSION, "kind": "nope"})

    def test_resolve_preset_and_missing(self, tmp_path):
        assert resolve_instance("sl2").name == "sl2.json"
        with pytest.raises(InstanceError):
            resolve_instance(str(tmp_path / "missing.json"))

    @pytest.mark.parametrize(
        "name",
        [
            "sl2", "heisenberg-3", "abelian-2", "abelian-3", "abelian-4", "sl2-sum",
            "non-jacobi-3", "tangent-r1", "tangent-r2", "sl2-borel",
            "tangent-r1-origin", "foliation-r3", "hom-sl2-id",
        ],
    )
    def test_parse_serialize_parse_identity(self, name):
        first = parse_instance(json.loads(fixture_path(name).read_text()))
        serialized = serialize_instance(first)
        second = parse_instance(serialized)
        assert serialize_instance(second) == serialized

    @pytest.mark.parametrize(
        "preset,where,entry",
        [  # the entry list's location and one entry, given twice in the list
            ("sl2", ["structure"], {"i": 0, "j": 1, "k": 1, "exponents": []}),
            ("tangent-r1", ["anchor"], {"i": 0, "t": 0, "exponents": [1]}),
            ("tangent-r1-origin", ["candidate", "sigma"], {"k": 0, "exponents": []}),
            ("sl2-borel", ["candidate", "phi"], {"i": 0, "j": 2, "exponents": []}),
            ("hom-sl2-id", ["bundle_map"], {"i": 0, "j": 0, "exponents": []}),
            ("hom-sl2-id", ["candidate", "phi"], {"i": 1, "j": 2, "exponents": []}),
            ("foliation-r3", ["psi"], {"i": 0, "j": 2, "exponents": [0, 0, 1]}),
            ("foliation-r3", ["frames", 0], {"t": 0, "exponents": [0, 0, 0]}),
        ],
    )
    def test_repeated_entry_key_adds(self, preset, where, entry):
        def with_list(entries):
            obj = json.loads(fixture_path(preset).read_text())
            parent = obj
            for key in where[:-1]:
                parent = parent.setdefault(key, {}) if isinstance(key, str) else parent[key]
            parent[where[-1]] = entries
            return serialize_instance(parse_instance(obj))

        indices = {name: v for name, v in entry.items() if name != "exponents"}

        def one(numer):
            return {**indices, "terms": [{"exponents": entry["exponents"], "numer": numer}]}

        assert with_list([one(1), one(1)]) == with_list([one(2)])

    def test_diagonal_structure_entry_names_its_path(self):
        obj = json.loads(fixture_path("sl2").read_text())
        obj["structure"].append({"i": 2, "j": 2, "k": 0, "terms": []})
        with pytest.raises(InstanceError) as err:
            parse_instance(obj)
        assert err.value.path == f"$.structure[{len(obj['structure']) - 1}]"

    @pytest.mark.parametrize(
        "preset,where,bad,path",
        [  # the entry list's location, the bad field (None: the entry is not an object), the reported path
            ("sl2", ["structure"], "j", "$.structure[0].j"),
            ("tangent-r1", ["anchor"], "t", "$.anchor[0].t"),
            ("sl2", ["candidate", "structure"], "k", "$.candidate.structure[0].k"),
            ("tangent-r1-origin", ["candidate", "sigma"], "k", "$.candidate.sigma[0].k"),
            ("sl2-borel", ["base", "phi"], "i", "$.base.phi[0].i"),
            ("sl2-borel", ["candidate_xq", "anchor"], "i", "$.candidate_xq.anchor[0].i"),
            ("foliation-r3", ["frames", 0], "t", "$.frames[0][0].t"),
            ("foliation-r3", ["psi"], "j", "$.psi[0].j"),
            ("foliation-r3", ["psi"], None, "$.psi[0]"),
            ("hom-sl2-id", ["bundle_map"], "i", "$.bundle_map[0].i"),
            ("hom-sl2-id", ["base_map"], "k", "$.base_map[0].k"),
            ("hom-sl2-id", ["candidate", "sigma"], "k", "$.candidate.sigma[0].k"),
            ("hom-sl2-id", ["candidate", "phi"], "j", "$.candidate.phi[0].j"),
            ("hom-sl2-id", ["candidate_xq", "target", "structure"], "i", "$.candidate_xq.target.structure[0].i"),
        ],
    )
    def test_malformed_entry_names_its_path(self, preset, where, bad, path):
        obj = json.loads(fixture_path(preset).read_text())
        entry = {"i": 0, "j": 1, "k": 0, "t": 0, "terms": []}
        if bad is None:
            entry = 5
        else:
            entry[bad] = "x"
        parent = obj
        for key in where[:-1]:
            parent = parent.setdefault(key, {})
        parent[where[-1]] = [entry]
        with pytest.raises(InstanceError) as err:
            parse_instance(obj)
        assert err.value.path == path

    @pytest.mark.parametrize(
        "preset,where,entry,path",
        [  # the entry list's location, an entry with one index out of its range, the reported path
            ("foliation-r3", ["psi"], {"i": 0, "j": 7}, "$.psi[0].j"),
            ("foliation-r3", ["psi"], {"i": 0, "j": 1}, "$.psi[0].j"),  # a sub-frame index
            ("foliation-r3", ["psi"], {"i": 2, "j": 2}, "$.psi[0].i"),  # a complement index
            ("hom-sl2-id", ["candidate", "phi"], {"i": 0, "j": 9}, "$.candidate.phi[0].j"),
            ("hom-sl2-id", ["candidate", "phi"], {"i": 3, "j": 0}, "$.candidate.phi[0].i"),
            ("hom-sl2-id", ["candidate", "sigma"], {"k": 0}, "$.candidate.sigma[0].k"),  # the target has no base
            ("hom-sl2-id", ["bundle_map"], {"i": 0, "j": 3}, "$.bundle_map[0].j"),
            ("hom-sl2-id", ["base_map"], {"k": 0}, "$.base_map[0].k"),
            ("sl2-borel", ["candidate", "phi"], {"i": 0, "j": 1}, "$.candidate.phi[0].j"),
            ("tangent-r1-origin", ["base", "sigma"], {"k": 1}, "$.base.sigma[0].k"),
        ],
    )
    def test_out_of_range_entry_names_its_path(self, capsys, tmp_path, preset, where, entry, path):
        obj = json.loads(fixture_path(preset).read_text())
        parent = obj
        for key in where[:-1]:
            parent = parent.setdefault(key, {})
        parent[where[-1]] = [{**entry, "terms": []}]
        with pytest.raises(InstanceError) as err:
            parse_instance(obj)
        assert err.value.path == path and "index out of range" in str(err.value)
        write_instance(obj, tmp_path / "bad.json")
        code, out, err = run_cli(capsys, "validate", str(tmp_path / "bad.json"))
        assert (code, out) == (2, "") and path in err

    @pytest.mark.parametrize(
        "preset,where,value,path",
        [  # the field's location in the preset, the boolean put there, the reported path
            ("sl2", ["format_version"], True, "$.format_version"),
            ("foliation-r3", ["sub_rank"], True, "$.sub_rank"),
            ("hom-sl2-id", ["bundle_map", 0, "i"], False, "$.bundle_map[0].i"),
            ("tangent-r1", ["anchor", 0, "t"], True, "$.anchor[0].t"),
            ("hom-sl2-id", ["source", "base_dim"], False, "$.source.base_dim"),
            ("sl2", ["dimension"], True, "$.dimension"),
            ("sl2", ["structure", 0, "i"], False, "$.structure[0].i"),
            ("sl2", ["structure", 0, "terms", 0, "numer"], True, "$.structure[0].terms[0].numer"),
            ("sl2", ["structure", 0, "terms", 0, "denom"], True, "$.structure[0].terms[0].denom"),
            ("tangent-r1", ["anchor", 0, "terms", 0, "exponents", 0], True, "$.anchor[0].terms[0].exponents"),
            ("tangent-r1", ["base_dim"], True, "$.base_dim"),
            ("tangent-r1", ["fiber_rank"], True, "$.fiber_rank"),
            ("sl2-borel", ["sub_rank"], True, "$.sub_rank"),
            ("tangent-r1-origin", ["normal_rank"], False, "$.normal_rank"),
            ("foliation-r3", ["base_dim"], True, "$.base_dim"),
            ("hom-sl2-id", ["source", "fiber_rank"], True, "$.source.fiber_rank"),
        ],
    )
    def test_boolean_is_not_an_integer(self, preset, where, value, path):
        obj = json.loads(fixture_path(preset).read_text())
        parent = obj
        for key in where[:-1]:
            parent = parent.setdefault(key, {}) if isinstance(key, str) else parent[key]
        parent[where[-1]] = value
        with pytest.raises(InstanceError) as err:
            parse_instance(obj)
        assert err.value.path == path


def enriched(name: str) -> dict:
    """A bundled fixture with every optional object its kind may hold, each list entry given a term."""
    obj = json.loads(fixture_path(name).read_text())
    kind = obj["kind"]
    term = [{"exponents": [0] * obj.get("base_dim", 0), "numer": 1}]
    tensors = {"structure": obj.get("structure", []), "anchor": obj.get("anchor", [])}
    if kind in ("algebroid", "lie_algebra"):
        obj["candidate"] = tensors
    elif kind in ("subalgebroid", "subalgebra"):
        phi = [{"i": 0, "j": obj["sub_rank"], "terms": term}] if obj["sub_rank"] else []
        obj["base"] = {"sigma": obj["candidate"].get("sigma", []), "phi": phi}
        obj["candidate_xq"] = tensors
    elif kind == "homomorphism":
        obj["candidate"]["phi"] = [{"i": 0, "j": 1, "terms": term}]
        obj["candidate_xq"] = {which: {key: obj[which][key] for key in tensors} for which in ("source", "target")}
    return json.loads(json.dumps(obj))  # no list is shared between two places


def json_containers(node, path: str = "$"):
    """(path, container) of every JSON object and list in ``node``, the outermost first."""
    if isinstance(node, dict):
        yield path, node
        for key, value in node.items():
            yield from json_containers(value, f"{path}.{key}")
    elif isinstance(node, list):
        yield path, node
        for idx, value in enumerate(node):
            yield from json_containers(value, f"{path}[{idx}]")


def json_objects(node) -> list:
    """(path, object) of every JSON object in ``node``, the outermost first."""
    return [(path, value) for path, value in json_containers(node) if isinstance(value, dict)]


# wrong types, a float where an integer belongs, and indices out of every range
WRONG_VALUES = (None, True, "x", 1.5, -1, 99, [], {})


def single_field_mutations(obj):
    """Mutate ``obj`` in place one field at a time, yielding a label for each; it is restored after each one.

    Every field of every object and every list entry is set to each of
    ``WRONG_VALUES`` and removed, and every object gets the extra key ``zz``.
    """
    for path, node in list(json_containers(obj)):
        is_object = isinstance(node, dict)
        for key in list(node) if is_object else range(len(node)):
            where = f"{path}.{key}" if is_object else f"{path}[{key}]"
            saved = node[key]
            for value in WRONG_VALUES:
                node[key] = value
                yield f"{where} = {value!r}"
            node[key] = saved
            items = list(node.items()) if is_object else None
            del node[key]
            yield f"{where} removed"
            if is_object:
                node.clear()
                node.update(items)
            else:
                node.insert(key, saved)
        if is_object:
            node["zz"] = 1
            yield f"{path}.zz added"
            del node["zz"]


class TestStrictSchema:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_unknown_key_is_refused_at_its_path(self, capsys, tmp_path, name):
        obj = enriched(name)
        parse_instance(obj)
        for path, node in json_objects(obj):
            node["zz"] = 1
            with pytest.raises(InstanceError) as err:
                parse_instance(obj)
            assert err.value.path == f"{path}.zz"
            write_instance(obj, tmp_path / "bad.json")
            del node["zz"]
            code, out, err = run_cli(capsys, "validate", str(tmp_path / "bad.json"))
            assert (code, out) == (2, "") and f"{path}.zz: unknown key" in err

    def test_enriched_fixtures_hold_every_object_of_the_schema(self):
        shapes = {re.sub(r"\[\d+\]", "[]", path) for name in FIXTURES for path, _ in json_objects(enriched(name))}
        entries = ("structure", "anchor", "candidate.structure", "candidate.anchor", "candidate.sigma", "candidate.phi",
                   "base.phi", "candidate_xq.structure", "frames[]", "psi", "bundle_map", "source.structure",
                   "candidate_xq.target.structure")
        objects = ("", ".candidate", ".base", ".candidate_xq", ".source", ".target",
                   ".candidate_xq.source", ".candidate_xq.target")
        # hom-sl2-id's target has no base coordinates, so no fixture holds a base_map or homomorphism sigma entry
        assert {f"${where}" for where in objects} | {f"$.{where}[].terms[]" for where in entries} <= shapes

    @pytest.mark.parametrize(
        "preset,command,change,path",
        [
            ("sl2", "validate", {"strucutre": "structure"}, "$.strucutre"),  # was read as the abelian algebra
            ("sl2", "validate", {"anchor": [{"i": 9, "t": 5, "terms": "junk"}]}, "$.anchor"),  # was never read
            ("sl2-borel", "mc-check", {"candidate": {"phy": [{"i": 0, "j": 2, "terms": [{"numer": 5}]}]}},
             "$.candidate.phy"),  # was read as the zero candidate
            # the retired options block: a count is set by its flag alone
            ("tangent-r1", "cohomology", {"options": {"truncate": 2}}, "$.options"),
        ],
        ids=["misspelt-structure", "anchor-over-a-point", "misspelt-phi", "options-block"],
    )
    def test_misspelt_or_misplaced_key_exits_2(self, capsys, tmp_path, preset, command, change, path):
        obj = json.loads(fixture_path(preset).read_text())
        for key, value in change.items():
            obj[key] = obj.pop(value) if isinstance(value, str) else value
        write_instance(obj, tmp_path / "bad.json")
        code, out, err = run_cli(capsys, command, str(tmp_path / "bad.json"), "--json")
        assert (code, out) == (2, "") and f"{path}: unknown key" in err

    @pytest.mark.parametrize("name", FIXTURES)
    def test_single_field_mutation_parses_or_names_a_path(self, name):
        obj = enriched(name)
        count = 0
        for label in single_field_mutations(obj):
            try:
                parse_instance(obj)
            except InstanceError as exc:
                assert exc.path.startswith("$"), (label, exc.path)
            except Exception as exc:
                raise AssertionError(label) from exc
            count += 1
        assert obj == enriched(name)  # every mutation was undone
        assert count > 50

    @pytest.mark.parametrize(
        "name,general,extra",
        [
            ("sl2", "algebroid", {"base_dim": 0, "anchor": []}),
            ("sl2-borel", "subalgebroid", {"base_dim": 0, "normal_rank": 0, "anchor": []}),
        ],
    )
    def test_point_kind_is_its_general_kind_over_a_point(self, capsys, tmp_path, name, general, extra):
        point = json.loads(fixture_path(name).read_text())
        if "candidate" not in point:  # give mc-check and oracle-compare a candidate to decide
            point["candidate"] = {"structure": [{"i": 0, "j": 1, "k": 2, "terms": [{"numer": 1}]}]}
        same = {**point, **extra, "kind": general, "fiber_rank": point["dimension"]}
        del same["dimension"]
        first, second = parse_instance(point), parse_instance(same)
        assert first.payload.keys() == second.payload.keys()
        assert first.payload["data"] == second.payload["data"]
        assert first.payload.get("setup") == second.payload.get("setup")
        assert first.payload["candidate"] == second.payload["candidate"]
        written = serialize_instance(first)  # and both are written through one path
        dimension = written.pop("dimension")
        assert serialize_instance(second) == {**written, **extra, "kind": general, "fiber_rank": dimension}
        taken = set()
        for command in COMMANDS:
            outputs = []
            for obj in (point, same):
                write_instance(obj, tmp_path / "instance.json")
                outputs.append(run_cli(capsys, command, str(tmp_path / "instance.json"), "--json")[:2])
            assert outputs[0] == outputs[1], command
            if outputs[0][0] in (0, 1):
                taken.add(command)
        assert {"validate", "mc-check", "cohomology", "oracle-compare"} <= taken


class TestCommands:
    @pytest.mark.parametrize(
        "name", ["sl2", "heisenberg-3", "abelian-2", "abelian-3", "abelian-4", "sl2-sum", "tangent-r1", "tangent-r2"]
    )
    def test_validate_passes_fixture_library(self, capsys, name):
        code, out, _ = run_cli(capsys, "validate", name)
        assert code == 0 and "pass" in out

    def test_validate_fails_non_jacobi(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "non-jacobi-3")
        assert code == 1
        assert "(0, 1, 2, 2)" in out and "-1" in out

    def test_validate_names_anchor_defects(self, capsys, tmp_path):
        # d/dx and x d/dx with a zero bracket: rho[e0, e1] = 0, but [d/dx, x d/dx] = d/dx
        anchor = [{"i": 0, "t": 0, "terms": terms(((0,), 1, 1))}, {"i": 1, "t": 0, "terms": terms(((1,), 1, 1))}]
        obj = {"format_version": FORMAT_VERSION, "kind": "algebroid", "base_dim": 1, "fiber_rank": 2, "anchor": anchor}
        write_instance(obj, tmp_path / "anchors.json")
        code, out, _ = run_cli(capsys, "validate", str(tmp_path / "anchors.json"), "--json")
        payload = json.loads(out)
        assert (code, payload["verdict"], payload["oracle_agreement"]) == (1, "fail", True)
        assert payload["details"]["anchor_defects"] == {"(0, 1, 0)": "-1"}

    def test_subalg_check_borel_grid_points(self, capsys):
        code, out, _ = run_cli(capsys, "subalg-check", "sl2-borel", "--phi", "2", "1")
        assert code == 0 and "mc-zero" in out
        code, out, _ = run_cli(capsys, "subalg-check", "sl2-borel", "--phi", "1", "1")
        assert code == 1 and "mc-nonzero" in out and "-3" in out

    def test_mc_check_with_candidate(self, capsys, tmp_path):
        obj = {
            "format_version": FORMAT_VERSION,
            "kind": "lie_algebra",
            "dimension": 3,
            "structure": [],
            "candidate": {
                "structure": [
                    {"i": 0, "j": 1, "k": 2, "terms": [{"exponents": [], "numer": 1, "denom": 1}]},
                    {"i": 0, "j": 2, "k": 0, "terms": [{"exponents": [], "numer": 1, "denom": 1}]},
                ]
            },
        }
        path = tmp_path / "cand.json"
        write_instance(obj, path)
        code, out, _ = run_cli(capsys, "mc-check", str(path))
        assert code == 1 and "mc-nonzero" in out
        obj["candidate"]["structure"] = obj["candidate"]["structure"][:1]
        write_instance(obj, path)
        code, out, _ = run_cli(capsys, "mc-check", str(path))
        assert code == 0 and "mc-zero" in out

    def test_simultaneous_subalgebra(self, capsys, tmp_path):
        obj = {
            "format_version": FORMAT_VERSION,
            "kind": "subalgebra",
            "dimension": 2,
            "sub_rank": 1,
            "structure": [],
            "candidate": {"phi": []},
            "candidate_xq": {
                "structure": [
                    {"i": 0, "j": 1, "k": 0, "terms": [{"exponents": [], "numer": 1, "denom": 1}]}
                ]
            },
        }
        path = tmp_path / "sim.json"
        write_instance(obj, path)
        code, out, _ = run_cli(capsys, "simultaneous", str(path))
        assert code == 0 and "mc-zero" in out

    def test_simultaneous_homomorphism(self, capsys, tmp_path):
        ab = {"base_dim": 0, "fiber_rank": 2, "structure": [], "anchor": []}
        pert = {
            "structure": [
                {"i": 0, "j": 1, "k": 0, "terms": [{"exponents": [], "numer": 1, "denom": 1}]}
            ]
        }
        obj = {
            "format_version": FORMAT_VERSION,
            "kind": "homomorphism",
            "source": ab,
            "target": ab,
            "bundle_map": [
                {"i": 0, "j": 0, "terms": [{"exponents": [], "numer": 1, "denom": 1}]},
                {"i": 1, "j": 1, "terms": [{"exponents": [], "numer": 1, "denom": 1}]},
            ],
            "base_map": [],
            "candidate": {"sigma": [], "phi": []},
            "candidate_xq": {"source": pert, "target": pert},
        }
        path = tmp_path / "hom.json"
        write_instance(obj, path)
        code, out, _ = run_cli(capsys, "simultaneous", str(path))
        assert code == 0 and "mc-zero" in out
        obj["candidate_xq"] = {"source": pert}
        write_instance(obj, path)
        code, out, _ = run_cli(capsys, "simultaneous", str(path))
        assert code == 1 and "mc-nonzero" in out

    @pytest.mark.parametrize("homological,classical", [(True, False), (False, True)])
    def test_simultaneous_oracle_reads_the_classical_route(self, capsys, monkeypatch, homological, classical):
        import linfty.cli as cli
        from linfty.algebroid import AlgebroidReport

        # the two routes disagree on the summed structure; only the classical one may reach the oracle
        monkeypatch.setattr(cli, "classically_valid", lambda calc: classical)
        monkeypatch.setattr(cli, "validate_algebroid", lambda calc: AlgebroidReport(homological))
        code, out, _ = run_cli(capsys, "simultaneous", "sl2-borel", "--json")
        payload = json.loads(out)
        assert payload["verdict"] == "mc-zero"  # the residual route reads neither verdict
        assert payload["oracle_agreement"] is classical
        assert code == (0 if classical else 3)

    def test_homomorphism_fields_are_squared_once(self, capsys, monkeypatch):
        calls = record_commutators(monkeypatch)
        code, _, _ = run_cli(capsys, "subalg-check", "hom-sl2-id", "--json")
        assert code == 0
        # the direct sum once, for the homomorphism check and the candidate's residual; its blocks
        # are squared only when it fails
        squares = [X for X, Y in calls if X is Y]
        assert len(squares) == 1

    @pytest.mark.parametrize(
        "command,preset,count",
        [
            # one MC series, compared with the tangency oracle: 1 square + 3 brackets (was 9)
            ("oracle-compare", "hom-sl2-id", 4),
            # the square of the structure field and one bracket with the zero candidate (was 3)
            ("oracle-compare", "sl2-borel", 2),
            # the summed structure is checked classically only, with no square (was 12)
            ("simultaneous", "hom-sl2-id", 9),
        ],
    )
    def test_commutator_counts(self, capsys, monkeypatch, command, preset, count):
        calls = record_commutators(monkeypatch)
        code, _, _ = run_cli(capsys, command, preset, "--json")
        assert code == 0
        assert len(calls) == count

    def test_validate_builds_the_structure_field_once(self, capsys, monkeypatch):
        from linfty import algebroid

        calls = record_calls(monkeypatch, algebroid.build_xq)
        # was 2 for each: validate built it for validate_algebroid and again for the
        # P(X) (integrability) check, oracle-compare for MCDelta.of and again for
        # the foliation's integrability check
        pairs = [("validate", "sl2-borel"), ("validate", "foliation-r3"), ("oracle-compare", "foliation-r3")]
        for command, preset in pairs:
            calls.clear()
            code, _, _ = run_cli(capsys, command, preset, "--json")
            assert code == 0
            assert len(calls) == 1, (command, preset)

    @pytest.mark.parametrize(
        "preset,count",
        [
            # P(delta) in MCDelta.of and P of the candidate (was 4: delta again in the
            # tangency precondition and as the series' n = 0 term)
            ("sl2-borel", 2),
            # the same, plus the two series terms (was 6)
            ("hom-sl2-id", 4),
        ],
    )
    def test_oracle_compare_projects_delta_once(self, capsys, monkeypatch, preset, count):
        calls = record_projections(monkeypatch)
        code, _, _ = run_cli(capsys, "oracle-compare", preset, "--json")
        assert code == 0
        assert len(calls) == count
        assert len(set(calls)) == count  # no field projected twice

    def test_cohomology_sl2(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", "sl2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["details"]["dimensions"] == {"H^0": 0, "H^1": 0, "H^2": 0, "H^3": 0}

    def test_cohomology_borel(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", "sl2-borel", "--json")
        payload = json.loads(out)
        assert payload["details"]["dimensions"] == {"H^0": 0, "H^1": 0, "H^2": 0}

    def test_cohomology_polynomial_needs_truncate(self, capsys):
        code, _, err = run_cli(capsys, "cohomology", "tangent-r1")
        assert code == 2 and "truncation" in err
        code, out, _ = run_cli(capsys, "cohomology", "tangent-r1", "--truncate", "2")
        assert code == 0

    @pytest.mark.parametrize("case", sorted(GOLDEN_COHOMOLOGY))
    def test_cohomology_json_is_golden(self, capsys, case):
        code, out, _ = run_cli(capsys, "cohomology", *case.split(), "--json")
        assert code == 0 and out == GOLDEN_COHOMOLOGY[case]

    @pytest.mark.parametrize("case", sorted(GOLDEN_COMMANDS))
    def test_command_json_is_golden(self, capsys, case):
        code, out, _ = run_cli(capsys, *case.split(), "--json")
        assert (code, out) == (GOLDEN_COMMANDS[case]["exit"], GOLDEN_COMMANDS[case]["stdout"])

    @pytest.mark.parametrize(
        "command,preset,kind",
        [
            ("brackets", "sl2", "lie_algebra"),
            ("axioms", "tangent-r1", "algebroid"),
            ("subalg-check", "abelian-2", "lie_algebra"),
            ("simultaneous", "foliation-r3", "foliation"),
            ("cohomology", "hom-sl2-id", "homomorphism"),
        ],
    )
    def test_refusal_names_command_and_kind(self, capsys, command, preset, kind):
        code, out, err = run_cli(capsys, command, preset, "--json")
        assert (code, out) == (2, "")
        assert f"{command} does not support kind {kind!r}" in err

    def test_cohomology_of_sl2_sum_vanishes(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", "sl2-sum", "--json")
        assert code == 0
        assert json.loads(out)["details"]["dimensions"] == {f"H^{q}": 0 for q in range(7)}

    def test_cohomology_refuses_non_homological_structure(self, capsys):
        code, out, err = run_cli(capsys, "cohomology", "non-jacobi-3", "--json")
        assert code == 2 and out == ""
        assert "must be homological" in err

    def test_axioms_command(self, capsys):
        code, out, _ = run_cli(capsys, "axioms", "sl2-borel", "--probes", "10", "--seed", "1")
        assert code == 0 and "pass" in out

    def test_brackets_command(self, capsys):
        code, out, _ = run_cli(capsys, "brackets", "sl2-borel", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_agreement"] is True
        assert payload["details"]["nonzero_brackets"]
        assert "first_disagreement" not in payload["details"]

    def test_brackets_names_first_disagreement(self, capsys, monkeypatch):
        import linfty.cli as cli
        from linfty.subalgebroid import FrameForm

        explicit = cli.explicit_structure_maps

        def negated(setup, k, args, *rest):
            form = explicit(setup, k, args, *rest)
            return FrameForm.build(setup, form.degree, {key: -v for key, v in form.values.items()})

        monkeypatch.setattr(cli, "explicit_structure_maps", negated)
        code, out, _ = run_cli(capsys, "brackets", "sl2-borel", "--json")
        payload = json.loads(out)
        assert code == 3 and payload["oracle_agreement"] is False
        witness = payload["details"]["first_disagreement"]
        table = payload["details"]["nonzero_brackets"]
        # the first nonzero bracket in enumeration order (arity, then combination)
        first = min(table, key=lambda name: (int(name[1]), json.loads(name[2:])))
        assert witness["combination"] == first
        assert witness["derived"] == table[first]
        assert witness["explicit"] != witness["derived"]

    @pytest.mark.parametrize("preset,count", [("sl2-borel", 34), ("hom-sl2-id", 2924)])
    def test_brackets_evaluates_explicit_maps_once_per_multiset(self, capsys, monkeypatch, preset, count):
        from math import comb

        from linfty import subalgebroid

        calls = record_calls(monkeypatch, subalgebroid.explicit_structure_maps)
        code, out, _ = run_cli(capsys, "brackets", preset, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["oracle_agreement"] is True
        n = payload["details"]["basis_size"]
        # multisets of arity 1, 2, 3 from n basis elements
        assert len(calls) == count == sum(comb(n + k - 1, k) for k in (1, 2, 3))

    def test_one_section_calculus_per_parsed_split(self, monkeypatch):
        inst = parse_instance(fixture_path("sl2-borel"))
        calls = record_calculi(monkeypatch)
        for command in ("oracle-compare", "subalg-check", "brackets"):
            assert run_command(command, inst).exit_code == 0
        # the split's own calculus (was 3: one per graph-closure oracle and one for the explicit route)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "preset,commands,squares",
        [
            ("sl2", ("validate", "oracle-compare", "validate"), 1),
            # the split's delta check reads the calculus's square (was 2: MCDelta.of squared the field again)
            ("sl2-borel", ("validate", "subalg-check", "oracle-compare", "validate"), 1),
            ("foliation-r3", ("validate", "oracle-compare", "validate"), 1),
        ],
    )
    def test_a_record_builds_and_squares_its_structure_field_once(self, monkeypatch, preset, commands, squares):
        from linfty import algebroid, superfield

        inst = parse_instance(fixture_path(preset))
        builds = record_calls(monkeypatch, algebroid.build_xq)
        commutators = record_calls(monkeypatch, superfield.super_commutator)
        for command in commands:
            assert run_command(command, inst).exit_code == 0
        # the calculus keeps the field and its square (was 3 builds and 3 squares)
        assert len(builds) == 1
        assert sum(1 for x, y in commutators if x is y) == squares

    @pytest.mark.parametrize(
        "command,preset",
        [("validate", "sl2"), ("oracle-compare", "sl2"), ("validate", "sl2-borel"), ("validate", "foliation-r3")],
    )
    def test_the_classical_route_reads_the_record_calculus(self, monkeypatch, command, preset):
        inst = parse_instance(fixture_path(preset))
        calls = record_calculi(monkeypatch)
        for _ in range(2):
            assert run_command(command, inst).exit_code == 0
        # the record's own calculus, on the first run only (was 2 on every run: one per classical check)
        assert len(calls) == 1

    def test_simultaneous_builds_one_calculus_for_its_summed_structure(self, monkeypatch):
        inst = parse_instance(borel_with_broken_jacobi())
        calls = record_calculi(monkeypatch)
        for run in (1, 2):
            assert run_command("simultaneous", inst).exit_code == 1
            # the parsed split's, built once for its structure field, and one per run for the summed
            # structure, shared by the classical checks and the graph oracle (was 3 on every run)
            assert len(calls) == 1 + run
            assert calls[0][0] == inst.payload["setup"].data
            assert calls[-1][0] != inst.payload["setup"].data  # the summed structure
        inst = parse_instance(fixture_path("sl2-borel"))
        calls.clear()
        for _ in range(2):
            assert run_command("simultaneous", inst).exit_code == 0
        assert len(calls) == 1  # with no perturbation the summed split is the parsed one

    def test_simultaneous_oracle_checks_the_summed_structure(self, capsys, tmp_path):
        write_instance(borel_with_broken_jacobi(), tmp_path / "borel.json")
        code, out, _ = run_cli(capsys, "simultaneous", str(tmp_path / "borel.json"), "--json")
        payload = json.loads(out)
        assert (code, payload["verdict"], payload["oracle_agreement"]) == (1, "mc-nonzero", True)
        assert payload["details"] == {"structure_residual_zero": False, "graph_residual_zero": True}

    @pytest.mark.parametrize(
        "command,preset,oracle",
        [("oracle-compare", "foliation-r3", "foliation_infinitesimal"),
         ("oracle-compare", "sl2-borel", "tangency_oracle"),
         ("validate", "hom-sl2-id", "graph_closure_oracle")],
    )
    def test_a_disagreeing_oracle_exits_3(self, capsys, monkeypatch, command, preset, oracle):
        import linfty.cli as cli
        from linfty.applications import FoliationResult
        from linfty.subalgebroid import GraphClosureReport
        from linfty.superfield import SuperVectorField

        real = getattr(cli, oracle)

        def disagreeing(*args, **kwargs):
            res = real(*args, **kwargs)
            if oracle == "foliation_infinitesimal":  # the classical condition flipped against the unary map
                return FoliationResult(res.closed, res.residual, {} if res.condition_defects else {(0, 1, 2): "x"})
            if oracle == "tangency_oracle":  # graph substitution off by d/dxi_1
                return res + SuperVectorField(res.chart, {((), (), 0): 1})
            return GraphClosureReport(closure_defects={(0, 1, 2): "x"} if res.accepts else {})

        monkeypatch.setattr(cli, oracle, disagreeing)
        code, out, _ = run_cli(capsys, command, preset, "--json")
        assert code == 3 and json.loads(out)["oracle_agreement"] is False

    def test_shuffle_tables_outlive_a_command(self, monkeypatch):
        from linfty import signs

        signs._TABLES.clear()
        calls = record_calls(monkeypatch, signs.iter_shuffles)
        inst = parse_instance(fixture_path("sl2-borel"))
        args = argparse.Namespace(truncate=None, probes=5, seed=None, phi=None, degree=None)
        for _ in range(2):
            assert run_command("axioms", inst, args).exit_code == 0
        # each (sizes, parities) key generated once in the process (was once per command)
        assert calls and len(calls) == len(set(calls))

    def test_wrong_multiset_value_is_caught_at_its_sorted_combination(self, capsys, monkeypatch):
        import linfty.cli as cli
        from linfty.subalgebroid import FrameForm

        explicit = cli.explicit_structure_maps

        def wrong_on_distinct_pairs(setup, k, args, *rest):
            form = explicit(setup, k, args, *rest)
            if k != 2 or args[0] == args[1]:
                return form
            return FrameForm.build(setup, form.degree, {key: -v for key, v in form.values.items()})

        monkeypatch.setattr(cli, "explicit_structure_maps", wrong_on_distinct_pairs)
        code, out, _ = run_cli(capsys, "brackets", "sl2-borel", "--json")
        payload = json.loads(out)
        assert code == 3 and payload["oracle_agreement"] is False
        table = payload["details"]["nonzero_brackets"]
        first = min(c for name in table if name.startswith("m2") and (c := json.loads(name[2:]))[0] != c[1])
        assert first == sorted(first) and f"m2{first[::-1]}" in table  # its other order is nonzero too
        assert payload["details"]["first_disagreement"]["combination"] == f"m2{first}"

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["cohomology", "tangent-r2", "--truncate", "-1"], "--truncate"),
            (["axioms", "sl2-borel", "--probes", "-1"], "--probes"),
            (["cohomology", "sl2", "--degree", "4"], "--degree"),
            (["cohomology", "sl2-borel", "--degree", "-1"], "--degree"),
            # the series cap is fixed (valgebra.SERIES_CAP): the parser refuses --cap on every command, at any value
            (["oracle-compare", "tangent-r1-origin", "--cap", "64"], "--cap"),
            (["oracle-compare", "hom-sl2-id", "--cap", "65"], "--cap"),
            (["validate", "hom-sl2-id", "--cap", "1"], "--cap"),
            (["subalg-check", "sl2-borel", "--cap", "-3"], "--cap"),
            (["oracle-compare", "sl2", "--cap", "0"], "--cap"),
            (["brackets", "sl2-borel", "--cap", "0"], "--cap"),
            (["cohomology", "sl2", "--cap", "-3"], "--cap"),
            (["brackets", "hom-sl2-id", "--truncate", "-1"], "--truncate"),
            (["validate", "sl2-borel", "--probes", "-1"], "--probes"),
            # --degree and --phi are refused where the command never reads them
            (["brackets", "sl2-borel", "--degree", "99"], "--degree"),
            (["validate", "sl2", "--degree", "-5"], "--degree"),
            (["validate", "sl2", "--phi", "1", "2", "3"], "--phi"),
            (["cohomology", "sl2", "--phi", "x"], "--phi"),
            (["mc-check", "sl2-borel", "--degree", "3"], "--degree"),
            (["cohomology", "sl2-borel", "--phi", "1", "1"], "--phi"),
            (["subalg-check", "hom-sl2-id", "--phi", "1"], "--phi"),
            (["oracle-compare", "sl2", "--phi"], "--phi"),
            # so are the count flags: --probes/--seed outside axioms, --truncate outside cohomology
            (["validate", "sl2", "--probes", "5"], "--probes"),
            (["mc-check", "sl2-borel", "--seed", "7"], "--seed"),
            (["brackets", "sl2-borel", "--truncate", "3"], "--truncate"),
            (["cohomology", "sl2", "--cap", "5"], "--cap"),
            (["validate", "sl2-borel", "--cap", "3"], "--cap"),
            (["mc-check", "sl2", "--cap", "3"], "--cap"),
            (["oracle-compare", "abelian-3", "--cap", "3"], "--cap"),
            # an empty --phi is given all the same, and has the wrong length
            (["subalg-check", "sl2-borel", "--phi"], "--phi"),
            # --truncate over a point, where no coefficient has a degree to bound
            (["cohomology", "sl2", "--truncate", "2"], "--truncate"),
            (["cohomology", "sl2-borel", "--truncate", "1"], "--truncate"),
            (["cohomology", "tangent-r1-origin", "--truncate", "1"], "--truncate"),
            (["subalg-check", "sl2-borel", "--phi", "x", "1"], "--phi: bad rational 'x'"),
        ],
    )
    def test_out_of_range_options_are_input_errors(self, capsys, argv, option):
        code, out, err = run_cli(capsys, *argv, "--json")
        assert (code, out) == (2, "")
        assert option in err

    @staticmethod
    def deep_series_runs(capsys, tmp_path, command: str, k: int) -> list[tuple[int, str, str]]:
        """(exit code, stdout, stderr) of ``command`` on each instance of ``deep_series_instances(k)`` it supports."""
        runs = []
        for kind, obj in deep_series_instances(k).items():
            if command == "validate" and kind != "homomorphism":  # validating a split runs no series
                continue
            write_instance(obj, tmp_path / f"{kind}.json")
            runs.append(run_cli(capsys, command, str(tmp_path / f"{kind}.json"), "--json"))
        return runs

    @pytest.mark.parametrize("command", ["validate", "mc-check", "subalg-check", "oracle-compare", "simultaneous"])
    def test_cap_is_read_where_a_series_runs(self, capsys, tmp_path, command):
        # one nonzero bracket more than SERIES_CAP
        for code, out, err in self.deep_series_runs(capsys, tmp_path, command, SERIES_CAP + 1):
            assert (code, out) == (2, "")
            assert err.startswith("series cap exceeded: ") and f"within {SERIES_CAP} brackets" in err

    @pytest.mark.parametrize("command", ["validate", "mc-check", "subalg-check", "oracle-compare", "simultaneous"])
    def test_a_series_as_deep_as_the_cap_runs(self, capsys, tmp_path, command):
        runs = self.deep_series_runs(capsys, tmp_path, command, SERIES_CAP)
        assert len(runs) == (1 if command == "validate" else 2)
        for code, out, err in runs:
            assert (code, err) == (0, "")
            assert json.loads(out)["verdict"] in ("pass", "mc-zero")

    def test_run_command_ignores_a_cap_on_its_namespace(self):
        # a namespace built for the former --cap flag still runs, with the fixed cap
        inst = parse_instance(fixture_path("hom-sl2-id"))
        with_cap = argparse.Namespace(cap=None, truncate=None, probes=None, seed=None, phi=None, degree=None)
        report = run_command("subalg-check", inst, with_cap)
        assert report.exit_code == 0 and report.to_json_obj() == run_command("subalg-check", inst).to_json_obj()

    @pytest.mark.parametrize(
        "name",
        ["sl2", "non-jacobi-3", "sl2-borel", "foliation-r3", "hom-sl2-id", "tangent-r1-origin"],
    )
    def test_oracle_compare_always_agrees(self, capsys, name):
        code, out, _ = run_cli(capsys, "oracle-compare", name)
        assert code != 3
        assert "DISAGREE" not in out

    def test_oracle_compare_exit_codes(self, capsys):
        code, _, _ = run_cli(capsys, "oracle-compare", "sl2")
        assert code == 0
        code, _, _ = run_cli(capsys, "oracle-compare", "non-jacobi-3")
        assert code == 1


def test_readme_synopsis_names_exactly_the_parser_options():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    synopsis = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S).group(1)
    documented = re.findall(r"\[(--[a-z-]+)", synopsis)
    parser = build_parser()
    options = [opt for action in parser._actions for opt in action.option_strings if opt not in ("-h", "--help")]
    assert sorted(documented) == sorted(options) and len(documented) == len(set(documented))
    assert "--cap" not in parser.format_help()


class TestReportContract:
    def test_json_reports_are_byte_stable(self, capsys):
        _, first, _ = run_cli(capsys, "subalg-check", "sl2-borel", "--phi", "1", "1", "--json")
        _, second, _ = run_cli(capsys, "subalg-check", "sl2-borel", "--phi", "1", "1", "--json")
        assert first == second

    def test_axioms_deterministic_given_seed(self, capsys):
        _, first, _ = run_cli(capsys, "axioms", "sl2-borel", "--probes", "5", "--seed", "7", "--json")
        _, second, _ = run_cli(capsys, "axioms", "sl2-borel", "--probes", "5", "--seed", "7", "--json")
        assert first == second

    def test_json_omits_timing(self, capsys):
        _, out, _ = run_cli(capsys, "validate", "sl2", "--json")
        payload = json.loads(out)
        assert "timing" not in json.dumps(payload)

    def test_residual_present_on_nonzero(self, capsys):
        _, out, _ = run_cli(capsys, "subalg-check", "sl2-borel", "--phi", "2", "2", "--json")
        payload = json.loads(out)
        assert payload["residual_terms"] == ["-4 xi1 xi2 d/dxi3"]
        assert payload["oracle_agreement"] is True

    def test_exit_codes(self, capsys):
        assert run_cli(capsys, "validate", "sl2")[0] == 0
        assert run_cli(capsys, "validate", "non-jacobi-3")[0] == 1
        assert run_cli(capsys, "validate", "no-such-instance")[0] == 2

    def test_deeply_nested_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert (code, out) == (2, "") and "invalid JSON" in err

    def test_undecodable_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "\xff"}')
        code, out, err = run_cli(capsys, "validate", str(path))
        assert (code, out) == (2, "") and "cannot read file" in err

    def test_uncaught_exception_is_internal_error(self, capsys, monkeypatch):
        import linfty.cli as cli

        def broken(inst, args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.COMMANDS, "validate", broken)
        assert run_cli(capsys, "validate", "sl2") == (4, "", "internal error: RuntimeError: boom\n")

    @pytest.mark.parametrize("error", [ValueError, ChartMismatchError, NotInAbelianPart], ids=lambda e: e.__name__)
    def test_internal_value_error_is_internal_error(self, capsys, monkeypatch, error):
        import linfty.cli as cli

        def broken(order, degrees):
            raise error("bad permutation")

        # a ValueError that is not a PreconditionError is a fault of the program, not of the input
        monkeypatch.setattr(cli, "koszul_sign", broken)
        assert run_cli(capsys, "brackets", "sl2-borel", "--json") == (
            4, "", f"internal error: {error.__name__}: bad permutation\n"
        )

    def test_bad_phi_arity_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "subalg-check", "sl2-borel", "--phi", "1")
        assert code == 2 and "--phi" in err

    def test_unsupported_command_kind_pair(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "brackets", "sl2")
        assert code == 2


def block_obj(name: str) -> dict:
    """A bundled Lie algebra as a homomorphism's source or target block."""
    obj = json.loads(fixture_path(name).read_text())
    return {"base_dim": 0, "fiber_rank": obj["dimension"], "structure": obj["structure"], "anchor": []}


def homomorphism_obj(source: dict, target: dict, **fields) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": "homomorphism", "source": source, "target": target,
            "bundle_map": [], "base_map": [], "candidate": {"sigma": [], "phi": []}, **fields}


def terms(*monomials) -> list[dict]:
    """Canonical terms of ``(exponents, numer, denom)`` triples."""
    return [{"exponents": list(e), "numer": n, "denom": d} for e, n, d in monomials]


# every (command, kind) pair of the split payloads that run_command supports
SPLIT_COMMANDS = {
    "hom-sl2-id": ("validate", "mc-check", "subalg-check", "simultaneous", "brackets", "axioms", "oracle-compare"),
    "foliation-r3": ("validate", "mc-check", "subalg-check", "cohomology", "brackets", "axioms", "oracle-compare"),
}


def split_args(command: str) -> argparse.Namespace:
    """Default flags, with few probes and a cohomology window that a polynomial base needs."""
    return argparse.Namespace(truncate=1 if command == "cohomology" else None,
                              probes=2 if command == "axioms" else None, seed=None, phi=None, degree=None)


class TestSplitPayloads:
    """Homomorphisms and foliations are presented as subalgebroids once, at parse."""

    def test_homomorphism_and_foliation_round_trip(self):
        anchor = [{"i": 0, "t": 0, "terms": terms(((0,), 1, 1))}]
        line = {"base_dim": 1, "fiber_rank": 1, "structure": [], "anchor": anchor}
        hom = homomorphism_obj(
            line, line,
            bundle_map=[{"i": 0, "j": 0, "terms": terms(((0,), 1, 1))}],
            base_map=[{"k": 0, "terms": terms(((1,), 1, 1))}],
            candidate={"sigma": [{"k": 0, "terms": terms(((2,), 3, 2))}],
                       "phi": [{"i": 0, "j": 0, "terms": terms(((1,), -1, 1))}]},
        )
        foliation = json.loads(fixture_path("foliation-r3").read_text())
        assert foliation["psi"]
        for obj in (hom, foliation):
            first = parse_instance(obj)
            assert not first.payload["candidate"].is_zero()
            assert serialize_instance(first) == obj
            second = parse_instance(serialize_instance(first))
            for key in ("setup", "base", "candidate"):
                assert first.payload.get(key) == second.payload.get(key), key
        # the offsets map into the target block of the sum, after the source frame
        assert parse_instance(hom).payload["candidate"].phi == {(0, 1): {(1,): -1}}

    @pytest.mark.parametrize(
        "preset,command", [(preset, command) for preset, commands in SPLIT_COMMANDS.items() for command in commands]
    )
    def test_commands_normalise_no_polynomial(self, monkeypatch, preset, command):
        from linfty import algebroid

        inst = parse_instance(fixture_path(preset))
        calls = record_calls(monkeypatch, algebroid._as_poly)
        run_command(command, inst, split_args(command))
        if command == "simultaneous":  # its oracle sums the structure and its perturbation as data
            return
        assert calls == []

    def test_valid_homomorphism_squares_no_block(self, monkeypatch):
        from linfty import superfield

        inst = parse_instance(fixture_path("hom-sl2-id"))
        calls = record_calls(monkeypatch, superfield.is_homological)
        for command in SPLIT_COMMANDS["hom-sl2-id"]:
            run_command(command, inst, split_args(command))
        assert calls == []

    @pytest.mark.parametrize("block", ["source", "target"])
    @pytest.mark.parametrize("command", SPLIT_COMMANDS["hom-sl2-id"])
    def test_non_jacobi_block_is_named(self, capsys, tmp_path, block, command):
        blocks = {"source": block_obj("sl2"), "target": block_obj("sl2"), block: block_obj("non-jacobi-3")}
        write_instance(homomorphism_obj(blocks["source"], blocks["target"]), tmp_path / "hom.json")
        flags = ("--probes", "1") if command == "axioms" else ()
        code, out, err = run_cli(capsys, command, str(tmp_path / "hom.json"), *flags)
        assert (code, out) == (2, "")
        assert err == f"precondition failed: invalid {block} algebroid\n"

    @pytest.mark.parametrize("command", ["subalg-check", "mc-check"])
    def test_base_map_that_is_no_homomorphism_is_refused(self, capsys, tmp_path, command):
        identity = [{"i": i, "j": i, "terms": terms(((), 1, 1))} for i in range(3)]
        hom = homomorphism_obj(block_obj("sl2"), block_obj("abelian-3"), bundle_map=identity)
        write_instance(hom, tmp_path / "hom.json")
        code, out, err = run_cli(capsys, command, str(tmp_path / "hom.json"))
        assert (code, out) == (2, "")
        assert err == "precondition failed: the base bundle map is not a homomorphism\n"

    @pytest.mark.parametrize("preset", ["sl2-borel", "tangent-r1-origin", "foliation-r3", "hom-sl2-id"])
    def test_structure_field_is_squared_once_per_split(self, monkeypatch, preset):
        inst = parse_instance(fixture_path(preset))
        calls = record_commutators(monkeypatch)
        for command, count in (("oracle-compare", 1), ("subalg-check", 0), ("oracle-compare", 0)):
            calls.clear()
            run_command(command, inst, split_args(command))
            squares = [x for x, y in calls if x is y]
            assert len(squares) == count, command
            # the split's own structure field, squared by its calculus (SplitSetup.delta reads it)
            assert all(x is inst.payload["setup"].calculus.xq for x in squares)

    def test_refusals_are_raised_on_every_command(self, capsys, monkeypatch, tmp_path):
        import linfty.cli as cli

        hom = homomorphism_obj(block_obj("sl2"), block_obj("non-jacobi-3"))
        # span{e1} is closed in non-jacobi-3, so the split passes the P check and fails the square
        split = {**json.loads(fixture_path("non-jacobi-3").read_text()), "kind": "subalgebra", "sub_rank": 1,
                 "candidate": {"phi": []}}
        cases = [(hom, "invalid target algebroid"), (split, "delta must satisfy [[delta, delta]] = 0")]
        for obj, message in cases:
            write_instance(obj, tmp_path / "case.json")
            inst = parse_instance(tmp_path / "case.json")
            monkeypatch.setattr(cli, "parse_instance", lambda path: inst)  # every command reads one parsed record
            for command in ("subalg-check", "oracle-compare", "subalg-check"):
                code, out, err = run_cli(capsys, command, str(tmp_path / "case.json"))
                assert (code, out, err) == (2, "", f"precondition failed: {message}\n"), command

    def test_axioms_on_an_empty_summand(self, capsys, tmp_path):
        obj = json.loads(fixture_path("sl2-borel").read_text())
        obj["sub_rank"] = 3  # the whole frame: no complement and no normal directions
        write_instance(obj, tmp_path / "full.json")
        code, out, _ = run_cli(capsys, "axioms", str(tmp_path / "full.json"), "--json")
        assert code == 0
        assert json.loads(out)["details"] == {"checked": 0, "failures": []}


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """Python on ``args`` in a new interpreter, so that its integer digit limit is the default one."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def borel_file(tmp_path, numers: tuple[str, str]) -> str:
    """sl2-borel with the candidate phi numerators written as the given digit strings."""
    obj = json.loads(fixture_path("sl2-borel").read_text())
    obj["candidate"]["phi"] = [{"i": i, "j": 2, "terms": [{"exponents": [], "numer": f"@{i}"}]} for i in (0, 1)]
    text = json.dumps(obj)
    for i, numer in enumerate(numers):
        text = text.replace(f'"@{i}"', numer)
    path = tmp_path / "borel.json"
    path.write_text(text)
    return str(path)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no integer digit limit")
class TestLargeCoefficients:
    @pytest.mark.parametrize("command", ["subalg-check", "oracle-compare"])
    def test_long_coefficients_are_rendered(self, tmp_path, command):
        path = borel_file(tmp_path, ("1" + "0" * 2999, "7" * 3000))
        proc = run_fresh("-m", "linfty.cli", command, path, "--json")
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["oracle_agreement"] is True

    def test_main_restores_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        run_cli(capsys, "validate", "sl2")
        assert sys.get_int_max_str_digits() == limit

    def test_literal_over_the_digit_limit(self, tmp_path):
        path = borel_file(tmp_path, ("9" * 5000, "1"))
        script = (
            "import sys\nfrom linfty.instances import InstanceError, parse_instance\n"
            "try:\n    parse_instance(sys.argv[1])\nexcept InstanceError as exc:\n    print(exc.message)\n"
        )
        proc = run_fresh("-c", script, path)
        assert proc.returncode == 0 and proc.stdout.startswith("invalid JSON: "), proc.stderr
        proc = run_fresh("-m", "linfty.cli", "subalg-check", path, "--json")  # the CLI reads it whole
        assert proc.returncode == 1 and json.loads(proc.stdout)["oracle_agreement"] is True, proc.stderr
