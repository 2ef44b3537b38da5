"""Instance file schema: versioned JSON with exact rational polynomial terms.

Every polynomial is a list of terms; a term carries an exponent vector over
the even coordinates and an integer numerator/denominator pair.  Parsing
errors point at the offending field path.  Parse -> serialize -> parse is
the identity on canonical files.
"""
from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .algebroid import AlgebroidData, PolyDict, merge_polys
from .applications import FoliationSetup, HomomorphismData
from .subalgebroid import DeformationPair, SplitSetup
from .superfield import Record, coefficient
from .valgebra import DEFAULT_SERIES_CAP

FORMAT_VERSION = 1

KINDS = ("algebroid", "subalgebroid", "lie_algebra", "subalgebra", "foliation", "homomorphism")


class InstanceError(ValueError):
    """Malformed instance file; the message carries the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class Options(Record):
    __slots__ = _fields = ("series_cap", "truncate", "probes", "seed")

    def __init__(self, series_cap: int = DEFAULT_SERIES_CAP, truncate: int | None = None, probes: int = 100,
                 seed: int = 0):
        self.series_cap, self.truncate, self.probes, self.seed = series_cap, truncate, probes, seed


class InstanceFile(Record):
    __slots__ = _fields = ("kind", "payload", "options", "source")

    def __init__(self, kind: str, payload: dict[str, Any], options: Options | None = None, source: str = "<memory>"):
        self.kind, self.payload, self.source = kind, payload, source
        self.options = Options() if options is None else options


def _is_int(value: Any) -> bool:
    """A JSON integer; ``true`` and ``false`` are not (``bool`` subclasses ``int``)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise InstanceError(path, message)


def _parse_terms(obj: Any, n_even: int, path: str) -> PolyDict:
    _expect(isinstance(obj, list), path, "expected a list of terms")
    poly: PolyDict = {}
    for idx, term in enumerate(obj):
        tpath = f"{path}[{idx}]"
        _expect(isinstance(term, dict), tpath, "expected a term object")
        exps = term.get("exponents", [])
        _expect(isinstance(exps, list), f"{tpath}.exponents", "expected a list")
        _expect(
            len(exps) == n_even, f"{tpath}.exponents", f"expected {n_even} exponents"
        )
        _expect(all(_is_int(e) and e >= 0 for e in exps), f"{tpath}.exponents", "exponents must be nonnegative integers")
        numer = term.get("numer")
        denom = term.get("denom", 1)
        _expect(_is_int(numer), f"{tpath}.numer", "expected an integer")
        _expect(_is_int(denom), f"{tpath}.denom", "expected an integer")
        _expect(denom > 0, f"{tpath}.denom", "denominator must be positive")
        c = Fraction(numer, denom)
        if c != 0:
            key = tuple(exps)
            poly[key] = poly.get(key, 0) + c
    return {k: coefficient(v) for k, v in poly.items() if v != 0}


def _parse_entries(obj: Any, path: str, n_even: int, names: str, bounds: tuple[range, ...] = ()) -> dict:
    """Parse ``[{name: index, ..., "terms": [...]}, ...]`` into {key: polynomial}, by ``merge_polys``.

    ``names`` gives one letter per index field; the key is the tuple of the
    indices, or the index itself for a single field.  Each index must be an
    integer, in its entry of ``bounds`` where one is given.  Entries with
    equal keys add up, and zero polynomials are dropped.
    """
    _expect(isinstance(obj, list), path, "expected a list")
    out = []
    for idx, entry in enumerate(obj):
        epath = f"{path}[{idx}]"
        _expect(isinstance(entry, dict), epath, "expected an object")
        key = []
        for pos, name in enumerate(names):
            v = entry.get(name)
            _expect(_is_int(v), f"{epath}.{name}", "expected an integer")
            if pos < len(bounds):
                r = bounds[pos]
                _expect(v in r, f"{epath}.{name}", f"index out of range {r.start}..{r.stop - 1}")
            key.append(v)
        poly = _parse_terms(entry.get("terms", []), n_even, f"{epath}.terms")
        out.append((tuple(key) if len(key) > 1 else key[0], poly))
    return merge_polys(out)


def _parse_tensors(obj: Any, base_dim: int, rank: int, path: str) -> AlgebroidData:
    """Structure and anchor tensor lists of an object, over the given dimensions."""
    _expect(isinstance(obj, dict), path, "expected an object")
    entries = obj.get("structure", [])
    structure = _parse_entries(entries, f"{path}.structure", base_dim, "ijk", (range(rank),) * 3)
    for idx, entry in enumerate(entries):  # every entry is an object with integer indices by now
        _expect(entry["i"] != entry["j"], f"{path}.structure[{idx}]", "diagonal structure entries must be omitted")
    anchor = _parse_entries(obj.get("anchor", []), f"{path}.anchor", base_dim, "it", (range(rank), range(base_dim)))
    try:
        return AlgebroidData.build(base_dim, rank, structure, anchor)
    except ValueError as exc:
        raise InstanceError(path, str(exc)) from exc


def _parse_algebroid(obj: Any, path: str) -> AlgebroidData:
    _expect(isinstance(obj, dict), path, "expected an object")
    base_dim = obj.get("base_dim")
    rank = obj.get("fiber_rank")
    _expect(_is_int(base_dim) and base_dim >= 0, f"{path}.base_dim", "expected a nonnegative integer")
    _expect(_is_int(rank) and rank >= 0, f"{path}.fiber_rank", "expected a nonnegative integer")
    return _parse_tensors(obj, base_dim, rank, path)


def _parse_sigma_phi(obj: Any, n_even: int, path: str, normal: range, sub: range, comp: range) -> tuple[dict, dict]:
    """The ``sigma`` (k, terms) and ``phi`` (i, j, terms) lists of a candidate object.

    k must lie in ``normal``, i in ``sub`` and j in ``comp``.
    """
    _expect(isinstance(obj, dict), path, "expected an object")
    sigma = _parse_entries(obj.get("sigma", []), f"{path}.sigma", n_even, "k", (normal,))
    return sigma, _parse_entries(obj.get("phi", []), f"{path}.phi", n_even, "ij", (sub, comp))


def _parse_candidate_pair(obj: Any, setup: SplitSetup, path: str) -> DeformationPair:
    normal, sub, comp = range(setup.normal_rank), range(setup.sub_rank), range(setup.sub_rank, setup.data.fiber_rank)
    sigma, phi = _parse_sigma_phi(obj, setup.base_dim, path, normal, sub, comp)
    return DeformationPair.build(setup, sigma=sigma, phi=phi)


def parse_instance(path_or_obj) -> InstanceFile:
    """Load and schema-check an instance file (or an already-parsed object)."""
    if isinstance(path_or_obj, (str, Path)):
        source = str(path_or_obj)
        try:
            text = Path(path_or_obj).read_text()
        except OSError as exc:
            raise InstanceError(source, f"cannot read file: {exc}") from exc
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InstanceError(source, f"invalid JSON: {exc}") from exc
    else:
        source = "<memory>"
        obj = path_or_obj
    _expect(isinstance(obj, dict), "$", "expected a JSON object")
    version = obj.get("format_version")
    _expect(_is_int(version) and version == FORMAT_VERSION, "$.format_version", f"expected {FORMAT_VERSION}")
    kind = obj.get("kind")
    _expect(kind in KINDS, "$.kind", f"expected one of {KINDS}")

    opts_obj = obj.get("options", {})
    _expect(isinstance(opts_obj, dict), "$.options", "expected an object")
    options = Options()
    if "series_cap" in opts_obj:
        _expect(_is_int(opts_obj["series_cap"]) and opts_obj["series_cap"] > 0, "$.options.series_cap", "expected a positive integer")
        options.series_cap = opts_obj["series_cap"]
    if "truncate" in opts_obj and opts_obj["truncate"] is not None:
        _expect(_is_int(opts_obj["truncate"]) and opts_obj["truncate"] >= 0, "$.options.truncate", "expected a nonnegative integer")
        options.truncate = opts_obj["truncate"]
    if "probes" in opts_obj:
        _expect(_is_int(opts_obj["probes"]) and opts_obj["probes"] >= 0, "$.options.probes", "expected a nonnegative integer")
        options.probes = opts_obj["probes"]
    if "seed" in opts_obj:
        _expect(_is_int(opts_obj["seed"]), "$.options.seed", "expected an integer")
        options.seed = opts_obj["seed"]

    instance = InstanceFile(kind=kind, payload={}, options=options, source=source)

    if kind in ("algebroid", "lie_algebra"):
        if kind == "lie_algebra":
            dim = obj.get("dimension")
            _expect(_is_int(dim) and dim >= 0, "$.dimension", "expected a nonnegative integer")
            data = _parse_tensors({"structure": obj.get("structure", [])}, 0, dim, "$")
        else:
            data = _parse_algebroid(obj, "$")
        instance.payload["data"] = data
        if "candidate" in obj:
            instance.payload["candidate"] = _parse_tensors(obj["candidate"], data.base_dim, data.fiber_rank, "$.candidate")
        return instance

    if kind in ("subalgebroid", "subalgebra"):
        if kind == "subalgebra":
            dim = obj.get("dimension")
            _expect(_is_int(dim) and dim >= 0, "$.dimension", "expected a nonnegative integer")
            sub_rank = obj.get("sub_rank")
            _expect(_is_int(sub_rank) and 0 <= sub_rank <= dim, "$.sub_rank", "sub rank out of range")
            shaped = {"structure": obj.get("structure", [])}
            p, q, l, rank = 0, 0, sub_rank, dim
        else:
            p = obj.get("base_dim")
            q = obj.get("normal_rank")
            l = obj.get("sub_rank")
            rank = obj.get("fiber_rank")
            _expect(_is_int(p) and p >= 0, "$.base_dim", "expected a nonnegative integer")
            _expect(_is_int(q) and q >= 0, "$.normal_rank", "expected a nonnegative integer")
            _expect(_is_int(rank) and rank >= 0, "$.fiber_rank", "expected a nonnegative integer")
            _expect(_is_int(l) and 0 <= l <= rank, "$.sub_rank", "sub rank out of range")
            shaped = obj
        data = _parse_tensors(shaped, p + q, rank, "$")
        try:
            setup = SplitSetup.build(data, p, q, l)
        except ValueError as exc:
            raise InstanceError("$", str(exc)) from exc
        instance.payload["data"] = data
        instance.payload["setup"] = setup
        instance.payload["candidate"] = _parse_candidate_pair(obj.get("candidate", {}), setup, "$.candidate")
        if "base" in obj:
            instance.payload["base"] = _parse_candidate_pair(obj["base"], setup, "$.base")
        if "candidate_xq" in obj:
            instance.payload["candidate_xq"] = _parse_tensors(obj["candidate_xq"], data.base_dim, data.fiber_rank, "$.candidate_xq")
        return instance

    if kind == "foliation":
        base_dim = obj.get("base_dim")
        sub_rank = obj.get("sub_rank")
        _expect(_is_int(base_dim) and base_dim > 0, "$.base_dim", "expected a positive integer")
        _expect(_is_int(sub_rank) and 0 <= sub_rank <= base_dim, "$.sub_rank", "sub rank out of range")
        frames_obj = obj.get("frames")
        _expect(isinstance(frames_obj, list) and len(frames_obj) == base_dim, "$.frames", f"expected {base_dim} frame fields")
        frames = []
        for fi, entries in enumerate(frames_obj):
            _expect(isinstance(entries, list), f"$.frames[{fi}]", "expected a list of components")
            frames.append(_parse_entries(entries, f"$.frames[{fi}]", base_dim, "t", (range(base_dim),)))
        try:
            fol = FoliationSetup.build(base_dim, sub_rank, frames)
        except ValueError as exc:
            raise InstanceError("$.frames", str(exc)) from exc
        psi = _parse_entries(obj.get("psi", []), "$.psi", base_dim, "ij", (range(sub_rank), range(sub_rank, base_dim)))
        instance.payload["foliation"] = fol
        instance.payload["psi"] = psi
        return instance

    if kind == "homomorphism":
        source_data = _parse_algebroid(obj.get("source", {}), "$.source")
        target_data = _parse_algebroid(obj.get("target", {}), "$.target")
        m = source_data.base_dim
        frames = (range(source_data.fiber_rank), range(target_data.fiber_rank))
        coords = (range(target_data.base_dim),)
        bundle = _parse_entries(obj.get("bundle_map", []), "$.bundle_map", m, "ij", frames)
        base_map = _parse_entries(obj.get("base_map", []), "$.base_map", m, "k", coords)
        instance.payload["homomorphism"] = HomomorphismData.build(source_data, target_data, bundle, base_map)
        cand_base, cand_bundle = _parse_sigma_phi(obj.get("candidate", {}), m, "$.candidate", *coords, *frames)
        instance.payload["candidate_bundle"] = cand_bundle
        instance.payload["candidate_base"] = cand_base
        if "candidate_xq" in obj:
            cxq = obj["candidate_xq"]
            _expect(isinstance(cxq, dict), "$.candidate_xq", "expected an object")
            pert = {
                which: _parse_tensors(cxq[which], data.base_dim, data.fiber_rank, f"$.candidate_xq.{which}")
                for which, data in (("source", source_data), ("target", target_data))
                if which in cxq
            }
            instance.payload["candidate_xq"] = pert
        return instance

    raise InstanceError("$.kind", f"unsupported kind {kind!r}")


# ---------------------------------------------------------------------
# serialization (canonical form)
# ---------------------------------------------------------------------
def _terms_obj(poly: PolyDict) -> list[dict]:
    out = []
    for exps in sorted(poly):
        c = poly[exps]
        out.append({"exponents": list(exps), "numer": c.numerator, "denom": c.denominator})
    return out


def _entries_obj(polys: Mapping, names: str) -> list[dict]:
    """Inverse of ``_parse_entries``: entry objects in key order, zero polynomials left out."""
    return [
        {**dict(zip(names, key if isinstance(key, tuple) else (key,))), "terms": _terms_obj(poly)}
        for key, poly in sorted(polys.items())
        if poly
    ]


def _tensors_obj(data: AlgebroidData) -> dict:
    return {"structure": _entries_obj(data.structure, "ijk"), "anchor": _entries_obj(data.anchor, "it")}


def serialize_algebroid(data: AlgebroidData, kind: str = "algebroid") -> dict:
    obj: dict[str, Any] = {"format_version": FORMAT_VERSION, "kind": kind}
    if kind == "lie_algebra":
        obj["dimension"] = data.fiber_rank
        obj["structure"] = _tensors_obj(data)["structure"]
    else:
        obj["base_dim"] = data.base_dim
        obj["fiber_rank"] = data.fiber_rank
        obj.update(_tensors_obj(data))
    return obj


def serialize_pair(d: DeformationPair) -> dict:
    return {"sigma": _entries_obj(d.sigma, "k"), "phi": _entries_obj(d.phi, "ij")}


def serialize_instance(inst: InstanceFile) -> dict:
    """Canonical JSON object of a parsed instance (all kinds); options only where they differ from the defaults."""
    obj: dict[str, Any] = {"format_version": FORMAT_VERSION, "kind": inst.kind}
    if inst.kind in ("algebroid", "lie_algebra"):
        data: AlgebroidData = inst.payload["data"]
        obj.update(serialize_algebroid(data, kind=inst.kind))
        if "candidate" in inst.payload:
            obj["candidate"] = _tensors_obj(inst.payload["candidate"])
    elif inst.kind in ("subalgebroid", "subalgebra"):
        setup: SplitSetup = inst.payload["setup"]
        data = inst.payload["data"]
        if inst.kind == "subalgebra":
            obj["dimension"] = data.fiber_rank
            obj["sub_rank"] = setup.sub_rank
            obj["structure"] = _tensors_obj(data)["structure"]
        else:
            obj["base_dim"] = setup.base_dim
            obj["normal_rank"] = setup.normal_rank
            obj["sub_rank"] = setup.sub_rank
            obj["fiber_rank"] = data.fiber_rank
            obj.update(_tensors_obj(data))
        obj["candidate"] = serialize_pair(inst.payload["candidate"])
        if "base" in inst.payload:
            obj["base"] = serialize_pair(inst.payload["base"])
        if "candidate_xq" in inst.payload:
            obj["candidate_xq"] = _tensors_obj(inst.payload["candidate_xq"])
    elif inst.kind == "foliation":
        fol: FoliationSetup = inst.payload["foliation"]
        obj["base_dim"] = fol.base_dim
        obj["sub_rank"] = fol.sub_rank
        obj["frames"] = [_entries_obj(dict(enumerate(frame)), "t") for frame in fol.frames]
        obj["psi"] = _entries_obj(inst.payload["psi"], "ij")
    elif inst.kind == "homomorphism":
        h: HomomorphismData = inst.payload["homomorphism"]
        for field_name, data in (("source", h.source), ("target", h.target)):
            obj[field_name] = {"base_dim": data.base_dim, "fiber_rank": data.fiber_rank, **_tensors_obj(data)}
        obj["bundle_map"] = _entries_obj(h.bundle_map, "ij")
        obj["base_map"] = _entries_obj(h.base_map, "k")
        obj["candidate"] = {
            "sigma": _entries_obj(inst.payload["candidate_base"], "k"),
            "phi": _entries_obj(inst.payload["candidate_bundle"], "ij"),
        }
        if "candidate_xq" in inst.payload:
            obj["candidate_xq"] = {
                which: _tensors_obj(pert)
                for which, pert in sorted(inst.payload["candidate_xq"].items())
            }
    else:
        raise InstanceError("$.kind", f"cannot serialize kind {inst.kind!r}")
    defaults = Options()
    options = {
        name: value for name in Options._fields if (value := getattr(inst.options, name)) != getattr(defaults, name)
    }
    if options:
        obj["options"] = options
    return obj


def write_instance(obj: dict, path: str | Path):
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------
# bundled fixtures / presets
# ---------------------------------------------------------------------
def fixture_path(name: str) -> Path:
    """Path of a bundled fixture; name may omit the .json suffix."""
    if not name.endswith(".json"):
        name = name + ".json"
    base = resources.files("linfty").joinpath("fixtures")
    candidate = base.joinpath(name)
    if not candidate.is_file():
        raise InstanceError(name, "unknown bundled fixture")
    return Path(str(candidate))


def resolve_instance(spec: str) -> Path:
    """Resolve a CLI argument: a filesystem path or a bundled preset name."""
    p = Path(spec)
    if p.exists():
        return p
    try:
        return fixture_path(spec)
    except InstanceError:
        raise InstanceError(spec, "not a file and not a bundled preset")
