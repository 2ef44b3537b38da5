"""Instance file schema: versioned JSON with exact rational polynomial terms.

Every polynomial is a list of terms; a term carries an exponent vector over
the even coordinates and an integer numerator/denominator pair.  A
``lie_algebra`` or ``subalgebra`` file is read as an
``algebroid`` or ``subalgebroid`` over a point.  Parsing errors, an unknown
key among them, point at the offending field path.
"""
from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any

from .algebroid import AlgebroidData
from .applications import HomomorphismData, foliation_setup, graph_setup
from .subalgebroid import DeformationPair, SplitSetup
from .superfield import Record

FORMAT_VERSION = 1

KINDS = ("algebroid", "subalgebroid", "lie_algebra", "subalgebra", "foliation", "homomorphism")


class InstanceError(ValueError):
    """Malformed instance file; the message carries the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path, self.message = path, message

    def under(self, prefix: str) -> "InstanceError":
        """The same error, its path read below ``prefix`` (paths inside a list entry are built only on failure)."""
        return InstanceError(prefix + self.path, self.message)


class InstanceFile(Record):
    __slots__ = _fields = ("kind", "payload")

    def __init__(self, kind: str, payload: dict[str, Any]):
        self.kind, self.payload = kind, payload


# A Lie algebra (subalgebra) is a Lie algebroid (subalgebroid) over a point.  Its file is the general
# kind's with ``fiber_rank`` named ``dimension``, and without ``base_dim``, ``normal_rank`` or ``anchor``.
_OVER_A_POINT = {"lie_algebra": "algebroid", "subalgebra": "subalgebroid"}
_AT_A_POINT = {"fiber_rank": "dimension", "base_dim": None, "normal_rank": None, "anchor": None}

# the keys each object of the schema may hold; any other key is refused at its path
_TENSORS = frozenset(("structure", "anchor"))
_BLOCK = _TENSORS | {"base_dim", "fiber_rank"}
_PAIR = frozenset(("sigma", "phi"))
_TERM = frozenset(("exponents", "numer", "denom"))
_KEYS = {  # each kind's top-level keys besides format_version and kind
    "algebroid": (*_BLOCK, "candidate"),
    "subalgebroid": (*_BLOCK, "normal_rank", "sub_rank", "candidate", "base", "candidate_xq"),
    "foliation": ("base_dim", "sub_rank", "frames", "psi"),
    "homomorphism": ("source", "target", "bundle_map", "base_map", "candidate", "candidate_xq"),
}
for _point, _general in _OVER_A_POINT.items():
    _KEYS[_point] = {_AT_A_POINT.get(key, key) for key in _KEYS[_general]} - {None}
_KEYS = {kind: frozenset(keys) | {"format_version", "kind"} for kind, keys in _KEYS.items()}


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise InstanceError(path, message)


def _only(obj: dict, keys: frozenset, path: str):
    """Refuse the first key of ``obj`` that ``keys`` does not list."""
    if not obj.keys() <= keys:
        key = next(k for k in obj if k not in keys)
        raise InstanceError(f"{path}.{key}", f"unknown key (expected one of {', '.join(sorted(keys))})")


def _int(obj: dict, key: str, path: str, low: int | None = 0, high: int | None = None, default: Any = None) -> int:
    """The integer ``obj[key]`` in low..high (None leaves that end open); ``true``/``false`` are not integers."""
    value = obj.get(key, default)
    if type(value) is int and (low is None or value >= low) and (high is None or value <= high):
        return value
    message = (
        "expected an integer" if type(value) is not int
        else f"expected an integer >= {low}" if high is None else f"index out of range {low}..{high}"
    )
    raise InstanceError(f"{path}.{key}", message)


def _parse_terms(obj: Any, n_even: int, path: str, poly: dict) -> None:
    """Add a list of terms into ``poly``, raw: the record build that takes it normalises it."""
    _expect(isinstance(obj, list), path, "expected a list of terms")
    for idx, term in enumerate(obj):
        try:
            _expect(isinstance(term, dict), "", "expected a term object")
            exps = term.get("exponents", [])
            if not isinstance(exps, list) or len(exps) != n_even or not all(type(e) is int and e >= 0 for e in exps):
                raise InstanceError(".exponents", f"expected a list of {n_even} nonnegative integers")
            numer = _int(term, "numer", "", None)
            denom = _int(term, "denom", "", 1, default=1)
            _only(term, _TERM, "")
        except InstanceError as exc:
            raise exc.under(f"{path}[{idx}]") from None
        if numer:
            key = tuple(exps)
            poly[key] = poly.get(key, 0) + (numer if denom == 1 else Fraction(numer, denom))


def _parse_entries(obj: Any, path: str, n_even: int, names: str, bounds: tuple[range, ...]) -> dict:
    """Parse ``[{name: index, ..., "terms": [...]}, ...]`` into {key: polynomial}, summed raw.

    ``names`` gives one letter per index field; the key is the tuple of the
    indices, or the index itself for a single field.  Each index must be an
    integer in its entry of ``bounds``.  Entries with equal keys add up; the
    sums are left for ``poly_map`` to normalise.
    """
    _expect(isinstance(obj, list), path, "expected a list")
    keys = frozenset((*names, "terms"))
    out: dict = {}
    for idx, entry in enumerate(obj):
        try:
            _expect(isinstance(entry, dict), "", "expected an object")
            key = tuple([_int(entry, name, "", r.start, r.stop - 1) for name, r in zip(names, bounds)])
            _parse_terms(entry.get("terms", []), n_even, ".terms", out.setdefault(key if len(key) > 1 else key[0], {}))
            _only(entry, keys, "")
        except InstanceError as exc:
            raise exc.under(f"{path}[{idx}]") from None
    return out


def _parse_tensors(obj: Any, base_dim: int, rank: int, path: str, keys: frozenset = _TENSORS) -> AlgebroidData:
    """Structure and anchor lists of an object of the given ``keys`` (a point kind's top level lists no anchor)."""
    _expect(isinstance(obj, dict), path, "expected an object")
    entries = obj.get("structure", [])
    structure = _parse_entries(entries, f"{path}.structure", base_dim, "ijk", (range(rank),) * 3)
    for idx, entry in enumerate(entries):  # every entry is an object with integer indices by now
        _expect(entry["i"] != entry["j"], f"{path}.structure[{idx}]", "diagonal structure entries must be omitted")
    anchor = obj.get("anchor", []) if "anchor" in keys else []
    anchor = _parse_entries(anchor, f"{path}.anchor", base_dim, "it", (range(rank), range(base_dim)))
    try:
        data = AlgebroidData.build(base_dim, rank, structure, anchor)
    except ValueError as exc:
        raise InstanceError(path, str(exc)) from exc
    _only(obj, keys, path)
    return data


def _parse_sigma_phi(obj: Any, n_even: int, path: str, normal: range, sub: range, comp: range) -> tuple[dict, dict]:
    """The ``sigma`` (k, terms) and ``phi`` (i, j, terms) lists of a candidate object.

    k must lie in ``normal``, i in ``sub`` and j in ``comp``.
    """
    _expect(isinstance(obj, dict), path, "expected an object")
    sigma = _parse_entries(obj.get("sigma", []), f"{path}.sigma", n_even, "k", (normal,))
    phi = _parse_entries(obj.get("phi", []), f"{path}.phi", n_even, "ij", (sub, comp))
    _only(obj, _PAIR, path)
    return sigma, phi


def _parse_candidate_pair(obj: Any, setup: SplitSetup, path: str) -> DeformationPair:
    normal = range(setup.normal_rank)
    sigma, phi = _parse_sigma_phi(obj, setup.base_dim, path, normal, setup.sub_indices, setup.comp_indices)
    return DeformationPair.build(setup, sigma=sigma, phi=phi)


def _read_algebroid(obj: dict, kind: str) -> dict:
    """The payload of an ``algebroid`` or ``subalgebroid`` file, or of either over a point."""
    point, split = kind in _OVER_A_POINT, _OVER_A_POINT.get(kind, kind) == "subalgebroid"
    p = 0 if point else _int(obj, "base_dim", "$")
    q = _int(obj, "normal_rank", "$") if split and not point else 0
    rank = _int(obj, "dimension" if point else "fiber_rank", "$")
    sub_rank = _int(obj, "sub_rank", "$", 0, rank) if split else 0
    data = _parse_tensors(obj, p + q, rank, "$", _KEYS[kind])
    payload: dict[str, Any] = {"data": data}
    if not split:
        if "candidate" in obj:
            payload["candidate"] = _parse_tensors(obj["candidate"], p, rank, "$.candidate")
        return payload
    try:
        payload["setup"] = setup = SplitSetup.build(data, p, q, sub_rank)
    except ValueError as exc:
        raise InstanceError("$", str(exc)) from exc
    payload["candidate"] = _parse_candidate_pair(obj.get("candidate", {}), setup, "$.candidate")
    if "base" in obj:
        payload["base"] = _parse_candidate_pair(obj["base"], setup, "$.base")
    if "candidate_xq" in obj:
        payload["candidate_xq"] = _parse_tensors(obj["candidate_xq"], p + q, rank, "$.candidate_xq")
    return payload


def _read_foliation(obj: dict, kind: str) -> dict:
    base_dim = _int(obj, "base_dim", "$", 1)
    sub_rank = _int(obj, "sub_rank", "$", 0, base_dim)
    frames_obj = obj.get("frames")
    if not isinstance(frames_obj, list) or len(frames_obj) != base_dim:
        raise InstanceError("$.frames", f"expected {base_dim} frame fields")
    coords = (range(base_dim),)
    frames = [_parse_entries(f, f"$.frames[{fi}]", base_dim, "t", coords) for fi, f in enumerate(frames_obj)]
    try:
        setup = foliation_setup(base_dim, sub_rank, frames)
    except ValueError as exc:
        raise InstanceError("$.frames", str(exc)) from exc
    psi = _parse_entries(obj.get("psi", []), "$.psi", base_dim, "ij", (range(sub_rank), range(sub_rank, base_dim)))
    return {"setup": setup, "candidate": DeformationPair.build(setup, phi=psi)}


def _parse_block(obj: Any, path: str) -> AlgebroidData:
    """A homomorphism's source or target algebroid."""
    _expect(isinstance(obj, dict), path, "expected an object")
    return _parse_tensors(obj, _int(obj, "base_dim", path), _int(obj, "fiber_rank", path), path, _BLOCK)


def _read_homomorphism(obj: dict, kind: str) -> dict:
    source, target = _parse_block(obj.get("source", {}), "$.source"), _parse_block(obj.get("target", {}), "$.target")
    m = source.base_dim
    frames, coords = (range(source.fiber_rank), range(target.fiber_rank)), (range(target.base_dim),)
    bundle = _parse_entries(obj.get("bundle_map", []), "$.bundle_map", m, "ij", frames)
    base_map = _parse_entries(obj.get("base_map", []), "$.base_map", m, "k", coords)
    h = HomomorphismData.build(source, target, bundle, base_map)
    cand_base, cand_bundle = _parse_sigma_phi(obj.get("candidate", {}), m, "$.candidate", *coords, *frames)
    offsets = HomomorphismData.build(source, target, cand_bundle, cand_base)
    payload: dict[str, Any] = {"homomorphism": h}
    payload["setup"], payload["base"], payload["candidate"] = graph_setup(h, offsets)
    if "candidate_xq" in obj:
        cxq = obj["candidate_xq"]
        _expect(isinstance(cxq, dict), "$.candidate_xq", "expected an object")
        payload["candidate_xq"] = {
            which: _parse_tensors(cxq[which], data.base_dim, data.fiber_rank, f"$.candidate_xq.{which}")
            for which, data in (("source", source), ("target", target))
            if which in cxq
        }
        _only(cxq, frozenset(("source", "target")), "$.candidate_xq")
    return payload


_READERS = {"algebroid": _read_algebroid, "subalgebroid": _read_algebroid, "foliation": _read_foliation,
            "homomorphism": _read_homomorphism}


def parse_instance(path_or_obj) -> InstanceFile:
    """Load and schema-check an instance file (or an already-parsed object)."""
    if isinstance(path_or_obj, (str, Path)):
        source = str(path_or_obj)
        try:
            text = Path(path_or_obj).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise InstanceError(source, f"cannot read file: {exc}") from exc
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:  # a JSONDecodeError, or an integer over the digit limit
            raise InstanceError(source, f"invalid JSON: {exc}") from exc
    else:
        obj = path_or_obj
    _expect(isinstance(obj, dict), "$", "expected a JSON object")
    version = obj.get("format_version")
    _expect(type(version) is int and version == FORMAT_VERSION, "$.format_version", f"expected {FORMAT_VERSION}")
    kind = obj.get("kind")
    _expect(kind in KINDS, "$.kind", f"expected one of {KINDS}")
    payload = _READERS[_OVER_A_POINT.get(kind, kind)](obj, kind)
    _only(obj, _KEYS[kind], "$")
    return InstanceFile(kind, payload)


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
