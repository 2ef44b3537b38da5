"""The canonical writer of instance files, the inverse of ``linfty.instances.parse_instance``.

The package only reads instances; tests write them to build files and to
check the round trip parse -> serialize -> parse, which is the identity on
canonical files.  A ``lie_algebra`` or ``subalgebra`` is written as its
general kind over a point, with ``fiber_rank`` named ``dimension``.
"""
import json
from pathlib import Path
from typing import Mapping

from linfty.algebroid import AlgebroidData, PolyDict
from linfty.instances import _AT_A_POINT, _OVER_A_POINT, FORMAT_VERSION, InstanceFile
from linfty.subalgebroid import DeformationPair


def _terms_obj(poly: PolyDict) -> list[dict]:
    return [{"exponents": list(e), "numer": poly[e].numerator, "denom": poly[e].denominator} for e in sorted(poly)]


def _entries_obj(polys: Mapping, names: str) -> list[dict]:
    """Inverse of ``instances._parse_entries``: entry objects in key order, zero polynomials left out."""
    return [
        {**dict(zip(names, key if isinstance(key, tuple) else (key,))), "terms": _terms_obj(poly)}
        for key, poly in sorted(polys.items())
        if poly
    ]


def _tensors_obj(data: AlgebroidData) -> dict:
    return {"structure": _entries_obj(data.structure, "ijk"), "anchor": _entries_obj(data.anchor, "it")}


def _block_obj(data: AlgebroidData) -> dict:
    return {"base_dim": data.base_dim, "fiber_rank": data.fiber_rank, **_tensors_obj(data)}


def _as_kind(kind: str, obj: dict) -> dict:
    """A file of ``kind`` holding the general-form fields ``obj``; over a point they are renamed or dropped."""
    obj = {**obj, "format_version": FORMAT_VERSION, "kind": kind}
    if kind in _OVER_A_POINT:
        obj = {name: value for key, value in obj.items() if (name := _AT_A_POINT.get(key, key))}
    return obj


def serialize_algebroid(data: AlgebroidData, kind: str = "algebroid") -> dict:
    return _as_kind(kind, _block_obj(data))


def serialize_pair(d: DeformationPair) -> dict:
    return {"sigma": _entries_obj(d.sigma, "k"), "phi": _entries_obj(d.phi, "ij")}


def serialize_instance(inst: InstanceFile) -> dict:
    """Canonical JSON object of a parsed instance (all kinds)."""
    general, payload = _OVER_A_POINT.get(inst.kind, inst.kind), inst.payload
    if general in ("algebroid", "subalgebroid"):
        obj = serialize_algebroid(payload["data"])
        if general == "subalgebroid":
            setup = payload["setup"]
            # the data's base dimension counts the normal coordinates too
            obj.update(base_dim=setup.base_dim, normal_rank=setup.normal_rank, sub_rank=setup.sub_rank)
        for key in ("candidate", "base", "candidate_xq"):
            if key in payload:
                value = payload[key]
                obj[key] = serialize_pair(value) if isinstance(value, DeformationPair) else _tensors_obj(value)
    elif general == "foliation":
        setup = payload["setup"]
        # frame field i is the anchor of frame element i
        frames = [{t: poly for (i, t), poly in setup.data.anchor.items() if i == fi} for fi in range(setup.base_dim)]
        obj = {
            "base_dim": setup.base_dim,
            "sub_rank": setup.sub_rank,
            "frames": [_entries_obj(frame, "t") for frame in frames],
            "psi": _entries_obj(payload["candidate"].phi, "ij"),
        }
    else:  # a homomorphism
        h, cand = payload["homomorphism"], payload["candidate"]
        # the candidate's bundle map sends the source frame into the target block of the sum
        offset = h.source.fiber_rank
        obj = {
            "source": _block_obj(h.source),
            "target": _block_obj(h.target),
            "bundle_map": _entries_obj(h.bundle_map, "ij"),
            "base_map": _entries_obj(h.base_map, "k"),
            "candidate": {
                "sigma": _entries_obj(cand.sigma, "k"),
                "phi": _entries_obj({(i, j - offset): poly for (i, j), poly in cand.phi.items()}, "ij"),
            },
        }
        if "candidate_xq" in payload:
            obj["candidate_xq"] = {which: _tensors_obj(pert) for which, pert in sorted(payload["candidate_xq"].items())}
    return _as_kind(inst.kind, obj)


def write_instance(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
