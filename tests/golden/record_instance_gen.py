"""Record ``instance_gen.json``: the instances ``tests/instance_gen.py`` draws per seed.

Run from a checkout with ``PYTHONPATH=src python tests/golden/record_instance_gen.py``.
For each seed the file holds the serialised split instance (ambient tensors,
split dimensions and one random candidate) that ``random_instance`` and
``random_candidate`` produce from ``random.Random(seed)``, so a change to
the generator or to the algebroid calculus it uses shows up as a changed
entry.  Re-record it only for an intended change of the generated instances.
"""
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from instance_gen import random_candidate, random_instance  # noqa: E402
from instance_writer import serialize_algebroid, serialize_pair  # noqa: E402

SEEDS = range(40)


def record_seed(seed: int) -> dict:
    rng = random.Random(seed)
    setup, _ = random_instance(rng)
    obj = serialize_algebroid(setup.data, kind="subalgebroid")
    obj.update(base_dim=setup.base_dim, normal_rank=setup.normal_rank, sub_rank=setup.sub_rank)
    obj["candidate"] = serialize_pair(random_candidate(setup, rng))
    return obj


def record() -> dict[str, dict]:
    return {str(seed): record_seed(seed) for seed in SEEDS}


if __name__ == "__main__":
    path = Path(__file__).with_name("instance_gen.json")
    path.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
