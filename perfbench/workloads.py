"""What each workload runs: inputs, the timed operations and digests.

Shared by the sample processes (:mod:`sample`) and by :mod:`record`,
which writes the expected outputs the correctness checks compare with.
Every input derives from a seed; seeds index a fixed pool whose
expected outputs are recorded in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

#: Input seeds with recorded expected outputs (``expected.json``).
POOL = 16
#: The pool is split into this many strata by recorded operation time;
#: a run takes its inputs one stratum after another (:func:`input_seed`).
STRATA = 3
#: GenLink parameters of both learn workloads.
POPULATION = 100
ITERATIONS = 25
#: ``(dataset, scale)`` per learn operation.
LEARN = {"cora-learn": ("cora", 0.10), "linkedmdb-learn": ("linkedmdb", 0.60)}
#: The operations one sample of a workload runs, one after another and
#: each in a fresh interpreter: a learn operation (:data:`LEARN`) or the
#: execute operation ``cora-execute``. ``expected.json`` and the input
#: strata are kept per operation. ``service-jobs`` is not listed: its
#: samples are cycles of one long-lived service.
STEPS = {
    "cora-pipeline": ("cora-learn", "cora-execute"),
    "linkedmdb-learn": ("linkedmdb-learn",),
}
#: Cora scale the pinned rule is executed over (~63k candidate pairs).
EXECUTE_SCALE = 0.20
#: Cora scale of the service's link jobs.
SERVICE_SCALE = 0.10
#: Delta jobs per link job, and each delta's size (~1% of 188 entities).
DELTAS = 10
UPSERTS = 2
DELETES = 2
#: Registry lineage the service workload publishes the pinned rule to.
LINEAGE = "perfbench/cora/pinned"
RULE_FILE = HERE / "cora_rule.json"
EXPECTED_FILE = HERE / "expected.json"


def strata(operation: str) -> list[list[int]]:
    """Pool seeds ordered by the recorded time of ``operation`` (a step
    of :data:`STEPS`, or ``service-jobs`` for its link jobs), cut into
    :data:`STRATA` groups of near-equal size (fast to slow)."""
    if operation == "service-jobs":
        times = {int(seed): entry["service_link_s"]
                 for seed, entry in expected()["cora-execute"].items()}
    else:
        times = {int(seed): entry["op_s"]
                 for seed, entry in expected()[operation].items()}
    ordered = sorted(times, key=lambda seed: (times[seed], seed))
    size = len(ordered) / STRATA
    return [ordered[round(i * size):round((i + 1) * size)] for i in range(STRATA)]


def input_seed(operation: str, run_seed: int, index: int) -> int:
    """The pool seed of a run's ``index``-th input to ``operation``.

    Consecutive indexes walk the strata in turn, so every round of
    :data:`STRATA` samples holds one fast, one middle and one slow
    input, and the run's median rests on its middle one. Which member
    of a stratum comes next is a shuffle seeded by the run seed."""
    groups = strata(operation)
    group = groups[index % STRATA]
    order = random.Random(f"{operation}:{run_seed}:{index % STRATA}").sample(
        group, len(group))
    return order[(index // STRATA) % len(group)]


def pinned_rule_dict() -> dict:
    return json.loads(RULE_FILE.read_text(encoding="utf-8"))


def pinned_rule():
    from repro.core.serialization import rule_from_dict

    return rule_from_dict(pinned_rule_dict())


def learn_inputs(workload: str, seed: int):
    """``(dataset, train, validation, rng)`` of one learn sample."""
    from repro.data.splits import train_validation_split
    from repro.datasets import load_dataset

    name, scale = LEARN[workload]
    dataset = load_dataset(name, seed=seed, scale=scale)
    rng = random.Random(seed)
    train, validation = train_validation_split(dataset.links, rng)
    return dataset, train, validation, rng


def learn(dataset, train, validation, rng):
    """The timed learn operation."""
    from repro.core.genlink import GenLink, GenLinkConfig

    config = GenLinkConfig(population_size=POPULATION, max_iterations=ITERATIONS)
    return GenLink(config).learn(
        dataset.source_a, dataset.source_b, train, validation, rng=rng
    )


def execute_inputs(seed: int):
    """``(dataset, rule)`` of one execute sample."""
    from repro.datasets import load_dataset

    return load_dataset("cora", seed=seed, scale=EXECUTE_SCALE), pinned_rule()


def execute(rule, dataset, blocker=None):
    """The timed execute operation: the default engine, store off."""
    from repro.matching.engine import MatchingEngine

    engine = MatchingEngine(blocker=blocker, cache_dir="")
    try:
        return engine.execute(rule, dataset.source_a, dataset.source_b)
    finally:
        engine.close()


def rule_digest(rule) -> str:
    from repro.core.serialization import rule_to_dict

    text = json.dumps(rule_to_dict(rule), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def link_lines(links) -> list[str]:
    """Exact, order-preserving text form of a link list."""
    return [f"{l.uid_a}\t{l.uid_b}\t{float(l.score).hex()}" for l in links]


def link_f1(links, gold, dedup: bool) -> float:
    """F1 of generated links against a dataset's positive links."""

    def key(a, b):
        return (min(a, b), max(a, b)) if dedup else (a, b)

    expected = {key(a, b) for a, b in gold}
    found = {key(l.uid_a, l.uid_b) for l in links}
    hits = len(expected & found)
    if not hits:
        return 0.0
    precision, recall = hits / len(found), hits / len(expected)
    return 2.0 * precision * recall / (precision + recall)


def expected() -> dict:
    if not EXPECTED_FILE.exists():
        return {}
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
