"""The service workload: one closed-loop client, one long-lived worker.

The client and a :func:`repro.service.run_worker` thread share one
process and one service directory (file queue, job store, column store
and rule registry). The client publishes the pinned rule, activates it,
and then runs cycles; each waits for one job to finish before it
submits the next:

* one ``link`` job by ``@active`` over Cora (input seeds alternate
  between a new one and a repeat of the previous one, so the column
  store both saves new inputs and serves repeated ones);
* :data:`workloads.DELTAS` ``delta`` jobs on that link job, each a
  fresh ~1% upsert/delete batch;
* one ``delta`` job whose parent is the last delta (a chained delta).

Job latency is read from each job record: ``created_at`` to the
terminal ``updated_at``. How often the client polls does not enter it.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import workloads
from repro.service import FileQueue, LinkageService, run_worker

TERMINAL = ("succeeded", "failed")
#: Client poll period while it waits for a job to finish.
CLIENT_POLL_S = 0.005
#: Worker poll period; short, so queue wait reflects the queue itself.
WORKER_POLL_S = 0.01
#: Cycles per sample: one with a new input, one repeating it.
CYCLES_PER_SAMPLE = 2
#: Processes for the correctness checks' engine-direct executes.
REPLAY_WORKERS = 2


class StoppableQueue(FileQueue):
    """A :class:`~repro.service.FileQueue` that a draining worker keeps
    polling until :meth:`stop` — long-lived, like ``serve``, yet
    stoppable from the benchmark."""

    def __init__(self, root):
        super().__init__(root)
        self.stopping = threading.Event()

    def stop(self):
        self.stopping.set()

    def depth(self):
        depth = super().depth()
        return depth if self.stopping.is_set() else max(depth, 1)


class Service:
    """A service directory with its rule published and a worker running."""

    def __init__(self, root: Path):
        self.root = root
        self.service = LinkageService(
            root, queue="file", cache_dir=str(root / "cache"),
            rules_dir=str(root / "rules"),
        )
        registry = self.service.registry
        version = registry.publish(
            workloads.LINEAGE, workloads.pinned_rule_dict(),
            provenance={"source": "perfbench/cora_rule.json"},
        )
        registry.activate(version.ref)
        self.queue = StoppableQueue(root)
        self.worker = threading.Thread(
            target=run_worker,
            args=(root,),
            kwargs=dict(
                queue=self.queue, cache_dir=self.service.cache_dir,
                rules_dir=self.service.rules_dir, drain=True,
                poll_interval=WORKER_POLL_S,
            ),
            name="perfbench-worker",
        )
        self.worker.start()

    def run(self, kind: str, **fields):
        """Submit one job and wait until it is terminal."""
        record = self.service.submit(kind, **fields)
        while record.state not in TERMINAL:
            time.sleep(CLIENT_POLL_S)
            record = self.service.status(record.job_id)
        return record

    def close(self) -> None:
        self.queue.stop()
        self.worker.join(timeout=60)
        if self.worker.is_alive():
            raise RuntimeError("service worker did not stop")
        self.service.close()


def run_cycle(service: Service, input_seed: int, delta_seed: int) -> list:
    """One link job, its deltas and one chained delta, in order."""
    link = service.run(
        "link", dataset="cora", rule=f"{workloads.LINEAGE}@active",
        seed=input_seed, scale=workloads.SERVICE_SCALE,
    )
    jobs = [("link", link)]
    if link.state != "succeeded":
        return jobs
    for index in range(workloads.DELTAS):
        delta = service.run(
            "delta", parent=link.job_id, seed=delta_seed + index,
            upserts=workloads.UPSERTS, deletes=workloads.DELETES,
        )
        jobs.append(("delta", delta))
    parent = jobs[-1][1]
    if parent.state == "succeeded":
        chained = service.run(
            "delta", parent=parent.job_id, seed=delta_seed + workloads.DELTAS,
            upserts=workloads.UPSERTS, deletes=workloads.DELETES,
        )
        jobs.append(("chained", chained))
    return jobs


def latency(record) -> float:
    return record.updated_at - record.created_at


def run_loop(service: Service, run_seed: int, seconds: float):
    """Cycles until ``seconds`` have passed, in whole rounds of one
    sample per input stratum. Returns the cycles and the inputs."""
    deadline = time.monotonic() + seconds
    cycles: list[list] = []
    inputs: list[int] = []
    round_size = CYCLES_PER_SAMPLE * workloads.STRATA
    while len(cycles) % round_size or not cycles or time.monotonic() < deadline:
        number = len(cycles)
        input_seed = workloads.input_seed(
            "service-jobs", run_seed, number // CYCLES_PER_SAMPLE)
        if number % CYCLES_PER_SAMPLE == 0:
            inputs.append(input_seed)
        delta_seed = (run_seed * 1000 + number) * 100
        cycles.append(run_cycle(service, input_seed, delta_seed))
    return cycles, inputs


# -- correctness -------------------------------------------------------------
def _sources(spec_chain: list[dict]):
    """The dataset a delta chain produced (``spec_chain[0]`` is the link
    job's spec)."""
    from repro.datasets import load_dataset
    from repro.matching.incremental import random_source_delta

    root = spec_chain[0]
    dataset = load_dataset(root["dataset"], seed=int(root["seed"]),
                           scale=float(root["scale"]))
    for spec in spec_chain[1:]:
        rng = random.Random(int(spec["seed"]))
        random_source_delta(dataset.source_a, rng, upserts=int(spec["upserts"]),
                            deletes=int(spec["deletes"]))
    return dataset


def _direct_lines(spec_chain: list[dict], rule) -> list[str]:
    """Links of a cold, engine-direct execute over a chain's sources."""
    return workloads.link_lines(workloads.execute(rule, _sources(spec_chain)))


def check_cycles(service: Service, cycles: list[list]):
    """Every link job's links are byte-equal to an engine-direct execute
    of its pinned rule; in every cycle, new or repeated input, one delta
    (its position rotating through all :data:`workloads.DELTAS`) and any
    succeeded chained delta equal a cold execute over the replayed
    sources, up to the score drift :mod:`checks` describes. Returns
    ``(job_id, text)`` problems and drifts, and the F1 of each link
    job's served links against the gold links.

    The engine-direct executes run in :data:`REPLAY_WORKERS` forked
    processes: the checks come after the timed loop and its worker
    thread has ended, and a run must fit its time limit."""
    import checks

    store = service.service.store
    registry = service.service.registry
    checked = []
    for number, jobs in enumerate(cycles):
        link = jobs[0][1]
        if link.state != "succeeded":
            continue
        rule = registry.resolve(link.spec["rule_ref"]).linkage_rule()
        checked.append((link, [link.spec], rule))
        deltas = [record for kind, record in jobs if kind == "delta"]
        if deltas:
            # 3 is coprime to DELTAS: ten cycles visit every position.
            delta = deltas[(number * 3) % len(deltas)]
            checked.append((delta, [link.spec, delta.spec], rule))
        for kind, record in jobs:
            if kind == "chained" and record.state == "succeeded":
                checked.append((record, [link.spec, deltas[-1].spec, record.spec], rule))
    replays = {json.dumps(chain, sort_keys=True): (chain, rule)
               for _, chain, rule in checked}
    with ProcessPoolExecutor(REPLAY_WORKERS,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        direct = dict(zip(replays, pool.map(_direct_lines, *zip(*replays.values()))))

    problems: list[tuple[str, str]] = []
    drifted: list[tuple[str, str]] = []
    f1: dict[str, float] = {}
    for record, chain, rule in checked:
        expected = direct[json.dumps(chain, sort_keys=True)]
        dataset = _sources(chain)
        served = store.load_links(record.job_id)
        if len(chain) == 1:
            f1[record.job_id] = workloads.link_f1(
                served, dataset.links.positive, True)
            if workloads.link_lines(served) != expected:
                problems.append((record.job_id, (
                    f"link job {record.job_id}: {len(served)} links differ "
                    f"from the engine-direct execute ({len(expected)})")))
            continue
        wrong, drift = checks.compare_links(rule, dataset, served, expected)
        if wrong:
            problems.append((record.job_id, f"delta job {record.job_id}: "
                             f"differs from a cold execute: {wrong[0]}"))
        elif drift:
            drifted.append((record.job_id, f"delta job {record.job_id}: "
                            f"{', '.join(drift)}"))
    return problems, drifted, f1
