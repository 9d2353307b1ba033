"""One sample of a workload, in a fresh interpreter.

``run.py`` starts one process per sample, so each timed operation pays
what a command-line user pays: cold process-wide memos, no warm-up.
Usage (the spec is written by ``run.py``)::

    python3 perfbench/sample.py <spec.json>

The spec names the mode (``setup``, ``learn``, ``execute``,
``service-setup`` or ``service``), the input seed and whether to trace. The process writes
one JSON result to ``spec["out"]``: set-up seconds (process start until
the inputs are ready), the timed operation, a quality figure, peak RSS
at the end of the timed part, correctness problems and, when traced,
the tracer summary.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads  # first: puts src/ on sys.path

import checks
import repro.core.genlink  # noqa: F401  (imports are set-up, not timed)
import repro.matching.engine  # noqa: F401
import service_loop


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy

    from repro.distances.strings import string_backend

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "string_backend": string_backend(),
    }


def run_learn(spec, tracer) -> dict:
    workload, seed = spec["workload"], spec["input_seed"]
    dataset, train, validation, rng = workloads.learn_inputs(workload, seed)
    ready = time.monotonic()
    started = time.perf_counter()
    result = workloads.learn(dataset, train, validation, rng)
    op_s = time.perf_counter() - started
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.enabled = False
    last = result.history[-1]
    problems = checks.check_learned(workload, seed, dataset, validation, result)
    return {
        "ready": ready, "op_s": op_s, "quality": last.validation_f_measure,
        "rss_mb": rss, "ops": 1, "failed_ops": 1 if problems else 0,
        "problems": problems, "drifted": [],
        "detail": {"iterations": last.iteration},
    }


def run_execute(spec, tracer) -> dict:
    seed = spec["input_seed"]
    dataset, rule = workloads.execute_inputs(seed)
    ready = time.monotonic()
    started = time.perf_counter()
    links = workloads.execute(rule, dataset)
    op_s = time.perf_counter() - started
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.enabled = False
    problems, drifted = checks.check_links(rule, dataset, links, seed)
    return {
        "ready": ready, "op_s": op_s,
        "quality": workloads.link_f1(links, dataset.links.positive,
                                     dataset.is_deduplication),
        "rss_mb": rss, "ops": 1, "failed_ops": 1 if problems or drifted else 0,
        "problems": problems, "drifted": [f"input {seed}: {d}" for d in drifted],
        "detail": {"links": len(links)},
    }


def run_setup(spec, tracer) -> dict:
    """Only what a learn or execute sample does before its timed part."""
    if spec["workload"] in workloads.LEARN:
        workloads.learn_inputs(spec["workload"], spec["input_seed"])
    else:
        workloads.execute_inputs(spec["input_seed"])
    return {"ready": time.monotonic(), "ops": 0, "failed_ops": 0,
            "problems": [], "drifted": []}


def run_service_setup(spec, tracer) -> dict:
    root = Path(spec["dir"])
    service = service_loop.Service(root)
    ready = time.monotonic()
    service.close()
    shutil.rmtree(root, ignore_errors=True)
    return {"ready": ready, "ops": 0, "failed_ops": 0, "problems": [],
            "drifted": []}


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_service(spec, tracer) -> dict:
    root = Path(spec["dir"])
    service = service_loop.Service(root)
    ready = time.monotonic()
    try:
        cycles, inputs = service_loop.run_loop(
            service, spec["run_seed"], spec["seconds"])
    finally:
        service.close()
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.enabled = False
    problems, drifted, f1 = service_loop.check_cycles(service, cycles)
    per = service_loop.CYCLES_PER_SAMPLE
    samples = [
        sum(service_loop.latency(record)
            for cycle in cycles[i:i + per] for kind, record in cycle
            if kind != "chained")
        for i in range(0, len(cycles), per)
    ]
    jobs = [(kind, record) for cycle in cycles for kind, record in cycle]
    by_kind = {
        kind: sorted(service_loop.latency(r) for k, r in jobs
                     if k == kind and r.state == "succeeded")
        for kind in ("link", "delta", "chained")
    }
    failed = [record for _, record in jobs if record.state != "succeeded"]
    wrong = {job_id for job_id, _ in problems} | {job_id for job_id, _ in drifted}
    detail = {
        "inputs": inputs,
        "cycles": len(cycles),
        "jobs": len(jobs),
        "link_job_s.p50": _quantile(by_kind["link"], 50),
        "link_job_s.p90": _quantile(by_kind["link"], 90),
        "delta_job_s.p50": _quantile(by_kind["delta"], 50),
        "delta_job_s.p90": _quantile(by_kind["delta"], 90),
        "chained_delta_job_s.p50": _quantile(
            sorted(service_loop.latency(r) for k, r in jobs if k == "chained"), 50),
        "attempts_per_job": statistics.fmean(r.attempts for _, r in jobs),
        "errors": sorted({r.error for r in failed if r.error}),
    }
    if tracer is not None:
        running = tracer.marks
        waits = [running[r.job_id][0] - r.created_at for _, r in jobs
                 if running.get(r.job_id)]
        runs = [r.updated_at - running[r.job_id][-1] for _, r in jobs
                if running.get(r.job_id)]
        detail["queue_wait_s"] = statistics.median(waits) if waits else 0.0
        detail["run_s"] = statistics.median(runs) if runs else 0.0
    shutil.rmtree(root, ignore_errors=True)
    return {
        "ready": ready, "op_s": samples, "quality": statistics.median(f1.values()),
        "rss_mb": rss, "ops": len(jobs), "failed_ops": len(failed) + len(wrong),
        "problems": [text for _, text in problems],
        "drifted": [text for _, text in drifted], "detail": detail,
    }


MODES = {
    "setup": run_setup,
    "learn": run_learn,
    "execute": run_execute,
    "service-setup": run_service_setup,
    "service": run_service,
}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer = None
    if spec.get("trace"):
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.instrument(tracer)
        tracer.tag = spec.get("tag")
    result = MODES[spec["mode"]](spec, tracer)
    result["setup_s"] = result.pop("ready") - spec["spawned"]
    result["environment"] = environment()
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(spec["trace_out"], meta={"spec": spec})
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
