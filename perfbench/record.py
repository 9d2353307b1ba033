"""Record the expected outputs of every pool seed into ``expected.json``.

Run from the repository root when the pinned rule, the workloads or the
program's intended outputs change::

    python3 perfbench/record.py                          # everything
    python3 perfbench/record.py --workload cora-execute 3 4
    python3 perfbench/record.py --times-only             # re-time only

Each input is recorded in a fresh interpreter. Learned rules are
recorded by digest. Execute links are recorded link by link from a
full-index run (every pair of the source scored, no blocking), after the
frozen per-pair evaluator has confirmed them; the default blocked engine
must then reproduce these links.

The timed operation of every input is then re-timed :data:`REPEATS` times,
in rounds over all seeds so that a slow spell of the machine hits every
seed alike, and the minimum is kept: :func:`workloads.strata` orders the
pool by it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import workloads

RECORDED = tuple(workloads.LEARN) + ("cora-execute",)
#: Timing rounds per input; the minimum time is kept.
REPEATS = 3


def record(workload: str, seed: int, times_only: bool) -> dict:
    import repro.core.genlink  # noqa: F401  (imported before timing)
    import repro.matching.engine  # noqa: F401

    if workload in workloads.LEARN:
        dataset, train, validation, rng = workloads.learn_inputs(workload, seed)
        started = time.perf_counter()
        result = workloads.learn(dataset, train, validation, rng)
        learn_s = time.perf_counter() - started
        if times_only:
            return {"op_s": learn_s}
        last = result.history[-1]
        return {
            "rule_digest": workloads.rule_digest(result.best_rule),
            "iterations": last.iteration,
            "validation_f1": last.validation_f_measure,
            "op_s": learn_s,
        }
    import checks
    from repro.datasets import load_dataset
    from repro.matching.blocking import FullIndexBlocker

    dataset, rule = workloads.execute_inputs(seed)
    started = time.perf_counter()
    workloads.execute(rule, dataset)
    execute_s = time.perf_counter() - started
    small = load_dataset("cora", seed=seed, scale=workloads.SERVICE_SCALE)
    started = time.perf_counter()
    workloads.execute(rule, small)
    times = {"op_s": execute_s, "service_link_s": time.perf_counter() - started}
    if times_only:
        return times
    links = workloads.execute(rule, dataset, blocker=FullIndexBlocker())
    problems, _ = checks.rescore(rule, dataset, links, seed)
    if problems:
        raise SystemExit(f"seed {seed}: full-index links disagree with the "
                         f"per-pair evaluator: {problems[:3]}")
    return {
        "links": workloads.link_lines(links),
        "link_f1": workloads.link_f1(
            links, dataset.links.positive, dataset.is_deduplication),
        **times,
    }


def _fresh(workload: str, seed: int, times_only: bool) -> dict:
    """:func:`record` in a fresh interpreter."""
    command = [sys.executable, __file__, "--one", "--workload", workload, str(seed)]
    if times_only:
        command.append("--times-only")
    output = subprocess.run(command, check=True, capture_output=True, text=True)
    return json.loads(output.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=RECORDED, action="append")
    parser.add_argument("--one", action="store_true",
                        help="record one workload and seed, print it as JSON")
    parser.add_argument("--times-only", action="store_true",
                        help="re-time the recorded inputs, keep their outputs")
    parser.add_argument("seeds", type=int, nargs="*")
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(record(args.workload[0], args.seeds[0], args.times_only)))
        return 0
    seeds = args.seeds or list(range(workloads.POOL))
    chosen = args.workload or RECORDED
    recorded = workloads.expected()

    def save():
        workloads.EXPECTED_FILE.write_text(
            json.dumps(recorded, indent=0, sort_keys=True) + "\n", encoding="utf-8")

    if not args.times_only:
        for seed in seeds:
            for workload in chosen:
                entry = _fresh(workload, seed, False)
                recorded.setdefault(workload, {})[str(seed)] = entry
                print(seed, workload, {k: v for k, v in entry.items() if k != "links"},
                      flush=True)
                save()
    best: dict[tuple[str, int], dict] = {}
    for round_ in range(REPEATS):
        for seed in seeds:
            for workload in chosen:
                times = _fresh(workload, seed, True)
                kept = best.setdefault((workload, seed), times)
                for key, value in times.items():
                    kept[key] = min(kept[key], value)
        print(f"timing round {round_ + 1}/{REPEATS} done", flush=True)
    for (workload, seed), times in best.items():
        recorded[workload][str(seed)].update(
            {key: round(value, 3) for key, value in times.items()})
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
