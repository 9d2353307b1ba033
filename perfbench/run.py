"""End-to-end benchmark of learn, execute and service jobs.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``BENCHMARK.json`` for why each one exists):

``cora-pipeline``    GenLink.learn on Cora at scale 0.10, population 100,
                     25 iterations; then MatchingEngine.execute of the
                     pinned rule (``cora_rule.json``) over Cora at scale
                     0.20. The two do not depend on each other.
``linkedmdb-learn``  GenLink.learn on LinkedMDB at scale 0.60, population
                     100, up to 25 iterations.
``service-jobs``     a closed loop of link, delta and chained-delta jobs
                     through one long-lived worker (``service_loop.py``).

Each learn or execute operation runs in a fresh interpreter
(``sample.py``), one at a time; a sample's time is the sum of its
operations' times. The service loop runs in one process. Inputs come
from ``--seed`` through a pool split into strata by recorded time
(``workloads.input_seed``): samples come in whole rounds of one input
per stratum, and rounds repeat until ``--seconds`` have passed.
Untraced runs start three more processes that only set up, so that
``setup_s`` is a median of several. Every output is checked (``checks.py``,
``service_loop.check_cycles``).

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` every sample is traced,
the middle input of each round also runs plain, and the JSON object carries
the per-layer metrics (``layers.py``) plus the tracing overhead. The
lines before it repeat every figure with its unit, sample count and,
for ratios, the numbers it was computed from. The exit code is 0 when
every output was correct, 1 when a check failed, 2 when the program or
its inputs are missing, and 3 when a sample process crashed or ran out
of time; with 2 and 3 no JSON object is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/repro/__init__.py", "benchmarks/_seed_evaluator.py")
WORKLOADS = (*workloads.STEPS, "service-jobs")
#: What an operation's time and quality measure, printed beside the
#: figures; ``quality_f1`` is the quality of a sample's first operation.
ALIASES = {
    "learn": ("learn_s", "learn_validation_f1"),
    "execute": ("execute_s", "execute_link_f1"),
    "service": ("cycle_pair_s", "link_job_f1"),
}
#: Set-up-only processes per run, besides the set-up every sample does.
SETUPS = 3
#: A run must end within this many seconds; children get what is left.
RUN_LIMIT_S = 170
SERVICE_DETAIL = (
    "link_job_s.p50", "link_job_s.p90", "delta_job_s.p50", "delta_job_s.p90",
    "chained_delta_job_s.p50", "failed_frac", "attempts_per_job",
    "queue_wait_s", "run_s",
)


class ChildFailed(RuntimeError):
    pass


def mode_of(operation: str) -> str:
    """``mode`` of sample.py that runs one operation of :data:`workloads.STEPS`."""
    return "learn" if operation in workloads.LEARN else "execute"


def pinned_environment() -> dict:
    """The parent's environment without any ``REPRO_*`` setting (engine
    workers, cache, blocker, string backend, faults, deadlines, scale),
    so the program runs on its defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int, out: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.out = out
        self.started = time.monotonic()
        self.env = pinned_environment()
        self.children = 0
        self.inputs: list[int] = []

    def spawn(self, mode: str, **spec) -> dict:
        """Run sample.py once and return its result. ``spec["workload"]``
        names the operation; it defaults to the run's workload."""
        self.children += 1
        name = f"{self.children:03d}-{mode}"
        spec.setdefault("workload", self.workload)
        spec.update(
            mode=mode, run_seed=self.seed,
            out=str(self.out / f"{name}.result.json"),
            trace_out=str(self.out / f"{name}.spans.json"),
            dir=str(self.out / f"{name}.service"),
            tag=f"{self.workload}:{spec.get('input_seed', self.seed)}:{name}",
        )
        spec_path = self.out / f"{name}.spec.json"
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 5:
            raise ChildFailed("out of time before starting another sample")
        spec["spawned"] = time.monotonic()
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        child = subprocess.Popen(
            [sys.executable, str(HERE / "sample.py"), str(spec_path)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            output, _ = child.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise ChildFailed(f"{name} did not finish within {remaining:.0f} s")
        if child.returncode != 0:
            raise ChildFailed(f"{name} exited {child.returncode}:\n{output[-4000:]}")
        return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def setups(self) -> list[dict]:
        steps = workloads.STEPS[self.workload]
        results = []
        for i in range(SETUPS):
            step = steps[i % len(steps)]
            results.append(self.spawn(
                "setup", workload=step,
                input_seed=workloads.input_seed(step, self.seed, i)))
        return results

    def samples(self, trace: bool) -> list[tuple[list | None, list | None]]:
        """``(plain, traced)`` results, one per sample, each a list with
        one result per operation, in whole rounds of one input per
        stratum, until ``--seconds`` have passed. Traced runs trace
        every sample and also run the middle one plain, for the
        overhead."""
        steps = workloads.STEPS[self.workload]
        pairs = []
        while len(pairs) % workloads.STRATA or not pairs or self.elapsed() < self.seconds:
            index = len(pairs)
            seeds = [workloads.input_seed(step, self.seed, index) for step in steps]
            self.inputs.append(seeds[0] if len(seeds) == 1 else seeds)

            def run(traced):
                return [
                    self.spawn(mode_of(step), workload=step, input_seed=seed,
                               trace=traced)
                    for step, seed in zip(steps, seeds)
                ]

            plain = run(False) if not trace or index % workloads.STRATA == 1 else None
            pairs.append((plain, run(True) if trace else None))
        return pairs

    def service(self, trace: bool) -> tuple[list[dict], list[tuple[list | None, list | None]]]:
        setups = [] if trace else [self.spawn("service-setup") for _ in range(SETUPS)]
        plain = self.spawn("service", seconds=self.seconds, trace=False)
        traced = (
            self.spawn("service", seconds=self.seconds, trace=True)
            if trace else None
        )
        self.inputs = plain["detail"]["inputs"]
        return setups, [([plain], [traced] if traced else None)]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(workload, setups, pairs) -> tuple[dict, list[str]]:
    """The end-to-end metrics and their printed lines."""
    plain = [p for p, _ in pairs]
    service = workload == "service-jobs"
    if service:
        op_values = plain[0][0]["op_s"]
        modes = ["service"]
    else:
        op_values = [sum(r["op_s"] for r in steps) for steps in plain]
        modes = [mode_of(step) for step in workloads.STEPS[workload]]
    setup_values = [r["setup_s"] for r in setups] + [
        r["setup_s"] for steps in plain for r in steps]
    figures = {
        "sample_s": (_median(op_values), "s", len(op_values)),
        "quality_f1": (
            _median([steps[0]["quality"] for steps in plain]), "f1",
            plain[0][0]["detail"]["cycles"] if service else len(plain),
        ),
        "peak_rss_mb": (_median([max(r["rss_mb"] for r in steps) for steps in plain]),
                        "MB", len(plain)),
        "setup_s": (_median(setup_values), "s", len(setup_values)),
    }
    aliases = {"sample_s": " + ".join(ALIASES[mode][0] for mode in modes),
               "quality_f1": ALIASES[modes[0]][1]}
    lines = []
    for name, (value, unit, count) in figures.items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        lines.append(f"  {label:<42} {value:12.4f} {unit:<6} median of {count}")
    if not service and len(modes) > 1:
        for i, mode in enumerate(modes):
            for key, unit, alias in (("op_s", "s", ALIASES[mode][0]),
                                     ("quality", "f1", ALIASES[mode][1])):
                value = _median([steps[i][key] for steps in plain])
                lines.append(f"    {alias:<40} {value:12.4f} {unit:<6} "
                             f"median of {len(plain)}")
    if service:
        detail = plain[0][0]["detail"]
        for name in SERVICE_DETAIL[:5] + ("attempts_per_job",):
            lines.append(f"  {name:<42} {detail[name]:12.4f}")
        lines.append(f"  jobs: {detail['jobs']} in {detail['cycles']} cycles; "
                     f"errors: {detail['errors'] or 'none'}")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit, _) in figures.items()}
    return metrics, lines


def merged_trace(steps: list[dict]) -> dict:
    """One tracer summary for a sample whose operations ran in several
    traced processes: times, calls and counters add up."""
    summary = {}
    for key in ("self_s", "total_s", "calls", "counts"):
        total = Counter()
        for step in steps:
            total.update(step["trace"][key])
        summary[key] = dict(total)
    summary["spans"] = sum(step["trace"]["spans"] for step in steps)
    return summary


def per_layer(workload, pairs) -> tuple[dict, list[str]]:
    """The per-layer metrics (medians over traced samples) and lines."""
    import layers

    service = workload == "service-jobs"
    traced = [merged_trace(t) for _, t in pairs]
    tables = [layers.layer_metrics(summary) for summary in traced]
    figures = {}
    for name in tables[0]:
        values = [table[name][0] for table in tables]
        unit, basis = tables[0][name][1], tables[len(tables) // 2][name][2]
        if service:
            # One traced process covers several samples: per sample.
            samples = len(pairs[0][1][0]["op_s"]) or 1
            if unit in ("s", "count"):
                values = [v / samples for v in values]
        figures[name] = (_median(values), unit, basis)
    plain = next(p for p, _ in pairs if p is not None)[0]
    plain_detail = plain.get("detail", {})
    traced_detail = pairs[0][1][0].get("detail", {})
    jobs = plain["ops"] if service else 0
    failed = plain["failed_ops"] if service else 0
    for name in SERVICE_DETAIL:
        source = traced_detail if name in ("queue_wait_s", "run_s") else plain_detail
        if name == "failed_frac":
            value = failed / jobs if jobs else 0.0
            figures[f"service.{name}"] = (value, "ratio",
                                          f"{failed} failed / {jobs} jobs")
        else:
            unit = "count" if name == "attempts_per_job" else "s"
            figures[f"service.{name}"] = (source.get(name, 0.0), unit, "")
    both = [(p, t) for p, t in pairs if p is not None]
    plain_op = _median([_op(p) for p, _ in both])
    traced_op = _median([_op(t) for _, t in both])
    figures["trace.overhead_s"] = (
        traced_op - plain_op, "s",
        f"traced {traced_op:.4f} s - plain {plain_op:.4f} s per sample, "
        f"{len(both)} input(s) run both ways",
    )
    figures["trace.spans"] = (
        _median([summary["spans"] for summary in traced]), "count", "")
    lines = [
        f"  {name:<42} {value:14.6g} {unit:<6} {basis}".rstrip()
        for name, (value, unit, basis) in figures.items()
    ]
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit, _) in figures.items()}
    return metrics, lines


def _op(steps: list[dict]) -> float:
    """A sample's time: its operations' times, or a service run's median."""
    return sum(
        _median(r["op_s"]) if isinstance(r["op_s"], list) else r["op_s"]
        for r in steps
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)} under {ROOT}; run it "
              f"from a full checkout of the repository", file=sys.stderr)
        return 2
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, args.seconds, out)
    trace = bool(args.trace)
    try:
        if args.workload == "service-jobs":
            setups, pairs = runner.service(trace)
        else:
            setups = [] if trace else runner.setups()
            pairs = runner.samples(trace)
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3

    results = setups + [r for pair in pairs for side in pair if side for r in side]
    problems = [p for r in results for p in r["problems"]]
    drifted = [d for r in results for d in r["drifted"]]
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed_ops"] for r in results)
    env = results[-1]["environment"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"string backend {env['string_backend']}, input seeds {runner.inputs}")
    if trace:
        metrics, lines = per_layer(args.workload, pairs)
        print(f"  spans written under {out.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(args.workload, setups, pairs)
    print("\n".join(lines))
    print(f"  failed_frac {failed}/{attempted} operations failed or wrong")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    for drift in drifted:
        print(f"  KNOWN DEFECT (score drift, see checks.py): {drift}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
