"""Where the tracer hooks into the program: one span per layer.

:func:`instrument` wraps public functions and methods of the ``repro``
package, in this process only, with :class:`perfbench.tracer.Tracer`
spans. Nothing under ``src/`` changes. Layer names follow the package
layout (``core.fitness``, ``matching.blocking``, ``engine.store``,
...). :func:`layer_metrics` turns one process's spans and counters into
the benchmark's per-layer metrics.
"""

from __future__ import annotations

import importlib
import sys

#: Distance measures of the default registry, in a fixed order so that
#: every run reports the same metric names.
MEASURES = (
    "date", "dice", "equality", "geographic", "jaccard", "jaro",
    "jaroWinkler", "levenshtein", "mongeElkan", "normalizedLevenshtein",
    "numeric", "overlap", "qgrams", "relativeNumeric", "softJaccard",
)

_MODULES = (
    "repro.core.compatible", "repro.core.crossover", "repro.core.fitness",
    "repro.core.generation", "repro.core.genlink", "repro.core.selection",
    "repro.data.source", "repro.datasets", "repro.datasets.registry",
    "repro.distances.registry", "repro.engine.kernels",
    "repro.engine.session", "repro.engine.store", "repro.engine.values",
    "repro.matching.blocking", "repro.matching.engine",
    "repro.matching.multiblock", "repro.registry.store",
    "repro.service.jobs", "repro.service.queue", "repro.service.worker",
)


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in seen:
            seen.append(klass)
            todo.extend(klass.__subclasses__())
    return seen


def _patch_method(cls, attr, wrap):
    """Wrap ``attr`` on ``cls`` and on every subclass defining its own."""
    for klass in _subclasses(cls):
        if attr in vars(klass):
            setattr(klass, attr, wrap(vars(klass)[attr]))


def _patch_function(module, attr, wrap):
    """Wrap a module-level function and rebind every ``repro`` module
    that imported it by name."""
    original = getattr(module, attr)
    wrapped = wrap(original)
    for name, other in list(sys.modules.items()):
        if name.startswith("repro") and getattr(other, attr, None) is original:
            setattr(other, attr, wrapped)


def _pairs(source_a, source_b) -> int:
    """Size of the full cross product the blockers reduce."""
    if source_a is source_b:
        return len(source_a) * (len(source_a) - 1) // 2
    return len(source_a) * len(source_b)


def instrument(tracer) -> None:
    """Install the layer spans into the loaded ``repro`` package."""
    for module in _MODULES:
        importlib.import_module(module)
    from repro.core.crossover import CrossoverOperator
    from repro.core.fitness import FitnessFunction
    from repro.core.generation import RandomRuleGenerator
    from repro.core.genlink import GenLink
    from repro.core.selection import TournamentSelector
    from repro.data.source import DataSource
    from repro.distances.base import DistanceMeasure
    from repro.engine.session import EngineSession, PairContext
    from repro.engine.store import ColumnStore
    from repro.matching.blocking import Blocker
    from repro.matching.engine import MatchingEngine
    from repro.registry.store import RuleRegistry
    from repro.service.jobs import JobStore
    from repro.service.queue import FileQueue
    from repro.service.worker import JobRunner

    def span(name, **options):
        return lambda fn: tracer.wrap(fn, name, **options)

    def count(name, measure=len):
        return lambda result, args, kwargs: tracer.count(name, measure(result))

    # core: seeding, breeding, population fitness
    _patch_function(
        sys.modules["repro.core.compatible"], "find_compatible_properties",
        span("core.compatible", on_exit=count("core.compatible.pairs")),
    )
    _patch_method(GenLink, "learn", span("core.genlink"))
    _patch_method(
        FitnessFunction, "prime_population",
        span("core.fitness",
             on_exit=count("core.fitness.generations", lambda _: 1)),
    )
    _patch_method(CrossoverOperator, "apply", span("core.crossover"))
    _patch_method(TournamentSelector, "select", span("core.selection"))
    _patch_method(RandomRuleGenerator, "random_rule", span("core.generation"))

    # engine: compiler, value transforms, score kernels, cache tiers
    def compiled(plan, args, kwargs):
        diffs = args[0].generation_diffs()
        if len(diffs) > 1:  # generation 0 has nothing to reuse
            tracer.count("engine.comparison_ops", diffs[-1].comparison_ops)
            tracer.count("engine.comparison_new", diffs[-1].new_comparison_ops)

    _patch_method(
        EngineSession, "compile_population",
        span("engine.compiler", on_exit=compiled),
    )
    _patch_function(
        sys.modules["repro.engine.values"], "evaluate_value_op",
        span("transforms"),
    )
    for kernel in ("aggregate_scores", "threshold_scores"):
        _patch_function(
            sys.modules["repro.engine.kernels"], kernel, span("engine.kernels")
        )

    def session_closed(fn):
        def close(self, *args, **kwargs):
            if tracer.enabled and tracer.inside("core.genlink"):
                _count_tiers(tracer, self.stats())
            return fn(self, *args, **kwargs)

        return close

    _patch_method(EngineSession, "close", session_closed)

    # distances: one span name per measure
    def measured(result, args, kwargs):
        tracer.count(f"distances.{args[0].name}.pairs", len(result))

    _patch_method(
        DistanceMeasure, "evaluate_column",
        span(None, name_of=lambda args: f"distances.{args[0].name}",
             on_exit=measured),
    )

    # matching: blocking, scoring, incremental relinking
    def shard(batch, args, kwargs):
        tracer.count("matching.blocking.candidate_pairs", len(batch))

    _patch_method(
        Blocker, "iter_shards",
        span("matching.blocking", iterator=True, on_exit=shard),
    )
    for method in ("build_index", "probe_index"):
        _patch_method(Blocker, method, span("matching.blocking"))
    _patch_method(
        PairContext, "scores",
        span(None, name_of=lambda args: (
            "matching.engine.score" if tracer.inside("matching.")
            else "engine.context"
        )),
    )

    def executed(result, args, kwargs):
        engine, _, source_a, source_b = args[:4]
        tracer.count("matching.full_pairs", _pairs(source_a, source_b))
        _count_run(tracer, engine.last_run_stats())

    def diffed(result, args, kwargs):
        tracer.count("matching.incremental.rescored_pairs", result.rescored_pairs)
        tracer.count("matching.incremental.kept_links", result.kept_links)
        _count_run(tracer, result.stats)

    _patch_method(MatchingEngine, "execute",
                  span("matching.engine", on_exit=executed))
    _patch_method(MatchingEngine, "link_diff",
                  span("matching.incremental", on_exit=diffed))
    _patch_method(DataSource, "apply_delta", span("data.source.apply_delta"))

    # engine.store: the persistent column and index tiers
    def looked_up(tier):
        def on_exit(result, args, kwargs):
            tracer.count(f"{tier}.{'misses' if result is None else 'hits'}")

        return on_exit

    _patch_method(ColumnStore, "load",
                  span("engine.store.load", on_exit=looked_up("engine.store")))
    _patch_method(ColumnStore, "save", span("engine.store.save"))
    _patch_method(
        ColumnStore, "load_index",
        span("engine.store.index_load", on_exit=looked_up("engine.store.index")),
    )
    _patch_method(ColumnStore, "save_index", span("engine.store.index_save"))

    # service, registry, datasets
    def transitioned(record, args, kwargs):
        if record.state == "running":
            tracer.mark(record.job_id, record.updated_at)

    for method in ("create", "save", "get", "heartbeat", "save_links",
                   "load_links", "records", "state_counts"):
        _patch_method(JobStore, method, span("service.jobs"))
    _patch_method(JobStore, "transition",
                  span("service.jobs", on_exit=transitioned))
    for method in ("submit", "claim", "ack", "release", "depth", "claimed"):
        _patch_method(FileQueue, method, span("service.queue"))

    def job_run(fn):
        traced = tracer.wrap(fn, "service.run")

        def run(self, record, *args, **kwargs):
            previous, tracer.tag = tracer.tag, record.job_id
            try:
                return traced(self, record, *args, **kwargs)
            finally:
                tracer.tag = previous

        return run

    _patch_method(JobRunner, "run", job_run)
    _patch_method(RuleRegistry, "resolve", span("registry.resolve"))
    _patch_function(sys.modules["repro.datasets"], "load_dataset",
                    span("datasets.load"))


def _count_tiers(tracer, stats) -> None:
    for tier in ("values", "columns", "scores"):
        cache = getattr(stats, tier)
        if cache is not None:
            tracer.count(f"engine.{tier}.hits", cache.hits)
            tracer.count(f"engine.{tier}.misses", cache.misses)


def _count_run(tracer, stats) -> None:
    if stats is None:
        return
    _count_tiers(tracer, stats)
    tracer.count("matching.engine.pairs", stats.pairs)
    tracer.count("matching.blocking.index_builds", stats.index_builds)
    tracer.count("matching.blocking.index_patches", stats.index_patches)
    for measure, batch, fallback in stats.kernel_routing:
        tracer.count("distances.batch_pairs", batch)
        tracer.count("distances.fallback_pairs", fallback)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics of one traced process.

    Returns ``{name: (value, unit, basis)}``; ``basis`` spells out the
    numbers a ratio was computed from, or is empty. Layers a workload
    bypasses read 0.
    """
    self_s = summary["self_s"]
    total_s = summary["total_s"]
    counts = summary["counts"]

    def s(name):
        return self_s.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    def ratio(hits, misses, what):
        h, m = c(hits), c(misses)
        return _ratio(h, h + m), "ratio", f"{h:.0f} {what} / {h + m:.0f} lookups"

    out: dict[str, tuple[float, str, str]] = {
        "core.compatible.self_s": (s("core.compatible"), "s", ""),
        "core.compatible.pairs": (c("core.compatible.pairs"), "count", ""),
        "core.fitness.self_s": (s("core.fitness"), "s", ""),
        "core.fitness.generations": (c("core.fitness.generations"), "count", ""),
        "core.crossover.self_s": (s("core.crossover"), "s", ""),
        "core.selection.self_s": (s("core.selection"), "s", ""),
        "core.generation.self_s": (s("core.generation"), "s", ""),
        "engine.compiler.self_s": (s("engine.compiler"), "s", ""),
        "engine.comparison_reuse": (
            1.0 - _ratio(c("engine.comparison_new"), c("engine.comparison_ops"))
            if c("engine.comparison_ops") else 0.0,
            "ratio",
            f"1 - {c('engine.comparison_new'):.0f} new / "
            f"{c('engine.comparison_ops'):.0f} comparison ops",
        ),
        "engine.values.hit_ratio": ratio(
            "engine.values.hits", "engine.values.misses", "hits"),
        "engine.columns.hit_ratio": ratio(
            "engine.columns.hits", "engine.columns.misses", "hits"),
        "engine.scores.hit_ratio": ratio(
            "engine.scores.hits", "engine.scores.misses", "hits"),
        "transforms.self_s": (s("transforms"), "s", ""),
        "engine.kernels.self_s": (s("engine.kernels"), "s", ""),
    }
    for measure in MEASURES:
        out[f"distances.{measure}.self_s"] = (s(f"distances.{measure}"), "s", "")
        out[f"distances.{measure}.pairs"] = (
            c(f"distances.{measure}.pairs"), "count", "")
    batch, fallback = c("distances.batch_pairs"), c("distances.fallback_pairs")
    out["distances.batch_share"] = (
        _ratio(batch, batch + fallback), "ratio",
        f"{batch:.0f} batch-kernel pairs / {batch + fallback:.0f} scored pairs "
        f"(matching runs)",
    )
    candidates, full = c("matching.blocking.candidate_pairs"), c("matching.full_pairs")
    score_total = total_s.get("matching.engine.score", 0.0)
    out.update({
        "matching.blocking.self_s": (s("matching.blocking"), "s", ""),
        "matching.blocking.candidate_pairs": (candidates, "count", ""),
        "matching.blocking.reduction": (
            1.0 - _ratio(candidates, full) if full else 0.0, "ratio",
            f"1 - {candidates:.0f} candidates / {full:.0f} pairs in the full index",
        ),
        "matching.engine.score_self_s": (s("matching.engine.score"), "s", ""),
        "matching.engine.pairs_per_s": (
            _ratio(c("matching.engine.pairs"), score_total), "1/s",
            f"{c('matching.engine.pairs'):.0f} pairs / {score_total:.4f} s "
            f"inside PairContext.scores",
        ),
        "matching.incremental.link_diff_s": (
            total_s.get("matching.incremental", 0.0), "s", ""),
        "matching.incremental.rescored_pairs": (
            c("matching.incremental.rescored_pairs"), "count", ""),
        "matching.incremental.kept_links": (
            c("matching.incremental.kept_links"), "count", ""),
        "matching.blocking.index_patches": (
            c("matching.blocking.index_patches"), "count", ""),
        "matching.blocking.index_builds": (
            c("matching.blocking.index_builds"), "count", ""),
        "data.source.apply_delta_s": (
            total_s.get("data.source.apply_delta", 0.0), "s", ""),
        "engine.store.load_s": (total_s.get("engine.store.load", 0.0), "s", ""),
        "engine.store.save_s": (total_s.get("engine.store.save", 0.0), "s", ""),
        "engine.store.index_load_s": (
            total_s.get("engine.store.index_load", 0.0), "s", ""),
        "engine.store.index_save_s": (
            total_s.get("engine.store.index_save", 0.0), "s", ""),
        "engine.store.hit_ratio": ratio(
            "engine.store.hits", "engine.store.misses", "column loads hit"),
        "engine.store.index_hit_ratio": ratio(
            "engine.store.index.hits", "engine.store.index.misses",
            "index loads hit"),
        "service.jobs.self_s": (s("service.jobs"), "s", ""),
        "service.queue.self_s": (s("service.queue"), "s", ""),
        "registry.resolve_s": (total_s.get("registry.resolve", 0.0), "s", ""),
        "datasets.load_s": (total_s.get("datasets.load", 0.0), "s", ""),
    })
    return out
