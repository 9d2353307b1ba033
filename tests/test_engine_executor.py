"""Tests for the parallel execution layer: executor resolution,
order-preserving maps, thread-safe sessions, sharded matching with
deterministic link ordering, per-generation reuse diffing, and the
process-pool path."""

from __future__ import annotations

import os
import pickle
from unittest import mock

import numpy as np
import pytest

from repro.core.nodes import (
    AggregationNode,
    ComparisonNode,
    PropertyNode,
    TransformationNode,
)
from repro.core.rule import LinkageRule
from repro.data.entity import Entity
from repro.data.source import DataSource
from repro.engine import EngineSession
from repro.engine.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    WORKERS_ENV,
    parse_workers_spec,
    resolve_executor,
    window_batches,
)
from repro.matching.blocking import FullIndexBlocker
from repro.matching.engine import MatchingEngine


def _square(x):
    """Module-level so process pools can pickle it."""
    return x * x


def _comparison(metric="levenshtein", threshold=2.0, prop="name"):
    return ComparisonNode(
        metric,
        threshold,
        TransformationNode("lowerCase", (PropertyNode(prop),)),
        TransformationNode("lowerCase", (PropertyNode(prop),)),
    )


def _rule() -> LinkageRule:
    return LinkageRule(
        AggregationNode(
            "max",
            (
                _comparison("levenshtein", 1.0, "label"),
                ComparisonNode(
                    "jaccard",
                    0.7,
                    TransformationNode("tokenize", (PropertyNode("label"),)),
                    TransformationNode("tokenize", (PropertyNode("label"),)),
                ),
            ),
        )
    )


def _sources(n=23):
    source_a = DataSource(
        "A",
        [
            Entity(f"a{i}", {"label": f"entity {i % 7} alpha", "year": str(i)})
            for i in range(n)
        ],
    )
    source_b = DataSource(
        "B",
        [
            Entity(f"b{i}", {"label": f"Entity {i % 5} ALPHA", "year": str(i)})
            for i in range(n)
        ],
    )
    return source_a, source_b


class TestResolution:
    def test_default_is_serial(self):
        with mock.patch.dict(os.environ, {}, clear=False):
            os.environ.pop(WORKERS_ENV, None)
            assert isinstance(resolve_executor(None), SerialExecutor)

    def test_env_selects_threads(self):
        with mock.patch.dict(os.environ, {WORKERS_ENV: "3"}):
            executor = resolve_executor(None)
        assert isinstance(executor, ThreadExecutor)
        assert executor.workers == 3

    def test_int_specs(self):
        assert isinstance(resolve_executor(0), SerialExecutor)
        assert isinstance(resolve_executor(2), ThreadExecutor)
        with pytest.raises(ValueError):
            resolve_executor(-1)

    def test_string_specs(self):
        assert isinstance(parse_workers_spec("serial"), SerialExecutor)
        assert isinstance(parse_workers_spec("0"), SerialExecutor)
        assert isinstance(parse_workers_spec("4"), ThreadExecutor)
        assert isinstance(parse_workers_spec("thread:2"), ThreadExecutor)
        process = parse_workers_spec("process:2")
        assert isinstance(process, ProcessExecutor)
        assert process.workers == 2
        assert parse_workers_spec("thread:0").kind == "serial"

    def test_invalid_specs(self):
        for spec in ("nope", "thread:x", "gpu:4", "thread:-1"):
            with pytest.raises(ValueError):
                parse_workers_spec(spec)
        with pytest.raises(TypeError):
            resolve_executor(True)
        with pytest.raises(TypeError):
            resolve_executor(2.5)

    def test_executor_passthrough(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor


class TestExecutors:
    def test_serial_map_preserves_order(self):
        assert SerialExecutor().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_thread_map_preserves_order(self):
        with ThreadExecutor(4) as executor:
            assert executor.map(_square, list(range(50))) == [
                i * i for i in range(50)
            ]

    def test_thread_close_idempotent(self):
        executor = ThreadExecutor(2)
        executor.map(_square, [1, 2, 3])
        executor.close()
        executor.close()

    def test_thread_worker_count_validated(self):
        with pytest.raises(ValueError):
            ThreadExecutor(0)
        with pytest.raises(ValueError):
            ProcessExecutor(0)

    def test_process_map_preserves_order(self):
        with ProcessExecutor(2) as executor:
            assert executor.map(_square, [5, 3, 1]) == [25, 9, 1]

    def test_window_batches(self):
        assert list(window_batches(iter([1, 2, 3, 4, 5]), 2)) == [
            [1, 2],
            [3, 4],
            [5],
        ]
        assert list(window_batches(iter([]), 3)) == []
        with pytest.raises(ValueError):
            list(window_batches([1], 0))


class TestEntityPickling:
    def test_round_trip_is_exact(self):
        entity = Entity("e1", {"name": ("A", "B"), "year": "1999"})
        clone = pickle.loads(pickle.dumps(entity))
        assert clone == entity
        assert clone.values("name") == ("A", "B")
        assert hash(clone) == hash(entity)


class TestSessionExecutor:
    def _population(self):
        return [
            _comparison("levenshtein", float(t), prop)
            for t in (1.0, 2.0, 3.0)
            for prop in ("name", "year")
        ]

    def _pairs(self, n=12):
        return [
            (
                Entity(f"a{i}", {"name": f"entity {i}", "year": str(1990 + i)}),
                Entity(f"b{i}", {"name": f"entity {i % 3}", "year": str(1991 + i)}),
            )
            for i in range(n)
        ]

    def test_population_scores_identical_across_workers(self):
        pairs = self._pairs()
        population = self._population()
        baseline = EngineSession(executor=0).context(pairs).population_scores(
            population
        )
        for workers in (1, 2, 4):
            with EngineSession(executor=workers) as session:
                vectors = session.context(pairs).population_scores(population)
            assert len(vectors) == len(baseline)
            for vector, expected in zip(vectors, baseline):
                assert vector.tobytes() == expected.tobytes()

    def test_process_executor_keeps_column_build_inline(self):
        # Process pools cannot share the column cache; the session must
        # still produce correct results by building inline.
        with EngineSession(executor="process:2") as session:
            vectors = session.context(self._pairs()).population_scores(
                self._population()
            )
        baseline = EngineSession().context(self._pairs()).population_scores(
            self._population()
        )
        for vector, expected in zip(vectors, baseline):
            assert vector.tobytes() == expected.tobytes()

    def test_concurrent_contexts_thread_safe(self):
        # Hammer one session from a thread pool: shared value tier,
        # separate contexts. Results must match fresh serial sessions.
        session = EngineSession(executor=4)
        pairs = self._pairs(30)
        node = _comparison()

        def score_slice(i):
            chunk = pairs[i : i + 10]
            context = session.context(chunk)
            try:
                return context.scores(node)
            finally:
                session.release_context(context)

        starts = [0, 5, 10, 15, 20] * 6
        results = session.executor.map(score_slice, starts)
        for start, scores in zip(starts, results):
            expected = EngineSession().context(pairs[start : start + 10]).scores(
                node
            )
            assert scores.tobytes() == expected.tobytes()
        session.close()


class TestGenerationDiffs:
    def test_first_generation_is_all_new(self):
        session = EngineSession()
        context = session.context(
            [(Entity("a", {"name": "x"}), Entity("b", {"name": "y"}))]
        )
        context.population_scores([_comparison(threshold=1.0)])
        stats = session.stats()
        assert stats.generations == 1
        diff = stats.last_generation
        assert diff.index == 0
        assert diff.comparison_ops == 1
        assert diff.new_comparison_ops == 1
        assert diff.comparison_reuse_ratio == 0.0
        assert stats.last_comparison_reuse == 0.0

    def test_threshold_mutations_fully_reuse(self):
        session = EngineSession()
        context = session.context(
            [(Entity("a", {"name": "x"}), Entity("b", {"name": "y"}))]
        )
        context.population_scores([_comparison(threshold=1.0)])
        # Generation 2: same genetic material, mutated thresholds.
        context.population_scores(
            [_comparison(threshold=2.0), _comparison(threshold=3.0)]
        )
        diffs = session.generation_diffs()
        assert len(diffs) == 2
        assert diffs[1].new_comparison_ops == 0
        assert diffs[1].new_value_ops == 0
        assert diffs[1].comparison_reuse_ratio == 1.0
        assert diffs[1].value_reuse_ratio == 1.0

    def test_partial_reuse_ratio(self):
        session = EngineSession()
        context = session.context(
            [(Entity("a", {"name": "x", "year": "1"}),
              Entity("b", {"name": "y", "year": "2"}))]
        )
        context.population_scores([_comparison(prop="name")])
        context.population_scores(
            [_comparison(prop="name"), _comparison(prop="year")]
        )
        diff = session.stats().last_generation
        assert diff.comparison_ops == 2
        assert diff.new_comparison_ops == 1
        assert diff.comparison_reuse_ratio == 0.5

    def test_ratios_stay_in_unit_interval_with_nested_transforms(self):
        # Nested value subtrees intern extra signatures; the diff must
        # count over the plan's top-level basis so ratios stay in [0, 1].
        session = EngineSession()
        context = session.context(
            [(Entity("a", {"name": "x"}), Entity("b", {"name": "y"}))]
        )
        nested = ComparisonNode(
            "levenshtein",
            1.0,
            TransformationNode(
                "trim",
                (TransformationNode("lowerCase", (PropertyNode("name"),)),),
            ),
            PropertyNode("name"),
        )
        context.population_scores([nested])
        diff = session.stats().last_generation
        assert 0.0 <= diff.value_reuse_ratio <= 1.0
        assert 0.0 <= diff.comparison_reuse_ratio <= 1.0
        assert diff.new_value_ops <= diff.value_ops
        assert diff.new_comparison_ops <= diff.comparison_ops

    def test_empty_population_ratio_defined(self):
        session = EngineSession()
        session.context([]).population_scores([])
        diff = session.stats().last_generation
        assert diff.comparison_reuse_ratio == 1.0
        assert diff.value_reuse_ratio == 1.0


class TestShardedMatching:
    def test_links_identical_across_worker_counts(self):
        """The acceptance bar: byte-identical links (values and order)
        for workers in {0, 1, 2, 4}, across batch sizes."""
        source_a, source_b = _sources()
        rule = _rule()
        for batch_size in (3, 7, 1000):
            baseline = None
            for workers in (0, 1, 2, 4):
                with MatchingEngine(
                    blocker=FullIndexBlocker(),
                    batch_size=batch_size,
                    workers=workers,
                ) as engine:
                    links = list(engine.iter_links(rule, source_a, source_b))
                snapshot = [
                    (link.uid_a, link.uid_b, link.score.hex()) for link in links
                ]
                if baseline is None:
                    baseline = snapshot
                    assert snapshot, "degenerate test: no links generated"
                else:
                    assert snapshot == baseline, (
                        f"workers={workers} batch_size={batch_size} diverged"
                    )

    def test_process_workers_match_serial(self):
        source_a, source_b = _sources(12)
        rule = _rule()
        serial = MatchingEngine(blocker=FullIndexBlocker(), batch_size=5)
        expected = [
            (l.uid_a, l.uid_b, l.score.hex())
            for l in serial.iter_links(rule, source_a, source_b)
        ]
        with MatchingEngine(
            blocker=FullIndexBlocker(), batch_size=5, workers="process:2"
        ) as engine:
            actual = [
                (l.uid_a, l.uid_b, l.score.hex())
                for l in engine.iter_links(rule, source_a, source_b)
            ]
        assert actual == expected
        stats = engine.last_run_stats()
        assert stats.values is not None
        assert stats.values.size > 0

    def test_last_run_stats(self):
        source_a, source_b = _sources(10)
        engine = MatchingEngine(blocker=FullIndexBlocker(), batch_size=8)
        assert engine.last_run_stats() is None
        links = list(engine.iter_links(_rule(), source_a, source_b))
        stats = engine.last_run_stats()
        assert stats.pairs == 100
        assert stats.batches == 13
        assert stats.links == len(links)
        assert stats.values.size > 0

    def test_process_rejects_shared_session(self):
        with pytest.raises(ValueError, match="process-pool"):
            MatchingEngine(session=EngineSession(), workers="process:2")

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            MatchingEngine(batch_size=0)

    def test_executor_property_and_env(self):
        with mock.patch.dict(os.environ, {WORKERS_ENV: "2"}):
            engine = MatchingEngine()
        assert engine.executor.kind == "thread"
        assert engine.executor.workers == 2
        engine.close()


class TestGenLinkWorkers:
    def test_learning_history_identical_across_workers(self):
        from repro.core.genlink import GenLink, GenLinkConfig
        from repro.data.reference_links import ReferenceLinkSet

        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
                 "theta", "kappa"]
        source_a = DataSource("A")
        source_b = DataSource("B")
        for i, word in enumerate(words):
            source_a.add(Entity(f"a{i}", {"label": word.capitalize()}))
            source_b.add(Entity(f"b{i}", {"name": word.upper()}))
        train = ReferenceLinkSet(
            [(f"a{i}", f"b{i}") for i in range(6)],
            [(f"a{i}", f"b{(i + 2) % 6}") for i in range(6)],
        )
        config = GenLinkConfig(population_size=20, max_iterations=3)

        def history(workers):
            result = GenLink(config, workers=workers).learn(
                source_a, source_b, train, rng=11
            )
            return [
                (
                    record.iteration,
                    record.train_f_measure.hex(),
                    record.train_mcc.hex(),
                    record.best_fitness.hex(),
                    record.operator_count,
                )
                for record in result.history
            ], str(result.best_rule.root)

        baseline = history(0)
        for workers in (1, 2, 4):
            assert history(workers) == baseline
