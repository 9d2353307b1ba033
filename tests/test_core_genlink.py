"""Integration tests for the GenLink learner (Algorithm 1)."""

import random

import pytest

from repro.core.crossover import SubtreeCrossover
from repro.core.genlink import GenLink, GenLinkConfig
from repro.core.representation import BOOLEAN
from repro.data.entity import Entity
from repro.data.reference_links import ReferenceLinkSet
from repro.data.source import DataSource


def _learnable_task(n: int = 24):
    """A small task solvable by a single lower-cased label comparison."""
    rng = random.Random(9)
    source_a = DataSource("A")
    source_b = DataSource("B")
    positive = []
    words = [
        "berlin", "hamburg", "munich", "cologne", "frankfurt", "stuttgart",
        "dortmund", "essen", "leipzig", "bremen", "dresden", "hannover",
        "nuremberg", "duisburg", "bochum", "wuppertal", "bielefeld", "bonn",
        "muenster", "karlsruhe", "mannheim", "augsburg", "wiesbaden", "kiel",
    ][:n]
    for i, word in enumerate(words):
        uid_a, uid_b = f"a{i}", f"b{i}"
        source_a.add(Entity(uid_a, {"label": word.capitalize(), "junk": str(i)}))
        source_b.add(
            Entity(uid_b, {"name": word.upper(), "noise": str(1000 - i)})
        )
        positive.append((uid_a, uid_b))
    negative = [
        (f"a{i}", f"b{(i + 7) % n}") for i in range(n)
    ]
    return source_a, source_b, ReferenceLinkSet(positive, negative)


class TestGenLinkConfig:
    def test_paper_defaults(self):
        config = GenLinkConfig()
        assert config.population_size == 500
        assert config.max_iterations == 50
        assert config.tournament_size == 5
        assert config.mutation_probability == 0.25
        assert config.stop_f_measure == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GenLinkConfig(population_size=1)
        with pytest.raises(ValueError):
            GenLinkConfig(mutation_probability=1.5)
        with pytest.raises(ValueError):
            GenLinkConfig(population_size=10, elitism=10)


class TestGenLinkLearning:
    def test_learns_case_normalising_rule(self):
        source_a, source_b, links = _learnable_task()
        config = GenLinkConfig(population_size=40, max_iterations=15)
        result = GenLink(config).learn(source_a, source_b, links, rng=5)
        assert result.history[-1].train_f_measure == 1.0

    def test_stops_early_at_full_f_measure(self):
        source_a, source_b, links = _learnable_task()
        config = GenLinkConfig(population_size=40, max_iterations=50)
        result = GenLink(config).learn(source_a, source_b, links, rng=5)
        assert result.stopped_early
        assert result.history[-1].iteration < 50

    def test_history_is_recorded_per_iteration(self):
        source_a, source_b, links = _learnable_task()
        config = GenLinkConfig(
            population_size=20, max_iterations=5, stop_f_measure=2.0
        )
        result = GenLink(config).learn(source_a, source_b, links, rng=1)
        assert [r.iteration for r in result.history] == [0, 1, 2, 3, 4, 5]
        assert all(r.seconds >= 0 for r in result.history)

    def test_seeding_seconds_reported(self):
        source_a, source_b, links = _learnable_task()
        config = GenLinkConfig(
            population_size=20, max_iterations=1, stop_f_measure=2.0
        )
        result = GenLink(config).learn(source_a, source_b, links, rng=1)
        # Seeding runs before generation 0 is recorded, inside the same
        # clock that times the history.
        assert 0.0 < result.seeding_seconds <= result.history[0].seconds

    def test_train_f_measure_monotone_with_elitism(self):
        source_a, source_b, links = _learnable_task()
        config = GenLinkConfig(
            population_size=20, max_iterations=8, elitism=1, stop_f_measure=2.0
        )
        result = GenLink(config).learn(source_a, source_b, links, rng=2)
        scores = [r.train_f_measure for r in result.history]
        assert scores == sorted(scores)

    def test_validation_links_tracked(self):
        source_a, source_b, links = _learnable_task()
        config = GenLinkConfig(population_size=20, max_iterations=3)
        result = GenLink(config).learn(
            source_a, source_b, links, validation_links=links, rng=3
        )
        assert result.history[0].validation_f_measure is not None

    def test_requires_both_link_polarities(self):
        source_a, source_b, links = _learnable_task()
        only_positive = ReferenceLinkSet(links.positive, [])
        with pytest.raises(ValueError):
            GenLink(GenLinkConfig(population_size=10)).learn(
                source_a, source_b, only_positive
            )

    def test_deterministic_given_seed(self):
        source_a, source_b, links = _learnable_task()
        config = GenLinkConfig(population_size=20, max_iterations=4)
        result1 = GenLink(config).learn(source_a, source_b, links, rng=7)
        result2 = GenLink(config).learn(source_a, source_b, links, rng=7)
        assert result1.best_rule == result2.best_rule
        assert [r.train_f_measure for r in result1.history] == [
            r.train_f_measure for r in result2.history
        ]

    def test_representation_restriction_respected(self):
        source_a, source_b, links = _learnable_task()
        config = GenLinkConfig(
            population_size=20, max_iterations=5, representation=BOOLEAN
        )
        result = GenLink(config).learn(source_a, source_b, links, rng=1)
        assert BOOLEAN.allows(result.best_rule.root)

    def test_custom_crossover_operators(self):
        source_a, source_b, links = _learnable_task()
        config = GenLinkConfig(population_size=20, max_iterations=5)
        learner = GenLink(config, crossover_operators=[SubtreeCrossover()])
        result = learner.learn(source_a, source_b, links, rng=1)
        assert result.history  # runs to completion

    def test_no_crossover_operators_rejected(self):
        with pytest.raises(ValueError):
            GenLink(GenLinkConfig(), crossover_operators=[])

    def test_record_at_clamps_beyond_last(self):
        source_a, source_b, links = _learnable_task()
        config = GenLinkConfig(population_size=40, max_iterations=50)
        result = GenLink(config).learn(source_a, source_b, links, rng=5)
        # Early-stopped: iteration 50 resolves to the last reached record.
        assert result.record_at(50) == result.history[-1]

    def test_learned_rule_operator_counts_reported(self):
        source_a, source_b, links = _learnable_task()
        config = GenLinkConfig(population_size=20, max_iterations=3)
        result = GenLink(config).learn(source_a, source_b, links, rng=4)
        last = result.history[-1]
        assert last.comparison_count >= 1
        assert last.operator_count >= last.comparison_count
