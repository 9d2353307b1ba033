"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.nodes import (
    AggregationNode,
    ComparisonNode,
    PropertyNode,
    TransformationNode,
)
from repro.core.rule import LinkageRule
from repro.data.entity import Entity
from repro.data.reference_links import ReferenceLinkSet
from repro.data.source import DataSource


def pytest_configure(config):
    # Numeric edge cases and deprecated calls are handled, never left
    # to pass silently: a stray RuntimeWarning (an unmasked NaN path)
    # or DeprecationWarning fails the test that raised it.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def city_sources() -> tuple[DataSource, DataSource]:
    """Two tiny city sources with different schemata (the paper's
    running example: labels + coordinates)."""
    source_a = DataSource(
        "cities_a",
        [
            Entity("a:berlin", {"label": "Berlin", "point": "52.5200,13.4050"}),
            Entity("a:hamburg", {"label": "Hamburg", "point": "53.5511,9.9937"}),
            Entity("a:munich", {"label": "Munich", "point": "48.1351,11.5820"}),
            Entity("a:cologne", {"label": "Cologne", "point": "50.9375,6.9603"}),
        ],
    )
    source_b = DataSource(
        "cities_b",
        [
            Entity("b:berlin", {"name": "berlin", "coord": "POINT(13.4049 52.5201)"}),
            Entity("b:hamburg", {"name": "HAMBURG", "coord": "POINT(9.9936 53.5510)"}),
            Entity("b:munich", {"name": "munich", "coord": "POINT(11.5821 48.1350)"}),
            Entity("b:leipzig", {"name": "leipzig", "coord": "POINT(12.3731 51.3397)"}),
        ],
    )
    return source_a, source_b


@pytest.fixture
def city_links() -> ReferenceLinkSet:
    return ReferenceLinkSet(
        positive=[
            ("a:berlin", "b:berlin"),
            ("a:hamburg", "b:hamburg"),
            ("a:munich", "b:munich"),
        ],
        negative=[
            ("a:berlin", "b:hamburg"),
            ("a:hamburg", "b:munich"),
            ("a:munich", "b:leipzig"),
            ("a:cologne", "b:berlin"),
        ],
    )


@pytest.fixture
def label_comparison() -> ComparisonNode:
    """Compare lower-cased label against name with Levenshtein."""
    return ComparisonNode(
        metric="levenshtein",
        threshold=1.0,
        source=TransformationNode("lowerCase", (PropertyNode("label"),)),
        target=TransformationNode("lowerCase", (PropertyNode("name"),)),
    )


@pytest.fixture
def geo_comparison() -> ComparisonNode:
    return ComparisonNode(
        metric="geographic",
        threshold=1000.0,
        source=PropertyNode("point"),
        target=PropertyNode("coord"),
    )


@pytest.fixture
def city_rule(label_comparison, geo_comparison) -> LinkageRule:
    """The Figure 2 example: min(label similarity, geo similarity)."""
    return LinkageRule(
        AggregationNode(function="min", operators=(label_comparison, geo_comparison))
    )
