"""Finding compatible property pairs (Algorithm 2, Section 5.1).

The seeding step analyses the entities behind the positive reference
links: for each property pair and each detector distance function, the
lower-cased, tokenised values are compared; if any token pair is within
the detector threshold, the property pair is recorded together with the
distance measure that made it compatible. The GP's random rule
generator then only builds comparisons over these pairs, which shrinks
the search space dramatically on wide schemata (Table 14).

The paper uses Levenshtein with threshold 1 as the only detector; we
additionally detect numeric / geographic / date compatibility (the
"for all distance functions fd" loop of Algorithm 2) so that seeded
comparisons over coordinates and dates carry an appropriate measure.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Sequence

from repro.data.entity import Entity
from repro.data.reference_links import Link
from repro.data.source import DataSource
from repro.distances.dates import parse_date
from repro.distances.geographic import haversine_metres, parse_point
from repro.distances.levenshtein import levenshtein
from repro.distances.numeric import parse_number

_TOKEN_CAP = 24  # tokens considered per property value set

# Split on any non-alphanumeric character. Splitting only on whitespace
# would hide URI-wrapped labels ("http://dbpedia.org/resource/Salem")
# from the compatibility check, and the seeding would then never offer
# the label property to the learner.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class CompatibleProperty:
    """A (source property, target property, measure) triple."""

    source_property: str
    target_property: str
    measure: str


def _tokens(values: Sequence[str]) -> list[str]:
    tokens: list[str] = []
    for value in values:
        for token in _TOKEN_RE.findall(value.lower()):
            if len(token) < 3:
                continue  # one/two-letter tokens collide by chance
            tokens.append(token)
            if len(tokens) >= _TOKEN_CAP:
                return tokens
    return tokens


@dataclass(frozen=True)
class _PropertyProfile:
    """One property's values, parsed once for every detector.

    ``tokens`` holds the distinct tokens of :func:`_tokens` (the cap
    counts repeats, as the detector always did). ``dates`` are
    proleptic ordinals: ``abs(oa - ob)`` equals ``abs((da - db).days)``.
    ``numbers`` drops non-finite values: ``1e999`` parses to ``inf``,
    which would be within any relative tolerance of every number.
    """

    tokens: tuple[str, ...]
    points: tuple[tuple[float, float], ...]
    dates: tuple[int, ...]
    numbers: tuple[float, ...]


def _profile(entity: Entity) -> list[tuple[str, _PropertyProfile]]:
    """Parse and tokenise every property of ``entity`` once."""
    profiles = []
    for name in entity.property_names():
        values = entity.values(name)
        points = [p for v in values if (p := parse_point(v)) is not None]
        dates = [d.toordinal() for v in values if (d := parse_date(v)) is not None]
        numbers = [
            n for v in values
            if (n := parse_number(v)) is not None and math.isfinite(n)
        ]
        profile = _PropertyProfile(
            tuple(dict.fromkeys(_tokens(values))),
            tuple(points),
            tuple(dates),
            tuple(numbers),
        )
        profiles.append((name, profile))
    return profiles


def _geographic_compatible(
    points_a: Sequence[tuple[float, float]],
    points_b: Sequence[tuple[float, float]],
    threshold: float = 100_000.0,
) -> bool:
    return any(
        haversine_metres(pa[0], pa[1], pb[0], pb[1]) <= threshold
        for pa in points_a
        for pb in points_b
    )


def _date_compatible(
    dates_a: Sequence[int], dates_b: Sequence[int], threshold_days: float = 1000.0
) -> bool:
    return any(abs(da - db) <= threshold_days for da in dates_a for db in dates_b)


def _numeric_compatible(
    numbers_a: Sequence[float], numbers_b: Sequence[float], tolerance: float = 0.1
) -> bool:
    for na in numbers_a:
        for nb in numbers_b:
            scale = max(abs(na), abs(nb), 1.0)
            if abs(na - nb) <= tolerance * scale:
                return True
    return False


def find_compatible_properties(
    source_a: DataSource,
    source_b: DataSource,
    positive_links: Sequence[Link],
    levenshtein_threshold: float = 1.0,
    max_links: int = 100,
    min_support: float = 0.1,
    rng: random.Random | None = None,
) -> list[CompatibleProperty]:
    """Algorithm 2: property pairs holding similar values.

    ``max_links`` bounds the analysed sample for wide schemata;
    ``min_support`` drops pairs compatible on fewer than that fraction
    of sampled links (spurious single-link token collisions on wide
    schemata would otherwise flood the list). Results are ordered by
    descending support so callers can weight sampling towards strongly
    compatible pairs.

    Each linked entity is parsed and tokenised once, into one
    :class:`_PropertyProfile` per property; the detectors then compare
    parsed sets, and token-pair edit distances are memoised across the
    whole call (docs/engine.md, "Seeding (Algorithm 2)").
    """
    links = list(positive_links)
    if rng is not None:
        rng.shuffle(links)
    links = links[:max_links]
    if not links:
        return []

    close_tokens: dict[tuple[str, str], bool] = {}
    support: dict[CompatibleProperty, int] = {}
    for uid_a, uid_b in links:
        _analyse_pair(
            _profile(source_a.get(uid_a)),
            _profile(source_b.get(uid_b)),
            levenshtein_threshold,
            close_tokens,
            support,
        )

    threshold_count = max(1, int(min_support * len(links)))
    ranked = sorted(support.items(), key=lambda item: (-item[1], str(item[0])))
    return [pair for pair, count in ranked if count >= threshold_count]


def _analyse_pair(
    profile_a: list[tuple[str, _PropertyProfile]],
    profile_b: list[tuple[str, _PropertyProfile]],
    levenshtein_threshold: float,
    close_tokens: dict[tuple[str, str], bool],
    support: dict[CompatibleProperty, int],
) -> None:
    bound = int(levenshtein_threshold)

    def levenshtein_compatible(tokens_a, tokens_b) -> bool:
        for ta in tokens_a:
            for tb in tokens_b:
                close = close_tokens.get((ta, tb))
                if close is None:
                    distance = levenshtein(ta, tb, bound=bound)
                    close = close_tokens[ta, tb] = distance <= levenshtein_threshold
                if close:
                    return True
        return False

    def count(prop_a: str, prop_b: str, measure: str) -> None:
        key = CompatibleProperty(prop_a, prop_b, measure)
        support[key] = support.get(key, 0) + 1

    for prop_a, a in profile_a:
        for prop_b, b in profile_b:
            if levenshtein_compatible(a.tokens, b.tokens):
                count(prop_a, prop_b, "levenshtein")
            if _geographic_compatible(a.points, b.points):
                count(prop_a, prop_b, "geographic")
            if _date_compatible(a.dates, b.dates):
                count(prop_a, prop_b, "date")
            elif _numeric_compatible(a.numbers, b.numbers):
                count(prop_a, prop_b, "numeric")
