"""Common infrastructure for distance measures.

A :class:`DistanceMeasure` maps two value sets to a non-negative float
distance. ``INFINITE_DISTANCE`` is returned whenever a distance is
undefined (empty inputs, unparseable values); any comparison operator
then yields similarity 0 because the distance exceeds every threshold.

Measures additionally expose a **batch API**: :meth:`evaluate_column`
takes two aligned columns of value sets (one entry per candidate pair)
and returns a float64 distance vector. Batch-capable measures override
it with vectorized kernels; everything else inherits a generic fallback
that deduplicates per distinct value-set combination before calling the
scalar :meth:`evaluate`. The contract is strict: for every row the
batch result must be *bit-identical* to the scalar path, with empty
value sets on either side yielding ``INFINITE_DISTANCE``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

#: Sentinel distance for undefined comparisons. Large but finite so that
#: arithmetic on it stays well-behaved (no NaNs in score vectors).
INFINITE_DISTANCE = 1.0e12

#: Value pairs :func:`min_over_pairs` compares before it stops
#: (``strings.batch_pair_column`` expands cross products to the same
#: cap).
MAX_PAIRS = 256

#: A column of value sets, one entry per candidate pair. Entries are the
#: transformed value tuples the engine materialises per unique entity,
#: so the same tuple object typically recurs across many rows.
ValueColumn = Sequence[Sequence[str]]


class DistanceMeasure(ABC):
    """A distance function between two value sets.

    Subclasses define :meth:`evaluate` and advertise a sensible range of
    distance thresholds via :attr:`threshold_range`, which the GP's
    random rule generator samples from (e.g. character edits for
    Levenshtein, metres for geographic distance). Measures that also
    override :meth:`evaluate_column` with a vectorized kernel set
    :attr:`batch_capable` so callers and tests can tell real kernels
    from the generic fallback.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Inclusive (low, high) range for sampling random thresholds.
    threshold_range: tuple[float, float] = (0.0, 1.0)

    #: True when :meth:`evaluate_column` is a vectorized batch kernel
    #: rather than the inherited per-pair fallback.
    batch_capable: bool = False

    #: True when :meth:`evaluate_column` additionally accepts a
    #: ``memo`` keyword (a :class:`repro.distances.strings.StringKernelMemo`)
    #: carrying session-scoped encode caches and kernel-routing
    #: counters. Kept as a separate flag so user-defined measures with
    #: the plain two-argument signature keep working unchanged.
    memo_capable: bool = False

    @abstractmethod
    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        """Return the distance between two value sets (>= 0)."""

    def evaluate_column(
        self, columns_a: ValueColumn, columns_b: ValueColumn
    ) -> np.ndarray:
        """Distances for aligned columns of value sets, one per pair.

        Rows where either side is empty get ``INFINITE_DISTANCE``. The
        generic implementation memoises per distinct (value set, value
        set) combination — entity value tuples recur across pairs, so
        even the fallback avoids re-evaluating repeated combinations —
        and is bit-identical to calling :meth:`evaluate` per row.
        """
        return fallback_column(self.evaluate, columns_a, columns_b)

    def cache_token(self) -> str:
        """Stable identity of this measure for *persistent* cache keys.

        The registry name alone is not enough across processes: two
        runs sharing a cache directory could resolve the same name to
        different implementations or configurations (a custom
        ``levenshtein``, ``QGramsDistance(q=3)`` vs the default q=2).
        The token therefore records the implementation class and its
        scalar configuration attributes; memo tables and other
        non-scalar state are excluded — they never change results.
        """
        params = ",".join(
            f"{name}={value!r}"
            for name, value in sorted(vars(self).items())
            if value is None or isinstance(value, (bool, int, float, str))
        )
        return f"{type(self).__module__}.{type(self).__qualname__}({params})"

    def __call__(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        return self.evaluate(values_a, values_b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def fallback_column(
    evaluate: Callable[[Sequence[str], Sequence[str]], float],
    columns_a: ValueColumn,
    columns_b: ValueColumn,
) -> np.ndarray:
    """Per-pair batch fallback, deduplicated per value-set combination.

    Keys the memo by the identity of the value tuples (the engine hands
    out one tuple object per unique entity, so identity collapses the
    cross product to unique combinations without hashing string
    contents). ``evaluate`` must be pure, which every distance measure
    is by contract.
    """
    if len(columns_a) != len(columns_b):
        raise ValueError(
            f"column length mismatch: {len(columns_a)} vs {len(columns_b)}"
        )
    out = np.full(len(columns_a), INFINITE_DISTANCE, dtype=np.float64)
    memo: dict[tuple[int, int], float] = {}
    for i, (values_a, values_b) in enumerate(zip(columns_a, columns_b)):
        if not values_a or not values_b:
            continue
        key = (id(values_a), id(values_b))
        distance = memo.get(key)
        if distance is None:
            distance = evaluate(values_a, values_b)
            memo[key] = distance
        out[i] = distance
    return out


def parse_cached(
    cache: dict, values: Sequence[str], parser: Callable[[str], object]
) -> tuple:
    """Parse a value set through a per-column cache.

    Value tuples repeat across rows (one per unique entity), so each
    distinct set is parsed exactly once per batch call. Unparseable
    values stay as ``None`` — they still occupy a slot so the budgeted
    min-over-pairs loop visits them exactly like the scalar path does.
    """
    key = id(values)
    parsed = cache.get(key)
    if parsed is None:
        # The tuple is kept alive in the cache value so the id key
        # cannot be recycled for the duration of the batch call.
        parsed = (values, tuple(parser(v) for v in values))
        cache[key] = parsed
    return parsed[1]


def absdiff_column(
    columns_a: ValueColumn,
    columns_b: ValueColumn,
    parser: Callable[[str], float | None],
) -> np.ndarray:
    """Batch kernel for measures whose pair distance is ``abs(a - b)``
    over parsed scalars (numeric values, date ordinals).

    Parsing is memoised per distinct value set. Rows where both sides
    are parseable singletons — the overwhelmingly common case — are
    computed as one vectorized ``|a - b|`` numpy expression; rows with
    multi-valued or unparseable entries replay the scalar measure's
    budgeted min-over-pairs loop on the pre-parsed scalars, so every
    row is bit-identical to the per-pair path.
    """
    if len(columns_a) != len(columns_b):
        raise ValueError(
            f"column length mismatch: {len(columns_a)} vs {len(columns_b)}"
        )
    n = len(columns_a)
    out = np.full(n, INFINITE_DISTANCE, dtype=np.float64)
    # Scalar-or-None per value set, memoised by tuple identity (the
    # engine hands out one tuple object per unique entity). A scalar
    # means "parseable singleton" — the vectorized fast path; None
    # means the row needs the budgeted min-over-pairs loop or is a
    # failed singleton parse (NaN below maps those to the sentinel,
    # matching the scalar result).
    nan = float("nan")
    scalars: dict[int, float | None] = {}
    parsed_sets: dict = {}
    fast_a: list[float] = [nan] * n
    fast_b: list[float] = [nan] * n
    slow_rows: list[int] = []
    scalars_get = scalars.get
    for i, (values_a, values_b) in enumerate(zip(columns_a, columns_b)):
        if not values_a or not values_b:
            continue
        scalar_a = scalars_get(id(values_a), _UNSEEN)
        if scalar_a is _UNSEEN:
            scalar_a = _intern_scalar(values_a, parser, scalars, parsed_sets)
        scalar_b = scalars_get(id(values_b), _UNSEEN)
        if scalar_b is _UNSEEN:
            scalar_b = _intern_scalar(values_b, parser, scalars, parsed_sets)
        if scalar_a is not None and scalar_b is not None:
            fast_a[i] = scalar_a
            fast_b[i] = scalar_b
        elif len(values_a) > 1 or len(values_b) > 1:
            slow_rows.append(i)
    # Both sides overflowing to inf (e.g. "1e400") make ``inf - inf`` a
    # NaN, exactly as the scalar ``abs(a - b)`` does; the NaN mask below
    # then leaves the sentinel, matching the scalar result. The invalid
    # subtraction is expected there, so it must not warn.
    with np.errstate(invalid="ignore"):
        difference = np.abs(
            np.asarray(fast_a, dtype=np.float64)
            - np.asarray(fast_b, dtype=np.float64)
        )
    # min_over_pairs never returns more than the INFINITE_DISTANCE
    # sentinel it starts from (a candidate must be strictly smaller to
    # be taken), so the vectorized path clamps to stay bit-identical on
    # huge differences (13-digit values, overflow-to-inf parses).
    difference = np.minimum(difference, INFINITE_DISTANCE)
    valid = ~np.isnan(difference)
    out[valid] = difference[valid]
    for i in slow_rows:
        out[i] = min_over_pairs(
            parse_cached(parsed_sets, columns_a[i], parser),
            parse_cached(parsed_sets, columns_b[i], parser),
            _absdiff_pair,
        )
    return out


#: Sentinel distinguishing "not interned yet" from an interned None.
_UNSEEN = object()


def _intern_scalar(
    values: Sequence[str],
    parser: Callable[[str], float | None],
    scalars: dict,
    parsed_sets: dict,
) -> float | None:
    """Intern a value set for :func:`absdiff_column`: its parsed scalar
    when it is a parseable singleton, else None (multi-valued sets also
    pre-parse into ``parsed_sets`` for the slow path)."""
    scalar: float | None = None
    if len(values) == 1:
        scalar = parser(values[0])
    else:
        parse_cached(parsed_sets, values, parser)
    # id keys are stable here: the interned tuples are kept alive by
    # the caller's column lists for the whole batch call.
    scalars[id(values)] = scalar
    return scalar


def _absdiff_pair(a: float | None, b: float | None) -> float:
    if a is None or b is None:
        return INFINITE_DISTANCE
    return abs(a - b)


def min_over_pairs(
    values_a: Sequence[str],
    values_b: Sequence[str],
    pair_distance: Callable[[str, str], float],
    max_pairs: int = MAX_PAIRS,
) -> float:
    """Lift a pairwise distance to value sets via the minimum.

    The minimum over the cross product is the Silk convention: two
    entities are as close as their closest pair of values. ``max_pairs``
    bounds the work on pathologically multi-valued properties; values
    beyond the cap are ignored deterministically (first values win).
    """
    if not values_a or not values_b:
        return INFINITE_DISTANCE
    best = INFINITE_DISTANCE
    budget = max_pairs
    for va in values_a:
        for vb in values_b:
            d = pair_distance(va, vb)
            if d < best:
                best = d
                if best == 0.0:
                    return 0.0
            budget -= 1
            if budget <= 0:
                return best
    return best
