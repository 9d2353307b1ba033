"""Batch distance-kernel parity: ``evaluate_column`` must be
bit-identical to the per-pair ``evaluate`` loop for every measure —
vectorized kernels and the generic fallback alike — including empty
value sets (``INFINITE_DISTANCE`` propagation), unparseable values,
multi-valued properties and the min-over-pairs budget."""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances.base import INFINITE_DISTANCE, fallback_column
from repro.distances.registry import default_registry
from repro.distances.strings import (
    BACKEND_ENV,
    StringKernelMemo,
    _rapidfuzz_levenshtein,
    string_backend,
)

_REGISTRY = default_registry()

#: Every measure with a vectorized kernel (PR 2 families plus the
#: string families).
BATCH_CAPABLE = (
    "numeric",
    "date",
    "equality",
    "geographic",
    "qgrams",
    "levenshtein",
    "normalizedLevenshtein",
    "jaro",
    "jaroWinkler",
    "jaccard",
    "dice",
    "overlap",
)

#: Measures still on the generic per-pair column path.
FALLBACK = ("softJaccard", "mongeElkan")

#: String measures whose kernels route through the
#: ``REPRO_ENGINE_STRING_BACKEND`` selection.
STRING_MEASURES = (
    "levenshtein",
    "normalizedLevenshtein",
    "jaro",
    "jaroWinkler",
    "jaccard",
    "dice",
    "overlap",
)


def _backends() -> tuple[str, ...]:
    """Backends testable in this environment (rapidfuzz only when the
    optional package is installed — CI's optional-deps leg covers it)."""
    backends = ("python", "numpy")
    if _rapidfuzz_levenshtein() is not None:
        backends += ("rapidfuzz",)
    return backends


class _backend:
    """Context manager pinning ``REPRO_ENGINE_STRING_BACKEND``."""

    def __init__(self, spec: str | None):
        self._spec = spec

    def __enter__(self):
        self._saved = os.environ.get(BACKEND_ENV)
        if self._spec is None:
            os.environ.pop(BACKEND_ENV, None)
        else:
            os.environ[BACKEND_ENV] = self._spec

    def __exit__(self, *exc_info):
        if self._saved is None:
            os.environ.pop(BACKEND_ENV, None)
        else:
            os.environ[BACKEND_ENV] = self._saved

#: Value pools chosen to hit every parse branch of every measure:
#: numbers with both decimal separators, dates in several formats, bare
#: years, WKT and lat/lon coordinates, plain words, and garbage.
_VALUES = (
    "3.5",
    "3,5 mg",
    "-17",
    "1e3",
    "1999-01-01",
    "May 6, 2000",
    "2000/05/06",
    "1987",
    "POINT(13.37 52.52)",
    "52.52,13.37",
    "48.13 11.57",
    "Berlin",
    "berlin city",
    "x",
    "not a number",
    "",
    "2000000000000",  # 13 digits: |a-b| exceeds the sentinel unclamped
    "9e999",  # parses to float('inf')
)


def _column_strategy():
    value_set = st.lists(
        st.sampled_from(_VALUES), min_size=0, max_size=3
    ).map(tuple)
    return st.lists(value_set, min_size=0, max_size=8)


def _reference(measure, columns_a, columns_b):
    """The per-pair loop the engine used before the batch API."""
    out = np.full(len(columns_a), INFINITE_DISTANCE, dtype=np.float64)
    for i, (values_a, values_b) in enumerate(zip(columns_a, columns_b)):
        if values_a and values_b:
            out[i] = measure.evaluate(values_a, values_b)
    return out


@pytest.mark.parametrize("name", BATCH_CAPABLE)
def test_batch_capable_flag(name):
    assert _REGISTRY.get(name).batch_capable


@pytest.mark.parametrize("name", FALLBACK)
def test_fallback_measures_not_flagged(name):
    assert not _REGISTRY.get(name).batch_capable


@pytest.mark.parametrize("name", BATCH_CAPABLE + FALLBACK)
@given(columns=st.tuples(_column_strategy(), _column_strategy()))
@settings(max_examples=40, deadline=None)
def test_evaluate_column_matches_per_pair(name, columns):
    columns_a, columns_b = columns
    n = min(len(columns_a), len(columns_b))
    columns_a, columns_b = columns_a[:n], columns_b[:n]
    measure = _REGISTRY.get(name)
    batch = measure.evaluate_column(columns_a, columns_b)
    expected = _reference(measure, columns_a, columns_b)
    assert batch.dtype == np.float64
    # Bit-identical, not approximately equal: the engine caches these
    # columns and guarantees byte-identical scores across code paths.
    np.testing.assert_array_equal(batch, expected)


@pytest.mark.parametrize("name", BATCH_CAPABLE + FALLBACK)
def test_empty_value_sets_propagate_infinite(name):
    measure = _REGISTRY.get(name)
    columns_a = [(), ("3.5",), ()]
    columns_b = [("3.5",), (), ()]
    out = measure.evaluate_column(columns_a, columns_b)
    assert (out == INFINITE_DISTANCE).all()


@pytest.mark.parametrize("name", BATCH_CAPABLE + FALLBACK)
def test_empty_columns(name):
    out = _REGISTRY.get(name).evaluate_column([], [])
    assert out.shape == (0,)
    assert out.dtype == np.float64


def test_huge_differences_clamp_to_sentinel():
    """The scalar min-over-pairs loop never returns more than the
    INFINITE_DISTANCE sentinel it starts from; the vectorized singleton
    path must clamp identically (13-digit values, inf parses) — also
    when both sides overflow to inf, where ``inf - inf`` must be
    handled explicitly rather than warn."""
    measure = _REGISTRY.get("numeric")
    columns_a = [("2000000000000",), ("9e999",), ("1",), ("1e400",)]
    columns_b = [("0",), ("1",), ("9e999",), ("1e400",)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = measure.evaluate_column(columns_a, columns_b)
    expected = _reference(measure, columns_a, columns_b)
    np.testing.assert_array_equal(batch, expected)
    assert (batch == INFINITE_DISTANCE).all()


def test_min_over_pairs_budget_parity():
    """Value sets big enough to exhaust the 256-pair budget must agree
    between batch and scalar paths (the budget truncates the cross
    product deterministically)."""
    measure = _REGISTRY.get("numeric")
    values_a = tuple(str(i) for i in range(40))
    values_b = tuple(str(1000 - i) for i in range(40))  # 1600 pairs > 256
    batch = measure.evaluate_column([values_a], [values_b])
    assert batch[0] == measure.evaluate(values_a, values_b)


def test_column_length_mismatch_rejected():
    measure = _REGISTRY.get("numeric")
    with pytest.raises(ValueError, match="length mismatch"):
        measure.evaluate_column([("1",)], [])
    with pytest.raises(ValueError, match="length mismatch"):
        fallback_column(measure.evaluate, [("1",)], [])


#: Adversarial string pool for the string-kernel parity tests: empty
#: strings, non-ASCII and combining marks (precomposed e-acute vs
#: e + U+0301 must stay distinct characters), astral-plane code points,
#: strings far longer than the levenshtein band, and near-duplicates
#: that stress the early-exit and transposition paths.
_STRING_VALUES = (
    "",
    "a",
    "ab",
    "café",          # precomposed e-acute
    "café",          # e + combining acute: different code points
    "\U0001F600 emoji",
    "Berlin",
    "berlin",
    "berlin city centre",
    "x" * 40,              # far beyond the default band (max_bound=11)
    "x" * 39 + "y",
    "x" * 64,              # one full 64-bit word of the levenshtein kernel
    "x" * 32 + "y" * 33,   # 65: spills into a second word
    "x" * 64 + "y" * 65,   # 129: spills into a third word
    "kitten",
    "sitting",
    "the quick brown fox jumps over the lazy dog",
    "quick the fox brown jumps lazy the over dog",
)


def _string_column_strategy():
    value_set = st.lists(
        st.sampled_from(_STRING_VALUES), min_size=0, max_size=3
    ).map(tuple)
    return st.lists(value_set, min_size=0, max_size=8)


@pytest.mark.parametrize("name", STRING_MEASURES)
@given(columns=st.tuples(_string_column_strategy(), _string_column_strategy()))
@settings(max_examples=40, deadline=None)
def test_string_kernels_match_scalar_on_all_backends(name, columns):
    """Batch/scalar bit-parity for the string kernels over adversarial
    inputs, on every backend available in this environment, with and
    without the session memo."""
    columns_a, columns_b = columns
    n = min(len(columns_a), len(columns_b))
    columns_a, columns_b = columns_a[:n], columns_b[:n]
    measure = _REGISTRY.get(name)
    expected = _reference(measure, columns_a, columns_b)
    memo = StringKernelMemo()
    for backend in _backends():
        with _backend(backend):
            plain = measure.evaluate_column(columns_a, columns_b)
            memoised = measure.evaluate_column(columns_a, columns_b, memo=memo)
        np.testing.assert_array_equal(plain, expected, err_msg=backend)
        np.testing.assert_array_equal(memoised, expected, err_msg=backend)


@pytest.mark.parametrize("name", STRING_MEASURES)
def test_string_measures_are_memo_capable(name):
    assert _REGISTRY.get(name).memo_capable


def test_backend_resolution():
    with _backend(None):
        assert string_backend() == "numpy"
    with _backend("python"):
        assert string_backend() == "python"
    with _backend("nonsense"):
        with pytest.raises(ValueError, match="nonsense"):
            string_backend()
    if _rapidfuzz_levenshtein() is None:
        with _backend("auto"):
            assert string_backend() == "numpy"
        with _backend("rapidfuzz"):
            with pytest.raises(RuntimeError, match="not installed"):
                string_backend()
    else:
        with _backend("auto"):
            assert string_backend() == "rapidfuzz"


def test_routing_counters_split_batch_and_fallback():
    """Every row with values on both sides counts as batch under numpy,
    multi-valued combinations included (their cross products run
    through the same kernel call); empty rows count as neither; the
    python backend is all-fallback."""
    measure = _REGISTRY.get("levenshtein")
    columns_a = [("kitten",), ("a", "b"), (), ("kitten",)]
    columns_b = [("sitting",), ("c",), ("x",), ("sitting",)]
    memo = StringKernelMemo()
    with _backend("numpy"):
        measure.evaluate_column(columns_a, columns_b, memo=memo)
    assert memo.routing() == (("levenshtein", 3, 0),)
    with _backend("python"):
        measure.evaluate_column(columns_a, columns_b, memo=memo)
    assert memo.routing() == (("levenshtein", 3, 3),)


def test_string_memo_tables_are_bounded():
    memo = StringKernelMemo(limit=4)
    for i in range(10):
        memo.codes(str(i))
    assert len(memo._codes) <= 4
    keep_alive = [tuple([f"token{i}"]) for i in range(10)]
    for values in keep_alive:
        memo.token_sets([values])
    assert len(memo._token_sets) <= 4


def test_fallback_deduplicates_repeated_value_sets():
    """The generic fallback evaluates each distinct value-set
    combination once — repeated tuples (the engine's per-unique-entity
    columns) must not trigger repeated evaluation."""
    calls = []

    def spy(values_a, values_b):
        calls.append((values_a, values_b))
        return 1.0

    shared_a = ("x",)
    shared_b = ("y",)
    out = fallback_column(spy, [shared_a] * 5, [shared_b] * 5)
    assert len(calls) == 1
    assert (out == 1.0).all()
