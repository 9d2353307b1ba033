"""Parity of the bit-parallel levenshtein kernel.

``levenshtein_pairs`` must return, for every pair and every bound, the
same float as the scalar ``levenshtein`` oracle and as the numpy
row-DP it replaced (frozen in ``benchmarks/_seed_string_kernels.py``):
exact distances, and ``bound + 1`` for anything above a bound. The
inputs stress what the kernel gets wrong first: word edges (patterns of
63/64/65/127/128/129 characters), an empty shorter side, combining
marks and astral-plane characters, repeated patterns within one chunk,
and memory budgets small enough to force single-pair chunks and
word strips.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import strings
from repro.distances.levenshtein import levenshtein
from repro.distances.registry import default_registry
from repro.distances.strings import StringKernelMemo, levenshtein_pairs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from _seed_string_kernels import seed_levenshtein_pairs  # noqa: E402

BOUNDS = (None, 0, 1, 3, 11)

#: Small alphabet with a combining acute (U+0301) and an astral-plane
#: emoji, so most pairs share characters and distances stay small.
ALPHABET = "abcé́\U0001F600"

#: Pattern lengths on both sides of the 64-bit word edges.
EDGE_LENGTHS = (63, 64, 65, 127, 128, 129)


def _assert_parity(strings_a, strings_b, bound, memo=None):
    got = levenshtein_pairs(strings_a, strings_b, bound, memo=memo)
    scalar = np.array(
        [levenshtein(a, b, bound) for a, b in zip(strings_a, strings_b)],
        dtype=np.float64,
    )
    frozen = seed_levenshtein_pairs(strings_a, strings_b, bound)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, scalar, err_msg=f"bound={bound}")
    np.testing.assert_array_equal(frozen, scalar, err_msg=f"bound={bound}")


def _text(max_size: int = 300):
    return st.text(alphabet=ALPHABET, min_size=0, max_size=max_size)


@st.composite
def _pair(draw):
    """An independent pair, or a string and a lightly edited copy (the
    small distances a bound does not clamp)."""
    a = draw(_text())
    if draw(st.booleans()):
        return a, draw(_text())
    chars = list(a)
    for _ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from(("insert", "delete", "substitute")))
        pos = draw(st.integers(0, len(chars)))
        if op == "insert" or not chars:
            chars.insert(pos, draw(st.sampled_from(ALPHABET)))
        elif op == "delete":
            del chars[min(pos, len(chars) - 1)]
        else:
            chars[min(pos, len(chars) - 1)] = draw(st.sampled_from(ALPHABET))
    b = "".join(chars)
    return (a, b) if draw(st.booleans()) else (b, a)


@given(pairs=st.lists(_pair(), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_scalar_and_frozen_row_dp(pairs):
    strings_a = [a for a, _ in pairs]
    strings_b = [b for _, b in pairs]
    memo = StringKernelMemo()
    for bound in BOUNDS:
        _assert_parity(strings_a, strings_b, bound)
        _assert_parity(strings_a, strings_b, bound, memo=memo)


def _edge_pairs() -> tuple[list[str], list[str]]:
    """Every edge length against itself, its neighbours and short
    strings, plus edited copies at each word edge."""
    rng = random.Random(64)

    def text(length: int) -> str:
        return "".join(rng.choice(ALPHABET) for _ in range(length))

    def edit(value: str, edits: int) -> str:
        chars = list(value)
        for _ in range(edits):
            pos = rng.randrange(len(chars))
            chars[pos] = rng.choice(ALPHABET)
        return "".join(chars)

    bases = {length: text(length) for length in EDGE_LENGTHS}
    strings_a: list[str] = []
    strings_b: list[str] = []
    for length, base in bases.items():
        for other in EDGE_LENGTHS:
            strings_a.append(base)
            strings_b.append(bases[other])
        for edits in (1, 2, 5, 12):
            strings_a.append(base)
            strings_b.append(edit(base, edits))
        # The same pattern under a longer text, and a shorter one.
        strings_a += [base, base]
        strings_b += [base + text(3), base[: length - 2]]
    return strings_a, strings_b


@pytest.mark.parametrize("bound", BOUNDS)
def test_word_edge_lengths(bound):
    strings_a, strings_b = _edge_pairs()
    _assert_parity(strings_a, strings_b, bound)


@pytest.mark.parametrize("bound", BOUNDS)
def test_empty_shorter_side(bound):
    others = ["", "a", "é́", "\U0001F600" * 5, "x" * 64, "y" * 129]
    strings_a = [""] * len(others) + others
    strings_b = others + [""] * len(others)
    _assert_parity(strings_a, strings_b, bound)


@pytest.mark.parametrize("budget", (8, 40, 2000))
def test_tiny_budgets_force_small_chunks_and_word_strips(monkeypatch, budget):
    """A budget of 8 cells makes every pair its own chunk and every
    word its own Eq-table strip (the path a single huge pattern takes);
    larger ones cut mixed chunks. Results may never depend on it."""
    monkeypatch.setattr(strings, "_CELL_BUDGET", budget)
    strings_a, strings_b = _edge_pairs()
    for bound in (None, 3):
        _assert_parity(strings_a, strings_b, bound)


def test_repeated_patterns_share_one_table_row():
    """Many pairs over a few distinct patterns (the engine's shape:
    one value per entity fanned over many pairs), in both orders."""
    rng = random.Random(5)
    patterns = ["kitten", "sitting", "a" * 70, "ab" * 40, "x"]
    strings_a = [rng.choice(patterns) for _ in range(300)]
    strings_b = [rng.choice(patterns) + rng.choice(("", "s", "zz")) for _ in range(300)]
    for bound in BOUNDS:
        _assert_parity(strings_a, strings_b, bound)
        _assert_parity(strings_b, strings_a, bound)


@pytest.mark.parametrize("limit", (None, 1, 300))
@pytest.mark.parametrize("name", ("levenshtein", "normalizedLevenshtein", "jaroWinkler"))
def test_multi_valued_budget_matches_min_over_pairs(monkeypatch, name, limit):
    """Multi-valued combinations expand in min_over_pairs order and
    stop at its 256-pair budget: an exact match placed past the budget
    must not count, one placed inside it must — also when the
    expansion is split into several kernel calls (``limit``)."""
    if limit is not None:
        monkeypatch.setattr(strings, "_EXPANSION_LIMIT", limit)
    measure = default_registry().get(name)
    values_a = tuple(f"value {i:02d}" for i in range(20))
    past = tuple(f"other {i:02d}" for i in range(19)) + ("value 19",)
    inside = ("value 00",) + past[1:]
    columns_a = [values_a, values_a, values_a[:1], values_a[:3]]
    columns_b = [past, inside, past, ("zzz", "value 02", "value 01")]
    batch = measure.evaluate_column(columns_a, columns_b)
    expected = [measure.evaluate(a, b) for a, b in zip(columns_a, columns_b)]
    np.testing.assert_array_equal(batch, np.array(expected))
    assert batch[0] > 0.0 and batch[1] == 0.0
