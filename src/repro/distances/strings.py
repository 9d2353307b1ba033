"""Vectorized batch kernels for the string-measure family.

The levenshtein, jaro/jaro-winkler and jaccard/token measures were the
last measures still running the deduplicated per-pair Python fallback in
``DistanceMeasure.evaluate_column``. This module gives them real batch
kernels over **pre-encoded integer code matrices**:

* :func:`levenshtein_pairs` — exact edit distances from Myers'
  bit-parallel recurrence in Hyyrö's multi-word block form, vectorized
  across the whole distinct-pair column: strings are encoded once into
  int32 code-point arrays (UTF-32 — one code per Python character, so
  batch equality is exactly ``str`` equality), the shorter string of
  each pair becomes a bit-vector pattern with a per-chunk match-mask
  (Eq) table over a compact alphabet, and each character of the longer
  string advances every pair's DP column by a handful of uint64 word
  operations. Bounded calls clamp the exact distance to ``bound + 1``
  (the scalar contract), after a vectorized length-gap pre-filter.
* :func:`jaro_pairs` — bulk Jaro / Jaro-Winkler over the same encoded
  matrices: the greedy match-window scan runs one character position at
  a time across all pairs (first-fit ``argmax`` per row reproduces the
  scalar loop's leftmost-unmatched choice exactly), transpositions are
  counted by stable-argsort compaction of the matched flags, and the
  final similarity arithmetic keeps the scalar expression's operation
  order so IEEE float64 results are bit-identical.
* :func:`set_algebra_column` — jaccard/dice/overlap as set algebra over
  an interned integer token-code space: each distinct value tuple is
  encoded once into a sorted-unique int64 code array, and intersection
  sizes for *all* distinct tuple combinations are computed with one
  sort over ``combo_id * token_space + code`` keys (each side holds
  unique codes, so every adjacent duplicate is exactly one shared
  token).

Backends are selected via the ``REPRO_ENGINE_STRING_BACKEND``
environment variable (:func:`string_backend`): ``numpy`` (the default)
uses the kernels above, ``python`` forces the per-pair fallback (the
parity oracle), ``rapidfuzz`` uses the optional native backend for the
levenshtein family (bit-identical by construction — integer distances
with ``score_cutoff`` matching the scalar clamp contract) and the numpy
kernels elsewhere, and ``auto`` picks ``rapidfuzz`` when the package is
importable. Every backend is bit-identical to the scalar oracle; only
wall-clock changes.

:class:`StringKernelMemo` is the session-scoped carrier for the
encoded-matrix memoisation (per distinct string / per distinct value
tuple, bounded like the blocking probe memo) and for the per-measure
kernel-routing counters surfaced in ``EngineStats``/``MatchStats``.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence

import numpy as np

from repro.distances.base import INFINITE_DISTANCE, MAX_PAIRS

#: Environment variable selecting the string-kernel backend
#: (``numpy`` | ``rapidfuzz`` | ``python`` | ``auto``; unset = numpy).
BACKEND_ENV = "REPRO_ENGINE_STRING_BACKEND"

#: Size bound for each memo table; at the bound the table is dropped
#: wholesale (resets warm-up, never results) — the same policy as the
#: blocking probe memo.
_MEMO_LIMIT = 65536

#: Cell budget of one kernel chunk. Jaro chunks are cut so no padded
#: matching matrix (rows x width) exceeds this many int32 cells, and
#: levenshtein chunks so their Eq table, gather keys and state stay
#: within this many uint64 words, which keeps one pathologically long
#: string from inflating the padding of thousands of short ones.
_CELL_BUDGET = 1 << 20

_RAPIDFUZZ: object = None  # None = unprobed, False = unavailable


def _rapidfuzz_levenshtein():
    """The ``rapidfuzz.distance.Levenshtein`` module, or None when the
    optional dependency is not installed (probed once per process)."""
    global _RAPIDFUZZ
    if _RAPIDFUZZ is None:
        try:
            from rapidfuzz.distance import Levenshtein  # noqa: deferred

            _RAPIDFUZZ = Levenshtein
        except ImportError:
            _RAPIDFUZZ = False
    return _RAPIDFUZZ if _RAPIDFUZZ is not False else None


def string_backend() -> str:
    """Resolve the active string-kernel backend.

    Reads ``REPRO_ENGINE_STRING_BACKEND`` on every call (cheap, and
    lets tests flip backends without re-importing): ``numpy`` is the
    default, ``python`` forces the scalar per-pair fallback, and
    ``rapidfuzz`` requires the package (``auto`` degrades to numpy
    without it). Whatever the backend, results are bit-identical —
    the selection only moves wall-clock.
    """
    spec = os.environ.get(BACKEND_ENV, "").strip().lower() or "numpy"
    if spec == "auto":
        return "rapidfuzz" if _rapidfuzz_levenshtein() is not None else "numpy"
    if spec not in ("numpy", "rapidfuzz", "python"):
        raise ValueError(
            f"invalid {BACKEND_ENV} value {spec!r}: expected auto, numpy, "
            f"rapidfuzz or python"
        )
    if spec == "rapidfuzz" and _rapidfuzz_levenshtein() is None:
        raise RuntimeError(
            f"{BACKEND_ENV}=rapidfuzz but the rapidfuzz package is not "
            f"installed; pip install rapidfuzz or use the numpy backend"
        )
    return spec


def encode_string(value: str) -> np.ndarray:
    """One string as an int32 array of Unicode code points.

    UTF-32-LE gives exactly one code unit per Python character, so
    elementwise comparison of encoded arrays is exactly ``str``
    character equality — including combining marks and astral-plane
    characters, which stay separate code points just like they do for
    the scalar measures.
    """
    return np.frombuffer(value.encode("utf-32-le"), dtype="<i4")


def _local_encoder() -> Callable[[str], np.ndarray]:
    """Per-call encode memo for kernels invoked without a session memo.

    Pair columns repeat the same strings heavily (a few hundred unique
    entities fanned over thousands of pairs), so even a single batch
    call amortises encoding across occurrences.
    """
    table: dict[str, np.ndarray] = {}

    def encode(value: str) -> np.ndarray:
        codes = table.get(value)
        if codes is None:
            codes = encode_string(value)
            table[value] = codes
        return codes

    return encode


class StringKernelMemo:
    """Session-scoped encode memo + kernel-routing counters.

    Three bounded tables, each dropped wholesale at the limit (the
    probe-memo policy — resets warm-up, never results):

    * per distinct **string**: its int32 code-point array (levenshtein
      and jaro kernels);
    * per distinct **value tuple** (identity-keyed; the engine hands
      out one tuple object per unique entity and keeps it alive in the
      value cache): its sorted-unique token-code array over a shared
      interning table (jaccard/dice/overlap set algebra);
    * per **measure name**: counts of pairs routed through the batch
      kernel vs the per-pair fallback, surfaced as
      ``EngineStats.kernel_routing``.

    Thread-safe: the token table and the counters take a lock (token
    ids have a cross-key invariant), the string-code table relies on
    GIL-atomic dict operations — races there only duplicate pure work.
    """

    def __init__(self, limit: int = _MEMO_LIMIT):
        self._limit = limit
        self._codes: dict[str, np.ndarray] = {}
        self._token_ids: dict[str, int] = {}
        #: id(tuple) -> (tuple, sorted unique code array); the tuple is
        #: kept alive so its id cannot be recycled while cached.
        self._token_sets: dict[int, tuple] = {}
        self._routing: dict[str, list[int]] = {}
        self._lock = threading.Lock()

    def codes(self, value: str) -> np.ndarray:
        """Encoded code-point array of one string (memoised)."""
        arr = self._codes.get(value)
        if arr is None:
            if len(self._codes) >= self._limit:
                self._codes.clear()
            arr = encode_string(value)
            self._codes[value] = arr
        return arr

    def token_sets(
        self, value_sets: Sequence[Sequence[str]]
    ) -> tuple[list[np.ndarray], int]:
        """Sorted-unique token-code arrays for value tuples, plus the
        current token-space size (every returned code is below it).

        One lock window covers the whole batch so a concurrent bound
        reset can never mix code assignments from two table
        generations within one caller's result list.
        """
        with self._lock:
            if (
                len(self._token_ids) >= self._limit
                or len(self._token_sets) >= self._limit
            ):
                self._token_ids.clear()
                self._token_sets.clear()
            table = self._token_ids
            sets = self._token_sets
            results: list[np.ndarray] = []
            for values in value_sets:
                key = id(values)
                entry = sets.get(key)
                if entry is None:
                    ids = {table.setdefault(v, len(table)) for v in values}
                    entry = (values, np.array(sorted(ids), dtype=np.int64))
                    sets[key] = entry
                results.append(entry[1])
            return results, len(table)

    # -- routing counters -----------------------------------------------------
    def record_routing(self, name: str, batch: int = 0, fallback: int = 0) -> None:
        """Count pairs routed through a measure's batch kernel vs the
        per-pair fallback (empty-side pairs are counted by neither)."""
        if not batch and not fallback:
            return
        with self._lock:
            entry = self._routing.get(name)
            if entry is None:
                self._routing[name] = entry = [0, 0]
            entry[0] += batch
            entry[1] += fallback

    def routing(self) -> tuple[tuple[str, int, int], ...]:
        """Snapshot of the per-measure counters as sorted
        ``(measure, batch_pairs, fallback_pairs)`` triples."""
        with self._lock:
            return tuple(
                sorted((k, v[0], v[1]) for k, v in self._routing.items())
            )


class BoundedValueMemo:
    """Bounded identity-keyed memo for data derived from value tuples.

    Used by the token-based measures to stop re-tokenising each value
    on every scalar call: the derived data (token lists) is cached per
    distinct value tuple, keyed by identity — the engine hands out one
    tuple object per unique entity — with the tuple kept alive in the
    entry so its id cannot be recycled while cached. At the bound the
    table is dropped wholesale, the probe-memo policy.
    """

    __slots__ = ("_limit", "_table")

    def __init__(self, limit: int = _MEMO_LIMIT):
        self._limit = limit
        self._table: dict[int, tuple] = {}

    def get(self, values, build: Callable):
        entry = self._table.get(id(values))
        if entry is None:
            if len(self._table) >= self._limit:
                self._table.clear()
            entry = (values, build(values))
            self._table[id(values)] = entry
        return entry[1]


def routing_delta(
    current: tuple[tuple[str, int, int], ...],
    baseline: "tuple[tuple[str, int, int], ...] | None",
) -> tuple[tuple[str, int, int], ...]:
    """Per-run routing counters: ``current - baseline`` per measure."""
    if not baseline:
        return current
    base = {name: (batch, fallback) for name, batch, fallback in baseline}
    out = []
    for name, batch, fallback in current:
        b_batch, b_fallback = base.get(name, (0, 0))
        batch, fallback = batch - b_batch, fallback - b_fallback
        if batch or fallback:
            out.append((name, batch, fallback))
    return tuple(out)


def routing_merged(
    snapshots: Sequence[tuple[tuple[str, int, int], ...]],
) -> tuple[tuple[str, int, int], ...]:
    """Sum routing snapshots across worker sessions."""
    totals: dict[str, list[int]] = {}
    for snapshot in snapshots:
        for name, batch, fallback in snapshot:
            entry = totals.setdefault(name, [0, 0])
            entry[0] += batch
            entry[1] += fallback
    return tuple(sorted((k, v[0], v[1]) for k, v in totals.items()))


def count_nonempty(columns_a, columns_b) -> int:
    """Pairs where both sides have values (the pairs a kernel actually
    evaluates — the routing-counter unit)."""
    return sum(1 for a, b in zip(columns_a, columns_b) if a and b)


# -- levenshtein ----------------------------------------------------------------


def levenshtein_pairs(
    strings_a: Sequence[str],
    strings_b: Sequence[str],
    bound: int | None = None,
    memo: StringKernelMemo | None = None,
) -> np.ndarray:
    """Edit distances for aligned string pairs, as float64.

    With ``bound`` the result is exactly ``min(d, bound + 1)`` per pair
    — the scalar :func:`repro.distances.levenshtein.levenshtein`
    contract. Equal strings, an empty side and (with a bound) a length
    gap above the bound are settled by vectorized masks; every other
    pair gets its exact distance from the bit-parallel kernel
    (:func:`_myers_chunk`), and the bound clamp is applied last.
    """
    count = len(strings_a)
    if count == 0:
        return np.empty(0, dtype=np.float64)
    la = np.fromiter(map(len, strings_a), np.int64, count)
    lb = np.fromiter(map(len, strings_b), np.int64, count)
    eq = np.fromiter(
        (x == y for x, y in zip(strings_a, strings_b)), np.bool_, count
    )
    slen = np.minimum(la, lb)
    llen = np.maximum(la, lb)
    # An empty side costs the other side's length; a length gap above
    # the bound already clamps (|la - lb| <= d <= llen).
    out = llen.astype(np.float64)
    out[eq] = 0.0
    todo = ~eq & (slen > 0)
    if bound is not None:
        todo &= np.abs(la - lb) <= bound
    indexes = np.flatnonzero(todo)
    if indexes.size:
        out[indexes] = _myers_distances(
            [strings_a[i] for i in indexes.tolist()],
            [strings_b[i] for i in indexes.tolist()],
            la[indexes],
            lb[indexes],
            memo.codes if memo is not None else encode_string,
        )
    if bound is not None:
        np.minimum(out, float(bound + 1), out=out)
    return out


def _budget_chunks(order: np.ndarray, width_len: np.ndarray, depth_len: np.ndarray):
    """Split ``order`` (indexes sorted by cost driver) into chunks whose
    padded matrix ``rows x (max width + 1)`` stays within the cell
    budget, so one long string cannot inflate every row's padding."""
    start = 0
    count = order.size
    while start < count:
        end = start + 1
        max_width = int(width_len[order[start]])
        while end < count:
            width = max(max_width, int(width_len[order[end]]))
            if (end - start + 1) * (width + 1) > _CELL_BUDGET:
                break
            max_width = width
            end += 1
        yield order[start:end]
        start = end


def _pad_codes(arrays: list[np.ndarray], width: int, fill: int) -> np.ndarray:
    matrix = np.full((len(arrays), width), fill, dtype=np.int32)
    for row, arr in enumerate(arrays):
        if arr.size:
            matrix[row, : arr.size] = arr
    return matrix


_ONE = np.uint64(1)


def _myers_distances(
    strings_a: list[str],
    strings_b: list[str],
    la: np.ndarray,
    lb: np.ndarray,
    encode: Callable[[str], np.ndarray],
) -> np.ndarray:
    """Exact edit distances of non-empty, unequal pairs.

    The shorter string of each pair is the bit-vector pattern (one bit
    per character, ``ceil(len / 64)`` words), the longer one the text
    scanned column by column. Pairs are sorted by (words, text length)
    and cut into budgeted chunks of one word count each.
    """
    interned: dict[str, int] = {}
    ids_a = np.fromiter(
        (interned.setdefault(v, len(interned)) for v in strings_a),
        np.int64,
        len(strings_a),
    )
    ids_b = np.fromiter(
        (interned.setdefault(v, len(interned)) for v in strings_b),
        np.int64,
        len(strings_b),
    )
    codes = [encode(v) for v in interned]
    swap = la > lb
    short_id = np.where(swap, ids_b, ids_a)
    long_id = np.where(swap, ids_a, ids_b)
    slen = np.minimum(la, lb)
    llen = np.maximum(la, lb)
    words = (slen + 63) >> 6
    order = np.lexsort((llen, words))
    # Compact alphabet of every pattern plus the "no match" slot: an
    # upper bound on any chunk's Eq-table width, used to cut chunks.
    patterns = [codes[k] for k in _distinct_sorted(short_id).tolist()]
    slots = _distinct_sorted(np.concatenate(patterns)).size + 1
    distances = np.empty(slen.size, dtype=np.int64)
    for chunk in _myers_chunks(order, words, llen, short_id, slots):
        distinct, local = np.unique(short_id[chunk], return_inverse=True)
        distances[chunk] = _myers_chunk(
            [codes[k] for k in distinct.tolist()],
            local,
            [codes[k] for k in long_id[chunk].tolist()],
            slen[chunk],
            llen[chunk],
        )
    return distances


def _myers_chunks(
    order: np.ndarray,
    words: np.ndarray,
    llen: np.ndarray,
    short_id: np.ndarray,
    slots: int,
):
    """Split ``order`` (sorted by words, then text length) into chunks
    of one word count whose memory stays within the cell budget.

    A chunk of ``P`` pairs over ``S`` distinct patterns costs
    ``S * slots * words`` Eq-table words plus, per pair, its text-length
    column of gather keys and the ``2 * words`` state words with a few
    temporaries. Each term only grows as a chunk extends (texts are
    sorted ascending), so the longest affordable chunk is one
    ``searchsorted`` over the running cost; a chunk holds at least one
    pair, whose own Eq table :func:`_myers_chunk` then splits into
    word strips.
    """
    words = words[order]
    llen = llen[order]
    ids = short_id[order]
    # prev[k]: last earlier position of the same pattern (-1 if none),
    # so a chunk starting at s holds count(prev < s) distinct patterns.
    prev = np.full(order.size, -1, dtype=np.int64)
    by_id = np.argsort(ids, kind="stable")
    same = ids[by_id[1:]] == ids[by_id[:-1]]
    prev[by_id[1:][same]] = by_id[:-1][same]
    start = 0
    while start < order.size:
        width = int(words[start])
        stop = start + int(np.searchsorted(words[start:], width, side="right"))
        # Every pair costs over 8 words: this only bounds the scan.
        stop = min(stop, start + _CELL_BUDGET // 8)
        distinct = np.cumsum(prev[start:stop] < start)
        pairs = np.arange(1, stop - start + 1, dtype=np.int64)
        cost = distinct * (slots * width) + pairs * (llen[start:stop] + 2 * width + 8)
        end = start + max(1, int(np.searchsorted(cost, _CELL_BUDGET, side="right")))
        yield order[start:end]
        start = end


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` without the options-free path's import of
    ``numpy.ma`` (about 1 MB of resident memory for an ``is_masked``
    check)."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _flat_positions(lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner index and in-array position of every element of the
    concatenation of arrays with lengths ``lens``."""
    owner = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    position = np.arange(owner.size, dtype=np.int64) - np.repeat(
        np.cumsum(lens) - lens, lens
    )
    return owner, position


def _myers_chunk(
    shorts: list[np.ndarray],
    short_of: np.ndarray,
    longs: list[np.ndarray],
    slen: np.ndarray,
    llen: np.ndarray,
) -> np.ndarray:
    """Exact edit distances for one chunk, bit-parallel across pairs.

    Myers' recurrence in Hyyrö's block form: ``pv``/``mv`` hold the
    +1/-1 vertical deltas of the current DP column, one bit per pattern
    character, as ``(words, pairs)`` uint64 arrays. Each text character
    advances every word low to high; a word's top-row horizontal delta
    (``hout``) is the next word's ``hin``, so no addition carry crosses
    a word boundary. Word 0 gets ``hin = +1`` (row 0 of a global
    alignment is ``D[0][j] = j``). Bits above row ``m`` only ever
    influence higher bits, so their contents are irrelevant; the
    distance is read once at the end from the final column.

    ``shorts`` are the chunk's distinct patterns (``short_of`` maps each
    pair to one), all spanning the same number of words. Pairs are
    sorted by text length, so the pairs still scanning column ``j`` are
    a suffix of the chunk and shorter texts simply drop out.
    """
    count = len(longs)
    words = (int(slen[0]) + 63) >> 6
    width = int(llen[-1])
    short_lens = np.fromiter(map(len, shorts), np.int64, len(shorts))
    short_codes = np.concatenate(shorts)
    alphabet = _distinct_sorted(short_codes)
    slots = alphabet.size + 1
    owner, position = _flat_positions(short_lens)
    cells = owner * slots + np.searchsorted(alphabet, short_codes)
    # Gather keys: column j of pair p reads Eq-table cell
    # (pattern, compact code of the text's j-th character); characters
    # outside the pattern alphabet read the all-zero "no match" slot.
    long_codes = np.concatenate(longs)
    code = np.minimum(np.searchsorted(alphabet, long_codes), alphabet.size - 1)
    code[alphabet[code] != long_codes] = alphabet.size
    pair, column = _flat_positions(llen)
    keys = np.zeros((width, count), dtype=np.intp)
    keys[column, pair] = short_of[pair] * slots + code
    starts = np.searchsorted(llen, np.arange(width), side="right")

    pv = np.full((words, count), ~np.uint64(0), dtype=np.uint64)
    mv = np.zeros((words, count), dtype=np.uint64)
    # The Eq table is built for a strip of words at a time; ordinary
    # chunks fit in one strip, a single huge pattern gets several, with
    # each column's horizontal delta out of a strip carried into the
    # next one.
    strip = max(1, min(words, _CELL_BUDGET // (len(shorts) * slots)))
    carry = None
    for low in range(0, words, strip):
        high = min(words, low + strip)
        inside = (position >> 6 >= low) & (position >> 6 < high)
        table = np.zeros((high - low, len(shorts) * slots), dtype=np.uint64)
        np.bitwise_or.at(
            table,
            ((position[inside] >> 6) - low, cells[inside]),
            _ONE << (position[inside] & 63).astype(np.uint64),
        )
        out_carry = None
        if high < words:
            out_carry = (
                np.zeros((width, count), dtype=np.uint64),
                np.zeros((width, count), dtype=np.uint64),
            )
        for j in range(width):
            s = int(starts[j])
            key = keys[j, s:]
            if carry is None:
                h_plus, h_minus = _ONE, None
            else:
                h_plus, h_minus = carry[0][j, s:], carry[1][j, s:]
            for w in range(low, high):
                eq = table[w - low].take(key)
                p = pv[w, s:]
                m = mv[w, s:]
                xv = eq | m
                if h_minus is not None:
                    eq |= h_minus
                xh = ((eq & p) + p) ^ p
                xh |= eq
                ph = ~(xh | p)
                ph |= m
                mh = p & xh
                if w < words - 1:
                    out_plus, out_minus = ph >> 63, mh >> 63
                ph <<= _ONE
                ph |= h_plus
                mh <<= _ONE
                if h_minus is not None:
                    mh |= h_minus
                np.bitwise_or(mh, ~(xv | ph), out=p)
                np.bitwise_and(ph, xv, out=m)
                if w < words - 1:
                    h_plus, h_minus = out_plus, out_minus
            if out_carry is not None:
                out_carry[0][j, s:] = h_plus
                out_carry[1][j, s:] = h_minus
        carry = out_carry
    # A pair's state stops changing after its last text character, so
    # every column is now final: D[m][n] = D[0][n] + the sum of its
    # vertical deltas over rows 1..m (rows above m are masked off).
    rows_in_last = (slen - 64 * (words - 1)).astype(np.uint64)
    last_mask = ~np.uint64(0) >> (np.uint64(64) - rows_in_last)
    pv[-1] &= last_mask
    mv[-1] &= last_mask
    return (
        llen
        + np.bitwise_count(pv).sum(axis=0, dtype=np.int64)
        - np.bitwise_count(mv).sum(axis=0, dtype=np.int64)
    )


def rapidfuzz_levenshtein_pairs(
    strings_a: Sequence[str],
    strings_b: Sequence[str],
    bound: int | None = None,
) -> np.ndarray:
    """Edit distances via the native rapidfuzz backend.

    ``score_cutoff`` makes rapidfuzz return ``bound + 1`` for any
    distance above the bound — exactly the scalar clamp contract — and
    distances are integers, so the backend is bit-identical by
    construction (no float rounding to diverge on).
    """
    lev = _rapidfuzz_levenshtein()
    if lev is None:  # pragma: no cover - guarded by string_backend()
        raise RuntimeError("rapidfuzz is not installed")
    distance = lev.distance
    if bound is None:
        values = [distance(a, b) for a, b in zip(strings_a, strings_b)]
    else:
        values = [
            distance(a, b, score_cutoff=bound)
            for a, b in zip(strings_a, strings_b)
        ]
    return np.array(values, dtype=np.float64)


# -- jaro / jaro-winkler --------------------------------------------------------


def jaro_pairs(
    strings_a: Sequence[str],
    strings_b: Sequence[str],
    memo: StringKernelMemo | None = None,
    prefix_scale: float | None = None,
) -> np.ndarray:
    """Jaro similarities for aligned string pairs (Jaro-Winkler when
    ``prefix_scale`` is given), bit-identical to the scalar loops.

    The greedy match scan runs one character position at a time across
    all pairs: a boolean candidate matrix (``==`` over the encoded
    codes, window mask, unmatched mask) and its per-row ``argmax``
    reproduce the scalar loop's first-unmatched-in-window choice
    exactly. Transpositions compare the k-th matched character of each
    side via stable-argsort compaction. The final arithmetic keeps the
    scalar expression order, so the float64 results match bit for bit.
    """
    count = len(strings_a)
    out = np.empty(count, dtype=np.float64)
    if count == 0:
        return out
    la = np.fromiter(map(len, strings_a), np.int64, count)
    lb = np.fromiter(map(len, strings_b), np.int64, count)
    eq = np.fromiter(
        (x == y for x, y in zip(strings_a, strings_b)), np.bool_, count
    )
    out[eq] = 1.0
    empty = ((la == 0) | (lb == 0)) & ~eq
    out[empty] = 0.0
    indexes = np.flatnonzero(~eq & ~empty)
    if indexes.size == 0:
        return out
    encode = memo.codes if memo is not None else _local_encoder()
    codes_a = [encode(strings_a[i]) for i in indexes.tolist()]
    codes_b = [encode(strings_b[i]) for i in indexes.tolist()]
    la, lb = la[indexes], lb[indexes]
    order = np.argsort(la + lb, kind="stable")
    for chunk in _budget_chunks(order, lb, la):
        similarities = _jaro_chunk(
            [codes_a[i] for i in chunk.tolist()],
            [codes_b[i] for i in chunk.tolist()],
            la[chunk],
            lb[chunk],
            prefix_scale,
        )
        out[indexes[chunk]] = similarities
    return out


def _jaro_chunk(
    codes_a: list[np.ndarray],
    codes_b: list[np.ndarray],
    la: np.ndarray,
    lb: np.ndarray,
    prefix_scale: float | None,
) -> np.ndarray:
    size = len(codes_a)
    width_a = int(la.max())
    width_b = int(lb.max())
    a_matrix = _pad_codes(codes_a, width_a, -1)
    b_matrix = _pad_codes(codes_b, width_b, -2)
    window = np.maximum(np.maximum(la, lb) // 2 - 1, 0)[:, None]
    columns = np.arange(width_b, dtype=np.int64)
    matched_a = np.zeros((size, width_a), dtype=bool)
    matched_b = np.zeros((size, width_b), dtype=bool)
    matches = np.zeros(size, dtype=np.int64)
    rows = np.arange(size)
    for i in range(width_a):
        # The scalar window is [max(0, i - w), min(lb, i + w + 1)); the
        # lb clamp only excludes padding columns, which can never win
        # the equality test (pad codes differ by construction), so one
        # |column - i| <= w band mask is enough.
        candidates = (
            (b_matrix == a_matrix[:, i][:, None])
            & ~matched_b
            & (np.abs(columns - i) <= window)
        )
        first = candidates.argmax(axis=1)
        found = candidates[rows, first]
        matched_b[rows[found], first[found]] = True
        matched_a[found, i] = True
        matches += found
    # k-th matched character of each side, in original order (stable
    # argsort floats matched positions to the front without reordering
    # them — the scalar transposition walk).
    order_a = np.argsort(~matched_a, axis=1, kind="stable")
    order_b = np.argsort(~matched_b, axis=1, kind="stable")
    gathered_a = np.take_along_axis(a_matrix, order_a, axis=1)
    gathered_b = np.take_along_axis(b_matrix, order_b, axis=1)
    width = min(width_a, width_b)
    positions = np.arange(width, dtype=np.int64)
    transpositions = (
        (
            (gathered_a[:, :width] != gathered_b[:, :width])
            & (positions < matches[:, None])
        ).sum(axis=1)
        // 2
    )
    similarities = np.zeros(size, dtype=np.float64)
    positive = matches > 0
    m = matches[positive].astype(np.float64)
    t = transpositions[positive].astype(np.float64)
    la_f = la[positive].astype(np.float64)
    lb_f = lb[positive].astype(np.float64)
    # Exactly the scalar expression order: ((m/la + m/lb) + (m-t)/m) / 3.
    similarities[positive] = (m / la_f + m / lb_f + (m - t) / m) / 3.0
    if prefix_scale is not None:
        limit = min(4, width_a, width_b)
        shared = a_matrix[:, :limit] == b_matrix[:, :limit]
        prefix = np.cumprod(shared, axis=1).sum(axis=1).astype(np.float64)
        similarities = similarities + prefix * prefix_scale * (
            1.0 - similarities
        )
    return similarities


# -- set algebra (jaccard family) -----------------------------------------------


def set_intersections(
    sets_a: list[np.ndarray],
    sets_b: list[np.ndarray],
    token_space: int,
) -> np.ndarray:
    """Intersection sizes for aligned pairs of sorted-unique code sets.

    One sort over ``combo_id * token_space + code`` keys: within a
    combo each side holds unique codes, so every adjacent duplicate in
    the sorted key array is exactly one token shared by both sides.
    """
    count = len(sets_a)
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    combo_ids = np.arange(count, dtype=np.int64)
    space = max(token_space, 1)
    keys = np.concatenate(
        [
            np.repeat(combo_ids * space, lens) + codes
            for codes, lens in (
                _gather_sets(sets_a, count),
                _gather_sets(sets_b, count),
            )
        ]
    )
    keys.sort(kind="quicksort")
    duplicates = keys[1:] == keys[:-1]
    return np.bincount(
        keys[1:][duplicates] // space, minlength=count
    ).astype(np.int64)


def _gather_sets(sets: list[np.ndarray], count: int):
    """Concatenate per-combo code sets as ``(codes, lengths)``.

    The combo list references only a handful of distinct array objects
    (one per distinct value tuple, fanned out over combinations), so
    instead of ``np.concatenate`` over thousands of tiny views — whose
    per-array overhead dominates — pool each distinct array once and
    expand per combo with O(total) index arithmetic.
    """
    ids = np.fromiter(map(id, sets), np.int64, count)
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    distinct = [sets[i] for i in first.tolist()]
    pool_lens = np.fromiter(map(len, distinct), np.int64, len(distinct))
    pool_offsets = np.cumsum(pool_lens) - pool_lens
    pool = (
        np.concatenate(distinct)
        if distinct
        else np.zeros(0, np.int64)
    )
    lens = pool_lens[inverse]
    owner, positions = _flat_positions(lens)
    return pool[pool_offsets[inverse][owner] + positions], lens


def set_algebra_column(
    columns_a,
    columns_b,
    finish: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    memo: StringKernelMemo | None = None,
    name: str | None = None,
) -> np.ndarray:
    """Batch driver for measures over the two value sets themselves
    (jaccard, dice, overlap): deduplicate rows per distinct value-tuple
    combination, encode each distinct tuple once into the integer
    token-code space, compute all intersection sizes with one sorted
    pass, and let ``finish(intersections, sizes_a, sizes_b)`` apply the
    measure's arithmetic (which must keep the scalar operation order
    for bit-parity).
    """
    out = np.full(len(columns_a), INFINITE_DISTANCE, dtype=np.float64)
    combos = _distinct_combos(columns_a, columns_b)
    if combos is None:
        return out
    rows, tuples_a, tuples_b, select_a, select_b, row_combo = combos
    local = memo if memo is not None else StringKernelMemo()
    sets_a, _ = local.token_sets(tuples_a)
    sets_b, token_space = local.token_sets(tuples_b)
    intersections = _distinct_intersections(
        sets_a, sets_b, select_a, select_b, token_space
    )
    sizes_a = np.fromiter(map(len, sets_a), np.int64, len(sets_a))[select_a]
    sizes_b = np.fromiter(map(len, sets_b), np.int64, len(sets_b))[select_b]
    distances = finish(intersections, sizes_a, sizes_b)
    out[rows] = distances[row_combo]
    if memo is not None and name is not None:
        memo.record_routing(name, batch=rows.size)
    return out


#: Widest bitset (in 64-bit words) worth materialising per combination;
#: beyond it (token spaces over 4096 codes) the sorted-key path wins.
_BITSET_WORDS = 64


def _distinct_intersections(
    sets_a: list[np.ndarray],
    sets_b: list[np.ndarray],
    select_a: np.ndarray,
    select_b: np.ndarray,
    token_space: int,
) -> np.ndarray:
    """Intersection sizes for ``(select_a[i], select_b[i])`` pairs of
    distinct code sets.

    Small token spaces pack each distinct set into a fixed-width bitset
    once and count shared tokens with ``bitwise_and`` +
    ``bitwise_count`` per combination — O(words) per pair with a tiny
    constant. Large spaces fall back to the sorted-key pass of
    :func:`set_intersections`. Both produce exact integer counts, so
    the choice cannot affect parity.
    """
    words = (max(token_space, 1) + 63) // 64
    if words > _BITSET_WORDS:
        return set_intersections(
            [sets_a[k] for k in select_a.tolist()],
            [sets_b[k] for k in select_b.tolist()],
            token_space,
        )
    masks_a = _bitset_pack(sets_a, words)
    masks_b = _bitset_pack(sets_b, words)
    shared = masks_a[select_a] & masks_b[select_b]
    return np.bitwise_count(shared).sum(axis=1, dtype=np.int64)


def _bitset_pack(sets: list[np.ndarray], words: int) -> np.ndarray:
    """Each sorted-unique code set as one row of a packed bit matrix."""
    masks = np.zeros((len(sets), words), dtype=np.uint64)
    lens = np.fromiter(map(len, sets), np.int64, len(sets))
    codes = (
        np.concatenate(sets)
        if sets
        else np.zeros(0, np.int64)
    )
    owner = np.repeat(np.arange(len(sets), dtype=np.int64), lens)
    np.bitwise_or.at(
        masks,
        (owner, codes >> 6),
        np.uint64(1) << (codes & 63).astype(np.uint64),
    )
    return masks


# -- shared pairwise driver -----------------------------------------------------

#: Value pairs :func:`batch_pair_column` expands per kernel call.
_EXPANSION_LIMIT = 1 << 18


def batch_pair_column(
    columns_a,
    columns_b,
    pair_kernel: Callable[[list[str], list[str]], np.ndarray],
    memo: StringKernelMemo | None = None,
    name: str | None = None,
) -> np.ndarray:
    """Batch driver for measures lifting a pairwise string distance via
    ``min_over_pairs``, bit-identical to it.

    Rows collapse to distinct value-tuple combinations; each
    combination's cross product expands in ``min_over_pairs`` order
    (values of ``a`` outer, ``b`` inner), capped at its ``MAX_PAIRS``
    budget; every distinct string pair of every combination then runs
    through one ``pair_kernel`` call, and ``np.minimum.reduceat`` takes
    each combination's minimum. The minimum is exact, so the early exit
    at 0.0 and the first-values-win budget reduce to the same value.
    Like the scalar loop, no result exceeds the ``INFINITE_DISTANCE``
    it starts from.
    """
    out = np.full(len(columns_a), INFINITE_DISTANCE, dtype=np.float64)
    combos = _distinct_combos(columns_a, columns_b)
    if combos is None:
        return out
    rows, tuples_a, tuples_b, select_a, select_b, row_combo = combos
    # Intern every value of the distinct tuples: value k of tuple t
    # sits at flat[start[t] + k].
    interned: dict[str, int] = {}
    flat_a, start_a, size_a = _intern_values(tuples_a, interned)
    flat_b, start_b, size_b = _intern_values(tuples_b, interned)
    pool = list(interned)
    start_a, size_a = start_a[select_a], size_a[select_a]
    start_b, size_b = start_b[select_b], size_b[select_b]
    budget = np.minimum(size_a * size_b, MAX_PAIRS)
    ends = np.cumsum(budget)
    values = np.empty(budget.size, dtype=np.float64)
    first = 0
    while first < budget.size:
        # Expand at most _EXPANSION_LIMIT pairs (and at least one
        # combination) at a time, so tokenized multi-valued columns do
        # not hold every pair of the column in memory at once.
        done = int(ends[first - 1]) if first else 0
        last = max(
            first + 1,
            int(np.searchsorted(ends, done + _EXPANSION_LIMIT, side="right")),
        )
        part = slice(first, last)
        combo, index = _flat_positions(budget[part])
        width = size_b[part][combo]
        string_a = flat_a[start_a[part][combo] + index // width]
        string_b = flat_b[start_b[part][combo] + index % width]
        pair_keys, pair_of = np.unique(
            string_a * np.int64(len(pool)) + string_b, return_inverse=True
        )
        distances = pair_kernel(
            [pool[k] for k in (pair_keys // len(pool)).tolist()],
            [pool[k] for k in (pair_keys % len(pool)).tolist()],
        )
        values[part] = np.minimum.reduceat(
            distances[pair_of], ends[part] - budget[part] - done
        )
        first = last
    np.minimum(values, INFINITE_DISTANCE, out=values)
    out[rows] = values[row_combo]
    if memo is not None and name is not None:
        memo.record_routing(name, batch=rows.size)
    return out


def _distinct_combos(columns_a, columns_b):
    """Row dedup shared by :func:`set_algebra_column` and
    :func:`batch_pair_column`, vectorized.

    Uniques each side's tuple identities (the engine hands out one
    tuple object per unique entity), then the combination of the two
    small inverse indexes — cheaper than one ``np.unique`` over
    ``(id, id)`` rows. Returns ``(rows, tuples_a, tuples_b, select_a,
    select_b, row_combo)``: the non-empty rows, the distinct tuples of
    each side, each distinct combination's tuple index per side, and
    each row's combination. None when no row has values on both sides.
    """
    if len(columns_a) != len(columns_b):
        raise ValueError(
            f"column length mismatch: {len(columns_a)} vs {len(columns_b)}"
        )
    n = len(columns_a)
    lens_a = np.fromiter(map(len, columns_a), np.int64, n)
    lens_b = np.fromiter(map(len, columns_b), np.int64, n)
    rows = np.flatnonzero((lens_a > 0) & (lens_b > 0))
    if rows.size == 0:
        return None
    ids_a = np.fromiter(map(id, columns_a), np.int64, n)
    ids_b = np.fromiter(map(id, columns_b), np.int64, n)
    _, first_a, inv_a = np.unique(
        ids_a[rows], return_index=True, return_inverse=True
    )
    _, first_b, inv_b = np.unique(
        ids_b[rows], return_index=True, return_inverse=True
    )
    combo_key = inv_a * np.int64(first_b.size) + inv_b
    _, first_combo, row_combo = np.unique(
        combo_key, return_index=True, return_inverse=True
    )
    return (
        rows,
        [columns_a[i] for i in rows[first_a].tolist()],
        [columns_b[i] for i in rows[first_b].tolist()],
        inv_a[first_combo],
        inv_b[first_combo],
        row_combo,
    )


def _intern_values(tuples, interned: dict[str, int]):
    """Flat interned string ids of ``tuples`` plus each tuple's start
    offset and size in the flat array."""
    sizes = np.fromiter(map(len, tuples), np.int64, len(tuples))
    flat = np.fromiter(
        (interned.setdefault(v, len(interned)) for t in tuples for v in t),
        np.int64,
        int(sizes.sum()),
    )
    return flat, np.cumsum(sizes) - sizes, sizes
