"""Candidate generation (blocking) strategies.

Evaluating a linkage rule over the full Cartesian product A x B is
quadratic; blocking prunes the candidate set before rule evaluation.
Three classic strategies are provided plus a rule-aware blocker that
derives its keys from the properties a rule actually compares — a
light-weight stand-in for Silk's MultiBlock [19] (the full
aggregation-aware variant lives in :mod:`repro.matching.multiblock`).

Blocking is an **engine-integrated subsystem**, not a bare pair
stream:

* :meth:`Blocker.iter_shards` emits candidate pairs pre-chunked into
  ready-to-score shards, so :class:`repro.matching.engine.
  MatchingEngine` hands them straight to executor workers without a
  re-chunking layer. Shard boundaries depend only on ``batch_size``
  and the pair order never depends on it, so links stay byte-identical
  across batch sizes and worker counts.
* :meth:`Blocker.build_index` builds the blocker's reusable
  target-side index **vectorized**: tokenisation / key extraction runs
  once per *distinct value* (not once per entity occurrence), bulk
  dict operations assemble the blocks, and construction fans across
  the engine session's shared-memory executor for large sources.
* :meth:`Blocker.probe_batch` probes the index for a whole A-side
  chunk at once — the probe side mirrors the build side:
  :class:`TokenBlocker` bulk-tokenises the chunk through the same
  C-level lower/translate/split path used for indexing and unions each
  entity's postings lists in a single pass with C-level dedup
  (``dict.fromkeys`` over chained block tuples);
  :class:`SortedNeighbourhoodBlocker` resolves all windows of a chunk
  with vectorized ``numpy.searchsorted`` over its sorted merged
  positions; :class:`~repro.matching.multiblock.MultiBlocker` memoises
  probe results per distinct transformed value tuple. Probe chunks fan
  across the session's shared-memory executor via
  :func:`fan_entity_chunks`, and probe traffic is reported through the
  session (``EngineStats.probe_batches`` / ``probe_memo_hits``,
  surfaced per run in ``MatchStats``).
* With an :class:`~repro.engine.session.EngineSession`, indexes are
  memoised in the session and — when the session has a persistent
  :class:`~repro.engine.store.ColumnStore` — persisted in the store's
  **index tier**, keyed by ``DataSource.fingerprint()`` ×
  :meth:`Blocker.signature`. Warm reruns over unchanged sources then
  skip index construction entirely, the same way they already skip
  distance-column builds.

Indexes reference entities by uid only; the live source resolves uids
back to entities at emission time, which is what makes the persisted
form safe (content fingerprints guarantee the uids still describe the
same entities).
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.nodes import PropertyNode, TransformationNode, ValueNode
from repro.core.rule import LinkageRule
from repro.data.entity import Entity
from repro.data.source import DataSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.session import EngineSession

CandidatePair = tuple[Entity, Entity]

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

#: Sources below this size are indexed inline even when the session
#: executor could fan out — the thread hop costs more than the work.
_FAN_THRESHOLD = 512

#: A-side entities probed per :meth:`Blocker.probe_batch` call inside
#: the pair stream. Bounds resident per-entity candidate lists (the
#: stream stays memory-bounded like the per-entity loop it replaced)
#: while amortising batch machinery and giving `fan_entity_chunks`
#: enough work to fan. Never affects results — only how many entities
#: are probed per batch.
_PROBE_CHUNK = 2048

#: Entries kept in a run's probe memo before it is dropped wholesale.
#: The memo caches one partner-code array per distinct probe input, so
#: its footprint is bounded by O(limit x average candidate count);
#: clearing resets hit statistics, never results.
_PROBE_MEMO_LIMIT = 65536

#: Shared empty partner result (probing never mutates code arrays).
_EMPTY_CODES = np.empty(0, dtype=np.int32)


def _union_codes(blocks: list, size: int) -> np.ndarray:
    """Union of sorted unique code blocks, sorted: one concatenate +
    one boolean-mask assignment + one ``flatnonzero`` — three C calls,
    with zero-copy fast paths for zero and one block."""
    if not blocks:
        return _EMPTY_CODES
    if len(blocks) == 1:
        return blocks[0]
    mask = np.zeros(size, dtype=bool)
    mask[np.concatenate(blocks)] = True
    return np.flatnonzero(mask)


def _memo_put(memo: dict, key, value) -> None:
    """Insert into a probe memo, dropping it wholesale at the size
    bound (resets hit statistics, never results)."""
    if len(memo) >= _PROBE_MEMO_LIMIT:
        memo.clear()
    memo[key] = value


def fan_entity_chunks(
    session: "EngineSession | None",
    entities: Sequence[Entity],
    fn: Callable[[Sequence[Entity]], list],
) -> list:
    """Map ``fn`` over contiguous entity chunks, fanned across the
    session's shared-memory executor when one is available.

    ``fn`` receives a chunk and returns a list of per-entity results;
    chunk results are concatenated in chunk order, so the output is
    identical to ``fn(entities)`` whatever the worker count. Falls back
    to one inline call for serial/process executors and small inputs.
    """
    executor = session.executor if session is not None else None
    if (
        executor is None
        or not executor.shares_memory
        or executor.workers < 2
        or len(entities) < _FAN_THRESHOLD
    ):
        return fn(entities)
    workers = executor.workers
    size = (len(entities) + workers - 1) // workers
    chunks = [entities[i : i + size] for i in range(0, len(entities), size)]
    merged: list = []
    for part in executor.map(fn, chunks):
        merged.extend(part)
    return merged


def _code_pair_lists(
    chunk: Sequence[Entity],
    code_lists: Sequence[np.ndarray],
    uids: Sequence[str],
    by_code: Sequence[Entity],
    dedup: bool,
) -> Iterator[list[CandidatePair]]:
    """Per-entity candidate-pair lists from partner-code arrays.

    Codes are sorted in uid order, so the dedup-mode constraint
    (``uid_a < uid_b``) is a suffix — one bisect over the uid table
    plus one searchsorted over the codes — and self-pairs delete in
    one probe. Each entity's pair list is built entirely in C (``zip``
    + ``map`` over the code->entity table), and callers flatten with
    ``chain.from_iterable``, so the pair stream costs no per-pair
    Python bytecode at all. Code arrays are never mutated.
    """
    for entity_a, codes in zip(chunk, code_lists):
        uid_a = entity_a.uid
        if dedup:
            floor = bisect_right(uids, uid_a)
            codes = codes[np.searchsorted(codes, floor) :]
        else:
            i = bisect_left(uids, uid_a)
            if i < len(uids) and uids[i] == uid_a:
                j = int(np.searchsorted(codes, i))
                if j < len(codes) and codes[j] == i:
                    codes = np.delete(codes, j)
        yield list(
            zip(repeat(entity_a), map(by_code.__getitem__, codes.tolist()))
        )


def _affected_dedup_pair_lists(
    chunk: Sequence[Entity],
    code_lists: Sequence[np.ndarray],
    uids: Sequence[str],
    by_code: Sequence[Entity],
    affected: frozenset,
) -> Iterator[list[CandidatePair]]:
    """Per-entity candidate pairs for an *affected-only* dedup rescore.

    The probe chunk holds only affected entities. Each one emits its
    forward (``uid_a < uid_b``) partners unconditionally plus the
    backward partners that are *not* themselves affected — an affected
    backward partner emits the pair when it is probed itself. Pairs are
    uid-ordered exactly like the cold stream, so rescored pairs key the
    same columns a cold run would. (Two-source mode needs no variant:
    each pair has a unique probe side, so :func:`_code_pair_lists`
    emits every affected pair exactly once.)
    """
    for entity_a, codes in zip(chunk, code_lists):
        floor = bisect_right(uids, entity_a.uid)
        split = int(np.searchsorted(codes, floor))
        pairs: list[CandidatePair] = []
        for code in codes[:split].tolist():
            partner = by_code[code]
            # Self-pairs drop here too: the probe entity is always
            # in ``affected``.
            if partner.uid not in affected:
                pairs.append((partner, entity_a))
        pairs.extend(
            zip(
                repeat(entity_a),
                map(by_code.__getitem__, codes[split:].tolist()),
            )
        )
        yield pairs


def _token_blocks(
    source: DataSource, properties: Sequence[str], session
) -> dict:
    """Unfiltered token block table of one source: ``{token: (uids...)}``
    in source order, per-block uid-deduped, no size filter — the
    persisted form. Size filtering is a view concern
    (:meth:`TokenBlocker.build_index`), so one persisted table serves
    every ``max_block_size`` and stays patchable (a patch can never
    resurrect uids a filter already dropped)."""

    def extract(chunk):
        return [
            (entity.uid, _text_tokens(_entity_text(entity, properties)))
            for entity in chunk
        ]

    per_entity = fan_entity_chunks(session, source.entities(), extract)
    blocks: dict[str, list[str]] = {}
    get = blocks.get
    for uid, tokens in per_entity:
        for token in tokens:
            block = get(token)
            if block is None:
                blocks[token] = [uid]
            else:
                block.append(uid)
    return {token: tuple(dict.fromkeys(uids)) for token, uids in blocks.items()}


def _entity_tokens(entity: Entity, properties: Sequence[str]) -> list[str]:
    """Deduped token list of one entity over ``properties``."""
    return list(dict.fromkeys(_text_tokens(_entity_text(entity, properties))))


def _raw_token_patcher(source: DataSource, properties: Sequence[str]):
    """A :meth:`EngineSession.blocking_index` patcher moving an
    unfiltered token block table one source delta forward: displaced
    entity versions leave their old tokens' blocks, upserted versions
    join their new tokens' blocks. Blocks an upsert joins are re-sorted
    by the entity's *current* source position — deletions and
    replacements preserve surviving uids' relative order, so only
    joined blocks can drift, and restoring source order there makes
    the patched table equal a cold rebuild block-for-block (dict
    upsert semantics keep a replaced uid's slot; fresh uids append)."""

    def patch(blocks: dict, delta) -> dict:
        blocks = dict(blocks)
        for old in delta.old_entities():
            uid = old.uid
            for token in _entity_tokens(old, properties):
                block = blocks.get(token)
                if block is None or uid not in block:
                    continue
                pruned = tuple(u for u in block if u != uid)
                if pruned:
                    blocks[token] = pruned
                else:
                    del blocks[token]
        order: dict[str, int] | None = None
        fallback = 0
        for entity in delta.upserts:
            uid = entity.uid
            for token in _entity_tokens(entity, properties):
                block = blocks.get(token)
                if block is None:
                    blocks[token] = (uid,)
                elif uid not in block:
                    if order is None:
                        order = {u: i for i, u in enumerate(source.uids())}
                        # Mid-chain uids a later delta removes are not
                        # in the live source; park them at the end (a
                        # later patch step deletes them anyway).
                        fallback = len(order)
                    blocks[token] = tuple(
                        sorted(
                            block + (uid,),
                            key=lambda u: order.get(u, fallback),
                        )
                    )
        return blocks

    return patch


def _patch_memo_payload(memo, fingerprint: str, token: str, lineage, patcher):
    """Patch a blocker's one-entry instance memo forward to the current
    epoch, mirroring the session's lineage walk for session-less use.
    Returns the patched payload or None (wrong token, no patcher, memo
    epoch not an ancestor, or the patcher gave up)."""
    if memo is None or patcher is None or memo[1] != token:
        return None
    chain_deltas = tuple(lineage)
    if not chain_deltas or chain_deltas[-1].fingerprint != fingerprint:
        return None
    pending = []
    for delta in reversed(chain_deltas):
        pending.append(delta)
        if delta.parent_fingerprint == memo[0]:
            payload = memo[2]
            for step in reversed(pending):
                payload = patcher(payload, step)
                if payload is None:
                    return None
            return payload
    return None


class _ProbeLedger:
    """Per-entity probe results over the store's ``probes-v1`` tier.

    One ledger blob maps entity content fingerprints to their probed
    partner-code arrays for a fixed (target-epoch, probe-signature)
    key. Probing is deterministic, so a ledger entry equals what
    :meth:`Blocker.probe_batch` would recompute — warm runs serve
    unchanged entities from the ledger and probe only the rest.
    Hit/miss traffic is per entity (``StoreStats.probe_hits`` /
    ``probe_misses``); new entries persist on :meth:`flush` (called in
    the pair stream's ``finally``, so partial consumption still saves
    what was probed).
    """

    __slots__ = ("_store", "_session", "_key", "_entries", "_fresh")

    def __init__(self, session, key: str):
        store = session.store if session is not None else None
        self._store = store
        self._session = session
        self._key = key
        self._entries: dict = (
            (store.load_probe_ledger(key) if store is not None else None) or {}
        )
        self._fresh: dict = {}

    @property
    def enabled(self) -> bool:
        return self._store is not None

    def probe(self, chunk: Sequence[Entity], probe_missing):
        """Chunk results, serving known entities and probing the rest
        through ``probe_missing(entities) -> list[codes]``."""
        if self._store is None:
            return probe_missing(chunk)
        entries = self._entries
        fingerprints = [entity.fingerprint() for entity in chunk]
        cached = [entries.get(fp) for fp in fingerprints]
        missing = [
            entity for entity, codes in zip(chunk, cached) if codes is None
        ]
        if missing:
            fresh_iter = iter(probe_missing(missing))
            results = []
            for fp, codes in zip(fingerprints, cached):
                if codes is None:
                    codes = next(fresh_iter)
                    self._fresh[fp] = codes
                results.append(codes)
        else:
            # Fully served: no probe_batch call happened, but the chunk
            # *was* probed — keep the batch counter's meaning stable.
            if self._session is not None:
                self._session.record_probe(batches=1)
            results = cached
        self._store.record_probe_lookups(
            hits=len(chunk) - len(missing), misses=len(missing)
        )
        return results

    def flush(self) -> None:
        if self._store is None or not self._fresh:
            return
        merged = dict(self._entries)
        merged.update(self._fresh)
        if self._store.save_probe_ledger(self._key, merged):
            self._store.record_probe_lookups(writes=len(self._fresh))
        self._entries = merged
        self._fresh = {}


def _chunked(
    pairs: Iterable[CandidatePair], batch_size: int
) -> Iterator[list[CandidatePair]]:
    """Group a pair stream into shards of at most ``batch_size``
    (C-level: one ``islice`` materialisation per shard, no per-pair
    Python bytecode)."""
    iterator = iter(pairs)
    while True:
        shard = list(islice(iterator, batch_size))
        if not shard:
            return
        yield shard


class Blocker(ABC):
    """Produces candidate entity pairs from two data sources."""

    #: Instance memo of the last built index: (source fingerprint,
    #: signature, payload). Lets session-less callers reuse the index
    #: across repeated runs over an unchanged source.
    _index_memo: tuple[str, str, object] | None = None
    #: Same, for the derived probe-side view (separate slot so
    #: alternating build/probe resolution never thrashes either memo).
    _probe_index_memo: tuple[str, str, object] | None = None
    #: Derived public view (e.g. the size-filtered token table) — its
    #: own slot for the same no-thrash reason.
    _view_index_memo: tuple[str, str, object] | None = None
    #: Reverse (probe-side) index used by affected-set computation.
    _reverse_index_memo: tuple[str, str, object] | None = None

    @abstractmethod
    def candidates(
        self, source_a: DataSource, source_b: DataSource
    ) -> Iterator[CandidatePair]:
        """Yield candidate pairs (each pair at most once)."""

    def candidate_count(self, source_a: DataSource, source_b: DataSource) -> int:
        return sum(1 for _ in self.candidates(source_a, source_b))

    def signature(self) -> str | None:
        """Stable identity of the index this blocker builds over a
        target source, or None when it builds no (persistable) index.

        The persistent index tier keys on
        ``DataSource.fingerprint() x signature()``, so the signature
        must change whenever construction parameters that affect the
        index content change, and must be stable across processes
        (no ``id()``, no hash randomisation).
        """
        return None

    def build_index(
        self, source: DataSource, session: "EngineSession | None" = None
    ) -> object | None:
        """Build (or load) this blocker's reusable index over a target
        source; None for blockers that don't index.

        With a ``session`` the index resolves through the session's
        index memo and — when the session has a persistent store — the
        store's index tier. Without one, the blocker keeps a
        one-entry instance memo keyed by the source's content
        fingerprint, so repeated runs over an unchanged source still
        reuse the index.
        """
        return None

    def iter_shards(
        self,
        source_a: DataSource,
        source_b: DataSource,
        batch_size: int,
        session: "EngineSession | None" = None,
    ) -> Iterator[list[CandidatePair]]:
        """Candidate pairs pre-chunked into ready-to-score shards.

        The pair order is exactly :meth:`candidates` order and does not
        depend on ``batch_size`` (only the chunk boundaries do), which
        is what keeps generated links byte-identical across batch
        sizes and worker counts. ``session`` lets index construction
        share the engine's caches; the default implementation chunks
        the plain pair stream.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return _chunked(self._iter_pairs(source_a, source_b, session), batch_size)

    def _iter_pairs(
        self,
        source_a: DataSource,
        source_b: DataSource,
        session: "EngineSession | None",
    ) -> Iterator[CandidatePair]:
        """Session-aware pair stream; the default ignores the session."""
        return self.candidates(source_a, source_b)

    def probe_index(
        self,
        source_a: DataSource,
        source_b: DataSource,
        session: "EngineSession | None" = None,
    ) -> object:
        """The probe-side state of this blocker over a source pairing
        (the argument :meth:`probe_batch` expects as ``index``).

        Builds on :meth:`build_index` — token blocking derives an
        integer *code view* of its block table (one code per distinct
        B uid, in sorted uid order, each block a sorted ``int32`` code
        array) so batch probing unions postings with numpy instead of
        per-uid Python; sorted neighbourhood precomputes the merged
        key positions of both sides. Token and MultiBlock resolve
        their derived views through the same session index memo /
        persistent index tier as the block tables themselves; sorted
        neighbourhood re-derives its positions per run (they hold live
        entity references and cost only two searchsorted calls over
        the already-memoised sorted indexes).
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no batch probe path"
        )

    def probe_batch(
        self,
        entities: Sequence[Entity],
        index: object,
        session: "EngineSession | None" = None,
    ) -> list[Sequence]:
        """Candidate B-side partners for a whole chunk of probe
        entities, against this blocker's :meth:`probe_index`.

        Returns one partner sequence per probe entity, in input order:
        already partner-deduped, in the blocker's deterministic
        emission order, **unfiltered** — self-pairs and dedup-mode
        ordering are the caller's concern (:meth:`_iter_pairs` applies
        them), so parity suites can compare raw probe results
        directly. Partners are *references into the probe index* (code
        arrays for token/MultiBlock probing, uid slices for sorted
        neighbourhood); :meth:`probe_uids` materialises the uid view.

        With a ``session``, chunks fan across its shared-memory
        executor (:func:`fan_entity_chunks`) and probe traffic is
        recorded in the session's probe counters. Results never depend
        on the session, the worker count, or how entities are chunked
        across calls.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no batch probe path"
        )

    def probe_uids(self, index: object, partners: Sequence) -> tuple[str, ...]:
        """The uid view of one entity's :meth:`probe_batch` result."""
        raise NotImplementedError(
            f"{type(self).__name__} has no batch probe path"
        )

    def affected_probe_uids(
        self,
        source_a: DataSource,
        source_b: DataSource,
        deltas_a: Sequence,
        deltas_b: Sequence,
        session: "EngineSession | None" = None,
    ) -> frozenset | None:
        """Probe-side uids whose candidate sets may have changed after
        the given :class:`~repro.data.source.SourceDelta` chains, or
        None when this blocker cannot bound the impact (the engine then
        falls back to a full rescore — always correct, never fast).

        The contract is *soundness*, not minimality: any pair whose
        candidate membership or participants changed must touch the
        returned set once the engine unions in the changed/deleted uids
        themselves. Over-approximation only costs rescoring work.
        """
        return None

    def iter_affected_shards(
        self,
        source_a: DataSource,
        source_b: DataSource,
        affected: frozenset,
        batch_size: int,
        session: "EngineSession | None" = None,
    ) -> Iterator[list[CandidatePair]]:
        """Ready-to-score shards of exactly the candidate pairs that
        touch ``affected`` (each such pair once, uid-ordered like the
        cold stream), chunked from :meth:`_iter_affected_pairs`.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return _chunked(
            self._iter_affected_pairs(source_a, source_b, affected, session),
            batch_size,
        )

    def _iter_affected_pairs(
        self,
        source_a: DataSource,
        source_b: DataSource,
        affected: frozenset,
        session: "EngineSession | None",
    ) -> Iterator[CandidatePair]:
        """Affected-only pair stream. The default filters the full pair
        stream — always correct; indexed blockers override it to probe
        only the affected entities."""
        for entity_a, entity_b in self._iter_pairs(source_a, source_b, session):
            if entity_a.uid in affected or entity_b.uid in affected:
                yield entity_a, entity_b

    def _resolve_index(
        self,
        source: DataSource,
        session: "EngineSession | None",
        token: str,
        build: Callable[[], object],
        patcher=None,
        slot: str = "_index_memo",
    ) -> object:
        """Index lookup under ``token``: the session memo / persistent
        index tier when a session is available, else the blocker's own
        one-entry fingerprint-keyed memo in ``slot`` (one slot per
        derived view, so alternating lookups never thrash), building on
        miss. With a ``patcher``, an ancestor epoch's payload (session,
        store or instance memo) is patched forward through the source's
        delta chain instead of rebuilding."""
        if session is not None:
            return session.blocking_index(
                source.fingerprint(),
                token,
                build,
                lineage=source.delta_chain(),
                patcher=patcher,
            )
        fingerprint = source.fingerprint()
        memo = getattr(self, slot)
        if memo is not None and memo[0] == fingerprint and memo[1] == token:
            return memo[2]
        payload = _patch_memo_payload(
            memo, fingerprint, token, source.delta_chain(), patcher
        )
        if payload is None:
            payload = build()
        setattr(self, slot, (fingerprint, token, payload))
        return payload

    # -- the probe template of code-probing blockers ------------------------
    #
    # Token and MultiBlock probing share one shape: the probe index
    # numbers B uids into sorted codes (``index.uids``), ``probe_batch``
    # returns one sorted partner-code array per probe entity, and warm
    # runs serve unchanged entities from the store's probe-result
    # ledger. Such a blocker supplies ``probe_index``/``probe_batch``,
    # :meth:`_ledger_token` and :meth:`_reverse_partners`; the loops
    # below do the rest.

    def _active_session(
        self, session: "EngineSession | None"
    ) -> "EngineSession | None":
        """The session a run's probe ledger records through (MultiBlock
        substitutes its own pinned session)."""
        return session

    def _ledger_token(self) -> str:
        """Key token of this blocker's probe-result ledger: it must
        change whenever an unchanged entity's probe result could."""
        raise NotImplementedError(
            f"{type(self).__name__} has no probe-result ledger"
        )

    def _reverse_partners(
        self,
        source_a: DataSource,
        source_b: DataSource,
        index: object,
        session: "EngineSession | None",
    ) -> tuple[Callable[[Entity], set], bool]:
        """The hook of the targeted reverse pass: ``(partners_of,
        verify)``. ``partners_of(entity_b)`` returns a fresh set of the
        uids of A entities that could pair with a changed B entity (a
        superset of its true partners); ``verify`` says whether those
        partners must be probed to confirm candidacy (an exact reverse
        table needs no verifying)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no reverse probe path"
        )

    def _probe_ledger(
        self, source_b: DataSource, session: "EngineSession | None"
    ) -> _ProbeLedger:
        from repro.engine.store import index_key

        own = self._active_session(session)
        if own is None or own.store is None:
            return _ProbeLedger(None, "")
        return _ProbeLedger(
            own, index_key(source_b.fingerprint(), self._ledger_token())
        )

    def _probe_chunks(
        self,
        entities: Sequence[Entity],
        source_b: DataSource,
        index: object,
        session: "EngineSession | None",
    ) -> Iterator[tuple[Sequence[Entity], list]]:
        """The one chunked probe loop: ``(chunk, partner codes)`` per
        ``_PROBE_CHUNK`` entities, served through the probe-result
        ledger with one distinct-value memo for the whole loop. The
        ledger flushes in ``finally``, so a partly consumed stream
        still persists what it probed."""
        memo: dict = {}
        ledger = self._probe_ledger(source_b, session)
        try:
            for start in range(0, len(entities), _PROBE_CHUNK):
                chunk = entities[start : start + _PROBE_CHUNK]
                yield chunk, ledger.probe(
                    chunk,
                    lambda miss: self.probe_batch(
                        miss, index, session, memo=memo
                    ),
                )
        finally:
            ledger.flush()

    def _probe_pairs(
        self,
        source_a: DataSource,
        source_b: DataSource,
        index: object,
        session: "EngineSession | None",
        affected: frozenset | None = None,
    ) -> Iterator[CandidatePair]:
        """The code-probe pair stream: every candidate pair, or with
        ``affected`` exactly the pairs touching it (the affected
        entities' own probes, then in two-source mode the targeted
        reverse pass for changed B entities)."""
        return chain.from_iterable(
            self._probe_pair_lists(source_a, source_b, index, session, affected)
        )

    def _probe_pair_lists(self, source_a, source_b, index, session, affected):
        dedup = source_a is source_b
        uids = index.uids
        get_b = source_b.get
        # Entities resolve by integer code (one list index per pair)
        # instead of by uid string.
        by_code = [get_b(uid) for uid in uids]
        entities = source_a.entities()
        if affected is not None:
            entities = [entity for entity in entities if entity.uid in affected]
        for chunk, results in self._probe_chunks(
            entities, source_b, index, session
        ):
            if affected is None or not dedup:
                yield from _code_pair_lists(chunk, results, uids, by_code, dedup)
            else:
                yield from _affected_dedup_pair_lists(
                    chunk, results, uids, by_code, affected
                )
        if affected is not None and not dedup:
            yield from self._reverse_pair_lists(
                source_a, source_b, affected, index, session
            )

    def _reverse_pair_lists(self, source_a, source_b, affected, index, session):
        """Pairs of *unaffected* probe entities with affected stored
        entities (two-source mode; dedup probes emit both directions
        via :func:`_affected_dedup_pair_lists`).

        Two-source emission is one-directional — only A probes — so a
        changed B entity's pairs with unchanged A partners never
        surface from the affected probes. :meth:`_reverse_partners`
        answers them from a reverse table. Partners that need
        verifying are probed (through the ledger and memo like every
        other probe) and kept only where the B entity's code is among
        their partner codes: unverified coarse partners would leak
        non-candidate pairs and break byte-parity with a cold execute.
        Affected partners are excluded (their own probe already emits
        the pair), so every affected pair is emitted exactly once."""
        partners_of, verify = self._reverse_partners(
            source_a, source_b, index, session
        )
        get_a = source_a.get
        coarse: list[tuple[Entity, list[str]]] = []
        for uid in sorted(affected):
            if uid not in source_b:
                continue
            entity_b = source_b.get(uid)
            partners = partners_of(entity_b) - affected
            partners.discard(uid)
            if not partners:
                continue
            if verify:
                coarse.append((entity_b, sorted(partners)))
            else:
                yield [(get_a(partner), entity_b) for partner in sorted(partners)]
        if not coarse:
            return
        entities = [
            get_a(uid)
            for uid in sorted(set(chain.from_iterable(p for _, p in coarse)))
        ]
        codes_of: dict[str, np.ndarray] = {}
        for chunk, results in self._probe_chunks(
            entities, source_b, index, session
        ):
            codes_of.update(zip((entity.uid for entity in chunk), results))
        uids = index.uids
        for entity_b, partners in coarse:
            code_b = bisect_left(uids, entity_b.uid)
            if code_b == len(uids) or uids[code_b] != entity_b.uid:
                continue
            pairs = []
            for partner in partners:
                codes = codes_of[partner]
                position = int(np.searchsorted(codes, code_b))
                if position < len(codes) and codes[position] == code_b:
                    pairs.append((get_a(partner), entity_b))
            if pairs:
                yield pairs


class FullIndexBlocker(Blocker):
    """The full Cartesian product — exact but quadratic.

    For deduplication (both sources identical) only unordered pairs
    ``(i, j)`` with ``i < j`` are produced. Both the pair stream and
    the shard stream are fully lazy: nothing quadratic is materialised
    ahead of consumption, so a streaming consumer stays memory-bounded
    even on sources whose cross product would not fit in memory.
    """

    def candidates(self, source_a, source_b):
        if source_a is source_b:
            entities = source_a.entities()
            for i, entity_a in enumerate(entities):
                # islice, not a slice: entities[i+1:] would copy O(n^2)
                # references across the whole iteration.
                for entity_b in islice(entities, i + 1, None):
                    yield entity_a, entity_b
            return
        entities_b = source_b.entities()
        for entity_a in source_a:
            for entity_b in entities_b:
                yield entity_a, entity_b

    def candidate_count(self, source_a: DataSource, source_b: DataSource) -> int:
        # Closed form — benchmarks and blocking-quality reports call
        # this on full Cartesian products, where iterating is quadratic.
        if source_a is source_b:
            n = len(source_a.entities())
            return n * (n - 1) // 2
        return len(source_a.entities()) * len(source_b.entities())



def _tokens_of(entity: Entity, properties: Iterable[str]) -> set[str]:
    """Token set of one entity (the seed per-entity path, kept for
    reference/tests; the blockers tokenise in bulk — see
    :func:`_text_tokens`)."""
    tokens: set[str] = set()
    for name in properties:
        for value in entity.values(name):
            tokens.update(t.lower() for t in _TOKEN_RE.findall(value))
    return tokens


#: ASCII fast path for tokenisation: every ASCII codepoint that is not
#: alphanumeric maps to a space (including ``_``, which ``[^\W_]+``
#: excludes from tokens); ``str.translate`` + ``str.split`` then
#: tokenise an entire entity's text in C. Uppercase needs no mapping —
#: the text is lowercased first.
_ASCII_TOKEN_TABLE = {
    i: " " for i in range(128) if not chr(i).isalnum()
}


def _text_tokens(text: str) -> list[str]:
    """Lowercased word tokens of a text, in text order (duplicates
    kept; callers dedup with ``dict.fromkeys`` where order matters).

    ASCII text — the overwhelming share of real sources — tokenises
    entirely in C (lower + translate + split), where lowering first is
    provably boundary-preserving. Anything else tokenises *before*
    lowering, exactly like :func:`_tokens_of`: lowering can decompose
    characters into combining marks ('İ' → 'i' + U+0307) that would
    otherwise split a token mid-word.
    """
    if text.isascii():
        return text.lower().translate(_ASCII_TOKEN_TABLE).split()
    return [token.lower() for token in _TOKEN_RE.findall(text)]


def _entity_text(entity: Entity, properties: Sequence[str]) -> str:
    """All of an entity's values on ``properties``, space-joined.

    One joined string means one tokenisation call per entity instead of
    one per value; the space separator is a token boundary in both
    tokenisation paths, so the token stream equals the concatenation of
    the per-value streams.
    """
    values = entity.properties
    parts: list[str] = []
    for name in properties:
        entity_values = values.get(name)
        if entity_values:
            parts.extend(entity_values)
    return " ".join(parts)


@dataclass(frozen=True)
class _TokenProbeIndex:
    """Integer code view of one token block table.

    Codes number the distinct B uids appearing in any block, in sorted
    uid order — so sorted code arrays are sorted uid sequences, and the
    dedup-mode ordering constraint becomes a suffix slice. Blocks are
    sorted unique ``int32`` arrays; the whole view pickles, so it
    persists in the store's index tier alongside the raw block table.
    """

    #: code -> uid, ascending.
    uids: tuple[str, ...]
    #: token -> sorted unique codes of the B entities filed under it.
    blocks: dict
    #: Code-space size (mask length for the postings union).
    size: int


def _token_code_payload(blocks: dict) -> tuple[tuple[str, ...], dict]:
    """Derive the probe-side code view from a raw token block table.

    Returned as a plain ``(uids, code blocks)`` tuple — the form the
    persistent index tier pickles stays free of private classes, so
    old blobs survive refactors (an unreadable blob is just a miss).
    """
    uids = sorted(set(chain.from_iterable(blocks.values())))
    code_of = {uid: code for code, uid in enumerate(uids)}
    code_blocks = {
        token: np.unique(
            np.fromiter(
                (code_of[uid] for uid in block),
                dtype=np.int32,
                count=len(block),
            )
        )
        for token, block in blocks.items()
    }
    return tuple(uids), code_blocks


class TokenBlocker(Blocker):
    """Standard token blocking: pairs sharing a token on key properties.

    ``max_block_size`` drops high-frequency tokens (stop words) whose
    blocks would reintroduce quadratic behaviour. Probing is batch
    (:meth:`probe_batch`, over the :meth:`probe_index` code view):
    candidates are emitted grouped per A entity in source order, each
    entity's partners in sorted uid order — the same deterministic
    stream for every chunking, worker count and batch size.
    """

    def __init__(
        self,
        properties_a: Iterable[str],
        properties_b: Iterable[str] | None = None,
        max_block_size: int = 200,
    ):
        self._properties_a = list(properties_a)
        self._properties_b = (
            list(properties_b) if properties_b is not None else self._properties_a
        )
        self._max_block_size = max_block_size

    def signature(self) -> str:
        # v2: the persisted payload is the *unfiltered* block table
        # (see :func:`_token_blocks`); v1 blobs miss cleanly.
        return (
            f"token-index:v2:props={sorted(self._properties_b)!r}:"
            f"max={self._max_block_size}"
        )

    def build_index(self, source, session=None):
        """Token index of a target source: ``{token: (uids...)}`` in
        source order, with oversized (stop-word) blocks dropped.

        The underlying persisted/patched payload is the *unfiltered*
        table (:meth:`_raw_blocks`) — a delta patch can shrink a block
        back under the limit, which a filtered payload could not
        express. The public filtered view resolves through its own memo
        key; on a delta its "patch" is simply a refilter of the
        already-patched raw table, so it never counts as a rebuild."""

        def filtered():
            raw = self._raw_blocks(source, session)
            limit = self._max_block_size
            return {
                token: uids for token, uids in raw.items() if len(uids) <= limit
            }

        return self._resolve_index(
            source,
            session,
            f"{self.signature()}|filtered-blocks-v1",
            filtered,
            patcher=lambda payload, delta: filtered(),
            slot="_view_index_memo",
        )

    def _raw_blocks(self, source: DataSource, session) -> dict:
        return self._resolve_index(
            source,
            session,
            self.signature(),
            lambda: _token_blocks(source, self._properties_b, session),
            patcher=_raw_token_patcher(source, self._properties_b),
        )

    def candidates(self, source_a, source_b):
        return self._iter_pairs(source_a, source_b, None)

    def probe_index(self, source_a, source_b, session=None):
        """Code view of the target block table: distinct B uids number
        into sorted-uid order, each block becomes a sorted ``int32``
        code array. Resolves through the same memo / persistent index
        tier as the block table itself (key suffix ``probe-codes-v1``),
        so warm sessions and warm stores skip the derivation. On a
        delta, the view patches in place: unaffected blocks renumber
        through one vectorized mapping (only when the code space
        changed), affected blocks recompute from the patched table."""
        # The raw block table is only materialised inside the builder:
        # a probe-view hit (warm session or warm store) never loads it.
        uids, blocks = self._resolve_index(
            source_b,
            session,
            f"{self.signature()}|probe-codes-v1",
            lambda: _token_code_payload(
                self.build_index(source_b, session=session)
            ),
            patcher=lambda payload, delta: self._patch_probe_view(
                payload, delta, self.build_index(source_b, session=session)
            ),
            slot="_probe_index_memo",
        )
        return _TokenProbeIndex(uids=uids, blocks=blocks, size=len(uids))

    def _patch_probe_view(self, payload, delta, filtered_blocks):
        """Move a ``(uids, code blocks)`` probe view one delta forward.

        Dead uids leave the code table (probing resolves codes back to
        live entities, so they must go); genuinely new uids merge in
        sorted position and surviving codes renumber through one
        monotone ``mapping[codes]`` gather — sortedness is preserved,
        so no per-block sort. Blocks touching any changed entity's
        tokens (old or new version) recompute from the patched filtered
        table; every other block is content-identical to a cold build.
        ``filtered_blocks`` is the *final*-epoch table: a multi-step
        patch recomputes affected tokens against it at every step,
        which is idempotent-correct (uids not yet in the step's code
        table are dropped and re-added by the later step that
        introduces them).
        """
        uids_t, code_blocks = payload
        properties = self._properties_b
        affected_tokens: set[str] = set()
        for entity in chain(delta.upserts, delta.old_entities()):
            affected_tokens.update(_entity_tokens(entity, properties))
        table = list(uids_t)
        table_set = set(table)
        upsert_uids = delta.upsert_uids
        dead = (delta.delete_uids - upsert_uids) & table_set
        inserted = upsert_uids - table_set
        if dead or inserted:
            new_table = sorted((table_set - dead) | upsert_uids)
            code_of = {uid: code for code, uid in enumerate(new_table)}
            mapping = np.fromiter(
                (code_of.get(uid, -1) for uid in table),
                dtype=np.int64,
                count=len(table),
            )
            new_blocks = {}
            for token, codes in code_blocks.items():
                if token in affected_tokens:
                    continue
                remapped = mapping[codes]
                remapped = remapped[remapped >= 0]
                if remapped.size:
                    new_blocks[token] = remapped.astype(np.int32)
        else:
            new_table = table
            code_of = {uid: code for code, uid in enumerate(table)}
            new_blocks = {
                token: codes
                for token, codes in code_blocks.items()
                if token not in affected_tokens
            }
        for token in affected_tokens:
            block = filtered_blocks.get(token)
            if not block:
                continue
            codes = sorted(
                {code_of[uid] for uid in block if uid in code_of}
            )
            if codes:
                new_blocks[token] = np.array(codes, dtype=np.int32)
        return tuple(new_table), new_blocks

    def probe_batch(self, entities, index, session=None, memo=None):
        """Batch token probe: bulk tokenisation (the same C-level
        lower/translate/split path the index build uses) plus one
        single-pass postings-union per entity — a boolean mask over the
        code space absorbs every block in C and ``flatnonzero`` reads
        the union back sorted (an entity probing a single block reuses
        the index's own array, zero-copy). Probe results memoise per
        distinct property text (``memo``; ``_probe_chunks`` threads one
        through the whole run), so duplicate-heavy sources skip
        tokenisation *and* the union."""
        properties = self._properties_a
        get = index.blocks.get
        size = index.size
        shared_memo = memo if memo is not None else {}

        def probe(chunk):
            hits = 0
            results = []
            for entity in chunk:
                text = _entity_text(entity, properties)
                codes = shared_memo.get(text)
                if codes is not None:
                    hits += 1
                    results.append(codes)
                    continue
                blocks = []
                for token in dict.fromkeys(_text_tokens(text)):
                    block = get(token)
                    if block is not None:
                        blocks.append(block)
                codes = _union_codes(blocks, size)
                _memo_put(shared_memo, text, codes)
                results.append(codes)
            if session is not None and hits:
                session.record_probe(memo_hits=hits)
            return results

        if session is not None:
            session.record_probe(batches=1)
        return fan_entity_chunks(session, entities, probe)

    def probe_uids(self, index, partners):
        return tuple(map(index.uids.__getitem__, partners.tolist()))

    def affected_probe_uids(
        self, source_a, source_b, deltas_a, deltas_b, session=None
    ):
        """Probe-side entities whose candidate sets may have changed.

        Pairs touching a *changed* entity need no coverage here: the
        engine unions changed uids into the drop set itself, and
        :meth:`iter_affected_shards` re-emits their current pairs —
        through the changed entity's own probe in dedup mode, through
        a targeted reverse probe of changed B entities in two-source
        mode. What remains is pairs between two *unchanged* entities,
        and those can only move when a block crosses
        ``max_block_size``: pairs among otherwise-unchanged members
        appear when a block shrinks under the limit, vanish when it
        grows past it. The affected set is therefore the changed uids
        plus, for every limit-crossing block, its probe-side holders
        (two-source, via the unfiltered reverse table) or its members
        (dedup, where the two coincide). Parent-epoch block sizes
        reconstruct exactly from the chain's membership deltas.
        """
        properties_b = self._properties_b

        def entity_tokens(entity) -> frozenset:
            return frozenset(_text_tokens(_entity_text(entity, properties_b)))

        # Endpoint token sets per changed B uid across the whole chain:
        # first old version wins the baseline, last state wins the
        # final (deletes end absent; a mid-chain insert later deleted
        # nets out to no membership change).
        baseline: dict[str, "frozenset | None"] = {}
        final: dict[str, "frozenset | None"] = {}
        for delta in deltas_b:
            for entity in delta.old_entities():
                baseline.setdefault(entity.uid, entity_tokens(entity))
            for uid in delta.delete_uids:
                final[uid] = None
            for entity in delta.upserts:
                baseline.setdefault(entity.uid, None)
                final[entity.uid] = entity_tokens(entity)
        if not baseline and not final:
            return frozenset()

        limit = self._max_block_size
        raw = self._raw_blocks(source_b, session)
        changed = set(baseline) | set(final)
        growth: dict[str, int] = {}
        for uid in changed:
            before = baseline.get(uid) or frozenset()
            after = final.get(uid) or frozenset()
            for token in after - before:
                growth[token] = growth.get(token, 0) + 1
            for token in before - after:
                growth[token] = growth.get(token, 0) - 1
        flipped = []
        for token, delta_size in growth.items():
            new_size = len(raw.get(token, ()))
            if (new_size - delta_size > limit) != (new_size > limit):
                flipped.append(token)
        if source_a is source_b:
            # Members that *left* a flipped block are changed uids,
            # already in the set.
            for token in flipped:
                changed.update(raw.get(token, ()))
            return frozenset(changed)
        if not flipped:
            return frozenset()
        reverse = self._reverse_blocks(source_a, session)
        affected: set[str] = set()
        for token in flipped:
            block = reverse.get(token)
            if block:
                affected.update(block)
        return frozenset(affected)

    def _reverse_blocks(self, source_a: DataSource, session) -> dict:
        """Unfiltered token table over the *probe* side, keyed by the
        probe properties — the reverse index that answers "which A
        entities could pair with a B entity holding these tokens".
        Unbounded (no stop-word filter): affected sets must
        over-approximate, never drop. Persisted and patched like the
        forward table, under its own ``:rev:`` token."""
        properties = self._properties_a
        token = f"token-index:v2:rev:props={sorted(properties)!r}"
        build = lambda: _token_blocks(source_a, properties, session)
        patcher = _raw_token_patcher(source_a, properties)
        return self._resolve_index(
            source_a,
            session,
            token,
            build,
            patcher=patcher,
            slot="_reverse_index_memo",
        )

    def _reverse_partners(self, source_a, source_b, index, session):
        """Coarse partners from the unfiltered reverse table, under the
        same stop-word filter the forward probe applies. That makes them
        exact — an A entity holding one of the B entity's kept tokens
        probes that token's block — so they need no verifying (which
        would only add probes and ledger traffic)."""
        limit = self._max_block_size
        raw = self._raw_blocks(source_b, session)
        reverse = self._reverse_blocks(source_a, session)
        properties_b = self._properties_b

        def partners_of(entity_b: Entity) -> set[str]:
            partners: set[str] = set()
            for token in set(
                _text_tokens(_entity_text(entity_b, properties_b))
            ):
                if len(raw.get(token, ())) > limit:
                    continue
                partners.update(reverse.get(token, ()))
            return partners

        return partners_of, False

    def _ledger_token(self) -> str:
        return (
            f"{self.signature()}|probe-results-v1:"
            f"probe_props={sorted(self._properties_a)!r}"
        )

    def _iter_pairs(self, source_a, source_b, session):
        index = self.probe_index(source_a, source_b, session=session)
        return self._probe_pairs(source_a, source_b, index, session)

    def _iter_affected_pairs(self, source_a, source_b, affected, session):
        index = self.probe_index(source_a, source_b, session=session)
        return self._probe_pairs(source_a, source_b, index, session, affected)


@dataclass(frozen=True)
class _SnbProbeState:
    """Precomputed probe geometry of one sorted-neighbourhood pairing.

    Positions are indices into the stable merged key order (A before B
    on ties). ``partner_positions`` is sorted ascending — that is what
    lets :meth:`SortedNeighbourhoodBlocker.probe_batch` resolve every
    window with one vectorized ``numpy.searchsorted``.
    """

    dedup: bool
    #: Probe entities in merged order (dedup: every entity; two-source:
    #: the A side) — the deterministic emission order of the blocker.
    probe_entities: list[Entity]
    #: Merged position per probe entity, aligned with probe_entities.
    positions: np.ndarray
    #: uid -> merged position, so arbitrary entity chunks can probe.
    position_of: dict[str, int]
    #: Merged positions of the partner side, sorted ascending.
    partner_positions: np.ndarray
    #: Partner uids aligned with partner_positions.
    partner_uids: list[str]


def _snb_merged_positions(
    index_a: Sequence[tuple[str, str]], index_b: Sequence[tuple[str, str]]
) -> tuple[np.ndarray, np.ndarray]:
    """Merged key-order positions of two key-sorted payloads (A before
    B on ties), from the payloads alone — no live entities needed, so
    affected-set computation can reconstruct a *previous* epoch's
    geometry from peeked index payloads."""
    keys_a, keys_b = _key_arrays(
        [key for key, __ in index_a], [key for key, __ in index_b]
    )
    positions_a = np.arange(len(keys_a), dtype=np.int64) + np.searchsorted(
        keys_b, keys_a, side="left"
    )
    positions_b = np.arange(len(keys_b), dtype=np.int64) + np.searchsorted(
        keys_a, keys_b, side="right"
    )
    return positions_a, positions_b


def _near_mask(
    positions: np.ndarray, changed_sorted: np.ndarray, margin: int
) -> np.ndarray:
    """Boolean mask of positions within ``margin`` of any changed
    position (one vectorized searchsorted against the sorted changed
    array, then nearest-neighbour distance on either side)."""
    if changed_sorted.size == 0 or positions.size == 0:
        return np.zeros(positions.size, dtype=bool)
    idx = np.searchsorted(changed_sorted, positions)
    nearest = np.full(positions.size, np.inf)
    right = idx < changed_sorted.size
    nearest[right] = changed_sorted[idx[right]] - positions[right]
    left = idx > 0
    np.minimum(
        nearest,
        np.where(left, positions - changed_sorted[np.maximum(idx - 1, 0)], np.inf),
        out=nearest,
    )
    return nearest <= margin


def _key_arrays(
    keys_a: Sequence[str], keys_b: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-key arrays for vectorized merging.

    Fixed-width ``U`` dtype compares codepoint-lexicographically like
    Python ``str`` — except embedded NULs (numpy pads with NUL and
    strips trailing ones), so those pathological keys demote both
    sides to object arrays (exact Python comparisons, still one
    C-level searchsorted loop).
    """
    if any("\x00" in key for key in keys_a) or any(
        "\x00" in key for key in keys_b
    ):
        dtype: object = object
    else:
        dtype = np.str_
    return np.array(keys_a, dtype=dtype), np.array(keys_b, dtype=dtype)


class SortedNeighbourhoodBlocker(Blocker):
    """Sorted neighbourhood: sort by a key property, slide a window.

    The per-source index is the key-sorted ``(key, uid)`` list; two
    sources merge stably (ties keep A-then-B order, matching a stable
    sort of the concatenated list), so the candidate *set* is identical
    to the seed sliding-window implementation while each side's sort is
    reusable and persistable on its own. Probing is batch
    (:meth:`probe_batch`): windows resolve via vectorized
    ``numpy.searchsorted`` over the merged positions, and candidates
    are emitted grouped per probe entity in merged order — the same
    deterministic stream for every chunking, worker count and batch
    size.
    """

    def __init__(self, key_property: str, window: int = 10):
        if window < 2:
            raise ValueError("window must be >= 2")
        self._key_property = key_property
        self._window = window

    def signature(self) -> str:
        # The window is a probe-time parameter: every window shares the
        # same sorted index.
        return f"snb-index:v1:key={self._key_property!r}"

    def _key(self, entity: Entity) -> str:
        values = entity.values(self._key_property)
        return values[0].lower() if values else ""

    def build_index(self, source, session=None):
        """Key-sorted ``((key, uid), ...)`` of one source (stable: tie
        order is source insertion order)."""

        def build():
            key_property = self._key_property

            def extract(chunk):
                out = []
                for entity in chunk:
                    values = entity.values(key_property)
                    out.append(
                        (values[0].lower() if values else "", entity.uid)
                    )
                return out

            keyed = fan_entity_chunks(session, source.entities(), extract)
            keyed.sort(key=lambda item: item[0])
            return tuple(keyed)

        return self._resolve_index(
            source,
            session,
            self.signature(),
            build,
            patcher=self._patch_keyed(source),
        )

    def _patch_keyed(self, source: DataSource):
        """Patcher moving a key-sorted ``((key, uid), ...)`` payload one
        delta forward: changed uids' entries drop, upserted versions'
        entries merge, and one near-sorted Timsort by ``(key, current
        source position)`` restores exactly the cold build's order —
        the cold sort is stable over source order, and dict upsert
        semantics preserve each surviving uid's source position."""

        def patch(payload, delta):
            touched = delta.changed_uids
            entries = [
                (key, uid) for key, uid in payload if uid not in touched
            ]
            entries.extend(
                (self._key(entity), entity.uid) for entity in delta.upserts
            )
            order = {uid: i for i, uid in enumerate(source.uids())}
            # Mid-chain entries for uids a *later* delta removes are
            # absent from the live source; park them at the end (any
            # stable position works — that later patch deletes them).
            fallback = len(order)
            entries.sort(key=lambda item: (item[0], order.get(item[1], fallback)))
            return tuple(entries)

        return patch

    def candidates(self, source_a, source_b):
        return self._iter_pairs(source_a, source_b, None)

    def probe_index(
        self, source_a, source_b, session: "EngineSession | None" = None
    ) -> "_SnbProbeState":
        """The probe-side state over a source pairing: merged positions
        of both sides in the stable A-then-B key order, precomputed so
        :meth:`probe_batch` resolves every window with vectorized
        ``numpy.searchsorted`` instead of a Python merge + sliding
        window.

        The merge itself is vectorized: A's merged position is its own
        rank plus the count of strictly-smaller B keys
        (``searchsorted(..., "left")``); B's is its rank plus the count
        of smaller-or-equal A keys (``"right"`` — ties take A first),
        which reproduces the stable concat-sort order exactly.

        The state holds live entity references, so it is re-derived
        per run rather than memoised/persisted — the expensive part
        (each side's key sort) already resolves through
        :meth:`build_index`'s memo and the persistent index tier.
        """
        dedup = source_a is source_b
        index_a = self.build_index(source_a, session=session)
        if dedup:
            uids = [uid for __, uid in index_a]
            n = len(uids)
            return _SnbProbeState(
                dedup=True,
                probe_entities=[source_a.get(uid) for uid in uids],
                positions=np.arange(n, dtype=np.int64),
                position_of={uid: i for i, uid in enumerate(uids)},
                partner_positions=np.arange(n, dtype=np.int64),
                partner_uids=uids,
            )
        index_b = self.build_index(source_b, session=session)
        positions_a, positions_b = _snb_merged_positions(index_a, index_b)
        uids_a = [uid for __, uid in index_a]
        return _SnbProbeState(
            dedup=False,
            probe_entities=[source_a.get(uid) for uid in uids_a],
            positions=positions_a,
            position_of={uid: int(pos) for uid, pos in zip(uids_a, positions_a)},
            partner_positions=positions_b,
            partner_uids=[uid for __, uid in index_b],
        )

    def probe_batch(self, entities, index, session=None):
        """Batch window probe: all windows of a chunk resolve through
        one vectorized ``numpy.searchsorted`` over the sorted partner
        positions (two-source mode probes ``window - 1`` positions to
        either side; dedup mode slices the forward window only, each
        unordered pair once)."""
        state: _SnbProbeState = index
        window = self._window

        def probe(chunk):
            positions = np.fromiter(
                (state.position_of[entity.uid] for entity in chunk),
                dtype=np.int64,
                count=len(chunk),
            )
            partner_uids = state.partner_uids
            if state.dedup:
                low = positions + 1
                high = np.minimum(positions + window, len(partner_uids))
            else:
                partner_positions = state.partner_positions
                low = np.searchsorted(
                    partner_positions, positions - (window - 1), side="left"
                )
                high = np.searchsorted(
                    partner_positions, positions + window, side="left"
                )
            return [
                partner_uids[lo:hi]
                for lo, hi in zip(low.tolist(), high.tolist())
            ]

        if session is not None:
            session.record_probe(batches=1)
        return fan_entity_chunks(session, entities, probe)

    def probe_uids(self, index, partners):
        return tuple(partners)

    def affected_probe_uids(
        self, source_a, source_b, deltas_a, deltas_b, session=None
    ):
        """Probe entities whose sliding window may have changed.

        Sorted-neighbourhood candidates couple *positionally*: an
        insert or delete anywhere shifts every later merged position by
        one, so a window's membership can change even when none of its
        occupants did. The bound used here: a probe entity's window
        content can only differ between the old and new epoch if the
        entity sits within ``window + total_changed`` positions of a
        changed entry — in *old* merged coordinates of a removed entry,
        or *new* coordinates of an upserted one (positions shift by at
        most the number of changed entries, so the margin absorbs the
        drift; any membership flip has a changed entry between the two
        endpoints in one of the coordinate systems).

        Old-epoch geometry is rebuilt from the *peeked* chain-base
        index payloads; when either side's old payload is no longer in
        the session memo or store, returns None (full rescore).
        """
        dedup = source_a is source_b
        deltas_a = tuple(deltas_a)
        deltas_b = deltas_a if dedup else tuple(deltas_b)
        chains = (deltas_a,) if dedup else (deltas_a, deltas_b)
        changed_total = sum(
            len(delta.upserts) + len(delta.deletes)
            for chain in chains
            for delta in chain
        )
        if changed_total == 0:
            return frozenset()
        token = self.signature()

        def old_payload(source, deltas):
            if not deltas:
                # Side unchanged: the current index *is* the old one.
                return self.build_index(source, session=session)
            if session is None:
                return None
            return session.peek_blocking_index(
                deltas[0].parent_fingerprint, token
            )

        old_a = old_payload(source_a, deltas_a)
        if old_a is None:
            return None
        state = self.probe_index(source_a, source_b, session=session)
        if dedup:
            old_pos_of = {uid: pos for pos, (__, uid) in enumerate(old_a)}
            old_pos_of_b = old_pos_of
            new_partner_pos_of: Mapping[str, int] = state.position_of
        else:
            old_b = old_payload(source_b, deltas_b)
            if old_b is None:
                return None
            old_positions_a, old_positions_b = _snb_merged_positions(
                old_a, old_b
            )
            old_pos_of = {
                uid: int(pos)
                for (__, uid), pos in zip(old_a, old_positions_a.tolist())
            }
            old_pos_of_b = {
                uid: int(pos)
                for (__, uid), pos in zip(old_b, old_positions_b.tolist())
            }
            new_partner_pos_of = {
                uid: int(pos)
                for uid, pos in zip(
                    state.partner_uids, state.partner_positions.tolist()
                )
            }

        changed_old: set[int] = set()
        changed_new: set[int] = set()

        def collect(chain, old_map, new_map):
            for delta in chain:
                for entity in delta.old_entities():
                    pos = old_map.get(entity.uid)
                    if pos is not None:
                        changed_old.add(pos)
                for entity in delta.upserts:
                    pos = new_map.get(entity.uid)
                    if pos is not None:
                        changed_new.add(pos)

        collect(deltas_a, old_pos_of, state.position_of)
        if not dedup:
            collect(deltas_b, old_pos_of_b, new_partner_pos_of)

        margin = self._window + changed_total
        affected: set[str] = set()
        probe_uids = [entity.uid for entity in state.probe_entities]
        near_new = _near_mask(
            state.positions,
            np.array(sorted(changed_new), dtype=np.int64),
            margin,
        )
        affected.update(
            uid for uid, flag in zip(probe_uids, near_new.tolist()) if flag
        )
        old_uids: list[str] = []
        old_positions: list[int] = []
        for uid in probe_uids:
            pos = old_pos_of.get(uid)
            if pos is not None:
                old_uids.append(uid)
                old_positions.append(pos)
        near_old = _near_mask(
            np.array(old_positions, dtype=np.int64),
            np.array(sorted(changed_old), dtype=np.int64),
            margin,
        )
        affected.update(
            uid for uid, flag in zip(old_uids, near_old.tolist()) if flag
        )
        return frozenset(affected)

    def _iter_pairs(self, source_a, source_b, session):
        return self._window_pairs(source_a, source_b, session, None)

    def _iter_affected_pairs(self, source_a, source_b, affected, session):
        return self._window_pairs(source_a, source_b, session, affected)

    def _window_pairs(self, source_a, source_b, session, affected):
        """The one emission generator: every candidate pair in merged
        order, or with ``affected`` only the pairs touching it, each
        exactly once, probing only the affected entities.

        Dedup mode emits each unordered pair once (the forward window),
        uid-ordered like the seed. An affected-only run also recovers
        each probed entity's *backward* window — pairs whose forward
        owner is an unaffected earlier neighbour — by slicing the
        merged order directly, skipping partners that are themselves
        affected: their own forward probe already owns those pairs."""
        state = self.probe_index(source_a, source_b, session=session)
        window = self._window
        entities = state.probe_entities
        if affected is not None:
            entities = [entity for entity in entities if entity.uid in affected]
        get_a = source_a.get
        get_b = source_b.get
        partner_uids = state.partner_uids
        for start in range(0, len(entities), _PROBE_CHUNK):
            chunk = entities[start : start + _PROBE_CHUNK]
            for entity_i, uids in zip(
                chunk, self.probe_batch(chunk, state, session)
            ):
                if not state.dedup:
                    yield from zip(repeat(entity_i), map(get_b, uids))
                    continue
                uid_i = entity_i.uid
                if affected is not None:
                    pos = state.position_of[uid_i]
                    backward = partner_uids[max(0, pos - window + 1) : pos]
                    uids = [
                        uid_j for uid_j in backward if uid_j not in affected
                    ] + uids
                for uid_j in uids:
                    if uid_i < uid_j:
                        yield entity_i, get_a(uid_j)
                    else:
                        yield get_a(uid_j), entity_i


def _root_property(node: ValueNode) -> str | None:
    """The left-most property a value tree reads, if any."""
    while isinstance(node, TransformationNode):
        node = node.inputs[0]
    if isinstance(node, PropertyNode):
        return node.property_name
    return None


class RuleBlocker(TokenBlocker):
    """Rule-aware blocking: token-block on the properties the rule
    compares (the MultiBlock idea, simplified).

    Every comparison contributes its source/target property pair as a
    blocking key, so any pair the rule could plausibly match shares at
    least one token on at least one compared property. Everything else
    — index, probing, signature — is :class:`TokenBlocker`'s.
    """

    def __init__(self, rule: LinkageRule, max_block_size: int = 200):
        properties_a: list[str] = []
        properties_b: list[str] = []
        for comparison in rule.comparisons():
            prop_a = _root_property(comparison.source)
            prop_b = _root_property(comparison.target)
            if prop_a is not None and prop_b is not None:
                properties_a.append(prop_a)
                properties_b.append(prop_b)
        if not properties_a:
            raise ValueError("rule has no property-based comparisons to block on")
        super().__init__(
            properties_a, properties_b, max_block_size=max_block_size
        )
