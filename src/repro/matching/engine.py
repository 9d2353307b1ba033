"""Link generation: evaluate a rule over candidate pairs.

This is the execution path a Silk user runs after learning: blocking
produces candidates, the rule scores them in batches and every pair at
or above the 0.5 threshold (Definition 3) becomes a link. Batches are
evaluated through one persistent :class:`repro.engine.EngineSession`
per execution, so an entity's transformed values computed in one batch
are re-used by every later batch it appears in (the seed discarded all
caches every 4096 pairs).

Batches are additionally **sharded across workers** through a
pluggable :class:`repro.engine.executor.Executor` (``workers=`` or the
``REPRO_ENGINE_WORKERS`` environment variable): a window of batches
(``window=``, default 2x the worker count) is scored concurrently — on
threads sharing the session's caches, or on a process pool with one
persistent engine session per worker process — and results are merged
back in submission order. Candidate shards come straight from the
blocker (:meth:`repro.matching.blocking.Blocker.iter_shards`) over the
run's session, so blocking-index construction shares the executor, the
value cache and the persistent store's index tier. Batch boundaries
depend only on ``batch_size`` and every shard is scored by pure
functions, so the generated links are byte-identical for every worker
count, including their order.

The default blocker is rule-structure-aware (:func:`default_blocker`):
MultiBlock where the rule's comparisons support a dismissal-free
index, token blocking on the compared properties otherwise, gated by
``benchmarks/bench_multiblock.py`` asserting MultiBlock executions
generate exactly the full-index links on every bundled dataset.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from repro import faults
from repro.core.rule import MATCH_THRESHOLD, LinkageRule
from repro.core.nodes import SimilarityNode
from repro.faults import CancelToken
from repro.data.entity import Entity
from repro.data.source import DataSource
from repro.distances.strings import routing_delta, routing_merged
from repro.engine.executor import Executor, resolve_executor
from repro.engine.lru import CacheStats
from repro.engine.session import EngineSession, EngineStats
from repro.engine.store import ColumnStore, StoreStats
from repro.matching.blocking import Blocker, FullIndexBlocker, RuleBlocker
from repro.matching.multiblock import MultiBlocker, multiblock_supports

#: Environment variable selecting the default blocking strategy when an
#: engine is constructed without an explicit ``blocker`` (values:
#: ``auto`` — structure-aware selection, the default — ``multiblock``,
#: ``rule``, ``full``).
BLOCKER_ENV = "REPRO_ENGINE_BLOCKER"


def default_blocker(
    rule: LinkageRule,
    spec: str = "auto",
    session: "EngineSession | None" = None,
) -> Blocker:
    """The blocker an engine uses when none is configured explicitly.

    ``auto`` picks :class:`~repro.matching.multiblock.MultiBlocker`
    when the rule's comparison structure supports a selective,
    dismissal-free index (:func:`~repro.matching.multiblock.
    multiblock_supports` — gated on the ``bench_multiblock`` recall/
    reduction benchmark across the bundled datasets), falling back to
    token blocking on the compared properties
    (:class:`~repro.matching.blocking.RuleBlocker`) and, for rules
    without property comparisons, the full index. ``session`` binds
    MultiBlock index construction to the engine's caches and
    persistent index tier.
    """
    text = spec.strip().lower() or "auto"
    if text == "full":
        return FullIndexBlocker()
    if text not in ("auto", "multiblock", "rule"):
        raise ValueError(
            f"invalid blocker spec {spec!r}: expected auto, multiblock, "
            f"rule or full"
        )
    if text == "multiblock" or (text == "auto" and multiblock_supports(rule)):
        return MultiBlocker(rule, session=session)
    try:
        return RuleBlocker(rule)
    except ValueError:
        return FullIndexBlocker()


@dataclass(frozen=True)
class GeneratedLink:
    """A link produced by executing a rule."""

    uid_a: str
    uid_b: str
    score: float

    def as_pair(self) -> tuple[str, str]:
        return (self.uid_a, self.uid_b)


@dataclass(frozen=True)
class MatchStats:
    """Execution statistics of one :meth:`MatchingEngine.iter_links`
    run (available after the iterator is exhausted).

    The four cache tiers are reported separately — in-memory values /
    columns / scores plus the persistent column store — so consumers
    (CI assertions, docs, tuning scripts) can tell a cross-run store
    hit from an in-memory hit unambiguously. Counters are **per run**:
    sessions (and process-pool worker sessions) outlive individual
    runs, so the engine snapshots their statistics at run start and
    reports the delta — a warm rerun on a shared session really shows
    ``store.misses == 0``, not the cold run's misses folded in.
    ``size``/``capacity`` remain point-in-time gauges. On serial/thread
    runs the snapshots come from the shared session; on process runs
    they are the per-worker snapshots merged (each worker owns a
    private session).
    """

    batches: int
    pairs: int
    links: int
    values: CacheStats | None
    columns: CacheStats | None
    scores: CacheStats | None
    #: Persistent-tier counters; None when no cache dir is configured.
    #: Covers both store tiers: distance columns (``hits``/``misses``/
    #: ``writes``) and blocking indexes (``index_hits``/
    #: ``index_misses``/``index_writes``) — a warm rerun that skipped
    #: index construction shows ``index_misses == 0`` here.
    store: StoreStats | None
    #: Probe-side counters (blocking's batch probe path, reported
    #: alongside the ``index_*`` build-side counters): batch-probe
    #: invocations this run, and probe results served from the
    #: distinct-value-tuple memo instead of fresh key derivation.
    probe_batches: int = 0
    probe_memo_hits: int = 0
    #: Per-measure kernel routing this run: sorted ``(measure,
    #: batch_pairs, fallback_pairs)`` triples — non-empty pairs scored
    #: by a vectorized batch kernel vs the per-pair scalar fallback
    #: (cache and store hits count toward neither). Plain tuples so the
    #: stats pickle cleanly out of process-pool workers.
    kernel_routing: tuple[tuple[str, int, int], ...] = ()
    #: In-flight shard window depth the run finished with. Equals the
    #: ``window=`` override when one is set; otherwise starts at 2x the
    #: worker count and adapts to measured shard-time variance (up to
    #: 4x the base — skewed shard runtimes need a deeper window to keep
    #: the pool busy).
    window_depth: int = 0
    #: Blocking-index construction this run: payloads built from
    #: scratch vs payloads patched forward from a persisted ancestor
    #: epoch (the incremental path's reuse signal).
    index_builds: int = 0
    index_patches: int = 0
    #: Degradations recorded during this run: human-readable reasons
    #: the persistent store's circuit breaker tripped (union across
    #: worker sessions on process pools, sorted and deduplicated).
    #: Empty on healthy runs; the service copies this into job stats
    #: and health reports.
    degraded: tuple[str, ...] = ()


@dataclass(frozen=True)
class LinkDiff:
    """Result of one incremental :meth:`MatchingEngine.link_diff` run.

    ``links`` is the complete, sorted link set of the *current* source
    epochs — byte-identical to a cold :meth:`MatchingEngine.execute`
    over the same data. The diff buckets compare exact
    :class:`GeneratedLink` values against ``previous_links``: a pair
    whose score changed appears in ``added`` (new version) *and*
    ``removed`` (old version); ``unchanged`` holds links equal in pair
    and score.
    """

    #: Links in the new set that were not in the previous set.
    added: tuple[GeneratedLink, ...]
    #: Previous links absent from the new set.
    removed: tuple[GeneratedLink, ...]
    #: Links identical (pair and score) in both sets.
    unchanged: tuple[GeneratedLink, ...]
    #: The full new link set, sorted by (-score, uid_a, uid_b).
    links: tuple[GeneratedLink, ...]
    #: Probe-side uids that were rescored (changed uids included);
    #: None when the blocker could not bound the impact and the run
    #: fell back to a full rescore.
    affected_uids: frozenset | None
    #: Candidate pairs actually scored this run.
    rescored_pairs: int
    #: Previous links carried over without rescoring.
    kept_links: int
    #: Statistics of the scoring pass (the full-rescore fallback
    #: reports its complete run here).
    stats: MatchStats | None


#: One engine session per worker process, lazily created and reused
#: across shards so a worker's transformed-value cache persists for the
#: whole execution (the process-pool analogue of the shared session).
_WORKER_SESSION: EngineSession | None = None
#: Cache-dir spec the worker session was created with; a different
#: spec (engine reconfigured between runs) recreates the session.
_WORKER_CACHE_DIR: str | None = None


def _shard_scores(
    payload: tuple[SimilarityNode, list[tuple[Entity, Entity]], str | None],
) -> tuple[int, np.ndarray, EngineStats, float]:
    """Score one candidate-pair shard inside a worker process.

    Module-level so process pools can pickle it. The worker session is
    explicitly serial — nesting a thread pool per worker process would
    oversubscribe the machine without changing any result. The payload
    carries the persistent cache dir (None = consult the environment):
    worker processes share the same on-disk store as the parent —
    atomic-rename writes make concurrent writers safe. The wall-clock
    duration of the shard rides along for the parent's adaptive
    window sizing.
    """
    global _WORKER_SESSION, _WORKER_CACHE_DIR
    root, pairs, cache_dir = payload
    if _WORKER_SESSION is None or _WORKER_CACHE_DIR != cache_dir:
        _WORKER_SESSION = EngineSession(executor=0, store=cache_dir)
        _WORKER_CACHE_DIR = cache_dir
    started = time.perf_counter()
    context = _WORKER_SESSION.context(pairs)
    try:
        scores = context.scores(root)
    finally:
        _WORKER_SESSION.release_context(context)
    duration = time.perf_counter() - started
    return os.getpid(), scores, _WORKER_SESSION.stats(), duration


class _RunState:
    """Mutable per-run scoring state: the in-flight shard window depth
    (adapted from measured shard durations when no ``window=`` override
    pins it) plus the worker-session snapshots a process-pool run
    reports from.

    The adaptive rule: uniform shard times need no slack beyond the
    2x-workers base, but high variance drains the pool while the long
    shard finishes — so the depth grows with the coefficient of
    variation of recent shard durations, clamped to [base, 4x base].
    """

    __slots__ = ("base", "adaptive", "depth", "max_depth", "durations", "worker_stats")

    def __init__(self, base: int, adaptive: bool):
        self.base = base
        self.adaptive = adaptive
        self.depth = base
        self.max_depth = base * 4
        self.durations: list[float] = []
        self.worker_stats: dict[int, EngineStats] = {}

    def adapt(self) -> None:
        if not self.adaptive:
            return
        recent = self.durations[-16:]
        if len(recent) < 4:
            return
        mean = sum(recent) / len(recent)
        if mean <= 0.0:
            return
        variance = sum((d - mean) ** 2 for d in recent) / len(recent)
        cv = variance**0.5 / mean
        target = round(self.base * (1.0 + 2.0 * cv))
        self.depth = max(self.base, min(self.max_depth, target))


class MatchingEngine:
    """Executes linkage rules over data sources."""

    def __init__(
        self,
        blocker: Blocker | None = None,
        batch_size: int = 4096,
        threshold: float = MATCH_THRESHOLD,
        session: EngineSession | None = None,
        workers: Executor | int | str | None = None,
        cache_dir: "ColumnStore | str | None" = None,
        window: int | None = None,
    ):
        """``blocker=None`` selects rule-aware blocking per executed
        rule (:func:`default_blocker`; ``REPRO_ENGINE_BLOCKER``
        overrides the ``auto`` strategy), falling back to the full
        index for rules without property comparisons. ``window``
        bounds how many shards are in flight at once: ``None`` keeps
        2x the worker count (deeper than the workers themselves, so
        skewed shard runtimes don't drain the pool); larger windows
        hide more shard-size variance at proportionally more resident
        pair memory. ``session=None`` creates a fresh engine
        session per :meth:`iter_links` call (caches persist across the
        batches of one execution but cannot go stale across data
        sources); pass a session explicitly to share caches across
        executions. ``workers`` selects the sharding executor (see
        :func:`repro.engine.executor.resolve_executor`); ``None``
        consults ``REPRO_ENGINE_WORKERS``. A process-pool executor
        requires the default registries (worker processes build their
        own sessions) and therefore rejects an explicit ``session``.

        ``cache_dir`` enables the persistent distance-column store for
        the sessions this engine creates (a path, a
        :class:`~repro.engine.store.ColumnStore`, or ``None`` to
        consult ``REPRO_ENGINE_CACHE``; ``""`` forces it off). A warm
        rerun over unchanged sources then loads every distance column
        from disk instead of rebuilding it — links are byte-identical
        either way. An explicit ``session`` owns its own store and
        rejects ``cache_dir``."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if window is not None and window < 1:
            raise ValueError("window must be >= 1")
        self._blocker = blocker
        self._batch_size = batch_size
        self._threshold = threshold
        self._session = session
        self._window = window
        self._executor = resolve_executor(workers)
        if self._executor.kind == "process" and session is not None:
            raise ValueError(
                "process-pool sharding cannot share an in-process engine "
                "session; drop the session= argument or use thread workers"
            )
        if session is not None and cache_dir is not None:
            raise ValueError(
                "the persistent store is owned by the session; configure "
                "store= on EngineSession instead of cache_dir="
            )
        self._cache_dir = cache_dir
        #: Parent-side session of process-pool runs: blocking indexes
        #: are built (and persisted) in the parent even though scoring
        #: happens in worker sessions. Lazily created, persists across
        #: runs so repeated executions reuse in-memory indexes.
        self._process_parent_session: EngineSession | None = None
        self._last_stats: MatchStats | None = None
        #: Per-worker-process snapshots at the end of the previous run,
        #: keyed by pid — worker sessions persist across the runs of
        #: one engine, so per-run stats are deltas against these.
        self._worker_baselines: dict[int, EngineStats] = {}

    @property
    def executor(self) -> Executor:
        """The sharding executor of this engine."""
        return self._executor

    @property
    def window(self) -> int:
        """Shards kept in flight per scheduling round (resolved)."""
        if self._window is not None:
            return self._window
        return max(1, 2 * self._executor.workers)

    def last_run_stats(self) -> MatchStats | None:
        """Statistics of the most recently *completed* run (None before
        the first run; a partially consumed :meth:`iter_links` iterator
        does not update this)."""
        return self._last_stats

    def close(self) -> None:
        """Release pooled executor workers (including the blocking
        parent session's, on process-pool engines). Usable as a
        context manager."""
        self._executor.close()
        if self._process_parent_session is not None:
            self._process_parent_session.close()

    def __enter__(self) -> "MatchingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _resolve_blocker(
        self, rule: LinkageRule, session: EngineSession
    ) -> Blocker:
        if self._blocker is not None:
            return self._blocker
        spec = os.environ.get(BLOCKER_ENV, "")
        return default_blocker(rule, spec, session=session)

    def execute(
        self,
        rule: LinkageRule,
        source_a: DataSource,
        source_b: DataSource,
        cancel: CancelToken | None = None,
    ) -> list[GeneratedLink]:
        """All links the rule generates between the two sources,
        sorted by descending score."""
        links = list(self.iter_links(rule, source_a, source_b, cancel=cancel))
        links.sort(key=lambda link: (-link.score, link.uid_a, link.uid_b))
        return links

    def iter_links(
        self,
        rule: LinkageRule,
        source_a: DataSource,
        source_b: DataSource,
        cancel: CancelToken | None = None,
    ) -> Iterator[GeneratedLink]:
        """Stream links batch by batch (memory-bounded).

        With a parallel executor, a window of shards (default 2x the
        worker count, ``window=``) is in flight at a time; links are
        always emitted in batch order, then pair order within a batch —
        the same order the serial engine produces, whatever the worker
        count.

        Candidate shards come straight from the blocker
        (:meth:`~repro.matching.blocking.Blocker.iter_shards`) — no
        re-chunking layer — and the blocker shares the run's engine
        session, so its index construction goes through the session
        executor, the value cache and (when configured) the persistent
        store's index tier. On process pools, scoring runs in
        per-worker sessions while blocking indexes are built in a
        parent-side session that persists across the engine's runs.

        ``cancel`` enables cooperative cancellation: the token is
        checked at every shard-group boundary (the engine's natural
        preemption points — nothing is interrupted mid-kernel), so a
        deadline or an operator cancel raises
        :class:`~repro.faults.Cancelled` between groups and the
        session/store are left in the same consistent state any other
        failure would leave them in.
        """
        session = self._run_session()
        baseline = session.stats()
        blocker = self._resolve_blocker(rule, session)
        state = self._run_state()
        batches = pairs = links = 0
        shards = blocker.iter_shards(
            source_a, source_b, self._batch_size, session=session
        )
        for batch, scores in self._scored_batches(
            session, rule, shards, state, cancel=cancel
        ):
            batches += 1
            pairs += len(batch)
            for (entity_a, entity_b), score in zip(batch, scores):
                if score >= self._threshold:
                    links += 1
                    yield GeneratedLink(entity_a.uid, entity_b.uid, float(score))
        self._last_stats = self._finish_stats(
            session, baseline, state, batches, pairs, links
        )

    def link_diff(
        self,
        rule: LinkageRule,
        source_a: DataSource,
        source_b: DataSource,
        previous_links: "Iterable[GeneratedLink]",
        deltas_a: "Iterable" = (),
        deltas_b: "Iterable" = (),
        cancel: CancelToken | None = None,
    ) -> LinkDiff:
        """Incrementally re-derive the link set after source deltas.

        ``previous_links`` is the link set generated over the *parent*
        epochs (before ``deltas_a``/``deltas_b``, typically
        ``DataSource.delta_chain()`` of each side; for deduplication
        runs passing one side's chain is enough). The blocker bounds
        which probe entities' candidate sets can have changed
        (:meth:`~repro.matching.blocking.Blocker.affected_probe_uids`);
        links not touching that set carry over unscored, and only the
        affected candidate pairs re-score — against the patched
        persisted indexes and the probe-result ledger, so the work is
        proportional to the delta, not the source. The resulting
        ``links`` are byte-identical to a cold
        :meth:`execute` over the current sources; when the blocker
        cannot bound the impact the run *is* a cold execute
        (``affected_uids is None``).
        """
        previous = list(previous_links)
        deltas_a = tuple(deltas_a)
        deltas_b = tuple(deltas_b)
        if source_a is source_b and (bool(deltas_a) != bool(deltas_b)):
            deltas_a = deltas_b = deltas_a or deltas_b
        session = self._run_session()
        baseline = session.stats()
        blocker = self._resolve_blocker(rule, session)
        changed: set[str] = set()
        chains = (
            (deltas_a,) if source_a is source_b else (deltas_a, deltas_b)
        )
        for chain in chains:
            for delta in chain:
                changed |= delta.changed_uids
        if deltas_a or deltas_b:
            affected = blocker.affected_probe_uids(
                source_a, source_b, deltas_a, deltas_b, session=session
            )
        else:
            affected = frozenset()
        if affected is None:
            links = list(self.execute(rule, source_a, source_b, cancel=cancel))
            stats = self._last_stats
            aff = None
            kept: list[GeneratedLink] = []
            rescored_pairs = stats.pairs if stats is not None else 0
        else:
            aff = frozenset(affected) | changed
            kept = [
                link
                for link in previous
                if link.uid_a not in aff and link.uid_b not in aff
            ]
            state = self._run_state()
            batches = pairs = 0
            rescored: list[GeneratedLink] = []
            shards = blocker.iter_affected_shards(
                source_a, source_b, aff, self._batch_size, session=session
            )
            for batch, scores in self._scored_batches(
                session, rule, shards, state, cancel=cancel
            ):
                batches += 1
                pairs += len(batch)
                for (entity_a, entity_b), score in zip(batch, scores):
                    if score >= self._threshold:
                        rescored.append(
                            GeneratedLink(
                                entity_a.uid, entity_b.uid, float(score)
                            )
                        )
            links = kept + rescored
            links.sort(key=lambda link: (-link.score, link.uid_a, link.uid_b))
            rescored_pairs = pairs
            stats = self._finish_stats(
                session, baseline, state, batches, pairs, len(links)
            )
            self._last_stats = stats
        prev_by_pair = {link.as_pair(): link for link in previous}
        new_by_pair = {link.as_pair(): link for link in links}
        return LinkDiff(
            added=tuple(
                link for link in links if prev_by_pair.get(link.as_pair()) != link
            ),
            removed=tuple(
                link
                for link in previous
                if new_by_pair.get(link.as_pair()) != link
            ),
            unchanged=tuple(
                link for link in links if prev_by_pair.get(link.as_pair()) == link
            ),
            links=tuple(links),
            affected_uids=aff,
            rescored_pairs=rescored_pairs,
            kept_links=len(kept),
            stats=stats,
        )

    def iter_link_diff(
        self,
        rule: LinkageRule,
        source_a: DataSource,
        source_b: DataSource,
        previous_links: "Iterable[GeneratedLink]",
        deltas_a: "Iterable" = (),
        deltas_b: "Iterable" = (),
    ) -> Iterator[tuple[str, GeneratedLink]]:
        """Streaming view of :meth:`link_diff`: yields ``(kind, link)``
        with kind in ``{"added", "removed", "unchanged"}`` (removed
        links carry their previous score)."""
        diff = self.link_diff(
            rule,
            source_a,
            source_b,
            previous_links,
            deltas_a=deltas_a,
            deltas_b=deltas_b,
        )
        for link in diff.added:
            yield "added", link
        for link in diff.removed:
            yield "removed", link
        for link in diff.unchanged:
            yield "unchanged", link

    def _run_session(self) -> EngineSession:
        """The session one run's candidate generation uses. Process
        pools score in per-worker sessions, but blocking is parent-side
        work — it gets a persistent parent session sharing the same
        on-disk store."""
        if self._executor.kind != "process":
            if self._session is not None:
                return self._session
            return EngineSession(store=self._cache_dir)
        if self._process_parent_session is None:
            self._process_parent_session = EngineSession(store=self._cache_dir)
        return self._process_parent_session

    def _run_state(self) -> _RunState:
        return _RunState(
            base=self.window,
            adaptive=self._window is None and self._executor.workers > 1,
        )

    def _scored_batches(
        self,
        session: EngineSession,
        rule: LinkageRule,
        shards,
        state: _RunState,
        cancel: CancelToken | None = None,
    ) -> Iterator[tuple[list[tuple[Entity, Entity]], np.ndarray]]:
        """Score a shard stream across the executor, yielding
        ``(batch, score_vector)`` in stream order — groups of
        ``state.depth`` shards are in flight at a time, map preserves
        submission order within a group, so concatenation reproduces
        the serial emission order whatever the worker count. Shard
        durations feed the adaptive window between groups.

        Each group boundary is both a cancellation point
        (``cancel.check()``) and the ``engine.shard`` fault-injection
        seam — together they bound how long a hung or doomed run can
        keep computing to one in-flight group."""
        executor = self._executor
        shard_cache_dir = self._shard_cache_dir()
        stream = iter(shards)
        while True:
            if cancel is not None:
                cancel.check()
            faults.fire("engine.shard")
            group = list(islice(stream, state.depth))
            if not group:
                return
            if executor.kind == "process":
                results = executor.map(
                    _shard_scores,
                    [(rule.root, batch, shard_cache_dir) for batch in group],
                )
                score_vectors = []
                for pid, scores, engine_stats, duration in results:
                    state.worker_stats[pid] = engine_stats
                    state.durations.append(duration)
                    score_vectors.append(scores)
            else:

                def timed(batch):
                    started = time.perf_counter()
                    scores = self._batch_scores(session, rule, batch)
                    return scores, time.perf_counter() - started

                score_vectors = []
                for scores, duration in executor.map(timed, group):
                    state.durations.append(duration)
                    score_vectors.append(scores)
            state.adapt()
            yield from zip(group, score_vectors)

    def _finish_stats(
        self,
        session: EngineSession,
        baseline: EngineStats,
        state: _RunState,
        batches: int,
        pairs: int,
        links: int,
    ) -> MatchStats:
        if self._executor.kind == "process":
            # Worker deltas plus the parent blocking session's delta:
            # index-tier traffic (and MultiBlock value transformations)
            # happen parent-side and would otherwise vanish from the
            # per-run report.
            parent = session.stats()
            deltas = [
                (snapshot, self._worker_baselines.get(pid))
                for pid, snapshot in state.worker_stats.items()
            ] + [(parent, baseline)]
            values = CacheStats.merged(
                [s.values.delta(b.values if b else None) for s, b in deltas]
            )
            columns = CacheStats.merged(
                [s.columns.delta(b.columns if b else None) for s, b in deltas]
            )
            scores_stats = CacheStats.merged(
                [s.scores.delta(b.scores if b else None) for s, b in deltas]
            )
            store_stats = StoreStats.merged(
                [
                    s.store.delta(b.store if b is not None else None)
                    for s, b in deltas
                    if s.store is not None
                ]
            )
            # Probing is parent-side work (workers only score), but sum
            # every delta so the report stays correct if that changes.
            probe_batches = sum(
                s.probe_batches - (b.probe_batches if b else 0)
                for s, b in deltas
            )
            probe_memo_hits = sum(
                s.probe_memo_hits - (b.probe_memo_hits if b else 0)
                for s, b in deltas
            )
            index_builds = sum(
                s.index_builds - (b.index_builds if b else 0)
                for s, b in deltas
            )
            index_patches = sum(
                s.index_patches - (b.index_patches if b else 0)
                for s, b in deltas
            )
            kernel_routing = routing_merged(
                [
                    routing_delta(s.kernel_routing, b.kernel_routing if b else None)
                    for s, b in deltas
                ]
            )
            # Trip reasons are monotonic per session: this run's
            # degradations are whatever each session appended past its
            # baseline, deduplicated across workers.
            degraded = tuple(
                sorted(
                    {
                        reason
                        for s, b in deltas
                        for reason in s.degraded[len(b.degraded) if b else 0 :]
                    }
                )
            )
            self._worker_baselines.update(state.worker_stats)
        else:
            stats = session.stats()
            values = stats.values.delta(baseline.values)
            columns = stats.columns.delta(baseline.columns)
            scores_stats = stats.scores.delta(baseline.scores)
            store_stats = (
                stats.store.delta(baseline.store)
                if stats.store is not None
                else None
            )
            probe_batches = stats.probe_batches - baseline.probe_batches
            probe_memo_hits = stats.probe_memo_hits - baseline.probe_memo_hits
            index_builds = stats.index_builds - baseline.index_builds
            index_patches = stats.index_patches - baseline.index_patches
            kernel_routing = routing_delta(
                stats.kernel_routing, baseline.kernel_routing
            )
            degraded = tuple(
                sorted(set(stats.degraded[len(baseline.degraded) :]))
            )
        return MatchStats(
            batches=batches,
            pairs=pairs,
            links=links,
            values=values,
            columns=columns,
            scores=scores_stats,
            store=store_stats,
            probe_batches=probe_batches,
            probe_memo_hits=probe_memo_hits,
            kernel_routing=kernel_routing,
            window_depth=state.depth,
            index_builds=index_builds,
            index_patches=index_patches,
            degraded=degraded,
        )

    def _shard_cache_dir(self) -> str | None:
        """The cache-dir spec shipped to process-pool shard workers
        (workers resolve their own store; None = consult the
        environment, as the parent would)."""
        if isinstance(self._cache_dir, ColumnStore):
            return str(self._cache_dir.root)
        return self._cache_dir

    def _batch_scores(
        self,
        session: EngineSession,
        rule: LinkageRule,
        batch: list[tuple[Entity, Entity]],
    ) -> np.ndarray:
        """Score one batch through the shared session (serial and
        thread paths; thread-safe via the session's locked caches)."""
        context = session.context(batch)
        try:
            return context.scores(rule.root)
        finally:
            # Column/score vectors are batch-local; evict them so long
            # streams don't pin dead arrays until capacity eviction.
            # (Value-tier entries persist — that's the cross-batch win.)
            session.release_context(context)


def generate_links(
    rule: LinkageRule,
    source_a: DataSource,
    source_b: DataSource,
    blocker: Blocker | None = None,
    workers: Executor | int | str | None = None,
    cache_dir: "ColumnStore | str | None" = None,
) -> list[GeneratedLink]:
    """Convenience wrapper around :class:`MatchingEngine`."""
    engine = MatchingEngine(blocker=blocker, workers=workers, cache_dir=cache_dir)
    try:
        return engine.execute(rule, source_a, source_b)
    finally:
        engine.close()
