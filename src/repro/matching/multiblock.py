"""MultiBlock: multidimensional, rule-aware candidate generation.

The paper executes learned rules with the MultiBlock engine of the Silk
framework [19] (Isele, Jentzsch & Bizer: "Efficient Multidimensional
Blocking for Link Discovery without losing Recall", WebDB 2011). This
module implements the same idea from scratch:

* every comparison contributes an *index*: entities are mapped into
  blocks derived from the comparison's **transformed** values — the
  same value trees the rule evaluates, so e.g. a rule comparing
  ``lowerCase(tokenize(label))`` blocks on lowercased tokens, not on
  the raw label;
* the block extent follows the comparison's distance threshold, so
  numeric/date/geographic comparisons index into grid cells of width
  θ and candidates are read from adjacent cells (pairs within θ can
  never be more than one cell apart — no false dismissals);
* indexes compose through the aggregation hierarchy: ``min`` requires
  every child to match, so its candidate set is the *intersection* of
  the children's; ``max`` and ``wmean`` score at least 0.5 only if some
  child scores positively, so their candidate set is the *union*.

Guarantees: grid indexers (numeric, date, geographic latitude) and the
set indexers for ``equality``/token measures are dismissal-free with
respect to "the comparison could score above 0". Character measures
(levenshtein & friends) use padded q-gram indexing, which can in
principle dismiss a pair whose edit distance is large relative to the
string length; with the thresholds GenLink learns this does not occur
in practice (the recall of every blocker is measurable with
:func:`blocking_quality`).

Index construction is engine-integrated: block keys are derived once
per *distinct* transformed value tuple, per-comparison builds fan
across the session's shared-memory executor, and finished block tables
persist in the session store's index tier keyed by source fingerprint
× comparison structure — warm reruns skip construction entirely.
Probing mirrors it (:meth:`MultiBlocker.probe_batch`): whole A-side
chunks evaluate the candidate algebra at once, per-comparison probe
results memoise per distinct transformed value tuple, and chunks fan
across the same executor. :func:`multiblock_supports` is the
structure test behind the engine's default-blocker selection.
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.nodes import (
    AggregationNode,
    ComparisonNode,
    SimilarityNode,
)
from repro.core.rule import LinkageRule
from repro.data.entity import Entity
from repro.data.source import DataSource
from repro.distances.dates import parse_date
from repro.distances.geographic import parse_point
from repro.distances.numeric import parse_number
from repro.engine.compiler import signature_token, value_tree_signature
from repro.engine.session import EngineSession
from repro.engine.values import evaluate_value_op
from repro.matching.blocking import (
    _memo_put,
    _union_codes,
    Blocker,
    CandidatePair,
    FullIndexBlocker,
    fan_entity_chunks,
)
from repro.transforms.registry import TransformationRegistry
from repro.transforms.registry import default_registry as default_transforms


def _entity_values(
    node,
    entity: Entity,
    transforms: TransformationRegistry,
    session: "EngineSession | None",
) -> tuple[str, ...]:
    """Transformed values for index construction/probing: through the
    session value cache when one is available (shared with rule
    evaluation), plain evaluation otherwise."""
    if session is not None:
        return session.entity_values(node, entity)
    return evaluate_value_op(node, entity, transforms)

#: Metres per degree of latitude (conservative lower bound).
_METRES_PER_DEGREE_LATITUDE = 110_574.0


class ComparisonIndexer(ABC):
    """Maps a comparison's value sets into hashable block keys.

    Two entities are candidates for the comparison iff their key sets
    intersect (after :meth:`probe_keys` expansion on the left side).
    """

    @abstractmethod
    def block_keys(self, values: Sequence[str]) -> set:
        """Block keys under which an entity with ``values`` is filed."""

    def probe_keys(self, values: Sequence[str]) -> set:
        """Keys to look up when searching partners for ``values``.

        Grid indexers override this to also probe adjacent cells; the
        default probes exactly the filing keys.
        """
        return self.block_keys(values)

    def reverse_probe_keys(self, values: Sequence[str]) -> set:
        """Keys to look up in a *reverse* index — probe-side entities
        filed under their own block keys — to find every entity whose
        :meth:`probe_keys` reach any of ``values``'s block keys.

        Must over-approximate (missed entities would silently drop
        candidate pairs from an incremental rescore). Exact for
        indexers whose probe keys equal their block keys; grid
        indexers widen by one extra cell per side to absorb the
        floor-rounding asymmetry between probing from A and probing
        back from B.
        """
        return self.probe_keys(values)

    def cache_token(self) -> str:
        """Stable identity of this indexer's block-key derivation.

        Part of the persistent index-tier key: two indexers with the
        same token must file identical values under identical keys
        (grid indexers fold their extent in, q-gram indexers their q).
        """
        return type(self).__name__


class EqualityIndexer(ComparisonIndexer):
    """Exact-value blocks; dismissal-free for the equality measure."""

    def block_keys(self, values: Sequence[str]) -> set:
        return set(values)


class TokenIndexer(ComparisonIndexer):
    """One block per lowercased whitespace token.

    Dismissal-free for token-set measures (jaccard, dice, overlap,
    mongeElkan): any pair with distance < 1 shares at least one token.
    """

    def block_keys(self, values: Sequence[str]) -> set:
        keys: set[str] = set()
        for value in values:
            keys.update(token.lower() for token in value.split())
        return keys


class QGramIndexer(ComparisonIndexer):
    """Padded q-gram blocks for character-based measures.

    Strings within a small edit distance share most of their q-grams;
    strings shorter than ``q`` are filed under themselves.
    """

    def __init__(self, q: int = 2):
        if q < 1:
            raise ValueError("q must be >= 1")
        self._q = q

    def cache_token(self) -> str:
        return f"QGramIndexer:q={self._q}"

    def block_keys(self, values: Sequence[str]) -> set:
        keys: set[str] = set()
        for value in values:
            text = f"^{value.lower()}$"
            if len(text) <= self._q:
                keys.add(text)
                continue
            keys.update(
                text[i : i + self._q] for i in range(len(text) - self._q + 1)
            )
        return keys


class GridIndexer(ComparisonIndexer):
    """1-D grid blocks of width ``extent`` over a numeric projection.

    Values within ``extent`` of each other land in the same or an
    adjacent cell, so probing every block intersecting
    ``[v - extent, v + extent]`` is dismissal-free. The probe range
    carries a small relative guard so pairs sitting exactly on the
    threshold survive float rounding (the distance measures compare
    ``d <= theta`` in float arithmetic too).
    """

    def __init__(self, extent: float):
        if not (extent > 0.0) or not math.isfinite(extent):
            raise ValueError(f"extent must be positive and finite, got {extent}")
        self._extent = extent

    def cache_token(self) -> str:
        # repr() of the float is exact, so extents that differ in any
        # bit key differently (subclasses inherit: their class name and
        # derived extent identify the projection + grid).
        return f"{type(self).__name__}:extent={self._extent!r}"

    def project(self, value: str) -> float | None:
        """The numeric projection of one value; None if unparseable.

        Uses the same embedded-number extraction as the ``numeric``
        distance measure — the index must see exactly the values the
        comparison will see, or pairs the measure accepts could be
        dismissed.
        """
        return parse_number(value)

    def block_keys(self, values: Sequence[str]) -> set:
        keys: set[int] = set()
        for value in values:
            projected = self.project(value)
            if projected is not None:
                keys.add(math.floor(projected / self._extent))
        return keys

    def probe_keys(self, values: Sequence[str]) -> set:
        keys: set[int] = set()
        extent = self._extent
        for value in values:
            projected = self.project(value)
            if projected is None:
                continue
            guard = max(extent, abs(projected)) * 1e-9
            low = math.floor((projected - extent - guard) / extent)
            high = math.floor((projected + extent + guard) / extent)
            keys.update(range(low, high + 1))
        return keys

    def reverse_probe_keys(self, values: Sequence[str]) -> set:
        # One extra cell each side: a probe from value v_a reaches
        # cell(v_b) whenever |v_a - v_b| <~ extent, which bounds
        # |cell(v_a) - cell(v_b)| by 2 — one cell beyond the forward
        # probe range of v_b.
        keys: set[int] = set()
        extent = self._extent
        for value in values:
            projected = self.project(value)
            if projected is None:
                continue
            guard = max(extent, abs(projected)) * 1e-9
            low = math.floor((projected - extent - guard) / extent) - 1
            high = math.floor((projected + extent + guard) / extent) + 1
            keys.update(range(low, high + 1))
        return keys


class DateGridIndexer(GridIndexer):
    """Grid over proleptic ordinal day numbers (date measure)."""

    def project(self, value: str) -> float | None:
        parsed = parse_date(value)
        return float(parsed.toordinal()) if parsed is not None else None


class LatitudeGridIndexer(GridIndexer):
    """Grid over latitude degrees for the geographic measure.

    Latitude alone gives a sound 1-D reduction: two points within θ
    metres differ by at most θ / 110574 degrees of latitude regardless
    of longitude, so the ±1 cell probe never dismisses a true match.
    (A longitude dimension would need latitude-dependent extents to
    stay sound near the poles; the latitude grid keeps the guarantee
    simple and already removes the quadratic blow-up.)
    """

    def __init__(self, threshold_metres: float):
        super().__init__(
            extent=max(threshold_metres, 1.0) / _METRES_PER_DEGREE_LATITUDE
        )

    def project(self, value: str) -> float | None:
        point = parse_point(value)
        return point[0] if point is not None else None


#: Largest Levenshtein threshold (character edits) the q-gram index
#: accepts: k edits destroy at most 2k padded bigrams, so shared grams
#: are guaranteed for strings longer than ~2k+2 characters and near-
#: certain below that. GenLink's learned name comparisons sit at 1-2.
_MAX_INDEXED_EDITS = 2.0

#: Largest threshold for [0, 1]-normalised character measures
#: (normalizedLevenshtein, jaro, jaroWinkler): here the permitted edits
#: scale with the string length and so does the q-gram overlap, making
#: moderate thresholds safe at every length.
_MAX_INDEXED_NORMALIZED = 0.25


def indexer_for_comparison(node: ComparisonNode) -> ComparisonIndexer | None:
    """The indexer matching a comparison's measure, or None when the
    measure (at this comparison's threshold) has no dismissal-free
    index — the caller then treats the comparison as non-selective,
    which is always sound.

    Unindexed on principle: ``relativeNumeric`` (its absolute tolerance
    scales with the values' magnitude, so no fixed grid works) and
    ``mongeElkan`` (tokens may match approximately, so exact-token
    blocks lose recall). Character measures are indexed only up to the
    thresholds where q-gram co-occurrence is (near-)guaranteed;
    learned rules with looser thresholds fall back to the other
    comparisons of the rule for pruning.
    """
    metric = node.metric
    if metric == "equality":
        return EqualityIndexer()
    if metric in ("jaccard", "dice", "overlap"):
        # Exact-token-set measures: distance < 1 requires >= 1 shared
        # token, so token blocking never dismisses.
        return TokenIndexer()
    if metric in ("qgrams", "softJaccard"):
        # qgrams: distance < 1 literally means shared grams. The
        # soft-jaccard tolerance is per token (<= 1 edit), which keeps
        # bigram overlap through the matching token.
        return QGramIndexer()
    if metric == "levenshtein" and node.threshold <= _MAX_INDEXED_EDITS:
        return QGramIndexer()
    if (
        metric in ("normalizedLevenshtein", "jaro", "jaroWinkler")
        and node.threshold <= _MAX_INDEXED_NORMALIZED
    ):
        return QGramIndexer()
    if metric == "numeric":
        return GridIndexer(extent=max(node.threshold, 1e-9))
    if metric == "date":
        return DateGridIndexer(extent=max(node.threshold, 1.0))
    if metric == "geographic":
        return LatitudeGridIndexer(threshold_metres=node.threshold)
    return None


def multiblock_supports(rule: LinkageRule) -> bool:
    """Whether a rule's comparison structure gives MultiBlock a
    selective, dismissal-free candidate set.

    Mirrors the candidate-set algebra of :class:`MultiBlocker`: a
    comparison is selective iff it has an indexer at its threshold; a
    ``min`` aggregation is selective if *any* child is (intersection);
    ``max``/``wmean`` need *every* child selective, because the union
    with one unindexable child is the whole source. Engines use this to
    pick :class:`MultiBlocker` as the default only where it actually
    prunes.
    """

    def selective(node: SimilarityNode) -> bool:
        if isinstance(node, ComparisonNode):
            return indexer_for_comparison(node) is not None
        assert isinstance(node, AggregationNode)
        if node.function == "min":
            return any(selective(child) for child in node.operators)
        return all(selective(child) for child in node.operators)

    return selective(rule.root)


@dataclass(frozen=True)
class ComparisonIndex:
    """A built index of source B for one comparison."""

    comparison: ComparisonNode
    indexer: ComparisonIndexer
    #: block key -> uids of B entities filed under it (source order).
    blocks: dict

    def candidates_for(
        self,
        entity: Entity,
        transforms: TransformationRegistry,
        session: EngineSession | None = None,
    ) -> set[str]:
        values = _entity_values(self.comparison.source, entity, transforms, session)
        return self.candidates_for_values(values)

    def candidates_for_values(self, values: Sequence[str]) -> set[str]:
        """Candidate uids for one transformed value tuple (the
        memoisable half of :meth:`candidates_for` — identical values
        always probe identical keys, so batch probing derives this
        once per *distinct* tuple)."""
        uids: set[str] = set()
        for key in self.indexer.probe_keys(values):
            uids.update(self.blocks.get(key, ()))
        return uids


def comparison_index_token(
    comparison: ComparisonNode, indexer: ComparisonIndexer
) -> str:
    """Persistent-tier key token of one comparison's target index.

    Combines the indexer's block-key derivation (class + extent/q —
    thresholds enter *only* through the indexer they select) with the
    canonical structural signature of the target value tree, so every
    weight mutation and every comparison sharing the same target tree
    and indexer configuration shares one persisted index.
    """
    return (
        f"cmpidx:v1:{indexer.cache_token()}:"
        f"{signature_token(value_tree_signature(comparison.target))}"
    )


def _comparison_blocks_patcher(
    value_node,
    source: DataSource,
    indexer: ComparisonIndexer,
    transforms: TransformationRegistry,
    session: EngineSession | None,
):
    """An :meth:`EngineSession.blocking_index` patcher moving one
    comparison block table a source delta forward: displaced entity
    versions leave the blocks their old transformed values filed them
    under, upserted versions join their new keys' blocks. Joined
    blocks re-sort by the entity's current source position, so the
    patched table equals a cold rebuild block-for-block (deletions
    preserve surviving uids' relative order; dict upsert semantics
    keep a replaced uid's slot)."""

    def patch(blocks: dict, delta) -> dict:
        blocks = dict(blocks)
        for old in delta.old_entities():
            uid = old.uid
            values = _entity_values(value_node, old, transforms, session)
            for key in indexer.block_keys(values):
                block = blocks.get(key)
                if block is None or uid not in block:
                    continue
                pruned = tuple(u for u in block if u != uid)
                if pruned:
                    blocks[key] = pruned
                else:
                    del blocks[key]
        order: dict[str, int] | None = None
        fallback = 0
        for entity in delta.upserts:
            uid = entity.uid
            values = _entity_values(value_node, entity, transforms, session)
            for key in indexer.block_keys(values):
                block = blocks.get(key)
                if block is None:
                    blocks[key] = (uid,)
                elif uid not in block:
                    if order is None:
                        order = {u: i for i, u in enumerate(source.uids())}
                        # Mid-chain uids a later delta removes are not
                        # in the live source; park them at the end (a
                        # later patch step deletes them anyway).
                        fallback = len(order)
                    blocks[key] = tuple(
                        sorted(
                            block + (uid,),
                            key=lambda u: order.get(u, fallback),
                        )
                    )
        return blocks

    return patch


def _indexed_blocks(
    value_node,
    source: DataSource,
    indexer: ComparisonIndexer,
    transforms: TransformationRegistry,
    session: EngineSession | None,
    fan: bool,
    token: str,
) -> dict:
    """One ``{block key: (uids...)}`` table of ``source`` under a value
    tree × indexer, resolved through the session's index memo and
    persistent index tier under ``token`` (patched forward along the
    source's delta chain instead of rebuilt, when possible)."""

    def build() -> dict:
        chunk_session = session if fan else None

        def extract(chunk):
            return [
                (
                    entity.uid,
                    _entity_values(value_node, entity, transforms, session),
                )
                for entity in chunk
            ]

        per_entity = fan_entity_chunks(chunk_session, source.entities(), extract)
        key_memo: dict[tuple[str, ...], tuple] = {}
        blocks: dict = {}
        for uid, values in per_entity:
            keys = key_memo.get(values)
            if keys is None:
                keys = tuple(indexer.block_keys(values))
                key_memo[values] = keys
            for key in keys:
                block = blocks.get(key)
                if block is None:
                    blocks[key] = [uid]
                else:
                    block.append(uid)
        return {key: tuple(uids) for key, uids in blocks.items()}

    if session is not None:
        return session.blocking_index(
            source.fingerprint(),
            token,
            build,
            lineage=source.delta_chain(),
            patcher=_comparison_blocks_patcher(
                value_node, source, indexer, transforms, session
            ),
        )
    return build()


def build_comparison_index(
    comparison: ComparisonNode,
    source_b: DataSource,
    transforms: TransformationRegistry,
    session: EngineSession | None = None,
    fan: bool = True,
) -> ComparisonIndex | None:
    """Index source B under a comparison's target value tree.

    With a ``session``, transformed values go through the engine's
    value cache (shared with the rule evaluation that follows blocking)
    and the finished block table resolves through the session's index
    memo and the persistent store's index tier — a warm rerun over an
    unchanged source skips construction entirely, and a source a few
    deltas ahead of a persisted epoch patches the table forward
    instead of rebuilding.

    Construction is value-memoised: block keys are derived once per
    *distinct* transformed value tuple, and (with ``fan=True``) value
    extraction fans across the session's shared-memory executor.
    Callers that already parallelise per comparison pass ``fan=False``
    — nesting executor fan-outs inside pool workers would deadlock a
    saturated thread pool.
    """
    indexer = indexer_for_comparison(comparison)
    if indexer is None:
        return None
    blocks = _indexed_blocks(
        comparison.target,
        source_b,
        indexer,
        transforms,
        session,
        fan,
        comparison_index_token(comparison, indexer),
    )
    return ComparisonIndex(comparison=comparison, indexer=indexer, blocks=blocks)


def _blocks_code_view(blocks: dict, code_of: dict) -> dict:
    """One comparison's block table in code space: each block a sorted
    unique ``int32`` array of B-entity codes."""
    return {
        key: np.unique(
            np.fromiter(
                (code_of[uid] for uid in uids),
                dtype=np.int32,
                count=len(uids),
            )
        )
        for key, uids in blocks.items()
    }


@dataclass(frozen=True)
class MultiProbeIndex:
    """Probe-side state of one :class:`MultiBlocker` over a target
    source: the per-comparison indexes, their code-space views, and
    the shared code table. Codes number *all* B uids in sorted order
    (unindexable nodes contribute ``all_codes`` to the candidate
    algebra), so sorted code arrays are sorted uid sequences."""

    indexes: dict[int, ComparisonIndex]
    #: comparison node id -> {block key: sorted unique int32 codes}.
    views: dict[int, dict]
    #: code -> uid, ascending (the shared code table of every view).
    uids: tuple[str, ...]
    #: Candidate set of unindexable nodes (identity-compared sentinel).
    all_codes: np.ndarray
    #: Code-space size (mask length for unions/intersections).
    size: int

    @property
    def all_uids(self) -> frozenset:
        """uid view of the full candidate universe (parity suites)."""
        return frozenset(self.uids)


class MultiBlocker(Blocker):
    """Aggregation-aware multidimensional blocking for one rule.

    ``max_comparisons`` caps how many comparison indexes are built;
    extra comparisons are simply not used for pruning (which is always
    sound — fewer indexes means a larger candidate set).
    """

    def __init__(
        self,
        rule: LinkageRule,
        transforms: TransformationRegistry | None = None,
        max_comparisons: int = 8,
        session: EngineSession | None = None,
    ):
        self._rule = rule
        self._max_comparisons = max_comparisons
        #: Built with defaults (no pinned transforms/session): such a
        #: blocker adopts an engine-passed run session wholesale, so an
        #: explicit `MatchingEngine(blocker=MultiBlocker(rule),
        #: cache_dir=...)` still indexes through the engine's caches
        #: and persistent index tier — and through the transforms the
        #: engine will evaluate the rule under.
        self._adoptable = session is None and transforms is None
        if session is None:
            self._transforms = (
                transforms if transforms is not None else default_transforms()
            )
            self._session = EngineSession(transforms=self._transforms)
        else:
            if transforms is not None and transforms is not session.transforms:
                raise ValueError(
                    "conflicting transformation registries: pass either a "
                    "session or a registry, not both"
                )
            # Index construction goes through the session's value cache,
            # so blocking must use the session's registry.
            self._transforms = session.transforms
            self._session = session

    def _active_session(self, session: "EngineSession | None") -> EngineSession:
        """The session one call runs under: an engine-passed session
        when this blocker is adoptable (built with defaults), its own
        pinned session otherwise."""
        if session is not None and self._adoptable:
            return session
        return self._session

    # -- candidate set algebra -------------------------------------------------
    def _node_codes(
        self,
        node: SimilarityNode,
        entity: Entity,
        probe: MultiProbeIndex,
        session: EngineSession,
        memo: dict,
        memo_hits: list[int],
    ) -> np.ndarray:
        """Codes of B entities that could make ``node`` score > 0 for
        ``entity``; ``probe.all_codes`` (identity-compared) when the
        node is not indexable.

        The whole algebra runs in code space: a comparison unions its
        probed blocks through a boolean mask over the code space (one
        C pass, result sorted for free via ``flatnonzero``); ``min``
        intersects and ``max``/``wmean`` union child sets the same
        way. Per-comparison probe results memoise in ``memo`` keyed by
        ``(comparison id, transformed value tuple)`` — the probe-side
        mirror of the index build's distinct-value memo — so entities
        sharing a transformed tuple (duplicate-heavy sources, constant
        properties) skip probe-key derivation *and* the union;
        ``memo_hits[0]`` counts the skips. The memo is shared across
        fanned probe chunks — dict reads/writes are atomic and a
        racing recompute is deterministic, so sharing can only save
        work, never change a result.
        """
        if isinstance(node, ComparisonNode):
            view = probe.views.get(id(node))
            if view is None:
                return probe.all_codes
            values = _entity_values(
                node.source, entity, session.transforms, session
            )
            key = (id(node), values)
            cached = memo.get(key)
            if cached is not None:
                memo_hits[0] += 1
                return cached
            get = view.get
            blocks = []
            for probe_key in probe.indexes[id(node)].indexer.probe_keys(values):
                block = get(probe_key)
                if block is not None:
                    blocks.append(block)
            codes = _union_codes(blocks, probe.size)
            _memo_put(memo, key, codes)
            return codes
        assert isinstance(node, AggregationNode)
        child_sets = [
            self._node_codes(child, entity, probe, session, memo, memo_hits)
            for child in node.operators
        ]
        all_codes = probe.all_codes
        if node.function == "min":
            selective = [s for s in child_sets if s is not all_codes]
            if not selective:
                return all_codes
            if len(selective) == 1:
                return selective[0]
            mask = np.zeros(probe.size, dtype=bool)
            mask[selective[0]] = True
            for child_set in selective[1:]:
                other = np.zeros(probe.size, dtype=bool)
                other[child_set] = True
                mask &= other
            return np.flatnonzero(mask)
        # max / wmean: a positive overall score requires at least one
        # positive child, so the union is dismissal-free.
        if any(s is all_codes for s in child_sets):
            return all_codes
        return _union_codes(child_sets, probe.size)

    def signature(self) -> str | None:
        """None: MultiBlock persistence is finer-grained — each
        comparison index is its own index-tier entry (see
        :func:`comparison_index_token`), so rules sharing comparisons
        share persisted indexes."""
        return None

    def build_index(self, source, session=None):
        """All comparison indexes of this blocker's rule over a target
        source, keyed by comparison node id (construction fans across
        the session executor; each index resolves through the
        session's memo and persistent index tier). A blocker with
        pinned transforms or an explicit session uses its own session
        regardless of ``session`` — its transforms define the index
        keys."""
        comparisons = self._rule.comparisons()[: self._max_comparisons]
        own = self._active_session(session)
        transforms = own.transforms
        executor = own.executor
        if (
            executor.shares_memory
            and executor.workers > 1
            and len(comparisons) > 1
        ):
            built = executor.map(
                lambda comparison: build_comparison_index(
                    comparison, source, transforms, own, fan=False
                ),
                comparisons,
            )
        else:
            built = [
                build_comparison_index(
                    comparison, source, transforms, own, fan=True
                )
                for comparison in comparisons
            ]
        return {
            id(comparison): index
            for comparison, index in zip(comparisons, built)
            if index is not None
        }

    def probe_index(
        self,
        source_a: DataSource,
        source_b: DataSource,
        session: "EngineSession | None" = None,
    ) -> "MultiProbeIndex":
        """The probe-side state over a target source: the built
        comparison indexes, their code-space views and the shared uid
        code table. The uid table and each comparison's code view
        resolve through the session's index memo and persistent index
        tier (key suffix ``probe-codes-v1``), so warm sessions and
        warm stores skip the derivation like they skip the block
        tables themselves."""
        own = self._active_session(session)
        indexes = self.build_index(source_b, session=session)

        def sorted_uids() -> tuple[str, ...]:
            return tuple(sorted(entity.uid for entity in source_b))

        # View patchers recompute from the already-patched block table
        # and the current code table — the view *is* a derivation, so
        # "patch" means re-derive against the final epoch (idempotent
        # per chain step; counted as a patch, not a build).
        uids: tuple[str, ...] = self._resolve_index(
            source_b,
            own,
            "multiblock-uid-codes-v1",
            sorted_uids,
            patcher=lambda payload, delta: sorted_uids(),
        )
        code_of = {uid: code for code, uid in enumerate(uids)}
        views: dict[int, dict] = {}
        for node_id, comparison_index in indexes.items():
            token = (
                comparison_index_token(
                    comparison_index.comparison, comparison_index.indexer
                )
                + "|probe-codes-v1"
            )
            views[node_id] = self._resolve_index(
                source_b,
                own,
                token,
                lambda ci=comparison_index: _blocks_code_view(
                    ci.blocks, code_of
                ),
                patcher=lambda payload, delta, ci=comparison_index: (
                    _blocks_code_view(ci.blocks, code_of)
                ),
            )
        return MultiProbeIndex(
            indexes=indexes,
            views=views,
            uids=uids,
            all_codes=np.arange(len(uids), dtype=np.int32),
            size=len(uids),
        )

    def probe_batch(self, entities, index, session=None, memo=None):
        """Batch probe: evaluates the min/max/wmean candidate algebra
        for a whole A-side chunk in code space, memoising
        per-comparison probe results per distinct transformed value
        tuple (mirroring the index build's distinct-value memo) and
        fanning chunks across the session's shared-memory executor.
        Returns one sorted partner-code array per entity (sorted codes
        are sorted uids — the blocker's deterministic emission order);
        :meth:`probe_uids` materialises the uid view.

        ``memo`` lets a streaming caller share the distinct-value memo
        across successive probe batches (``_probe_chunks`` threads one
        through the whole run); ``None`` scopes it to this call.
        """
        own = self._active_session(session)
        root = self._rule.root
        shared_memo = memo if memo is not None else {}

        def probe(chunk):
            hits = [0]
            results = [
                self._node_codes(root, entity, index, own, shared_memo, hits)
                for entity in chunk
            ]
            own.record_probe(memo_hits=hits[0])
            return results

        own.record_probe(batches=1)
        return fan_entity_chunks(own, entities, probe)

    def probe_uids(self, index, partners):
        return tuple(map(index.uids.__getitem__, partners.tolist()))

    def _reverse_blocks(
        self,
        comparison: ComparisonNode,
        indexer: ComparisonIndexer,
        source_a: DataSource,
        session: "EngineSession | None",
    ) -> dict:
        """Reverse comparison index: probe-side (A) entities filed
        under the block keys of the comparison's *source* value tree.
        ``reverse[key]`` answers "which A entities' probe keys could
        reach ``key``" (after :meth:`ComparisonIndexer.
        reverse_probe_keys` expansion at lookup time). Persisted and
        patched like the forward tables, under its own ``rev`` token."""
        own = self._active_session(session)
        token = (
            f"cmpidx-rev:v1:{indexer.cache_token()}:"
            f"{signature_token(value_tree_signature(comparison.source))}"
        )
        return _indexed_blocks(
            comparison.source,
            source_a,
            indexer,
            own.transforms,
            own,
            True,
            token,
        )

    def affected_probe_uids(
        self, source_a, source_b, deltas_a, deltas_b, session=None
    ):
        """Probe-side uids whose candidate sets may have changed.

        The candidate algebra is a monotone function of the
        per-comparison block relations, each of which depends only on
        its two endpoints' values (MultiBlock has no data-dependent
        block-size limit, unlike token blocking), and the set of
        *built* comparisons is a pure function of the rule structure —
        so a pair of two *unchanged* entities can never flip. The
        minimal affected set is therefore empty: the engine unions in
        the changed uids itself, and the pairs of a changed B entity
        with unchanged probe entities are emitted by the targeted
        reverse pass of :meth:`iter_affected_shards` instead of
        re-probing every reverse-index hit in full. Returns None (full
        rescore) when the algebra has a non-selective branch — there
        an inserted or deleted B entity pairs with *every* probe
        entity."""
        dedup = source_a is source_b
        deltas_b = tuple(deltas_a) if dedup else tuple(deltas_b)
        if not deltas_b:
            # Only the probe side changed: unchanged probe entities
            # keep their candidate sets (the target index is frozen).
            return frozenset()
        probe = self.probe_index(source_a, source_b, session=session)
        if not probe.indexes:
            return None

        def selective(node: SimilarityNode) -> bool:
            if isinstance(node, ComparisonNode):
                return id(node) in probe.views
            assert isinstance(node, AggregationNode)
            if node.function == "min":
                return any(selective(child) for child in node.operators)
            return all(selective(child) for child in node.operators)

        if not selective(self._rule.root):
            return None
        return frozenset()

    def _reverse_partners(self, source_a, source_b, index, session):
        """Coarse A-partner supersets from the per-comparison reverse
        indexes: sound because a candidate pair satisfies at least one
        built comparison's block relation, and
        :meth:`ComparisonIndexer.reverse_probe_keys` over-approximates
        it. Not exact, so the partners are verified against their own
        probe codes. Reverse tables resolve lazily, on the first
        changed B entity that needs them."""
        own = self._active_session(session)
        transforms = own.transforms
        reverse_tables: dict[int, dict] = {}

        def partners_of(entity_b: Entity) -> set[str]:
            partners: set[str] = set()
            for node_id, comparison_index in index.indexes.items():
                comparison = comparison_index.comparison
                indexer = comparison_index.indexer
                reverse = reverse_tables.get(node_id)
                if reverse is None:
                    reverse = self._reverse_blocks(
                        comparison, indexer, source_a, session
                    )
                    reverse_tables[node_id] = reverse
                get = reverse.get
                values = _entity_values(
                    comparison.target, entity_b, transforms, own
                )
                for key in indexer.reverse_probe_keys(values):
                    block = get(key)
                    if block is not None:
                        partners.update(block)
            return partners

        return partners_of, True

    def _ledger_token(self) -> str:
        from repro.core.serialization import rule_to_json

        rule_token = hashlib.sha256(
            rule_to_json(self._rule, indent=None).encode("utf-8")
        ).hexdigest()[:24]
        return (
            f"multiblock:v1:rule={rule_token}:"
            f"max={self._max_comparisons}|probe-results-v1"
        )

    def candidates(
        self, source_a: DataSource, source_b: DataSource
    ) -> Iterator[CandidatePair]:
        return self._iter_pairs(source_a, source_b, None)

    def _iter_pairs(self, source_a, source_b, session):
        probe = self.probe_index(source_a, source_b, session=session)
        if not probe.indexes:
            # No indexable comparison: fall back to the (lazy) full
            # product rather than a degenerate everything-matches probe.
            return FullIndexBlocker().candidates(source_a, source_b)
        return self._probe_pairs(source_a, source_b, probe, session)

    def _iter_affected_pairs(self, source_a, source_b, affected, session):
        probe = self.probe_index(source_a, source_b, session=session)
        if not probe.indexes:
            return super()._iter_affected_pairs(
                source_a, source_b, affected, session
            )
        return self._probe_pairs(source_a, source_b, probe, session, affected)


@dataclass(frozen=True)
class BlockingQuality:
    """Pair-completeness / reduction-ratio of a blocker on a workload."""

    candidate_pairs: int
    total_pairs: int
    covered_matches: int
    total_matches: int

    @property
    def pairs_completeness(self) -> float:
        """Recall of the candidate set over the true matches."""
        if self.total_matches == 0:
            return 1.0
        return self.covered_matches / self.total_matches

    @property
    def reduction_ratio(self) -> float:
        """Fraction of the Cartesian product pruned away."""
        if self.total_pairs == 0:
            return 0.0
        return 1.0 - self.candidate_pairs / self.total_pairs


def blocking_quality(
    blocker: Blocker,
    source_a: DataSource,
    source_b: DataSource,
    true_matches: Iterable[tuple[str, str]],
) -> BlockingQuality:
    """Measure a blocker against known matches (e.g. reference links)."""
    matches = set(true_matches)
    candidate_pairs = 0
    covered: set[tuple[str, str]] = set()
    for entity_a, entity_b in blocker.candidates(source_a, source_b):
        candidate_pairs += 1
        key = (entity_a.uid, entity_b.uid)
        if key in matches:
            covered.add(key)
    return BlockingQuality(
        candidate_pairs=candidate_pairs,
        total_pairs=len(source_a.entities()) * len(source_b.entities()),
        covered_matches=len(covered),
        total_matches=len(matches),
    )
