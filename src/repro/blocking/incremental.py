"""Incremental (delta) blocking: posting indexes maintained by upserts.

The batch blockers answer "which pairs survive?" by re-reading both whole
tables. This module answers the serving-loop question instead: *given the
pairs we already emitted, what changes when a handful of left records
arrive, change or disappear?* — the paper's Section 10 patch (496
late-arriving records) executed as an index update rather than a rerun.

A :class:`Blocker` that sets ``supports_incremental`` vends a
:class:`IncrementalBlocking` handle via ``blocker.incremental(rtable,
l_key, r_key)``. The handle freezes the *right* table into a
:class:`PostingIndex` (token -> record-id postings over the interned
vocabulary, rid lists in right-row order exactly like the batch path's
inverted index) plus the right side's document frequencies, and then
maintains, under ``upsert(records)`` / ``delete(ids)``:

- a left :class:`PostingIndex` over the live left records' tokens (the
  persistent structure that bounds the work of a future right-side update
  and powers introspection/convergence checks),
- per-record token entries, and
- the kept pairs each live left record currently emits.

``upsert`` is **replace** semantics per record id and emits only the
*delta* pairs for the batch. Its probe replays the batch algorithm
record-by-record — same tokenization recipe through the shared
:class:`~repro.runtime.cache.TokenCache`, same global ``(doc_freq,
token)`` prefix order, same ``seen``-set insertion sequence, and the same
:mod:`repro.similarity.batch` keep-mask kernels — so the pairs an upsert
emits for a batch are **bit-identical** (values and order) to
``blocker.block_tables(batch_table, rtable)``; the keep-mask kernels are
per-element independent, so verifying one record's candidates at a time
equals the batch path's whole-chunk call. ``tests/test_incremental.py``
asserts this differentially, property-style.

Fault tolerance splits mutation out of computation: ``preview(records)``
computes a :class:`PendingUpsert` (new entries + delta pairs) without
touching the handle, and ``commit(pending)`` applies it; ``upsert`` is
``commit(preview(...))``. :class:`~repro.serving.service.MatchService`
runs the raising-prone downstream stages (extraction, prediction) off
previews and commits only afterwards, so a mid-patch exception leaves
every index uncorrupted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..errors import IncrementalBlockingError
from ..runtime.context import EngineSession, resolve_session
from ..similarity import batch
from ..table import Table

Pair = tuple[Any, Any]

#: Shared empty posting — never mutated, so it is safe as a probe default.
_EMPTY: dict[Any, None] = {}

#: Sentinel distinguishing "no state for this lid" from a ``None`` payload.
_ABSENT = object()


class PostingIndex:
    """token -> ordered record-id postings.

    Postings are insertion-ordered sets (``dict[rid, None]``): iteration
    replays insertion order — for a right index built in right-row order
    this matches the batch blockers' inverted-index lists exactly — while
    ``remove`` stays O(tokens) per record instead of O(posting length).
    """

    __slots__ = ("_postings",)

    def __init__(self) -> None:
        self._postings: dict[Any, dict[Any, None]] = {}

    def __len__(self) -> int:
        return len(self._postings)

    def __contains__(self, token: Any) -> bool:
        return token in self._postings

    def add(self, rid: Any, tokens: Iterable[Any]) -> None:
        """Add *rid* to every token's posting (idempotent per token)."""
        postings = self._postings
        for token in tokens:
            posting = postings.get(token)
            if posting is None:
                posting = postings[token] = {}
            posting[rid] = None

    def remove(self, rid: Any, tokens: Iterable[Any]) -> None:
        """Drop *rid* from every token's posting; absent entries are no-ops."""
        postings = self._postings
        for token in tokens:
            posting = postings.get(token)
            if posting is None:
                continue
            posting.pop(rid, None)
            if not posting:
                del postings[token]

    def postings(self, token: Any) -> Iterable[Any]:
        """Record ids posted under *token*, in insertion order."""
        return self._postings.get(token, _EMPTY)

    def tokens(self) -> Iterable[Any]:
        """All tokens with a non-empty posting."""
        return self._postings.keys()

    @staticmethod
    def shard_of(token: Any, shards: int) -> int:
        """The token-hash range owning *token* under ``shards``-way sharding.

        Delegates to :func:`repro.blocking.sharded.token_shard` — the same
        splitmix64/FNV-1a partitioning the batch sharded blockers use —
        so an incremental index split by ``shard_of`` holds exactly the
        posting shard a batch worker would build for that range.
        """
        from .sharded import token_shard

        return token_shard(token, shards)

    def merge(self, other: "PostingIndex") -> "PostingIndex":
        """Fold *other*'s postings into this index, in place.

        Per token, *other*'s rids append after existing ones (duplicates
        keep their first position, matching :meth:`add`'s idempotence).
        Merging is associative, and for indexes holding **disjoint token
        ranges** — the sharded layout — it is also order-independent up
        to token insertion order, with snapshots exactly equal to the
        single-index build (``tests/test_posting_shards.py``). Returns
        ``self`` so shard folds chain.
        """
        postings = self._postings
        for token, theirs in other._postings.items():
            mine = postings.get(token)
            if mine is None:
                postings[token] = dict(theirs)
            else:
                for rid in theirs:
                    if rid not in mine:
                        mine[rid] = None
        return self

    def snapshot(self, token_of: Callable[[Any], Any] | None = None) -> dict[Any, tuple]:
        """Canonical, history-independent view: ``{token: sorted rids}``.

        *token_of* maps interned token ids back to strings so snapshots
        from handles built against different vocabulary states compare
        equal. Rids are sorted (by ``repr`` to tolerate mixed types), so
        delta-evolved and freshly-built indexes — whose posting insertion
        orders legitimately differ — snapshot identically iff they hold
        the same postings.
        """
        decode = token_of if token_of is not None else lambda t: t
        return {
            decode(token): tuple(sorted(posting, key=repr))
            for token, posting in self._postings.items()
        }


@dataclass(frozen=True)
class PendingUpsert:
    """A computed-but-uncommitted upsert batch.

    ``order`` lists the batch's record ids (table row order); ``entries``
    holds each surviving record's new blocking state (records whose cell
    is missing or tokenizes to nothing are absent — committing them just
    clears any previous state); ``pairs`` maps each surviving record to
    the rids it now pairs with; ``delta`` is the flat pair list in batch
    emission order — bit-identical to what ``block_tables`` would emit
    for the batch table.
    """

    order: tuple[Any, ...]
    entries: dict[Any, Any]
    pairs: dict[Any, tuple[Any, ...]]
    delta: tuple[Pair, ...]


class IncrementalBlocking:
    """Base delta-maintained blocking handle (one blocker, fixed rtable).

    Subclasses implement :meth:`preview` (pure computation) and the
    ``_install``/``_discard`` state hooks; everything else — commit,
    replace-on-upsert, graceful deletes, pair/state accessors — is shared.
    """

    def __init__(
        self,
        blocker: Any,
        rtable: Table,
        l_key: str,
        r_key: str,
        *,
        session: EngineSession | None = None,
    ) -> None:
        self.blocker = blocker
        self.rtable = rtable
        self.l_key = l_key
        self.r_key = r_key
        self._pairs: dict[Any, tuple[Any, ...]] = {}

    # -- computation ---------------------------------------------------

    def preview(self, records: "Table | Sequence[Mapping[str, Any]]") -> PendingUpsert:
        """Compute an upsert's new state + delta pairs without mutating."""
        raise NotImplementedError

    def _as_table(self, records: "Table | Sequence[Mapping[str, Any]]") -> Table | None:
        """Coerce an upsert batch to a Table (``None`` for an empty batch)."""
        if isinstance(records, Table):
            return records if len(records) else None
        rows = list(records)
        if not rows:
            return None
        return Table.from_rows(rows, name="upsert")

    def _validate_batch(self, table: Table) -> None:
        blocker = self.blocker
        blocker._validate_inputs(
            table,
            self.rtable,
            self.l_key,
            self.r_key,
            [(table, blocker.l_attr), (self.rtable, blocker.r_attr)],
        )

    # -- mutation ------------------------------------------------------

    def commit(self, pending: PendingUpsert) -> list[Pair]:
        """Apply a previewed upsert; returns its delta pairs."""
        for lid in pending.order:
            self._discard(lid)
            state = pending.entries.get(lid, _ABSENT)
            if state is not _ABSENT:
                self._install(lid, state, pending.pairs.get(lid, ()))
        return list(pending.delta)

    def upsert(self, records: "Table | Sequence[Mapping[str, Any]]") -> list[Pair]:
        """Insert-or-replace a batch of left records; returns delta pairs."""
        return self.commit(self.preview(records))

    def delete(self, ids: Iterable[Any]) -> list[Pair]:
        """Drop left records by id; absent ids are graceful no-ops.

        Returns the retired pairs (the deleted records' former emissions).
        """
        retired: list[Pair] = []
        for lid in ids:
            retired.extend((lid, rid) for rid in self._discard(lid))
        return retired

    def _install(self, lid: Any, state: Any, kept: tuple[Any, ...]) -> None:
        raise NotImplementedError

    def _discard(self, lid: Any) -> tuple[Any, ...]:
        """Remove *lid*'s state; returns the rids it used to pair with."""
        raise NotImplementedError

    # -- accessors -----------------------------------------------------

    def pairs_for(self, lid: Any) -> tuple[Any, ...]:
        """Rids the live record *lid* currently pairs with (may be empty)."""
        return self._pairs.get(lid, ())

    def pairs(self) -> list[Pair]:
        """All live pairs, grouped by left record in insertion order."""
        return [(lid, rid) for lid, rids in self._pairs.items() for rid in rids]

    def pair_state(self) -> dict[Any, tuple[Any, ...]]:
        """``{lid: kept rids}`` — per-record, so it compares equal between
        a delta-evolved handle and a freshly-built one regardless of the
        upsert history's insertion order."""
        return dict(self._pairs)

    def state_snapshot(self) -> dict[str, Any]:
        """Canonical full-state view for differential/convergence tests."""
        raise NotImplementedError


class _TokenIncrementalBlocking(IncrementalBlocking):
    """Shared machinery for the token-overlap family.

    Freezes the right table's interned entries, posting index and document
    frequencies at construction; tokenizes upsert batches through the same
    :meth:`~repro.runtime.cache.TokenCache.token_ids_by_id` recipe the
    batch path uses (rows whose cell is missing or tokenizes to nothing
    are dropped, i.e. committing them clears previous state).
    """

    def __init__(
        self,
        blocker: Any,
        rtable: Table,
        l_key: str,
        r_key: str,
        *,
        session: EngineSession | None = None,
    ) -> None:
        super().__init__(blocker, rtable, l_key, r_key, session=session)
        resolved = resolve_session(session)
        self._cache = resolved.token_cache
        blocker._validate_inputs(
            rtable, rtable, r_key, r_key, [(rtable, blocker.r_attr)]
        )
        r_entries = self._cache.token_ids_by_id(
            rtable, blocker.r_attr, r_key, blocker.tokenizer, blocker.normalizer
        )
        self._r_entries = r_entries
        # Right postings in right-row order — iteration over each posting
        # replays the batch path's inverted-index rid lists exactly.
        self.right_index = PostingIndex()
        for rid, entry in r_entries.items():
            self.right_index.add(rid, entry.sorted)
        self._doc_freq: dict[int, int] = {}
        for entry in r_entries.values():
            for tid in entry.sorted:
                self._doc_freq[tid] = self._doc_freq.get(tid, 0) + 1
        #: The maintained left posting index (token id -> live lids).
        self.left_index = PostingIndex()
        self._entries: dict[Any, Any] = {}

    def _tokenize_batch(self, table: Table) -> dict[Any, Any]:
        blocker = self.blocker
        return self._cache.token_ids_by_id(
            table, blocker.l_attr, self.l_key, blocker.tokenizer, blocker.normalizer
        )

    def _kept_rids(self, entry: Any) -> tuple[Any, ...]:
        """One record's surviving rids, in batch-path emission order."""
        raise NotImplementedError

    def preview(self, records: "Table | Sequence[Mapping[str, Any]]") -> PendingUpsert:
        table = self._as_table(records)
        if table is None:
            return PendingUpsert((), {}, {}, ())
        self._validate_batch(table)
        l_entries = self._tokenize_batch(table)
        pairs: dict[Any, tuple[Any, ...]] = {}
        delta: list[Pair] = []
        for lid, entry in l_entries.items():
            kept = self._kept_rids(entry)
            pairs[lid] = kept
            delta.extend((lid, rid) for rid in kept)
        return PendingUpsert(tuple(table[self.l_key]), dict(l_entries), pairs, tuple(delta))

    def _install(self, lid: Any, state: Any, kept: tuple[Any, ...]) -> None:
        self._entries[lid] = state
        self.left_index.add(lid, state.sorted)
        self._pairs[lid] = tuple(kept)

    def _discard(self, lid: Any) -> tuple[Any, ...]:
        entry = self._entries.pop(lid, None)
        if entry is not None:
            self.left_index.remove(lid, entry.sorted)
        return self._pairs.pop(lid, ())

    def state_snapshot(self) -> dict[str, Any]:
        token_of = self._cache.vocabulary.token_of
        return {
            "index": self.left_index.snapshot(token_of),
            "pairs": self.pair_state(),
        }


class OverlapIncremental(_TokenIncrementalBlocking):
    """Delta handle for :class:`~repro.blocking.overlap.OverlapBlocker`.

    Per record: sort tokens by the global ``(doc_freq, token)`` key — the
    batch path sorts by a rank built over the *batch's* vocabulary, but
    rank order is exactly this key's order restricted to those tokens, so
    sorting by the key directly yields the same sequence — cut the
    ``len - k + 1`` prefix, probe the right postings, verify candidates
    with one :func:`~repro.similarity.batch.overlap_at_least_batch` call.
    """

    def _kept_rids(self, entry: Any) -> tuple[Any, ...]:
        k = self.blocker.threshold
        ids = entry.sorted
        if len(ids) < k:
            return ()
        doc_freq = self._doc_freq
        token_of = self._cache.vocabulary.token_of
        ordered = sorted(ids, key=lambda tid: (doc_freq.get(tid, 0), token_of(tid)))
        seen: set[Any] = set()
        for tid in ordered[: len(ordered) - k + 1]:
            for rid in self.right_index.postings(tid):
                seen.add(rid)
        if not seen:
            return ()
        cand = list(seen)
        r_entries = self._r_entries
        keep = batch.overlap_at_least_batch(
            [entry.ids] * len(cand), [r_entries[rid].ids for rid in cand], k
        )
        return tuple(rid for rid, kept in zip(cand, keep) if kept)


class OverlapCoefficientIncremental(_TokenIncrementalBlocking):
    """Delta handle for
    :class:`~repro.blocking.overlap_coefficient.OverlapCoefficientBlocker`.

    Probes every token in the entry's cached ``probe`` order (the parent
    frozenset's iteration order — the same sequence the batch path ships
    to workers), then verifies with one
    :func:`~repro.similarity.batch.overlap_coefficient_at_least_batch` call.
    """

    def _kept_rids(self, entry: Any) -> tuple[Any, ...]:
        seen: set[Any] = set()
        for tid in entry.probe:
            for rid in self.right_index.postings(tid):
                seen.add(rid)
        if not seen:
            return ()
        cand = list(seen)
        r_entries = self._r_entries
        keep = batch.overlap_coefficient_at_least_batch(
            [entry.ids] * len(cand),
            [r_entries[rid].ids for rid in cand],
            self.blocker.threshold,
        )
        return tuple(rid for rid, kept in zip(cand, keep) if kept)


class AttrEquivalenceIncremental(IncrementalBlocking):
    """Delta handle for
    :class:`~repro.blocking.attr_equivalence.AttrEquivalenceBlocker`.

    The "posting index" degenerates to the equi-join hash index
    (preprocessed value -> rids in right-row order); a record's state is
    its preprocessed value. Missing values (including preprocessors
    returning ``None``) never join — upserting such a record clears any
    previous state, exactly like the batch path dropping the row.
    """

    def __init__(
        self,
        blocker: Any,
        rtable: Table,
        l_key: str,
        r_key: str,
        *,
        session: EngineSession | None = None,
    ) -> None:
        super().__init__(blocker, rtable, l_key, r_key, session=session)
        from ..table.column import is_missing

        blocker._validate_inputs(
            rtable, rtable, r_key, r_key, [(rtable, blocker.r_attr)]
        )
        r_values = blocker._values(rtable, blocker.r_attr, blocker.r_preprocess)
        self._r_index: dict[Any, list[Any]] = {}
        for rid, value in zip(rtable[r_key], r_values):
            if not is_missing(value):
                self._r_index.setdefault(value, []).append(rid)
        self._values: dict[Any, Any] = {}

    def preview(self, records: "Table | Sequence[Mapping[str, Any]]") -> PendingUpsert:
        from ..table.column import is_missing

        table = self._as_table(records)
        if table is None:
            return PendingUpsert((), {}, {}, ())
        self._validate_batch(table)
        blocker = self.blocker
        l_values = blocker._values(table, blocker.l_attr, blocker.l_preprocess)
        entries: dict[Any, Any] = {}
        pairs: dict[Any, tuple[Any, ...]] = {}
        delta: list[Pair] = []
        for lid, value in zip(table[self.l_key], l_values):
            if is_missing(value):
                continue
            kept = tuple(self._r_index.get(value, ()))
            entries[lid] = value
            pairs[lid] = kept
            delta.extend((lid, rid) for rid in kept)
        return PendingUpsert(tuple(table[self.l_key]), entries, pairs, tuple(delta))

    def _install(self, lid: Any, state: Any, kept: tuple[Any, ...]) -> None:
        self._values[lid] = state
        self._pairs[lid] = tuple(kept)

    def _discard(self, lid: Any) -> tuple[Any, ...]:
        self._values.pop(lid, None)
        return self._pairs.pop(lid, ())

    def state_snapshot(self) -> dict[str, Any]:
        values = PostingIndex()
        for lid, value in self._values.items():
            values.add(lid, (value,))
        return {"index": values.snapshot(), "pairs": self.pair_state()}
