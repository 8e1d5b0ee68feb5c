"""Token-hash-range sharded blocking over the persistent worker pool.

The batch overlap blockers build one inverted index in the parent process
and ship the *whole* index to every worker chunk. That is fine at
case-study scale and fatal at a million rows: the posting dict dominates
RSS, and pickling it per chunk dominates wall clock. This module turns the
layout inside out — **shard the postings, not the records**:

* the token-id space is partitioned into ``shards`` disjoint ranges by a
  64-bit token hash (:func:`token_shard`; splitmix64, from scratch);
* each worker receives only *its* range's slice of the probe positions and
  posting entries — five integer arrays, pre-partitioned in the parent
  with one vectorized pass over the
  :class:`~repro.runtime.columnar.TokenColumn` CSR buffers — so the bytes
  shipped scale with the shard's share of the data (nothing is duplicated
  across shards);
* the worker builds its posting shard locally (the dict never crosses the
  wire), probes its positions, and returns its raw intersection hits as
  flat arrays;
* the parent merges shard hits back into ``block_tables``'s exact
  emission order — claiming each candidate at its globally first hitting
  prefix position, then verifying claims with one batch keep-mask kernel
  call over the parent's zero-copy token columns.

Bit-identity with the unsharded path is a hard contract, asserted
property-style in ``tests/test_sharded_blocking.py``. Three invariants
carry it:

1. **Same candidates.** A token's full posting list lives in exactly one
   shard, so probing every owned position touches the same (token, row)
   pairs the single index would; walking the merged hit groups in global
   ``(record, position)`` order reproduces the first-hit structure of
   the serial ``seen``-set build (later cross-shard re-hits of a claimed
   row are dropped as duplicates), and size caps
   (:class:`~repro.blocking.policy.BlockSizePolicy`) are applied to
   complete posting lists in the parent — before the split — so both
   paths skip identical blocks.
2. **Same order.** The unsharded path emits each left record's pairs in
   the *iteration order of its ``seen`` set*, which is a function of the
   distinct-insertion sequence (rid objects inserted at first hit, probe
   positions in prefix order, posting lists in right-row order) —
   duplicate ``add`` calls are no-ops for a set's internals. The merge
   replays exactly that distinct-insertion sequence into a fresh set per
   record, so the rebuilt set iterates identically.
3. **Same verification.** The keep-mask kernels are per-element, so
   verifying the merged claim list in the parent equals the unsharded
   path's per-chunk batch calls.

The serial fallback is the same worker function run inline by
``session.map_chunks`` — bit-identical by construction, not by test.
"""

from __future__ import annotations

from array import array
from typing import Any

import numpy as np

from ..errors import BlockingError
from ..runtime.columnar import TokenColumn
from ..runtime.context import EngineSession
from ..runtime.instrument import count, stage
from ..similarity import batch
from ..text.intern import ID_TYPECODE, fnv1a_64
from .overlap import OverlapBlocker
from .overlap_coefficient import OverlapCoefficientBlocker
from .policy import resolve_policy

_MASK64 = (1 << 64) - 1

#: Default shard count — sized for the 4-worker pool the benchmarks use
#: (2 shards per worker keeps the pool busy when ranges are skewed).
DEFAULT_SHARDS = 8

MAX_SHARDS = 64


def _splitmix64(x: int) -> int:
    """The splitmix64 finalizer (public-domain constants), pure Python."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _splitmix64_np(x: "np.ndarray") -> "np.ndarray":
    """Vectorized :func:`_splitmix64` over a ``uint64`` array."""
    x = (x + np.uint64(0x9E3779B97F4A7C15))
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def hash64(token: Any) -> int:
    """A stable 64-bit hash for shard assignment.

    Interned token ids go through splitmix64; strings through FNV-1a over
    their UTF-8 bytes (so :meth:`PostingIndex.shard_of` gives the same
    ranges for string-keyed indexes across processes — unlike builtin
    ``hash``, this does not depend on ``PYTHONHASHSEED``). Shard
    assignment only decides *where* a posting list lives, never what is
    emitted, so the two domains hashing differently is harmless.
    """
    if isinstance(token, int) and not isinstance(token, bool):
        return _splitmix64(token & _MASK64)
    return int(fnv1a_64([token if isinstance(token, str) else repr(token)])[0])


def token_shard(token: Any, shards: int) -> int:
    """The shard (hash range) owning *token*, in ``[0, shards)``."""
    if shards <= 1:
        return 0
    return hash64(token) % shards


def _owner_table(max_id: int, shards: int) -> "np.ndarray":
    """``owner[tid] == token_shard(tid, shards)`` for every id ``<= max_id``.

    One vectorized splitmix64 pass over the dense id space; token ids are
    small dense ints so the table is tiny relative to the CSR buffers.
    """
    ids = np.arange(max_id + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        hashed = _splitmix64_np(ids)
    return (hashed % np.uint64(shards)).astype(np.uint8)


def _as_id_array(values: "np.ndarray") -> "array[int]":
    """A numpy int array as the compact ``array('i')`` wire format."""
    out = array(ID_TYPECODE)
    out.frombytes(np.ascontiguousarray(values, dtype=np.int32).tobytes())
    return out


def _np_i32(buf: "array[int]") -> "np.ndarray":
    """Zero-copy ``int32`` view of an ``array('i')`` (empty-safe)."""
    if len(buf) == 0:
        return np.empty(0, dtype=np.int32)
    return np.frombuffer(buf, dtype=np.int32)


def _shard_probe(
    probe_rec: "array[int]",
    probe_pos: "array[int]",
    probe_tid: "array[int]",
    post_row: "array[int]",
    post_tid: "array[int]",
) -> tuple:
    """One shard's worth of probing (module-level: runs in workers).

    Builds this hash range's posting shard from its pre-partitioned
    ``(row, tid)`` slice of the right column's CSR data and probes the
    owned probe positions in ``(record, position)`` order, emitting each
    hit row at its first hitting position *within this shard*
    (``local_seen``). Cross-shard first-hit resolution and candidate
    verification both happen in the parent's merge — the worker needs
    nothing but these five partitioned integer arrays, so the payload
    crossing the wire scales with the shard's share of the data instead
    of duplicating the token columns into every shard.

    Returns flat arrays only: ``(group_rec, group_pos, group_len, hits)``.
    """
    postings: dict[int, list[int]] = {}
    for row, tid in zip(post_row, post_tid):
        lst = postings.get(tid)
        if lst is None:
            lst = postings[tid] = []
        lst.append(row)
    group_rec = array(ID_TYPECODE)
    group_pos = array(ID_TYPECODE)
    group_len = array(ID_TYPECODE)
    hits = array(ID_TYPECODE)
    current_rec = -1
    local_seen: set[int] = set()
    for rec, pos, tid in zip(probe_rec, probe_pos, probe_tid):
        plist = postings.get(tid)
        if not plist:
            continue
        if rec != current_rec:
            current_rec = rec
            local_seen = set()
        emitted = 0
        for row in plist:
            if row in local_seen:
                continue
            local_seen.add(row)
            hits.append(row)
            emitted += 1
        if emitted:
            group_rec.append(rec)
            group_pos.append(pos)
            group_len.append(emitted)
    return group_rec, group_pos, group_len, hits


def _merge_shard_deltas(
    results: list[tuple],
    lids: list[Any],
    rids: tuple[Any, ...],
    l_col: TokenColumn,
    r_col: TokenColumn,
    verify_kind: str,
    verify_param: Any,
) -> list[tuple[Any, Any]]:
    """Merge shard hit-deltas into ``block_tables``'s emission order.

    Groups — one per probed ``(record, position)`` with hits, unique
    across shards because every position has exactly one owner — are
    sorted globally by ``(record, position)``; walking them in that order
    claims each right row at its globally-first hitting position (a row
    hit again at a later position owned by another shard is a duplicate
    and is dropped here). The claimed candidates are verified with one
    batch keep-mask call over the parent's zero-copy token columns, and
    each record's claimed rids are re-inserted into a fresh set in claim
    order. That replays the unsharded ``seen`` set's distinct-insertion
    sequence exactly (duplicate ``add`` calls are no-ops there too), so
    iterating the rebuilt set emits the same pairs in the same order.
    """
    rec_parts = [np.asarray(_np_i32(res[0])) for res in results]
    pos_parts = [np.asarray(_np_i32(res[1])) for res in results]
    if not rec_parts or not any(len(p) for p in rec_parts):
        return []
    src_parts = [
        np.full(len(part), s, dtype=np.int32) for s, part in enumerate(rec_parts)
    ]
    start_parts = []
    for res in results:
        lens = _np_i32(res[2]).astype(np.int64)
        starts = np.zeros(len(lens), dtype=np.int64)
        if len(lens) > 1:
            np.cumsum(lens[:-1], out=starts[1:])
        start_parts.append(starts)
    all_rec = np.concatenate(rec_parts)
    all_pos = np.concatenate(pos_parts)
    all_len = np.concatenate([_np_i32(res[2]) for res in results])
    all_src = np.concatenate(src_parts)
    all_start = np.concatenate(start_parts)
    order = np.lexsort((all_pos, all_rec))

    rec_rows: list[tuple[int, list[int]]] = []
    current = -1
    claimed: set[int] = set()
    rows: list[int] = []
    for g in order:
        rec = int(all_rec[g])
        if rec != current:
            current = rec
            claimed = set()
            rows = []
            rec_rows.append((rec, rows))
        hits_s = results[int(all_src[g])][3]
        start = int(all_start[g])
        for off in range(start, start + int(all_len[g])):
            row = hits_s[off]
            if row in claimed:
                continue
            claimed.add(row)
            rows.append(row)

    l_sets = l_col.sets()
    r_sets = r_col.sets()
    cand_a: list[Any] = []
    cand_b: list[Any] = []
    for rec, rows in rec_rows:
        a = l_sets[rec]
        for row in rows:
            cand_a.append(a)
            cand_b.append(r_sets[row])
    if verify_kind == "overlap":
        keep = batch.overlap_at_least_batch(cand_a, cand_b, verify_param)
    else:
        keep = batch.overlap_coefficient_at_least_batch(cand_a, cand_b, verify_param)

    pairs: list[tuple[Any, Any]] = []
    i = 0
    for rec, rows in rec_rows:
        lid = lids[rec]
        seen: set[Any] = set()
        flags: dict[Any, bool] = {}
        for row in rows:
            rid = rids[row]
            seen.add(rid)
            flags[rid] = bool(keep[i])
            i += 1
        for rid in seen:
            if flags[rid]:
                pairs.append((lid, rid))
    return pairs


class _ShardedTokenBlocker:
    """Mixin carrying the sharded id-path driver (both token blockers)."""

    shards: int

    def _validate_shards(self, shards: int) -> int:
        if not 1 <= shards <= MAX_SHARDS:
            raise BlockingError(
                f"shards must be in [1, {MAX_SHARDS}], got {shards}"
            )
        return shards

    def _sharded_block_ids(
        self,
        session: EngineSession,
        ltable: Any,
        rtable: Any,
        l_key: str,
        r_key: str,
        verify_kind: str,
        verify_param: Any,
    ) -> list[tuple[Any, Any]]:
        instrumentation = session.instrumentation
        cache = session.token_cache
        hits_before = cache.hits
        policy = resolve_policy(getattr(self, "block_size_policy", None))
        with stage(instrumentation, "tokenize"):
            l_entries = cache.token_ids_by_id(
                ltable, self.l_attr, l_key, self.tokenizer, self.normalizer
            )
            r_entries = cache.token_ids_by_id(
                rtable, self.r_attr, r_key, self.tokenizer, self.normalizer
            )
            count(instrumentation, "l_records", len(l_entries))
            count(instrumentation, "r_records", len(r_entries))
            count(instrumentation, "cache_hits", cache.hits - hits_before)
        with stage(instrumentation, "index"):
            rids = tuple(r_entries.keys())
            r_col = TokenColumn.from_entries(r_entries.values())
            r_offsets, r_data, _ = r_col.csr()
            r_flat = _np_i32(r_data)
            max_tid = int(r_flat.max()) if len(r_flat) else -1
            # Exact doc-freq twin of the dict the unsharded path builds:
            # each right record contributes each of its ids once (CSR rows
            # are the records' sorted unique ids).
            lids, prefixes, kept_entries, doc_freq, max_tid = self._cut_prefixes(
                l_entries, r_flat, max_tid, cache
            )
            capped = None
            if policy.capped:
                cap = policy.max_block_size
                oversized = doc_freq > cap
                count(instrumentation, "capped_blocks", int(oversized.sum()))
                count(
                    instrumentation,
                    "capped_postings",
                    int(doc_freq[oversized].sum()),
                )
                capped = oversized
                prefixes = [
                    array(ID_TYPECODE, (t for t in p if not oversized[t]))
                    for p in prefixes
                ]
        if not lids:
            count(instrumentation, "pairs_out", 0)
            return []
        with stage(instrumentation, "shard"):
            shards = self.shards
            l_col = TokenColumn.from_entries(kept_entries)
            prefix_offsets = array(ID_TYPECODE, [0])
            prefix_data = array(ID_TYPECODE)
            for p in prefixes:
                prefix_data.extend(p)
                prefix_offsets.append(len(prefix_data))
            pf = _np_i32(prefix_data)
            if len(pf):
                max_tid = max(max_tid, int(pf.max()))
            owner = _owner_table(max(max_tid, 0), shards)
            off_np = _np_i32(prefix_offsets).astype(np.int64)
            seg_lens = np.diff(off_np)
            probe_rec = np.repeat(
                np.arange(len(lids), dtype=np.int32), seg_lens
            )
            probe_pos = (
                np.arange(len(pf), dtype=np.int32)
                - np.repeat(off_np[:-1], seg_lens).astype(np.int32)
            )
            probe_owner = owner[pf] if len(pf) else np.empty(0, dtype=np.uint8)
            # Right postings, pre-partitioned: CSR order is (right-row,
            # sorted id) — exactly the insertion order of the single
            # index — and boolean masks preserve it per shard.
            r_off_np = _np_i32(r_offsets).astype(np.int64)
            r_rows = np.repeat(
                np.arange(len(rids), dtype=np.int32), np.diff(r_off_np)
            )
            post_keep = np.ones(len(r_flat), dtype=bool)
            if capped is not None and len(r_flat):
                post_keep = ~capped[r_flat]
            r_owner = owner[r_flat] if len(r_flat) else np.empty(0, dtype=np.uint8)
            payloads = []
            sizes = []
            for s in range(shards):
                pmask = probe_owner == s
                rmask = (r_owner == s) & post_keep
                payloads.append(
                    (
                        _as_id_array(probe_rec[pmask]),
                        _as_id_array(probe_pos[pmask]),
                        _as_id_array(pf[pmask]),
                        _as_id_array(r_rows[rmask]),
                        _as_id_array(r_flat[rmask]),
                    )
                )
                sizes.append(int(pmask.sum()))
            count(instrumentation, "shards", shards)
        with stage(instrumentation, "probe"):
            results = session.map_chunks(_shard_probe, payloads, sizes=sizes)
        with stage(instrumentation, "merge"):
            pairs = _merge_shard_deltas(
                results, lids, rids, l_col, r_col, verify_kind, verify_param
            )
            count(instrumentation, "pairs_out", len(pairs))
        return pairs

    def _cut_prefixes(
        self,
        l_entries: dict[Any, Any],
        r_flat: "np.ndarray",
        max_tid: int,
        cache: Any,
    ) -> tuple[list[Any], list[Any], list[Any], "np.ndarray", int]:
        """(lids, per-record probe arrays, kept entries, doc_freq, max id).

        Implemented per subclass: the overlap blocker cuts rank-ordered
        prefixes, the coefficient blocker probes whole ``probe`` arrays.
        ``doc_freq`` is dense over ``[0, max id]`` for cap decisions.
        """
        raise NotImplementedError


class ShardedOverlapBlocker(_ShardedTokenBlocker, OverlapBlocker):
    """:class:`~repro.blocking.overlap.OverlapBlocker`, sharded.

    Emits bit-identical pairs (values and order); only the execution
    layout differs. Extra parameters:

    shards:
        Number of token-hash ranges (and worker payloads). More shards
        than workers keeps the pool busy under range skew.
    block_size_policy:
        Optional :class:`~repro.blocking.policy.BlockSizePolicy` (or bare
        int cap) — posting lists over the cap are skipped at probe time.
    """

    short_name = "sharded_overlap"

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        threshold: int = 1,
        tokenizer: Any = None,
        normalizer: Any = None,
        *,
        shards: int = DEFAULT_SHARDS,
        block_size_policy: Any = None,
    ) -> None:
        kwargs = {} if tokenizer is None else {"tokenizer": tokenizer}
        super().__init__(
            l_attr,
            r_attr,
            threshold,
            normalizer=normalizer,
            block_size_policy=block_size_policy,
            **kwargs,
        )
        self.shards = self._validate_shards(shards)

    def _block_ids(self, session, ltable, rtable, l_key, r_key):
        return self._sharded_block_ids(
            session, ltable, rtable, l_key, r_key, "overlap", self.threshold
        )

    def _cut_prefixes(self, l_entries, r_flat, max_tid, cache):
        k = self.threshold
        minlength = max_tid + 1
        l_max = 0
        for entry in l_entries.values():
            if len(entry.sorted):
                tail = entry.sorted[-1]  # sorted unique: last is the max
                if tail >= l_max:
                    l_max = tail + 1
        minlength = max(minlength, l_max)
        doc_freq = (
            np.bincount(r_flat, minlength=minlength)
            if len(r_flat)
            else np.zeros(max(minlength, 1), dtype=np.int64)
        )
        # Global (doc_freq, token) rank via one lexsort. Ranking over the
        # whole left vocabulary is order-isomorphic to the unsharded
        # path's rank (the key is a total order independent of which
        # tokens participate), so every per-record sort comes out equal.
        lf_parts = [
            np.frombuffer(e.sorted, dtype=np.int32)
            for e in l_entries.values()
            if len(e.sorted)
        ]
        if lf_parts:
            vocab = np.unique(np.concatenate(lf_parts))
        else:
            vocab = np.empty(0, dtype=np.int32)
        token_of = cache.vocabulary.token_of
        tokens = np.array([token_of(int(t)) for t in vocab], dtype=object)
        freqs = doc_freq[vocab] if len(vocab) else np.empty(0, dtype=np.int64)
        order = np.lexsort((tokens, freqs)) if len(vocab) else np.empty(0, dtype=np.int64)
        rank = {int(t): i for i, t in enumerate(vocab[order])}
        by_rank = rank.__getitem__
        lids: list[Any] = []
        prefixes: list[Any] = []
        kept_entries: list[Any] = []
        for lid, entry in l_entries.items():
            ids = entry.sorted
            if len(ids) < k:
                continue
            ordered = sorted(ids, key=by_rank)
            lids.append(lid)
            prefixes.append(array(ID_TYPECODE, ordered[: len(ordered) - k + 1]))
            kept_entries.append(entry)
        return lids, prefixes, kept_entries, doc_freq, minlength - 1


class ShardedOverlapCoefficientBlocker(_ShardedTokenBlocker, OverlapCoefficientBlocker):
    """:class:`~repro.blocking.overlap_coefficient.OverlapCoefficientBlocker`,
    sharded. Same parameters and bit-identity contract as
    :class:`ShardedOverlapBlocker`; the probe side is each record's whole
    ``probe`` array (parent-frozenset iteration order), like the base
    blocker.
    """

    short_name = "sharded_overlap_coeff"

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        threshold: float = 0.7,
        tokenizer: Any = None,
        normalizer: Any = None,
        *,
        shards: int = DEFAULT_SHARDS,
        block_size_policy: Any = None,
    ) -> None:
        kwargs = {} if tokenizer is None else {"tokenizer": tokenizer}
        super().__init__(
            l_attr,
            r_attr,
            threshold,
            normalizer=normalizer,
            block_size_policy=block_size_policy,
            **kwargs,
        )
        self.shards = self._validate_shards(shards)

    def _block_ids(self, session, ltable, rtable, l_key, r_key):
        return self._sharded_block_ids(
            session, ltable, rtable, l_key, r_key, "coefficient", self.threshold
        )

    def _cut_prefixes(self, l_entries, r_flat, max_tid, cache):
        minlength = max_tid + 1
        for entry in l_entries.values():
            if len(entry.sorted):
                tail = entry.sorted[-1]
                if tail >= minlength:
                    minlength = tail + 1
        doc_freq = (
            np.bincount(r_flat, minlength=minlength)
            if len(r_flat)
            else np.zeros(max(minlength, 1), dtype=np.int64)
        )
        lids = list(l_entries.keys())
        prefixes = [entry.probe for entry in l_entries.values()]
        kept_entries = list(l_entries.values())
        return lids, prefixes, kept_entries, doc_freq, minlength - 1
