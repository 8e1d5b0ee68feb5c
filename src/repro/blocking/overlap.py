"""Overlap blocker: keep pairs sharing at least K tokens.

Section 7 step 2 applies this to normalized award titles with a word
tokenizer and K=3. The implementation uses an inverted index over the
right table's tokens plus a *prefix filter*: a record pair can share K
tokens only if they agree on at least one of any (|tokens| - K + 1)-subset,
so each left record only probes the index with its first
``len(tokens) - k + 1`` tokens under a global token ordering. Shared-token
counts are then verified exactly.

Tokenization goes through the shared :mod:`~repro.runtime.cache` (one pass
per ``(attr, tokenizer, normalizer)`` recipe per table). The probe runs
over interned token ids shipped as columnar
:class:`~repro.runtime.columnar.TokenColumn` chunks, and candidate
verification is one batch keep-mask call
(:func:`~repro.similarity.batch.overlap_at_least_batch`) per chunk. Pair
emission order is fixed by the data alone: the global token ordering
``(doc_freq, token)`` is a total order computed once per run (not per
record), the inverted-index rid lists are built in right-row order, and
the keep-mask filters each chunk's ordered candidate list in place. The
``frozenset[str]`` reference lives in ``tests/oracles/string_paths.py``;
the parity tests pin the two to the same pairs in the same order.

The probe loop is chunk-parallel over left records when the resolved
:class:`~repro.runtime.context.EngineSession` has ``workers >= 2`` (or a
shared :class:`~repro.runtime.executor.WorkerPool`) — with results
identical to the serial loop, which remains the default.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import BlockingError, IncrementalBlockingError
from ..runtime.columnar import TokenColumn
from ..runtime.context import EngineSession
from ..runtime.executor import chunk_ranges
from ..runtime.instrument import count, stage
from ..similarity import batch
from ..table import Table
from ..text.intern import id_array
from ..text.tokenizers import Tokenizer, whitespace
from .base import Blocker
from .candidate_set import CandidateSet
from .policy import BlockSizePolicy, capped_keys, resolve_policy

Normalizer = Callable[[Any], Any]


def _probe_overlap_ids_chunk(
    lids: list[Any],
    prefixes: list[Any],
    l_col: TokenColumn,
    rids: tuple[Any, ...],
    r_col: TokenColumn,
    index: dict[int, list[Any]],
    k: int,
) -> list[tuple[Any, Any]]:
    """Probe the inverted index for a chunk of left records.

    Module-level (and closure-free) so the chunked executor can ship it to
    worker processes; the serial path runs the very same function.
    Workers receive whole columns — the chunk's left ids, per-record
    ``array('i')`` prefixes cut under the global order (computed once in
    the parent), and both sides' token sets as
    :class:`~repro.runtime.columnar.TokenColumn` CSR buffers — instead of
    per-record tuples of frozensets. Verification is one
    :func:`~repro.similarity.batch.overlap_at_least_batch` call over the
    chunk's whole candidate list, whose keep-mask filters the ordered
    candidate list in place.
    """
    l_sets = l_col.sets()
    r_map = dict(zip(rids, r_col.sets()))
    cand_pairs: list[tuple[Any, Any]] = []
    cand_a: list[Any] = []
    cand_b: list[Any] = []
    for i, lid in enumerate(lids):
        a = l_sets[i]
        seen: set[Any] = set()
        for tid in prefixes[i]:
            for rid in index.get(tid, ()):
                seen.add(rid)
        for rid in seen:
            cand_pairs.append((lid, rid))
            cand_a.append(a)
            cand_b.append(r_map[rid])
    keep = batch.overlap_at_least_batch(cand_a, cand_b, k)
    return [pair for pair, kept in zip(cand_pairs, keep) if kept]


class OverlapBlocker(Blocker):
    """Token-overlap blocker.

    Parameters
    ----------
    l_attr, r_attr:
        Blocking attributes.
    threshold:
        Minimum number of shared tokens (K >= 1).
    tokenizer:
        Token producer (set semantics applied internally).
    normalizer:
        Optional cell transform applied before tokenizing (the case study
        lower-cases and strips special characters here).
    block_size_policy:
        Optional :class:`~repro.blocking.policy.BlockSizePolicy` (or bare
        int cap): posting lists longer than the cap are skipped at probe
        time. ``None`` (default) probes everything.
    """

    short_name = "overlap"
    supports_incremental = True

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        threshold: int = 1,
        tokenizer: Tokenizer = whitespace,
        normalizer: Normalizer | None = None,
        *,
        block_size_policy: "BlockSizePolicy | int | None" = None,
    ) -> None:
        if threshold < 1:
            raise BlockingError(f"overlap threshold must be >= 1, got {threshold}")
        self.l_attr = l_attr
        self.r_attr = r_attr
        self.threshold = threshold
        self.tokenizer = tokenizer
        self.normalizer = normalizer
        self.block_size_policy = resolve_policy(block_size_policy)

    def incremental(
        self,
        rtable: Table,
        l_key: str,
        r_key: str,
        *,
        session: EngineSession | None = None,
    ) -> "Any":
        """Delta-maintained handle; see :mod:`repro.blocking.incremental`."""
        if self.block_size_policy.capped:
            raise IncrementalBlockingError(
                "incremental blocking does not support block-size caps; "
                "use an uncapped blocker for delta handles"
            )
        from .incremental import OverlapIncremental

        return OverlapIncremental(self, rtable, l_key, r_key, session=session)

    def _compute_blocking(
        self,
        session: EngineSession,
        ltable: Table,
        rtable: Table,
        l_key: str,
        r_key: str,
        name: str,
    ) -> CandidateSet:
        self._validate_inputs(
            ltable, rtable, l_key, r_key, [(ltable, self.l_attr), (rtable, self.r_attr)]
        )
        pairs = self._block_ids(session, ltable, rtable, l_key, r_key)
        return CandidateSet(ltable, rtable, l_key, r_key, pairs, name=name or self.short_name)

    def _block_ids(
        self,
        session: EngineSession,
        ltable: Table,
        rtable: Table,
        l_key: str,
        r_key: str,
    ) -> list[tuple[Any, Any]]:
        instrumentation = session.instrumentation
        cache = session.token_cache
        hits_before = cache.hits
        k = self.threshold
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
            doc_freq: dict[int, int] = {}
            for entry in r_entries.values():
                for tid in entry.sorted:
                    doc_freq[tid] = doc_freq.get(tid, 0) + 1
            index: dict[int, list[Any]] = {}
            # Outer loop in right-row order fixes every per-token rid list.
            for rid, entry in r_entries.items():
                for tid in entry.sorted:
                    index.setdefault(tid, []).append(rid)
            # Global token order by document frequency (rarest first) makes
            # the prefix filter probe the most selective tokens; ties break
            # on the token string, so (doc_freq, token) is a total order
            # independent of id assignment, ranked once per run.
            token_of = cache.vocabulary.token_of
            left_vocab = {tid for entry in l_entries.values() for tid in entry.sorted}
            rank = {
                tid: i
                for i, tid in enumerate(
                    sorted(
                        left_vocab,
                        key=lambda tid: (doc_freq.get(tid, 0), token_of(tid)),
                    )
                )
            }
            capped = capped_keys(doc_freq, self.block_size_policy, instrumentation)
        with stage(instrumentation, "probe"):
            by_rank = rank.__getitem__
            lids: list[Any] = []
            prefixes: list[Any] = []
            kept_entries: list[Any] = []
            for lid, entry in l_entries.items():
                ids = entry.sorted
                if len(ids) < k:
                    continue
                ordered = sorted(ids, key=by_rank)
                prefix = ordered[: len(ordered) - k + 1]
                if capped:
                    # capped tokens leave the probe after the cut (so the
                    # cut is policy-independent), never the verification
                    prefix = [t for t in prefix if t not in capped]
                lids.append(lid)
                prefixes.append(id_array(prefix))
                kept_entries.append(entry)
            l_col = TokenColumn.from_entries(kept_entries)
            rids = tuple(r_entries.keys())
            r_col = TokenColumn.from_entries(r_entries.values())
            ranges = chunk_ranges(len(lids), session.pool_width)
            chunks = session.map_chunks(
                _probe_overlap_ids_chunk,
                [
                    (
                        lids[start:stop],
                        prefixes[start:stop],
                        l_col.slice(start, stop),
                        rids,
                        r_col,
                        index,
                        k,
                    )
                    for start, stop in ranges
                ],
                sizes=[stop - start for start, stop in ranges],
            )
            pairs = [pair for chunk in chunks for pair in chunk]
            count(instrumentation, "pairs_out", len(pairs))
        return pairs
