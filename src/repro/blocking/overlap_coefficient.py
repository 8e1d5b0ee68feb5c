"""Overlap-coefficient blocker: keep pairs with |X∩Y|/min(|X|,|Y|) >= t.

Section 7 step 3 adds this blocker (word tokens, threshold 0.7) because the
raw overlap blocker's K=3 floor silently drops similar titles shorter than
three tokens. Candidates are generated from an inverted index (any
surviving pair must share at least one token when t > 0); shared-token
counts are verified exactly against the size-aware bound
``ceil(t * min(|X|,|Y|))`` before the coefficient itself is checked.

Like :class:`~repro.blocking.overlap.OverlapBlocker`, tokenization is
memoized through the shared runtime cache, the probe runs over interned
ids shipped as columnar :class:`~repro.runtime.columnar.TokenColumn`
chunks, and one batch keep-mask call
(:func:`~repro.similarity.batch.overlap_coefficient_at_least_batch`)
verifies each chunk's ordered candidate list; the probe loop chunks over
left records when ``workers >= 2``, with results identical to the serial
loop. Each left record probes its tokens in the *iteration order of its
cell's frozenset* (equal cells share one), materialized in the parent
before chunks ship (see :attr:`~repro.runtime.cache.InternedTokens.probe`):
an unpickled frozenset may iterate in a different order than the
original, and the per-record ``seen`` insertion sequence — and therefore
pair emission order — must stay bit-identical to the serial loop. The
``frozenset[str]`` reference lives in ``tests/oracles/string_paths.py``;
the parity tests pin the two to the same pairs in the same order.
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


def _probe_coefficient_ids_chunk(
    lids: list[Any],
    probes: list[Any],
    l_col: TokenColumn,
    rids: tuple[Any, ...],
    r_col: TokenColumn,
    index: dict[int, list[Any]],
    threshold: float,
) -> list[tuple[Any, Any]]:
    """Candidate generation + exact verification for a chunk of left
    records (module-level so worker processes can run it; serial uses it
    too).

    Workers receive whole columns — the chunk's left ids, per-record
    ``probe`` arrays replaying each cached frozenset's iteration order
    (materialized in the parent; see the module docstring), and both
    sides' token sets as :class:`~repro.runtime.columnar.TokenColumn`
    CSR buffers. Any pair reaching the threshold shares >= 1 token, so
    probing every left token is a safe candidate generator. Verification
    is one :func:`~repro.similarity.batch.overlap_coefficient_at_least_batch`
    call over the chunk's whole candidate list — the size-aware count
    bound, then the coefficient — with the keep-mask filtering the
    ordered candidate list in place.
    """
    l_sets = l_col.sets()
    r_map = dict(zip(rids, r_col.sets()))
    cand_pairs: list[tuple[Any, Any]] = []
    cand_a: list[Any] = []
    cand_b: list[Any] = []
    for i, lid in enumerate(lids):
        a = l_sets[i]
        seen: set[Any] = set()
        for tid in probes[i]:
            for rid in index.get(tid, ()):
                seen.add(rid)
        for rid in seen:
            cand_pairs.append((lid, rid))
            cand_a.append(a)
            cand_b.append(r_map[rid])
    keep = batch.overlap_coefficient_at_least_batch(cand_a, cand_b, threshold)
    return [pair for pair, kept in zip(cand_pairs, keep) if kept]


class OverlapCoefficientBlocker(Blocker):
    """Overlap-coefficient blocker.

    Parameters mirror :class:`~repro.blocking.overlap.OverlapBlocker`,
    except *threshold* is a fraction in (0, 1].
    """

    short_name = "overlap_coeff"
    supports_incremental = True

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        threshold: float = 0.7,
        tokenizer: Tokenizer = whitespace,
        normalizer: Normalizer | None = None,
        *,
        block_size_policy: "BlockSizePolicy | int | None" = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise BlockingError(
                f"overlap-coefficient threshold must be in (0,1], got {threshold}"
            )
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
        from .incremental import OverlapCoefficientIncremental

        return OverlapCoefficientIncremental(self, rtable, l_key, r_key, session=session)

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
            index: dict[int, list[Any]] = {}
            for rid, entry in r_entries.items():
                for tid in entry.sorted:
                    index.setdefault(tid, []).append(rid)
            capped = capped_keys(
                {tid: len(rids_) for tid, rids_ in index.items()},
                self.block_size_policy,
                instrumentation,
            )
        with stage(instrumentation, "probe"):
            lids = list(l_entries.keys())
            if capped:
                probes = [
                    id_array(t for t in entry.probe if t not in capped)
                    for entry in l_entries.values()
                ]
            else:
                probes = [entry.probe for entry in l_entries.values()]
            l_col = TokenColumn.from_entries(l_entries.values())
            rids = tuple(r_entries.keys())
            r_col = TokenColumn.from_entries(r_entries.values())
            ranges = chunk_ranges(len(lids), session.pool_width)
            chunks = session.map_chunks(
                _probe_coefficient_ids_chunk,
                [
                    (
                        lids[start:stop],
                        probes[start:stop],
                        l_col.slice(start, stop),
                        rids,
                        r_col,
                        index,
                        self.threshold,
                    )
                    for start, stop in ranges
                ],
                sizes=[stop - start for start, stop in ranges],
            )
            pairs = [pair for chunk in chunks for pair in chunk]
            count(instrumentation, "pairs_out", len(pairs))
        return pairs
