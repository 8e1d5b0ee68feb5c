"""String-set references for the four deployed interned-id hot paths.

The overlap blocker, the overlap-coefficient blocker, the blocking
debugger and feature extraction run over interned token ids, columnar
chunks, the shared token cache and the session pool. These are the plain
``frozenset[str]`` algorithms those paths replaced: serial, pool-free and
cache-free. The deployed paths must equal them exactly — the same pairs
in the same order, the same debugger ranking, the same matrix cell for
cell.

Every oracle tokenizes a cell with the blocker's own recipe,
``frozenset(tokenizer(str(normalizer(cell))))``, and drops missing cells
and cells that tokenize to nothing.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Sequence

import numpy as np

from repro.blocking import MissedPairReport
from repro.similarity.set_based import jaccard, overlap_coefficient
from repro.table.column import is_missing
from repro.text.normalize import normalize_title
from repro.text.tokenizers import whitespace


def record_tokens(table, key: str, attr: str, tokenizer, normalizer=None) -> dict:
    """``{record id: token set}`` for the rows with at least one token.

    Equal cells share the first such cell's frozenset, as they share one
    entry in the interned column: two equal frozensets built in different
    insertion orders can iterate in different orders, and the deployed
    coefficient probe replays one order per distinct cell.
    """
    out: dict[Any, frozenset[str]] = {}
    first: dict[frozenset[str], frozenset[str]] = {}
    for rid, value in zip(table[key], table[attr]):
        if is_missing(value):
            continue
        if normalizer is not None:
            value = normalizer(value)
            if is_missing(value):
                continue
        tokens = frozenset(tokenizer(str(value)))
        if tokens:
            out[rid] = first.setdefault(tokens, tokens)
    return out


def _right_side(blocker, rtable, r_key: str) -> tuple[dict, dict, frozenset]:
    """Right token sets, the inverted index (rid lists in right-row order)
    and the tokens whose posting lists exceed the blocker's size cap."""
    r_tokens = record_tokens(
        rtable, r_key, blocker.r_attr, blocker.tokenizer, blocker.normalizer
    )
    index: dict[str, list[Any]] = {}
    for rid, tokens in r_tokens.items():
        for t in tokens:
            index.setdefault(t, []).append(rid)
    cap = blocker.block_size_policy.max_block_size
    capped = frozenset(
        t for t, rids in index.items() if cap is not None and len(rids) > cap
    )
    return r_tokens, index, capped


def overlap_pairs(blocker, ltable, rtable, l_key: str, r_key: str) -> list:
    """:class:`~repro.blocking.OverlapBlocker` pairs, in emission order.

    Each left record probes the index with the first
    ``len(tokens) - k + 1`` tokens under the global ``(doc_freq, token)``
    order; capped tokens leave the prefix after the cut. Candidates are
    verified by exact shared-token counts.
    """
    k = blocker.threshold
    l_tokens = record_tokens(
        ltable, l_key, blocker.l_attr, blocker.tokenizer, blocker.normalizer
    )
    r_tokens, index, capped = _right_side(blocker, rtable, r_key)
    pairs = []
    for lid, tokens in l_tokens.items():
        if len(tokens) < k:
            continue
        ordered = sorted(tokens, key=lambda t: (len(index.get(t, ())), t))
        prefix = [t for t in ordered[: len(ordered) - k + 1] if t not in capped]
        seen: set[Any] = set()
        for t in prefix:
            seen.update(index.get(t, ()))
        for rid in seen:
            if len(tokens & r_tokens[rid]) >= k:
                pairs.append((lid, rid))
    return pairs


def coefficient_pairs(blocker, ltable, rtable, l_key: str, r_key: str) -> list:
    """:class:`~repro.blocking.OverlapCoefficientBlocker` pairs, in order.

    Each left record probes every uncapped token in its frozenset's
    iteration order; candidates pass the size-aware count bound, then the
    coefficient itself.
    """
    threshold = blocker.threshold
    l_tokens = record_tokens(
        ltable, l_key, blocker.l_attr, blocker.tokenizer, blocker.normalizer
    )
    r_tokens, index, capped = _right_side(blocker, rtable, r_key)
    pairs = []
    for lid, tokens in l_tokens.items():
        seen: set[Any] = set()
        for t in tokens:
            if t not in capped:
                seen.update(index.get(t, ()))
        for rid in seen:
            rtoks = r_tokens[rid]
            needed = math.ceil(threshold * min(len(tokens), len(rtoks)) - 1e-9)
            if len(tokens & rtoks) < needed:
                continue
            if overlap_coefficient(tokens, rtoks) >= threshold - 1e-12:
                pairs.append((lid, rid))
    return pairs


def debugger_top(
    candidates, attr_pairs: Sequence[tuple[str, str]], top_k: int = 100
) -> list[MissedPairReport]:
    """:func:`~repro.blocking.debug_blocker`: string-Jaccard ranking of
    the pairs outside *candidates*, best attribute pair per pair."""
    in_c = candidates.pair_set()
    ltable, rtable = candidates.ltable, candidates.rtable
    scored: dict[tuple[Any, Any], tuple[float, tuple[str, str]]] = {}
    for l_attr, r_attr in attr_pairs:
        l_tokens = record_tokens(
            ltable, candidates.l_key, l_attr, whitespace, normalize_title
        )
        r_tokens = record_tokens(
            rtable, candidates.r_key, r_attr, whitespace, normalize_title
        )
        index: dict[str, list[Any]] = {}
        for rid, tokens in r_tokens.items():
            for t in tokens:
                index.setdefault(t, []).append(rid)
        for lid, tokens in l_tokens.items():
            seen: set[Any] = set()
            for t in tokens:
                seen.update(index.get(t, ()))
            for rid in seen:
                key = (lid, rid)
                if key in in_c:
                    continue
                score = jaccard(tokens, r_tokens[rid])
                if key not in scored or score > scored[key][0]:
                    scored[key] = (score, (l_attr, r_attr))
    ranked = heapq.nsmallest(
        top_k, scored.items(), key=lambda kv: (-kv[1][0], str(kv[0]))
    )
    return [
        MissedPairReport(l_id=lid, r_id=rid, score=score, best_attrs=attrs)
        for (lid, rid), (score, attrs) in ranked
    ]


def feature_values(candidates, feature_set, pairs=None) -> np.ndarray:
    """The row-dict extraction loop: every feature on every record pair."""
    if pairs is None:
        pairs = candidates.pairs
    features = list(feature_set)
    values = np.empty((len(pairs), len(features)))
    for i, pair in enumerate(pairs):
        l_row, r_row = candidates.record_pair(tuple(pair))
        for j, feature in enumerate(features):
            values[i, j] = feature.from_rows(l_row, r_row)
    return values
