"""Dict-bucket reference for the LSH blockers' bucket join.

:mod:`repro.blocking.lsh` indexes the right side's band keys with one
stable sort per band and probes them with binary search. This is the
per-row algorithm that replaced: one ``dict[key, list[row]]`` per band,
probed one left row at a time through an insertion-ordered ``seen`` dict.
The deployed join must equal it exactly — the same ``(left row, right
row)`` candidates in the same order, and the same capped counters.

:func:`lsh_pairs` wraps the join into a whole blocker run. It takes the
bucket keys and verification payloads from the blocker's own signature
step, so it pins everything after signatures: index, probe, verify and
pair assembly.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.blocking import MinHashLSHBlocker
from repro.runtime import TokenCache


def bucket_join(
    l_keys: np.ndarray, r_keys: np.ndarray, max_block_size: int | None = None
) -> tuple[list[tuple[int, int]], int, int]:
    """``(candidates, capped_blocks, capped_postings)`` for two key matrices.

    Candidates are emitted per left row in row order, buckets probed in
    band order, bucket members in right-row order, first occurrence wins.
    A bucket is keyed by ``(band, key)`` and skipped when it holds more
    than *max_block_size* right rows.
    """
    bands = l_keys.shape[1]
    buckets: list[dict[int, list[int]]] = []
    sizes: dict[tuple[int, int], int] = {}
    for b in range(bands):
        bucket: dict[int, list[int]] = {}
        for row, key in enumerate(r_keys[:, b].tolist()):
            bucket.setdefault(key, []).append(row)
        buckets.append(bucket)
        for key, rows in bucket.items():
            sizes[(b, key)] = len(rows)
    capped = {
        k for k, n in sizes.items() if max_block_size is not None and n > max_block_size
    }
    candidates: list[tuple[int, int]] = []
    for i, row_keys in enumerate(l_keys.tolist()):
        seen: dict[int, None] = {}
        for b in range(bands):
            key = row_keys[b]
            if (b, key) in capped:
                continue
            for row in buckets[b].get(key, ()):
                seen.setdefault(row)
        candidates.extend((i, row) for row in seen)
    return candidates, len(capped), sum(sizes[k] for k in capped)


def lsh_pairs(
    blocker: Any, ltable, rtable, l_key: str, r_key: str
) -> tuple[list, dict[str, int]]:
    """``(pairs, counters)`` *blocker* must produce from a fresh token cache.

    The pairs are in emission order. MinHash candidates are verified with
    exact Jaccard over the token id sets; SimHash candidates with a
    Python popcount of the signature xor. The counters are the probe's
    ``candidates`` and, for capped policies, ``capped_blocks`` and
    ``capped_postings``.
    """
    cache = TokenCache()
    l_entries = cache.token_ids_by_id(
        ltable, blocker.l_attr, l_key, blocker.tokenizer, blocker.normalizer
    )
    r_entries = cache.token_ids_by_id(
        rtable, blocker.r_attr, r_key, blocker.tokenizer, blocker.normalizer
    )
    if not l_entries or not r_entries:
        return [], {}
    lids, l_vals = list(l_entries), list(l_entries.values())
    rids, r_vals = list(r_entries), list(r_entries.values())
    l_keys, l_payload = blocker._hash_side(cache, l_vals)
    r_keys, r_payload = blocker._hash_side(cache, r_vals)
    cap = blocker.block_size_policy.max_block_size
    candidates, capped_blocks, capped_postings = bucket_join(l_keys, r_keys, cap)
    counters = {"candidates": len(candidates)}
    if cap is not None:
        counters.update(capped_blocks=capped_blocks, capped_postings=capped_postings)
    pairs = []
    for i, j in candidates:
        if isinstance(blocker, MinHashLSHBlocker):
            a, b = l_vals[i].ids, r_vals[j].ids
            inter = len(a & b)
            keep = inter / (len(a) + len(b) - inter) >= blocker.threshold - 1e-12
        else:
            keep = bin(int(l_payload[i]) ^ int(r_payload[j])).count("1") <= blocker.max_hamming
        if keep:
            pairs.append((lids[i], rids[j]))
    return pairs, counters
