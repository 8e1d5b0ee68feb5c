"""Section 7 at scale — sharded blocking over the streaming generator.

Runs the sharded overlap blocker (token-hash-range posting shards +
block-size caps) over the deterministic scale corpus at two sizes and
gates the properties million-row blocking depends on:

* **bit-identity** — the sharded blocker emits exactly the unsharded
  blocker's pairs (values *and* order), serial and parallel;
* **sub-linear candidate growth** — with caps on, a 10x bigger corpus
  grows candidates < 10x (uncapped token blocking is quadratic in the
  oversized blocks);
* **bounded peak RSS** — the whole run stays inside the committed
  trend band (``sec7_sharded.peak_rss_bytes``);
* **LSH volume/recall trade** — the MinHash blocker keeps ≥ 0.95 of
  the true matches the exact overlap blocker finds while emitting
  ≤ 25% of its candidates;
* **LSH cost** — ``lsh_vs_exact_ratio``, the MinHash blocker's seconds
  over the uncapped exact overlap blocker's at the large size, carries a
  ``max`` trend band, so the approximate blocker cannot quietly become
  slower than the exact one it stands in for.

CI runs 10k -> 100k rows. ``REPRO_SCALE_FULL=1`` scales to 1M rows and
additionally asserts the ≥ 2x wall-clock speedup at 4 workers over the
serial sharded run (too hardware-dependent for the default CI lane).
"""

import os
import time

from repro.blocking import (
    BlockSizePolicy,
    MinHashLSHBlocker,
    OverlapBlocker,
    ShardedOverlapBlocker,
)
from repro.datasets import ScaleConfig, scale_tables
from repro.obs.resources import ResourceSampler
from repro.runtime import EngineSession

FULL = os.environ.get("REPRO_SCALE_FULL") == "1"
SMALL_ROWS = 10_000
LARGE_ROWS = 1_000_000 if FULL else 100_000
CAP = BlockSizePolicy(max_block_size=40)
THRESHOLD = 3  # overlap K, matching the paper's Section-7 choice


def timed_pairs(blocker, left, right, session=None):
    started = time.perf_counter()
    out = blocker.block_tables(left, right, "id", "id", session=session)
    return list(out.pairs), time.perf_counter() - started


def sharded(**kwargs):
    return ShardedOverlapBlocker(
        "title", "title", threshold=THRESHOLD, shards=8,
        block_size_policy=CAP, **kwargs,
    )


def test_sec7_sharded(emit_report):
    sampler = ResourceSampler()
    small_l, small_r, _ = scale_tables(ScaleConfig(rows=SMALL_ROWS))
    large_l, large_r, large_truth = scale_tables(ScaleConfig(rows=LARGE_ROWS))

    # -- bit-identity at the small scale: sharded ≡ unsharded, exactly --
    base = OverlapBlocker(
        "title", "title", threshold=THRESHOLD, block_size_policy=CAP
    )
    base_pairs, base_s = timed_pairs(base, small_l, small_r)
    small_pairs, small_s = timed_pairs(sharded(), small_l, small_r)
    identity_ok = small_pairs == base_pairs
    assert identity_ok, "sharded blocking must be bit-identical to unsharded"

    # -- the large corpus: unsharded, sharded serial, sharded parallel --
    unsharded_pairs, unsharded_s = timed_pairs(base, large_l, large_r)
    large_pairs, large_serial_s = timed_pairs(sharded(), large_l, large_r)
    assert large_pairs == unsharded_pairs, (
        "sharded blocking must stay bit-identical at the large scale"
    )
    with EngineSession(workers=2) as session:
        parallel_pairs, large_parallel_s = timed_pairs(
            sharded(), large_l, large_r, session
        )
    assert parallel_pairs == large_pairs, "parallel run must emit identically"
    speedup_vs_unsharded = unsharded_s / large_serial_s

    growth_ratio = len(large_pairs) / max(len(small_pairs), 1)
    scale_factor = LARGE_ROWS / SMALL_ROWS
    assert growth_ratio < scale_factor, (
        f"capped candidate growth must be sub-linear: {growth_ratio:.1f}x "
        f"pairs for {scale_factor:.0f}x rows"
    )

    speedup_4w = None
    if FULL:
        with EngineSession(workers=4) as session:
            _, four_s = timed_pairs(sharded(), large_l, large_r, session)
        speedup_4w = unsharded_s / four_s
        assert speedup_4w >= 2.0, (
            f"4-worker sharded run must be >= 2x the unsharded blocker, "
            f"got {speedup_4w:.2f}x"
        )

    # -- LSH trade: bounded candidate volume, floored recall --
    exact = OverlapBlocker("title", "title", threshold=THRESHOLD)
    exact_pairs, exact_s = timed_pairs(exact, large_l, large_r)
    # 0.4 sits between the corpus's match band (jaccard 2/3) and its
    # family-collision band (~0.36), so LSH keeps matches and sheds noise.
    # Both runs use the default token cache, which the capped runs above
    # already warmed for this recipe: the ratio compares blocking work,
    # not tokenization.
    lsh = MinHashLSHBlocker("title", "title", threshold=0.4, seed=0)
    lsh_pairs, lsh_s = timed_pairs(lsh, large_l, large_r)
    lsh_vs_exact = lsh_s / exact_s
    truth = set(large_truth)
    exact_true = set(exact_pairs) & truth
    lsh_recall = len(set(lsh_pairs) & exact_true) / max(len(exact_true), 1)
    lsh_fraction = len(lsh_pairs) / max(len(exact_pairs), 1)
    assert lsh_recall >= 0.95, f"LSH recall {lsh_recall:.3f} below floor"
    assert lsh_fraction <= 0.25, (
        f"LSH must emit <= 25% of overlap's candidates, got {lsh_fraction:.1%}"
    )

    peak_rss = sampler.snapshot().peak_rss_bytes or 0

    text = (
        f"Section 7 at scale — sharded blocking ({SMALL_ROWS:,} -> "
        f"{LARGE_ROWS:,} rows, cap={CAP.max_block_size}, shards=8)\n"
        f"  bit-identity (sharded ≡ unsharded @ {SMALL_ROWS:,}): "
        f"{'ok' if identity_ok else 'FAIL'} "
        f"({len(small_pairs):,} pairs; unsharded {base_s:.2f}s, "
        f"sharded {small_s:.2f}s)\n"
        f"  candidates: {len(small_pairs):,} @ {SMALL_ROWS:,} -> "
        f"{len(large_pairs):,} @ {LARGE_ROWS:,} "
        f"(growth {growth_ratio:.1f}x for {scale_factor:.0f}x rows)\n"
        f"  large run: unsharded {unsharded_s:.2f}s, sharded serial "
        f"{large_serial_s:.2f}s ({speedup_vs_unsharded:.2f}x), "
        f"workers=2 {large_parallel_s:.2f}s"
        + (
            f", workers=4 {speedup_4w:.2f}x vs unsharded"
            if speedup_4w
            else ""
        )
        + "\n"
        f"  uncapped exact overlap @ {LARGE_ROWS:,}: {len(exact_pairs):,} "
        f"pairs in {exact_s:.2f}s\n"
        f"  minhash_lsh @ {LARGE_ROWS:,}: {len(lsh_pairs):,} pairs in "
        f"{lsh_s:.2f}s (recall {lsh_recall:.3f}, "
        f"{lsh_fraction:.1%} of exact volume; {lsh_vs_exact:.2f}x the exact "
        f"blocker's time)\n"
        f"  peak RSS: {peak_rss / 1e9:.2f} GB"
    )
    data = {
        "rows_small": SMALL_ROWS,
        "rows_large": LARGE_ROWS,
        "identity_ok": int(identity_ok),
        "candidates_small": len(small_pairs),
        "candidates_large": len(large_pairs),
        "candidate_growth_ratio": growth_ratio,
        "unsharded_seconds_large": unsharded_s,
        "serial_seconds_large": large_serial_s,
        "parallel_seconds_large": large_parallel_s,
        "speedup_vs_unsharded": speedup_vs_unsharded,
        "exact_candidates_large": len(exact_pairs),
        "lsh_candidates_large": len(lsh_pairs),
        "lsh_recall": lsh_recall,
        "lsh_candidate_fraction": lsh_fraction,
        "lsh_vs_exact_ratio": lsh_vs_exact,
        "peak_rss_bytes": peak_rss,
    }
    if speedup_4w is not None:
        data["speedup_4_workers"] = speedup_4w
    emit_report("sec7_sharded", text, data=data)
