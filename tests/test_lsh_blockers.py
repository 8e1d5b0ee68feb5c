"""MinHash-LSH and SimHash blockers: determinism, verification, recall.

LSH blockers are the one family allowed to trade recall for candidate
volume, so the tests pin *how much*: on the case-study tables the
MinHash blocker must keep ≥0.95 of the true matches the exact overlap
blocker finds, and every emitted pair must pass its exact verification
predicate (no unverified bucket noise leaks out). The sort-and-search
bucket join is pinned against the dict-bucket reference in
``tests/oracles/lsh_reference.py``.
"""

import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import MinHashLSHBlocker, OverlapBlocker, SimHashBlocker
from repro.blocking import lsh
from repro.datasets import ScaleConfig, scale_tables
from repro.errors import BlockingError, IncrementalBlockingError
from repro.runtime import EngineSession, Instrumentation, TokenCache
from repro.similarity import jaccard
from repro.table import Table
from repro.text import normalize_title, whitespace
from tests.oracles import lsh_reference as oracle

WORKERS = int(os.environ.get("REPRO_WORKERS", "2"))


def token_set(value, normalizer=None):
    if normalizer is not None:
        value = normalizer(value)
    return frozenset(whitespace(value or ""))


def small_tables():
    words = [f"w{i}" for i in range(14)]
    l_titles = [" ".join(words[i : i + 5]) for i in range(9)] + ["", "w0"]
    r_titles = [" ".join(words[i : i + 4]) for i in range(10)] + ["w0 w1 w2"]
    left = Table(
        {"id": list(range(len(l_titles))), "title": l_titles}, name="L"
    )
    right = Table(
        {"id": list(range(len(r_titles))), "title": r_titles}, name="R"
    )
    return left, right


class TestMinHashLSH:
    def test_deterministic_across_runs(self):
        left, right = small_tables()
        blocker = MinHashLSHBlocker("title", "title", threshold=0.3, seed=11)
        first = list(blocker.block_tables(left, right, "id", "id").pairs)
        second = list(blocker.block_tables(left, right, "id", "id").pairs)
        assert first == second
        assert first  # the corpus overlaps enough to emit something

    def test_every_emitted_pair_verifies(self):
        left, right = small_tables()
        threshold = 0.4
        blocker = MinHashLSHBlocker("title", "title", threshold=threshold)
        out = blocker.block_tables(left, right, "id", "id")
        l_sets = {i: token_set(t) for i, t in zip(left["id"], left["title"])}
        r_sets = {i: token_set(t) for i, t in zip(right["id"], right["title"])}
        for lid, rid in out.pairs:
            assert jaccard(l_sets[lid], r_sets[rid]) >= threshold

    def test_seed_changes_buckets_not_verification(self):
        left, right = small_tables()
        for seed in (0, 1, 99):
            blocker = MinHashLSHBlocker(
                "title", "title", threshold=0.5, seed=seed
            )
            out = blocker.block_tables(left, right, "id", "id")
            l_sets = {
                i: token_set(t) for i, t in zip(left["id"], left["title"])
            }
            r_sets = {
                i: token_set(t) for i, t in zip(right["id"], right["title"])
            }
            assert all(
                jaccard(l_sets[lid], r_sets[rid]) >= 0.5
                for lid, rid in out.pairs
            )

    def test_parameter_validation(self):
        with pytest.raises(BlockingError):
            MinHashLSHBlocker("t", "t", threshold=0)
        with pytest.raises(BlockingError):
            MinHashLSHBlocker("t", "t", bands=0)
        with pytest.raises(BlockingError):
            MinHashLSHBlocker("t", "t", rows=0)

    def test_incremental_unsupported(self):
        left, right = small_tables()
        blocker = MinHashLSHBlocker("title", "title")
        with pytest.raises(IncrementalBlockingError):
            blocker.incremental(right, "id", "id")

    def test_recall_floor_against_overlap_blocker(self, case_study):
        """≥0.95 of the exact overlap blocker's *true matches* survive
        LSH bucketing on the case-study tables (fixed seed)."""
        tables = case_study.projected_v2
        exact = OverlapBlocker(
            "AwardTitle", "AwardTitle", threshold=3, normalizer=normalize_title
        )
        exact_pairs = set(
            exact.block_tables(
                tables.umetrics, tables.usda, tables.l_key, tables.r_key
            ).pairs
        )
        exact_true = exact_pairs & tables.truth
        assert exact_true, "the small scenario has overlap-found matches"
        lsh = MinHashLSHBlocker(
            "AwardTitle",
            "AwardTitle",
            threshold=0.3,
            normalizer=normalize_title,
            seed=0,
        )
        lsh_pairs = set(
            lsh.block_tables(
                tables.umetrics, tables.usda, tables.l_key, tables.r_key
            ).pairs
        )
        recall = len(lsh_pairs & exact_true) / len(exact_true)
        assert recall >= 0.95, f"LSH recall {recall:.3f} below the 0.95 floor"


class TestSimHash:
    def test_deterministic_and_verified(self):
        left, right = small_tables()
        blocker = SimHashBlocker("title", "title", max_hamming=10)
        first = list(blocker.block_tables(left, right, "id", "id").pairs)
        second = list(blocker.block_tables(left, right, "id", "id").pairs)
        assert first == second

    def test_zero_hamming_only_identical_signatures(self):
        left = Table({"id": [1, 2], "title": ["w0 w1 w2", "w7 w8 w9"]}, name="L")
        right = Table({"id": [3, 4], "title": ["w0 w1 w2", "w4 w5 w6"]}, name="R")
        blocker = SimHashBlocker("title", "title", max_hamming=0)
        pairs = set(blocker.block_tables(left, right, "id", "id").pairs)
        assert pairs == {(1, 3)}

    def test_wider_radius_is_superset(self):
        left, right = small_tables()
        narrow = set(
            SimHashBlocker("title", "title", max_hamming=2)
            .block_tables(left, right, "id", "id")
            .pairs
        )
        wide = set(
            SimHashBlocker("title", "title", max_hamming=8)
            .block_tables(left, right, "id", "id")
            .pairs
        )
        assert narrow <= wide

    def test_parameter_validation(self):
        with pytest.raises(BlockingError):
            SimHashBlocker("t", "t", max_hamming=-1)
        with pytest.raises(BlockingError):
            SimHashBlocker("t", "t", max_hamming=17)


# ----------------------------------------------------------------------
# the bucket join against the dict-bucket oracle
# ----------------------------------------------------------------------

#: Key values, including the uint64 extremes; tiny alphabets make buckets
#: collide, and left keys drawn past the right alphabet match nothing.
KEY_VALUES = [0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15, 7]


@st.composite
def key_matrices(draw):
    bands = draw(st.integers(1, 6))
    n_left = draw(st.integers(1, 12))
    n_right = draw(st.integers(1, 12))
    alphabet = draw(st.integers(1, 3))

    def matrix(rows, width):
        cells = draw(
            st.lists(st.integers(0, width - 1), min_size=rows * bands, max_size=rows * bands)
        )
        values = np.array([KEY_VALUES[c] for c in cells], dtype=np.uint64)
        return values.reshape(rows, bands)

    return matrix(n_left, alphabet + 2), matrix(n_right, alphabet)


def deployed_join(l_keys, r_keys, cap):
    bands, capped_blocks, capped_postings = lsh._index_buckets(r_keys, cap)
    left, right = lsh._probe_buckets(bands, l_keys, len(r_keys))
    return list(zip(left.tolist(), right.tolist())), capped_blocks, capped_postings


class TestBucketJoin:
    @settings(max_examples=300, deadline=None)
    @given(key_matrices(), st.sampled_from([None, 1, 2, 4]), st.sampled_from([1, 2, 5, 65536]))
    def test_matches_dict_oracle(self, keys, cap, chunk):
        l_keys, r_keys = keys
        with mock.patch.object(lsh, "_SIG_CHUNK", chunk):
            got = deployed_join(l_keys, r_keys, cap)
        assert got == oracle.bucket_join(l_keys, r_keys, cap)

    def test_all_buckets_capped(self):
        keys = np.zeros((3, 2), dtype=np.uint64)
        assert deployed_join(keys, keys, 1) == ([], 2, 6)


def scale_pair(rows=600, seed=3):
    left, right, _ = scale_tables(ScaleConfig(rows=rows, seed=seed))
    return left, right


#: (blocker, caps) cases for the end-to-end oracle comparison: each cap
#: list mixes uncapped with caps that skip some buckets on the scale tables.
E2E_CASES = [
    pytest.param(
        lambda cap: MinHashLSHBlocker(
            "title", "title", threshold=0.2, block_size_policy=cap
        ),
        (None, 1, 2),
        id="minhash",
    ),
    pytest.param(
        lambda cap: MinHashLSHBlocker(
            "title", "title", threshold=0.3, bands=5, rows=3, seed=9,
            block_size_policy=cap,
        ),
        (None, 1),
        id="minhash_5x3",
    ),
    pytest.param(
        lambda cap: SimHashBlocker(
            "title", "title", max_hamming=8, block_size_policy=cap
        ),
        (None, 2, 4),
        id="simhash",
    ),
]


def _run(blocker, left, right, session):
    return blocker.block_tables(left, right, "id", "id", session=session).pairs


class TestEndToEndOracle:
    @pytest.mark.parametrize("make, caps", E2E_CASES)
    def test_serial_matches_oracle(self, make, caps):
        left, right = scale_pair()
        for cap in caps:
            blocker = make(cap)
            instr = Instrumentation()
            with EngineSession(token_cache=TokenCache(), instrumentation=instr) as session:
                pairs = _run(blocker, left, right, session)
            expected, counters = oracle.lsh_pairs(blocker, left, right, "id", "id")
            assert pairs == expected, f"cap={cap}"
            assert pairs, f"cap={cap}: nothing to compare"
            got = {**instr.find("index").counters, **instr.find("probe").counters}
            assert got == counters, f"cap={cap}"
            assert cap is None or counters["capped_blocks"] > 0, f"cap={cap} skips nothing"

    @pytest.mark.parallel
    @pytest.mark.skipif(WORKERS < 2, reason="REPRO_WORKERS < 2 disables parallel tests")
    @pytest.mark.parametrize("make, caps", E2E_CASES)
    def test_two_worker_session_matches_oracle(self, make, caps):
        left, right = scale_pair()
        with EngineSession(workers=2) as session:
            for cap in caps:
                blocker = make(cap)
                expected, _ = oracle.lsh_pairs(blocker, left, right, "id", "id")
                assert _run(blocker, left, right, session) == expected, f"cap={cap}"


class TestPureFunctionOfInput:
    @pytest.mark.parametrize(
        "blocker",
        [
            MinHashLSHBlocker("title", "title", threshold=0.3),
            SimHashBlocker("title", "title", max_hamming=8, block_size_policy=3),
        ],
        ids=["minhash", "simhash"],
    )
    def test_unrelated_warm_cache_changes_nothing(self, blocker):
        """Interning another column first shifts every token id; the
        signatures hash token text, so the pairs stay the same."""
        left, right = scale_pair()
        with EngineSession(token_cache=TokenCache()) as session:
            cold = _run(blocker, left, right, session)
        assert cold
        titles = [f"pad{i} {t}" for i, t in enumerate(reversed(right["title"]))]
        other = Table({"id": list(range(len(titles))), "note": titles}, name="other")
        warm = TokenCache()
        warm.token_ids_by_id(other, "note", "id", whitespace)
        with EngineSession(token_cache=warm) as session:
            assert _run(blocker, left, right, session) == cold


class TestConcurrentCalls:
    @pytest.mark.parametrize(
        "blocker",
        [
            SimHashBlocker("title", "title", max_hamming=6),
            MinHashLSHBlocker("title", "title", threshold=0.3),
        ],
        ids=["simhash", "minhash"],
    )
    def test_threads_sharing_one_instance(self, blocker):
        """Four threads × five calls on one instance, each call in its own
        session and cache, all equal a serial run on a fresh cache."""
        tables = [scale_pair(rows=1500, seed=s) for s in (1, 2)]
        expected = []
        for l, r in tables:
            with EngineSession(token_cache=TokenCache()) as session:
                expected.append(_run(blocker, l, r, session))
        results: list = []
        errors: list = []
        barrier = threading.Barrier(4)

        def worker(k):
            barrier.wait()
            for call in range(5):
                which = (k + call) % 2
                try:
                    with EngineSession(token_cache=TokenCache()) as session:
                        results.append((which, _run(blocker, *tables[which], session)))
                except Exception as exc:  # surfaced by the assert below
                    errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(results) == 20
        wrong = sum(pairs != expected[which] for which, pairs in results)
        assert wrong == 0, f"{wrong} of 20 concurrent results differ from serial"
