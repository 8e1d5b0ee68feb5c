"""Parity tests for the interned-id and batch-columnar kernels.

Three layers, matching the guarantees the kernels make:

* **Kernel parity** (property-based): every per-pair kernel in
  :mod:`repro.similarity.kernels` returns *bit-identical* values to its
  string/set reference on randomized unicode token sets — including
  empty sets, single tokens, and any interning order (results must depend
  on id consistency, never on id values).
* **Batch parity** (property-based): every ``*_batch`` kernel in
  :mod:`repro.similarity.batch` matches its string reference *and* its
  per-pair kernel element for element — under duplicate rows, permuted
  chunk order, re-sliced chunk boundaries, a pickled CSR round trip
  (the worker wire format), and missing (``None``) rows mapping to NaN.
* **End-to-end bit-identity**: both overlap blockers (capped and
  uncapped), the blocking debugger and feature extraction equal the
  string-set references in ``tests/oracles/string_paths.py`` — pair for
  pair and in order, ranking for ranking, cell for cell — on the
  small-scenario tables, on random small tables (empty and missing
  cells, repeated tokens), serial and under a two-worker session.
"""

import math
import os
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.vectors import _monge_elkan_ids, extract_feature_vectors
from repro.runtime.columnar import TokenColumn, gather_column
from repro.similarity import batch, kernels
from repro.similarity.hybrid import monge_elkan
from repro.similarity.set_based import (
    cosine_set,
    dice,
    jaccard,
    overlap_coefficient,
    overlap_size,
)
from repro.text.intern import Vocabulary, id_array
from tests.oracles import string_paths as oracle

# Unicode-heavy alphabet: ascii, accents, CJK, an astral-plane char.
TOKEN_ALPHABET = "abcxyz0189éüñßλжя中文字\U0001f600-"

token = st.text(alphabet=TOKEN_ALPHABET, min_size=1, max_size=6)
token_sets = st.frozensets(token, max_size=12)
token_bags = st.lists(token, max_size=10)


def interned(vocab: Vocabulary, tokens: frozenset, seed: int) -> frozenset:
    """The id frozenset of *tokens*, interned in a random order."""
    shuffled = sorted(tokens)
    random.Random(seed).shuffle(shuffled)
    return frozenset(vocab.intern(t) for t in shuffled)


SET_PARITY_CASES = [
    (jaccard, kernels.jaccard_id_sets),
    (dice, kernels.dice_id_sets),
    (cosine_set, kernels.cosine_id_sets),
    (overlap_coefficient, kernels.overlap_coefficient_id_sets),
    (overlap_size, kernels.overlap_size_id_sets),
]


class TestSetKernelParity:
    @settings(max_examples=200, deadline=None)
    @given(token_sets, token_sets, st.integers(0, 2**31))
    def test_measures_bit_identical(self, a, b, seed):
        # One shared vocabulary, randomized interning order: parity must
        # hold for any id assignment, shared ids included.
        vocab = Vocabulary()
        sa = interned(vocab, a, seed)
        sb = interned(vocab, b, seed + 1)
        for reference, kernel in SET_PARITY_CASES:
            assert kernel(sa, sb) == reference(a, b), kernel.__name__
        assert kernels.intersect_count(sa, sb) == overlap_size(a, b)

    @settings(max_examples=200, deadline=None)
    @given(token_sets, token_sets, st.integers(0, 5), st.integers(0, 2**31))
    def test_bounded_variants(self, a, b, k, seed):
        vocab = Vocabulary()
        sa = interned(vocab, a, seed)
        sb = interned(vocab, b, seed + 1)
        assert kernels.overlap_at_least(sa, sb, k) == (len(a & b) >= k)

    @settings(max_examples=150, deadline=None)
    @given(token_sets, token_sets, st.integers(0, 2**31), st.integers(0, 2**31))
    def test_vocabulary_permutation_invariance(self, a, b, seed1, seed2):
        # Two vocabularies interning in different orders assign different
        # ids; every kernel value must be unchanged.
        v1, v2 = Vocabulary(), Vocabulary()
        sa1 = interned(v1, a, seed1)
        sb1 = interned(v1, b, seed1 + 1)
        sa2 = interned(v2, a, seed2)
        sb2 = interned(v2, b, seed2 + 1)
        for _, kernel in SET_PARITY_CASES:
            assert kernel(sa1, sb1) == kernel(sa2, sb2), kernel.__name__
        for _, _, batch_kernel in BATCH_PARITY_CASES:
            got1 = batch_kernel(TokenColumn.from_sets([sa1]), TokenColumn.from_sets([sb1]))
            got2 = batch_kernel(TokenColumn.from_sets([sa2]), TokenColumn.from_sets([sb2]))
            assert list(got1) == list(got2), batch_kernel.__name__
        for k in range(4):
            assert kernels.overlap_at_least(sa1, sb1, k) == kernels.overlap_at_least(
                sa2, sb2, k
            )

    def test_edge_cases(self):
        vocab = Vocabulary()
        empty = frozenset()
        single = frozenset({vocab.intern("x")})
        assert kernels.jaccard_id_sets(empty, empty) == jaccard(empty, empty) == 1.0
        assert kernels.dice_id_sets(empty, single) == dice(empty, frozenset("x")) == 0.0
        assert kernels.cosine_id_sets(single, empty) == 0.0
        assert kernels.overlap_coefficient_id_sets(empty, empty) == 1.0
        assert kernels.overlap_size_id_sets(single, single) == 1
        assert kernels.overlap_at_least(empty, single, 0) is True
        assert kernels.overlap_at_least(empty, single, 1) is False


#: (string reference, per-pair id-frozenset kernel, batch kernel)
BATCH_PARITY_CASES = [
    (jaccard, kernels.jaccard_id_sets, batch.jaccard_batch),
    (dice, kernels.dice_id_sets, batch.dice_batch),
    (cosine_set, kernels.cosine_id_sets, batch.cosine_batch),
    (
        overlap_coefficient,
        kernels.overlap_coefficient_id_sets,
        batch.overlap_coefficient_batch,
    ),
    (overlap_size, kernels.overlap_size_id_sets, batch.overlap_size_batch),
]

row_pairs = st.lists(st.tuples(token_sets, token_sets), max_size=8)


def _interned_rows(rows, seed):
    """Parallel (string pairs, id-frozenset pairs) under one vocabulary."""
    vocab = Vocabulary()
    sa_col, sb_col = [], []
    for i, (a, b) in enumerate(rows):
        sa = interned(vocab, a, seed + 2 * i)
        sb = interned(vocab, b, seed + 2 * i + 1)
        sa_col.append(sa)
        sb_col.append(sb)
    return sa_col, sb_col


class TestBatchKernelParity:
    @settings(max_examples=100, deadline=None)
    @given(row_pairs, st.integers(0, 2**31))
    def test_bit_identical_to_reference_and_per_pair(self, rows, seed):
        # Duplicate the chunk: identical rows must score identically and
        # independently of their position.
        rows = rows + rows
        sa_col, sb_col = _interned_rows(rows, seed)
        col_a = TokenColumn.from_sets(sa_col)
        col_b = TokenColumn.from_sets(sb_col)
        for reference, per_pair, batch_kernel in BATCH_PARITY_CASES:
            got = list(batch_kernel(col_a, col_b))
            assert got == [reference(a, b) for a, b in rows], batch_kernel.__name__
            assert got == [
                per_pair(sa, sb) for sa, sb in zip(sa_col, sb_col)
            ], batch_kernel.__name__

    @settings(max_examples=75, deadline=None)
    @given(row_pairs, st.integers(0, 2**31))
    def test_permuted_chunk_permutes_scores_and_nothing_else(self, rows, seed):
        sa_col, sb_col = _interned_rows(rows, seed)
        perm = list(range(len(rows)))
        random.Random(seed).shuffle(perm)
        for _, _, batch_kernel in BATCH_PARITY_CASES:
            base = list(batch_kernel(
                TokenColumn.from_sets(sa_col), TokenColumn.from_sets(sb_col)
            ))
            permuted = list(batch_kernel(
                TokenColumn.from_sets(sa_col[i] for i in perm),
                TokenColumn.from_sets(sb_col[i] for i in perm),
            ))
            assert permuted == [base[i] for i in perm], batch_kernel.__name__

    @settings(max_examples=75, deadline=None)
    @given(row_pairs, st.integers(0, 2**31), st.data())
    def test_chunk_boundaries_are_invisible(self, rows, seed, data):
        # Scoring slices [0, cut) and [cut, n) — including the empty and
        # single-row slices — concatenates to scoring the whole chunk,
        # and survives the pickled CSR round trip workers see.
        sa_col, sb_col = _interned_rows(rows, seed)
        col_a = TokenColumn.from_sets(sa_col)
        col_b = TokenColumn.from_sets(sb_col)
        cut = data.draw(st.integers(0, len(rows)), label="cut")
        for _, _, batch_kernel in BATCH_PARITY_CASES:
            whole = list(batch_kernel(col_a, col_b))
            parts = []
            for start, stop in ((0, cut), (cut, len(rows))):
                shipped_a = pickle.loads(pickle.dumps(col_a.slice(start, stop)))
                shipped_b = pickle.loads(pickle.dumps(col_b.slice(start, stop)))
                parts.extend(batch_kernel(shipped_a, shipped_b))
            assert parts == whole, batch_kernel.__name__

    def test_missing_rows_score_nan(self):
        col_a = TokenColumn.from_sets([frozenset({1, 2}), None, frozenset()])
        col_b = TokenColumn.from_sets([None, frozenset({1}), frozenset()])
        for _, _, batch_kernel in BATCH_PARITY_CASES:
            got = list(batch_kernel(col_a, col_b))
            assert math.isnan(got[0]) and math.isnan(got[1]), batch_kernel.__name__
        # both-empty rows score by the references, not NaN
        assert batch.jaccard_batch(col_a, col_b)[2] == 1.0
        assert batch.overlap_size_batch(col_a, col_b)[2] == 0.0

    def test_empty_chunk_scores_to_empty_array(self):
        col = TokenColumn.from_sets([])
        for _, _, batch_kernel in BATCH_PARITY_CASES:
            out = batch_kernel(col, col)
            assert len(out) == 0 and out.typecode == "d", batch_kernel.__name__

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ValueError):
            batch.jaccard_batch(
                TokenColumn.from_sets([frozenset()]), TokenColumn.from_sets([])
            )

    def test_score_batch_dispatches_and_rejects_unknown(self):
        col = TokenColumn.from_sets([frozenset({1}), frozenset({1, 2})])
        assert list(batch.score_batch("jac", col, col)) == [1.0, 1.0]
        with pytest.raises(KeyError):
            batch.score_batch("no_such_measure", col, col)


class TestBatchKeepMasks:
    @settings(max_examples=100, deadline=None)
    @given(row_pairs, st.integers(0, 4), st.integers(0, 2**31))
    def test_overlap_mask_matches_per_pair_predicate(self, rows, k, seed):
        sa_col, sb_col = _interned_rows(rows, seed)
        mask = batch.overlap_at_least_batch(
            TokenColumn.from_sets(sa_col), TokenColumn.from_sets(sb_col), k
        )
        assert [bool(bit) for bit in mask] == [
            kernels.overlap_at_least(sa, sb, k)
            for sa, sb in zip(sa_col, sb_col)
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        row_pairs,
        st.sampled_from([0.3, 0.5, 0.7, 0.9, 1.0]),
        st.integers(0, 2**31),
    )
    def test_coefficient_mask_matches_string_verification(self, rows, t, seed):
        # The reference is the exact two-step check the string-path
        # blocker performs per candidate: size-aware count bound, then
        # the coefficient itself.
        sa_col, sb_col = _interned_rows(rows, seed)
        mask = batch.overlap_coefficient_at_least_batch(
            TokenColumn.from_sets(sa_col), TokenColumn.from_sets(sb_col), t
        )
        expected = []
        for a, b in rows:
            needed = math.ceil(t * min(len(a), len(b)) - 1e-9)
            expected.append(
                len(a & b) >= needed
                and overlap_coefficient(a, b) >= t - 1e-12
            )
        assert [bool(bit) for bit in mask] == expected

    def test_coefficient_mask_empty_sets(self):
        col_a = TokenColumn.from_sets([frozenset(), frozenset(), frozenset({1})])
        col_b = TokenColumn.from_sets([frozenset(), frozenset({1}), frozenset()])
        # both-empty has coefficient 1.0 (kept); one-empty 0.0 (dropped)
        assert list(batch.overlap_coefficient_at_least_batch(col_a, col_b, 0.7)) == [
            1,
            0,
            0,
        ]


class TestTokenColumn:
    def test_entries_back_the_cached_frozensets(self):
        vocab = Vocabulary()
        sa = interned(vocab, frozenset({"a", "b"}), 0)

        class Entry:  # minimal InternedTokens stand-in
            def __init__(self, ids):
                self.ids = ids
                self.sorted = id_array(sorted(ids))

        entry = Entry(sa)
        col = TokenColumn.from_entries([entry, None, entry])
        assert len(col) == 3
        sets = col.sets()
        assert sets[0] is sa and sets[2] is sa  # zero-copy: same object
        assert sets[1] is None

    def test_pickle_ships_csr_and_round_trips(self):
        col = TokenColumn.from_sets([frozenset({3, 1}), None, frozenset()])
        shipped = pickle.loads(pickle.dumps(col))
        assert shipped.sets() == (frozenset({1, 3}), None, frozenset())
        offsets, data, missing = shipped.csr()
        assert list(offsets) == [0, 2, 2, 2]
        assert list(data) == [1, 3]
        assert missing == (1,)

    def test_slice_of_csr_backed_column(self):
        col = pickle.loads(
            pickle.dumps(
                TokenColumn.from_sets(
                    [frozenset({1}), None, frozenset({2, 3}), frozenset()]
                )
            )
        )
        assert col.slice(1, 3).sets() == (None, frozenset({2, 3}))
        assert col.slice(2, 2).sets() == ()

    def test_gather_column_indexes_rows(self):
        vocab = Vocabulary()
        sa = interned(vocab, frozenset({"x"}), 0)

        class Entry:
            def __init__(self, ids):
                self.ids = ids
                self.sorted = id_array(sorted(ids))

        column = (Entry(sa), None, Entry(sa))
        gathered = gather_column(column, [2, 0, 1])
        assert gathered.sets() == (sa, sa, None)


class TestMongeElkanParity:
    @settings(max_examples=150, deadline=None)
    @given(token_bags, token_bags, st.integers(0, 2**31))
    def test_bit_identical_to_reference(self, a, b, seed):
        vocab = Vocabulary()
        warm = sorted(set(a) | set(b))
        random.Random(seed).shuffle(warm)
        for t in warm:  # randomize id assignment
            vocab.intern(t)
        ia = vocab.intern_all(a)
        ib = vocab.intern_all(b)
        token_map = {tid: vocab.token_of(tid) for tid in set(ia) | set(ib)}
        jw_memo: dict = {}
        assert _monge_elkan_ids(ia, ib, token_map, jw_memo) == monge_elkan(a, b)
        # memoized second call returns the same float
        assert _monge_elkan_ids(ia, ib, token_map, jw_memo) == monge_elkan(a, b)


# ----------------------------------------------------------------------
# end-to-end bit-identity: deployed kernel paths vs the string oracles
# ----------------------------------------------------------------------

WORKERS = int(os.environ.get("REPRO_WORKERS", "2"))

#: Block-size caps the blocker parity tests run under: uncapped, and a cap
#: small enough to skip the scenario titles' most common words.
CAPS = (None, 8)


@pytest.fixture(scope="module")
def projected(case_study):
    return case_study.projected


def _table_args(tables):
    return (tables.umetrics, tables.usda, tables.l_key, tables.r_key)


def _title_blockers(cap):
    from repro.blocking import OverlapBlocker, OverlapCoefficientBlocker
    from repro.casestudy.blocking_plan import (
        COEFFICIENT_THRESHOLD,
        OVERLAP_THRESHOLD,
    )
    from repro.text.normalize import normalize_title

    return (
        OverlapBlocker(
            "AwardTitle", "AwardTitle", threshold=OVERLAP_THRESHOLD,
            normalizer=normalize_title, block_size_policy=cap,
        ),
        OverlapCoefficientBlocker(
            "AwardTitle", "AwardTitle", threshold=COEFFICIENT_THRESHOLD,
            normalizer=normalize_title, block_size_policy=cap,
        ),
    )


def _assert_plan_matches_oracle(tables, outcome):
    """The C2/C3 pairs, C and the debugger report against the oracles."""
    from repro.blocking import CandidateSet, union_candidates

    overlap, coefficient = _title_blockers(None)
    args = _table_args(tables)
    c2 = oracle.overlap_pairs(overlap, *args)
    c3 = oracle.coefficient_pairs(coefficient, *args)
    assert outcome.c2.pairs == c2, "C2: pair list or order differs"
    assert outcome.c3.pairs == c3, "C3: pair list or order differs"
    union = union_candidates(
        [outcome.c1, CandidateSet(*args, c2), CandidateSet(*args, c3)]
    )
    assert outcome.candidates.pairs == union.pairs
    # run_blocking ranks the top 100 by title
    top = oracle.debugger_top(outcome.candidates, [("AwardTitle", "AwardTitle")], 100)
    assert list(outcome.debugger_top) == top


def _case_feature_set(tables):
    from repro.casestudy.matching import base_feature_set
    from repro.features.generate import add_case_insensitive_variants

    return add_case_insensitive_variants(
        base_feature_set(tables), attrs=["AwardTitle"]
    )


def test_blocking_plan_bit_identical(projected):
    from repro.casestudy.blocking_plan import run_blocking

    outcome = run_blocking(projected)
    assert outcome.debugger_top, "the debugger check must rank something"
    _assert_plan_matches_oracle(projected, outcome)


def test_feature_matrix_bit_identical(projected):
    from repro.casestudy.blocking_plan import run_blocking

    candidates = run_blocking(projected).candidates
    fs = _case_feature_set(projected)
    kernel = extract_feature_vectors(candidates, fs)
    assert kernel.pairs == candidates.pairs
    assert kernel.feature_names == fs.names
    expected = oracle.feature_values(candidates, fs)
    assert np.array_equal(kernel.values, expected, equal_nan=True)
    # spot-check: matrices are finite where defined and non-degenerate
    assert np.isfinite(kernel.values[~np.isnan(kernel.values)]).all()


def test_overlap_blocker_kernel_off_matches_on(projected):
    args = _table_args(projected)
    for cap in CAPS:
        blocker, _ = _title_blockers(cap)
        pairs = blocker.block_tables(*args).pairs
        assert pairs == oracle.overlap_pairs(blocker, *args), f"cap={cap}"
        assert pairs, f"cap={cap}: no pairs to compare"


def test_coefficient_blocker_kernel_off_matches_on(projected):
    args = _table_args(projected)
    for cap in CAPS:
        _, blocker = _title_blockers(cap)
        pairs = blocker.block_tables(*args).pairs
        assert pairs == oracle.coefficient_pairs(blocker, *args), f"cap={cap}"
        assert pairs, f"cap={cap}: no pairs to compare"


@pytest.mark.parallel
@pytest.mark.skipif(WORKERS < 2, reason="REPRO_WORKERS < 2 disables parallel tests")
def test_two_worker_session_matches_oracles(projected):
    from repro.casestudy.blocking_plan import run_blocking
    from repro.runtime import EngineSession

    args = _table_args(projected)
    fs = _case_feature_set(projected)
    with EngineSession(workers=2) as session:
        outcome = run_blocking(projected, session=session)
        for cap in CAPS:
            overlap, coefficient = _title_blockers(cap)
            assert overlap.block_tables(*args, session=session).pairs == (
                oracle.overlap_pairs(overlap, *args)
            ), f"overlap cap={cap}"
            assert coefficient.block_tables(*args, session=session).pairs == (
                oracle.coefficient_pairs(coefficient, *args)
            ), f"coefficient cap={cap}"
        matrix = extract_feature_vectors(outcome.candidates, fs, session=session)
        assert session.worker_pool.pickled_chunks > 0, "nothing ran in the pool"
    _assert_plan_matches_oracle(projected, outcome)
    assert matrix.pairs == outcome.candidates.pairs
    expected = oracle.feature_values(outcome.candidates, fs)
    assert np.array_equal(matrix.values, expected, equal_nan=True)


# ----------------------------------------------------------------------
# random small tables: empty and missing cells, repeated tokens, caps
# ----------------------------------------------------------------------

#: Words with case and punctuation variants, so normalization matters and
#: repeated tokens collapse; short enough for 3-gram tokens to overlap.
WORDS = ["corn", "Corn", "dodder", "swamp", "of", "the", "λж", "fungi-cide", "a"]

cells = st.one_of(
    st.none(),
    st.sampled_from(["", "   ", "!!"]),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join),
)
numbers = st.one_of(st.none(), st.integers(-3, 3), st.floats(allow_nan=True, width=16))
#: Cells that compare equal as values but not as text (1, 1.0, True;
#: 0.0, -0.0, False), next to the strings they print as.
mixed = st.sampled_from([None, 1, 1.0, True, 0, 0.0, -0.0, False, "1.0", "-0.0", "x"])


@st.composite
def table_pairs(draw):
    """Two small tables. Right ids are ints sharing their low six bits, so
    they collide in the blockers' small ``seen`` sets and pair emission
    order follows probe order; left ids are strings."""
    from repro.table import Table

    n_left = draw(st.integers(0, 10))
    n_right = draw(st.integers(0, 10))
    left = Table(
        {
            "id": [f"l{i}" for i in range(n_left)],
            "t": draw(st.lists(cells, min_size=n_left, max_size=n_left)),
            "n": draw(st.lists(numbers, min_size=n_left, max_size=n_left)),
            "m": draw(st.lists(mixed, min_size=n_left, max_size=n_left)),
        },
        name="L",
    )
    right = Table(
        {
            "id": [64 * i for i in range(n_right)],
            "t": draw(st.lists(cells, min_size=n_right, max_size=n_right)),
            "n": draw(st.lists(numbers, min_size=n_right, max_size=n_right)),
            "m": draw(st.lists(mixed, min_size=n_right, max_size=n_right)),
        },
        name="R",
    )
    return left, right


def _random_feature_set():
    from repro.features.feature import (
        custom_feature,
        numeric_feature,
        string_feature,
        token_feature,
    )
    from repro.features.generate import FeatureSet
    from repro.text.tokenizers import TOKENIZERS

    features = [
        token_feature("t", "t", measure, TOKENIZERS[tok], tok, casefold=casefold)
        for measure in ("jac", "cos", "dice", "overlap_coeff", "mel")
        for tok in ("ws", "qgm_3")
        for casefold in (False, True)
    ]
    features += [string_feature("t", "t", m) for m in ("lev_sim", "jw", "exact_str")]
    features.append(numeric_feature("n", "n", "abs_diff"))
    features += [string_feature("m", "m", m) for m in ("lev_sim", "exact_str")]
    features += [string_feature("m", "m", "exact_str", casefold=True)]
    features.append(token_feature("m", "m", "mel", TOKENIZERS["qgm_3"], "qgm_3"))
    features += [numeric_feature("m", "m", m) for m in ("exact", "abs_diff", "rel_diff")]
    # no spec: extracted in-process and never memoized
    features.append(custom_feature("t_len_gap", "t", "t", lambda a, b: len(a) - len(b)))
    return FeatureSet(features)


class TestRandomTablesMatchOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        table_pairs(),
        st.integers(1, 3),
        st.sampled_from([0.3, 0.5, 0.7, 1.0]),
        st.sampled_from([None, 1, 2, 4]),
        st.sampled_from(["ws", "qgm_3"]),
        st.booleans(),
    )
    def test_blockers_match_oracle(self, tables, k, t, cap, tok, normalize):
        from repro.blocking import OverlapBlocker, OverlapCoefficientBlocker
        from repro.text.normalize import normalize_title
        from repro.text.tokenizers import TOKENIZERS

        left, right = tables
        recipe = dict(
            tokenizer=TOKENIZERS[tok],
            normalizer=normalize_title if normalize else None,
            block_size_policy=cap,
        )
        overlap = OverlapBlocker("t", "t", threshold=k, **recipe)
        coefficient = OverlapCoefficientBlocker("t", "t", threshold=t, **recipe)
        args = (left, right, "id", "id")
        assert overlap.block_tables(*args).pairs == oracle.overlap_pairs(overlap, *args)
        assert coefficient.block_tables(*args).pairs == oracle.coefficient_pairs(
            coefficient, *args
        )

    @settings(max_examples=60, deadline=None)
    @given(table_pairs(), st.data())
    def test_extraction_matches_oracle(self, tables, data):
        from repro.blocking.candidate_set import CandidateSet

        left, right = tables
        grid = [(lid, rid) for lid in left["id"] for rid in right["id"]]
        pairs = data.draw(
            st.lists(st.sampled_from(grid), max_size=12) if grid else st.just([]),
            label="pairs",
        )
        # explicit pairs may repeat; the candidate set itself deduplicates
        candidates = CandidateSet(left, right, "id", "id", pairs)
        fs = _random_feature_set()
        matrix = extract_feature_vectors(candidates, fs, pairs)
        assert matrix.pairs == pairs
        assert np.array_equal(
            matrix.values, oracle.feature_values(candidates, fs, pairs), equal_nan=True
        )

    @settings(max_examples=60, deadline=None)
    @given(table_pairs(), st.data(), st.integers(1, 6))
    def test_debugger_matches_oracle(self, tables, data, top_k):
        from repro.blocking import debug_blocker
        from repro.blocking.candidate_set import CandidateSet

        left, right = tables
        grid = [(lid, rid) for lid in left["id"] for rid in right["id"]]
        pairs = data.draw(
            st.lists(st.sampled_from(grid), max_size=6, unique=True)
            if grid
            else st.just([]),
            label="pairs",
        )
        candidates = CandidateSet(left, right, "id", "id", pairs)
        attrs = [("t", "t")]
        assert debug_blocker(candidates, attrs, top_k=top_k) == oracle.debugger_top(
            candidates, attrs, top_k
        )


# ----------------------------------------------------------------------
# chunk-boundary edge cases surfaced by the batch refactor
# ----------------------------------------------------------------------


def _edge_tables():
    """Tiny tables exercising empty token sets and missing cells."""
    from repro.table import Table

    left = Table(
        {
            "id": [1, 2, 3, 4],
            "title": [
                "corn fungicide guidelines",
                "",  # tokenizes to the empty set
                None,  # missing cell
                "swamp dodder ecology",
            ],
        },
        name="L",
    )
    right = Table(
        {
            "id": [10, 20, 30, 40],
            "title": [
                "corn fungicide handbook",
                "swamp dodder ecology",
                "",
                None,
            ],
        },
        name="R",
    )
    return left, right


def _edge_matrix(pairs):
    """The deployed feature matrix for *pairs* and the oracle's values."""
    from repro.blocking.candidate_set import CandidateSet
    from repro.features.generate import generate_features

    left, right = _edge_tables()
    candidates = CandidateSet(left, right, "id", "id", pairs)
    fs = generate_features(left, right, exclude_attrs=["id"])
    return extract_feature_vectors(candidates, fs), oracle.feature_values(candidates, fs)


def test_empty_candidate_chunk_extraction():
    kernel, expected = _edge_matrix([])
    assert kernel.pairs == []
    assert kernel.values.shape == expected.shape
    assert kernel.values.shape[0] == 0


def test_single_pair_chunk_extraction():
    kernel, expected = _edge_matrix([(1, 10)])
    assert kernel.pairs == [(1, 10)]
    assert np.array_equal(kernel.values, expected, equal_nan=True)


def test_empty_and_missing_token_sets_extraction():
    # Rows pairing empty token sets with non-empty, empty-with-empty, and
    # missing cells must score like the oracle (missing cells as NaN).
    pairs = [(1, 10), (2, 30), (2, 20), (3, 10), (1, 40), (4, 20)]
    kernel, expected = _edge_matrix(pairs)
    assert kernel.pairs == pairs
    assert np.array_equal(kernel.values, expected, equal_nan=True)
    missing_rows = [pairs.index((3, 10)), pairs.index((1, 40))]
    names = kernel.feature_names
    token_cols = [i for i, n in enumerate(names) if "_jac_" in n or "_cos_" in n]
    assert token_cols, names
    for row in missing_rows:
        for col in token_cols:
            assert math.isnan(kernel.values[row, col])


def test_blockers_tolerate_empty_token_records():
    from repro.blocking import OverlapBlocker, OverlapCoefficientBlocker

    left, right = _edge_tables()
    args = (left, right, "id", "id")
    for blocker, reference in (
        (OverlapBlocker("title", "title", threshold=2), oracle.overlap_pairs),
        (
            OverlapCoefficientBlocker("title", "title", threshold=0.5),
            oracle.coefficient_pairs,
        ),
    ):
        kernel = blocker.block_tables(*args)
        assert kernel.pairs == reference(blocker, *args), type(blocker).__name__
        # empty/missing records never pair
        for lid, rid in kernel.pairs:
            assert lid in (1, 4) and rid in (10, 20)


# ----------------------------------------------------------------------
# session-lived measure memos (TokenCache.memos)
# ----------------------------------------------------------------------


def _memo_world():
    """Two tables whose pairs exercise every memoized column kind."""
    from repro.features.feature import numeric_feature, string_feature, token_feature
    from repro.features.generate import FeatureSet
    from repro.table import Table
    from repro.text.tokenizers import TOKENIZERS

    left, right = _edge_tables()
    left.add_column("n", [1, 1.0, True, -0.0])
    right.add_column("n", ["1.0", 0.0, None, 2])
    fs = FeatureSet(
        [
            token_feature("title", "title", "mel", TOKENIZERS["ws"], "ws"),
            token_feature("title", "title", "jac", TOKENIZERS["qgm_3"], "qgm_3"),
            string_feature("title", "title", "lev_sim"),
            string_feature("n", "n", "lev_sim"),
            string_feature("n", "n", "exact_str"),
            numeric_feature("n", "n", "abs_diff"),
        ]
    )
    grid = [(lid, rid) for lid in left["id"] for rid in right["id"]]
    return left, right, fs, grid


def _fresh_session(**kwargs):
    from repro.runtime import EngineSession, TokenCache

    return EngineSession(token_cache=TokenCache(), **kwargs)


class TestSessionMemos:
    def test_value_memo_keys_string_features_on_text(self):
        # 1, 1.0 and True are equal cells but print differently; a memo
        # keyed on the cell would give all three the first one's value
        from repro.blocking.candidate_set import CandidateSet
        from repro.features.feature import string_feature
        from repro.features.generate import FeatureSet
        from repro.table import Table

        left = Table({"id": [1, 2, 3, 4, 5], "v": [1, 1.0, True, 0.0, -0.0]})
        right = Table({"id": [9, 8], "v": ["1.0", "0.0"]})
        fs = FeatureSet(
            [string_feature("v", "v", "lev_sim"), string_feature("v", "v", "exact_str")]
        )
        pairs = [(1, 9), (2, 9), (3, 9), (4, 8), (5, 8)]
        candidates = CandidateSet(left, right, "id", "id", pairs)
        with _fresh_session() as session:
            matrix = extract_feature_vectors(candidates, fs, session=session)
        expected = oracle.feature_values(candidates, fs)
        assert np.array_equal(matrix.values, expected)
        assert matrix.values[:3, 0].tolist() == [1 - 2 / 3, 1.0, 0.0]
        assert matrix.values[3:, 1].tolist() == [1.0, 0.0]

    def test_memos_outlive_a_call_and_are_counted(self):
        from repro.blocking.candidate_set import CandidateSet
        from repro.runtime import Instrumentation

        left, right, fs, grid = _memo_world()
        candidates = CandidateSet(left, right, "id", "id", grid)
        instr = Instrumentation()
        with _fresh_session(instrumentation=instr) as session:
            first = extract_feature_vectors(candidates, fs, session=session)
            second = extract_feature_vectors(candidates, fs, session=session)
            memos = session.token_cache.memos
            assert memos.jw and memos.values
        assert np.array_equal(first.values, second.values, equal_nan=True)
        calls = [s for s in instr.root.children if s.name == "extract_features"]
        assert len(calls) == 2
        assert calls[0].counters["memo_misses"] > 0
        assert calls[1].counters["memo_misses"] == 0
        # warm: one hit per pair for mel and each of the four value
        # features, and no inner Jaro-Winkler lookups at all
        assert calls[1].counters["memo_hits"] == 5 * len(grid)
        assert calls[0].counters["memo_evictions"] == 0

    def test_overlapping_pair_sets_in_any_order_match_fresh_sessions(self):
        from repro.blocking.candidate_set import CandidateSet

        left, right, fs, grid = _memo_world()
        candidates = CandidateSet(left, right, "id", "id", grid)
        orders = [grid[:10], grid[5:][::-1], grid[::3], list(reversed(grid))]
        with _fresh_session() as shared:
            reused = [
                extract_feature_vectors(candidates, fs, pairs, session=shared)
                for pairs in orders
            ]
        for pairs, matrix in zip(orders, reused):
            with _fresh_session() as fresh:
                alone = extract_feature_vectors(candidates, fs, pairs, session=fresh)
            assert matrix.pairs == alone.pairs == pairs
            assert np.array_equal(matrix.values, alone.values, equal_nan=True)
            expected = oracle.feature_values(candidates, fs, pairs)
            assert np.array_equal(matrix.values, expected, equal_nan=True)

    def test_bounded_memos_evict_and_stay_exact(self, monkeypatch):
        from repro.blocking.candidate_set import CandidateSet
        from repro.runtime import Instrumentation
        from repro.runtime import cache as cache_module

        monkeypatch.setattr(cache_module, "MEMO_LIMIT", 3)
        left, right, fs, grid = _memo_world()
        candidates = CandidateSet(left, right, "id", "id", grid)
        instr = Instrumentation()
        with _fresh_session(instrumentation=instr) as session:
            for pairs in (grid, grid[::-1], grid):
                matrix = extract_feature_vectors(candidates, fs, pairs, session=session)
                expected = oracle.feature_values(candidates, fs, pairs)
                assert np.array_equal(matrix.values, expected, equal_nan=True)
        counted = sum(
            s.counters["memo_evictions"]
            for s in instr.root.children
            if s.name == "extract_features"
        )
        assert counted == 4  # both memos, before calls 2 and 3

    @pytest.mark.parallel
    @pytest.mark.skipif(WORKERS < 2, reason="REPRO_WORKERS < 2 disables parallel tests")
    def test_pooled_session_reuses_only_the_mel_memo(self):
        from repro.blocking.candidate_set import CandidateSet
        from repro.runtime import Instrumentation

        left, right, fs, grid = _memo_world()
        candidates = CandidateSet(left, right, "id", "id", grid)
        expected = oracle.feature_values(candidates, fs)
        instr = Instrumentation()
        with _fresh_session(workers=2, instrumentation=instr) as session:
            for _ in range(2):
                matrix = extract_feature_vectors(candidates, fs, session=session)
                assert np.array_equal(matrix.values, expected, equal_nan=True)
            assert session.worker_pool.pickled_chunks > 0
            # workers memoize per call: only the parent's mel column is
            # kept on the session
            assert list(session.token_cache.memos.values) == [list(fs)[0].spec]
        first, second = [s for s in instr.root.children if s.name == "extract_features"]
        assert first.counters["memo_misses"] > 0
        assert second.counters["memo_misses"] == 0
        assert second.counters["memo_hits"] == len(grid)

    def test_threads_share_the_default_cache(self, monkeypatch):
        # two threads extract through the process-wide cache while its
        # tiny bound makes every call trim memos the other is filling
        import threading

        from repro.blocking.candidate_set import CandidateSet
        from repro.runtime import EngineSession, Instrumentation
        from repro.runtime import cache as cache_module
        from repro.table.column import is_missing
        from repro.text.tokenizers import TOKENIZERS

        monkeypatch.setattr(cache_module, "MEMO_LIMIT", 3)
        left, right, fs, grid = _memo_world()
        candidates = CandidateSet(left, right, "id", "id", grid)
        orders = [grid, grid[::-1]]
        expected = [oracle.feature_values(candidates, fs, pairs) for pairs in orders]
        failures, counters = [], []

        def extract(pairs, want):
            try:
                for _ in range(30):
                    instr = Instrumentation()
                    session = EngineSession(instrumentation=instr)
                    assert session.token_cache is cache_module.get_default_cache()
                    matrix = extract_feature_vectors(
                        candidates, fs, pairs, session=session
                    )
                    assert np.array_equal(matrix.values, want, equal_nan=True)
                    (call,) = instr.root.children
                    counters.append(call.counters)
            except BaseException as exc:  # surfaced in the main thread
                failures.append(exc)

        threads = [
            threading.Thread(target=extract, args=args) for args in zip(orders, expected)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        assert len(counters) == 60
        # each call counts its own lookups, whatever the other thread did
        # meanwhile: one per pair and memoized column, plus at most every
        # inner Jaro-Winkler lookup of the mel column
        bags = {
            side: {
                rid: [] if is_missing(v) else TOKENIZERS["ws"](str(v))
                for rid, v in zip(table["id"], table["title"])
            }
            for side, table in (("l", left), ("r", right))
        }
        inner = sum(len(bags["l"][lid]) * len(bags["r"][rid]) for lid, rid in grid)
        for counts in counters:
            lookups = counts["memo_hits"] + counts["memo_misses"]
            assert 5 * len(grid) <= lookups <= 5 * len(grid) + inner

    def test_clear_drops_both_memos(self):
        from repro.blocking.candidate_set import CandidateSet

        left, right, fs, grid = _memo_world()
        candidates = CandidateSet(left, right, "id", "id", grid)
        with _fresh_session() as session:
            cache = session.token_cache
            before = extract_feature_vectors(candidates, fs, session=session)
            assert cache.memos.jw and cache.memos.values
            cache.clear()
            assert not cache.memos.jw and not cache.memos.values
            after = extract_feature_vectors(candidates, fs, session=session)
        assert np.array_equal(before.values, after.values, equal_nan=True)
