"""Lock-step tree growth and vectorised prediction ≡ recursive CART.

The oracle (:mod:`tests.oracles.cart_reference`) mergesorts every node
and recurses; the deployed grower ranks values once and grows a forest's
trees in lock-step. On heavily tied data (3–4 distinct values per feature) the
two must agree bit for bit: node structure and thresholds, rendered
rules, feature importances and probabilities. Also pinned here: the
leave-one-out fold fan-out equals the serial loop.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialize import serialize_tree
from repro.ml import (
    DecisionTreeClassifier,
    RandomForestClassifier,
    export_rules,
    leave_one_out_predictions,
)
from repro.runtime import EngineSession, Instrumentation
from tests.oracles.cart_reference import reference_forest, reference_proba, reference_tree

WORKERS_AVAILABLE = int(os.environ.get("REPRO_WORKERS", "2"))
needs_workers = pytest.mark.skipif(
    WORKERS_AVAILABLE < 2,
    reason="REPRO_WORKERS < 2 disables parallel-equivalence tests",
)


@st.composite
def tied_data(draw):
    """(X, y, probe): few rows, values quantised to 3-4 levels per feature."""
    n = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 6))
    levels = draw(st.integers(3, 4))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    grid = np.sort(rng.normal(size=levels)).round(3)
    X = grid[rng.integers(0, levels, size=(n, n_features))]
    y = (rng.random(n) < draw(st.floats(0.0, 1.0))).astype(int)
    probe = grid[rng.integers(0, levels, size=(10, n_features))]
    return X, y, np.vstack([X, probe])


tree_params = st.fixed_dictionaries(
    {
        "max_depth": st.one_of(st.none(), st.integers(0, 5)),
        "min_samples_split": st.integers(2, 6),
        "min_samples_leaf": st.integers(1, 4),
        "max_features": st.one_of(st.none(), st.just("sqrt"), st.integers(1, 7)),
    }
)


def assert_same_tree(got: DecisionTreeClassifier, want: DecisionTreeClassifier) -> None:
    assert serialize_tree(got) == serialize_tree(want)
    assert export_rules(got) == export_rules(want)
    assert got.feature_importances_.tobytes() == want.feature_importances_.tobytes()


@settings(max_examples=150, deadline=None)
@given(tied_data(), tree_params, st.integers(0, 2**31 - 1))
def test_tree_equals_recursive_cart(data, params, seed):
    X, y, probe = data
    got = DecisionTreeClassifier(seed=seed, **params).fit(X, y)
    want = reference_tree(X, y, seed=seed, **params)
    assert_same_tree(got, want)
    assert got.predict_proba(probe).tobytes() == reference_proba(want, probe).tobytes()
    assert got.depth() == want.depth()


@settings(max_examples=80, deadline=None)
@given(tied_data(), tree_params, st.integers(1, 6), st.integers(0, 2**16))
def test_forest_equals_recursive_cart(data, params, n_trees, seed):
    X, y, probe = data
    got = RandomForestClassifier(n_trees=n_trees, seed=seed, **params).fit(X, y)
    want = reference_forest(X, y, n_trees=n_trees, seed=seed, **params)
    for got_tree, want_tree in zip(got._trees, want._trees, strict=True):
        assert_same_tree(got_tree, want_tree)
    assert got.feature_importances_.tobytes() == want.feature_importances_.tobytes()
    assert got.predict_proba(probe).tobytes() == reference_proba(want, probe).tobytes()


def test_adjacent_values_split_below_the_upper_value():
    # the midpoint of two adjacent floats rounds up to the upper one, so
    # the threshold falls back to the lower value
    high = 1.0
    low = np.nextafter(high, 0.0)
    X = np.array([[low], [low], [high], [high]])
    y = np.array([0, 0, 1, 1])
    got = DecisionTreeClassifier().fit(X, y)
    assert_same_tree(got, reference_tree(X, y))
    assert got._root.threshold == low
    assert got.predict_proba(X).tolist() == [0.0, 0.0, 1.0, 1.0]


def test_many_distinct_values_use_wide_sort_keys():
    # 2 trees x 30 features x ~600 distinct ranks overflows int16 keys
    rng = np.random.default_rng(4)
    X = rng.normal(size=(600, 30))
    y = (X[:, 0] + rng.normal(size=600) > 0).astype(int)
    got = RandomForestClassifier(n_trees=2, max_features=None, max_depth=4, seed=3).fit(X, y)
    want = reference_forest(X, y, n_trees=2, max_features=None, max_depth=4, seed=3)
    for got_tree, want_tree in zip(got._trees, want._trees, strict=True):
        assert_same_tree(got_tree, want_tree)
    assert got.predict_proba(X).tobytes() == reference_proba(want, X).tobytes()


def test_refit_with_same_seed_replays_feature_draws():
    rng = np.random.default_rng(3)
    X = rng.integers(0, 3, size=(50, 9)).astype(float)
    y = (X[:, 0] + rng.random(50) > 1.5).astype(int)
    first = RandomForestClassifier(n_trees=4, seed=11).fit(X, y)
    again = RandomForestClassifier(n_trees=4, seed=11).fit(X, y)
    want = reference_forest(X, y, n_trees=4, seed=11)
    for a, b, c in zip(first._trees, again._trees, want._trees):
        assert export_rules(a) == export_rules(b) == export_rules(c)


def test_concurrent_fits_share_draw_memo_safely():
    # threads extending one seed's memoised draw sequence at once must
    # each see the draws in sequence order
    rng = np.random.default_rng(8)
    X = rng.integers(0, 4, size=(80, 16)).astype(float)
    y = (X[:, 0] + X[:, 3] + rng.integers(0, 3, 80) > 4).astype(int)
    want = [export_rules(t) for t in reference_forest(X, y, n_trees=3, seed=1234)._trees]
    results: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def fit() -> None:
            forest = RandomForestClassifier(n_trees=3, seed=1234).fit(X, y)
            results.append([export_rules(t) for t in forest._trees])

        threads = [threading.Thread(target=fit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [want] * 8


def test_deserialized_tree_predicts_through_flattened_arrays():
    from repro.core.serialize import deserialize_tree

    rng = np.random.default_rng(5)
    X = rng.integers(0, 4, size=(60, 4)).astype(float)
    y = (X[:, 1] > 1).astype(int)
    tree = DecisionTreeClassifier(min_samples_leaf=2).fit(X, y)
    payload = serialize_tree(tree)
    assert "flat" not in payload and "impurity" not in str(payload)
    restored = deserialize_tree(payload)
    assert restored.predict_proba(X).tobytes() == tree.predict_proba(X).tobytes()


def _loo_data():
    rng = np.random.default_rng(2)
    X = rng.integers(0, 4, size=(40, 5)).astype(float)
    y = (X[:, 0] + X[:, 1] + rng.integers(0, 2, 40) > 3).astype(int)
    return X, y


def test_loo_counts_folds_and_trees():
    X, y = _loo_data()
    instrumentation = Instrumentation()
    model = RandomForestClassifier(n_trees=3, seed=0)
    with EngineSession(instrumentation=instrumentation) as session:
        with instrumentation.stage("loo"):
            leave_one_out_predictions(model, X, y, session=session)
    node = instrumentation.root.find("loo")
    assert node.counters["loo_folds"] == 40
    assert node.counters["trees_grown"] == 120
    assert sum(chunk.items for chunk in node.chunks) == 40


@pytest.mark.parallel
@needs_workers
def test_loo_fan_out_equals_serial():
    X, y = _loo_data()
    model = RandomForestClassifier(n_trees=5, min_samples_leaf=2, seed=0)
    serial = leave_one_out_predictions(model, X, y)
    with EngineSession(workers=2) as session:
        parallel = leave_one_out_predictions(model, X, y, session=session)
    assert np.array_equal(serial, parallel)
