"""Recursive CART: the reference the lock-step grower must equal bit for bit.

This is the straightforward tree grower :mod:`repro.ml.tree` replaced:
every node re-sorts its rows per candidate feature (stable mergesort),
scores every split position with cumulative positive counts, recurses
left then right, and adds a split's impurity decrease to the feature
importances after both children are built (postorder). Forests draw, per
tree, the bootstrap rows first and then the tree seed. Prediction walks
one row at a time and sums the trees' votes in tree order.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_X, check_X_y
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, _Node, n_candidate_features


def _gini(n_pos: float, n_total: float) -> float:
    if n_total == 0:
        return 0.0
    p = n_pos / n_total
    return 2.0 * p * (1.0 - p)


def best_split(
    X: np.ndarray, y: np.ndarray, features: np.ndarray, min_leaf: int
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, impurity_decrease) or None if no split."""
    n = len(y)
    parent_impurity = _gini(float(y.sum()), float(n))
    best: tuple[int, float, float] | None = None
    for f in features:
        order = np.argsort(X[:, f], kind="mergesort")
        xs = X[order, f]
        pos_cum = np.cumsum(y[order])
        total_pos = float(pos_cum[-1])
        n_left = np.arange(1, n, dtype=float)  # split after position i
        valid = xs[1:] > xs[:-1]
        valid &= (n_left >= min_leaf) & (n - n_left >= min_leaf)
        if not valid.any():
            continue
        pos_left = pos_cum[:-1].astype(float)
        pos_right = total_pos - pos_left
        n_right = n - n_left
        with np.errstate(divide="ignore", invalid="ignore"):
            p_left = pos_left / n_left
            p_right = pos_right / n_right
            impurity = (
                n_left * 2.0 * p_left * (1.0 - p_left)
                + n_right * 2.0 * p_right * (1.0 - p_right)
            ) / n
        decrease = np.where(valid, parent_impurity - impurity, -np.inf)
        i = int(np.argmax(decrease))
        if decrease[i] > 1e-12 and (best is None or decrease[i] > best[2]):
            threshold = (xs[i] + xs[i + 1]) / 2.0
            if threshold >= xs[i + 1]:  # midpoint rounded up to the
                threshold = xs[i]  # upper value; fall back to "<= xs[i]"
            best = (int(f), float(threshold), float(decrease[i]))
    return best


def build(
    tree: DecisionTreeClassifier,
    X: np.ndarray,
    y: np.ndarray,
    depth: int,
    rng: np.random.Generator,
    importances: np.ndarray,
) -> _Node:
    n = len(y)
    n_pos = float(y.sum())
    node = _Node(n_samples=n, positive_fraction=n_pos / n)
    if (
        n < tree.min_samples_split
        or n_pos in (0.0, float(n))
        or (tree.max_depth is not None and depth >= tree.max_depth)
    ):
        return node
    k = n_candidate_features(tree.max_features, X.shape[1])
    if k < X.shape[1]:
        features = rng.choice(X.shape[1], size=k, replace=False)
    else:
        features = np.arange(X.shape[1])
    split = best_split(X, y, features, tree.min_samples_leaf)
    if split is None:
        return node
    feature, threshold, decrease = split
    mask = X[:, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = build(tree, X[mask], y[mask], depth + 1, rng, importances)
    node.right = build(tree, X[~mask], y[~mask], depth + 1, rng, importances)
    importances[feature] += decrease * n
    return node


def reference_tree(X, y, **params) -> DecisionTreeClassifier:
    """A :class:`DecisionTreeClassifier` fitted by the recursive grower."""
    X, y = check_X_y(X, y)
    tree = DecisionTreeClassifier(**params)
    importances = np.zeros(X.shape[1])
    root = build(tree, X, y, 0, np.random.default_rng(tree.seed), importances)
    total = importances.sum()
    if total > 0:
        importances /= total
    tree._root = root
    tree._n_features = X.shape[1]
    tree._importances = importances
    tree._fitted = True
    return tree


def reference_forest(X, y, n_trees: int, seed: int = 0, **params) -> RandomForestClassifier:
    """A :class:`RandomForestClassifier` of recursively grown trees."""
    X, y = check_X_y(X, y)
    params.setdefault("max_features", "sqrt")
    forest = RandomForestClassifier(n_trees=n_trees, seed=seed, **params)
    rng = np.random.default_rng(seed)
    n = len(y)
    trees = []
    for _ in range(n_trees):
        indices = rng.integers(0, n, size=n)
        tree_seed = int(rng.integers(0, 2**31 - 1))
        trees.append(reference_tree(X[indices], y[indices], seed=tree_seed, **params))
    forest._trees = trees
    forest._fitted = True
    return forest


def _leaf_for(root: _Node, x: np.ndarray) -> _Node:
    node = root
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node


def reference_proba(model, X) -> np.ndarray:
    """Per-row walk of every tree, votes summed in tree order."""
    X = check_X(X)
    if isinstance(model, DecisionTreeClassifier):
        return np.array([_leaf_for(model._root, x).positive_fraction for x in X])
    votes = np.zeros(len(X))
    for tree in model._trees:
        votes += np.array([_leaf_for(tree._root, x).positive_fraction for x in X])
    return votes / len(model._trees)
