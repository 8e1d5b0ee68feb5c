"""CART decision-tree classifier (gini impurity, binary splits).

The decision tree is the learner the case study ultimately ships (it won
model selection after case-handling features were added), and its structure
is what the matcher debugger explains — so the tree exposes its internals:
:meth:`DecisionTreeClassifier.decision_path` returns the tests a record
passes through, and :func:`export_rules` renders the tree as text.

Growth is batched: :func:`grow_trees` builds the ``T`` trees of a forest
(``T = 1`` for a lone tree) in lock-step. Feature values are ranked once
per fit; a node owns a range of its tree's rows, kept in ascending row
order, and a split stably partitions that range. Every step pops the next
drawing node of each tree (in preorder, so the feature draws keep their
order) and scores all popped nodes' candidate features in one segmented
numpy pass, sorting each node's rows by rank. Splits, feature draws and
importances are bit-identical to a recursive CART that mergesorts every
node (``tests/oracles/cart_reference.py``). A fitted tree is a
:class:`FlatTree`; the linked :class:`_Node` view is built on demand.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .base import Classifier, check_X, check_X_y


@dataclass
class _Node:
    """One tree node; leaves have ``feature is None``."""

    n_samples: int
    positive_fraction: float
    feature: int | None = None
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class FlatTree:
    """A fitted tree as preorder parallel node arrays.

    Leaves point to themselves (``left == right == own index``, feature
    0, threshold +inf), so ``depth`` descent steps park every row on its
    leaf without per-row bookkeeping. ``value`` is each node's positive
    fraction.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    depth: int

    @classmethod
    def from_lists(cls, columns: list[list], depth: int) -> "FlatTree":
        """Build from ``[feature, threshold, left, right, value, n_samples]``."""
        feature, threshold, left, right, value, n_samples = columns
        return cls(
            feature=np.array(feature, dtype=np.intp),
            threshold=np.array(threshold, dtype=float),
            left=np.array(left, dtype=np.intp),
            right=np.array(right, dtype=np.intp),
            value=np.array(value, dtype=float),
            n_samples=np.array(n_samples, dtype=np.intp),
            depth=depth,
        )


def n_candidate_features(max_features: int | str | None, n_features: int) -> int:
    """Features examined per split for a *max_features* setting."""
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    n = int(max_features)
    if n < 1:
        raise ValueError(f"max_features must be >= 1, got {n}")
    return min(n, n_features)


class _Draws:
    """The successive ``choice(n_features, k, replace=False)`` draws of a
    fresh ``default_rng(seed)``.

    Leave-one-out and cross-validation folds regrow trees with the same
    seeds, so :func:`_draws` memoises the sequences per process and a
    refit replays them instead of re-drawing. The draws are a pure
    function of ``(seed, n_features, k)``, so sharing one memo between
    callers cannot change a result; the lock keeps concurrent extenders
    from interleaving.
    """

    def __init__(self, seed, n_features: int, k: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._args = (n_features, k)
        self._drawn: list[np.ndarray] = []
        self._lock = threading.Lock()

    def __getitem__(self, j: int) -> np.ndarray:
        drawn = self._drawn
        if j >= len(drawn):
            n_features, k = self._args
            with self._lock:
                while j >= len(drawn):
                    drawn.append(self._rng.choice(n_features, size=k, replace=False))
        return drawn[j]


@lru_cache(maxsize=512)
def _seeded_draws(seed: int, n_features: int, k: int) -> _Draws:
    return _Draws(seed, n_features, k)


def _draws(seed, n_features: int, k: int) -> _Draws:
    """The draw sequence for a tree seed; only integer seeds replay."""
    if isinstance(seed, (int, np.integer)):
        return _seeded_draws(int(seed), n_features, k)
    return _Draws(seed, n_features, k)


def _segments(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner, offset, within) for segments of *lengths* laid end to end:
    each element's segment id, each segment's first element, and each
    element's position inside its segment."""
    offset = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(len(lengths)), lengths)
    within = np.arange(int(lengths.sum())) - offset[owner]
    return owner, offset, within


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Per-column dense value ranks: equal values share a rank, so a
    stable sort by rank is a stable sort by value."""
    order = np.argsort(X, axis=0, kind="stable")
    ascending = np.take_along_axis(X, order, axis=0)
    steps = np.zeros(X.shape, dtype=np.int32)
    steps[1:] = ascending[1:] > ascending[:-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=0, dtype=np.int32), axis=0)
    return ranks


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    samples: np.ndarray,
    seeds: Sequence[int],
    *,
    max_depth: int | None,
    min_samples_split: int,
    min_samples_leaf: int,
    max_features: int | str | None,
) -> list[tuple[FlatTree, np.ndarray]]:
    """Grow tree ``t`` on rows ``X[samples[t]]`` with ``seeds[t]``, all in
    lock-step.

    *samples* is a ``(T, n)`` row-index stack (bootstrap draws, or one
    ``arange`` row for a lone tree). Returns ``(flat tree, normalised
    importances)`` per tree.
    """
    T, n = samples.shape
    F = X.shape[1]
    k = n_candidate_features(max_features, F)
    all_features = np.arange(F)
    # A tree row is g = t*n + r, r indexing into samples[t].
    base_row = samples.ravel()
    ranks = _dense_ranks(X)
    n_ranks = int(ranks.max()) + 1 if ranks.size else 1
    rank_flat = ranks[base_row].ravel()  # rank of tree row g, feature f at g*F + f
    y_flat = y[base_row]
    # Each node owns a range of its tree's slice of ``rows``, ascending.
    rows = np.arange(T * n)
    went_left = np.zeros(T * n, dtype=bool)
    draws = [_draws(seed, F, k) for seed in seeds]
    n_drawn = [0] * T
    # per tree, in preorder: feature, threshold, left, right, value, n_samples
    nodes: list[list[list]] = [[[], [], [], [], [], []] for _ in range(T)]
    gains: list[dict[int, float]] = [{} for _ in range(T)]
    # stack entries: start, end, depth, n_pos, parent index, side
    stacks = [
        [(t * n, (t + 1) * n, 0, int(y_flat[t * n : (t + 1) * n].sum()), -1, 0)]
        for t in range(T)
    ]

    while True:
        popped = []  # (t, start, m, depth, index) of drawing nodes
        drawn = []
        parent_impurity = []
        for t, stack in enumerate(stacks):
            # Pop up to the tree's next drawing node: leaves draw nothing
            # and have no subtree, so the rng still sees preorder.
            while stack:
                start, end, depth, n_pos, parent, side = stack.pop()
                m = end - start
                feature, threshold, left, right, value, n_samples = nodes[t]
                index = len(value)
                feature.append(0)
                threshold.append(np.inf)
                left.append(index)
                right.append(index)
                value.append(n_pos / m)
                n_samples.append(m)
                if parent >= 0:
                    (left if side == 0 else right)[parent] = index
                if (
                    m < min_samples_split
                    or not k
                    or n_pos == 0
                    or n_pos == m
                    or (max_depth is not None and depth >= max_depth)
                ):
                    continue
                if k < F:
                    drawn.append(draws[t][n_drawn[t]])
                    n_drawn[t] += 1
                else:
                    drawn.append(all_features)
                popped.append((t, start, m, depth, index))
                frac = n_pos / m
                parent_impurity.append(2.0 * frac * (1.0 - frac))
                break
        if not popped:
            break

        # --- score every popped node's candidate features at once --------
        node_start = np.array([p[1] for p in popped])
        node_m = np.array([p[2] for p in popped])
        seg_f = np.concatenate(drawn)
        seg_m = np.repeat(node_m, k)
        owner, seg_off, within = _segments(seg_m)
        g = rows[np.repeat(node_start, k)[owner] + within]
        key = owner * n_ranks + rank_flat[g * F + seg_f[owner]]
        perm = np.argsort(
            key.astype(np.int16 if len(seg_m) * n_ranks < 2**15 else np.int64),
            kind="stable",
        )
        g = g[perm]
        key = key[perm]
        pos_cum = np.cumsum(y_flat[g])
        pos_cum -= (pos_cum[seg_off] - y_flat[g[seg_off]])[owner]
        seg_last = seg_off + seg_m - 1
        total_pos = pos_cum[seg_last].astype(float)

        # split after position i: the value changes there and both
        # children keep min_samples_leaf rows
        changes = np.zeros(len(g), dtype=bool)
        changes[:-1] = key[1:] > key[:-1]
        changes[seg_last] = False
        cand = np.flatnonzero(
            changes
            & (within >= min_samples_leaf - 1)
            & (within < seg_m[owner] - min_samples_leaf)
        )
        if not len(cand):
            continue
        c_seg = owner[cand]
        n_node = seg_m[c_seg]
        n_left = (within[cand] + 1).astype(float)
        pos_left = pos_cum[cand].astype(float)
        pos_right = total_pos[c_seg] - pos_left
        n_right = n_node - n_left
        p_left = pos_left / n_left
        p_right = pos_right / n_right
        impurity = (
            n_left * 2.0 * p_left * (1.0 - p_left)
            + n_right * 2.0 * p_right * (1.0 - p_right)
        ) / n_node
        decrease = np.array(parent_impurity)[c_seg // k] - impurity
        # first maximum per node: draw order across features, then position
        per_node = np.bincount(c_seg // k, minlength=len(popped))
        scored = np.flatnonzero(per_node)
        starts = (np.cumsum(per_node) - per_node)[scored]
        best = np.maximum.reduceat(decrease, starts)
        at_best = decrease == np.repeat(best, per_node[scored])
        first = np.minimum.reduceat(
            np.where(at_best, np.arange(len(cand)), len(cand)), starts
        )
        keep = best > 1e-12
        if not keep.any():
            continue
        split = scored[keep]
        gain = best[keep]
        j = cand[first[keep]]
        split_f = seg_f[owner[j]]
        lower = X[base_row[g[j]], split_f]
        upper = X[base_row[g[j + 1]], split_f]
        thresholds = (lower + upper) / 2.0
        # midpoint rounded up to the upper value: fall back to "<= lower"
        thresholds = np.where(thresholds >= upper, lower, thresholds)
        split_left = within[j] + 1

        # --- stably partition each split node's row range ------------------
        l_owner, _, l_within = _segments(split_left)
        left_rows = g[seg_off[owner[j]][l_owner] + l_within]
        went_left[left_rows] = True
        p_owner, p_off, p_within = _segments(node_m[split])
        slots = node_start[split][p_owner] + p_within
        node_rows = rows[slots]
        is_left = went_left[node_rows]
        lefts = np.cumsum(is_left)
        lefts -= (lefts[p_off] - is_left[p_off])[p_owner]
        dest = np.where(is_left, lefts - 1, split_left[p_owner] + p_within - lefts)
        rows[slots - p_within + dest] = node_rows
        went_left[left_rows] = False

        for b, node_gain, f, threshold, n_l, pos_l, pos_all in zip(
            split.tolist(),
            gain.tolist(),
            split_f.tolist(),
            thresholds.tolist(),
            split_left.tolist(),
            pos_cum[j].tolist(),
            total_pos[owner[j]].tolist(),
        ):
            t, start, m, depth, index = popped[b]
            nodes[t][0][index] = f
            nodes[t][1][index] = threshold
            gains[t][index] = node_gain * m
            stacks[t].append(
                (start + n_l, start + m, depth + 1, int(pos_all) - pos_l, index, 1)
            )
            stacks[t].append((start, start + n_l, depth + 1, pos_l, index, 0))

    return [_finish(nodes[t], gains[t], F) for t in range(T)]


def _finish(
    columns: list[list], gains: dict[int, float], n_features: int
) -> tuple[FlatTree, np.ndarray]:
    """The tree's arrays plus its importances, summed in postorder (a
    node's gain lands after both of its subtrees', as in recursive CART)."""
    feature, _, left, right, _, _ = columns
    importances = np.zeros(n_features)
    depth = 0
    stack = [(0, 0, False)]
    while stack:
        index, level, expanded = stack.pop()
        if left[index] == index:
            depth = max(depth, level)
        elif expanded:
            importances[feature[index]] += gains[index]
        else:
            stack.append((index, level, True))
            stack.append((right[index], level + 1, False))
            stack.append((left[index], level + 1, False))
    total = importances.sum()
    if total > 0:
        importances /= total
    return FlatTree.from_lists(columns, depth), importances


def flatten(root: _Node) -> FlatTree:
    """The :class:`FlatTree` of a linked node structure."""
    columns: list[list] = [[], [], [], [], [], []]
    feature, threshold, left, right, value, n_samples = columns
    depth = 0
    stack = [(root, -1, 0, 0)]
    while stack:
        node, parent, side, level = stack.pop()
        index = len(value)
        if parent >= 0:
            (left if side == 0 else right)[parent] = index
        value.append(node.positive_fraction)
        n_samples.append(node.n_samples)
        left.append(index)
        right.append(index)
        if node.is_leaf:
            feature.append(0)
            threshold.append(np.inf)
            depth = max(depth, level)
        else:
            feature.append(node.feature)
            threshold.append(node.threshold)
            stack.append((node.right, index, 1, level + 1))
            stack.append((node.left, index, 0, level + 1))
    return FlatTree.from_lists(columns, depth)


def unflatten(flat: FlatTree) -> _Node:
    """The linked node structure of a :class:`FlatTree`."""
    nodes = [
        _Node(n_samples=int(n), positive_fraction=float(p))
        for n, p in zip(flat.n_samples, flat.value)
    ]
    for index, node in enumerate(nodes):
        if flat.left[index] != index:
            node.feature = int(flat.feature[index])
            node.threshold = float(flat.threshold[index])
            node.left = nodes[flat.left[index]]
            node.right = nodes[flat.right[index]]
    return nodes[0]


def concatenate(flats: Sequence[FlatTree]) -> tuple[FlatTree, np.ndarray]:
    """Several trees as one :class:`FlatTree`, plus each tree's root index."""
    sizes = np.array([len(f.value) for f in flats])
    roots = np.cumsum(sizes) - sizes
    forest = FlatTree(
        feature=np.concatenate([f.feature for f in flats]),
        threshold=np.concatenate([f.threshold for f in flats]),
        left=np.concatenate([f.left + r for f, r in zip(flats, roots)]),
        right=np.concatenate([f.right + r for f, r in zip(flats, roots)]),
        value=np.concatenate([f.value for f in flats]),
        n_samples=np.concatenate([f.n_samples for f in flats]),
        depth=max(f.depth for f in flats),
    )
    return forest, roots


def descend(tree: FlatTree, X: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Leaf values reached by every row of *X* from every root in *roots*.

    *tree* may concatenate several trees (their node indices offset);
    returns shape ``(len(roots), len(X))``.
    """
    n_rows = len(X)
    node = np.repeat(roots, n_rows)
    row = np.tile(np.arange(n_rows), len(roots))
    for _ in range(tree.depth):
        go_left = X[row, tree.feature[node]] <= tree.threshold[node]
        node = np.where(go_left, tree.left[node], tree.right[node])
    return tree.value[node].reshape(len(roots), n_rows)


class DecisionTreeClassifier(Classifier):
    """Binary CART tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (``None`` = unlimited).
    min_samples_split:
        A node with fewer samples becomes a leaf.
    min_samples_leaf:
        Splits producing a child smaller than this are rejected.
    max_features:
        Number of features examined per split: an int, ``"sqrt"``, or
        ``None`` for all features. Random forests pass ``"sqrt"``.
    seed:
        Seed for the feature sub-sampling (only used when *max_features*
        restricts the candidate set).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self._flat: FlatTree | None = None
        self._nodes: _Node | None = None
        self._n_features = 0
        self._importances: np.ndarray | None = None

    def _reset(self) -> None:
        super()._reset()
        self._root = None
        self._n_features = 0
        self._importances = None

    @property
    def _root(self) -> _Node | None:
        """The fitted tree as linked nodes, built from the flat arrays on
        first use (introspection, rules export, serialization)."""
        if self._nodes is None and self._flat is not None:
            self._nodes = unflatten(self._flat)
        return self._nodes

    @_root.setter
    def _root(self, root: _Node | None) -> None:
        self._nodes = root
        self._flat = None if root is None else flatten(root)

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def _adopt(self, grown: tuple[FlatTree, np.ndarray], n_features: int) -> None:
        self._flat, self._importances = grown
        self._nodes = None
        self._n_features = n_features
        self._fitted = True

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        (grown,) = grow_trees(
            X,
            y,
            np.arange(len(y))[None],
            [self.seed],
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
        )
        self._adopt(grown, X.shape[1])
        return self

    # ------------------------------------------------------------------
    # prediction & introspection
    # ------------------------------------------------------------------
    def flat(self) -> FlatTree:
        """The fitted tree as parallel node arrays."""
        self._require_fitted()
        return self._flat

    def predict_proba(self, X) -> np.ndarray:
        self._require_fitted()
        X = check_X(X)
        return descend(self.flat(), X, np.zeros(1, dtype=np.intp))[0]

    @property
    def feature_importances_(self) -> np.ndarray:
        self._require_fitted()
        return self._importances.copy()

    def decision_path(self, x) -> list[tuple[int, float, bool]]:
        """The tests record *x* passes: (feature, threshold, went_left)."""
        self._require_fitted()
        x = np.asarray(x, dtype=float)
        path = []
        node = self._root
        while not node.is_leaf:
            went_left = bool(x[node.feature] <= node.threshold)
            path.append((node.feature, node.threshold, went_left))
            node = node.left if went_left else node.right
        return path

    def depth(self) -> int:
        """Depth of the fitted tree (a lone leaf has depth 0)."""
        return self.flat().depth

    def leaves(self) -> Iterator[_Node]:
        """Iterate over the fitted tree's leaves (internal nodes excluded)."""
        self._require_fitted()

        def walk(node: _Node):
            if node.is_leaf:
                yield node
            else:
                yield from walk(node.left)
                yield from walk(node.right)

        yield from walk(self._root)


def export_rules(
    tree: DecisionTreeClassifier, feature_names: list[str] | None = None
) -> str:
    """Render a fitted tree as indented if/else text (debugger output)."""
    tree._require_fitted()

    def name(f: int) -> str:
        if feature_names is not None:
            return feature_names[f]
        return f"feature[{f}]"

    lines: list[str] = []

    def walk(node: _Node, indent: int) -> None:
        pad = "  " * indent
        if node.is_leaf:
            verdict = "MATCH" if node.positive_fraction >= 0.5 else "NON-MATCH"
            lines.append(
                f"{pad}-> {verdict} (p={node.positive_fraction:.2f}, n={node.n_samples})"
            )
            return
        lines.append(f"{pad}if {name(node.feature)} <= {node.threshold:.4f}:")
        walk(node.left, indent + 1)
        lines.append(f"{pad}else:  # {name(node.feature)} > {node.threshold:.4f}")
        walk(node.right, indent + 1)

    walk(tree._root, 0)
    return "\n".join(lines)
