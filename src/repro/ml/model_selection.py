"""Cross-validation and data-splitting utilities.

The case study uses five-fold cross-validation to select a matcher
(Section 9), a random half/half split for matcher debugging, and
leave-one-out cross-validation for label debugging (Section 8). All
splitters take explicit seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import MatcherError
from ..runtime.context import EngineSession, resolve_session
from ..runtime.executor import chunk_ranges
from ..runtime.instrument import count
from .base import Classifier
from .forest import RandomForestClassifier
from .metrics import PRF
from .tree import DecisionTreeClassifier


def kfold_indices(
    n: int, n_folds: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (train_indices, test_indices) for shuffled k-fold CV."""
    if n_folds < 2:
        raise MatcherError(f"need at least 2 folds, got {n_folds}")
    if n_folds > n:
        raise MatcherError(f"cannot make {n_folds} folds from {n} rows")
    order = rng.permutation(n)
    folds = np.array_split(order, n_folds)
    for i in range(n_folds):
        test = folds[i]
        train = np.concatenate([folds[j] for j in range(n_folds) if j != i])
        yield train, test


def stratified_kfold_indices(
    y: Sequence[int], n_folds: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """K-fold with per-class round-robin assignment, so every fold sees
    positives even when matches are rare (as in EM labeled samples)."""
    y = np.asarray(y, dtype=int)
    n = len(y)
    if n_folds < 2:
        raise MatcherError(f"need at least 2 folds, got {n_folds}")
    assignment = np.empty(n, dtype=int)
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        members = members[rng.permutation(len(members))]
        assignment[members] = np.arange(len(members)) % n_folds
    for i in range(n_folds):
        test = np.flatnonzero(assignment == i)
        train = np.flatnonzero(assignment != i)
        if len(test) == 0 or len(train) == 0:
            raise MatcherError(
                f"fold {i} is empty: {n} rows cannot be stratified into {n_folds} folds"
            )
        yield train, test


@dataclass(frozen=True)
class CVResult:
    """Cross-validation outcome for one classifier."""

    fold_scores: tuple[PRF, ...]

    @property
    def mean_precision(self) -> float:
        return float(np.mean([s.precision for s in self.fold_scores]))

    @property
    def mean_recall(self) -> float:
        return float(np.mean([s.recall for s in self.fold_scores]))

    @property
    def mean_f1(self) -> float:
        return float(np.mean([s.f1 for s in self.fold_scores]))

    def summary(self) -> PRF:
        return PRF(self.mean_precision, self.mean_recall, self.mean_f1)


def cross_validate(
    model: Classifier,
    X: np.ndarray,
    y: Sequence[int],
    n_folds: int = 5,
    seed: int = 0,
    stratified: bool = True,
) -> CVResult:
    """K-fold cross-validate *model*, returning per-fold precision/recall/F1.

    The model is cloned per fold, so the passed instance is left untouched.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(seed)
    splitter = (
        stratified_kfold_indices(y, n_folds, rng)
        if stratified
        else kfold_indices(len(y), n_folds, rng)
    )
    scores = []
    for train, test in splitter:
        fold_model = model.clone()
        fold_model.fit(X[train], y[train])
        predictions = fold_model.predict(X[test])
        scores.append(PRF.from_labels(y[test], predictions))
    return CVResult(tuple(scores))


def train_test_split(
    n: int, test_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Shuffled index split; returns (train_indices, test_indices)."""
    if not 0.0 < test_fraction < 1.0:
        raise MatcherError(f"test_fraction must be in (0,1), got {test_fraction}")
    order = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    if n_test >= n:
        raise MatcherError(f"test split of {n_test} leaves no training rows (n={n})")
    return order[n_test:], order[:n_test]


def _loo_chunk(
    model: Classifier, X: np.ndarray, y: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """Leave-one-out predictions for folds ``start..stop-1`` (pool chunk)."""
    indices = np.arange(len(y))
    predictions = np.zeros(stop - start, dtype=int)
    for i in range(start, stop):
        rest = indices[indices != i]
        fold_model = model.clone()
        fold_model.fit(X[rest], y[rest])
        predictions[i - start] = int(fold_model.predict(X[i : i + 1])[0])
    return predictions


def _trees_per_fit(model: Classifier) -> int:
    """CART trees one fit of *model* grows (0 for other learners)."""
    if isinstance(model, RandomForestClassifier):
        return model.n_trees
    return int(isinstance(model, DecisionTreeClassifier))


def leave_one_out_predictions(
    model: Classifier,
    X: np.ndarray,
    y: Sequence[int],
    session: EngineSession | None = None,
) -> np.ndarray:
    """Predict each row from a model trained on all the *other* rows.

    This is the Section-8 label-debugging procedure: rows whose prediction
    disagrees with their label are candidate labeling errors.

    The folds are independent and every clone carries the model's seed,
    so contiguous fold ranges run as chunks on the resolved session's
    worker pool with results identical to the serial loop. The open
    stage gets ``loo_folds`` and ``trees_grown`` counters.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = len(y)
    if n < 2:
        raise MatcherError("leave-one-out needs at least 2 rows")
    resolved = resolve_session(session)
    ranges = chunk_ranges(n, resolved.pool_width)
    chunks = resolved.map_chunks(
        _loo_chunk,
        [(model, X, y, start, stop) for start, stop in ranges],
        sizes=[stop - start for start, stop in ranges],
    )
    count(resolved.instrumentation, "loo_folds", n)
    count(resolved.instrumentation, "trees_grown", n * _trees_per_fit(model))
    return np.concatenate(chunks)
