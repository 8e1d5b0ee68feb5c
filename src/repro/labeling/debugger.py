"""Label debugging via leave-one-out cross-validation.

Section 8, "Debugging the Labeled Sample": train an ML matcher on all
labeled pairs but one, predict the held-out pair, and flag disagreements
with the human label as potential labeling errors. The case study used a
random forest, removed Unsure pairs and sure matches (M1 pairs) first, and
grouped the surviving discrepancies into classes (D1-D3) for discussion
with the domain experts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..blocking.candidate_set import CandidateSet, Pair
from ..features.generate import FeatureSet
from ..features.vectors import extract_feature_vectors
from ..ml import MeanImputer, RandomForestClassifier, leave_one_out_predictions
from ..ml.base import Classifier
from ..runtime.context import EngineSession, resolve_session
from .labels import LabeledPairs


@dataclass(frozen=True)
class LabelDiscrepancy:
    """A labeled pair whose leave-one-out prediction disagrees."""

    pair: Pair
    given_label: int
    predicted_label: int


def debug_labels(
    candidates: CandidateSet,
    labels: LabeledPairs,
    feature_set: FeatureSet,
    exclude_pairs: Sequence[Pair] = (),
    model: Classifier | None = None,
    session: EngineSession | None = None,
) -> list[LabelDiscrepancy]:
    """Run leave-one-out label debugging.

    *labels* should already contain only Yes/No pairs (call
    ``without_unsure()`` first); *exclude_pairs* removes sure matches, as
    the paper does — an exact-rule match needs no statistical check.
    Feature extraction and the leave-one-out folds run under the resolved
    *session* (its pool fans the folds out; results equal the serial run).
    """
    resolved = resolve_session(session)
    working = labels.without_unsure().without_pairs(exclude_pairs)
    pairs, y = working.to_training_data()
    if model is None:
        model = RandomForestClassifier(n_trees=30, min_samples_leaf=2, seed=0)
    matrix = extract_feature_vectors(
        candidates, feature_set, pairs=pairs, session=resolved
    )
    values = MeanImputer().fit_transform(matrix.values)
    predicted = leave_one_out_predictions(
        model, values, np.asarray(y), session=resolved
    )
    return [
        LabelDiscrepancy(pair=pairs[i], given_label=int(y[i]), predicted_label=int(p))
        for i, p in enumerate(predicted)
        if int(p) != int(y[i])
    ]


def group_discrepancies(
    candidates: CandidateSet,
    discrepancies: Sequence[LabelDiscrepancy],
    classifiers: dict[str, Callable[[dict, dict], bool]],
) -> dict[str, list[LabelDiscrepancy]]:
    """Bucket discrepancies by caller-supplied record-pair predicates.

    The case study's buckets were D1 (similar titles, USDA title carries an
    "NC/NRSP" suffix), D2 (different award numbers, same titles) and D3
    (missing USDA award number, similar titles). Discrepancies matching no
    predicate land in the ``"other"`` bucket.
    """
    buckets: dict[str, list[LabelDiscrepancy]] = {name: [] for name in classifiers}
    buckets["other"] = []
    for discrepancy in discrepancies:
        l_row, r_row = candidates.record_pair(discrepancy.pair)
        for name, predicate in classifiers.items():
            if predicate(l_row, r_row):
                buckets[name].append(discrepancy)
                break
        else:
            buckets["other"].append(discrepancy)
    return buckets
