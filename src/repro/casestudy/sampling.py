"""Section 8 — sampling and labeling, with all its logistics.

The protocol the two teams actually followed:

1. sample 100 pairs from C, upload them to the cloud labeling tool; the
   UMETRICS team's trained student labels them (one session at a time);
2. the EM team labels the same pairs with its own understanding;
   cross-checking the two label sets surfaced 22 mismatches, discussed in
   a face-to-face meeting where the UMETRICS team updated 4 labels;
3. two more iterations of 100 pairs each are labeled by the (now
   calibrated) expert team — 300 labeled pairs total;
4. the labeled sample is debugged with leave-one-out cross-validation;
   discrepancies fall into classes D1 (similar titles, "NC/NRSP" suffix),
   D2 (different numbers, same titles) and D3 (missing USDA number,
   similar titles); the domain experts rule: D1 -> Unsure, D2 -> keep,
   D3 -> match if the transaction dates are within a couple of years.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..blocking.candidate_set import CandidateSet, Pair
from ..datasets import vocab
from ..datasets.scenario import make_borderline_predicate, numbers_comparable_but_differ
from ..features.generate import FeatureSet
from ..labeling import (
    CloudLabelingTool,
    ExpertOracle,
    Label,
    LabelCounts,
    LabelDiscrepancy,
    LabeledPairs,
    StudentLabeler,
    cross_check,
    debug_labels,
    group_discrepancies,
    resolve_with_authority,
)
from ..rules.positive import m1_rule
from ..runtime.context import EngineSession, resolve_session
from ..runtime.instrument import stage
from ..similarity.numeric import years_within
from ..table.column import is_missing
from ..text.normalize import normalize_title


@dataclass(frozen=True)
class LabelingOutcome:
    """Everything Section 8 produced."""

    labels: LabeledPairs  # final, post-debugging
    iteration_counts: tuple[LabelCounts, ...]
    initial_mismatches: int
    labels_updated_after_meeting: int
    discrepancy_buckets: dict[str, int]
    labels_updated_after_debugging: int

    def summary(self) -> str:
        return (
            f"labels: {self.labels.counts()}; "
            f"round-1 cross-check mismatches: {self.initial_mismatches} "
            f"({self.labels_updated_after_meeting} updated); "
            f"LOO discrepancy buckets: {self.discrepancy_buckets} "
            f"({self.labels_updated_after_debugging} updated)"
        )


def make_oracles(
    truth: set[Pair], seed: int
) -> tuple[ExpertOracle, StudentLabeler, ExpertOracle]:
    """(domain-expert authority, trained student, EM-team labeler).

    The authority is the UMETRICS team after discussion — mild unsure rate
    on genuinely hard pairs, essentially no errors. The *trained student*
    carries the domain knowledge and errs rarely; the EM team, labeling
    "using our own understanding of the match definition", errs more —
    which is why the paper's round-1 cross-check surfaced 22 mismatches
    but the meeting only flipped 4 of the student's labels.
    """
    borderline = make_borderline_predicate()
    authority = ExpertOracle(
        truth, borderline=borderline,
        unsure_probability=0.17, error_probability=0.02, seed=seed,
    )
    student = StudentLabeler(
        truth, borderline=borderline,
        unsure_probability=0.22, error_probability=0.08, seed=seed + 1,
    )
    em_team = ExpertOracle(
        truth, borderline=borderline,
        unsure_probability=0.12, error_probability=0.28, seed=seed + 2,
    )
    return authority, student, em_team


# --- discrepancy-class predicates (over projected-table rows) -----------
_MULTISTATE_MARKERS = tuple(normalize_title(c) for c in vocab.MULTISTATE_CODES)


def is_d1(l_row: dict[str, Any], r_row: dict[str, Any]) -> bool:
    """D1: the USDA title carries a multistate NC/NRSP suffix."""
    title = r_row.get("AwardTitle")
    if is_missing(title):
        return False
    normalized = str(normalize_title(title))
    return any(marker in normalized for marker in _MULTISTATE_MARKERS)


def is_d2(l_row: dict[str, Any], r_row: dict[str, Any]) -> bool:
    """D2: identifying numbers present but different."""
    return numbers_comparable_but_differ(l_row, r_row)


def is_d3(l_row: dict[str, Any], r_row: dict[str, Any]) -> bool:
    """D3: the USDA award number is missing (titles must decide)."""
    return is_missing(r_row.get("AwardNumber"))


def run_sampling_and_labeling(
    candidates: CandidateSet,
    truth: set[Pair],
    feature_set: FeatureSet,
    seed: int = 45,
    rounds: tuple[int, ...] = (100, 100, 100),
    session: EngineSession | None = None,
) -> LabelingOutcome:
    """Execute the full Section-8 protocol.

    Traced under the resolved *session* as two child stages: the
    labeling rounds (``sec8:label_rounds``) and the leave-one-out label
    debugging (``sec8:loo``, whose folds fan out over the session pool).
    """
    session = resolve_session(session)
    instrumentation = session.instrumentation
    rng = np.random.default_rng(seed)
    authority, student, em_team = make_oracles(truth, seed)
    tool = CloudLabelingTool()

    iteration_counts: list[LabelCounts] = []
    initial_mismatches = 0
    updated_after_meeting = 0

    with stage(instrumentation, "sec8:label_rounds"):
        # --- iteration 1: student labels, EM team cross-checks ------------
        sampled = candidates.sample(rounds[0], rng)
        tool.upload_pairs(sampled)
        tool.open_session("umetrics-student")
        student_labels = student.label_pairs(candidates, sampled)
        for pair, label in student_labels.items():
            tool.submit_label(pair, label)
        tool.close_session()

        em_labels = em_team.label_pairs(candidates, sampled)
        disagreements = cross_check(tool.labeled(), em_labels)
        initial_mismatches = len(disagreements)
        resolved, updated_after_meeting = resolve_with_authority(
            tool.labeled(), disagreements, authority
        )
        for pair in resolved.pairs():
            if resolved.get(pair) is not tool.labeled().get(pair):
                tool.update_label(pair, resolved.get(pair))
        iteration_counts.append(tool.labeled().counts())

        # --- iterations 2..n: the calibrated expert team labels -----------
        for round_size in rounds[1:]:
            already = set(tool.labeled().pairs())
            fresh: list[Pair] = []
            while len(fresh) < round_size:
                for pair in candidates.sample(round_size * 2, rng):
                    if pair not in already and pair not in set(fresh):
                        fresh.append(pair)
                        if len(fresh) == round_size:
                            break
            tool.upload_pairs(fresh)
            tool.open_session("umetrics-team")
            for pair, label in authority.label_pairs(candidates, fresh).items():
                tool.submit_label(pair, label)
            tool.close_session()
            iteration_counts.append(tool.labeled().counts())

    labels = tool.labeled()

    # --- debugging the labeled sample ----------------------------------
    sure = [p for p in labels.pairs() if _m1_fires(candidates, p)]
    with stage(instrumentation, "sec8:loo"):
        discrepancies = debug_labels(
            candidates, labels, feature_set, exclude_pairs=sure, session=session
        )
    buckets = group_discrepancies(
        candidates, discrepancies,
        classifiers={"D1": is_d1, "D2": is_d2, "D3": is_d3},
    )
    updated = 0
    for discrepancy in buckets["D1"]:
        labels.set(discrepancy.pair, Label.UNSURE)
        updated += 1
    # D2: labels retained as given.
    for discrepancy in buckets["D3"]:
        l_row, r_row = candidates.record_pair(discrepancy.pair)
        if discrepancy.predicted_label == 1 and years_within(
            l_row.get("FirstTransDate"), r_row.get("FirstTransDate"), max_gap=2
        ):
            if authority.is_match(discrepancy.pair) and labels.get(
                discrepancy.pair
            ) is not Label.YES:
                labels.set(discrepancy.pair, Label.YES)
                updated += 1
    return LabelingOutcome(
        labels=labels,
        iteration_counts=tuple(iteration_counts),
        initial_mismatches=initial_mismatches,
        labels_updated_after_meeting=updated_after_meeting,
        discrepancy_buckets={k: len(v) for k, v in buckets.items()},
        labels_updated_after_debugging=updated,
    )


def _m1_fires(candidates: CandidateSet, pair: Pair) -> bool:
    l_row, r_row = candidates.record_pair(pair)
    return m1_rule().matches(l_row, r_row)
