"""Unit tests for case-study submodules (beyond the integration tests)."""

import os

import pytest

from repro.casestudy.report import (
    PAPER_ACCURACY,
    PAPER_BLOCKING,
    PAPER_LABELING,
    PAPER_MATCHING,
    PAPER_UPDATED_WORKFLOW,
    ReportRow,
    interval_str,
    render_report,
)
from repro.casestudy.sampling import is_d1, is_d2, is_d3, make_oracles
from repro.casestudy.workflows import positive_rules
from repro.evaluation.corleone import Interval
from repro.labeling import Label


class TestReport:
    def test_render_contains_rows(self):
        text = render_report(
            "demo", [ReportRow("metric", 10, 12), ReportRow("other", "x", "y")]
        )
        assert "demo" in text
        assert "paper=" in text and "measured=" in text
        assert "metric" in text and "12" in text

    def test_interval_str_accepts_tuple_and_interval(self):
        assert interval_str((0.5, 0.75)) == "(50.0%, 75.0%)"
        assert interval_str(Interval(0.5, 0.75)) == "(50.0%, 75.0%)"

    def test_paper_constants_consistent(self):
        # internal consistency of the transcribed paper numbers
        assert PAPER_LABELING["final_yes"] + PAPER_LABELING["final_no"] + \
            PAPER_LABELING["final_unsure"] == PAPER_LABELING["total_labeled"]
        assert PAPER_MATCHING["sure_matches"] + PAPER_MATCHING["predicted"] == \
            PAPER_MATCHING["total_matches"]
        assert PAPER_BLOCKING["cartesian_product"] == 1336 * 1915
        assert (
            PAPER_UPDATED_WORKFLOW["rule2_pairs_in_C"]
            < PAPER_UPDATED_WORKFLOW["rule2_pairs_in_product"]
        )
        for matcher in PAPER_ACCURACY.values():
            if isinstance(matcher, dict):
                for low, high in matcher.values():
                    assert low <= high


class TestDiscrepancyPredicates:
    def test_d1_detects_multistate_suffix(self):
        assert is_d1({}, {"AwardTitle": "Corn Study NC-213"})
        assert not is_d1({}, {"AwardTitle": "Corn Study"})
        assert not is_d1({}, {"AwardTitle": None})

    def test_d2_comparable_numbers(self):
        l_row = {"AwardNumber": "10.200 WIS01040"}
        assert is_d2(l_row, {"AwardNumber": None, "ProjectNumber": "WIS04509"})
        assert not is_d2(l_row, {"AwardNumber": None, "ProjectNumber": "WIS01040"})

    def test_d3_missing_award_number(self):
        assert is_d3({}, {"AwardNumber": None})
        assert not is_d3({}, {"AwardNumber": "2008-11111-22222"})


class TestOracleFactory:
    def test_three_distinct_oracles(self):
        authority, student, em_team = make_oracles({("u", 1)}, seed=9)
        assert authority.seed != student.seed != em_team.seed
        # the authority is the most reliable of the three
        assert authority.error_probability <= student.error_probability
        assert authority.error_probability <= em_team.error_probability

    def test_oracles_share_truth(self):
        truth = {("u", 1), ("v", 2)}
        for oracle in make_oracles(truth, seed=1):
            assert oracle.truth == truth

    def test_authority_resolution_is_truth(self):
        authority, _, _ = make_oracles({("u", 1)}, seed=2)
        assert authority.resolve(("u", 1)) is Label.YES
        assert authority.resolve(("w", 9)) is Label.NO


class TestWorkflowHelpers:
    def test_positive_rules_are_the_two_paper_rules(self):
        rules = positive_rules()
        assert [r.name for r in rules] == ["M1", "award_number=project_number"]

    def test_rules_use_projected_attributes(self):
        for rule in positive_rules():
            assert rule.l_attr == "AwardNumber"
            assert rule.r_attr in ("AwardNumber", "ProjectNumber")


class TestStrayPredictionAudit:
    def test_strays_are_dropped_and_counted(self):
        import numpy as np

        from repro.blocking import CandidateSet
        from repro.casestudy.accuracy import run_accuracy_estimation
        from repro.labeling import ExpertOracle
        from repro.table import Table

        left = Table({"id": list(range(30))}, name="L")
        right = Table({"id": list(range(30))}, name="R")
        universe = CandidateSet(
            left, right, "id", "id", [(i, i) for i in range(20)]
        )
        truth = {(i, i) for i in range(8)}
        # the matcher predicts one pair outside the universe — the paper's
        # "terminated award" situation
        predictions = {"m": [(i, i) for i in range(8)] + [(25, 25)]}
        outcome = run_accuracy_estimation(
            universe, predictions, ExpertOracle(truth),
            sample_sizes=(15,), seed=0,
        )
        assert outcome.stray_predictions_dropped["m"] == 1
        estimate = outcome.estimates_by_stage[15]["m"]
        assert estimate.precision.contains(1.0)


# ----------------------------------------------------------------------
# Section 8: traced child stages and the leave-one-out fold fan-out
# ----------------------------------------------------------------------
def _section8_inputs(run):
    from repro.casestudy.matching import base_feature_set

    return run.blocking_v2.candidates, run.projected.truth, base_feature_set(run.projected)


def test_labeling_traces_rounds_and_loo_stages(case_study):
    from repro.casestudy.sampling import run_sampling_and_labeling
    from repro.runtime import EngineSession, Instrumentation

    candidates, truth, features = _section8_inputs(case_study)
    instrumentation = Instrumentation()
    with EngineSession(instrumentation=instrumentation) as session:
        outcome = run_sampling_and_labeling(
            candidates, truth, features, rounds=(40, 20), session=session
        )
    names = [child.name for child in instrumentation.root.children]
    assert names[:2] == ["sec8:label_rounds", "sec8:loo"]
    loo = instrumentation.root.find("sec8:loo")
    assert 0 < loo.counters["loo_folds"] <= 60
    assert loo.counters["trees_grown"] == 30 * loo.counters["loo_folds"]
    assert sum(outcome.discrepancy_buckets.values()) <= loo.counters["loo_folds"]


@pytest.mark.parallel
@pytest.mark.skipif(
    int(os.environ.get("REPRO_WORKERS", "2")) < 2,
    reason="REPRO_WORKERS < 2 disables parallel-equivalence tests",
)
def test_debug_labels_on_pool_equals_serial(case_study):
    from repro.labeling import debug_labels
    from repro.ml import RandomForestClassifier
    from repro.runtime import EngineSession

    candidates, _, features = _section8_inputs(case_study)
    labels = case_study.labeling.labels
    model = RandomForestClassifier(n_trees=6, min_samples_leaf=2, seed=0)
    serial = debug_labels(candidates, labels, features, model=model)
    with EngineSession(workers=2) as session:
        parallel = debug_labels(
            candidates, labels, features, model=model, session=session
        )
    assert serial and parallel == serial
