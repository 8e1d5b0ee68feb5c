"""Golden end-to-end regression test for the Figure 8→10 pipeline.

Runs the whole case study over the small synthetic scenario and pins the
headline counts — sure matches, blocked pairs, predicted matches, final
matches, stage by stage — against ``tests/golden/case_study_small.json``.
Any drift in blocking, feature generation, training or the workflow
combinators changes at least one number and fails loudly with a full diff.

To refresh after an *intended* behaviour change::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden

then review the snapshot diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "golden" / "case_study_small.json"


def workflow_counts(result) -> dict:
    """Headline counts of one EMWorkflow run (a WorkflowResult)."""
    return {
        "sure_matches": len(result.sure_matches),
        "blocked_pairs": len(result.blocked),
        "to_predict": len(result.to_predict),
        "predicted_matches": len(result.predicted_matches),
        "flipped": len(result.flipped),
        "final_matches": len(result.matches),
    }


def snapshot(run) -> dict:
    """Every headline number of a case-study run, JSON-shaped."""
    blocking = run.blocking_v2
    labeling = run.labeling
    counts = labeling.labels.counts()
    buckets = labeling.discrepancy_buckets
    matching = run.matching
    updated = run.updated_workflow
    final = run.final_workflow
    return {
        "blocking": {
            "c1_attr_equiv": len(blocking.c1),
            "c2_overlap": len(blocking.c2),
            "c3_coefficient": len(blocking.c3),
            "candidates": len(blocking.candidates),
        },
        "labeling": {
            "yes": counts.yes,
            "no": counts.no,
            "unsure": counts.unsure,
            "buckets": {name: buckets[name] for name in ("D1", "D2", "D3", "other")},
            "discrepancies": sum(buckets.values()),
        },
        "matching": {
            "winner": matching.final_selection.best.name,
            "sure_matches": len(matching.sure_pairs),
            "predicted_matches": len(matching.predicted_pairs),
            "final_matches": len(matching.matches),
        },
        "updated_workflow": {
            "original_slice": workflow_counts(updated.original),
            "extra_slice": workflow_counts(updated.extra),
            "combined_matches": len(updated.matches),
            "candidate_universe": len(updated.consolidated_candidates),
        },
        "final_workflow": {
            "original_slice": workflow_counts(final.original),
            "extra_slice": workflow_counts(final.extra),
            "combined_matches": len(final.matches),
        },
    }


def test_case_study_headline_counts(case_study, request):
    actual = snapshot(case_study)
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(actual, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return
    assert GOLDEN_PATH.exists(), (
        "golden snapshot missing — generate it with "
        "`pytest tests/test_golden.py --update-golden`"
    )
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert actual == expected, (
        "headline counts drifted from tests/golden/case_study_small.json; "
        "if the change is intended, refresh with --update-golden and "
        "review the snapshot diff"
    )


def test_negative_rules_only_shrink_matches(case_study):
    # structural sanity that must hold for ANY scenario, not just the
    # pinned one: Figure 10 = Figure 9 plus negative rules, which can only
    # remove predicted matches, never add them
    updated = case_study.updated_workflow
    final = case_study.final_workflow
    assert set(final.matches) <= set(updated.matches)
    assert len(final.original.flipped) + len(final.extra.flipped) == len(
        set(updated.matches) - set(final.matches)
    )
