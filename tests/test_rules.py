"""Tests for positive (sure-match) and negative (flip) rules."""

import pytest

from repro.blocking import CandidateSet
from repro.errors import RuleError
from repro.rules import (
    ComparableMismatchRule,
    ExactNumberRule,
    apply_negative_rules,
    award_project_rule,
    default_negative_rules,
    m1_rule,
    sure_matches,
)
from repro.table import Table


def projected_tables():
    left = Table(
        {
            "RecordId": ["u1", "u2", "u3"],
            "AwardNumber": [
                "10.200 2008-34103-19449",  # federal
                "10.203 WIS01040",          # state
                "10.100 03-CS-11231300-031",  # forest
            ],
        },
        name="UMETRICSProjected",
    )
    right = Table(
        {
            "RecordId": [100, 200, 300],
            "AwardNumber": ["2008-34103-19449", None, None],
            "ProjectNumber": ["WIS09999", "WIS01040", "WIS04509"],
        },
        name="USDAProjected",
    )
    return left, right


class TestPositiveRules:
    def test_m1_fires_on_suffix_equality(self):
        left, right = projected_tables()
        pairs = m1_rule().pairs(left, right, "RecordId", "RecordId")
        assert pairs.pairs == [("u1", 100)]

    def test_award_project_rule(self):
        left, right = projected_tables()
        pairs = award_project_rule().pairs(left, right, "RecordId", "RecordId")
        assert pairs.pairs == [("u2", 200)]

    def test_matches_on_rows(self):
        left, right = projected_tables()
        rule = m1_rule()
        assert rule.matches(left.row(0), right.row(0))
        assert not rule.matches(left.row(1), right.row(0))

    def test_missing_values_never_fire(self):
        rule = m1_rule()
        assert not rule.matches({"AwardNumber": None}, {"AwardNumber": "X"})
        assert not rule.matches({"AwardNumber": "10.1 X"}, {"AwardNumber": None})

    def test_non_cfda_left_value_never_fires(self):
        rule = m1_rule()
        assert not rule.matches(
            {"AwardNumber": "2008-34103-19449"}, {"AwardNumber": "2008-34103-19449"}
        )

    def test_unknown_attr_rejected(self):
        left, right = projected_tables()
        rule = ExactNumberRule("bad", "Nope", "AwardNumber")
        with pytest.raises(RuleError):
            rule.pairs(left, right, "RecordId", "RecordId")

    def test_sure_matches_union(self):
        left, right = projected_tables()
        combined = sure_matches(
            [m1_rule(), award_project_rule()], left, right, "RecordId", "RecordId"
        )
        assert set(combined.pairs) == {("u1", 100), ("u2", 200)}

    def test_right_index_is_shared_until_the_rule_column_changes(self):
        left, right = projected_tables()
        rule = m1_rule()
        index = rule.index(right, "RecordId")
        assert m1_rule().index(right, "RecordId") is index  # same recipe
        assert rule.pairs(left, right, "RecordId", "RecordId").pairs == [("u1", 100)]
        # move u1's award number from record 100 to record 300, in place
        values = right["AwardNumber"]
        right.drop_columns(["AwardNumber"])
        right.add_column("AwardNumber", list(reversed(values)))
        assert rule.index(right, "RecordId") is not index
        assert rule.pairs(left, right, "RecordId", "RecordId").pairs == [("u1", 300)]

    def test_sure_matches_needs_rules(self):
        left, right = projected_tables()
        with pytest.raises(RuleError):
            sure_matches([], left, right, "RecordId", "RecordId")


class TestNegativeRules:
    def test_comparable_differs_fires(self):
        rules = default_negative_rules()
        l_row = {"AwardNumber": "10.203 WIS01040"}
        r_row = {"AwardNumber": None, "ProjectNumber": "WIS04509"}
        assert any(rule.fires(l_row, r_row) for rule in rules)

    def test_equal_numbers_do_not_fire(self):
        rules = default_negative_rules()
        l_row = {"AwardNumber": "10.203 WIS01040"}
        r_row = {"AwardNumber": None, "ProjectNumber": "WIS01040"}
        assert not any(rule.fires(l_row, r_row) for rule in rules)

    def test_incomparable_patterns_do_not_fire(self):
        # the paper's example: forest-service vs federal numbers differ in
        # pattern, so the rule must NOT flip
        rules = default_negative_rules()
        l_row = {"AwardNumber": "10.100 03-CS-11231300-031"}
        r_row = {"AwardNumber": "2001-34101-10526", "ProjectNumber": None}
        assert not any(rule.fires(l_row, r_row) for rule in rules)

    def test_missing_values_do_not_fire(self):
        rules = default_negative_rules()
        assert not any(
            rule.fires({"AwardNumber": None}, {"AwardNumber": "X", "ProjectNumber": "Y"})
            for rule in rules
        )

    def test_apply_negative_rules_splits_matches(self):
        left, right = projected_tables()
        cs = CandidateSet(
            left, right, "RecordId", "RecordId",
            [("u2", 200), ("u2", 300), ("u1", 100)],
        )
        kept, flipped = apply_negative_rules(
            [("u2", 200), ("u2", 300), ("u1", 100)], cs, default_negative_rules()
        )
        assert ("u2", 200) in kept          # equal project numbers
        assert ("u1", 100) in kept          # equal award numbers
        flipped_pairs = [p for p, _ in flipped]
        assert flipped_pairs == [("u2", 300)]  # WIS01040 vs WIS04509

    def test_flip_report_names_rule(self):
        left, right = projected_tables()
        cs = CandidateSet(left, right, "RecordId", "RecordId", [("u2", 300)])
        _, flipped = apply_negative_rules([("u2", 300)], cs, default_negative_rules())
        assert flipped[0][1] == "comparable_project_numbers_differ"

    def test_custom_known_patterns(self):
        rule = ComparableMismatchRule(
            name="strict",
            l_attr="a",
            r_attr="b",
            known_patterns=frozenset({"XXX#####"}),
        )
        assert rule.fires({"a": "WIS00001"}, {"b": "WIS00002"})
        assert not rule.fires({"a": "2008-11111-22222"}, {"b": "2008-11111-22223"})
