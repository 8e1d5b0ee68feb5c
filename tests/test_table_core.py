"""Tests for repro.table.table (the columnar Table engine)."""

import copy
import pickle

import numpy as np
import pytest

from repro.errors import KeyConstraintError, SchemaError, TableError
from repro.table import Table


def make_table():
    return Table(
        {"id": [1, 2, 3, 4], "name": ["a", "b", "c", "d"], "x": [1.0, None, 3.0, 4.0]},
        name="t",
    )


class TestConstruction:
    def test_basic_shape(self):
        t = make_table()
        assert t.num_rows == 4
        assert t.num_cols == 3
        assert len(t) == 4
        assert t.columns == ["id", "name", "x"]

    def test_ragged_columns_rejected(self):
        with pytest.raises(TableError, match="rows, expected"):
            Table({"a": [1, 2], "b": [1]})

    def test_from_rows_roundtrip(self):
        t = make_table()
        again = Table.from_rows(t.to_rows(), columns=t.columns)
        assert again.equals(t)

    def test_from_rows_fills_missing_keys(self):
        t = Table.from_rows([{"a": 1, "b": 2}, {"a": 3}])
        assert t["b"] == [2, None]

    def test_from_rows_rejects_unknown_columns(self):
        with pytest.raises(SchemaError, match="unknown columns"):
            Table.from_rows([{"a": 1}, {"a": 2, "zz": 3}], columns=["a"])

    def test_empty_table(self):
        t = Table.empty(["a", "b"])
        assert t.num_rows == 0
        assert t.columns == ["a", "b"]

    def test_from_rows_empty_without_columns(self):
        t = Table.from_rows([])
        assert t.num_rows == 0
        assert t.columns == []


class TestAccessors:
    def test_getitem_and_column(self):
        t = make_table()
        assert t["id"] == [1, 2, 3, 4]
        assert t.column("name") == ["a", "b", "c", "d"]

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError, match="no column"):
            make_table()["nope"]

    def test_contains(self):
        t = make_table()
        assert "id" in t
        assert "nope" not in t

    def test_row_returns_fresh_dict(self):
        t = make_table()
        row = t.row(0)
        assert row == {"id": 1, "name": "a", "x": 1.0}
        row["id"] = 99
        assert t.row(0)["id"] == 1

    def test_row_out_of_range(self):
        with pytest.raises(TableError, match="out of range"):
            make_table().row(10)

    def test_negative_row_index(self):
        assert make_table().row(-1)["id"] == 4

    def test_rows_iteration_order(self):
        ids = [r["id"] for r in make_table().rows()]
        assert ids == [1, 2, 3, 4]


class TestRelationalOps:
    def test_project(self):
        t = make_table().project(["name", "id"])
        assert t.columns == ["name", "id"]

    def test_project_unknown_column(self):
        with pytest.raises(SchemaError):
            make_table().project(["nope"])

    def test_rename(self):
        t = make_table().rename({"id": "key"})
        assert "key" in t and "id" not in t

    def test_rename_collision_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            make_table().rename({"id": "name"})

    def test_select(self):
        t = make_table().select(lambda r: r["id"] % 2 == 0)
        assert t["id"] == [2, 4]

    def test_take_preserves_order(self):
        t = make_table().take([3, 0])
        assert t["id"] == [4, 1]

    def test_head(self):
        assert make_table().head(2)["id"] == [1, 2]
        assert make_table().head(100).num_rows == 4

    def test_sample_without_replacement(self):
        t = make_table()
        s = t.sample(3, np.random.default_rng(0))
        assert s.num_rows == 3
        assert len(set(s["id"])) == 3

    def test_sample_too_large(self):
        with pytest.raises(TableError):
            make_table().sample(10, np.random.default_rng(0))

    def test_sort_by_missing_last(self):
        t = make_table().sort_by("x")
        assert t["x"][-1] is None
        assert t["x"][:3] == [1.0, 3.0, 4.0]

    def test_distinct(self):
        t = Table({"a": [1, 1, 2], "b": ["x", "x", "y"]})
        assert t.distinct().num_rows == 2
        assert t.distinct(["a"]).num_rows == 2


class TestMutation:
    def test_add_column(self):
        t = make_table()
        t.add_column("y", [0, 0, 0, 0])
        assert t["y"] == [0, 0, 0, 0]

    def test_add_duplicate_column_rejected(self):
        t = make_table()
        with pytest.raises(SchemaError, match="already exists"):
            t.add_column("id", [9, 9, 9, 9])

    def test_add_wrong_length_rejected(self):
        with pytest.raises(TableError):
            make_table().add_column("y", [1])

    def test_drop_columns(self):
        t = make_table()
        t.drop_columns(["x"])
        assert t.columns == ["id", "name"]

    def test_with_column_replaces(self):
        t = make_table().with_column("x", [9, 9, 9, 9])
        assert t["x"] == [9, 9, 9, 9]
        assert make_table()["x"][0] == 1.0  # original untouched

    def test_map_column(self):
        t = make_table().map_column("name", str.upper)
        assert t["name"] == ["A", "B", "C", "D"]

    def test_copy_is_independent(self):
        t = make_table()
        c = t.copy()
        c.add_column("z", [0] * 4)
        assert "z" not in t


class TestMisc:
    def test_equals(self):
        assert make_table().equals(make_table())
        assert not make_table().equals(make_table().project(["id"]))

    def test_value_index_skips_missing(self):
        t = make_table()
        index = t.value_index("x")
        assert index == {1.0: [0], 3.0: [2], 4.0: [3]}


class TestDerivedState:
    def test_key_index_is_memoized_and_validated(self):
        t = make_table()
        index = t.key_index("id")
        assert index == {1: 0, 2: 1, 3: 2, 4: 3}
        assert t.key_index("id") is index
        with pytest.raises(KeyConstraintError, match="missing"):
            t.key_index("x")
        dupes = Table({"id": [1, 2, 1]}, name="d")
        with pytest.raises(KeyConstraintError, match="1 duplicate"):
            dupes.key_index("id")

    def test_in_place_edits_rebuild_derived_state(self):
        t = make_table()
        stale = t.key_index("id")
        t.drop_columns(["id"])
        t.add_column("id", [40, 30, 20, 10])
        assert t.key_index("id") == {40: 0, 30: 1, 20: 2, 10: 3}
        assert stale == {1: 0, 2: 1, 3: 2, 4: 3}  # handed-out index untouched
        cached = t.key_index("id")
        t.add_column("extra", [0] * 4)  # any in-place edit clears the memo
        assert t.key_index("id") is not cached

    def test_pickles_carry_no_derived_state(self):
        t = make_table()
        clean = pickle.dumps(t)
        t.key_index("id")
        t.derived("anything", lambda: list(range(1000)))
        assert pickle.dumps(t) == clean
        restored = pickle.loads(clean)
        assert restored._derived == {}
        assert restored.equals(t)
        assert restored.key_index("id") == t.key_index("id")
        assert copy.deepcopy(t)._derived == {}
