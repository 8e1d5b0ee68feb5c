"""A small columnar table engine.

This is the relational substrate the rest of the toolkit builds on — a
stand-in for the pandas dataframes PyMatcher uses. A :class:`Table` is an
ordered collection of equal-length columns; cells hold plain Python values
and ``None`` marks missing data.

The engine supports exactly the operations the case study exercises:
projection, selection, renaming, row sampling, hash joins (see
:mod:`repro.table.ops`), CSV I/O (:mod:`repro.table.io`) and profiling
(:mod:`repro.table.profile`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import KeyConstraintError, SchemaError, TableError
from .column import is_missing

Row = dict[str, Any]


class Table:
    """An immutable-by-convention columnar table.

    Mutating methods return new tables; the only in-place operations are
    :meth:`add_column` and :meth:`drop_columns`, which are explicit about it
    in their docstrings.

    State derived from the columns (the validated :meth:`key_index`, the
    positive rules' right-side indexes) is memoized on the table through
    :meth:`derived`, so it lives exactly as long as the columns it was
    built from: both in-place mutators clear it, and pickles leave it out.

    Parameters
    ----------
    columns:
        Mapping of column name to a sequence of cell values. All columns
        must have the same length.
    name:
        Optional human-readable table name (used in profiling output).
    """

    def __init__(self, columns: Mapping[str, Sequence[Any]], name: str = "") -> None:
        self._columns: dict[str, list[Any]] = {}
        length: int | None = None
        for col_name, values in columns.items():
            values = list(values)
            if length is None:
                length = len(values)
            elif len(values) != length:
                raise TableError(
                    f"column {col_name!r} has {len(values)} rows, expected {length}"
                )
            self._columns[str(col_name)] = values
        self._length = length or 0
        self.name = name
        self._derived: dict[Any, Any] = {}

    def __getstate__(self) -> dict[str, Any]:
        return {k: v for k, v in self.__dict__.items() if k != "_derived"}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._derived = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Mapping[str, Any]],
        columns: Sequence[str] | None = None,
        name: str = "",
    ) -> "Table":
        """Build a table from an iterable of row dicts.

        When *columns* is omitted the column order is taken from the first
        row (additional keys in later rows raise :class:`SchemaError`).
        Missing keys are filled with ``None``.
        """
        rows = list(rows)
        if columns is None:
            columns = list(rows[0].keys()) if rows else []
        known = set(columns)
        data: dict[str, list[Any]] = {c: [] for c in columns}
        for i, row in enumerate(rows):
            extra = set(row) - known
            if extra:
                raise SchemaError(f"row {i} has unknown columns {sorted(extra)}")
            for c in columns:
                data[c].append(row.get(c))
        return cls(data, name=name)

    @classmethod
    def empty(cls, columns: Sequence[str], name: str = "") -> "Table":
        """An empty table with the given column names."""
        return cls({c: [] for c in columns}, name=name)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def columns(self) -> list[str]:
        """Column names, in order."""
        return list(self._columns)

    @property
    def num_rows(self) -> int:
        return self._length

    @property
    def num_cols(self) -> int:
        return len(self._columns)

    def __len__(self) -> int:
        return self._length

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    def __getitem__(self, column: str) -> list[Any]:
        """Return the values of *column* (a live list — do not mutate)."""
        try:
            return self._columns[column]
        except KeyError:
            raise SchemaError(f"no column {column!r} in table {self.name!r}") from None

    def column(self, name: str) -> list[Any]:
        """Alias of ``table[name]`` for readability at call sites."""
        return self[name]

    def row(self, index: int) -> Row:
        """Return row *index* as a dict (a fresh dict each call)."""
        if not -self._length <= index < self._length:
            raise TableError(f"row index {index} out of range for {self._length} rows")
        return {c: v[index] for c, v in self._columns.items()}

    def rows(self) -> Iterator[Row]:
        """Iterate over rows as dicts."""
        for i in range(self._length):
            yield self.row(i)

    def to_rows(self) -> list[Row]:
        """Materialise all rows as a list of dicts."""
        return list(self.rows())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "table"
        return f"<Table {label!r}: {self.num_rows} rows x {self.num_cols} cols>"

    # ------------------------------------------------------------------
    # relational operations (all return new tables)
    # ------------------------------------------------------------------
    def project(self, columns: Sequence[str], name: str = "") -> "Table":
        """Keep only *columns*, in the given order."""
        missing = [c for c in columns if c not in self._columns]
        if missing:
            raise SchemaError(f"cannot project unknown columns {missing}")
        return Table({c: self._columns[c] for c in columns}, name=name or self.name)

    def rename(self, mapping: Mapping[str, str], name: str = "") -> "Table":
        """Rename columns according to *mapping* (old name -> new name)."""
        unknown = [c for c in mapping if c not in self._columns]
        if unknown:
            raise SchemaError(f"cannot rename unknown columns {unknown}")
        new_names = [mapping.get(c, c) for c in self._columns]
        if len(set(new_names)) != len(new_names):
            raise SchemaError(f"rename would produce duplicate columns: {new_names}")
        return Table(
            {mapping.get(c, c): v for c, v in self._columns.items()},
            name=name or self.name,
        )

    def select(self, predicate: Callable[[Row], bool], name: str = "") -> "Table":
        """Keep rows for which ``predicate(row)`` is truthy."""
        keep = [i for i in range(self._length) if predicate(self.row(i))]
        return self.take(keep, name=name)

    def take(self, indices: Sequence[int], name: str = "") -> "Table":
        """Return the rows at *indices*, in the given order."""
        for i in indices:
            if not -self._length <= i < self._length:
                raise TableError(f"row index {i} out of range")
        return Table(
            {c: [v[i] for i in indices] for c, v in self._columns.items()},
            name=name or self.name,
        )

    def head(self, n: int = 5) -> "Table":
        """The first *n* rows."""
        return self.take(range(min(n, self._length)))

    def sample(self, n: int, rng: np.random.Generator, name: str = "") -> "Table":
        """A uniform random sample of *n* rows without replacement."""
        if n > self._length:
            raise TableError(f"cannot sample {n} rows from {self._length}")
        indices = rng.choice(self._length, size=n, replace=False)
        return self.take([int(i) for i in indices], name=name)

    def sort_by(self, column: str, reverse: bool = False, name: str = "") -> "Table":
        """Sort rows by *column*; missing values sort last."""
        values = self[column]
        order = sorted(
            range(self._length),
            key=lambda i: (is_missing(values[i]), values[i] if not is_missing(values[i]) else 0),
            reverse=reverse,
        )
        return self.take(order, name=name)

    def distinct(self, columns: Sequence[str] | None = None, name: str = "") -> "Table":
        """Drop duplicate rows (considering *columns*, default all)."""
        cols = list(columns) if columns is not None else self.columns
        seen: set[tuple] = set()
        keep = []
        for i in range(self._length):
            key = tuple(self._columns[c][i] for c in cols)
            if key not in seen:
                seen.add(key)
                keep.append(i)
        return self.take(keep, name=name)

    # ------------------------------------------------------------------
    # in-place column edits
    # ------------------------------------------------------------------
    def add_column(self, name: str, values: Sequence[Any]) -> None:
        """Add a column **in place** (errors if the name already exists)."""
        if name in self._columns:
            raise SchemaError(f"column {name!r} already exists")
        values = list(values)
        if self._columns and len(values) != self._length:
            raise TableError(
                f"column {name!r} has {len(values)} rows, expected {self._length}"
            )
        if not self._columns:
            self._length = len(values)
        self._columns[name] = values
        self._derived.clear()

    def drop_columns(self, names: Sequence[str]) -> None:
        """Remove columns **in place**."""
        missing = [c for c in names if c not in self._columns]
        if missing:
            raise SchemaError(f"cannot drop unknown columns {missing}")
        for c in names:
            del self._columns[c]
        self._derived.clear()

    def with_column(self, name: str, values: Sequence[Any]) -> "Table":
        """Return a copy of the table with an added (or replaced) column."""
        data = {c: list(v) for c, v in self._columns.items()}
        data[name] = list(values)
        if len(data[name]) != self._length and self._columns:
            raise TableError(
                f"column {name!r} has {len(data[name])} rows, expected {self._length}"
            )
        return Table(data, name=self.name)

    def map_column(self, name: str, fn: Callable[[Any], Any]) -> "Table":
        """Return a copy with ``fn`` applied to every cell of *name*."""
        return self.with_column(name, [fn(v) for v in self[name]])

    # ------------------------------------------------------------------
    # comparisons / misc
    # ------------------------------------------------------------------
    def copy(self, name: str = "") -> "Table":
        """A deep-enough copy (column lists are copied; cells are shared)."""
        return Table({c: list(v) for c, v in self._columns.items()}, name=name or self.name)

    def equals(self, other: "Table") -> bool:
        """True when both tables have identical columns and cell values."""
        if self.columns != other.columns or self.num_rows != other.num_rows:
            return False
        return all(self._columns[c] == other._columns[c] for c in self._columns)

    def derived(self, key: Any, build: Callable[[], Any]) -> Any:
        """``build()``, memoized under *key* until the next in-place edit.

        For state that is a pure function of the table's columns and is
        read far more often than the table changes.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def key_index(self, column: str) -> dict[Any, int]:
        """Map each value of key *column* to its row position (memoized).

        Raises :class:`~repro.errors.KeyConstraintError` when *column* has
        missing or duplicate values. The dict is shared; don't mutate it.
        """
        return self.derived(("key_index", column), lambda: self._key_index(column))

    def _key_index(self, column: str) -> dict[Any, int]:
        values = self[column]
        n_missing = sum(1 for v in values if is_missing(v))
        if n_missing:
            raise KeyConstraintError(
                f"{self.name}.{column} has {n_missing} missing values; not a key"
            )
        index = {v: i for i, v in enumerate(values)}
        n_dupes = len(values) - len(index)
        if n_dupes:
            raise KeyConstraintError(
                f"{self.name}.{column} has {n_dupes} duplicate values; not a key"
            )
        return index

    def value_index(self, column: str) -> dict[Any, list[int]]:
        """Map each non-missing value of *column* to the row indices holding it."""
        index: dict[Any, list[int]] = {}
        for i, v in enumerate(self[column]):
            if not is_missing(v):
                index.setdefault(v, []).append(i)
        return index
