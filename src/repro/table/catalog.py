"""Metadata catalog: key and foreign-key registration and validation.

PyMatcher keeps table metadata (which column is the key, how candidate-set
tables point back to their base tables) in a catalog next to the data.
Pre-processing step 2 of the case study validates that "UniqueAwardNumber"
and "Accession Number" really are keys, and that the employees table has a
valid foreign key into the award table — these checks live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CatalogError, KeyConstraintError
from .column import is_missing
from .table import Table


def is_key(table: Table, column: str) -> bool:
    """True when *column* has no missing values and no duplicates."""
    values = table[column]
    if any(is_missing(v) for v in values):
        return False
    return len(set(values)) == len(values)


def validate_key(table: Table, column: str) -> None:
    """Raise :class:`KeyConstraintError` when *column* is not a key.

    The check is :meth:`Table.key_index`, so a table validates each key
    column once until it is edited in place.
    """
    table.key_index(column)


def foreign_key_violations(
    child: Table, child_column: str, parent: Table, parent_column: str
) -> list[int]:
    """Row indices of *child* whose non-missing FK value is absent from the parent."""
    parent_values = {v for v in parent[parent_column] if not is_missing(v)}
    return [
        i
        for i, v in enumerate(child[child_column])
        if not is_missing(v) and v not in parent_values
    ]


def validate_foreign_key(
    child: Table, child_column: str, parent: Table, parent_column: str
) -> None:
    """Raise when the FK has dangling references."""
    bad = foreign_key_violations(child, child_column, parent, parent_column)
    if bad:
        raise KeyConstraintError(
            f"{child.name}.{child_column} has {len(bad)} values missing from "
            f"{parent.name}.{parent_column} (first offending row: {bad[0]})"
        )


@dataclass
class Catalog:
    """Registry of table keys and candidate-set provenance.

    A candidate set produced by blocking is itself a table; the catalog
    records which base tables and key columns its ``ltable_id``/``rtable_id``
    columns refer to, so downstream stages (feature extraction, debugging)
    can recover the original rows.
    """

    _keys: dict[int, str] = field(default_factory=dict)
    _provenance: dict[int, dict[str, object]] = field(default_factory=dict)

    def set_key(self, table: Table, column: str) -> None:
        """Register (and validate) the key column of *table*."""
        validate_key(table, column)
        self._keys[id(table)] = column

    def get_key(self, table: Table) -> str:
        try:
            return self._keys[id(table)]
        except KeyError:
            raise CatalogError(f"no key registered for table {table.name!r}") from None

    def has_key(self, table: Table) -> bool:
        return id(table) in self._keys

    def set_candidate_provenance(
        self,
        candidates: Table,
        ltable: Table,
        rtable: Table,
        l_id_column: str = "ltable_id",
        r_id_column: str = "rtable_id",
    ) -> None:
        """Record which base tables a candidate-set table was built from."""
        for col in (l_id_column, r_id_column):
            if col not in candidates:
                raise CatalogError(f"candidate set lacks id column {col!r}")
        self._provenance[id(candidates)] = {
            "ltable": ltable,
            "rtable": rtable,
            "l_id_column": l_id_column,
            "r_id_column": r_id_column,
        }

    def get_candidate_provenance(self, candidates: Table) -> dict[str, object]:
        try:
            return dict(self._provenance[id(candidates)])
        except KeyError:
            raise CatalogError(
                f"no provenance registered for candidate table {candidates.name!r}"
            ) from None
