"""Shared tokenization/normalization memo-cache.

Section 7 runs three blockers over the *same* title columns, and
down-sampling tokenizes them again: four full passes of
``tokenizer(normalizer(value))`` over identical inputs. :class:`TokenCache`
memoizes the per-column token sets keyed on
``(attr, tokenizer, normalizer)``, so a column is tokenized once per
distinct recipe no matter how many blockers ask.

On top of the string token sets the cache also owns a
:class:`~repro.text.intern.Vocabulary` and memoizes *interned* columns —
per-row id sets (and bag-order variants for hybrid measures) — which is
what the kernels in :mod:`repro.similarity.kernels` and
:mod:`repro.similarity.batch` consume. A column is therefore tokenized
once per recipe and interned once per recipe, no matter how many
blockers and features ask.

Tables are held through a :class:`weakref.WeakKeyDictionary`, so cached
columns die with their table. Caching assumes the idiom the
:class:`~repro.table.table.Table` engine documents — columns are not
mutated in place (mutating methods return new tables) — a table whose
cell lists are edited behind the cache's back must be :meth:`clear`-ed.

The cache also owns :class:`MeasureMemos`: memos of *pure* similarity
measures that feature extraction reads and fills. They are keyed by
token ids of the cache's vocabulary and by feature specs and cell
values, not by table, so they outlive every extraction call — a
session that re-extracts overlapping pairs (the case study's repeated
slices, a long-lived match service) computes each distinct pair once.
Each memo is bounded by :data:`MEMO_LIMIT` entries and :meth:`clear`
drops them together with the vocabulary their keys refer to. They are
shared by every session on the cache, so their hit/miss counters are
per extraction call (see :meth:`MeasureMemos.view`), not per session.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable

from ..table import Table
from ..table.column import is_missing
from ..text.intern import Vocabulary, id_array
from ..text.tokenizers import Tokenizer

Normalizer = Callable[[Any], Any]
#: One cached column: per-row token sets, ``None`` where the cell (or its
#: normalized form) is missing.
ColumnTokens = tuple["frozenset[str] | None", ...]


def lowercase(value: Any) -> str:
    """``str(value).lower()`` as a stable, cache-keyable normalizer.

    Case-insensitive (``_ci``) features lower-case the stringified cell
    before tokenizing; routing that through a module-level function keeps
    the ``(attr, tokenizer, normalizer)`` cache key identical across
    calls (a fresh lambda per call would never hit).
    """
    return str(value).lower()


@dataclass(frozen=True)
class InternedTokens:
    """One cell's interned token set.

    ``sorted`` holds the ids sorted and unique (the ``TokenColumn`` wire
    format and the overlap blocker's prefix order); ``probe`` preserves
    the *iteration order of the underlying frozenset*, which is the order
    the overlap-coefficient blocker probes in — replaying it keeps
    candidate emission bit-identical to the string-set reference and
    across worker processes. ``ids`` holds the same ids as a
    ``frozenset[int]`` for the blockers' verification step: CPython's
    C-level set intersection over small ints beats any Python-level merge
    loop, and the counts it yields are the same integers.
    """

    sorted: "Any"  # array('i'), sorted unique
    probe: "Any"  # array('i'), frozenset iteration order
    ids: "frozenset[int]"  # same ids, for C-speed intersection counts

    def __len__(self) -> int:
        return len(self.sorted)


#: Entry bound of each :class:`MeasureMemos` memo; a memo past it is
#: cleared before the next extraction reads it (one eviction).
MEMO_LIMIT = 1 << 19


class MeasureMemos:
    """Session-lived memos of pure similarity measures.

    ``jw`` maps a token-id pair ``(a << 32) | b`` of the owning cache's
    vocabulary to the Jaro-Winkler similarity of the two tokens (the
    inner call of Monge-Elkan). ``values`` maps the spec of a string,
    numeric or Monge-Elkan feature to ``{(left key, right key): feature
    value}``, keyed by cell as :mod:`repro.features.vectors` describes.
    A hit returns the float a fresh call would, so memoized and fresh
    results are bit-identical.

    The memos belong to the cache, not to a session: every session on
    one cache (the process-wide default one included) reads and fills
    them, from any thread. ``hits``/``misses`` count the lookups made
    through *this* object; extraction reads through a :meth:`view` per
    call, so its counters are that call's own even while other threads
    use the same memos.
    """

    def __init__(
        self,
        jw: dict[int, float] | None = None,
        values: dict[tuple, dict[tuple, float]] | None = None,
    ) -> None:
        self.jw = {} if jw is None else jw
        self.values = {} if values is None else values
        self.hits = 0
        self.misses = 0

    def view(self) -> "MeasureMemos":
        """The same memos with hit/miss counters of their own."""
        return MeasureMemos(self.jw, self.values)

    def trim(self) -> int:
        """Clear each memo holding more than :data:`MEMO_LIMIT` entries;
        return how many were cleared."""
        cleared = 0
        if len(self.jw) > MEMO_LIMIT:
            self.jw.clear()
            cleared += 1
        # list(): another thread may add a spec while this one counts
        if sum(len(memo) for memo in list(self.values.values())) > MEMO_LIMIT:
            self.values.clear()
            cleared += 1
        return cleared


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counts of a :class:`TokenCache` (column-level)."""

    hits: int
    misses: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses


class TokenCache:
    """Memo-cache of tokenized columns, shared across blockers, plus the
    :class:`MeasureMemos` keyed by its vocabulary."""

    def __init__(self) -> None:
        self._tables: "weakref.WeakKeyDictionary[Table, dict]" = (
            weakref.WeakKeyDictionary()
        )
        self.vocabulary = Vocabulary()
        self.memos = MeasureMemos()
        self.hits = 0
        self.misses = 0

    def column_tokens(
        self,
        table: Table,
        attr: str,
        tokenizer: Tokenizer,
        normalizer: Normalizer | None = None,
    ) -> ColumnTokens:
        """Token sets for every row of ``table[attr]`` (cached).

        The returned tuple is aligned with row indices; missing cells (and
        cells a normalizer maps to missing) are ``None``.
        """
        per_table = self._tables.setdefault(table, {})
        key = (attr, tokenizer, normalizer)
        cached = per_table.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        out: list[frozenset[str] | None] = []
        for value in table[attr]:
            if is_missing(value):
                out.append(None)
                continue
            if normalizer is not None:
                value = normalizer(value)
                if is_missing(value):
                    out.append(None)
                    continue
            out.append(frozenset(tokenizer(str(value))))
        column = tuple(out)
        per_table[key] = column
        return column

    # ------------------------------------------------------------------
    # interned columns (the kernel substrate)
    # ------------------------------------------------------------------
    def column_token_ids(
        self,
        table: Table,
        attr: str,
        tokenizer: Tokenizer,
        normalizer: Normalizer | None = None,
    ) -> tuple["InternedTokens | None", ...]:
        """Interned token sets for every row of ``table[attr]`` (cached).

        Derived from (and aligned with) :meth:`column_tokens`: ``None``
        where that column is ``None``, an :class:`InternedTokens` entry
        otherwise. Rows whose cells hold *equal* token sets share one
        entry object, so chunk pickling ships each distinct cell once and
        identity-keyed memo tables collapse repeated cells.
        """
        per_table = self._tables.setdefault(table, {})
        key = ("ids", attr, tokenizer, normalizer)
        cached = per_table.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        intern = self.vocabulary.intern
        distinct: dict[frozenset, InternedTokens] = {}
        out: list[InternedTokens | None] = []
        for tokens in self.column_tokens(table, attr, tokenizer, normalizer):
            if tokens is None:
                out.append(None)
                continue
            entry = distinct.get(tokens)
            if entry is None:
                probe = id_array(intern(t) for t in tokens)
                entry = InternedTokens(id_array(sorted(probe)), probe, frozenset(probe))
                distinct[tokens] = entry
            out.append(entry)
        column = tuple(out)
        per_table[key] = column
        return column

    def column_token_bag_ids(
        self,
        table: Table,
        attr: str,
        tokenizer: Tokenizer,
        normalizer: Normalizer | None = None,
    ) -> tuple["Any | None", ...]:
        """Interned token *bags* (duplicates kept, tokenizer order) per row.

        Hybrid measures like Monge-Elkan average over the token bag in
        emission order, so they need the raw tokenizer output, not the
        set. Equal cells share one id array object (see
        :meth:`column_token_ids` for why that matters).
        """
        per_table = self._tables.setdefault(table, {})
        key = ("bag_ids", attr, tokenizer, normalizer)
        cached = per_table.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        intern_all = self.vocabulary.intern_all
        distinct: dict[str, Any] = {}
        out: list[Any | None] = []
        for value in table[attr]:
            if is_missing(value):
                out.append(None)
                continue
            if normalizer is not None:
                value = normalizer(value)
                if is_missing(value):
                    out.append(None)
                    continue
            text = str(value)
            ids = distinct.get(text)
            if ids is None:
                ids = distinct[text] = intern_all(tokenizer(text))
            out.append(ids)
        column = tuple(out)
        per_table[key] = column
        return column

    def token_ids_by_id(
        self,
        table: Table,
        attr: str,
        key_col: str,
        tokenizer: Tokenizer,
        normalizer: Normalizer | None = None,
    ) -> dict[Any, InternedTokens]:
        """``{record id: interned tokens}`` for non-missing, non-empty cells.

        Rows whose value is missing or tokenizes to nothing are absent;
        the dict follows row order. A fresh dict is built per call
        (callers may mutate it); only the underlying entries are shared.
        """
        entries = self.column_token_ids(table, attr, tokenizer, normalizer)
        return {
            rid: entry
            for rid, entry in zip(table[key_col], entries)
            if entry is not None and len(entry)
        }

    def stats(self) -> CacheStats:
        return CacheStats(hits=self.hits, misses=self.misses)

    def clear(self) -> None:
        self._tables = weakref.WeakKeyDictionary()
        self.vocabulary = Vocabulary()
        self.memos = MeasureMemos()
        self.hits = 0
        self.misses = 0


#: Process-wide default cache; blockers fall back to this when no explicit
#: cache is passed, which is what lets independent blocker calls share work.
_DEFAULT_CACHE = TokenCache()


def get_default_cache() -> TokenCache:
    """The shared process-wide :class:`TokenCache`."""
    return _DEFAULT_CACHE
