"""Integer-id similarity kernels over interned token sets.

The set-based measures in :mod:`repro.similarity.set_based` hash strings on
every call. These kernels compute the very same values over *interned*
token sets — ``frozenset[int]`` of ids from a
:class:`~repro.text.intern.Vocabulary` — where CPython's C set
intersection runs over identity-hashed small ints.

Contracts, enforced by the parity tests in ``tests/test_kernels.py``:

* every kernel returns **bit-identical floats** to its string reference
  on the id sets of the same token sets (the division and multiplication
  orders mirror ``set_based.py`` expression for expression);
* results depend only on id *consistency*, never on id values, so any
  vocabulary produces the same numbers.

These are the per-pair shape, deployed where access is genuinely
per-pair (the blocking debugger's scored probes). The extraction and
blocker hot loops score whole chunks through the batch kernels in
:mod:`repro.similarity.batch`, which use the same arithmetic.
"""

from __future__ import annotations

import math

# --------------------------------------------------------------------------
# C-speed counts over id frozensets (the blockers' verification step)
# --------------------------------------------------------------------------


def overlap_at_least(a: "frozenset[int]", b: "frozenset[int]", k: int) -> bool:
    """``|A ∩ B| >= k`` over id *frozensets*.

    The blockers verify hundreds of thousands of candidate pairs; at that
    volume CPython's C set intersection (with identity-hash small ints)
    beats a Python-level merge loop by a wide margin, and produces the
    same integer count. ``k == 1`` short-circuits through ``isdisjoint``,
    which exits on the first shared element.
    """
    if k <= 0:
        return True
    if k == 1:
        return not a.isdisjoint(b)
    return len(a & b) >= k


def intersect_count(a: "frozenset[int]", b: "frozenset[int]") -> int:
    """Exact ``|A ∩ B|`` over id frozensets (C set intersection)."""
    return len(a & b)


def jaccard_id_sets(a: "frozenset[int]", b: "frozenset[int]") -> float:
    """Jaccard over id frozensets, bit-identical to ``set_based.jaccard``.

    ``|A ∪ B| == |A| + |B| - |A ∩ B|`` for deduplicated sets, so the
    division is over the same two integers the string reference divides —
    without the two ``set()`` copies the reference makes per call.
    """
    la, lb = len(a), len(b)
    if not la and not lb:
        return 1.0
    inter = len(a & b)
    return inter / (la + lb - inter)


def dice_id_sets(a: "frozenset[int]", b: "frozenset[int]") -> float:
    """Dice over id frozensets, bit-identical to ``set_based.dice``."""
    la, lb = len(a), len(b)
    if not la and not lb:
        return 1.0
    if not la or not lb:
        return 0.0
    return 2.0 * len(a & b) / (la + lb)


def overlap_coefficient_id_sets(a: "frozenset[int]", b: "frozenset[int]") -> float:
    """Overlap coefficient over id frozensets (``set_based`` twin)."""
    la, lb = len(a), len(b)
    if not la and not lb:
        return 1.0
    if not la or not lb:
        return 0.0
    return len(a & b) / min(la, lb)


def cosine_id_sets(a: "frozenset[int]", b: "frozenset[int]") -> float:
    """Ochiai/set cosine over id frozensets (``set_based`` twin)."""
    la, lb = len(a), len(b)
    if not la and not lb:
        return 1.0
    if not la or not lb:
        return 0.0
    return len(a & b) / math.sqrt(la * lb)


overlap_size_id_sets = intersect_count
