"""Batch-columnar similarity kernels: score whole candidate chunks.

Per-pair kernels pay one Python call and its loop overhead per pair,
which on 3-gram tokens cost more than the string references' hashing
(the retired merge-array family measured 0.40-0.86x, see
``docs/performance.md``). The fix is to change the hot-loop *shape*, not
the arithmetic: one kernel call scores an entire chunk.

Every ``*_batch`` kernel takes two parallel columns — a
:class:`~repro.runtime.columnar.TokenColumn` (CSR offsets + flat
``array('i')`` data on the wire, per-row ``frozenset[int]`` views in
memory) or any aligned sequence of id frozensets — and returns one
``array('d')`` of scores. Inside the chunk loop the measure body is
*inlined*: the per-pair cost is one C-level set intersection plus float
arithmetic, with no per-pair Python call, no per-pair allocation beyond
the intersection CPython builds natively, and the output written into a
single preallocated buffer. Benchmarked against the alternatives
(per-pair id-frozenset calls, per-pair merges, a vectorized
sort-by-key CSR intersection), this shape is the only one that beats the
id-frozenset family on qgm_3 while staying ahead on ws — see
``docs/performance.md`` for the numbers that drove the decision.

Contracts, enforced by the parity suites in ``tests/test_kernels.py``:

* every batch kernel is **bit-identical** to its string reference in
  :mod:`repro.similarity.set_based` (and hence to the per-pair id
  kernels) element for element: the division and multiplication orders
  mirror the reference expression for expression;
* a row whose either side is *missing* (``None``) scores ``nan``,
  matching the per-pair extraction loop's missing-cell handling; empty
  token sets score by the reference expressions (e.g. Jaccard of two
  empty sets is 1.0);
* results are independent of chunk order and chunk boundaries: scoring a
  permuted or re-sliced chunk permutes/re-slices the outputs and nothing
  else.

The blocker verification predicates (:func:`overlap_at_least_batch`,
:func:`overlap_coefficient_at_least_batch`) are the chunk twins of the
per-candidate checks in the overlap blockers; they return a
``bytearray`` keep-mask so the caller can filter an ordered candidate
list without perturbing emission order.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Sequence

from ..runtime.columnar import TokenColumn

NAN = float("nan")

#: Kernel families that are actually routed on the default path; the
#: bench and the CI guard (``tools/check_kernel_families.py``) assert
#: every family listed here beats the string references on both
#: case-study tokenizations.
DEPLOYED_FAMILIES = ("set", "batch")


def _sets_of(column: Any) -> Sequence:
    """Per-row set views of a column (TokenColumn or aligned sequence)."""
    if isinstance(column, TokenColumn):
        return column.sets()
    return column


def _paired(col_a: Any, col_b: Any) -> tuple[Sequence, Sequence]:
    sa, sb = _sets_of(col_a), _sets_of(col_b)
    if len(sa) != len(sb):
        raise ValueError(
            f"batch columns differ in length: {len(sa)} vs {len(sb)}"
        )
    return sa, sb


# --------------------------------------------------------------------------
# set measures, one chunk per call
# --------------------------------------------------------------------------


def jaccard_batch(col_a: Any, col_b: Any) -> "array[float]":
    """|A ∩ B| / |A ∪ B| per row; 1.0 when both empty, nan when missing."""
    sa, sb = _paired(col_a, col_b)
    out: list[float] = []
    append = out.append
    for a, b in zip(sa, sb):
        if a is None or b is None:
            append(NAN)
        else:
            la, lb = len(a), len(b)
            if la or lb:
                inter = len(a & b)
                append(inter / (la + lb - inter))
            else:
                append(1.0)
    return array("d", out)


def dice_batch(col_a: Any, col_b: Any) -> "array[float]":
    """2|A ∩ B| / (|A| + |B|) per row; 1.0 both-empty, 0.0 one-empty."""
    sa, sb = _paired(col_a, col_b)
    out: list[float] = []
    append = out.append
    for a, b in zip(sa, sb):
        if a is None or b is None:
            append(NAN)
        else:
            la, lb = len(a), len(b)
            if la and lb:
                append(2.0 * len(a & b) / (la + lb))
            else:
                append(0.0 if la or lb else 1.0)
    return array("d", out)


def cosine_batch(col_a: Any, col_b: Any) -> "array[float]":
    """Ochiai/set cosine |A ∩ B| / sqrt(|A| * |B|) per row."""
    sa, sb = _paired(col_a, col_b)
    sqrt = math.sqrt
    out: list[float] = []
    append = out.append
    for a, b in zip(sa, sb):
        if a is None or b is None:
            append(NAN)
        else:
            la, lb = len(a), len(b)
            if la and lb:
                append(len(a & b) / sqrt(la * lb))
            else:
                append(0.0 if la or lb else 1.0)
    return array("d", out)


def overlap_coefficient_batch(col_a: Any, col_b: Any) -> "array[float]":
    """|A ∩ B| / min(|A|, |B|) per row; 1.0 both-empty, 0.0 one-empty."""
    sa, sb = _paired(col_a, col_b)
    out: list[float] = []
    append = out.append
    for a, b in zip(sa, sb):
        if a is None or b is None:
            append(NAN)
        else:
            la, lb = len(a), len(b)
            if la and lb:
                append(len(a & b) / (la if la < lb else lb))
            else:
                append(0.0 if la or lb else 1.0)
    return array("d", out)


def overlap_size_batch(col_a: Any, col_b: Any) -> "array[float]":
    """|A ∩ B| per row (exact integer counts as float64; nan when missing)."""
    sa, sb = _paired(col_a, col_b)
    out: list[float] = []
    append = out.append
    for a, b in zip(sa, sb):
        if a is None or b is None:
            append(NAN)
        else:
            append(float(len(a & b)))
    return array("d", out)


#: Batch kernels by the short measure names used in feature specs —
#: the routing table :mod:`repro.features.vectors` dispatches through.
BATCH_KERNELS = {
    "jac": jaccard_batch,
    "cos": cosine_batch,
    "dice": dice_batch,
    "overlap_coeff": overlap_coefficient_batch,
}


def score_batch(measure: str, col_a: Any, col_b: Any) -> "array[float]":
    """Score one chunk with the named set measure (``float[]`` out)."""
    try:
        kernel = BATCH_KERNELS[measure]
    except KeyError:
        raise KeyError(
            f"no batch kernel for measure {measure!r}; "
            f"known: {sorted(BATCH_KERNELS)}"
        ) from None
    return kernel(col_a, col_b)


# --------------------------------------------------------------------------
# blocker verification predicates (keep-masks over ordered candidates)
# --------------------------------------------------------------------------


def overlap_at_least_batch(col_a: Any, col_b: Any, k: int) -> bytearray:
    """``|A ∩ B| >= k`` per row, as a 0/1 keep-mask.

    Chunk twin of :func:`repro.similarity.kernels.overlap_at_least`:
    same ``k <= 0`` short-circuit, same ``isdisjoint`` fast path at
    ``k == 1``, same exact count comparison otherwise — so every keep
    decision matches the per-pair predicate bit for bit.
    """
    sa, sb = _paired(col_a, col_b)
    n = len(sa)
    keep = bytearray(n)
    if k <= 0:
        for i in range(n):
            keep[i] = 1
        return keep
    if k == 1:
        for i, a in enumerate(sa):
            if not a.isdisjoint(sb[i]):
                keep[i] = 1
        return keep
    for i, a in enumerate(sa):
        b = sb[i]
        if len(a & b) >= k:
            keep[i] = 1
    return keep


def overlap_coefficient_at_least_batch(
    col_a: Any, col_b: Any, threshold: float
) -> bytearray:
    """Coefficient-threshold keep-mask for the overlap-coefficient blocker.

    Mirrors the per-candidate verification of the string-set reference:
    the size-aware count bound ``ceil(threshold * min(|A|, |B|) - 1e-9)``
    first, then the surviving ``inter / min(|A|, |B|)`` coefficient
    against ``threshold - 1e-12`` — the same two comparisons over the
    same integers, so the kept candidates are identical.
    """
    sa, sb = _paired(col_a, col_b)
    ceil = math.ceil
    keep = bytearray(len(sa))
    eps = threshold - 1e-12
    for i, a in enumerate(sa):
        b = sb[i]
        la, lb = len(a), len(b)
        smaller = la if la < lb else lb
        if smaller == 0:
            # blockers drop empty token sets before probing, but mirror
            # the reference coefficient anyway: both-empty 1.0, one-empty 0.0
            if la == lb and 1.0 >= eps:
                keep[i] = 1
            continue
        inter = len(a & b)
        if inter < ceil(threshold * smaller - 1e-9):
            continue
        if inter / smaller >= eps:
            keep[i] = 1
    return keep
