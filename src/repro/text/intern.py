"""Token interning: dense int32 ids for the similarity kernels.

String token sets are the currency of the blocking and feature-extraction
hot paths, and intersecting ``frozenset[str]`` objects pays string hashing
on every probe. A :class:`Vocabulary` maps each distinct token to a dense
``int32`` id exactly once; cells become id sets that the kernels in
:mod:`repro.similarity.kernels` and :mod:`repro.similarity.batch`
intersect over identity-hashed small ints, and sorted ``array('i')`` id
arrays that pickle as raw bytes when chunks ship to worker processes.

Ids are assigned in first-intern order, so they depend on interning
history (and, through frozenset iteration, on ``PYTHONHASHSEED``) —
kernel results must only ever depend on id *consistency* (equal tokens
get equal ids within one vocabulary), never on id values. The parity
tests assert exactly that by permuting interning order. Consumers that
need a value per token, like the LSH blockers' signatures, hash the
token text instead: :meth:`Vocabulary.token_hashes`.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

import numpy as np

#: Typecode used for all id arrays (C int: 32 bits on every supported
#: platform; a vocabulary outgrowing it is not a realistic corpus).
ID_TYPECODE = "i"


def id_array(ids: Iterable[int]) -> "array[int]":
    """An ``array('i')`` over *ids* (the compact wire format for chunks)."""
    return array(ID_TYPECODE, ids)


#: FNV-1a 64-bit offset basis and prime.
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def fnv1a_64(tokens: Sequence[str]) -> "np.ndarray":
    """The 64-bit FNV-1a hash of each token's UTF-8 bytes (uint64 array).

    Vectorized over tokens: sorted longest first, byte position ``j`` is
    live for a prefix of them, and each pass folds one byte position
    into that prefix.
    """
    encoded = [t.encode("utf-8", "surrogatepass") for t in tokens]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    data = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    longest = int(lengths.max()) if len(lengths) else 0
    # live[j]: how many tokens are longer than j bytes
    live = np.searchsorted(-lengths[order], -np.arange(longest), side="left")
    h = np.full(len(tokens), _FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j, k in enumerate(live.tolist()):
            h[:k] = (h[:k] ^ data[starts[:k] + j]) * _FNV_PRIME
    out = np.empty_like(h)
    out[order] = h
    return out


class Vocabulary:
    """A bijective token <-> dense-id map shared across tables.

    One vocabulary must span every table participating in a comparison:
    ids are only comparable within the vocabulary that assigned them.
    The :class:`~repro.runtime.cache.TokenCache` owns one and interns both
    sides of every blocker/feature recipe through it.
    """

    __slots__ = ("_ids", "_tokens", "_hashes")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []
        self._hashes = np.empty(0, dtype=np.uint64)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def intern(self, token: str) -> int:
        """The id of *token*, assigning the next dense id on first sight."""
        tid = self._ids.get(token)
        if tid is None:
            tid = len(self._tokens)
            self._ids[token] = tid
            self._tokens.append(token)
        return tid

    def intern_all(self, tokens: Iterable[str]) -> "array[int]":
        """Ids of *tokens* in iteration order (duplicates preserved)."""
        intern = self.intern
        return array(ID_TYPECODE, (intern(t) for t in tokens))

    def sorted_ids(self, tokens: Iterable[str]) -> "array[int]":
        """Sorted unique ids of *tokens* — the kernel set representation."""
        intern = self.intern
        return array(ID_TYPECODE, sorted({intern(t) for t in tokens}))

    def id_of(self, token: str) -> int | None:
        """The id of *token*, or ``None`` when it was never interned."""
        return self._ids.get(token)

    def __getitem__(self, tid: int) -> str:
        """``vocab[tid]``: the token of id *tid* (as :meth:`token_of`)."""
        return self._tokens[tid]

    def token_of(self, tid: int) -> str:
        """The token a dense id stands for."""
        return self._tokens[tid]

    def decode(self, ids: Sequence[int]) -> list[str]:
        """Tokens for an id sequence (inverse of :meth:`intern_all`)."""
        tokens = self._tokens
        return [tokens[tid] for tid in ids]

    def tokens(self) -> list[str]:
        """All interned tokens, indexed by id (a fresh list)."""
        return list(self._tokens)

    def token_hashes(self) -> "np.ndarray":
        """:func:`fnv1a_64` of every interned token, indexed by id.

        The hash depends on the token text alone, never on its id, so it
        is stable across processes and interning orders. Each token is
        hashed once; the array grows as the vocabulary does. Concurrent
        callers may both extend it: each gets an array covering every id
        interned before its call.
        """
        hashes = self._hashes
        todo = self._tokens[len(hashes) :]
        if todo:
            hashes = self._hashes = np.concatenate([hashes, fnv1a_64(todo)])
        return hashes
