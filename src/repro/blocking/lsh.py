"""Locality-sensitive-hashing blockers: MinHash-LSH and SimHash.

The overlap family is exact — every pair sharing enough tokens is found —
but its cost tracks posting-list lengths, and at million-row scale even
capped posting lists generate candidates quadratically in block size. The
LSH family trades exactness for *hash-bucket* candidate generation: two
records become a candidate only when a randomized signature collides, so
the candidate count tracks the number of genuinely similar pairs instead
of the token-frequency distribution.

Both blockers start from one stable 64-bit hash per token text
(:meth:`~repro.text.intern.Vocabulary.token_hashes`, computed once per
vocabulary id) and mix it with splitmix64 — from scratch, no library
dependencies — vectorized over the
:class:`~repro.runtime.columnar.TokenColumn` CSR buffers:

* :class:`MinHashLSHBlocker` — ``bands × rows`` MinHash permutations
  (``min`` over ``splitmix64(token_hash ^ perm_salt)`` per record), banded into
  bucket keys. Colliding pairs are verified with exact Jaccard
  (:func:`repro.similarity.batch.jaccard_batch`) against ``threshold``.
  With ``b`` bands of ``r`` rows, a pair of Jaccard ``s`` becomes a
  candidate with probability ``1 - (1 - s^r)^b`` — the S-curve to tune:
  the default ``32 × 2`` puts the steep part near ``s ≈ 0.18`` and
  catches ``s = 0.33`` pairs with p ≈ 0.975.
* :class:`SimHashBlocker` — one 64-bit simhash per record (sign of the
  per-bit ±1 vote sum over token hashes), cut into ``max_hamming + 1``
  bit-ranges: by pigeonhole, any pair within the Hamming radius collides
  on at least one complete range. Exact Hamming distance (xor +
  popcount) verifies every collision, so the blocker is *exact over the
  signatures* — approximation enters only through simhashing itself.

Bucket join: per band, one stable ``argsort`` of the right side's keys
turns each bucket into a contiguous run of right rows (in right-row
order); ``searchsorted`` finds each left key's run, and ``np.repeat``
expands the hits into candidate ``(left row, right row)`` arrays. One
stable sort by left row then orders the band-major concatenation by
(left row, band, offset in bucket), and the first occurrence of each
pair wins. Left rows are joined in :data:`_SIG_CHUNK` slices, so the
temporaries stay bounded at million-row scale. Verification and pair
assembly are numpy indexing over the surviving candidate arrays.

Determinism: signatures are pure functions of ``(token texts, seed)`` —
never of interned id values, which depend on interning history and
``PYTHONHASHSEED`` — and candidates are emitted per left record **in
left-row order**, buckets probed in band order, bucket members in
right-row order, first occurrence wins. Output is therefore a pure
function of the input tables and the blocker config: identical in every
process and whatever else the token cache has interned. (The overlap
family's set-iteration emission contract does not apply here; these
blockers define their own, simpler order.) Signatures travel through
the skeleton as return values, so one blocker instance can serve
concurrent calls.

Size caps (:class:`~repro.blocking.policy.BlockSizePolicy`) apply to LSH
buckets exactly as to posting lists: oversized buckets are skipped at
probe time and tallied as ``capped_blocks`` / ``capped_postings``.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np

from ..errors import BlockingError
from ..runtime.columnar import TokenColumn
from ..runtime.cache import TokenCache
from ..runtime.context import EngineSession
from ..runtime.instrument import count, stage
from ..similarity import batch
from ..table import Table
from ..text.tokenizers import Tokenizer, whitespace
from .base import Blocker
from .candidate_set import CandidateSet
from .policy import BlockSizePolicy, resolve_policy
from .sharded import _splitmix64, _splitmix64_np

Normalizer = Callable[[Any], Any]

#: Rows per vectorized signature pass and per probe slice — bounds the
#: temporaries to a few hundred MB at the widest default configuration.
_SIG_CHUNK = 65536


def _csr_arrays(
    entries: "list[Any]", token_hashes: "np.ndarray"
) -> tuple["np.ndarray", "np.ndarray"]:
    """(offsets, flat token hashes) for a list of interned-token entries."""
    offsets, data, _ = TokenColumn.from_entries(entries).csr()
    ids = np.frombuffer(data, dtype=np.int32)
    return np.frombuffer(offsets, dtype=np.int32).astype(np.int64), token_hashes[ids]


def _perm_salts(seed: int, num_perms: int) -> "np.ndarray":
    """One splitmix64-derived salt per MinHash permutation."""
    base = _splitmix64(seed & ((1 << 64) - 1))
    salts = np.empty(num_perms, dtype=np.uint64)
    x = np.uint64(base)
    for i in range(num_perms):
        with np.errstate(over="ignore"):
            x = _splitmix64_np(x + np.uint64(0x9E3779B97F4A7C15))
        salts[i] = x
    return salts


def _minhash_signatures(
    offsets: "np.ndarray", flat: "np.ndarray", salts: "np.ndarray"
) -> "np.ndarray":
    """``(n_rows, n_perms)`` uint64 MinHash matrix over CSR token hashes.

    Rows are processed in :data:`_SIG_CHUNK` batches; each permutation is
    one vectorized splitmix64 pass plus a ``minimum.reduceat``. Empty
    rows never reach here (the token cache drops them).
    """
    n = len(offsets) - 1
    sig = np.empty((n, len(salts)), dtype=np.uint64)
    for start in range(0, n, _SIG_CHUNK):
        stop = min(start + _SIG_CHUNK, n)
        lo, hi = offsets[start], offsets[stop]
        chunk = flat[lo:hi]
        starts = (offsets[start : stop + 1] - lo).astype(np.int64)
        with np.errstate(over="ignore"):
            for p, salt in enumerate(salts):
                hashed = _splitmix64_np(chunk ^ salt)
                sig[start:stop, p] = np.minimum.reduceat(hashed, starts[:-1])
    return sig


def _band_keys(sig: "np.ndarray", bands: int, rows: int) -> "np.ndarray":
    """``(n_rows, bands)`` uint64 bucket keys by folding each band's rows."""
    n = sig.shape[0]
    keys = np.empty((n, bands), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for b in range(bands):
            acc = np.full(n, _splitmix64(b + 0x5EED), dtype=np.uint64)
            for r in range(rows):
                acc = _splitmix64_np(acc ^ sig[:, b * rows + r])
            keys[:, b] = acc
    return keys


def _simhash_signatures(
    offsets: "np.ndarray", flat: "np.ndarray", seed: int
) -> "np.ndarray":
    """One 64-bit simhash per CSR row: sign of the per-bit ±1 vote sums."""
    n = len(offsets) - 1
    out = np.empty(n, dtype=np.uint64)
    salt = np.uint64(_splitmix64(seed & ((1 << 64) - 1)) | 1)
    for start in range(0, n, _SIG_CHUNK):
        stop = min(start + _SIG_CHUNK, n)
        lo, hi = offsets[start], offsets[stop]
        with np.errstate(over="ignore"):
            hashed = _splitmix64_np(flat[lo:hi] ^ salt)
        # (nnz, 64) sign matrix: +1 where the hash bit is set, -1 where
        # clear; reduceat sums votes per row in one pass.
        bits = (
            np.unpackbits(hashed.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
            .astype(np.int32)
        )
        votes = np.add.reduceat(bits * 2 - 1, (offsets[start:stop] - lo).astype(np.int64), axis=0)
        packed = np.packbits((votes > 0).astype(np.uint8), axis=1, bitorder="little")
        out[start:stop] = packed.view(np.uint64).reshape(-1)
    return out


def _hamming64(a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
    return np.bitwise_count(a ^ b)


class _Band(NamedTuple):
    """One band's bucket index over the right side (uncapped buckets only)."""

    keys: "np.ndarray"  # sorted distinct bucket keys
    starts: "np.ndarray"  # each bucket's first slot in ``members``
    sizes: "np.ndarray"  # each bucket's record count
    members: "np.ndarray"  # right rows by key, right-row order within a bucket


def _index_buckets(
    r_keys: "np.ndarray", max_block_size: int | None
) -> tuple[list[_Band], int, int]:
    """Per-band bucket indexes, plus ``(capped_blocks, capped_postings)``.

    Each band is one stable ``argsort`` of the right side's key column:
    equal keys become contiguous runs (the buckets), members in right-row
    order. Buckets over *max_block_size* are dropped from the index, so
    the probe never sees them.
    """
    bands: list[_Band] = []
    capped_blocks = capped_postings = 0
    for col in r_keys.T:
        members = np.argsort(col, kind="stable")
        ordered = col[members]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        sizes = np.diff(np.r_[starts, len(ordered)])
        keys = ordered[starts]
        if max_block_size is not None:
            over = sizes > max_block_size
            capped_blocks += int(over.sum())
            capped_postings += int(sizes[over].sum())
            keep = ~over
            keys, starts, sizes = keys[keep], starts[keep], sizes[keep]
        bands.append(_Band(keys, starts, sizes, members))
    return bands, capped_blocks, capped_postings


def _probe_buckets(
    bands: list[_Band], l_keys: "np.ndarray", n_right: int
) -> tuple["np.ndarray", "np.ndarray"]:
    """Deduplicated candidate ``(left rows, right rows)`` in emission order.

    Left rows are processed in :data:`_SIG_CHUNK` slices so the
    per-band expansion stays bounded. Within a slice, each band's hits
    are expanded into ``(left row, bucket member)`` runs; the band-major
    concatenation, stably sorted by left row, is ordered by (left row,
    band, offset in bucket), and the first occurrence of each pair wins.
    """
    lefts: list["np.ndarray"] = []
    rights: list["np.ndarray"] = []
    for lo in range(0, len(l_keys), _SIG_CHUNK):
        chunk = l_keys[lo : lo + _SIG_CHUNK]
        hit_left: list["np.ndarray"] = []
        hit_right: list["np.ndarray"] = []
        for b, band in enumerate(bands):
            if not len(band.keys):
                continue
            col = chunk[:, b]
            # binary search in key order walks band.keys cache-friendly
            by_key = np.argsort(col)
            pos = np.empty(len(col), dtype=np.intp)
            pos[by_key] = np.searchsorted(band.keys, col[by_key])
            np.minimum(pos, len(band.keys) - 1, out=pos)
            rows = np.flatnonzero(band.keys[pos] == col)
            if not len(rows):
                continue
            pos = pos[rows]
            sizes = band.sizes[pos]
            ends = np.cumsum(sizes)
            # member slot = bucket start + offset in bucket
            slots = np.arange(ends[-1]) + np.repeat(band.starts[pos] - (ends - sizes), sizes)
            hit_left.append(np.repeat(rows + lo, sizes))
            hit_right.append(band.members[slots])
        if not hit_left:
            continue
        left = np.concatenate(hit_left)
        right = np.concatenate(hit_right)
        order = np.argsort(left, kind="stable")
        left, right = left[order], right[order]
        _, first = np.unique(left * n_right + right, return_index=True)
        first.sort()
        lefts.append(left[first])
        rights.append(right[first])
    if not lefts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(lefts), np.concatenate(rights)


class _LSHBlockerBase(Blocker):
    """Shared skeleton: tokenize → signatures → index → probe → verify."""

    supports_incremental = False

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        *,
        tokenizer: Tokenizer = whitespace,
        normalizer: Normalizer | None = None,
        seed: int = 0,
        block_size_policy: "BlockSizePolicy | int | None" = None,
    ) -> None:
        self.l_attr = l_attr
        self.r_attr = r_attr
        self.tokenizer = tokenizer
        self.normalizer = normalizer
        self.seed = seed
        self.block_size_policy = resolve_policy(block_size_policy)

    def _compute_blocking(
        self,
        session: EngineSession,
        ltable: Table,
        rtable: Table,
        l_key: str,
        r_key: str,
        name: str,
    ) -> CandidateSet:
        self._validate_inputs(
            ltable, rtable, l_key, r_key, [(ltable, self.l_attr), (rtable, self.r_attr)]
        )
        instrumentation = session.instrumentation
        cache = session.token_cache
        hits_before = cache.hits
        with stage(instrumentation, "tokenize"):
            l_entries = cache.token_ids_by_id(
                ltable, self.l_attr, l_key, self.tokenizer, self.normalizer
            )
            r_entries = cache.token_ids_by_id(
                rtable, self.r_attr, r_key, self.tokenizer, self.normalizer
            )
            count(instrumentation, "l_records", len(l_entries))
            count(instrumentation, "r_records", len(r_entries))
            count(instrumentation, "cache_hits", cache.hits - hits_before)
        lids = list(l_entries.keys())
        rids = list(r_entries.keys())
        if not lids or not rids:
            count(instrumentation, "pairs_out", 0)
            return CandidateSet(
                ltable, rtable, l_key, r_key, [], name=name or self.short_name
            )
        l_vals = list(l_entries.values())
        r_vals = list(r_entries.values())
        with stage(instrumentation, "signatures"):
            l_keys, l_payload = self._hash_side(cache, l_vals)
            r_keys, r_payload = self._hash_side(cache, r_vals)
        policy = self.block_size_policy
        with stage(instrumentation, "index"):
            bands, capped_blocks, capped_postings = _index_buckets(
                r_keys, policy.max_block_size
            )
            if policy.capped:
                count(instrumentation, "capped_blocks", capped_blocks)
                count(instrumentation, "capped_postings", capped_postings)
        with stage(instrumentation, "probe"):
            left, right = _probe_buckets(bands, l_keys, len(rids))
            count(instrumentation, "candidates", len(left))
        with stage(instrumentation, "verify"):
            keep = self._verify(left, right, l_payload, r_payload)
            pairs = list(
                zip(
                    [lids[i] for i in left[keep].tolist()],
                    [rids[j] for j in right[keep].tolist()],
                )
            )
            count(instrumentation, "pairs_out", len(pairs))
        return CandidateSet(
            ltable, rtable, l_key, r_key, pairs, name=name or self.short_name
        )

    def _hash_side(
        self, cache: TokenCache, entries: list[Any]
    ) -> tuple["np.ndarray", Any]:
        """:meth:`_signatures` over one side's interned entries."""
        hashes = cache.vocabulary.token_hashes()
        return self._signatures(*_csr_arrays(entries, hashes), entries)

    def _signatures(
        self, offsets: "np.ndarray", flat: "np.ndarray", entries: list[Any]
    ) -> tuple["np.ndarray", Any]:
        """``(bucket keys, verification payload)`` for one side.

        The keys are an ``(n_rows, bands)`` uint64 matrix; the payload is
        whatever :meth:`_verify` needs about that side's rows. It travels
        through the skeleton as a return value, so concurrent calls on one
        instance never share state.
        """
        raise NotImplementedError

    def _verify(
        self,
        left: "np.ndarray",
        right: "np.ndarray",
        l_payload: Any,
        r_payload: Any,
    ) -> "np.ndarray":
        """Boolean keep-mask over the candidates ``(left[k], right[k])``."""
        raise NotImplementedError


class MinHashLSHBlocker(_LSHBlockerBase):
    """MinHash-LSH blocker with exact-Jaccard verification.

    Parameters
    ----------
    l_attr, r_attr:
        Blocking attributes (tokenized like the overlap family).
    threshold:
        Jaccard floor candidates must reach to survive verification.
    bands, rows:
        Banding configuration; ``bands * rows`` permutations are hashed.
        More bands → higher recall and more candidates; more rows per
        band → sharper S-curve. Defaults (32 × 2) target thresholds
        around 0.3.
    seed:
        Permutation seed — fixed by default so runs are reproducible.
    block_size_policy:
        Optional bucket-size cap (see :mod:`repro.blocking.policy`).
    """

    short_name = "minhash_lsh"

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        threshold: float = 0.3,
        *,
        bands: int = 32,
        rows: int = 2,
        tokenizer: Tokenizer = whitespace,
        normalizer: Normalizer | None = None,
        seed: int = 0,
        block_size_policy: "BlockSizePolicy | int | None" = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise BlockingError(
                f"minhash threshold must be in (0, 1], got {threshold}"
            )
        if bands < 1 or rows < 1:
            raise BlockingError(
                f"bands and rows must be >= 1, got bands={bands} rows={rows}"
            )
        super().__init__(
            l_attr,
            r_attr,
            tokenizer=tokenizer,
            normalizer=normalizer,
            seed=seed,
            block_size_policy=block_size_policy,
        )
        self.threshold = threshold
        self.bands = bands
        self.rows = rows

    def _signatures(self, offsets, flat, entries):
        salts = _perm_salts(self.seed, self.bands * self.rows)
        sig = _minhash_signatures(offsets, flat, salts)
        return _band_keys(sig, self.bands, self.rows), [entry.ids for entry in entries]

    def _verify(self, left, right, l_sets, r_sets):
        sims = batch.jaccard_batch(
            [l_sets[i] for i in left.tolist()], [r_sets[j] for j in right.tolist()]
        )
        return np.asarray(sims) >= self.threshold - 1e-12


class SimHashBlocker(_LSHBlockerBase):
    """SimHash blocker: 64-bit signatures, Hamming-radius candidates.

    Parameters
    ----------
    max_hamming:
        Maximum Hamming distance (0..16) between signatures for a pair to
        survive. The signature is cut into ``max_hamming + 1`` bit-ranges
        for bucketing (pigeonhole guarantees no in-radius pair is
        missed); every collision is verified with an exact xor+popcount.
    """

    short_name = "simhash"

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        max_hamming: int = 3,
        *,
        tokenizer: Tokenizer = whitespace,
        normalizer: Normalizer | None = None,
        seed: int = 0,
        block_size_policy: "BlockSizePolicy | int | None" = None,
    ) -> None:
        if not 0 <= max_hamming <= 16:
            raise BlockingError(
                f"max_hamming must be in [0, 16], got {max_hamming}"
            )
        super().__init__(
            l_attr,
            r_attr,
            tokenizer=tokenizer,
            normalizer=normalizer,
            seed=seed,
            block_size_policy=block_size_policy,
        )
        self.max_hamming = max_hamming

    def _signatures(self, offsets, flat, entries):
        sig = _simhash_signatures(offsets, flat, self.seed)
        chunks = self.max_hamming + 1
        bounds = np.linspace(0, 64, chunks + 1).astype(np.uint64)
        keys = np.empty((len(sig), chunks), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for c in range(chunks):
                lo, hi = int(bounds[c]), int(bounds[c + 1])
                width = hi - lo
                mask = (
                    np.uint64((1 << width) - 1)
                    if width < 64
                    else np.uint64(0xFFFFFFFFFFFFFFFF)
                )
                piece = (sig >> np.uint64(lo)) & mask
                # Salt with the chunk id so identical bit patterns in
                # different ranges never share a bucket.
                keys[:, c] = _splitmix64_np(piece ^ np.uint64(_splitmix64(c + 0xC0FFEE)))
        return keys, sig

    def _verify(self, left, right, l_sig, r_sig):
        return _hamming64(l_sig[left], r_sig[right]) <= self.max_hamming
