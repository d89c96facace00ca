"""Key-value datastores of decoder context vectors with nearest-neighbor search.

A datastore maps context vectors (keys) to the target tokens that were
generated in those contexts (values), keeping per-entry source-language
provenance. Search is either an exhaustive exact scan or a cell-probe
index (k-means-style cells, probe the closest cells) whose results can be
checked against the exact oracle by probing every cell.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import time
import zlib
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .errors import (
    CorruptFileError,
    DimensionMismatchError,
    EmptyDatastoreError,
    EmptyInputError,
    IncompatibleStoresError,
    InsufficientEntriesError,
    MalformedDumpError,
)

RDMP_MAGIC = b"RDMP1\x00"
KDS_MAGIC = b"KDS1\x00\x00"
CELLS_MAGIC = b"KCL1"

KMEANS_ITERS = 10
DEFAULT_TRAIN_SIZE = 65536

_CHUNK_ROWS = 8192  # rows per float64 temporary of the chunked scans
_COPY_ROWS = 1024  # rows per block of the cell-probe index's transposed key copy
_LANG_RE = re.compile(r"^[a-z][a-z0-9]*$")


def check_lang_code(code: str) -> str:
    """Validate a language tag (non-empty, ASCII lowercase)."""
    if not isinstance(code, str) or not _LANG_RE.match(code):
        raise MalformedDumpError(f"invalid language code: {code!r}")
    return code


def record_dtype(dim: int) -> np.dtype:
    """One dumped translation context, laid out as an RDMP1 row.

    ``sid`` is the sentence id, ``ts`` the decoding timestep, ``tok`` the
    target token and ``vec`` the key vector. Arrays of this dtype carry
    records from the decoder through dumps and stores to analysis.
    """
    return np.dtype([("sid", "<u4"), ("ts", "<u2"), ("tok", "<u4"), ("vec", "<f4", (dim,))])


def store_dtype(dim: int) -> np.dtype:
    """One datastore entry, laid out as a KDS1 row: a record plus its language.

    ``lang`` indexes the store's ``lang_codes``.
    """
    return np.dtype([("sid", "<u4"), ("ts", "<u2"), ("tok", "<u4"), ("lang", "<u2"),
                     ("vec", "<f4", (dim,))])


def make_records(vectors, token_ids, sentence_ids, timesteps) -> np.ndarray:
    """Record rows from columns; a scalar column is broadcast to every row.

    Raises MalformedDumpError for a sentence id outside [0, 2^32) or a
    timestep outside [0, 2^16), the ranges of their u4 and u2 fields.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim != 2:
        raise MalformedDumpError(f"record vectors must form a matrix, got {vectors.shape}")
    for name, column, bits in (("sentence ids", sentence_ids, 32), ("timesteps", timesteps, 16)):
        column = np.asarray(column)
        if column.size and not 0 <= column.min() <= column.max() < 2**bits:
            raise MalformedDumpError(f"record {name} must lie in [0, 2^{bits})")
    records = np.empty(vectors.shape[0], dtype=record_dtype(vectors.shape[1]))
    records["vec"] = vectors
    records["tok"] = token_ids
    records["sid"] = sentence_ids
    records["ts"] = timesteps
    return records


# one retrieved entry: its index in the store, squared-L2 distance and value token
NEIGHBOR_DTYPE = np.dtype([("entry_index", "<i8"), ("distance", "<f8"), ("token_id", "<u4")])


def context_rows(sentence_ids: np.ndarray,
                 timesteps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Join key for contexts: one row per (sentence id, timestep) pair.

    Returns the sorted keys ``(sid << 16) | ts`` and, for each key, the
    index of the row it came from. When a pair occurs more than once, the
    last row wins.
    """
    keys = (sentence_ids.astype(np.int64) << 16) | timesteps
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    last = np.append(keys[1:] != keys[:-1], True)
    return keys[last], order[last]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``np.arange(s, s + n)`` for each start s and length n, concatenated."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


@dataclass(frozen=True)
class IndexSpec:
    """Search-index configuration, sufficient to rebuild deterministically."""

    kind: str = "exact-scan"  # "exact-scan" | "cell-probe"
    n_cells: int = 0
    n_probe: int = 0
    train_size: int = DEFAULT_TRAIN_SIZE

    def __post_init__(self):
        # checked here, not when the index is built on a store's first search
        if self.kind not in ("exact-scan", "cell-probe"):
            raise ValueError(f"unknown index kind: {self.kind}")
        if self.kind == "cell-probe" and (self.n_cells < 1 or self.n_probe < 1):
            raise ValueError("n_cells and n_probe must be positive")


def squared_distances(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared-L2 distances from ``q`` to every row of ``keys``: the exact rescoring step.

    Keys are float32 storage; the subtraction and accumulation happen in
    float64, and each row is reduced independently of the others, so a row's
    distance is the same bits whichever rows it is scored with. Both indexes
    rank every row they search by this value.
    """
    q64 = np.asarray(q, dtype=np.float64)
    n = keys.shape[0]
    if n <= _CHUNK_ROWS:  # the one chunk, with no output to fill piecewise
        chunk = keys - q64  # float64: a float32 key converts exactly
        return np.einsum("ij,ij->i", chunk, chunk)
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, _CHUNK_ROWS):
        chunk = keys[start:start + _CHUNK_ROWS] - q64
        out[start:start + _CHUNK_ROWS] = np.einsum("ij,ij->i", chunk, chunk)
    return out


def _topk(dists: np.ndarray, candidates: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-k by (distance, entry_index); lower entry index wins ties."""
    order = np.lexsort((candidates, dists))[:k]
    return candidates[order], dists[order]


def _row_norms(keys: np.ndarray) -> np.ndarray:
    """Float32 squared norms of the rows of ``keys``."""
    return np.einsum("ij,ij->i", keys, keys)


_U32 = 2.0 ** -24  # unit roundoff of float32
_U64 = 2.0 ** -53  # unit roundoff of float64


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = n u / (1 - n u): the rounding bound of an n-step reduction.

    It is inf when n u >= 1, where no such bound holds.
    """
    return n * u / (1 - n * u) if n * u < 1 else float("inf")


def _key_norm_bound(norms: np.ndarray, d: int) -> float:
    """K of ``_certified_topk``: an upper bound on the largest norm of d-dimensional keys
    whose float32 squared norms are ``norms`` (inf or NaN when one of those is)."""
    bound = float(norms.max(initial=0.0)) * (1 + 2 * _gamma(d, _U32))
    return math.sqrt(bound)  # np.sqrt's bits, without numpy scalars


_SAMPLE_ROWS = 4096  # fewest estimates in the strided sample that a threshold comes from


def _limit(approx: np.ndarray, k: int, slack: float) -> np.float32:
    """The k-th smallest of ``approx`` plus ``slack``, rounded up to a float32."""
    limit = float(np.partition(approx, k - 1)[k - 1]) + slack
    return np.nextafter(np.float32(limit), np.float32(np.inf))


def _shortlist(approx: np.ndarray, k: int, slack: float) -> np.ndarray:
    """Positions, ascending, of the estimates at most ``_limit(approx, k, slack)``.

    Over many rows the whole array is not partitioned: every ``step``-th
    estimate is, and only the candidates within ``slack`` of that sample's
    k-th smallest are partitioned again. A subset's k-th smallest is at
    least the whole array's, so the candidates hold every row of the
    shortlist and the same limit follows from them.
    """
    step = approx.size // max(_SAMPLE_ROWS, 4 * k)
    if step <= 1:
        return np.flatnonzero(approx <= _limit(approx, k, slack))
    candidates = np.flatnonzero(approx <= _limit(approx[::step], k, slack))
    near = approx[candidates]
    return candidates[near <= _limit(near, k, slack)]


@cache
def _rounding(d: int) -> tuple[float, float, float]:
    """The factors of ``_slack`` in dimension d: 1 + gamma_{d+2} and gamma_{d+3} in
    float64, and gamma_{d+3} in float32."""
    return 1 + _gamma(d + 2, _U64), _gamma(d + 3, _U64), _gamma(d + 3, _U32)


def _slack(knorm: float, d: int, q: np.ndarray) -> float | None:
    """2E of ``_certified_topk`` for the query q and key-norm bound K = ``knorm``, or None
    when K + Q exceeds 2^60 or is not finite (a NaN or inf key or query)."""
    qscale, g64, g32 = _rounding(d)
    qnorm = math.sqrt(float(q @ q)) * qscale  # np.sqrt's bits, without numpy scalars
    if not knorm + qnorm <= 2.0 ** 60:  # True for NaN and inf too
        return None
    return 2 * (g32 * (knorm * knorm + 2 * knorm * qnorm) + g64 * (knorm + qnorm) ** 2
                + (d + 1) * (3 + knorm) * 2.0 ** -149)


def _certified_topk(keys: np.ndarray, norms: np.ndarray, queries: np.ndarray, k: int,
                    knorm: float | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact top-k of the rows of ``keys`` for each row of ``queries``.

    Returns one (ids, distances) pair per query, each of min(k, n) entries,
    an id being a row of ``keys``. ``knorm`` is ``_key_norm_bound(norms, d)``
    when the caller keeps it. Row j of the result is
    ``_topk(squared_distances(keys, queries[j]), arange(n), k)`` bit for bit,
    so ties break toward the lower id, but only a shortlist is gathered and
    rescored. The rows are ranked by one float32 product laid out as
    ``(rows, queries)``; each query's column is then scaled into a
    contiguous vector (a lone column is one, and is scaled in place)
    ``approx = norms - 2 keys @ float32(q)``, which
    estimates ``a = |k|^2 - 2 k.q = |k - q|^2 - |q|^2``. Let d be the
    dimension, u = 2^-24, gamma_n = n u / (1 - n u), and K and Q upper
    bounds on the largest key norm and on |q|. Then:

    - ``norms``, a float32 reduction, is off by at most gamma_d K^2;
    - rounding q to float32 moves k.q by at most u K Q, and the float32 dot
      product is off by at most gamma_d K Q, in any summation order (so a
      column of a matrix product is bounded as a matrix-vector product is,
      and a sum over only the nonzero coordinates of q is bounded too: the
      others add exact zeros, and gamma_m <= gamma_d for m <= d terms);
    - scaling by -2 is exact, before the product or after it, as long as
      nothing overflows, which the 2^60 guard below excludes;
    - the final subtraction rounds once more, by at most u (K^2 + 2 K Q);
    - products that underflow add at most (d + 1)(3 + K) 2^-149.

    So |approx - a| <= gamma_{d+3} (K^2 + 2 K Q) + (d + 1)(3 + K) 2^-149.
    The float64 rescoring is off the real distance by at most
    gamma_{d+2} (K + Q)^2 (with the float64 u), and one more float64 u
    covers rounding the limit. Let E be the sum of these bounds (``_slack``
    returns 2E) and t the k-th smallest ``approx``. At least k rows rescore
    to at most t + |q|^2 + E, so every row of the true top-k, ties included, has
    ``approx <= t + 2E``, and every row outside that shortlist rescores
    strictly worse than the k-th. ``_shortlist`` finds t from a strided
    sample's candidates over many rows: the same t, so the same shortlist,
    row for row. When K + Q exceeds 2^60 (a float32 step could overflow) or
    is not finite (a NaN or inf key or query), every row is rescored for
    that query: the plain exact scan. Such a query takes no column of the
    product. ``_probed_topk`` ranks the spans of a cell-probe search under
    the same bound, from the query's nonzero coordinates only.
    """
    queries = np.asarray(queries, dtype=np.float64)
    n, d = keys.shape
    rows_q = list(queries)  # one view per query, made once
    slacks = [None] * len(rows_q)  # 2E of each query that ranks by the float32 product
    if k < n:
        if knorm is None:
            knorm = _key_norm_bound(norms, d)
        slacks = [_slack(knorm, d, q) for q in rows_q]
    columns = len(rows_q) - slacks.count(None)
    if columns:
        bounded = queries if columns == len(queries) else queries[
            [j for j, slack in enumerate(slacks) if slack is not None]]
        ranked = keys @ bounded.astype(np.float32).T
    found = []
    column = 0  # of ``ranked``: the bounded queries in order
    for q, slack in zip(rows_q, slacks):
        if slack is not None:
            approx = ranked[:, column]
            approx = np.multiply(approx, -2.0, out=approx if columns == 1 else None)
            approx += norms
            column += 1
            rows = _shortlist(approx, k, slack)
        else:  # the plain exact scan
            rows = np.arange(n, dtype=np.int64)
        found.append(_topk(squared_distances(keys[rows], q), rows, k))
    return found


def _probed_topk(keys: np.ndarray, keys_t: np.ndarray, norms: np.ndarray, ids: np.ndarray,
                 spans: tuple[np.ndarray, np.ndarray], ends: np.ndarray, q: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k, for one query q, of the entries ``ids[lo:hi]`` of the spans ``lo:hi``.

    ``spans`` is a pair of arrays ``(starts, stops)``, and ``ends`` the
    running sum of their lengths: where each span ends when the spans are
    laid end to end. Column i of ``keys_t`` is the key ``keys[ids[i]]`` and
    ``norms[i]`` its float32 squared norm. With ``rows`` the positions of
    the spans in order, the result is
    ``_topk(squared_distances(keys[ids[rows]], q), ids[rows], k)`` bit for
    bit, through the certified shortlist of ``_certified_topk``. Each span
    is ranked as ``(-2 float32(q)[nz]) @ keys_t[nz, lo:hi] + norms[lo:hi]``,
    nz the nonzero coordinates of the float32 query, so ``keys_t`` is read
    only in those rows; a dense query reads them all. The zero coordinates
    would add exact zeros (a non-finite key, whose product with a zero is
    NaN, makes the bound infinite and takes the plain scan), so the bound of
    ``_certified_topk`` holds for the shorter sum. The shortlisted entries
    are rescored from ``keys``, gathered by entry id: a rescored row has the
    layout and float64 bits of an exact-scan row.
    """
    starts, stops = spans
    slices = list(map(slice, starts.tolist(), stops.tolist()))
    norms = np.concatenate([norms[s] for s in slices])
    d = keys.shape[1]
    slack = _slack(_key_norm_bound(norms, d), d, q) if k < norms.size else None
    if slack is None:  # the plain scan of every probed entry
        rows = _ranges(starts, stops - starts)
    else:
        q32 = q.astype(np.float32)
        nz = np.flatnonzero(q32)
        weights = q32[nz] * np.float32(-2.0)
        # ndarray.dot: as @, with less overhead per small span
        approx = np.concatenate([weights.dot(keys_t[nz, s]) for s in slices])
        approx += norms
        rows = _shortlist(approx, k, slack)  # positions in the ranking
        rows += (stops - ends)[np.searchsorted(ends, rows, side="right")]
    found = ids[rows]
    return _topk(squared_distances(keys[found], q), found, k)


def _stack(found: list[tuple[np.ndarray, np.ndarray]],
           k: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, k) ids and distances from B (ids, distances) pairs of k entries each."""
    ids = np.empty((len(found), k), dtype=np.int64)
    dists = np.empty((len(found), k), dtype=np.float64)
    for j, (row_ids, row_dists) in enumerate(found):
        ids[j], dists[j] = row_ids, row_dists
    return ids, dists


class ExactScanIndex:
    """Exhaustive search; the ground-truth top-k under squared-L2.

    Every row is ranked by a float32 product, and only the rows within the
    certified error bound of the k-th (``_certified_topk``) are rescored in
    float64, so the result equals a float64 scan of every row, ties included.
    A batch of queries is ranked by one product, a column per query. The
    keys' float32 squared norms are ``norms`` when given (a store keeps those
    its finiteness check computed), else computed on the first search.
    """

    kind = "exact-scan"

    def __init__(self, keys: np.ndarray, norms: np.ndarray | None = None):
        self._keys = keys
        self._norms = norms
        self._knorm = None  # on the first search, with the norms when there are none yet

    def search(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, distances) of one query's top k, or (B, k) arrays for a (B, d) batch."""
        if self._knorm is None:
            if self._norms is None:
                self._norms = _row_norms(self._keys)
            self._knorm = _key_norm_bound(self._norms, self._keys.shape[1])
        q = np.asarray(q, dtype=np.float64)
        if q.ndim == 1:
            return _certified_topk(self._keys, self._norms, q[None], k, knorm=self._knorm)[0]
        found = _certified_topk(self._keys, self._norms, q, k, knorm=self._knorm)
        return _stack(found, min(k, len(self._keys)))


class CellProbeIndex:
    """Inverted-file index: entries bucketed by nearest centroid.

    Centroids start from the first ``n_cells`` distinct entries and are
    refined with a fixed number of Lloyd iterations over a deterministic
    prefix subsample, trading cluster quality for reproducibility. The
    constructor is one such k-means run; ``from_cells`` restores an index
    from centroids and cells that a run made before (``load_datastore``'s
    cell file) without running it again. The cells are held as one CSR
    pair: ``_order`` lists the entry ids cell by cell, in entry order within
    a cell, and cell c holds ``_order[_bounds[c]:_bounds[c + 1]]``. A query
    scans only the ``n_probe`` cells whose centroids are closest, ties by
    cell id, or more until they hold k entries; probing every cell
    reproduces the exact scan, tie-breaks included. The first search copies
    the keys in ``_order``, transposed: ``_cell_keys`` is one C-contiguous
    ``(d, n)`` array whose column i is the key of entry ``_order[i]``, built
    in blocks of ``_COPY_ROWS`` rows, beside their norms (gathered from
    ``norms`` when given, as ``ExactScanIndex`` takes them); ``_keys`` stays
    the store's keys. A probed cell is then a column span of every row, and
    ``_probed_topk`` ranks it from the rows of the query's nonzero
    coordinates only: a hashed decode-time query has about 8 of 64. The
    ranking goes through the same certified float32 shortlist as
    ``ExactScanIndex`` (``_certified_topk``), and the shortlist is rescored
    from ``_keys``, so the result equals a float64 scan of every probed
    entry, ties broken by entry id. ``origin`` says
    where the index came from ("built", "read", or "built, not saved" when
    ``load_datastore`` could not write the cell file) and ``build_seconds``
    the time its k-means run took.
    """

    kind = "cell-probe"

    def __init__(self, keys: np.ndarray, n_cells: int, n_probe: int,
                 train_size: int = DEFAULT_TRAIN_SIZE, norms: np.ndarray | None = None):
        if n_cells < 1 or n_probe < 1:
            raise ValueError("n_cells and n_probe must be positive")
        started = time.perf_counter()
        centroids = _initial_centroids(keys, n_cells)
        centroids = _refine_centroids(centroids, keys[:max(train_size, 1)])
        self._set_cells(keys, n_probe, centroids, _assign_cells(keys, centroids), norms)
        self.origin = "built"
        self.build_seconds = time.perf_counter() - started

    @classmethod
    def from_cells(cls, keys: np.ndarray, n_probe: int, centroids: np.ndarray,
                   cells: np.ndarray, norms: np.ndarray | None = None) -> CellProbeIndex:
        """The index whose k-means run gave ``centroids`` and each key's cell, ``cells``."""
        index = cls.__new__(cls)  # no __init__: that is the k-means run
        index._set_cells(keys, n_probe, centroids, cells, norms)
        index.origin = "read"
        index.build_seconds = 0.0
        return index

    def _set_cells(self, keys: np.ndarray, n_probe: int, centroids: np.ndarray,
                   cells: np.ndarray, norms: np.ndarray | None) -> None:
        self._keys = keys
        self._norms = norms
        self.n_probe = n_probe
        self.centroids = centroids
        self.n_cells = centroids.shape[0]
        self._order = np.argsort(cells, kind="stable")
        self._bounds = np.searchsorted(cells[self._order], np.arange(self.n_cells + 1))
        self._sizes = np.diff(self._bounds)
        # on the first search, as ExactScanIndex's norms: an unsearched store holds one key set
        self._cell_keys = None
        self._cell_norms = None

    def search(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, distances) of one query's top k among the probed cells' entries."""
        q = np.asarray(q, dtype=np.float64)
        cdists = squared_distances(self.centroids, q)
        cells = np.argsort(cdists, kind="stable")  # closest first, ties by cell id
        ends = np.cumsum(self._sizes[cells])  # where each cell ends in the ranking
        # the n_probe closest cells, expanded until they hold k entries
        probe = min(max(self.n_probe, int(np.searchsorted(ends, k)) + 1), self.n_cells)
        if self._cell_keys is None:
            self._cell_keys = _transposed_rows(self._keys, self._order)
            norms = _row_norms(self._keys) if self._norms is None else self._norms
            self._cell_norms = norms[self._order]
        cells = cells[:probe]
        return _probed_topk(self._keys, self._cell_keys, self._cell_norms, self._order,
                            (self._bounds[cells], self._bounds[cells + 1]), ends[:probe], q, k)


def _transposed_rows(keys: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``keys[order].T`` as one C-contiguous ``(d, n)`` array, gathered block by block.

    A block of rows is gathered and transposed while it is in cache, which
    is several times faster than transposing the whole gather at once.
    """
    out = np.empty((keys.shape[1], order.size), dtype=keys.dtype)
    for start in range(0, order.size, _COPY_ROWS):
        out[:, start:start + _COPY_ROWS] = keys[order[start:start + _COPY_ROWS]].T
    return out


def _cell_dtype(n_cells: int) -> np.dtype:
    return np.dtype("<u2" if n_cells <= 2**16 else "<u4")


def _initial_centroids(keys: np.ndarray, n_cells: int) -> np.ndarray:
    seen: set[bytes] = set()
    picks: list[int] = []
    for i in range(keys.shape[0]):
        b = keys[i].tobytes()
        if b not in seen:
            seen.add(b)
            picks.append(i)
            if len(picks) == n_cells:
                break
    return keys[picks].astype(np.float64)


def _refine_centroids(centroids: np.ndarray, train: np.ndarray) -> np.ndarray:
    buffers = _chunk_buffers(train, centroids)  # one pair for every iteration
    for _ in range(KMEANS_ITERS):
        assign = _assign_cells(train, centroids, buffers)
        for c in range(centroids.shape[0]):
            members = train[assign == c].astype(np.float64)  # no float64 copy of all of train
            if members.size:  # empty cells keep their previous centroid
                centroids[c] = members.mean(axis=0)
    return centroids


def _chunk_buffers(keys: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A float64 chunk of keys and its product with the centroids, for ``_assign_cells``."""
    rows = min(keys.shape[0], _CHUNK_ROWS)
    return np.empty((rows, keys.shape[1])), np.empty((rows, centroids.shape[0]))


def _assign_cells(keys: np.ndarray, centroids: np.ndarray,
                  buffers: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """The closest centroid of each key, filling ``buffers`` chunk by chunk."""
    if buffers is None:
        buffers = _chunk_buffers(keys, centroids)
    cnorm = np.einsum("ij,ij->i", centroids, centroids)
    assign = np.empty(keys.shape[0], dtype=np.int64)
    for start in range(0, keys.shape[0], _CHUNK_ROWS):
        part = keys[start:start + _CHUNK_ROWS]
        chunk = buffers[0][:part.shape[0]]
        chunk[...] = part
        d = np.matmul(chunk, centroids.T, out=buffers[1][:part.shape[0]])
        d *= -2.0  # in place, the same bits as cnorm - 2.0 * d; ||x||^2 is constant per row
        d += cnorm
        assign[start:start + _CHUNK_ROWS] = np.argmin(d, axis=1)
    return assign


def _build_index(keys: np.ndarray, spec: IndexSpec, norms: np.ndarray | None):
    if spec.kind == "exact-scan":
        return ExactScanIndex(keys, norms)
    return CellProbeIndex(keys, spec.n_cells, spec.n_probe, spec.train_size, norms)


class Datastore:
    """Immutable collection of (context vector -> token) entries with provenance.

    ``rows`` holds the entries as one array of ``store_dtype`` rows, which the
    constructor makes read-only; ``keys``, ``token_ids``, ``sentence_ids``,
    ``timesteps`` and ``lang_indices`` are views of its columns. The search
    index is built from ``index_spec`` on the first access to ``index``,
    which ``query`` makes, so building, merging, mapping or saving a store
    runs no k-means. ``read_datastore`` returns a store whose index is not
    built yet; ``load_datastore`` sets it before returning, for a cell-probe
    store from the store's cell file when a valid one exists. ``norms``, when
    given, are the keys' float32 squared norms (``_finite_norms``), which the
    index then takes instead of computing its own on its first search; a
    cell-probe index's first search still adds one copy of the keys, in cell
    order and transposed to ``(d, n)`` (``CellProbeIndex``), as many bytes as
    ``keys``. None of these is built under a lock; the program searches a
    store from one thread.
    """

    def __init__(self, rows: np.ndarray, vocab_size: int,
                 lang_codes: tuple[str, ...], index_spec: IndexSpec,
                 norms: np.ndarray | None = None):
        rows.flags.writeable = False
        self.rows = rows
        self.dim = rows.dtype["vec"].shape[0]
        self.vocab_size = vocab_size
        self.keys = rows["vec"]
        self.token_ids = rows["tok"]
        self.sentence_ids = rows["sid"]
        self.timesteps = rows["ts"]
        self.lang_codes = lang_codes
        self.lang_indices = rows["lang"]
        self.index_spec = index_spec
        self.norms = norms
        counts = np.bincount(self.lang_indices, minlength=len(lang_codes))
        self.languages = {code: int(counts[i]) for i, code in enumerate(lang_codes)}

    def __len__(self) -> int:
        return self.rows.size

    @cached_property
    def index(self):
        """The ``ExactScanIndex`` or ``CellProbeIndex`` of ``index_spec``, built once."""
        return _build_index(self.keys, self.index_spec, self.norms)


def _finite_norms(keys: np.ndarray, error) -> np.ndarray:
    """The keys' float32 squared norms (``_row_norms``); raise ``error`` when a key has
    a NaN or inf component.

    Such a key's norm is NaN or inf, so only the rows whose norm is not
    finite are scanned element by element: a finite key whose squared norm
    overflows float32 passes.
    """
    norms = _row_norms(keys)
    odd = ~np.isfinite(norms)
    if odd.any() and not np.isfinite(keys[odd]).all():
        raise error("a key has a NaN or inf component")
    return norms


def _check_columns(dim: int, keys: np.ndarray, token_ids: np.ndarray, vocab_size: int,
                   error) -> np.ndarray:
    """The keys' ``_finite_norms``; raise ``error`` for a bad dimension, a NaN or inf key,
    or an out-of-vocabulary token."""
    if dim < 1:
        raise error(f"dimension must be positive, got {dim}")
    norms = _finite_norms(keys, error)
    if token_ids.size and int(token_ids.max()) >= vocab_size:
        raise error(f"token id {int(token_ids.max())} outside the vocabulary of {vocab_size}")
    return norms


def build_datastore(records: np.ndarray, vocab_size: int, lang: str,
                    index_kind: str = "exact-scan",
                    index_params: dict | None = None) -> Datastore:
    """Build a one-language datastore from ``record_dtype`` rows, keeping their order.

    Raises MalformedDumpError when the records contradict the vocabulary,
    hold a NaN or inf key, or are not ``record_dtype`` rows, and
    EmptyDatastoreError when there are none.
    Stores of several languages come from ``merge_datastores``.
    """
    check_lang_code(lang)
    vec_field = (records.dtype.fields or {}).get("vec")
    dim = vec_field[0].shape[0] if vec_field else 0
    if records.dtype != record_dtype(dim):
        raise MalformedDumpError(f"records have dtype {records.dtype}, not a record dtype")
    norms = _check_columns(dim, records["vec"], records["tok"], vocab_size, MalformedDumpError)
    if records.size == 0:
        raise EmptyDatastoreError("dump contains no records")
    rows = np.zeros(records.size, dtype=store_dtype(dim))  # every entry in language 0
    for name in records.dtype.names:
        rows[name] = records[name]
    return Datastore(rows, vocab_size, (lang,),
                     _index_spec(index_kind, index_params, records.size), norms)


def _index_spec(kind: str, params: dict | None, n_entries: int) -> IndexSpec:
    if kind != "cell-probe":
        return IndexSpec(kind=kind)  # raises ValueError for an unknown kind
    params = dict(params or {})
    n_cells = min(int(params.get("n_cells", 64)), n_entries)
    n_probe = min(int(params.get("n_probe", 8)), n_cells)
    train_size = int(params.get("train_size", DEFAULT_TRAIN_SIZE))
    return IndexSpec(kind="cell-probe", n_cells=n_cells, n_probe=n_probe,
                     train_size=train_size)


def merge_datastores(stores: Sequence[Datastore]) -> Datastore:
    """Concatenate stores into one, keeping entry order and provenance.

    Duplicate (vector, token) entries across source languages are kept.
    The merged store takes the first store's index spec; its index is built
    on its first search. It keeps the stores' key norms when each has them.
    """
    if not stores:
        raise EmptyInputError("no stores to merge")
    first = stores[0]
    for s in stores[1:]:
        if s.dim != first.dim:
            raise IncompatibleStoresError(
                f"dimension mismatch: {first.dim} vs {s.dim}")
        if s.vocab_size != first.vocab_size:
            raise IncompatibleStoresError(
                f"vocabulary mismatch: {first.vocab_size} vs {s.vocab_size}")
    lang_codes: list[str] = []
    lang_lookup: dict[str, int] = {}
    parts = []
    for s in stores:
        remap = np.empty(len(s.lang_codes), dtype=np.uint16)
        for i, code in enumerate(s.lang_codes):
            if code not in lang_lookup:
                lang_lookup[code] = len(lang_codes)
                lang_codes.append(code)
            remap[i] = lang_lookup[code]
        parts.append(remap[s.lang_indices])
    rows = np.concatenate([s.rows for s in stores])
    rows["lang"] = np.concatenate(parts)
    norms = [s.norms for s in stores]
    return Datastore(rows, first.vocab_size, tuple(lang_codes), first.index_spec,
                     None if any(n is None for n in norms) else np.concatenate(norms))


def query(store: Datastore, q: np.ndarray, k: int) -> np.recarray:
    """Return the k nearest entries by squared-L2 distance, ascending.

    ``q`` is one query of shape ``(dim,)``, or a batch of shape ``(B, dim)``.
    The result is k ``NEIGHBOR_DTYPE`` rows as a record array, or a
    ``(B, k)`` one whose row j is ``query(store, q[j], k)`` bit for bit: its
    columns (``.entry_index``, ``.distance``, ``.token_id``) are arrays, and
    each row reads its fields by attribute. Equal distances break toward the
    lower entry index. An exact-scan store ranks a batch with one product;
    a cell-probe store searches its rows one at a time.
    """
    qv = np.asarray(q, dtype=np.float64)
    if qv.ndim not in (1, 2) or qv.shape[-1] != store.dim:
        raise DimensionMismatchError(
            f"query has shape {qv.shape}, store dimension is {store.dim}")
    if k < 1:
        raise ValueError("k must be positive")
    if k > len(store):
        raise InsufficientEntriesError(
            f"k={k} exceeds the {len(store)} stored entries")
    index = store.index
    if qv.ndim == 1 or index.kind == "exact-scan":
        idx, dists = index.search(qv, k)
    else:
        idx, dists = _stack([index.search(row, k) for row in qv], k)
    nbrs = np.empty(idx.shape, dtype=NEIGHBOR_DTYPE)
    nbrs["entry_index"] = idx
    nbrs["distance"] = dists
    nbrs["token_id"] = store.token_ids[idx]
    return nbrs.view(np.recarray)


# ---------------------------------------------------------------------------
# Binary formats
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DumpHeader:
    """Declared shape of a representation dump."""

    dim: int
    vocab_size: int
    lang: str


def write_dump(path: str | os.PathLike, header: DumpHeader, records: np.ndarray) -> int:
    """Write ``record_dtype`` rows to an RDMP1 file; returns the record count.

    A dump holds at least one record: ``read_dump`` bounds the header's
    dimension by the bytes that follow it. An invalid language code raises
    MalformedDumpError, as ``read_dump`` would, before the file is opened.
    """
    lang = _lang_bytes(header.lang)
    if records.size == 0:
        raise EmptyDatastoreError("dump contains no records")
    if records.dtype != record_dtype(header.dim):
        raise MalformedDumpError(
            f"records have dtype {records.dtype}, dump declares d={header.dim}")
    with open(path, "wb") as f:
        f.write(RDMP_MAGIC + struct.pack("<II", header.dim, header.vocab_size) + lang)
        _write_rows(f, records)
    return records.size


def _bytes_left(f) -> int:
    return os.fstat(f.fileno()).st_size - f.tell()


def _check_left(f, n: int, what: str) -> None:
    """Raise CorruptFileError when fewer than n bytes are left to read."""
    left = _bytes_left(f)
    if n > left:
        raise CorruptFileError(f"truncated while reading {what}: "
                               f"needs {n} bytes, {left} left")


def _read_exact(f, n: int, what: str) -> bytes:
    """Read exactly n bytes; a size beyond the end of the file is corruption."""
    _check_left(f, n, what)
    return f.read(n)


def _read_dim(f) -> int:
    """Read a u32 dimension: at least 1, and no more float32s than the file has left."""
    (dim,) = struct.unpack("<I", _read_exact(f, 4, "dimension"))
    if not 1 <= dim <= _bytes_left(f) // 4:
        raise CorruptFileError(f"dimension {dim} is 0 or larger than the file holds")
    return dim


def _read_lang(f) -> str:
    """Read a u32-length-prefixed language code."""
    (n,) = struct.unpack("<I", _read_exact(f, 4, "lang code"))
    raw = _read_exact(f, n, "lang code")
    try:
        return check_lang_code(raw.decode("utf-8"))
    except UnicodeDecodeError:
        raise CorruptFileError(f"lang code {raw!r} is not UTF-8") from None


def _lang_bytes(code: str) -> bytes:
    """A checked language code as ``_read_lang`` reads it: a u32 length, then UTF-8."""
    raw = check_lang_code(code).encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _check_end(f) -> None:
    left = _bytes_left(f)
    if left:
        raise CorruptFileError(f"{left} bytes after the end of the payload")


def _read_rows(f, dtype: np.dtype) -> np.ndarray:
    """Read a u64 row count, then read-only rows that must end the file.

    The rows are read straight into one numpy buffer; a size beyond the end
    of the file, or a read that stops short of it, is corruption.
    """
    (count,) = struct.unpack("<Q", _read_exact(f, 8, "record count"))
    n = count * dtype.itemsize
    _check_left(f, n, "records")
    raw = np.empty(n, dtype=np.uint8)
    got = f.readinto(raw)
    if got != n:
        raise CorruptFileError(f"truncated while reading records: read {got} of {n} bytes")
    _check_end(f)
    rows = raw.view(dtype)
    rows.flags.writeable = False
    return rows


def _write_rows(f, rows: np.ndarray) -> None:
    """Write a u64 row count, then the rows, as ``_read_rows`` reads them."""
    f.write(struct.pack("<Q", rows.size))
    rows.tofile(f)


def read_dump(path: str | os.PathLike) -> tuple[DumpHeader, np.ndarray]:
    """Read an RDMP1 file as its header and read-only ``record_dtype`` rows.

    The dimension, the language code and the sizes are checked against the
    file's length; any contradiction raises CorruptFileError.
    """
    with open(path, "rb") as f:
        if _read_exact(f, len(RDMP_MAGIC), "magic") != RDMP_MAGIC:
            raise CorruptFileError(f"{path}: bad magic, not an RDMP1 dump")
        dim = _read_dim(f)
        (vocab_size,) = struct.unpack("<I", _read_exact(f, 4, "header"))
        header = DumpHeader(dim=dim, vocab_size=vocab_size, lang=_read_lang(f))
        return header, _read_rows(f, record_dtype(dim))


def _manifest_path(path: str | os.PathLike) -> str:
    return os.path.splitext(os.fspath(path))[0] + ".manifest.json"


def save_datastore(store: Datastore, path: str | os.PathLike,
                   manifest: dict | None = None) -> None:
    """Write a KDS1 file plus its informational JSON sidecar manifest.

    Raises InsufficientEntriesError for a cell-probe spec with more cells
    than the store has entries, and MalformedDumpError for an invalid
    language code, both of which ``load_datastore`` would reject; either
    way, nothing is written.
    """
    spec = store.index_spec
    if spec.n_cells > len(store):
        raise InsufficientEntriesError(
            f"index spec asks for {spec.n_cells} cells, the store holds {len(store)} entries")
    kind_code = 0 if spec.kind == "exact-scan" else 1
    table = b"".join(_lang_bytes(code) + struct.pack("<Q", store.languages[code])
                     for code in store.lang_codes)
    with open(path, "wb") as f:
        f.write(KDS_MAGIC + struct.pack("<II", store.dim, store.vocab_size))
        f.write(struct.pack("<BIII", kind_code, spec.n_cells, spec.n_probe, spec.train_size))
        f.write(struct.pack("<I", len(store.lang_codes)) + table)
        _write_rows(f, store.rows)
    sidecar = {"tokenizer": "whitespace", "corpus": "unspecified", **(manifest or {})}
    with open(_manifest_path(path), "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def read_datastore(path: str | os.PathLike) -> Datastore:
    """Read and check a KDS1 file; its search index is built on the first search.

    For stores that are merged, mapped or paired without being searched.
    The store keeps the file's rows as read; its columns are views of them.
    Sizes, the dimension, the index spec (at most one cell per entry),
    language codes, token ids and the provenance table are checked against
    the header and the file's length, and every key must be finite; any
    contradiction raises CorruptFileError.
    """
    with open(path, "rb") as f:
        if _read_exact(f, len(KDS_MAGIC), "magic") != KDS_MAGIC:
            raise CorruptFileError(f"{path}: bad magic, not a KDS1 datastore")
        dim = _read_dim(f)
        (vocab_size,) = struct.unpack("<I", _read_exact(f, 4, "header"))
        kind_code, n_cells, n_probe, train_size = struct.unpack(
            "<BIII", _read_exact(f, 13, "index spec"))
        if kind_code not in (0, 1):
            raise CorruptFileError(f"{path}: unknown index kind byte {kind_code}")
        if kind_code == 1 and not (n_cells and n_probe):
            raise CorruptFileError(
                f"{path}: cell-probe index with {n_cells} cells and {n_probe} probes")
        (n_langs,) = struct.unpack("<I", _read_exact(f, 4, "provenance table"))
        lang_codes = []
        declared_counts = []
        for _ in range(n_langs):
            lang_codes.append(_read_lang(f))
            (count,) = struct.unpack("<Q", _read_exact(f, 8, "provenance table"))
            declared_counts.append(count)
        if len(set(lang_codes)) < n_langs:
            raise CorruptFileError(f"{path}: a language is listed twice")
        rows = _read_rows(f, store_dtype(dim))
    if rows.size == 0:
        raise EmptyDatastoreError(f"{path}: datastore holds no entries")
    if kind_code == 1 and n_cells > rows.size:
        raise CorruptFileError(f"{path}: {n_cells} cells for {rows.size} entries")
    norms = _check_columns(dim, rows["vec"], rows["tok"], vocab_size, CorruptFileError)
    if int(rows["lang"].max()) >= n_langs:
        raise CorruptFileError(f"{path}: entry references an undeclared language")
    if kind_code == 0:
        spec = IndexSpec(kind="exact-scan")
    else:
        spec = IndexSpec(kind="cell-probe", n_cells=n_cells, n_probe=n_probe,
                         train_size=train_size)
    store = Datastore(rows, vocab_size, tuple(lang_codes), spec, norms)
    if list(store.languages.values()) != declared_counts:  # the store's own count
        raise CorruptFileError(f"{path}: provenance table disagrees with entries")
    return store


def cells_path(path: str | os.PathLike) -> str:
    """Where ``load_datastore`` keeps a cell-probe store's index: ``<store path>.cells``."""
    return os.fspath(path) + ".cells"


# KCL1 cell file: magic, u64 entry count, u32 dim, n_cells, train_size, rows CRC32 and
# centroid count, then float64 centroids, each entry's cell, and the CRC32 of all before it
_CELLS_HEAD = struct.Struct("<4sQIIIII")


def _corrupt_cells(path: str, what: str) -> CorruptFileError:
    return CorruptFileError(f"{path}: {what}; delete this cell file to rebuild the index")


def _read_cells(path: str, store: Datastore, rows_crc: int) -> CellProbeIndex | None:
    """The index kept in the cell file at ``path``, or None when there is none or it is
    stale: written for other rows, another dimension or another ``n_cells``/``train_size``.

    A file that contradicts itself raises CorruptFileError: it fails its own CRC, a size
    disagrees with its length, a cell has no centroid, or a centroid is not finite.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except FileNotFoundError:
        return None
    if len(raw) < _CELLS_HEAD.size + 4:
        raise _corrupt_cells(path, f"truncated at {len(raw)} bytes")
    if raw[:len(CELLS_MAGIC)] != CELLS_MAGIC:
        raise _corrupt_cells(path, "bad magic, not a KCL1 cell file")
    (crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(memoryview(raw)[:-4]) != crc:
        raise _corrupt_cells(path, "CRC32 mismatch")
    _, count, dim, n_cells, train_size, crc_of_rows, n_centroids = \
        _CELLS_HEAD.unpack_from(raw)
    cell_dtype = _cell_dtype(n_centroids)
    if not (dim >= 1 and 1 <= n_centroids <= n_cells <= count and len(raw) == (
            _CELLS_HEAD.size + n_centroids * dim * 8 + count * cell_dtype.itemsize + 4)):
        raise _corrupt_cells(path, "sizes disagree with each other or the file length")
    centroids = np.frombuffer(raw, "<f8", n_centroids * dim, _CELLS_HEAD.size)
    cells = np.frombuffer(raw, cell_dtype, count, _CELLS_HEAD.size + centroids.nbytes)
    if not np.isfinite(centroids).all():
        raise _corrupt_cells(path, "a centroid is not finite")
    if int(cells.max()) >= n_centroids:
        raise _corrupt_cells(path, f"a cell id is not below {n_centroids} cells")
    spec = store.index_spec
    if (count, dim, n_cells, train_size, crc_of_rows) != (
            len(store), store.dim, spec.n_cells, spec.train_size, rows_crc):
        return None
    return CellProbeIndex.from_cells(store.keys, spec.n_probe,
                                     centroids.reshape(n_centroids, dim).copy(), cells,
                                     store.norms)


def _write_cells(path: str, store: Datastore, rows_crc: int, index: CellProbeIndex) -> None:
    """Write ``index`` as the cell file at ``path``, as ``_read_cells`` reads it.

    The bytes go to a temporary file in the same directory that then replaces
    ``path``, so an interrupted write leaves no partial file; on an error the
    temporary file is removed before the error propagates.
    """
    spec = store.index_spec
    cells = np.empty(len(store), dtype=_cell_dtype(index.n_cells))
    cells[index._order] = np.repeat(np.arange(index.n_cells), index._sizes)
    body = b"".join((_CELLS_HEAD.pack(CELLS_MAGIC, len(store), store.dim, spec.n_cells,
                                      spec.train_size, rows_crc, index.n_cells),
                     index.centroids.astype("<f8").tobytes(), cells.tobytes()))
    temp = f"{path}.{os.getpid()}.tmp"  # one process writes one store's file at a time
    try:
        with open(temp, "wb") as f:
            f.write(body + struct.pack("<I", zlib.crc32(body)))
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


def load_datastore(path: str | os.PathLike) -> Datastore:
    """``read_datastore``, then set the search index, deterministically, before returning.

    A cell-probe store's index comes from its cell file (``cells_path``) when
    that file is valid for the store's rows and spec; otherwise k-means
    builds it here and the cell file is written (or overwritten) for later
    loads. A failed write leaves the index built, marked ``"built, not saved"``.
    A corrupt cell file raises CorruptFileError. An exact-scan store has no
    cell file. The index takes the key norms that ``read_datastore``'s
    finiteness check computed. The first search of a cell-probe index still
    adds its transposed, cell-ordered key copy: a store that is loaded and
    never searched holds no second set of keys. The store's checks and errors are
    ``read_datastore``'s.
    """
    store = read_datastore(path)
    if store.index_spec.kind == "cell-probe":
        cells_file = cells_path(path)
        rows_crc = zlib.crc32(store.rows)
        index = _read_cells(cells_file, store, rows_crc)
        if index is not None:
            store.index = index
        else:
            try:
                _write_cells(cells_file, store, rows_crc, store.index)
            except OSError:
                store.index.origin = "built, not saved"
    store.index  # noqa: B018 - set now; see above
    return store
