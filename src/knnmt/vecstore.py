"""Key-value datastores of decoder context vectors with nearest-neighbor search.

A datastore maps context vectors (keys) to the target tokens that were
generated in those contexts (values), keeping per-entry source-language
provenance. Search is either an exhaustive exact scan or a cell-probe
index (k-means-style cells, probe the closest cells) whose results can be
checked against the exact oracle by probing every cell.
"""

from __future__ import annotations

import json
import os
import re
import struct
from dataclasses import dataclass
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

KMEANS_ITERS = 10
DEFAULT_TRAIN_SIZE = 65536

_CHUNK_ROWS = 65536
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
    """Record rows from columns; a scalar column is broadcast to every row."""
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim != 2:
        raise MalformedDumpError(f"record vectors must form a matrix, got {vectors.shape}")
    records = np.empty(vectors.shape[0], dtype=record_dtype(vectors.shape[1]))
    records["vec"] = vectors
    records["tok"] = token_ids
    records["sid"] = sentence_ids
    records["ts"] = timesteps
    return records


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


@dataclass(frozen=True)
class Neighbor:
    """One retrieved entry: index, squared-L2 distance, value token, provenance."""

    entry_index: int
    distance: float
    token_id: int
    lang: str


@dataclass(frozen=True)
class IndexSpec:
    """Search-index configuration, sufficient to rebuild deterministically."""

    kind: str = "exact-scan"  # "exact-scan" | "cell-probe"
    n_cells: int = 0
    n_probe: int = 0
    train_size: int = DEFAULT_TRAIN_SIZE


def squared_distances(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared-L2 distances from ``q`` to every row of ``keys``: the exact rescoring step.

    Keys are float32 storage; the subtraction and accumulation happen in
    float64, and each row is reduced independently of the others, so a row's
    distance is the same bits whichever rows it is scored with. Both indexes
    rank every row they search by this value.
    """
    q64 = np.asarray(q, dtype=np.float64)
    n = keys.shape[0]
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, _CHUNK_ROWS):
        chunk = keys[start:start + _CHUNK_ROWS].astype(np.float64)
        chunk -= q64
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


def _certified_topk(keys: np.ndarray, norms: np.ndarray, q: np.ndarray,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k of the rows of ``keys`` as (row positions, distances).

    The result is ``_topk(squared_distances(keys, q), arange(n), k)`` bit for
    bit, but only a shortlist is rescored. Rows are ranked by the float32
    ``approx = norms - 2 keys @ float32(q)``, which estimates
    ``a = |k|^2 - 2 k.q = |k - q|^2 - |q|^2``. Let d be the dimension,
    u = 2^-24, gamma_n = n u / (1 - n u), and K and Q upper bounds on the
    largest key norm and on |q|. Then:

    - ``norms``, a float32 reduction, is off by at most gamma_d K^2;
    - rounding q to float32 moves k.q by at most u K Q, and the float32 dot
      product is off by at most gamma_d K Q, in any summation order;
    - the final subtraction rounds once more, by at most u (K^2 + 2 K Q);
    - products that underflow add at most (d + 1)(3 + K) 2^-149.

    So |approx - a| <= gamma_{d+3} (K^2 + 2 K Q) + (d + 1)(3 + K) 2^-149.
    The float64 rescoring is off the real distance by at most
    gamma_{d+2} (K + Q)^2 (with the float64 u), and one more float64 u
    covers rounding the limit. Let E be the sum of these bounds and t the
    k-th smallest ``approx``. At least k rows rescore to at most
    t + |q|^2 + E, so every row of the true top-k, ties included, has
    ``approx <= t + 2E``, and every row outside that shortlist rescores
    strictly worse than the k-th. When K + Q exceeds 2^60 (a float32 step
    could overflow) or is not finite (a NaN or inf key or query), every row
    is rescored: the plain exact scan.
    """
    q = np.asarray(q, dtype=np.float64)
    n, d = keys.shape
    rows = None
    if k < n:
        knorm = np.sqrt(float(norms.max()) * (1 + 2 * _gamma(d, _U32)))
        qnorm = np.sqrt(float(q @ q)) * (1 + _gamma(d + 2, _U64))
        if knorm + qnorm <= 2.0 ** 60:  # False for NaN and inf too
            bound = (_gamma(d + 3, _U32) * (knorm * knorm + 2 * knorm * qnorm)
                     + _gamma(d + 3, _U64) * (knorm + qnorm) ** 2
                     + (d + 1) * (3 + knorm) * 2.0 ** -149)
            approx = keys @ q.astype(np.float32)
            approx *= -2.0
            approx += norms
            limit = float(np.partition(approx, k - 1)[k - 1]) + 2 * bound
            limit = np.nextafter(np.float32(limit), np.float32(np.inf))  # rounded up
            rows = np.flatnonzero(approx <= limit)
            keys = keys[rows]
    if rows is None:  # the plain exact scan
        rows = np.arange(n, dtype=np.int64)
    return _topk(squared_distances(keys, q), rows, k)


class ExactScanIndex:
    """Exhaustive search; the ground-truth top-k under squared-L2.

    Every row is ranked by a float32 product, and only the rows within the
    certified error bound of the k-th (``_certified_topk``) are rescored in
    float64, so the result equals a float64 scan of every row, ties included.
    """

    kind = "exact-scan"

    def __init__(self, keys: np.ndarray):
        self._keys = keys
        self._norms = None  # on the first search: building or loading a store stays as cheap

    def search(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        if self._norms is None:  # threads that race here compute the same array
            self._norms = _row_norms(self._keys)
        return _certified_topk(self._keys, self._norms, q, k)


class CellProbeIndex:
    """Inverted-file index: entries bucketed by nearest centroid.

    Centroids start from the first ``n_cells`` distinct entries and are
    refined with a fixed number of Lloyd iterations over a deterministic
    prefix subsample, trading cluster quality for reproducibility. A query
    scans only the ``n_probe`` cells whose centroids are closest; probing
    every cell reproduces the exact scan, tie-breaks included. The probed
    entries go through the same certified float32 shortlist as
    ``ExactScanIndex`` (``_certified_topk``), so the result equals a float64
    scan of every probed entry.
    """

    kind = "cell-probe"

    def __init__(self, keys: np.ndarray, n_cells: int, n_probe: int,
                 train_size: int = DEFAULT_TRAIN_SIZE):
        if n_cells < 1 or n_probe < 1:
            raise ValueError("n_cells and n_probe must be positive")
        self._keys = keys
        self._norms = None  # on the first search, as in ExactScanIndex
        self.n_probe = n_probe
        centroids = _initial_centroids(keys, n_cells)
        centroids = _refine_centroids(centroids, keys[:max(train_size, 1)])
        self.centroids = centroids
        self.n_cells = centroids.shape[0]
        assign = _assign_cells(keys, centroids)
        order = np.argsort(assign, kind="stable")
        bounds = np.searchsorted(assign[order], np.arange(self.n_cells + 1))
        self._cells = [order[bounds[c]:bounds[c + 1]] for c in range(self.n_cells)]

    def search(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        cdists = squared_distances(self.centroids, np.asarray(q, dtype=np.float64))
        cell_order = np.lexsort((np.arange(self.n_cells), cdists))
        probe = self.n_probe
        while True:
            candidates = np.concatenate([self._cells[c] for c in cell_order[:probe]])
            if candidates.size >= k or probe >= self.n_cells:
                break
            probe += 1  # expand until enough candidates to honor k
        candidates = np.sort(candidates)  # ascending, so row order breaks ties as entry order
        if self._norms is None:
            self._norms = _row_norms(self._keys)
        rows, dists = _certified_topk(self._keys[candidates], self._norms[candidates], q, k)
        return candidates[rows], dists


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
    train64 = train.astype(np.float64)
    for _ in range(KMEANS_ITERS):
        assign = _assign_cells(train64, centroids)
        for c in range(centroids.shape[0]):
            members = train64[assign == c]
            if members.size:  # empty cells keep their previous centroid
                centroids[c] = members.mean(axis=0)
    return centroids


def _assign_cells(keys: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    cnorm = np.einsum("ij,ij->i", centroids, centroids)
    assign = np.empty(keys.shape[0], dtype=np.int64)
    for start in range(0, keys.shape[0], _CHUNK_ROWS):
        chunk = np.asarray(keys[start:start + _CHUNK_ROWS], dtype=np.float64)
        d = chunk @ centroids.T
        d *= -2.0  # in place, the same bits as cnorm - 2.0 * d; ||x||^2 is constant per row
        d += cnorm
        assign[start:start + _CHUNK_ROWS] = np.argmin(d, axis=1)
    return assign


def _build_index(keys: np.ndarray, spec: IndexSpec):
    if spec.kind == "exact-scan":
        return ExactScanIndex(keys)
    if spec.kind == "cell-probe":
        return CellProbeIndex(keys, spec.n_cells, spec.n_probe, spec.train_size)
    raise ValueError(f"unknown index kind: {spec.kind}")


class Datastore:
    """Immutable collection of (context vector -> token) entries with provenance.

    ``rows`` holds the entries as one array of ``store_dtype`` rows, which the
    constructor makes read-only; ``keys``, ``token_ids``, ``sentence_ids``,
    ``timesteps`` and ``lang_indices`` are views of its columns. Concurrent
    readers are safe once built.
    """

    def __init__(self, rows: np.ndarray, vocab_size: int,
                 lang_codes: tuple[str, ...], index_spec: IndexSpec):
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
        self.index = _build_index(self.keys, index_spec)
        counts = np.bincount(self.lang_indices, minlength=len(lang_codes))
        self.languages = {code: int(counts[i]) for i, code in enumerate(lang_codes)}

    def __len__(self) -> int:
        return self.rows.size


def _check_columns(dim: int, token_ids: np.ndarray, vocab_size: int, error) -> None:
    """Raise ``error`` when the dimension or a token id contradicts the header."""
    if dim < 1:
        raise error(f"dimension must be positive, got {dim}")
    if token_ids.size and int(token_ids.max()) >= vocab_size:
        raise error(f"token id {int(token_ids.max())} outside the vocabulary of {vocab_size}")


def build_datastore(records: np.ndarray, vocab_size: int, lang: str,
                    index_kind: str = "exact-scan",
                    index_params: dict | None = None) -> Datastore:
    """Build a one-language datastore from ``record_dtype`` rows, keeping their order.

    Raises MalformedDumpError when the records contradict the vocabulary or
    are not ``record_dtype`` rows, EmptyDatastoreError when there are none.
    Stores of several languages come from ``merge_datastores``.
    """
    check_lang_code(lang)
    vec_field = (records.dtype.fields or {}).get("vec")
    dim = vec_field[0].shape[0] if vec_field else 0
    if records.dtype != record_dtype(dim):
        raise MalformedDumpError(f"records have dtype {records.dtype}, not a record dtype")
    _check_columns(dim, records["tok"], vocab_size, MalformedDumpError)
    if records.size == 0:
        raise EmptyDatastoreError("dump contains no records")
    rows = np.zeros(records.size, dtype=store_dtype(dim))  # every entry in language 0
    for name in records.dtype.names:
        rows[name] = records[name]
    return Datastore(rows, vocab_size, (lang,),
                     _index_spec(index_kind, index_params, records.size))


def _index_spec(kind: str, params: dict | None, n_entries: int) -> IndexSpec:
    params = dict(params or {})
    if kind == "exact-scan":
        return IndexSpec(kind="exact-scan")
    if kind == "cell-probe":
        n_cells = min(int(params.get("n_cells", 64)), n_entries)
        n_probe = min(int(params.get("n_probe", 8)), n_cells)
        train_size = int(params.get("train_size", DEFAULT_TRAIN_SIZE))
        return IndexSpec(kind="cell-probe", n_cells=n_cells, n_probe=n_probe,
                         train_size=train_size)
    raise ValueError(f"unknown index kind: {kind}")


def merge_datastores(stores: Sequence[Datastore]) -> Datastore:
    """Concatenate stores into one, keeping entry order and provenance.

    Duplicate (vector, token) entries across source languages are kept.
    The merged index is rebuilt with the first store's configuration.
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
    return Datastore(rows, first.vocab_size, tuple(lang_codes), first.index_spec)


def query(store: Datastore, q: np.ndarray, k: int) -> list[Neighbor]:
    """Return the k nearest entries by squared-L2 distance, ascending.

    Equal distances break toward the lower entry index.
    """
    qv = np.asarray(q, dtype=np.float64)
    if qv.shape != (store.dim,):
        raise DimensionMismatchError(
            f"query has shape {qv.shape}, store dimension is {store.dim}")
    if k < 1:
        raise ValueError("k must be positive")
    if k > len(store):
        raise InsufficientEntriesError(
            f"k={k} exceeds the {len(store)} stored entries")
    idx, dists = store.index.search(qv, k)
    return [
        Neighbor(
            entry_index=int(i),
            distance=float(d),
            token_id=int(store.token_ids[i]),
            lang=store.lang_codes[store.lang_indices[i]],
        )
        for i, d in zip(idx, dists)
    ]


@dataclass(frozen=True)
class ProvenanceStat:
    """Observed vs. size-proportional retrieval share for one language."""

    p_obs: float
    p_uni: float
    ratio: float


def provenance_stats(store: Datastore,
                     queries: Sequence[tuple[np.ndarray, int]]) -> dict[str, ProvenanceStat]:
    """Per-language retrieval shares over a query workload.

    p_obs is each language's fraction of all retrieved neighbors, p_uni its
    fraction of stored entries, and ratio = p_obs / p_uni measures over- or
    undersampling relative to a size-proportional draw.
    """
    if not queries:
        raise EmptyInputError("provenance stats need at least one query")
    retrieved = np.zeros(len(store.lang_codes), dtype=np.int64)
    for q, k in queries:
        for nb in query(store, q, k):
            retrieved[store.lang_codes.index(nb.lang)] += 1
    total_retrieved = int(retrieved.sum())
    total_entries = len(store)
    stats = {}
    for i, code in enumerate(store.lang_codes):
        p_obs = retrieved[i] / total_retrieved
        p_uni = store.languages[code] / total_entries
        stats[code] = ProvenanceStat(p_obs=p_obs, p_uni=p_uni, ratio=p_obs / p_uni)
    return stats


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
    dimension by the bytes that follow it.
    """
    check_lang_code(header.lang)
    if records.size == 0:
        raise EmptyDatastoreError("dump contains no records")
    if records.dtype != record_dtype(header.dim):
        raise MalformedDumpError(
            f"records have dtype {records.dtype}, dump declares d={header.dim}")
    lang_bytes = header.lang.encode("utf-8")
    with open(path, "wb") as f:
        f.write(RDMP_MAGIC)
        f.write(struct.pack("<II", header.dim, header.vocab_size))
        f.write(struct.pack("<I", len(lang_bytes)))
        f.write(lang_bytes)
        f.write(struct.pack("<Q", records.size))
        f.write(records.tobytes())
    return records.size


def _bytes_left(f) -> int:
    return os.fstat(f.fileno()).st_size - f.tell()


def _read_exact(f, n: int, what: str) -> bytes:
    """Read exactly n bytes; a size beyond the end of the file is corruption."""
    left = _bytes_left(f)
    if n > left:
        raise CorruptFileError(f"truncated while reading {what}: "
                               f"needs {n} bytes, {left} left")
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


def _check_end(f) -> None:
    left = _bytes_left(f)
    if left:
        raise CorruptFileError(f"{left} bytes after the end of the payload")


def _read_rows(f, dtype: np.dtype) -> np.ndarray:
    """Read a u64 row count, then read-only rows that must end the file."""
    (count,) = struct.unpack("<Q", _read_exact(f, 8, "record count"))
    rows = np.frombuffer(_read_exact(f, count * dtype.itemsize, "records"), dtype=dtype)
    _check_end(f)
    return rows


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
    than the store has entries, which ``load_datastore`` would reject.
    """
    spec = store.index_spec
    if spec.n_cells > len(store):
        raise InsufficientEntriesError(
            f"index spec asks for {spec.n_cells} cells, the store holds {len(store)} entries")
    kind_code = 0 if spec.kind == "exact-scan" else 1
    with open(path, "wb") as f:
        f.write(KDS_MAGIC)
        f.write(struct.pack("<II", store.dim, store.vocab_size))
        f.write(struct.pack("<BIII", kind_code, spec.n_cells, spec.n_probe, spec.train_size))
        f.write(struct.pack("<I", len(store.lang_codes)))
        for code in store.lang_codes:
            raw = code.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<Q", store.languages[code]))
        f.write(struct.pack("<Q", len(store)))
        store.rows.tofile(f)
    sidecar = {"tokenizer": "whitespace", "corpus": "unspecified"}
    sidecar.update(manifest or {})
    with open(_manifest_path(path), "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def load_datastore(path: str | os.PathLike) -> Datastore:
    """Read a KDS1 file; the search index is rebuilt deterministically.

    The store keeps the file's rows as read; its columns are views of them.
    Sizes, the dimension, the index spec (at most one cell per entry),
    language codes, token ids and the provenance table are checked against
    the header and the file's length; any contradiction raises
    CorruptFileError.
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
    _check_columns(dim, rows["tok"], vocab_size, CorruptFileError)
    if int(rows["lang"].max()) >= n_langs:
        raise CorruptFileError(f"{path}: entry references an undeclared language")
    actual = np.bincount(rows["lang"], minlength=n_langs)
    if list(actual) != declared_counts:
        raise CorruptFileError(f"{path}: provenance table disagrees with entries")
    if kind_code == 0:
        spec = IndexSpec(kind="exact-scan")
    else:
        spec = IndexSpec(kind="cell-probe", n_cells=n_cells, n_probe=n_probe,
                         train_size=train_size)
    return Datastore(rows, vocab_size, tuple(lang_codes), spec)
