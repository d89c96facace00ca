"""Cross-lingual representation alignment with least-squares linear maps.

Paired translation contexts from two single-language datastores (same target
sentence, same timestep, same target token) train a d x d matrix mapping one
language's representation space into the other's via the normal equations.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CorruptFileError,
    DimensionMismatchError,
    EmptyPairsError,
    NonFiniteKeyError,
    SingularSystemError,
)
from .vecstore import (Datastore, context_rows, _check_end, _finite_norms, _lang_bytes,
                       _ranges, _read_dim, _read_exact, _read_lang)

KLM_MAGIC = b"KLM1\x00\x00"

DEFAULT_RIDGE_FACTOR = 1e-10  # times trace(X'X)/d when ridge is not given


@dataclass(frozen=True)
class LinearMap:
    """A fitted d x d map from source_lang representations to target_lang ones."""

    matrix: np.ndarray
    source_lang: str
    target_lang: str
    ridge: float
    residual: float | None = None  # training sum of squared errors; not persisted

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"map matrix must be square, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("map matrix contains non-finite entries")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PairedContexts:
    """Row-aligned context vectors from two languages sharing target sentences."""

    rows_src: np.ndarray
    rows_tgt: np.ndarray
    src_lang: str = "l1"
    tgt_lang: str = "l2"

    def __post_init__(self):
        if self.rows_src.shape != self.rows_tgt.shape:
            raise DimensionMismatchError(
                f"paired rows disagree: {self.rows_src.shape} vs {self.rows_tgt.shape}")

    def __len__(self) -> int:
        return self.rows_src.shape[0]

    def swapped(self) -> "PairedContexts":
        """The same pairs with roles reversed, for fitting the inverse map."""
        return PairedContexts(rows_src=self.rows_tgt, rows_tgt=self.rows_src,
                              src_lang=self.tgt_lang, tgt_lang=self.src_lang)


def extract_training_pairs(store1: Datastore, store2: Datastore,
                           alignment: Sequence[tuple[int, int]]) -> PairedContexts:
    """Pair contexts from two single-language stores over aligned sentences.

    ``alignment`` maps sentence ids in store1 to sentence ids in store2 that
    share the same target sentence; ids a store does not hold are skipped.
    Sentences whose decodes have different lengths or timesteps are dropped;
    within a kept sentence, a row pair is emitted for every timestep where
    both stores hold the same target token. Pairs follow the alignment order,
    then timesteps, and an alignment row given twice is paired twice. No
    loop runs per sentence: each sentence is one span of a store's sorted
    context keys (``np.searchsorted``), and the spans of equal length in both
    stores are expanded into one array of row positions per store.
    """
    for store in (store1, store2):
        if len(store.lang_codes) != 1:
            raise ValueError("training-pair extraction needs single-language stores")
    if store1.dim != store2.dim:
        raise DimensionMismatchError(
            f"stores disagree on dimension: {store1.dim} vs {store2.dim}")
    keys1, rows1 = context_rows(store1.sentence_ids, store1.timesteps)
    keys2, rows2 = context_rows(store2.sentence_ids, store2.timesteps)
    sids = np.array([(a, b) for a, b in alignment if 0 <= a < 2**32 and 0 <= b < 2**32],
                    dtype=np.int64).reshape(-1, 2)
    lo1, hi1 = np.searchsorted(keys1, [sids[:, 0] << 16, (sids[:, 0] + 1) << 16])
    lo2, hi2 = np.searchsorted(keys2, [sids[:, 1] << 16, (sids[:, 1] + 1) << 16])
    kept = (hi1 > lo1) & (hi1 - lo1 == hi2 - lo2)  # present in both, the same length
    lengths = (hi1 - lo1)[kept]
    at1, at2 = _ranges(lo1[kept], lengths), _ranges(lo2[kept], lengths)
    sentence = np.repeat(np.arange(lengths.size), lengths)
    differs = np.bincount(sentence[(keys1[at1] & 0xFFFF) != (keys2[at2] & 0xFFFF)],
                          minlength=lengths.size)
    same_steps = differs[sentence] == 0  # timestep sets must match exactly
    src, tgt = rows1[at1[same_steps]], rows2[at2[same_steps]]
    same = store1.token_ids[src] == store2.token_ids[tgt]
    src, tgt = src[same], tgt[same]
    if not src.size:
        raise EmptyPairsError("alignment produced no paired contexts")
    return PairedContexts(
        rows_src=store1.keys[src].astype(np.float64),
        rows_tgt=store2.keys[tgt].astype(np.float64),
        src_lang=store1.lang_codes[0],
        tgt_lang=store2.lang_codes[0],
    )


def fit_linear_map(pairs: PairedContexts, ridge: float | None = None) -> LinearMap:
    """Least-squares fit of A minimizing sum ||tgt_i - A src_i||^2 (+ ridge).

    ``ridge=None`` picks a tiny default (1e-10 * trace(X'X)/d) that keeps small
    synthetic systems well-posed without measurably moving the solution; an
    explicit 0.0 solves the plain normal equations and raises
    SingularSystemError on rank deficiency.
    """
    if len(pairs) < 1:
        raise EmptyPairsError("need at least one pair to fit a map")
    if ridge is not None and ridge < 0:
        raise ValueError("ridge must be non-negative")
    x = pairs.rows_src
    y = pairs.rows_tgt
    d = x.shape[1]
    gram = x.T @ x
    if ridge is None:
        ridge = DEFAULT_RIDGE_FACTOR * np.trace(gram) / d
    try:
        # solve (X'X + ridge I) A' = X'Y  ->  A = (solution)'
        solution = np.linalg.solve(gram + ridge * np.eye(d), x.T @ y)
    except np.linalg.LinAlgError:
        raise SingularSystemError(
            "normal equations are singular; retry with ridge > 0") from None
    matrix = solution.T
    errors = x @ solution  # one buffer for the residual: no temporaries of y's size
    np.subtract(y, errors, out=errors)
    np.square(errors, out=errors)
    residual = float(np.sum(errors))
    return LinearMap(matrix=matrix, source_lang=pairs.src_lang,
                     target_lang=pairs.tgt_lang, ridge=float(ridge),
                     residual=residual)


def apply_map(lin_map: LinearMap, v: np.ndarray) -> np.ndarray:
    """Map a single vector: A v."""
    vec = np.asarray(v, dtype=np.float64)
    if vec.shape != (lin_map.dim,):
        raise DimensionMismatchError(
            f"vector has shape {vec.shape}, map dimension is {lin_map.dim}")
    return lin_map.matrix @ vec


def map_datastore(store: Datastore, lin_map: LinearMap) -> Datastore:
    """Replace every key with its mapped image; values and provenance unchanged.

    Raises NonFiniteKeyError when a mapped key, rounded to float32, has a NaN
    or inf component, which no store may hold.
    """
    if store.dim != lin_map.dim:
        raise DimensionMismatchError(
            f"store dimension {store.dim} does not match map dimension {lin_map.dim}")
    rows = store.rows.copy()
    with np.errstate(over="ignore"):  # an overflow to inf is reported by _finite_norms
        rows["vec"] = store.keys.astype(np.float64) @ lin_map.matrix.T  # rounded to f4 here
    norms = _finite_norms(rows["vec"], NonFiniteKeyError)
    return Datastore(rows, store.vocab_size, store.lang_codes, store.index_spec, norms)


def save_linear_map(lin_map: LinearMap, path: str | os.PathLike) -> None:
    """Write a KLM1 file: header, lang codes, ridge, row-major f32 matrix.

    An invalid language code raises MalformedDumpError, as
    ``load_linear_map`` would, before the file is opened.
    """
    codes = _lang_bytes(lin_map.source_lang) + _lang_bytes(lin_map.target_lang)
    with open(path, "wb") as f:
        f.write(KLM_MAGIC + struct.pack("<I", lin_map.dim) + codes)
        f.write(struct.pack("<d", lin_map.ridge))
        f.write(lin_map.matrix.astype("<f4").tobytes())


def load_linear_map(path: str | os.PathLike) -> LinearMap:
    """Read a KLM1 file; a non-finite matrix or a ridge that is not finite and
    non-negative raises CorruptFileError, as do sizes the file contradicts."""
    with open(path, "rb") as f:
        if _read_exact(f, len(KLM_MAGIC), "magic") != KLM_MAGIC:
            raise CorruptFileError(f"{path}: bad magic, not a KLM1 map")
        dim = _read_dim(f)
        codes = [_read_lang(f), _read_lang(f)]
        (ridge,) = struct.unpack("<d", _read_exact(f, 8, "ridge"))
        raw = _read_exact(f, dim * dim * 4, "matrix")
        _check_end(f)
    matrix = np.frombuffer(raw, dtype="<f4").reshape(dim, dim).astype(np.float64)
    if not (np.isfinite(matrix).all() and 0.0 <= ridge < np.inf):
        raise CorruptFileError(f"{path}: non-finite matrix or bad ridge {ridge}")
    return LinearMap(matrix=matrix, source_lang=codes[0], target_lang=codes[1],
                     ridge=ridge)
