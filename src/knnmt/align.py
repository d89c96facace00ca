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
    SingularSystemError,
)
from .vecstore import Datastore, context_rows, _check_end, _read_dim, _read_exact, _read_lang

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
    Sentences whose decodes have different lengths are dropped; within a kept
    sentence, a row pair is emitted for every timestep where both stores hold
    the same target token. Pairs follow the alignment order, then timesteps.
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
    spans1 = np.searchsorted(keys1, [sids[:, 0] << 16, (sids[:, 0] + 1) << 16]).T
    spans2 = np.searchsorted(keys2, [sids[:, 1] << 16, (sids[:, 1] + 1) << 16]).T
    picks1 = [np.empty(0, dtype=np.int64)]
    picks2 = [np.empty(0, dtype=np.int64)]
    for (lo1, hi1), (lo2, hi2) in zip(spans1, spans2):
        if lo1 == hi1 or lo2 == hi2:  # sentence absent from a store
            continue
        # timestep sets must match exactly
        if not np.array_equal(keys1[lo1:hi1] & 0xFFFF, keys2[lo2:hi2] & 0xFFFF):
            continue
        r1, r2 = rows1[lo1:hi1], rows2[lo2:hi2]
        same = store1.token_ids[r1] == store2.token_ids[r2]
        picks1.append(r1[same])
        picks2.append(r2[same])
    src, tgt = np.concatenate(picks1), np.concatenate(picks2)
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
    residual = float(np.sum((y - x @ solution) ** 2))
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
    """Replace every key with its mapped image; values and provenance unchanged."""
    if store.dim != lin_map.dim:
        raise DimensionMismatchError(
            f"store dimension {store.dim} does not match map dimension {lin_map.dim}")
    rows = store.rows.copy()
    rows["vec"] = store.keys.astype(np.float64) @ lin_map.matrix.T  # rounded to f4 on assignment
    return Datastore(rows, store.vocab_size, store.lang_codes, store.index_spec)


def save_linear_map(lin_map: LinearMap, path: str | os.PathLike) -> None:
    """Write a KLM1 file: header, lang codes, ridge, row-major f32 matrix."""
    with open(path, "wb") as f:
        f.write(KLM_MAGIC)
        f.write(struct.pack("<I", lin_map.dim))
        for code in (lin_map.source_lang, lin_map.target_lang):
            raw = code.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
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
