"""Representational transfer metrics over context-vector dumps.

xsim measures how similar two source languages' decoder context vectors are
when producing the same target sentences; the transfer potential (RTP) of a
language weights quality differences against other languages by those
similarities. All operations are pure functions over immutable inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    IncompleteTableError,
    InsufficientDataError,
    NoOverlapError,
)
from .vecstore import context_rows, record_dtype


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; 0.0 when either vector is all-zero."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


class ContextDumpSet:
    """Per-language context vectors for a multi-parallel corpus.

    Sentences with the same sentence id across languages refer to the same
    target sentence; within a sentence, vectors are keyed by decoding
    timestep. When a (sentence, timestep) pair repeats within a language,
    across ``add_records`` calls too, the last record added wins.
    """

    def __init__(self, dim: int, target_lang: str = "en"):
        self.dim = dim
        self.target_lang = target_lang
        self._records: dict[str, np.ndarray] = {}
        self._contexts: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(self._records)

    def add_records(self, lang: str, records: np.ndarray) -> None:
        """Add ``record_dtype`` rows for one language."""
        if records.dtype != record_dtype(self.dim):
            raise DimensionMismatchError(
                f"records have dtype {records.dtype}, dump set declares d={self.dim}")
        if lang in self._records:
            records = np.concatenate([self._records[lang], records])
        self._records[lang] = records
        self._contexts[lang] = context_rows(records["sid"], records["ts"])

    def contexts(self, lang: str) -> tuple[np.ndarray, np.ndarray]:
        """Sorted ``(sid << 16) | ts`` keys and the float32 vector of each."""
        try:
            keys, rows = self._contexts[lang]
        except KeyError:
            raise ValueError(f"no dump loaded for language {lang!r}") from None
        return keys, self._records[lang]["vec"][rows]


def xsim(dumps: ContextDumpSet, lang1: str, lang2: str,
         harmonic_weights: bool = False) -> float:
    """Mean cosine similarity between two languages' context vectors.

    Per shared sentence, similarities at shared timesteps are averaged;
    sentence means are then averaged. ``harmonic_weights=True`` keeps the
    literal 1/t timestep weighting (t counted from 1) instead of the mean,
    for audit only.
    """
    keys1, vecs1 = dumps.contexts(lang1)
    keys2, vecs2 = dumps.contexts(lang2)
    if not np.intersect1d(keys1 >> 16, keys2 >> 16).size:
        raise NoOverlapError(f"{lang1} and {lang2} share no sentences")
    shared, idx1, idx2 = np.intersect1d(keys1, keys2, assume_unique=True,
                                        return_indices=True)
    if not shared.size:
        raise NoOverlapError(
            f"{lang1} and {lang2} share sentences but no timesteps")
    rows1 = vecs1[idx1].astype(np.float64)
    rows2 = vecs2[idx2].astype(np.float64)
    sims = np.array([cosine(a, b) for a, b in zip(rows1, rows2)])
    if harmonic_weights:
        sims = sims * (1.0 / ((shared & 0xFFFF).astype(np.float64) + 1.0))
    sentence = shared >> 16
    starts = np.flatnonzero(sentence[1:] != sentence[:-1]) + 1
    reduce = np.sum if harmonic_weights else np.mean
    return float(np.mean([float(reduce(part)) for part in np.split(sims, starts)]))


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric language-by-language xsim matrix with a unit diagonal."""

    langs: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        n = len(self.langs)
        if v.shape != (n, n):
            raise DimensionMismatchError(f"matrix shape {v.shape} for {n} languages")
        if not np.array_equal(v, v.T):
            raise ValueError("similarity matrix must be symmetric")
        if not np.allclose(np.diag(v), 1.0):
            raise ValueError("similarity matrix diagonal must be 1")
        if np.any(np.abs(v) > 1.0 + 1e-9):
            raise ValueError("similarities must lie in [-1, 1]")

    def value(self, lang1: str, lang2: str) -> float:
        try:
            i = self.langs.index(lang1)
            j = self.langs.index(lang2)
        except ValueError:
            raise IncompleteTableError(
                f"similarity matrix lacks pair ({lang1}, {lang2})") from None
        return float(self.values[i, j])


def similarity_matrix(dumps: ContextDumpSet,
                      langs: Sequence[str] | None = None,
                      harmonic_weights: bool = False) -> SimilarityMatrix:
    """xsim for every language pair; the diagonal is 1 by definition."""
    codes = tuple(langs) if langs is not None else dumps.languages
    n = len(codes)
    values = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = xsim(dumps, codes[i], codes[j],
                                               harmonic_weights=harmonic_weights)
    return SimilarityMatrix(langs=codes, values=values)


class BleuTable:
    """Per-language bilingual and multilingual scores on a declared scale."""

    def __init__(self, scores: dict[str, tuple[float, float]], scale: str = "unit"):
        if scale not in ("unit", "percent"):
            raise ValueError(f"scale must be 'unit' or 'percent', got {scale!r}")
        limit = 1.0 if scale == "unit" else 100.0
        for lang, (bi, multi) in scores.items():
            if not (0.0 <= bi <= limit and 0.0 <= multi <= limit):
                raise ValueError(f"{lang}: scores outside [0, {limit}]")
        self.scores = dict(scores)
        self.scale = scale

    def bilingual(self, lang: str) -> float:
        try:
            return self.scores[lang][0]
        except KeyError:
            raise IncompleteTableError(f"no scores for language {lang!r}") from None

    def multilingual(self, lang: str) -> float:
        try:
            return self.scores[lang][1]
        except KeyError:
            raise IncompleteTableError(f"no scores for language {lang!r}") from None

    def multilingual_gain(self, lang: str) -> float:
        return self.multilingual(lang) - self.bilingual(lang)

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "BleuTable":
        """TSV `lang<TAB>bilingual<TAB>multilingual` with a #scale= header."""
        scale = None
        scores: dict[str, tuple[float, float]] = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if line.startswith("#scale="):
                        scale = line.split("=", 1)[1].strip()
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ValueError(f"bad score row: {line!r}")
                scores[parts[0]] = (float(parts[1]), float(parts[2]))
        if scale is None:
            raise ValueError(f"{path}: missing #scale=percent|unit header")
        return cls(scores, scale=scale)


def rtp(lang: str, sims: SimilarityMatrix, bleu: BleuTable,
        languages: Sequence[str], pivot: str) -> float:
    """Transfer potential: similarity-weighted normalized quality differences.

    Sums xsim(lang, other) * dBLEU(lang, other) / max |dBLEU| over all other
    languages except the pivot, where dBLEU is the other language's bilingual
    score minus this language's. Positive values mark likely recipients of
    transfer; 0 when every difference is 0.
    """
    comparison = sorted(c for c in languages if c not in (lang, pivot))
    own = bleu.bilingual(lang)
    deltas = {c: bleu.bilingual(c) - own for c in comparison}
    max_abs = max((abs(d) for d in deltas.values()), default=0.0)
    if max_abs == 0.0:
        return 0.0
    return float(sum((deltas[c] / max_abs) * sims.value(lang, c) for c in comparison))


def xsim_loss(contexts1: np.ndarray, contexts2: np.ndarray,
              center: bool = False) -> float:
    """Summed per-timestep cosine similarity between two aligned context batches.

    With ``center`` the mean vector of the concatenated batch is subtracted
    from every row first to damp dominant (rogue) dimensions. Reported as a
    value only; no gradients.
    """
    c1 = np.asarray(contexts1, dtype=np.float64)
    c2 = np.asarray(contexts2, dtype=np.float64)
    if c1.shape != c2.shape:
        raise DimensionMismatchError(f"batch shapes disagree: {c1.shape} vs {c2.shape}")
    if center:
        mean = np.vstack([c1, c2]).mean(axis=0)
        c1 = c1 - mean
        c2 = c2 - mean
    return float(sum(cosine(c1[t], c2[t]) for t in range(c1.shape[0])))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; tied values share the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, int]:
    """Spearman rank correlation with average ranks for ties; returns (rho, n)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"inputs disagree: {x.shape} vs {y.shape}")
    if x.size < 3:
        raise InsufficientDataError("rank correlation needs at least 3 points")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt(np.sum(rx ** 2) * np.sum(ry ** 2))
    if denom == 0.0:
        return 0.0, int(x.size)  # constant input: correlation undefined
    return float(np.sum(rx * ry) / denom), int(x.size)
