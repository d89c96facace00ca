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


class ContextDumpSet:
    """Per-language context vectors for a multi-parallel corpus.

    Sentences with the same sentence id across languages refer to the same
    target sentence; within a sentence, vectors are keyed by decoding
    timestep. Each language holds one dump, kept as its sorted
    ``(sid << 16) | ts`` keys and a read-only float32 copy of its vectors in
    key order; when a (sentence, timestep) pair repeats within a dump, the
    last record wins.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._contexts: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def languages(self) -> tuple[str, ...]:
        """The languages with a dump, sorted."""
        return tuple(sorted(self._contexts))

    def add_records(self, lang: str, records: np.ndarray) -> None:
        """Add one language's ``record_dtype`` rows; a second add for it raises ValueError."""
        if records.dtype != record_dtype(self.dim):
            raise DimensionMismatchError(
                f"records have dtype {records.dtype}, dump set declares d={self.dim}")
        if lang in self._contexts:
            raise ValueError(f"duplicate dump for language {lang!r}")
        keys, rows = context_rows(records["sid"], records["ts"])
        vecs = records["vec"][rows]
        keys.flags.writeable = vecs.flags.writeable = False
        self._contexts[lang] = keys, vecs

    def contexts(self, lang: str) -> tuple[np.ndarray, np.ndarray]:
        """Sorted ``(sid << 16) | ts`` keys and the float32 vector of each, read-only."""
        try:
            return self._contexts[lang]
        except KeyError:
            raise ValueError(f"no dump loaded for language {lang!r}") from None


def _row_cosines(rows1: np.ndarray, rows2: np.ndarray) -> np.ndarray:
    """Cosine of each float64 row pair; 0.0 where either row is all-zero.

    Each dot product and squared norm is one row of a stacked matmul, and a
    norm is ``np.linalg.norm``'s ``sqrt(x.dot(x))``, so every value has the
    bits of ``np.dot(a, b) / (norm(a) * norm(b))`` on that pair alone.
    """
    dots = (rows1[:, None, :] @ rows2[:, :, None])[:, 0, 0]
    norms1 = np.sqrt((rows1[:, None, :] @ rows1[:, :, None])[:, 0, 0])
    norms2 = np.sqrt((rows2[:, None, :] @ rows2[:, :, None])[:, 0, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((norms1 == 0.0) | (norms2 == 0.0), 0.0, dots / (norms1 * norms2))


def _sentence_means(values: np.ndarray, sentence: np.ndarray) -> np.ndarray:
    """Mean of each run of equal ``sentence`` ids, in order.

    Runs of the same length L are gathered into one (m, L) matrix and
    averaged along its rows, which sums each run as ``np.mean`` sums it
    alone; ``np.add.reduceat`` would sum in another order.
    """
    starts = np.flatnonzero(np.append(True, sentence[1:] != sentence[:-1]))
    lengths = np.diff(np.append(starts, sentence.size))
    means = np.empty(starts.size)
    for length in np.unique(lengths):
        group = np.flatnonzero(lengths == length)
        means[group] = values[starts[group, None] + np.arange(length)].mean(axis=1)
    return means


def xsim(dumps: ContextDumpSet, lang1: str, lang2: str) -> float:
    """Mean cosine similarity between two languages' context vectors.

    Per shared sentence, similarities at shared timesteps are averaged;
    sentence means are then averaged with ``np.mean``. The float64 cosines
    of all shared contexts come from one stacked matmul (``_row_cosines``)
    and the sentence means from one matrix per sentence length
    (``_sentence_means``), with the bits of one cosine call per context and
    one ``np.mean`` per sentence.
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
    sims = _row_cosines(vecs1[idx1].astype(np.float64), vecs2[idx2].astype(np.float64))
    return float(np.mean(_sentence_means(sims, shared >> 16)))


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


def similarity_matrix(dumps: ContextDumpSet) -> SimilarityMatrix:
    """xsim for every pair of the dumps' languages, in sorted order; the diagonal is 1."""
    codes = dumps.languages
    n = len(codes)
    values = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = xsim(dumps, codes[i], codes[j])
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
        """TSV `lang<TAB>bilingual<TAB>multilingual` with one #scale= header; no lang twice."""
        scale = None
        scores: dict[str, tuple[float, float]] = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if line.startswith("#scale="):
                        if scale is not None:
                            raise ValueError(f"{path}: second #scale= header: {line!r}")
                        scale = line.split("=", 1)[1].strip()
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ValueError(f"bad score row: {line!r}")
                if parts[0] in scores:
                    raise ValueError(f"{path}: second row for {parts[0]!r}: {line!r}")
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
