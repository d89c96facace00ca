"""Dataset features over parallel corpora and linear transfer prediction.

Five symmetric features describe a language pair: relative corpus size,
vocabulary occupancy ratio, source subword overlap, multi-parallel overlap,
and target unigram overlap. Together with loaded linguistic distances they
feed a leave-one-out linear regression that predicts representational
similarity, plus permutation importance over the fitted model.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .corpus import TokenRows
from .errors import (
    EmptyInputError,
    IncompleteTableError,
    InsufficientDataError,
    SingularSystemError,
)

DATASET_FEATURES = (
    "size_ratio",
    "vocab_occupancy_ratio",
    "src_subword_overlap",
    "multi_parallel_overlap",
    "tgt_ngram_overlap",
)
LINGUISTIC_FEATURES = ("geographic", "genetic", "inventory", "syntactic",
                       "phonological")

RIDGE_FALLBACK_FACTOR = 1e-6


@dataclass(frozen=True)
class Corpus:
    """One language's parallel data: source sentences aligned to pivot targets.

    Each side is one ``TokenRows`` CSR pair, as ``encode_pairs`` gives it. A
    target sentence is its own identity: rows of two corpora with the same
    target sentence are multi-parallel rows.
    """

    lang: str
    sources: TokenRows
    targets: TokenRows

    def __post_init__(self):
        if len(self.sources) < 1:
            raise EmptyInputError(f"corpus {self.lang!r} has no sentences")
        if len(self.sources) != len(self.targets):
            raise ValueError(
                f"corpus {self.lang!r}: source and target sides disagree in length")

    @classmethod
    def from_lists(cls, lang: str, sources: Sequence[Sequence[int]],
                   targets: Sequence[Sequence[int]]) -> "Corpus":
        return cls(lang, TokenRows.from_lists(sources), TokenRows.from_lists(targets))

    @property
    def size(self) -> int:
        return len(self.sources)

    @cached_property
    def vocab_used(self) -> frozenset[int]:
        return frozenset(np.unique(self.sources.ids).tolist())

    @cached_property
    def target_set(self) -> np.ndarray:
        """The distinct target sentences, one int64 row each: the sentence's length, its
        ids, then zeros. Those two corpora share are multi-parallel.

        The rows are sorted as ``_as_void`` views, so that ``_shared_targets``
        can merge two corpora's rows without sorting either again.
        """
        lengths = self.targets.lengths
        rows = np.zeros((lengths.size, 1 + int(lengths.max())), dtype=np.int64)
        rows[:, 0] = lengths
        rows[:, 1:][np.arange(rows.shape[1] - 1) < lengths[:, None]] = self.targets.ids
        distinct = np.unique(_as_void(rows, rows.shape[1]))
        return distinct.view(np.int64).reshape(-1, rows.shape[1])


def _as_void(rows: np.ndarray, width: int) -> np.ndarray:
    """Int64 rows padded with zeros to ``width`` columns, each viewed as one void scalar:
    rows are then compared and sorted whole, byte by byte. Padding keeps their order."""
    if rows.shape[1] < width:
        rows = np.pad(rows, ((0, 0), (0, width - rows.shape[1])))
    return rows.view(np.dtype((np.void, 8 * width))).ravel()


def _shared_targets(c1: Corpus, c2: Corpus) -> np.ndarray:
    """The distinct target sentences both corpora hold, as rows of ``Corpus.target_set``.

    Each corpus's rows are distinct and sorted, so a row of both is a pair
    of equal neighbours once the two are merged.
    """
    t1, t2 = c1.target_set, c2.target_set
    width = max(t1.shape[1], t2.shape[1])
    both = np.concatenate([_as_void(t1, width), _as_void(t2, width)])
    both.sort(kind="stable")  # two sorted runs: a merge
    shared = both[1:][both[1:] == both[:-1]]
    return shared.view(np.int64).reshape(-1, width)


def size_ratio(c1: Corpus, c2: Corpus) -> float:
    """Smaller corpus size over larger; 1.0 for equal sizes."""
    return min(c1.size, c2.size) / max(c1.size, c2.size)


def vocab_occupancy_ratio(c1: Corpus, c2: Corpus, vocab_size: int) -> float:
    """min/max of the two languages' used fractions of the global vocabulary."""
    if vocab_size < 1:
        raise EmptyInputError("global vocabulary is empty")
    occ1 = len(c1.vocab_used) / vocab_size
    occ2 = len(c2.vocab_used) / vocab_size
    if max(occ1, occ2) == 0.0:
        return 1.0  # both unused: identical occupancy
    return min(occ1, occ2) / max(occ1, occ2)


def src_subword_overlap(c1: Corpus, c2: Corpus) -> float:
    """Jaccard overlap of the source-side subword usage sets."""
    v1 = c1.vocab_used
    v2 = c2.vocab_used
    if not v1 or not v2:
        raise EmptyInputError("subword overlap needs non-empty usage sets")
    return len(v1 & v2) / len(v1 | v2)


def multi_parallel_overlap(c1: Corpus, c2: Corpus) -> float:
    """Jaccard overlap of the distinct target sentences."""
    shared = len(_shared_targets(c1, c2))
    return shared / (len(c1.target_set) + len(c2.target_set) - shared)


def tgt_ngram_overlap(c1: Corpus, c2: Corpus) -> float:
    """Raw co-occurrence weight of target unigrams over shared target sentences.

    Each distinct target sentence present in both corpora adds the product of
    its two sides' unigram count vectors, which for the same sentence is the
    sum of its squared unigram counts. The raw value is unbounded; min-max
    scaling to [0, 1] happens across a pair set in pair_features_table.
    The counts come from one ``np.unique`` over (shared sentence, token)
    keys, and their squares are summed as integers.
    """
    shared = _shared_targets(c1, c2)
    lengths = shared[:, 0]
    tokens = shared[:, 1:][np.arange(shared.shape[1] - 1) < lengths[:, None]]
    tokens = np.unique(tokens, return_inverse=True)[1]  # dense ids: any int64 token fits 32 bits
    sentence = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    _, counts = np.unique(sentence << 32 | tokens, return_counts=True)
    return float(np.sum(counts * counts))


def load_distance_table(path: str | os.PathLike) -> dict[tuple[str, str], dict[str, float]]:
    """Linguistic distances per unordered pair, TSV columns per LINGUISTIC_FEATURES.

    A pair listed twice, in either order, raises ValueError.
    """
    table: dict[tuple[str, str], dict[str, float]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 + len(LINGUISTIC_FEATURES):
                raise ValueError(f"bad distance row: {line!r}")
            values = [float(v) for v in parts[2:]]
            if any(not 0.0 <= v <= 1.0 for v in values):
                raise ValueError(f"distances must lie in [0, 1]: {line!r}")
            key = tuple(sorted((parts[0], parts[1])))
            if key in table:
                raise ValueError(f"{path}: second row for the pair {key}: {line!r}")
            table[key] = dict(zip(LINGUISTIC_FEATURES, values))
    return table


def pair_features_table(corpora: dict[str, Corpus], vocab_size: int,
                        distances: dict[tuple[str, str], dict[str, float]] | None = None
                        ) -> tuple[list[tuple[str, str]], np.ndarray, tuple[str, ...]]:
    """The sorted language pairs, one float64 feature row per pair, and the column names.

    The columns are DATASET_FEATURES, then LINGUISTIC_FEATURES when
    ``distances`` is given; a pair it lacks raises IncompleteTableError. The
    target unigram overlap is min-max scaled over the pair set; a degenerate
    set (all raw values equal) scales to 1.0 when the shared value is
    positive and 0.0 otherwise.
    """
    langs = sorted(corpora)
    if len(langs) < 2:
        raise InsufficientDataError("need at least two corpora")
    pairs = [(a, b) for i, a in enumerate(langs) for b in langs[i + 1:]]
    names = DATASET_FEATURES + (LINGUISTIC_FEATURES if distances is not None else ())
    x = np.empty((len(pairs), len(names)))
    for row, pair in zip(x, pairs):
        if distances is not None:
            if pair not in distances:
                raise IncompleteTableError(f"distance table lacks pair {pair}")
            row[5:] = [distances[pair][f] for f in LINGUISTIC_FEATURES]
        c1, c2 = corpora[pair[0]], corpora[pair[1]]
        row[:5] = (size_ratio(c1, c2), vocab_occupancy_ratio(c1, c2, vocab_size),
                   src_subword_overlap(c1, c2), multi_parallel_overlap(c1, c2),
                   tgt_ngram_overlap(c1, c2))
    overlap = x[:, 4]  # a view: the raw overlap is scaled in place
    lo, hi = overlap.min(), overlap.max()
    overlap[:] = (overlap - lo) / (hi - lo) if hi > lo else overlap > 0
    return pairs, x, names


@dataclass(frozen=True)
class LinearModel:
    """Ordinary least squares fit y = X @ coef + intercept."""

    coef: np.ndarray
    intercept: float
    feature_names: tuple[str, ...]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.coef + self.intercept


def fit_linear(x: np.ndarray, y: np.ndarray, feature_names: Sequence[str],
               ridge: float = 0.0) -> LinearModel:
    """Normal-equation OLS with intercept; ridge is not applied to the intercept."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = x.shape
    aug = np.hstack([x, np.ones((n, 1))])
    penalty = ridge * np.eye(d + 1)
    penalty[d, d] = 0.0
    try:
        theta = np.linalg.solve(aug.T @ aug + penalty, aug.T @ y)
    except np.linalg.LinAlgError:
        raise SingularSystemError(
            "design matrix is rank-deficient; retry with ridge > 0") from None
    return LinearModel(coef=theta[:d], intercept=float(theta[d]),
                       feature_names=tuple(feature_names))


def _fit_with_fallback(x: np.ndarray, y: np.ndarray,
                       feature_names: Sequence[str]) -> LinearModel:
    try:
        return fit_linear(x, y, feature_names)
    except SingularSystemError:
        gram_scale = float(np.trace(x.T @ x)) / max(x.shape[1], 1)
        ridge = max(RIDGE_FALLBACK_FACTOR * gram_scale, 1e-12)
        return fit_linear(x, y, feature_names, ridge=ridge)


@dataclass(frozen=True)
class RegressionReport:
    """Leave-one-out results plus coefficients and permutation importances."""

    fold_langs: tuple[str, ...]
    fold_mae: tuple[float, ...]
    mean_mae: float
    feature_names: tuple[str, ...]
    coefficients: dict[str, float]
    intercept: float
    importances: dict[str, tuple[float, float]]


def predict_xsim_loo(pairs: Sequence[tuple[str, str]], x: np.ndarray, y: np.ndarray,
                     names: Sequence[str], *, n_shuffles: int = 50,
                     seed: int = 0) -> RegressionReport:
    """Leave-one-language-out linear regression of similarity targets.

    Row i of ``x`` and ``y`` belong to the language pair ``pairs[i]``, and
    ``names`` names the columns of ``x``. There is one fold per language, in
    sorted order: it holds out every pair involving that language and fits
    on the rest. The mean MAE pools the per-pair errors of all folds; each
    fold's own MAE is reported beside it.
    Coefficients and permutation importances come from a final fit on all
    pairs.
    """
    languages = sorted({code for pair in pairs for code in pair})
    if len(languages) < 3:
        raise InsufficientDataError("leave-one-out needs at least 3 languages")
    names = tuple(names)
    fold_mae = []
    pooled_errors: list[float] = []
    for held_out in languages:
        test = np.array([held_out in pair for pair in pairs])
        if test.all():
            raise InsufficientDataError(
                f"fold for {held_out!r} leaves an empty train set")
        model = _fit_with_fallback(x[~test], y[~test], names)
        errors = np.abs(model.predict(x[test]) - y[test])
        fold_mae.append(float(errors.mean()))
        pooled_errors.extend(errors.tolist())
    mean_mae = float(np.mean(pooled_errors))
    final = _fit_with_fallback(x, y, names)
    importances = permutation_importance(final, x, y, n_shuffles=n_shuffles, seed=seed)
    return RegressionReport(
        fold_langs=tuple(languages),
        fold_mae=tuple(fold_mae),
        mean_mae=mean_mae,
        feature_names=names,
        coefficients={name: float(c) for name, c in zip(names, final.coef)},
        intercept=final.intercept,
        importances=importances,
    )


def permutation_importance(model: LinearModel, x: np.ndarray, y: np.ndarray,
                           n_shuffles: int = 50, seed: int = 0
                           ) -> dict[str, tuple[float, float]]:
    """Mean (and spread of) MAE increase when one feature column is shuffled.

    Seeded and bit-reproducible: the generator is consumed in a fixed order
    over (feature, shuffle) so identical seeds give identical results.
    """
    if n_shuffles < 1:
        raise ValueError("n_shuffles must be at least 1")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] == 0:
        raise EmptyInputError("validation set is empty")
    rng = np.random.default_rng(seed)
    baseline = float(np.mean(np.abs(model.predict(x) - y)))
    out = {}
    for j, name in enumerate(model.feature_names):
        drops = np.empty(n_shuffles)
        for s in range(n_shuffles):
            shuffled = x.copy()
            shuffled[:, j] = shuffled[rng.permutation(x.shape[0]), j]
            drops[s] = float(np.mean(np.abs(model.predict(shuffled) - y))) - baseline
        out[name] = (float(drops.mean()), float(drops.std()))
    return out
