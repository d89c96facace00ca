"""Corpus-level BLEU with clipped n-gram precision and brevity penalty.

Operates on caller-tokenized sequences (token ids or strings); counts are
summed over the whole corpus before division, so chunked evaluation reduces
additively. Scores use the unit scale [0, 1]; percent rendering is a display
concern.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Sequence

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    UndefinedReferenceError,
)

NGRAM_ORDER = 4

Sentence = Sequence[Hashable]


@dataclass(frozen=True)
class BleuScore:
    """Score plus its ingredients: per-order precisions, penalty, lengths."""

    score: float
    precisions: tuple[float, ...]
    brevity_penalty: float
    hyp_len: int
    ref_len: int


def ngram_counts(tokens: Sentence, n: int) -> Counter:
    """How often each n-gram (a tuple of n tokens) occurs in ``tokens``."""
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses: Sequence[Sentence], references: Sequence[Sentence],
         smoothing: str = "exp") -> BleuScore:
    """Corpus BLEU over line-aligned hypothesis/reference token sequences.

    Hypothesis n-gram counts are clipped at the reference count before the
    corpus-wide division (single reference per hypothesis). The brevity
    penalty is exp(1 - ref_len/hyp_len) for short output, 1 otherwise. With
    ``smoothing="exp"`` the k-th zero numerator at order n is replaced by
    1 / (2^k * denominator); ``"none"`` leaves zero precisions, making the
    score 0.
    """
    if smoothing not in ("none", "exp"):
        raise ValueError(f"smoothing must be 'none' or 'exp', got {smoothing!r}")
    if len(hypotheses) == 0:
        raise EmptyInputError("no hypotheses to score")
    if len(hypotheses) != len(references):
        raise DimensionMismatchError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references")
    numerators = [0] * NGRAM_ORDER
    denominators = [0] * NGRAM_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        if len(ref) == 0:
            raise UndefinedReferenceError("reference sentence is empty")
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, NGRAM_ORDER + 1):
            hyp_counts = ngram_counts(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = ngram_counts(ref, n)
            for gram, count in hyp_counts.items():
                numerators[n - 1] += min(count, ref_counts.get(gram, 0))
                denominators[n - 1] += count
    precisions = [0.0] * NGRAM_ORDER
    zeros_seen = 0
    for n in range(NGRAM_ORDER):
        if denominators[n] == 0:
            continue  # order undefined for this corpus; score stays 0
        if numerators[n] > 0:
            precisions[n] = numerators[n] / denominators[n]
        elif smoothing == "exp":
            zeros_seen += 1
            precisions[n] = 1.0 / (2 ** zeros_seen * denominators[n])
    if hyp_len > ref_len:
        brevity_penalty = 1.0
    elif hyp_len > 0:
        brevity_penalty = math.exp(1.0 - ref_len / hyp_len)
    else:
        brevity_penalty = 0.0
    if all(p > 0.0 for p in precisions):
        score = brevity_penalty * math.exp(
            sum(math.log(p) for p in precisions) / NGRAM_ORDER)
    else:
        score = 0.0
    return BleuScore(score=score, precisions=tuple(precisions),
                     brevity_penalty=brevity_penalty, hyp_len=hyp_len,
                     ref_len=ref_len)
