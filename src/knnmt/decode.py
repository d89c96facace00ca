"""Retrieval-interpolated decoding: token distributions, greedy and beam search.

The retrieval distribution is a temperature softmax over negative squared
distances, aggregated per vocabulary item, and mixed with the base model's
distribution by a fixed weight. A deterministic count-based toy model plus a
hashing featurizer make the whole pipeline runnable without any neural net.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .corpus import BOS_ID, EOS_ID
from .errors import (
    DimensionMismatchError,
    EmptyRetrievalError,
    UntrainedModelError,
)
from .vecstore import Datastore, Neighbor, make_records, query

PROB_FLOOR = 1e-12  # floor before log; keeps zero-support tokens finite
FEATURE_HASH_SEED = 0x5EED


@dataclass(frozen=True)
class KnnConfig:
    """Retrieval settings: neighbor count, interpolation weight, temperature."""

    k: int
    lam: float
    temperature: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        if not self.temperature > 0.0:
            raise ValueError("temperature must be positive")


@dataclass(frozen=True)
class BeamHypothesis:
    """A partial translation: generated tokens and their accumulated log prob."""

    tokens: tuple[int, ...]
    log_score: float
    finished: bool


class BaseModel(Protocol):
    """Contract for pluggable base models: both methods must be deterministic."""

    vocab_size: int
    dim: int

    def next_distribution(self, source: Sequence[int],
                          prefix: Sequence[int]) -> np.ndarray: ...

    def featurize(self, source: Sequence[int],
                  prefix: Sequence[int]) -> np.ndarray: ...


def knn_distribution(neighbors: Sequence[Neighbor], temperature: float,
                     vocab_size: int) -> np.ndarray:
    """Temperature softmax over negative distances, aggregated per token.

    p(v) is proportional to the sum of exp(-d/T) over neighbors whose value
    is v; tokens absent from the retrieved set get exactly 0.
    """
    if not neighbors:
        raise EmptyRetrievalError("no neighbors retrieved; fall back to the base model")
    if not temperature > 0.0:
        raise ValueError("temperature must be positive")
    dists = np.array([nb.distance for nb in neighbors], dtype=np.float64)
    tokens = np.array([nb.token_id for nb in neighbors], dtype=np.int64)
    if tokens.max() >= vocab_size:
        raise DimensionMismatchError(
            f"neighbor token {tokens.max()} outside vocabulary of {vocab_size}")
    # shifting by the min distance cancels in the normalization but keeps
    # exp() from underflowing to an all-zero vector
    weights = np.exp(-(dists - dists.min()) / temperature)
    probs = np.zeros(vocab_size, dtype=np.float64)
    np.add.at(probs, tokens, weights)
    return probs / probs.sum()


def interpolate(p_knn: np.ndarray, p_base: np.ndarray, lam: float) -> np.ndarray:
    """Mix the retrieval and base distributions: lam*p_knn + (1-lam)*p_base."""
    if p_knn.shape != p_base.shape:
        raise DimensionMismatchError(
            f"distributions disagree: {p_knn.shape} vs {p_base.shape}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    return lam * p_knn + (1.0 - lam) * p_base


def step_distribution(model: BaseModel, source: Sequence[int],
                      prefix: Sequence[int], store: Datastore | None,
                      lin_map=None, cfg: KnnConfig | None = None) -> np.ndarray:
    """Distribution for the next token at one decoding step.

    Without a store (or with lam == 0) this is the plain base distribution.
    Otherwise the prefix is featurized, optionally mapped into the store's
    representation space, and the retrieval distribution is interpolated in.
    An empty retrieval falls back to the base distribution alone.
    """
    p_base = model.next_distribution(source, prefix)
    if store is None or cfg is None or cfg.lam == 0.0:
        return p_base
    q = np.asarray(model.featurize(source, prefix), dtype=np.float64)
    if lin_map is not None:
        if lin_map.matrix.shape[1] != q.shape[0]:
            raise DimensionMismatchError(
                f"map expects d={lin_map.matrix.shape[1]}, "
                f"featurizer produces d={q.shape[0]}")
        q = lin_map.matrix @ q
    if q.shape != (store.dim,):
        raise DimensionMismatchError(
            f"featurizer produces d={q.shape[0]}, store has d={store.dim}")
    k = min(cfg.k, len(store))  # tiny stores: clamp rather than fail mid-decode
    try:
        neighbors = query(store, q, k)
        p_knn = knn_distribution(neighbors, cfg.temperature, store.vocab_size)
    except EmptyRetrievalError:
        return p_base
    return interpolate(p_knn, p_base, cfg.lam)


def decode_greedy(model: BaseModel, source: Sequence[int], *,
                  store: Datastore | None = None, lin_map=None,
                  cfg: KnnConfig | None = None, max_len: int = 64) -> list[int]:
    """Argmax decoding; stops at the end token or max_len.

    Returns the generated tokens without the begin/end markers.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    prefix = [BOS_ID]
    out: list[int] = []
    for _ in range(max_len):
        probs = step_distribution(model, source, prefix, store, lin_map, cfg)
        token = int(np.argmax(probs))
        if token == EOS_ID:
            break
        out.append(token)
        prefix.append(token)
    return out


def decode_beam(model: BaseModel, source: Sequence[int], beam_size: int, *,
                store: Datastore | None = None, lin_map=None,
                cfg: KnnConfig | None = None, max_len: int = 64) -> list[int]:
    """Length-unnormalized beam search over the interpolated distribution.

    Finished hypotheses retire from the beam; the best finished hypothesis
    wins, with ties broken by lexicographic token order. Implemented
    independently of decode_greedy so beam_size=1 cross-checks it.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be at least 1")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    active = [BeamHypothesis(tokens=(), log_score=0.0, finished=False)]
    finished: list[BeamHypothesis] = []
    for _ in range(max_len):
        expansions: list[BeamHypothesis] = []
        for hyp in active:
            prefix = [BOS_ID, *hyp.tokens]
            probs = step_distribution(model, source, prefix, store, lin_map, cfg)
            logp = np.log(np.maximum(probs, PROB_FLOOR))
            top = np.lexsort((np.arange(logp.size), -logp))[:beam_size]
            for tok in top:
                expansions.append(BeamHypothesis(
                    tokens=hyp.tokens + (int(tok),),
                    log_score=hyp.log_score + float(logp[tok]),
                    finished=int(tok) == EOS_ID,
                ))
        expansions.sort(key=lambda h: (-h.log_score, h.tokens))
        active = []
        for hyp in expansions:
            if hyp.finished:
                finished.append(hyp)
            elif len(active) < beam_size:
                active.append(hyp)
        if not active:
            break
        if finished:
            # per-step log probs are <= 0, so no continuation can catch up
            best_done = max(h.log_score for h in finished)
            if best_done >= active[0].log_score:
                break
    pool = finished if finished else active
    best = min(pool, key=lambda h: (-h.log_score, h.tokens))
    tokens = list(best.tokens)
    if best.finished:
        tokens = tokens[:-1]
    return tokens


class ToyBaseModel:
    """Deterministic count-based stand-in for a trained translation model.

    next_distribution is an add-one-smoothed count model over
    (source-bag token, previous token, next token) triples, restricted to
    target tokens that co-occurred with the source bag during training.
    featurize hashes the source bag plus the last two prefix tokens into a
    fixed-dimension vector, L2-normalized unless the signed hashes cancel
    exactly, in which case it is all-zero. Both are safe for concurrent
    read-only use after construction.
    """

    def __init__(self, pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
                 vocab_size: int, dim: int = 64,
                 hash_seed: int = FEATURE_HASH_SEED):
        if not pairs:
            raise UntrainedModelError("toy model needs a non-empty corpus")
        self.vocab_size = vocab_size
        self.dim = dim
        self._seed = hash_seed.to_bytes(8, "little")
        self._cooc: dict[int, set[int]] = {}
        self._counts: dict[tuple[int, int, int], int] = {}
        for source, target in pairs:
            bag = set(source)
            trajectory = [BOS_ID, *target, EOS_ID]
            for prev, nxt in zip(trajectory, trajectory[1:]):
                for s in bag:
                    key = (s, prev, nxt)
                    self._counts[key] = self._counts.get(key, 0) + 1
                    self._cooc.setdefault(s, set()).add(nxt)

    def next_distribution(self, source: Sequence[int],
                          prefix: Sequence[int]) -> np.ndarray:
        bag = set(source)
        prev = prefix[-1] if len(prefix) else BOS_ID
        allowed: set[int] = {EOS_ID}
        for s in bag:
            allowed |= self._cooc.get(s, set())
        probs = np.zeros(self.vocab_size, dtype=np.float64)
        for tok in allowed:
            probs[tok] = 1.0 + sum(self._counts.get((s, prev, tok), 0) for s in bag)
        return probs / probs.sum()

    def featurize(self, source: Sequence[int],
                  prefix: Sequence[int]) -> np.ndarray:
        """Hashed context key: unit L2 norm, or all-zero when the hashes cancel."""
        vec = np.zeros(self.dim, dtype=np.float64)
        prev1 = prefix[-1] if len(prefix) >= 1 else BOS_ID
        prev2 = prefix[-2] if len(prefix) >= 2 else BOS_ID
        features = [("s", tok) for tok in source]
        # unigram and bigram views of the last two prefix tokens; the bigram
        # keeps sign-cancellation collisions of the unigrams from aliasing
        # distinct contexts onto one key
        features += [("p1", prev1), ("p2", prev2), ("p12", f"{prev2},{prev1}")]
        for kind, value in features:
            h = self._hash(f"{kind}:{value}")
            sign = 1.0 if h & 1 == 0 else -1.0
            vec[(h >> 1) % self.dim] += sign
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec.astype(np.float32)

    def _hash(self, feature: str) -> int:
        digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8,
                                 key=self._seed).digest()
        return int.from_bytes(digest, "little")


def toy_base_model(pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
                   vocab_size: int, dim: int = 64) -> ToyBaseModel:
    """Train the count-based toy model on aligned token-id pairs."""
    return ToyBaseModel(pairs, vocab_size=vocab_size, dim=dim)


def trajectory_records(model: BaseModel, source: Sequence[int],
                       target: Sequence[int], sentence_id: int) -> np.ndarray:
    """Teacher-forced (featurize, token) pairs for one sentence, as ``record_dtype`` rows.

    Emits one record per target position plus the end-of-sequence step, so a
    datastore built from these can reproduce full trajectories at lam=1.
    """
    trajectory = [*target, EOS_ID]
    prefix = [BOS_ID, *trajectory]
    vectors = [model.featurize(source, prefix[:t + 1]) for t in range(len(trajectory))]
    return make_records(vectors, trajectory, sentence_id, np.arange(len(trajectory)))
