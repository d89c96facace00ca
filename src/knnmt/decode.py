"""Retrieval-interpolated decoding: token distributions, greedy and beam search.

The retrieval distribution is a temperature softmax over negative squared
distances, aggregated per vocabulary item, and mixed with the base model's
distribution by a fixed weight. A deterministic count-based toy model plus a
hashing featurizer make the whole pipeline runnable without any neural net.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain
from typing import Protocol, Sequence

import numpy as np

from .corpus import BOS_ID, EOS_ID
from .errors import (
    DimensionMismatchError,
    EmptyRetrievalError,
    MalformedDumpError,
    UntrainedModelError,
)
from .align import apply_map
from .vecstore import Datastore, _ranges, query, record_dtype

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


def knn_distribution(distances: np.ndarray, token_ids: np.ndarray, temperature: float,
                     vocab_size: int) -> np.ndarray:
    """Temperature softmax over negative distances, aggregated per token.

    ``distances[i]`` and ``token_ids[i]`` describe the i-th retrieved
    neighbour, as the ``distance`` and ``token_id`` columns of
    ``vecstore.query``'s result do. p(v) is proportional to the sum of
    exp(-d/T) over neighbours whose value is v, summed in neighbour order;
    tokens absent from the retrieved set get exactly 0. Raises
    EmptyRetrievalError for no neighbours and DimensionMismatchError for a
    token outside the vocabulary.
    """
    dists = np.asarray(distances, dtype=np.float64)
    tokens = np.asarray(token_ids, dtype=np.int64)
    if not tokens.size:
        raise EmptyRetrievalError("no neighbors retrieved; fall back to the base model")
    if not temperature > 0.0:
        raise ValueError("temperature must be positive")
    if tokens.max() >= vocab_size:
        raise DimensionMismatchError(
            f"neighbor token {tokens.max()} outside vocabulary of {vocab_size}")
    # shifting by the min distance cancels in the normalization but keeps
    # exp() from underflowing to an all-zero vector
    weights = np.exp(-(dists - dists.min()) / temperature)
    probs = np.bincount(tokens, weights=weights, minlength=vocab_size)
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
        q = apply_map(lin_map, q)
    if q.shape != (store.dim,):
        raise DimensionMismatchError(
            f"featurizer produces d={q.shape[0]}, store has d={store.dim}")
    k = min(cfg.k, len(store))  # tiny stores: clamp rather than fail mid-decode
    try:
        nbrs = query(store, q, k).view(np.ndarray)  # plain fields skip recarray's Python lookup
        p_knn = knn_distribution(nbrs["distance"], nbrs["token_id"], cfg.temperature,
                                 store.vocab_size)
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


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the elements that differ from their predecessor (the first always does)."""
    starts = np.ones(values.size, dtype=bool)
    starts[1:] = values[1:] != values[:-1]
    return starts


def _find(sorted_values: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Indices in ``sorted_values`` of those ``values`` it holds, in order."""
    lo = np.searchsorted(sorted_values, values)
    return lo[lo < np.searchsorted(sorted_values, values, side="right")]


class ToyBaseModel:
    """Deterministic count-based stand-in for a trained translation model.

    next_distribution is an add-one-smoothed count model over
    (source-bag token, previous token, next token) triples, restricted to
    target tokens that co-occurred with the source bag during training.
    Training leaves read-only arrays. ``_sources`` and ``_prevs`` hold the
    sorted distinct source and previous tokens, and ``s`` and ``p`` below
    are indices into them. The counts are compressed sparse rows, one per
    observed (source token, previous token) pair: ``_row_keys`` holds the
    sorted keys ``s * len(_prevs) + p``, and row r spans
    ``_indptr[r]:_indptr[r + 1]`` of ``_cols`` (sorted next-token ids) and
    ``_counts``. ``_mask[s]`` marks the target tokens that co-occurred with
    source token s. A source or previous token never seen in training has
    no row and adds nothing. Training raises DimensionMismatchError for a
    target token outside ``[0, vocab_size)`` or a vocabulary too small to
    hold the begin and end tokens, and ValueError for ``dim < 1``.
    featurize hashes the source tokens plus the last two prefix tokens into a
    fixed-dimension vector, L2-normalized unless the signed hashes cancel
    exactly, in which case it is all-zero. Each feature string is hashed
    with blake2b once per model: ``_features`` memoizes its (slot, sign) on
    first use, and ``_source_counts`` keeps the signed source-feature counts
    of the last source featurized, keyed by ``tuple(source)``, so featurize,
    unlike next_distribution, writes to the model. Both are only added to
    or replaced whole: concurrent callers can at worst hash one feature
    twice or count a source again, and get the same key.
    """

    def __init__(self, pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
                 vocab_size: int, dim: int = 64):
        if not pairs:
            raise UntrainedModelError("toy model needs a non-empty corpus")
        if dim < 1:
            raise ValueError(f"feature dimension must be positive, got {dim}")
        self.vocab_size = vocab_size
        self.dim = dim
        self._features = _FeatureHashes(FEATURE_HASH_SEED.to_bytes(8, "little"), dim)
        self._source_counts = ((), [0] * dim)
        src_lens = np.array([len(s) for s, _ in pairs], dtype=np.int64)
        tgt_lens = np.array([len(t) for _, t in pairs], dtype=np.int64)
        sources = np.fromiter(chain.from_iterable(s for s, _ in pairs), np.int64,
                              int(src_lens.sum()))
        paths = np.fromiter(chain.from_iterable((BOS_ID, *t, EOS_ID) for _, t in pairs),
                            np.int64, int(tgt_lens.sum()) + 2 * len(pairs))
        if not 0 <= paths.min() <= paths.max() < vocab_size:
            raise DimensionMismatchError(
                f"a target or special token lies outside the vocabulary of {vocab_size}")
        # pair i's transitions, <bos> t_1 .. t_n -> t_1 .. t_n <eos>, from first[i] on
        ends = np.cumsum(tgt_lens + 2)
        prev = np.delete(paths, ends - 1)
        nxt = np.delete(paths, ends - tgt_lens - 2)
        steps = tgt_lens + 1
        first = np.cumsum(steps) - steps
        # ids packed below are products of two dense codes, each below an
        # array length, so no vocabulary size can overflow them
        self._sources, src_code = np.unique(sources, return_inverse=True)
        self._prevs, prev_code = np.unique(prev, return_inverse=True)
        nexts, next_code = np.unique(nxt, return_inverse=True)
        # distinct (prev, next) transitions, numbered in (prev, next) order
        moves, move_code = np.unique(prev_code * nexts.size + next_code, return_inverse=True)
        # each pair's source bag: distinct (pair, source token)
        n_src = self._sources.size
        bag = np.sort(np.repeat(np.arange(len(pairs), dtype=np.int64), src_lens) * n_src
                      + src_code)
        bag_pair, bag_code = np.divmod(bag[_run_starts(bag)], n_src)
        # every bag token of a pair times every transition of that pair,
        # counted as (source, transition) ids, which sort as (source, prev, next)
        reps = steps[bag_pair]
        trans = _ranges(first[bag_pair], reps)
        triples, self._counts = np.unique(
            np.repeat(bag_code * moves.size, reps) + move_code[trans], return_counts=True)
        src_of, move_of = np.divmod(triples, moves.size)
        prev_of, next_of = np.divmod(moves[move_of], nexts.size)
        rows = src_of * self._prevs.size + prev_of
        row_starts = np.flatnonzero(_run_starts(rows))
        self._row_keys = rows[row_starts]
        self._indptr = np.append(row_starts, rows.size)
        self._cols = nexts[next_of]
        self._mask = np.zeros((self._sources.size, vocab_size), dtype=bool)
        self._mask[src_of, self._cols] = True
        for table in (self._sources, self._prevs, self._row_keys, self._indptr,
                      self._cols, self._counts, self._mask):
            table.flags.writeable = False

    def next_distribution(self, source: Sequence[int],
                          prefix: Sequence[int]) -> np.ndarray:
        codes = _find(self._sources, np.array(sorted(set(source)), dtype=np.int64))
        allowed = self._mask[codes].any(axis=0)
        allowed[EOS_ID] = True
        prev = prefix[-1] if len(prefix) else BOS_ID
        p = _find(self._prevs, np.array([prev], dtype=np.int64))  # empty if never seen
        rows = _find(self._row_keys, codes * self._prevs.size + p) if p.size else p
        lo = self._indptr[rows]
        picks = _ranges(lo, self._indptr[rows + 1] - lo)
        counts = np.bincount(self._cols[picks], weights=self._counts[picks],
                             minlength=self.vocab_size)
        probs = np.where(allowed, 1.0 + counts, 0.0)
        return probs / probs.sum()

    def featurize(self, source: Sequence[int],
                  prefix: Sequence[int]) -> np.ndarray:
        """Hashed context key: unit L2 norm, or all-zero when the hashes cancel."""
        key = tuple(source)
        last = self._source_counts  # read once: another thread may replace it
        if last[0] != key:
            counts = [0] * self.dim
            for slot, sign in map(self._features.__getitem__, [f"s:{tok}" for tok in key]):
                counts[slot] += sign
            self._source_counts = last = (key, counts)
        counts = last[1].copy()
        prev1 = prefix[-1] if len(prefix) >= 1 else BOS_ID
        prev2 = prefix[-2] if len(prefix) >= 2 else BOS_ID
        # unigram and bigram views of the last two prefix tokens; the bigram
        # keeps sign-cancellation collisions of the unigrams from aliasing
        # distinct contexts onto one key
        for slot, sign in map(self._features.__getitem__,
                              (f"p1:{prev1}", f"p2:{prev2}", f"p12:{prev2},{prev1}")):
            counts[slot] += sign
        vec = np.array(counts, dtype=np.float64)
        norm = np.sqrt(vec @ vec)  # a sum of squared integers: exact in any order
        if norm > 0:
            vec /= norm
        return vec.astype(np.float32)


class _FeatureHashes(dict):
    """Feature string -> (slot, sign) of its keyed blake2b hash, hashed on first lookup."""

    def __init__(self, key: bytes, dim: int):
        super().__init__()
        self._key = key
        self._dim = dim

    def __missing__(self, feature: str) -> tuple[int, int]:
        digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8,
                                 key=self._key).digest()
        h = int.from_bytes(digest, "little")
        self[feature] = hit = ((h >> 1) % self._dim, -1 if h & 1 else 1)
        return hit


def toy_base_model(pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
                   vocab_size: int, dim: int = 64) -> ToyBaseModel:
    """Train the count-based toy model on aligned token-id pairs."""
    return ToyBaseModel(pairs, vocab_size=vocab_size, dim=dim)


_TRAJECTORY_SLICE = 1024  # sentences per slice of float64 keys


def _slots_signs(features: _FeatureHashes, names: list[str],
                 codes: np.ndarray) -> np.ndarray:
    """(slot, sign) rows of ``names[codes]``, one memo lookup per name."""
    table = np.array([features[name] for name in names], dtype=np.int64).reshape(-1, 2)
    return table[codes]


def trajectory_records(model: ToyBaseModel,
                       pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> np.ndarray:
    """Teacher-forced (featurize, token) records of a corpus, as ``record_dtype`` rows.

    Pair i gives one record per target position plus the end-of-sequence
    step, with sentence id i, so a datastore built from these can reproduce
    full trajectories at lam=1. Every key is ``model.featurize(source,
    prefix)`` bit for bit: the signed hash counts are integers, exact in any
    order, so each sentence's source part is summed once and each step adds
    its three prefix features to it. Keys are made a slice of sentences at a
    time, straight into the returned rows.

    Raises MalformedDumpError for more than 2^32 sentences or a target of
    more than 65,535 tokens, which a record's u32 ``sid`` or u16 ``ts``
    cannot number.
    """
    dim = model.dim
    src_lens = np.array([len(s) for s, _ in pairs], dtype=np.int64)
    steps = np.array([len(t) + 1 for _, t in pairs], dtype=np.int64)
    longest = int(steps.max(initial=1)) - 1
    if len(pairs) > 2**32 or longest > 65535:
        raise MalformedDumpError(f"{len(pairs)} sentences, the longest target {longest} tokens; "
                                 "records number at most 2^32 and 65,535 of them")
    sources = np.fromiter(chain.from_iterable(s for s, _ in pairs), np.int64,
                          int(src_lens.sum()))
    # pair i's path <bos> <bos> t_1 .. t_n <eos>: step j reads prev2, prev1
    # and its token at path[j], path[j + 1] and path[j + 2]
    paths = np.fromiter(chain.from_iterable((BOS_ID, BOS_ID, *t, EOS_ID) for _, t in pairs),
                        np.int64, int(steps.sum()) + 2 * len(pairs))
    records = np.empty(int(steps.sum()), dtype=record_dtype(dim))
    sentence = np.repeat(np.arange(len(pairs), dtype=np.int64), steps)
    row_ends = np.cumsum(steps)
    at = np.arange(records.size) + 2 * sentence
    records["sid"] = sentence
    records["ts"] = np.arange(records.size) - (row_ends - steps)[sentence]
    records["tok"] = paths[at + 2]

    features = model._features
    tokens, src_codes = np.unique(sources, return_inverse=True)
    src_hashes = _slots_signs(features, [f"s:{v}" for v in tokens.tolist()], src_codes)
    prevs, prev_codes = np.unique(np.stack([paths[at], paths[at + 1]]), return_inverse=True)
    code2, code1 = prev_codes.reshape(2, -1)
    names = prevs.tolist()
    bigrams, bigram_codes = np.unique(code2 * len(names) + code1, return_inverse=True)
    step_hashes = (
        _slots_signs(features, [f"p1:{v}" for v in names], code1),
        _slots_signs(features, [f"p2:{v}" for v in names], code2),
        _slots_signs(features, [f"p12:{names[b // len(names)]},{names[b % len(names)]}"
                                for b in bigrams.tolist()], bigram_codes),
    )
    src_sentence = np.repeat(np.arange(len(pairs), dtype=np.int64), src_lens)
    src_ends = np.cumsum(src_lens)
    for lo in range(0, len(pairs), _TRAJECTORY_SLICE):
        hi = min(lo + _TRAJECTORY_SLICE, len(pairs))
        r0, r1 = row_ends[lo] - steps[lo], row_ends[hi - 1]
        s0, s1 = src_ends[lo] - src_lens[lo], src_ends[hi - 1]
        slot, sign = src_hashes[s0:s1].T
        source_part = np.bincount((src_sentence[s0:s1] - lo) * dim + slot, weights=sign,
                                  minlength=(hi - lo) * dim).reshape(hi - lo, dim)
        # float64 also when no sentence of the slice has a source token:
        # bincount then returns int64 zeros
        vec = source_part[sentence[r0:r1] - lo].astype(np.float64, copy=False)
        rows = np.arange(r1 - r0)
        for hashes in step_hashes:
            slot, sign = hashes[r0:r1].T
            vec[rows, slot] += sign  # one feature per row: no repeated index
        norm = np.sqrt(np.einsum("ij,ij->i", vec, vec))
        vec /= np.where(norm > 0, norm, 1.0)[:, None]
        records["vec"][r0:r1] = vec  # rounded to float32, as featurize's astype
    return records
