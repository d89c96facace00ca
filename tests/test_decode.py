import hashlib
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmt import decode
from knnmt.corpus import BOS_ID, EOS_ID
from knnmt.decode import (
    FEATURE_HASH_SEED,
    KnnConfig,
    ToyBaseModel,
    decode_beam,
    decode_greedy,
    interpolate,
    knn_distribution,
    step_distribution,
    toy_base_model,
    trajectory_records,
)
from knnmt.errors import (
    DimensionMismatchError,
    EmptyRetrievalError,
    MalformedDumpError,
    UntrainedModelError,
)
from knnmt.vecstore import build_datastore, record_dtype


class TestKnnDistribution:
    def test_single_token_support(self):
        probs = knn_distribution([0.3, 5.0], [7, 7], temperature=2.0,
                                 vocab_size=10)
        assert probs[7] == 1.0
        assert probs.sum() == 1.0

    def test_hand_evaluated_softmax(self):
        # weights exp(0)=1 and exp(-ln 2)=1/2 give 2/3 vs 1/3
        probs = knn_distribution([0.0, math.log(2)], [1, 2],
                                 temperature=1.0, vocab_size=4)
        assert probs[1] == pytest.approx(2 / 3, abs=1e-12)
        assert probs[2] == pytest.approx(1 / 3, abs=1e-12)

    def test_large_temperature_flattens(self):
        probs = knn_distribution([0.0, 100.0], [1, 2], temperature=1e6,
                                 vocab_size=4)
        assert probs[1] == pytest.approx(0.5, abs=1e-4)
        assert probs[2] == pytest.approx(0.5, abs=1e-4)

    def test_absent_tokens_get_exact_zero(self):
        probs = knn_distribution([1.0], [3], temperature=1.0, vocab_size=6)
        assert probs[3] == 1.0
        assert all(probs[v] == 0.0 for v in range(6) if v != 3)

    def test_huge_distances_do_not_underflow(self):
        probs = knn_distribution([1e9, 1e9 + 1.0], [1, 2], temperature=1.0,
                                 vocab_size=4)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert probs[1] > probs[2] > 0.0

    def test_empty_retrieval(self):
        with pytest.raises(EmptyRetrievalError):
            knn_distribution([], [], temperature=1.0, vocab_size=4)

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            knn_distribution([0.0], [1], temperature=0.0, vocab_size=4)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, data):
        k = data.draw(st.integers(1, 32))
        dists = data.draw(st.lists(st.floats(0, 1e6), min_size=k, max_size=k))
        tokens = data.draw(st.lists(st.integers(0, 49), min_size=k, max_size=k))
        temperature = data.draw(st.floats(1e-3, 1e6))
        probs = knn_distribution(dists, tokens, temperature, vocab_size=50)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        # reference: the weights added one neighbour at a time, in order
        weights = np.exp(-(np.array(dists) - min(dists)) / temperature)
        ref = np.zeros(50)
        np.add.at(ref, tokens, weights)
        assert np.array_equal(probs, ref / ref.sum())

    def test_monotone_flattening(self):
        # distinct tokens keep the argmax stable, so flattening is strict
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(2, 16))
            tokens = rng.choice(50, size=k, replace=False)
            dists = rng.uniform(0, 10, size=k)
            last = None
            for temperature in (0.5, 1.0, 2.0, 4.0, 8.0):
                peak = knn_distribution(dists, tokens, temperature, 50).max()
                if last is not None:
                    assert peak < last
                last = peak


class TestInterpolate:
    def test_endpoints_exact(self):
        p_knn = np.array([0.9, 0.1, 0.0])
        p_base = np.array([0.2, 0.3, 0.5])
        assert np.array_equal(interpolate(p_knn, p_base, 0.0), p_base)
        assert np.array_equal(interpolate(p_knn, p_base, 1.0), p_knn)

    def test_symmetry(self):
        out = interpolate(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
        assert np.array_equal(out, np.array([0.5, 0.5]))

    @given(st.floats(0, 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_fixed_point(self, lam, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(8))
        assert np.allclose(interpolate(p, p, lam), p, rtol=0, atol=1e-12)

    def test_vocab_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            interpolate(np.ones(3) / 3, np.ones(4) / 4, 0.5)

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            interpolate(np.ones(2) / 2, np.ones(2) / 2, 1.5)


class TestKnnConfig:
    @pytest.mark.parametrize("kwargs", [
        {"k": 0, "lam": 0.5, "temperature": 1.0},
        {"k": 4, "lam": -0.1, "temperature": 1.0},
        {"k": 4, "lam": 1.1, "temperature": 1.0},
        {"k": 4, "lam": 0.5, "temperature": 0.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            KnnConfig(**kwargs)


def tiny_corpus():
    # token ids >= 3; sources and targets share a small id space
    return [
        ([3, 4], [5, 6]),
        ([4, 7], [6, 8]),
        ([3, 7], [5, 8]),
    ]


class TestToyModel:
    def test_empty_corpus_rejected(self):
        with pytest.raises(UntrainedModelError):
            toy_base_model([], vocab_size=10)

    def test_distribution_is_valid(self):
        model = toy_base_model(tiny_corpus(), vocab_size=10, dim=16)
        probs = model.next_distribution([3, 4], [BOS_ID])
        assert probs.shape == (10,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert (probs >= 0).all()

    def test_memorizes_single_pair(self):
        model = toy_base_model([([3, 4], [5, 6, 7])] * 4, vocab_size=10, dim=16)
        assert decode_greedy(model, [3, 4]) == [5, 6, 7]

    def test_featurize_deterministic(self):
        model = toy_base_model(tiny_corpus(), vocab_size=10, dim=16)
        a = model.featurize([3, 4], [BOS_ID, 5])
        b = model.featurize([3, 4], [BOS_ID, 5])
        assert a.dtype == np.float32
        assert np.array_equal(a, b)

    def test_featurize_unit_norm(self):
        model = toy_base_model(tiny_corpus(), vocab_size=10, dim=16)
        vec = model.featurize([3, 4, 7], [BOS_ID, 5, 6])
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-6)

    def test_featurize_all_zero_when_hashes_cancel(self):
        # the six signed feature hashes of this context cancel exactly; the key
        # stays all-zero instead of being divided by a zero norm
        model = ToyBaseModel(tiny_corpus(), vocab_size=300, dim=64)
        vec = model.featurize([52, 201, 121], [BOS_ID, 44])
        assert np.linalg.norm(vec) == 0.0

    def test_featurize_collision_rate_under_one_percent(self):
        rng = np.random.default_rng(1)
        model = toy_base_model(tiny_corpus(), vocab_size=2000, dim=64)
        seen = set()
        contexts = set()
        while len(contexts) < 10_000:
            src = tuple(rng.integers(3, 2000, size=rng.integers(2, 8)))
            prefix = tuple(rng.integers(3, 2000, size=rng.integers(1, 5)))
            contexts.add((src, prefix))
        collisions = 0
        for src, prefix in sorted(contexts):
            key = model.featurize(list(src), [BOS_ID, *prefix]).tobytes()
            if key in seen:
                collisions += 1
            seen.add(key)
        assert collisions / len(contexts) < 0.01


def reference_greedy(model, source, max_len=64):
    """Independent argmax loop over the bare base distribution."""
    prefix = [BOS_ID]
    out = []
    for _ in range(max_len):
        token = int(np.argmax(model.next_distribution(source, prefix)))
        if token == EOS_ID:
            break
        out.append(token)
        prefix.append(token)
    return out


def store_from_corpus(model, pairs, lang="xx"):
    return build_datastore(trajectory_records(model, pairs), model.vocab_size, lang)


def sequence_log_score(model, source, tokens, store, cfg):
    """Log prob of a generated sequence (plus its end token) under the steps."""
    from knnmt.decode import PROB_FLOOR
    prefix = [BOS_ID]
    total = 0.0
    for token in [*tokens, EOS_ID]:
        probs = step_distribution(model, source, prefix, store, None, cfg)
        total += math.log(max(probs[token], PROB_FLOOR))
        prefix.append(token)
    return total


def toy_setup(seed=0, n=60, words=30):
    from knnmt import toygen
    spec = toygen.ToySpec(langs=("aa",), n_train=n, n_test=0, n_words=words,
                          seed=seed)
    data = toygen.generate(spec)
    vocab = data.vocab
    pairs = [(vocab.encode(s), vocab.encode(t)) for s, t in data.train["aa"]]
    model = toy_base_model(pairs, vocab_size=len(vocab), dim=32)
    return model, pairs


class TestGreedy:
    def test_no_store_equals_pure_base_decoding(self):
        model, pairs = toy_setup(seed=2)
        for src, _ in pairs[:20]:
            assert decode_greedy(model, src) == reference_greedy(model, src)

    def test_lambda_one_self_retrieval_reproduces_reference(self):
        # disjoint token ranges per sentence keep every featurizer context
        # unique, so distance-0 retrieval forces the stored trajectory
        pairs = []
        for sid in range(40):
            base = 3 + sid * 10
            pairs.append((list(range(base, base + 5)),
                          list(range(base + 5, base + 10))))
        model = toy_base_model(pairs, vocab_size=3 + 40 * 10, dim=32)
        store = store_from_corpus(model, pairs)
        cfg = KnnConfig(k=1, lam=1.0, temperature=10.0)
        for src, tgt in pairs:
            out = decode_greedy(model, src, store=store, cfg=cfg,
                                max_len=len(tgt) + 4)
            assert out == tgt

    def test_per_step_argmax_matches_store_at_distance_zero(self):
        model, pairs = toy_setup(seed=4)
        store = store_from_corpus(model, pairs)
        cfg = KnnConfig(k=1, lam=1.0, temperature=10.0)
        src, tgt = pairs[5]
        prefix = [BOS_ID]
        for t, token in enumerate([*tgt, EOS_ID]):
            probs = step_distribution(model, src, prefix, store, None, cfg)
            from knnmt.vecstore import query
            nearest = query(store, model.featurize(src, prefix), 1)[0]
            if nearest.distance == 0.0:
                assert int(np.argmax(probs)) == nearest.token_id
            prefix.append(token)

    def test_store_dim_mismatch(self):
        model, pairs = toy_setup(seed=5)
        wrong = toy_base_model(pairs, vocab_size=model.vocab_size, dim=16)
        store = store_from_corpus(wrong, pairs)
        cfg = KnnConfig(k=2, lam=0.5, temperature=1.0)
        with pytest.raises(DimensionMismatchError):
            decode_greedy(model, pairs[0][0], store=store, cfg=cfg)

    def test_max_len_respected(self):
        model, pairs = toy_setup(seed=6)
        assert len(decode_greedy(model, pairs[0][0], max_len=3)) <= 3


class TestBeam:
    def test_beam_one_equals_greedy_on_random_inputs(self):
        model, pairs = toy_setup(seed=7)
        store = store_from_corpus(model, pairs)
        cfg = KnnConfig(k=4, lam=0.5, temperature=10.0)
        rng = np.random.default_rng(7)
        for _ in range(50):
            src = [int(t) for t in rng.integers(3, model.vocab_size,
                                                size=rng.integers(2, 7))]
            greedy = decode_greedy(model, src, store=store, cfg=cfg)
            beamed = decode_beam(model, src, 1, store=store, cfg=cfg)
            assert greedy == beamed

    def test_one_hot_model_forces_sequence(self):
        class ForcedModel:
            vocab_size = 10
            dim = 4
            sequence = [5, 7, 4]

            def next_distribution(self, source, prefix):
                probs = np.zeros(10)
                step = len(prefix) - 1
                probs[self.sequence[step] if step < 3 else EOS_ID] = 1.0
                return probs

            def featurize(self, source, prefix):
                return np.zeros(4, dtype=np.float32)

        model = ForcedModel()
        for beam_size in (1, 2, 4, 8):
            assert decode_beam(model, [3], beam_size) == [5, 7, 4]

    def test_wider_beam_never_scores_worse(self):
        model, pairs = toy_setup(seed=8, n=100)
        store = store_from_corpus(model, pairs)
        cfg = KnnConfig(k=4, lam=0.4, temperature=10.0)
        for src, _ in pairs[:100]:
            narrow = decode_beam(model, src, 1, store=store, cfg=cfg)
            wide = decode_beam(model, src, 4, store=store, cfg=cfg)
            assert (sequence_log_score(model, src, wide, store, cfg)
                    >= sequence_log_score(model, src, narrow, store, cfg) - 1e-12)

    def test_bad_beam_size(self):
        model, _ = toy_setup(seed=9)
        with pytest.raises(ValueError):
            decode_beam(model, [3], 0)


class ReferenceToyModel:
    """The dict-of-triples toy model the array tables replaced, kept as their oracle."""

    def __init__(self, pairs, vocab_size):
        self.vocab_size = vocab_size
        self._cooc = {}
        self._counts = {}
        for source, target in pairs:
            bag = set(source)
            trajectory = [BOS_ID, *target, EOS_ID]
            for prev, nxt in zip(trajectory, trajectory[1:]):
                for s in bag:
                    key = (s, prev, nxt)
                    self._counts[key] = self._counts.get(key, 0) + 1
                    self._cooc.setdefault(s, set()).add(nxt)

    def next_distribution(self, source, prefix):
        bag = set(source)
        prev = prefix[-1] if len(prefix) else BOS_ID
        allowed = {EOS_ID}
        for s in bag:
            allowed |= self._cooc.get(s, set())
        probs = np.zeros(self.vocab_size, dtype=np.float64)
        for tok in allowed:
            probs[tok] = 1.0 + sum(self._counts.get((s, prev, tok), 0) for s in bag)
        return probs / probs.sum()


class TestToyModelOracle:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_model(self, data):
        vocab_size = data.draw(st.integers(4, 2000))
        # a small shared id range makes repeated tokens and shared contexts likely
        target_tok = st.one_of(st.integers(0, min(vocab_size - 1, 12)),
                               st.integers(0, vocab_size - 1))
        # sources may hold ids the vocabulary does not, and negative ones
        source_tok = st.one_of(st.integers(-2, 14), st.integers(-2, vocab_size + 5))
        pairs = data.draw(st.lists(
            st.tuples(st.lists(source_tok, max_size=6), st.lists(target_tok, max_size=6)),
            min_size=1, max_size=8))
        model = ToyBaseModel(pairs, vocab_size=vocab_size, dim=8)
        reference = ReferenceToyModel(pairs, vocab_size)
        queries = [([], []), ([], [BOS_ID])]
        for source, target in pairs:  # teacher-forced, then empty-prefix
            queries += [(source, [BOS_ID, *target[:t]]) for t in range(len(target) + 1)]
            queries.append((source, []))
        queries += data.draw(st.lists(
            st.tuples(st.lists(source_tok, max_size=6),
                      st.lists(st.integers(-2, vocab_size + 5), max_size=4)),
            max_size=10))
        for source, prefix in queries:
            assert np.array_equal(model.next_distribution(source, prefix),
                                  reference.next_distribution(source, prefix))

    def test_teacher_forced_gen_toy_corpus(self):
        from knnmt import toygen
        data = toygen.generate(toygen.ToySpec(langs=("aa",), n_train=300, n_test=0,
                                              n_words=60, seed=101))
        vocab = data.vocab
        pairs = [(vocab.encode(s), vocab.encode(t)) for s, t in data.train["aa"]]
        model = ToyBaseModel(pairs, vocab_size=len(vocab), dim=16)
        reference = ReferenceToyModel(pairs, len(vocab))
        calls = 0
        for source, target in pairs:
            prefix = [BOS_ID]
            for token in [*target, EOS_ID]:
                assert np.array_equal(model.next_distribution(source, prefix),
                                      reference.next_distribution(source, prefix))
                prefix.append(token)
                calls += 1
        assert calls == sum(len(t) + 1 for _, t in pairs)

    def test_tables_are_read_only(self):
        model = ToyBaseModel(tiny_corpus(), vocab_size=10, dim=16)
        tables = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
        assert tables and not any(t.flags.writeable for t in tables)

    @pytest.mark.parametrize("pairs,vocab_size", [
        ([([3], [10])], 10),  # target id at the vocabulary size
        ([([3], [-1])], 10),  # negative target id
        ([([3], [1])], 2),    # the end token does not fit the vocabulary
    ])
    def test_target_outside_vocabulary_rejected(self, pairs, vocab_size):
        with pytest.raises(DimensionMismatchError):
            ToyBaseModel(pairs, vocab_size=vocab_size)


def reference_featurize(source, prefix, dim):
    """The per-prefix featurizer the memo replaced: every feature hashed on every call."""
    key = FEATURE_HASH_SEED.to_bytes(8, "little")
    prev1 = prefix[-1] if len(prefix) >= 1 else BOS_ID
    prev2 = prefix[-2] if len(prefix) >= 2 else BOS_ID
    vec = np.zeros(dim, dtype=np.float64)
    for feature in [*(f"s:{tok}" for tok in source),
                    f"p1:{prev1}", f"p2:{prev2}", f"p12:{prev2},{prev1}"]:
        digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8, key=key).digest()
        h = int.from_bytes(digest, "little")
        vec[(h >> 1) % dim] += 1.0 if h & 1 == 0 else -1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec.astype(np.float32)


def reference_trajectory(pairs, dim):
    """Per-sentence, per-prefix records, concatenated: what trajectory_records must return."""
    rows = []
    for sid, (source, target) in enumerate(pairs):
        trajectory = [*target, EOS_ID]
        for t, tok in enumerate(trajectory):
            rows.append((sid, t, tok,
                         reference_featurize(source, [BOS_ID, *trajectory[:t]], dim)))
    return np.array(rows, dtype=record_dtype(dim))


CANCELLING_PAIR = ([52, 201, 121], [44])  # at d=64 its step-1 key is all-zero


class TestTrajectoryOracle:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_keys_match_per_prefix_featurize(self, data):
        dim = data.draw(st.sampled_from([4, 16, 64]))
        # a small id range makes repeated source tokens and shared contexts likely
        tok = st.one_of(st.integers(3, 12), st.integers(0, 299))
        pairs = data.draw(st.lists(
            st.tuples(st.lists(st.one_of(tok, st.integers(-3, 400)), max_size=7),
                      st.lists(tok, max_size=6)),  # empty targets included
            min_size=1, max_size=8))
        pairs.insert(data.draw(st.integers(0, len(pairs))), CANCELLING_PAIR)
        model = ToyBaseModel(pairs, vocab_size=300, dim=dim)
        expected = reference_trajectory(pairs, dim)
        with mock.patch.object(decode, "_TRAJECTORY_SLICE", data.draw(st.integers(1, 4))):
            cold = trajectory_records(model, pairs)
            warm = trajectory_records(model, pairs)
        for got in (cold, warm):
            assert got.dtype == record_dtype(dim)
            assert got.tobytes() == expected.tobytes()
        for row in expected:  # featurize reads the same memo
            source, target = pairs[row["sid"]]
            prefix = [BOS_ID, *target, EOS_ID][:row["ts"] + 1]
            assert model.featurize(source, prefix).tobytes() == row["vec"].tobytes()
        if dim == 64:
            assert (cold["vec"][np.linalg.norm(expected["vec"], axis=1) == 0] == 0).all()
            assert (np.linalg.norm(cold["vec"], axis=1) == 0).any()

    def test_memo_warmed_by_featurize(self):
        model, pairs = toy_setup(seed=3, n=200)
        for source, target in pairs[::7]:  # a part of the memo filled first
            model.featurize(source, [BOS_ID, *target])
        records = trajectory_records(model, pairs)
        assert records.tobytes() == reference_trajectory(pairs, model.dim).tobytes()

    def test_target_beyond_the_u16_timestep_rejected(self):
        # 65,536 tokens plus end-of-sequence would need timestep 65,536
        model = ToyBaseModel(tiny_corpus(), vocab_size=10, dim=16)
        with pytest.raises(MalformedDumpError, match="65536 tokens"):
            trajectory_records(model, [([3], [5]), ([4], [6] * 65536)])
        longest = trajectory_records(model, [([4], [6] * 65535)])
        assert longest["ts"][-1] == 65535 and longest.size == 65536

    def test_corpus_beyond_the_u32_sentence_id_rejected(self):
        class Huge(list):  # only its length is read before the check
            def __len__(self):
                return 2**32 + 1

        model = ToyBaseModel(tiny_corpus(), vocab_size=10, dim=16)
        with pytest.raises(MalformedDumpError, match="sentences"):
            trajectory_records(model, Huge())

    def test_empty_corpus_gives_no_records(self):
        model = ToyBaseModel(tiny_corpus(), vocab_size=10, dim=16)
        records = trajectory_records(model, [])
        assert records.dtype == record_dtype(16) and records.size == 0


class TestFeaturizeSourceCounts:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_reference_across_sources(self, data):
        dim = data.draw(st.sampled_from([4, 16, 64]))
        source = st.lists(st.one_of(st.integers(3, 12), st.integers(-3, 400)), max_size=7)
        a, b = data.draw(source), data.draw(source)
        prefix = st.lists(st.integers(0, 299), max_size=4)
        model = ToyBaseModel(tiny_corpus(), vocab_size=10, dim=dim)
        # alternating, then each source repeated after the other, then any order
        order = [a, b, a, b, a, a, b, b, CANCELLING_PAIR[0], a,
                 *data.draw(st.lists(st.sampled_from([a, b]), max_size=6))]
        for src in order:
            p = data.draw(prefix)
            got = model.featurize(src, p)
            assert got.tobytes() == reference_featurize(src, p, dim).tobytes()
            # a tuple or an array of the same ids is the same source
            assert model.featurize(np.array(src, dtype=np.int64), p).tobytes() == got.tobytes()
            assert model.featurize(tuple(src), p).tobytes() == got.tobytes()

    def test_cancelling_key_after_another_source(self):
        model = ToyBaseModel(tiny_corpus(), vocab_size=10, dim=64)
        source, prefix = CANCELLING_PAIR
        model.featurize([3, 4, 5], [BOS_ID])
        assert not model.featurize(source, [BOS_ID, *prefix]).any()
        assert model.featurize([3, 4, 5], [BOS_ID]).tobytes() == \
            reference_featurize([3, 4, 5], [BOS_ID], 64).tobytes()

    def test_threads_sharing_them_get_their_own_keys(self):
        model = ToyBaseModel(tiny_corpus(), vocab_size=10, dim=16)
        sources = [[3, 4, 5 + i, 100 + i] for i in range(6)]
        prefixes = [[BOS_ID], [BOS_ID, 7], [BOS_ID, 7, 9]]
        expected = {(i, j): reference_featurize(src, p, 16).tobytes()
                    for i, src in enumerate(sources) for j, p in enumerate(prefixes)}
        wrong = []

        def work(i):
            for n in range(300):
                j = n % len(prefixes)
                if model.featurize(sources[i], prefixes[j]).tobytes() != expected[i, j]:
                    wrong.append((i, j))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(sources))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
