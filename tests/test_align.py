import numpy as np
import pytest

from knnmt.align import (
    LinearMap,
    PairedContexts,
    apply_map,
    extract_training_pairs,
    fit_linear_map,
    load_linear_map,
    map_datastore,
    save_linear_map,
)
from knnmt.errors import (
    CorruptFileError,
    DimensionMismatchError,
    EmptyPairsError,
    SingularSystemError,
)
from knnmt.vecstore import build_datastore, make_records, merge_datastores, query


def sentence_store(lang, sentences, keys_for):
    """Store with one entry per (sentence, timestep); tokens from the sentence."""
    cells = [(sid, t, tok) for sid, tokens in enumerate(sentences)
             for t, tok in enumerate(tokens)]
    vectors = [keys_for(sid, t, tok) for sid, t, tok in cells]
    sids, timesteps, tokens = zip(*cells)
    return build_datastore(make_records(vectors, tokens, sids, timesteps), 100, lang)


def random_rotation(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


class TestExtractPairs:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        self.sentences = [[int(t) for t in self.rng.integers(3, 50, size=n)]
                          for n in (4, 6, 3, 5)]

    def base_keys(self, scale=1.0):
        vecs = {}

        def keys_for(sid, t, tok):
            key = (sid, t)
            if key not in vecs:
                vecs[key] = self.rng.normal(size=8).astype(np.float32)
            return vecs[key] * scale

        return keys_for

    def test_full_overlap_pairs_every_entry(self):
        store1 = sentence_store("aa", self.sentences, self.base_keys())
        store2 = sentence_store("bb", self.sentences, self.base_keys())
        alignment = [(i, i) for i in range(len(self.sentences))]
        pairs = extract_training_pairs(store1, store2, alignment)
        assert len(pairs) == sum(len(s) for s in self.sentences)
        assert pairs.src_lang == "aa"
        assert pairs.tgt_lang == "bb"

    def test_disjoint_sentences_raise(self):
        store1 = sentence_store("aa", self.sentences, self.base_keys())
        store2 = sentence_store("bb", self.sentences, self.base_keys())
        with pytest.raises(EmptyPairsError):
            extract_training_pairs(store1, store2, [(0, 90), (90, 0)])

    def test_rows_grow_with_shared_sentences(self):
        store1 = sentence_store("aa", self.sentences, self.base_keys())
        store2 = sentence_store("bb", self.sentences, self.base_keys())
        sizes = []
        for upto in (1, 2, 4):
            alignment = [(i, i) for i in range(upto)]
            sizes.append(len(extract_training_pairs(store1, store2, alignment)))
        assert sizes[0] < sizes[1] < sizes[2]

    def test_length_mismatch_drops_sentence(self):
        longer = [s + [99] for s in self.sentences]
        store1 = sentence_store("aa", self.sentences, self.base_keys())
        store2 = sentence_store("bb", longer, self.base_keys())
        with pytest.raises(EmptyPairsError):
            extract_training_pairs(store1, store2,
                                   [(i, i) for i in range(len(self.sentences))])

    def test_token_mismatch_drops_row_only(self):
        altered = [list(s) for s in self.sentences]
        altered[0][1] = 77  # one token differs; that row is dropped
        store1 = sentence_store("aa", self.sentences, self.base_keys())
        store2 = sentence_store("bb", altered, self.base_keys())
        pairs = extract_training_pairs(store1, store2,
                                       [(i, i) for i in range(len(self.sentences))])
        assert len(pairs) == sum(len(s) for s in self.sentences) - 1

    def test_pairs_follow_alignment_order_and_skip_unknown_ids(self):
        store1 = sentence_store("aa", self.sentences, self.base_keys())
        store2 = sentence_store("bb", self.sentences, self.base_keys())
        alignment = [(2, 2), (-1, 0), (0, 0), (0, 2**64), (99, 1), (1, 1)]
        pairs = extract_training_pairs(store1, store2, alignment)
        starts = np.cumsum([0] + [len(s) for s in self.sentences])
        rows = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in (2, 0, 1)])
        assert np.array_equal(pairs.rows_src, store1.keys[rows].astype(np.float64))
        assert np.array_equal(pairs.rows_tgt, store2.keys[rows].astype(np.float64))

    def test_multilingual_store_rejected(self):
        store1 = sentence_store("aa", self.sentences, self.base_keys())
        mixed = merge_datastores([
            build_datastore(make_records(np.zeros((1, 8)), 3, 0, 0), 10, lang)
            for lang in ("aa", "bb")])
        with pytest.raises(ValueError):
            extract_training_pairs(store1, mixed, [(0, 0)])


class TestFit:
    def test_identity_recovery(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(64, 8))
        pairs = PairedContexts(rows_src=x, rows_tgt=x.copy())
        fitted = fit_linear_map(pairs)
        assert np.abs(fitted.matrix - np.eye(8)).max() < 1e-6

    def test_exact_line_in_one_dimension(self):
        pairs = PairedContexts(rows_src=np.array([[1.0], [2.0], [3.0]]),
                               rows_tgt=np.array([[2.0], [4.0], [6.0]]))
        fitted = fit_linear_map(pairs)
        assert fitted.matrix[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_recovers_random_full_rank_map(self):
        rng = np.random.default_rng(2)
        truth = rng.normal(size=(16, 16))  # generator holds the ground truth
        x = rng.normal(size=(200, 16))
        pairs = PairedContexts(rows_src=x, rows_tgt=x @ truth.T)
        fitted = fit_linear_map(pairs)
        assert np.linalg.norm(fitted.matrix - truth) < 1e-4

    def test_residual_zero_for_exact_data(self):
        rng = np.random.default_rng(3)
        truth = rng.normal(size=(8, 8))
        x = rng.normal(size=(50, 8))
        fitted = fit_linear_map(PairedContexts(rows_src=x, rows_tgt=x @ truth.T))
        assert fitted.residual == pytest.approx(0.0, abs=1e-8)

    def test_residual_nonincreasing_for_nested_exact_sets(self):
        rng = np.random.default_rng(4)
        truth = rng.normal(size=(8, 8))
        x = rng.normal(size=(120, 8))
        y = x @ truth.T
        residuals = [
            fit_linear_map(PairedContexts(rows_src=x[:n], rows_tgt=y[:n])).residual
            for n in (20, 60, 120)
        ]
        assert residuals[0] <= residuals[1] + 1e-8
        assert residuals[1] <= residuals[2] + 1e-8

    def test_singular_without_ridge_raises(self):
        x = np.zeros((4, 8))
        x[:, 0] = [1.0, 2.0, 3.0, 4.0]  # rank 1
        pairs = PairedContexts(rows_src=x, rows_tgt=x.copy())
        with pytest.raises(SingularSystemError):
            fit_linear_map(pairs, ridge=0.0)
        fitted = fit_linear_map(pairs, ridge=1e-6)  # caller retries with ridge
        assert np.isfinite(fitted.matrix).all()

    def test_swapped_fit_composes_to_identity(self):
        rng = np.random.default_rng(5)
        truth = random_rotation(rng, 8)
        x = rng.normal(size=(100, 8))
        pairs = PairedContexts(rows_src=x, rows_tgt=x @ truth.T)
        forward = fit_linear_map(pairs)
        backward = fit_linear_map(pairs.swapped())
        for row in x[:10]:
            roundtrip = backward.matrix @ (forward.matrix @ row)
            assert np.linalg.norm(roundtrip - row) < 1e-4

    def test_empty_pairs(self):
        pairs = PairedContexts(rows_src=np.zeros((0, 4)), rows_tgt=np.zeros((0, 4)))
        with pytest.raises(EmptyPairsError):
            fit_linear_map(pairs)


class TestApply:
    def test_identity_map(self):
        lm = LinearMap(np.eye(4), "aa", "bb", 0.0)
        v = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.array_equal(apply_map(lm, v), v)

    def test_zero_vector_stays_zero(self):
        rng = np.random.default_rng(6)
        lm = LinearMap(rng.normal(size=(4, 4)), "aa", "bb", 0.0)
        assert np.array_equal(apply_map(lm, np.zeros(4)), np.zeros(4))

    def test_reproduces_fit_targets(self):
        rng = np.random.default_rng(7)
        truth = rng.normal(size=(8, 8))
        x = rng.normal(size=(80, 8))
        fitted = fit_linear_map(PairedContexts(rows_src=x, rows_tgt=x @ truth.T))
        for i in range(10):
            assert np.linalg.norm(apply_map(fitted, x[i]) - truth @ x[i]) < 1e-4

    def test_dimension_mismatch(self):
        lm = LinearMap(np.eye(4), "aa", "bb", 0.0)
        with pytest.raises(DimensionMismatchError):
            apply_map(lm, np.zeros(5))


class TestMapDatastore:
    def make_store(self, rng, keys, tokens, lang="aa"):
        records = make_records(keys, tokens, np.arange(len(keys)), 0)
        return build_datastore(records, 100, lang)

    def test_identity_map_is_query_equivalent(self):
        rng = np.random.default_rng(8)
        keys = rng.normal(size=(50, 8))
        store = self.make_store(rng, keys, rng.integers(3, 90, size=50))
        mapped = map_datastore(store, LinearMap(np.eye(8), "aa", "aa", 0.0))
        for _ in range(10):
            q = rng.normal(size=8)
            assert [nb.entry_index for nb in query(store, q, 5)] == \
                [nb.entry_index for nb in query(mapped, q, 5)]

    def test_preserves_values_and_provenance(self):
        rng = np.random.default_rng(9)
        keys = rng.normal(size=(30, 8))
        store = self.make_store(rng, keys, rng.integers(3, 90, size=30))
        lm = LinearMap(rng.normal(size=(8, 8)), "aa", "bb", 0.0)
        mapped = map_datastore(store, lm)
        assert len(mapped) == len(store)
        assert np.array_equal(mapped.token_ids, store.token_ids)
        assert mapped.languages == store.languages
        assert not np.array_equal(mapped.keys, store.keys)

    def test_input_rows_unchanged(self):
        rng = np.random.default_rng(14)
        store = self.make_store(rng, rng.normal(size=(20, 8)), rng.integers(3, 90, size=20))
        before = store.rows.tobytes()
        mapped = map_datastore(store, LinearMap(rng.normal(size=(8, 8)), "aa", "bb", 0.0))
        assert store.rows.tobytes() == before
        for name in ("sid", "ts", "tok", "lang"):
            assert np.array_equal(mapped.rows[name], store.rows[name])

    def test_map_then_inverse_fit_restores_keys(self):
        rng = np.random.default_rng(10)
        truth = random_rotation(rng, 8)  # well-conditioned
        x = rng.normal(size=(120, 8))
        forward = fit_linear_map(PairedContexts(rows_src=x, rows_tgt=x @ truth.T))
        backward = fit_linear_map(
            PairedContexts(rows_src=x @ truth.T, rows_tgt=x))
        store = self.make_store(rng, x[:40], rng.integers(3, 90, size=40))
        roundtrip = map_datastore(map_datastore(store, forward), backward)
        assert np.abs(roundtrip.keys - store.keys).max() < 1e-3

    def test_rotated_language_retrieval_improves_after_mapping(self):
        rng = np.random.default_rng(11)
        d, n_tokens = 16, 12
        centers = rng.normal(size=(n_tokens, d)) * 2.0
        rotation = random_rotation(rng, d)
        tokens = rng.integers(0, n_tokens, size=400)
        lang1_keys = centers[tokens] + rng.normal(scale=0.3, size=(400, d))
        lang2_keys = lang1_keys @ rotation.T
        store2 = self.make_store(rng, lang2_keys, tokens + 3, lang="bb")
        # paired contexts: same trajectories observed in both spaces
        fitted = fit_linear_map(PairedContexts(rows_src=lang2_keys,
                                               rows_tgt=lang1_keys,
                                               src_lang="bb", tgt_lang="aa"))
        mapped_store = map_datastore(store2, fitted)
        query_tokens = rng.integers(0, n_tokens, size=200)
        queries = centers[query_tokens] + rng.normal(scale=0.3, size=(200, d))
        hits_raw = sum(query(store2, q, 1)[0].token_id == tok + 3
                       for q, tok in zip(queries, query_tokens))
        hits_mapped = sum(query(mapped_store, q, 1)[0].token_id == tok + 3
                          for q, tok in zip(queries, query_tokens))
        assert hits_mapped > hits_raw

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        store = self.make_store(rng, rng.normal(size=(10, 8)), np.arange(10))
        with pytest.raises(DimensionMismatchError):
            map_datastore(store, LinearMap(np.eye(4), "aa", "bb", 0.0))


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(60, 8))
        truth = rng.normal(size=(8, 8))
        fitted = fit_linear_map(PairedContexts(rows_src=x, rows_tgt=x @ truth.T,
                                               src_lang="aa", tgt_lang="bb"))
        path = tmp_path / "map.klm"
        save_linear_map(fitted, path)
        loaded = load_linear_map(path)
        assert loaded.source_lang == "aa"
        assert loaded.target_lang == "bb"
        assert loaded.ridge == fitted.ridge
        assert loaded.residual is None
        assert np.allclose(loaded.matrix, fitted.matrix, atol=1e-6)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.klm"
        path.write_bytes(b"ZZZZZZ" + b"\x00" * 40)
        with pytest.raises(CorruptFileError):
            load_linear_map(path)
