import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    MalformedDumpError,
    NonFiniteKeyError,
    SingularSystemError,
)
from knnmt.vecstore import (build_datastore, context_rows, make_records, merge_datastores,
                            query)


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


def reference_pair_rows(store1, store2, alignment):
    """Training-pair rows by one Python loop over the aligned sentences."""
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
        if not np.array_equal(keys1[lo1:hi1] & 0xFFFF, keys2[lo2:hi2] & 0xFFFF):
            continue
        r1, r2 = rows1[lo1:hi1], rows2[lo2:hi2]
        same = store1.token_ids[r1] == store2.token_ids[r2]
        picks1.append(r1[same])
        picks2.append(r2[same])
    return np.concatenate(picks1), np.concatenate(picks2)


@st.composite
def aligned_stores(draw):
    """Two stores over the same sentence ids, with missing sentences, lengths,
    timesteps and tokens that differ, and alignments with repeated and
    out-of-range ids."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stores = []
    base = [rng.integers(0, 4, size=rng.integers(1, 6)) for _ in range(n)]
    for lang in ("aa", "bb"):
        sids, ts, toks = [], [], []
        for sid, tokens in enumerate(base):
            if rng.random() < 0.1:
                continue  # absent from this store
            tokens = tokens.copy()
            if rng.random() < 0.1:
                tokens = np.append(tokens, 1)  # a longer decode
            steps = np.arange(tokens.size)
            if rng.random() < 0.1:
                steps[-1] += 3  # the same length, other timesteps
            flip = rng.random(tokens.size) < 0.1
            tokens[flip] = rng.integers(0, 4, size=int(flip.sum()))
            sids += [sid] * tokens.size
            ts += steps.tolist()
            toks += tokens.tolist()
        if not sids:
            sids, ts, toks = [n + 5], [0], [0]
        order = rng.permutation(len(sids))  # rows in any order
        vecs = rng.normal(size=(len(sids), 4)).astype(np.float32)
        stores.append(build_datastore(
            make_records(vecs, np.array(toks)[order], np.array(sids)[order],
                         np.array(ts)[order]), 10, lang))
    ids = st.one_of(st.integers(0, n + 1), st.sampled_from([-1, 2**32, 2**40, -2**40]))
    same_sentence = st.integers(0, n - 1).map(lambda i: (i, i))
    alignment = draw(st.lists(st.one_of(same_sentence, st.tuples(ids, ids)),
                                   min_size=1, max_size=12))
    return stores[0], stores[1], alignment


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

    @given(aligned_stores())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_loop_over_sentences(self, case):
        store1, store2, alignment = case
        src, tgt = reference_pair_rows(store1, store2, alignment)
        if not src.size:
            with pytest.raises(EmptyPairsError):
                extract_training_pairs(store1, store2, alignment)
            return
        pairs = extract_training_pairs(store1, store2, alignment)
        assert np.array_equal(pairs.rows_src, store1.keys[src].astype(np.float64))
        assert np.array_equal(pairs.rows_tgt, store2.keys[tgt].astype(np.float64))

    def test_repeated_alignment_rows_pair_again(self):
        store1 = sentence_store("aa", self.sentences, self.base_keys())
        store2 = sentence_store("bb", self.sentences, self.base_keys())
        once = extract_training_pairs(store1, store2, [(1, 1), (2, 2)])
        twice = extract_training_pairs(store1, store2, [(1, 1), (2, 2), (1, 1)])
        n1 = len(self.sentences[1])
        assert np.array_equal(twice.rows_src,
                              np.concatenate([once.rows_src, once.rows_src[:n1]]))

    def test_same_length_other_timesteps_drops_sentence(self):
        cells = [(0, 0, 5), (0, 1, 6), (1, 0, 7)]
        other = [(0, 0, 5), (0, 2, 6), (1, 0, 7)]  # sentence 0 has timestep 2, not 1
        stores = [build_datastore(make_records(np.eye(3, dtype=np.float32),
                                               [c[2] for c in rows], [c[0] for c in rows],
                                               [c[1] for c in rows]), 10, lang)
                  for lang, rows in (("aa", cells), ("bb", other))]
        pairs = extract_training_pairs(*stores, [(0, 0), (1, 1)])
        assert np.array_equal(pairs.rows_src, np.eye(3)[2:])


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

    def test_residual_is_the_plain_sum_of_squares(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(300, 16))
        y = x @ rng.normal(size=(16, 16)).T + rng.normal(size=(300, 16))
        fitted = fit_linear_map(PairedContexts(rows_src=x, rows_tgt=y))
        s = fitted.matrix.T
        assert fitted.residual == float(np.sum((y - x @ s) ** 2))

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

    def test_non_finite_mapped_keys_rejected(self):
        # 1e39 overflows float32, so every mapped key would be inf
        store = self.make_store(None, np.ones((4, 4)), np.arange(3, 7))
        with pytest.raises(NonFiniteKeyError):
            map_datastore(store, LinearMap(np.eye(4) * 1e39, "aa", "aa", 0.0))

    def test_overflow_reported_once(self):
        # the error reports the overflow; numpy's cast warning would repeat it
        store = self.make_store(None, np.ones((4, 4)), np.arange(3, 7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteKeyError):
                map_datastore(store, LinearMap(np.eye(4) * 1e39, "aa", "aa", 0.0))


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

    @pytest.mark.parametrize("codes", [("EN", "aa"), ("aa", "")])
    def test_invalid_code_writes_nothing(self, tmp_path, codes):
        path = tmp_path / "map.klm"
        with pytest.raises(MalformedDumpError):
            save_linear_map(LinearMap(np.eye(4), *codes, 0.0), path)
        assert not path.exists()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.klm"
        path.write_bytes(b"ZZZZZZ" + b"\x00" * 40)
        with pytest.raises(CorruptFileError):
            load_linear_map(path)
