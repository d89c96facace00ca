import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmt.errors import (
    EmptyInputError,
    IncompleteTableError,
    InsufficientDataError,
    SingularSystemError,
)
from knnmt.features import (
    DATASET_FEATURES,
    LINGUISTIC_FEATURES,
    Corpus,
    LinearModel,
    fit_linear,
    load_distance_table,
    multi_parallel_overlap,
    pair_features_table,
    permutation_importance,
    predict_xsim_loo,
    size_ratio,
    src_subword_overlap,
    tgt_ngram_overlap,
    vocab_occupancy_ratio,
)
from knnmt.mteval import ngram_counts


def corpus(lang, sources, targets=None):
    if targets is None:
        targets = sources
    return Corpus.from_lists(lang, sources, targets)


def random_corpus(rng, lang, n, vocab=20):
    sents = [[int(t) for t in rng.integers(3, vocab, size=rng.integers(2, 6))]
             for _ in range(n)]
    return corpus(lang, sents)


class TestSizeRatio:
    def test_equal_sizes(self):
        c = corpus("aa", [[3], [4]])
        assert size_ratio(c, c) == 1.0

    def test_ten_vs_forty(self):
        c1 = corpus("aa", [[3]] * 10)
        c2 = corpus("bb", [[3]] * 40)
        assert size_ratio(c1, c2) == 0.25

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            c1 = random_corpus(rng, "aa", int(rng.integers(1, 30)))
            c2 = random_corpus(rng, "bb", int(rng.integers(1, 30)))
            assert size_ratio(c1, c2) == size_ratio(c2, c1)


class TestVocabOccupancy:
    def test_identical_usage(self):
        c = corpus("aa", [[3, 4, 5]])
        assert vocab_occupancy_ratio(c, c, 10) == 1.0

    def test_half_vs_quarter(self):
        c1 = corpus("aa", [[3, 4, 5, 6]])  # 4 of 8
        c2 = corpus("bb", [[3, 4]])        # 2 of 8
        assert vocab_occupancy_ratio(c1, c2, 8) == 0.5

    def test_shared_denominator_cancels(self):
        # |V1|=3, |V2|=2: the ratio is 2/3 for any global vocab size
        c1 = corpus("aa", [[3, 4, 5]])
        c2 = corpus("bb", [[3, 4]])
        assert vocab_occupancy_ratio(c1, c2, 6) == pytest.approx(2 / 3)
        assert vocab_occupancy_ratio(c1, c2, 60) == pytest.approx(2 / 3)

    def test_empty_global_vocab(self):
        c = corpus("aa", [[3]])
        with pytest.raises(EmptyInputError):
            vocab_occupancy_ratio(c, c, 0)


class TestSubwordOverlap:
    def test_identical_sets(self):
        c = corpus("aa", [[3, 4, 5]])
        assert src_subword_overlap(c, c) == 1.0

    def test_disjoint_sets(self):
        assert src_subword_overlap(corpus("aa", [[3, 4]]),
                                   corpus("bb", [[5, 6]])) == 0.0

    def test_half_jaccard(self):
        c1 = corpus("aa", [[3, 4, 5]])
        c2 = corpus("bb", [[4, 5, 6]])
        assert src_subword_overlap(c1, c2) == 0.5

    def test_jaccard_identity_and_monotonicity(self):
        c1 = corpus("aa", [[3, 4]])
        c2 = corpus("bb", [[4, 5]])
        grown = corpus("bb", [[4, 5, 3]])  # adds a shared element
        assert src_subword_overlap(c1, c1) == 1.0
        assert src_subword_overlap(c1, grown) > src_subword_overlap(c1, c2)


class TestMultiParallelOverlap:
    def test_fully_multi_parallel(self):
        t = [[7, 8], [9, 10]]
        c1 = corpus("aa", [[3]] * 2, t)
        c2 = corpus("bb", [[4]] * 2, t)
        assert multi_parallel_overlap(c1, c2) == 1.0

    def test_disjoint_targets(self):
        c1 = corpus("aa", [[3]], [[7]])
        c2 = corpus("bb", [[3]], [[8]])
        assert multi_parallel_overlap(c1, c2) == 0.0

    def test_fifty_shared_of_150(self):
        shared = [[5, i] for i in range(50)]
        only1 = [[6, i] for i in range(50)]
        only2 = [[7, i] for i in range(50)]
        c1 = corpus("aa", [[3]] * 100, shared + only1)
        c2 = corpus("bb", [[3]] * 100, shared + only2)
        assert multi_parallel_overlap(c1, c2) == pytest.approx(1 / 3)

    @given(st.lists(st.lists(st.integers(0, 2), max_size=3), min_size=1, max_size=8),
           st.lists(st.lists(st.integers(0, 2), max_size=6), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_set_oracle(self, targets1, targets2):
        # few ids, 0 among them, empty sentences, prefixes and two widths: the sentences
        # are compared as padded rows, and no padding may make two of them equal
        c1 = corpus("aa", [[3]] * len(targets1), targets1)
        c2 = corpus("bb", [[3]] * len(targets2), targets2)
        t1, t2 = set(map(tuple, targets1)), set(map(tuple, targets2))
        assert multi_parallel_overlap(c1, c2) == len(t1 & t2) / len(t1 | t2)
        assert multi_parallel_overlap(c2, c1) == multi_parallel_overlap(c1, c2)
        assert tgt_ngram_overlap(c1, c2) == keyed_overlap(c1, c2) == tgt_ngram_overlap(c2, c1)


def keyed_overlap(c1, c2):
    """The keyed overlap that tgt_ngram_overlap replaced, with each target sentence as
    its own key: the first target per key, unigram count vectors multiplied per shared key."""
    def targets_by_key(c):
        ids, offsets = c.targets.ids.tolist(), c.targets.offsets.tolist()
        out = {}
        for lo, hi in zip(offsets, offsets[1:]):
            out.setdefault(tuple(ids[lo:hi]), tuple(ids[lo:hi]))
        return out

    targets1 = targets_by_key(c1)
    targets2 = targets_by_key(c2)
    total = 0.0
    for key in targets1.keys() & targets2.keys():
        counts1 = ngram_counts(targets1[key], 1)
        counts2 = ngram_counts(targets2[key], 1)
        total += sum(counts1[g] * counts2[g] for g in counts1.keys() & counts2.keys())
    return total


class TestTgtNgramOverlap:
    def test_hand_count_product(self):
        # shared [the, the, cat]: counts {the:2, cat:1} on both sides -> 2*2 + 1*1 = 5,
        # once however often either corpus repeats it
        the, cat = 7, 8
        c1 = corpus("aa", [[3], [4]], [[the, the, cat], [the, the, cat]])
        c2 = corpus("bb", [[4], [5]], [[the, cat], [the, the, cat]])
        assert tgt_ngram_overlap(c1, c2) == 5.0

    def test_zero_when_no_shared_unigrams(self):
        c1 = corpus("aa", [[3]], [[7, 7]])
        c2 = corpus("bb", [[4]], [[8, 9]])
        assert tgt_ngram_overlap(c1, c2) == 0.0

    def test_zero_when_no_shared_sentences(self):
        # the unigrams are shared, the sentences are not
        c1 = corpus("aa", [[3]], [[7, 8]])
        c2 = corpus("bb", [[4]], [[8, 7]])
        assert tgt_ngram_overlap(c1, c2) == 0.0

    def test_bigrams_add_nothing(self):
        # shared [7, 8, 7]: unigrams 7:2, 8:1 -> 5; its bigrams would have added 4
        c1 = corpus("aa", [[3]], [[7, 8, 7]])
        c2 = corpus("bb", [[4]], [[7, 8, 7]])
        assert tgt_ngram_overlap(c1, c2) == 5.0

    @given(st.lists(st.lists(st.integers(3, 8), min_size=1, max_size=5),
                    min_size=1, max_size=6),
           st.lists(st.integers(0, 5), min_size=1, max_size=10),
           st.lists(st.integers(0, 5), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_matches_keyed_oracle(self, pool, picks1, picks2):
        # targets drawn from one small pool repeat within and across corpora
        c1 = corpus("aa", [[3]] * len(picks1), [pool[i % len(pool)] for i in picks1])
        c2 = corpus("bb", [[3]] * len(picks2), [pool[i % len(pool)] for i in picks2])
        overlap = tgt_ngram_overlap(c1, c2)
        assert type(overlap) is float
        assert overlap == keyed_overlap(c1, c2) == tgt_ngram_overlap(c2, c1)

    def test_corpus_sets_are_built_once(self):
        c = corpus("aa", [[3, 4]], [[7, 8]])
        assert c.vocab_used is c.vocab_used
        assert c.target_set is c.target_set


def rows_by_name(pairs, x, names):
    """{pair: {feature name: value}}, to read one feature of one pair of a table."""
    return {pair: dict(zip(names, row)) for pair, row in zip(pairs, x)}


class TestPairFeaturesTable:
    def make_corpora(self):
        rng = np.random.default_rng(1)
        shared = [[int(t) for t in rng.integers(3, 20, size=4)] for _ in range(6)]
        corpora = {}
        for i, lang in enumerate(("aa", "bb", "cc")):
            own = [[int(t) for t in rng.integers(3, 20, size=4)]
                   for _ in range(i + 1)]
            targets = shared[: 6 - i] + own
            sources = [[int(t) for t in rng.integers(3, 20, size=4)]
                       for _ in targets]
            corpora[lang] = corpus(lang, sources, targets)
        return corpora

    def test_identical_targets_scale_to_one(self):
        corpora = self.make_corpora()
        table = rows_by_name(*pair_features_table(corpora, vocab_size=20))
        values = [row["tgt_ngram_overlap"] for row in table.values()]
        assert max(values) == 1.0
        assert min(values) == 0.0

    def test_all_features_within_bounds_and_symmetric(self):
        corpora = self.make_corpora()
        _, x, _ = pair_features_table(corpora, vocab_size=20)
        for vec in x:
            assert ((vec >= 0.0) & (vec <= 1.0)).all()

    def test_degenerate_pair_set_scales_to_one(self):
        t = [[7, 8]]
        corpora = {"aa": corpus("aa", [[3]], t), "bb": corpus("bb", [[4]], t)}
        table = rows_by_name(*pair_features_table(corpora, vocab_size=10))
        assert table[("aa", "bb")]["tgt_ngram_overlap"] == 1.0

    def test_distances_attached(self):
        corpora = self.make_corpora()
        distances = {
            key: {name: 0.5 for name in ("geographic", "genetic", "inventory",
                                         "syntactic", "phonological")}
            for key in (("aa", "bb"), ("aa", "cc"), ("bb", "cc"))
        }
        table = rows_by_name(*pair_features_table(corpora, vocab_size=20,
                                                  distances=distances))
        assert table[("aa", "bb")]["genetic"] == 0.5

    def test_missing_distance_pair_raises(self):
        corpora = self.make_corpora()
        with pytest.raises(IncompleteTableError):
            pair_features_table(corpora, vocab_size=20, distances={})

    @pytest.mark.parametrize("with_distances", [False, True], ids=["dataset", "distances"])
    def test_rows_are_the_feature_functions_bit_for_bit(self, with_distances):
        rng = np.random.default_rng(13)
        pool = [[int(t) for t in rng.integers(3, 20, size=rng.integers(2, 6))]
                for _ in range(8)]
        corpora = {}
        for lang in ("dd", "aa", "cc", "bb"):  # out of order: the output is sorted
            targets = [pool[i] for i in rng.choice(8, size=rng.integers(3, 8), replace=False)]
            sources = [[int(t) for t in rng.integers(3, 20, size=4)] for _ in targets]
            corpora[lang] = corpus(lang, sources, targets)
        langs = sorted(corpora)
        expected_pairs = [(a, b) for i, a in enumerate(langs) for b in langs[i + 1:]]
        distances = None
        if with_distances:
            distances = {pair: dict(zip(LINGUISTIC_FEATURES, rng.uniform(0, 1, size=5)))
                         for pair in expected_pairs}
        pairs, x, names = pair_features_table(corpora, 20, distances)
        assert pairs == expected_pairs
        assert names == DATASET_FEATURES + (LINGUISTIC_FEATURES if with_distances else ())
        assert x.dtype == np.float64 and x.shape == (len(pairs), len(names))
        raw = [tgt_ngram_overlap(corpora[a], corpora[b]) for a, b in pairs]
        lo, hi = min(raw), max(raw)
        assert hi > lo
        for (a, b), row, overlap in zip(pairs, x, raw):
            c1, c2 = corpora[a], corpora[b]
            expected = [size_ratio(c1, c2), vocab_occupancy_ratio(c1, c2, 20),
                        src_subword_overlap(c1, c2), multi_parallel_overlap(c1, c2),
                        (overlap - lo) / (hi - lo)]
            if with_distances:
                expected += [distances[(a, b)][f] for f in LINGUISTIC_FEATURES]
            assert row.tobytes() == np.array(expected, dtype=np.float64).tobytes()


def synthetic_pairs(rng, n_langs, coef=None, noise=0.0, targets=None):
    """Random features per language pair with an optional linear target.

    Returns ``(pairs, x, y, names)``, predict_xsim_loo's inputs, and the languages.
    """
    langs = [f"l{i}" for i in range(n_langs)]
    pairs, rows, ys = [], [], []
    idx = 0
    for i in range(n_langs):
        for j in range(i + 1, n_langs):
            x = rng.uniform(0, 1, size=5)
            if targets is not None:
                y = targets[idx]
            else:
                y = float(x @ coef + noise * rng.normal())
            pairs.append((langs[i], langs[j]))
            rows.append(x)
            ys.append(y)
            idx += 1
    return (pairs, np.array(rows).reshape(-1, 5), np.array(ys), DATASET_FEATURES), langs


class TestLooRegression:
    def test_exact_linear_targets_recovered(self):
        rng = np.random.default_rng(2)
        coef = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
        table, langs = synthetic_pairs(rng, 8, coef=coef)
        report = predict_xsim_loo(*table)
        assert report.mean_mae < 1e-8
        assert len(report.fold_mae) == 8

    def test_noise_targets_match_analytic_mae(self):
        # mean prediction of U(0,1) targets gives E|U - 0.5| = 0.25
        rng = np.random.default_rng(3)
        n_pairs = 12 * 11 // 2
        table, langs = synthetic_pairs(rng, 12,
                                       targets=rng.uniform(0, 1, size=n_pairs))
        report = predict_xsim_loo(*table)
        assert 0.25 * 0.8 < report.mean_mae < 0.25 * 1.2

    def test_fold_count_equals_language_count(self):
        rng = np.random.default_rng(4)
        table, langs = synthetic_pairs(rng, 5, coef=np.ones(5))
        report = predict_xsim_loo(*table)
        assert report.fold_langs == tuple(langs)
        assert len(report.fold_mae) == len(langs)

    def test_too_few_languages(self):
        rng = np.random.default_rng(5)
        table, langs = synthetic_pairs(rng, 2, coef=np.ones(5))
        with pytest.raises(InsufficientDataError):
            predict_xsim_loo(*table)

    def test_loo_folds_partition_pairs(self):
        rng = np.random.default_rng(7)
        (pairs, _, _, _), langs = synthetic_pairs(rng, 6, coef=np.ones(5))
        seen = {i: 0 for i in range(len(pairs))}
        for held_out in langs:
            test_idx = [i for i, pair in enumerate(pairs) if held_out in pair]
            train_idx = [i for i in range(len(pairs)) if i not in set(test_idx)]
            assert not set(test_idx) & set(train_idx)
            for i in train_idx:
                assert held_out not in pairs[i]
            for i in test_idx:
                seen[i] += 1
        assert all(count == 2 for count in seen.values())


class TestPermutationImportance:
    def fit_on(self, x, y, names):
        return fit_linear(x, y, names)

    def test_constant_column_importance_exactly_zero(self):
        rng = np.random.default_rng(8)
        x = np.hstack([rng.uniform(0, 1, size=(40, 1)), np.full((40, 1), 0.7)])
        y = 2.0 * x[:, 0]
        model = self.fit_on(x, y, ["live", "constant"])
        importances = permutation_importance(model, x, y, n_shuffles=20, seed=0)
        assert importances["constant"] == (0.0, 0.0)

    def test_informative_feature_separates_from_inert(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, size=(60, 2))
        y = 3.0 * x[:, 0]  # depends only on the first column
        model = self.fit_on(x, y, ["informative", "inert"])
        imp = permutation_importance(model, x, y, n_shuffles=50, seed=1)
        info_mean, info_std = imp["informative"]
        inert_mean, inert_std = imp["inert"]
        assert info_mean - 2 * info_std > inert_mean + 2 * inert_std

    def test_duplicated_columns_share_importance(self):
        rng = np.random.default_rng(10)
        col = rng.uniform(0, 1, size=(60, 1))
        y = 3.0 * col[:, 0]
        single = fit_linear(col, y, ["only"])
        single_imp = permutation_importance(single, col, y, 50, seed=2)["only"][0]
        dup_x = np.hstack([col, col])
        with pytest.raises(SingularSystemError):
            fit_linear(dup_x, y, ["a", "b"])
        dup = fit_linear(dup_x, y, ["a", "b"], ridge=1e-8)
        dup_imp = permutation_importance(dup, dup_x, y, 50, seed=2)
        assert dup_imp["a"][0] < single_imp
        assert dup_imp["b"][0] < single_imp

    def test_bit_reproducible_with_fixed_seed(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, size=(30, 3))
        y = x @ np.array([1.0, -2.0, 0.5])
        model = fit_linear(x, y, ["a", "b", "c"])
        first = permutation_importance(model, x, y, n_shuffles=10, seed=42)
        second = permutation_importance(model, x, y, n_shuffles=10, seed=42)
        assert first == second

    def test_empty_validation_set(self):
        model = LinearModel(np.array([1.0]), 0.0, ("a",))
        with pytest.raises(EmptyInputError):
            permutation_importance(model, np.zeros((0, 1)), np.zeros(0))


class TestDistanceTable:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "dist.tsv"
        path.write_text("aa\tbb\t0.1\t0.2\t0.3\t0.4\t0.5\n")
        table = load_distance_table(path)
        assert table[("aa", "bb")]["syntactic"] == 0.4

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "dist.tsv"
        path.write_text("aa\tbb\t0.1\t0.2\t1.3\t0.4\t0.5\n")
        with pytest.raises(ValueError):
            load_distance_table(path)

    def test_pair_in_both_orders_rejected(self, tmp_path):
        path = tmp_path / "dist.tsv"
        path.write_text("aa\tbb\t0.1\t0.2\t0.3\t0.4\t0.5\n"
                        "bb\taa\t0.5\t0.4\t0.3\t0.2\t0.1\n")
        with pytest.raises(ValueError) as exc:
            load_distance_table(path)
        assert repr("bb\taa\t0.5\t0.4\t0.3\t0.2\t0.1") in str(exc.value)  # names the row

