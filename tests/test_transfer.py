import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmt.errors import (
    DimensionMismatchError,
    IncompleteTableError,
    InsufficientDataError,
    NoOverlapError,
)
from knnmt.transfer import (
    BleuTable,
    ContextDumpSet,
    SimilarityMatrix,
    _row_cosines,
    _sentence_means,
    rtp,
    similarity_matrix,
    spearman,
    xsim,
)
from knnmt.vecstore import make_records


def cosine(a, b):
    """Reference cosine, one pair at a time; 0.0 when either vector is all-zero."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def reference_xsim(dumps, lang1, lang2):
    """xsim as one cosine call per shared context and one np.mean per sentence."""
    keys1, vecs1 = dumps.contexts(lang1)
    keys2, vecs2 = dumps.contexts(lang2)
    shared, idx1, idx2 = np.intersect1d(keys1, keys2, assume_unique=True,
                                        return_indices=True)
    rows1 = vecs1[idx1].astype(np.float64)
    rows2 = vecs2[idx2].astype(np.float64)
    sims = np.array([cosine(a, b) for a, b in zip(rows1, rows2)])
    sentence = shared >> 16
    starts = np.flatnonzero(sentence[1:] != sentence[:-1]) + 1
    means = [float(np.mean(part)) for part in np.split(sims, starts)]
    return sims, np.array(means), float(np.mean(means))


def dump_from_arrays(dim, per_lang):
    """per_lang: lang -> {sentence_id: list of vectors (by timestep)}."""
    dumps = ContextDumpSet(dim)
    for lang, sentences in per_lang.items():
        cells = [(sid, t, vec) for sid, rows in sentences.items()
                 for t, vec in enumerate(rows)]
        sids, timesteps, vectors = zip(*cells)
        dumps.add_records(lang, make_records(vectors, 0, sids, timesteps))
    return dumps


class TestXsim:
    def test_identical_dumps_give_one(self):
        rng = np.random.default_rng(0)
        rows = {sid: [rng.normal(size=6) for _ in range(4)] for sid in range(5)}
        dumps = dump_from_arrays(6, {"aa": rows, "bb": rows})
        assert xsim(dumps, "aa", "bb") == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_vectors_give_zero(self):
        a = {0: [[1.0, 0.0], [0.0, 1.0]]}
        b = {0: [[0.0, 1.0], [1.0, 0.0]]}
        dumps = dump_from_arrays(2, {"aa": a, "bb": b})
        assert xsim(dumps, "aa", "bb") == 0.0

    def test_hand_average_of_two_timesteps(self):
        # cosines 1.0 and 0.0 average to 0.5
        a = {0: [[1.0, 0.0], [1.0, 0.0]]}
        b = {0: [[1.0, 0.0], [0.0, 1.0]]}
        dumps = dump_from_arrays(2, {"aa": a, "bb": b})
        assert xsim(dumps, "aa", "bb") == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = {sid: [rng.normal(size=5) for _ in range(3)] for sid in range(6)}
        b = {sid: [rng.normal(size=5) for _ in range(3)] for sid in range(6)}
        dumps = dump_from_arrays(5, {"aa": a, "bb": b})
        assert xsim(dumps, "aa", "bb") == xsim(dumps, "bb", "aa")

    def test_power_of_two_scaling_is_exactly_invariant(self):
        rng = np.random.default_rng(2)
        a = {sid: [rng.normal(size=5) for _ in range(3)] for sid in range(4)}
        b = {sid: [rng.normal(size=5) for _ in range(3)] for sid in range(4)}
        scaled = {sid: [np.asarray(v) * 4.0 for v in rows]
                  for sid, rows in a.items()}
        d1 = dump_from_arrays(5, {"aa": a, "bb": b})
        d2 = dump_from_arrays(5, {"aa": scaled, "bb": b})
        assert xsim(d1, "aa", "bb") == xsim(d2, "aa", "bb")

    def test_general_scaling_invariant_within_tolerance(self):
        rng = np.random.default_rng(3)
        a = {sid: [rng.normal(size=5) for _ in range(3)] for sid in range(4)}
        b = {sid: [rng.normal(size=5) for _ in range(3)] for sid in range(4)}
        scaled = {sid: [np.asarray(v) * 3.7 for v in rows]
                  for sid, rows in a.items()}
        d1 = dump_from_arrays(5, {"aa": a, "bb": b})
        d2 = dump_from_arrays(5, {"aa": scaled, "bb": b})
        # f32 dump storage quantizes non-power-of-two scalings
        assert xsim(d1, "aa", "bb") == pytest.approx(xsim(d2, "aa", "bb"),
                                                     abs=1e-6)

    def test_zero_vector_contributes_zero(self):
        a = {0: [[0.0, 0.0]]}
        b = {0: [[1.0, 0.0]]}
        dumps = dump_from_arrays(2, {"aa": a, "bb": b})
        assert xsim(dumps, "aa", "bb") == 0.0

    def test_pairs_by_timestep_value_not_position(self):
        dumps = ContextDumpSet(2)
        # aa has timesteps {0, 1}; bb only {1}: the pair must use t=1 of both
        dumps.add_records("aa", make_records([[1.0, 0.0], [0.0, 1.0]], 0, 0, [0, 1]))
        dumps.add_records("bb", make_records([[0.0, 1.0]], 0, 0, [1]))
        assert xsim(dumps, "aa", "bb") == pytest.approx(1.0, abs=1e-9)

    def test_no_shared_sentences(self):
        a = {0: [[1.0, 0.0]]}
        b = {1: [[1.0, 0.0]]}
        dumps = dump_from_arrays(2, {"aa": a, "bb": b})
        with pytest.raises(NoOverlapError):
            xsim(dumps, "aa", "bb")

    def test_duplicate_context_keeps_last_record(self):
        dumps = ContextDumpSet(2)
        dumps.add_records("aa", make_records([[0.0, 1.0], [1.0, 0.0]], 0, 0, [0, 0]))
        dumps.add_records("bb", make_records([[1.0, 0.0]], 0, 0, [0]))
        assert xsim(dumps, "aa", "bb") == 1.0

    def test_duplicate_across_add_calls_raises(self):
        dumps = ContextDumpSet(2)
        dumps.add_records("aa", make_records([[1.0, 0.0], [1.0, 0.0]], 0, 0, [0, 1]))
        with pytest.raises(ValueError, match="duplicate dump for language 'aa'"):
            dumps.add_records("aa", make_records([[0.0, 1.0]], 0, 0, [1]))
        dumps.add_records("bb", make_records([[1.0, 0.0], [1.0, 0.0]], 0, 0, [0, 1]))
        # the first add stands unchanged
        assert xsim(dumps, "aa", "bb") == 1.0

    def test_wrong_dimension_rejected(self):
        dumps = ContextDumpSet(2)
        with pytest.raises(DimensionMismatchError):
            dumps.add_records("aa", make_records([[1.0, 0.0, 0.0]], 0, 0, [0]))

    def test_missing_language(self):
        dumps = dump_from_arrays(2, {"aa": {0: [[1.0, 0.0]]}})
        with pytest.raises(ValueError):
            xsim(dumps, "aa", "zz")

    def test_contexts_are_gathered_once_and_read_only(self):
        dumps = ContextDumpSet(2)
        # sentence 1 before sentence 0, and timestep 0 of sentence 0 twice
        dumps.add_records("aa", make_records([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]],
                                             0, [1, 0, 0, 0], [0, 1, 0, 0]))
        keys, vecs = dumps.contexts("aa")
        assert keys.tolist() == [(0 << 16) | 0, (0 << 16) | 1, (1 << 16) | 0]
        assert vecs.dtype == np.float32
        assert vecs.tolist() == [[7.0, 8.0], [3.0, 4.0], [1.0, 2.0]]  # the last record wins
        again = dumps.contexts("aa")
        assert again[0] is keys and again[1] is vecs
        assert not keys.flags.writeable and not vecs.flags.writeable
        with pytest.raises(ValueError):
            vecs[0, 0] = 0.0


@st.composite
def oracle_dumps(draw):
    """Two languages' dumps over sentences of 1 to 300 timesteps, with all-zero rows.

    Sentence lengths cross numpy's 8-wide summation unroll and its 128-element
    pairwise block; bb drops some of aa's timesteps, so the shared lengths vary.
    """
    dim = draw(st.sampled_from([1, 2, 3, 8, 17, 64]))
    lengths = draw(st.lists(st.one_of(st.integers(1, 9), st.integers(120, 300)),
                            min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**32 - 1))
    zero_share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    rng = np.random.default_rng(seed)
    sids = np.repeat(np.arange(len(lengths)) * 3, lengths)
    ts = np.concatenate([np.arange(n) for n in lengths])
    vecs = {}
    for lang in ("aa", "bb"):
        v = rng.normal(size=(ts.size, dim)).astype(np.float32)
        v[rng.random(ts.size) < zero_share] = 0.0
        vecs[lang] = v
    kept = rng.random(ts.size) < 0.9
    kept[np.flatnonzero(np.append(True, sids[1:] != sids[:-1]))] = True  # every sentence shared
    dumps = ContextDumpSet(dim)
    dumps.add_records("aa", make_records(vecs["aa"], 0, sids, ts))
    dumps.add_records("bb", make_records(vecs["bb"][kept], 0, sids[kept], ts[kept]))
    return dumps


class TestXsimOracle:
    @given(oracle_dumps())
    @settings(max_examples=60, deadline=None)
    def test_every_cosine_mean_and_result_bit_for_bit(self, dumps):
        sims, means, value = reference_xsim(dumps, "aa", "bb")
        keys1, vecs1 = dumps.contexts("aa")
        keys2, vecs2 = dumps.contexts("bb")
        shared, idx1, idx2 = np.intersect1d(keys1, keys2, assume_unique=True,
                                            return_indices=True)
        got = _row_cosines(vecs1[idx1].astype(np.float64), vecs2[idx2].astype(np.float64))
        assert got.tobytes() == sims.tobytes()
        assert _sentence_means(got, shared >> 16).tobytes() == means.tobytes()
        result = xsim(dumps, "aa", "bb")
        assert type(result) is float
        assert np.float64(result).tobytes() == np.float64(value).tobytes()

    def test_zero_rows_in_either_language_and_single_timesteps(self):
        dumps = ContextDumpSet(3)
        vecs = [[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [0.5, 0.0, -1.0], [3.0, 0.0, 4.0]]
        dumps.add_records("aa", make_records(vecs, 0, [0, 1, 2, 2], [0, 0, 0, 1]))
        dumps.add_records("bb", make_records(vecs[::-1], 0, [0, 1, 2, 2], [0, 0, 0, 1]))
        sims, means, value = reference_xsim(dumps, "aa", "bb")
        assert sims[0] == 0.0 and sims[3] == 0.0  # an all-zero row on either side
        assert xsim(dumps, "aa", "bb") == value
        assert _sentence_means(sims, np.array([0, 1, 2, 2])).tobytes() == means.tobytes()

    def test_every_run_length_up_to_300(self):
        rng = np.random.default_rng(11)
        lengths = np.arange(1, 301)
        values = rng.normal(size=lengths.sum())
        sentence = np.repeat(np.arange(lengths.size), lengths)
        starts = np.cumsum(lengths)[:-1]
        want = np.array([float(np.mean(part)) for part in np.split(values, starts)])
        assert _sentence_means(values, sentence).tobytes() == want.tobytes()


class TestSimilarityMatrix:
    def test_builder_sets_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(4)
        per_lang = {
            lang: {sid: [rng.normal(size=4) for _ in range(3)] for sid in range(5)}
            for lang in ("aa", "bb", "cc")
        }
        sims = similarity_matrix(dump_from_arrays(4, per_lang))
        assert sims.value("aa", "aa") == 1.0
        assert sims.value("aa", "bb") == sims.value("bb", "aa")

    def test_same_matrix_whatever_the_order_languages_are_added(self):
        rng = np.random.default_rng(6)
        per_lang = {
            lang: {sid: [rng.normal(size=4) for _ in range(3)] for sid in range(5)}
            for lang in ("aa", "bb", "cc", "dd")
        }
        forward = similarity_matrix(dump_from_arrays(4, per_lang))
        backward = similarity_matrix(dump_from_arrays(
            4, {lang: per_lang[lang] for lang in ("dd", "bb", "aa", "cc")}))
        assert forward.langs == backward.langs == ("aa", "bb", "cc", "dd")
        assert forward.values.tobytes() == backward.values.tobytes()

    def test_validation_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            SimilarityMatrix(("aa", "bb"),
                             np.array([[1.0, 0.2], [0.3, 1.0]]))

    def test_lookup_missing_pair(self):
        sims = SimilarityMatrix(("aa",), np.array([[1.0]]))
        with pytest.raises(IncompleteTableError):
            sims.value("aa", "zz")


def two_lang_sims(value):
    return SimilarityMatrix(("aa", "bb"),
                            np.array([[1.0, value], [value, 1.0]]))


class TestRtp:
    def test_zero_deltas_give_zero(self):
        sims = two_lang_sims(0.7)
        table = BleuTable({"aa": (0.3, 0.3), "bb": (0.3, 0.35)})
        assert rtp("aa", sims, table, ["aa", "bb"], pivot="en") == 0.0

    def test_single_donor_equals_xsim(self):
        sims = two_lang_sims(0.642)
        table = BleuTable({"aa": (0.2, 0.3), "bb": (0.5, 0.5)})
        # one comparison language: the normalizer cancels the delta
        assert rtp("aa", sims, table, ["aa", "bb"], pivot="en") == \
            pytest.approx(0.642, abs=1e-12)

    def test_sign_tracks_gain_and_loss(self):
        langs = ("aa", "bb", "cc")
        values = np.array([[1.0, 0.8, 0.6], [0.8, 1.0, 0.5], [0.6, 0.5, 1.0]])
        sims = SimilarityMatrix(langs, values)
        gains = BleuTable({"aa": (0.10, 0.2), "bb": (0.40, 0.4), "cc": (0.35, 0.3)})
        losses = BleuTable({"aa": (0.50, 0.4), "bb": (0.20, 0.2), "cc": (0.15, 0.1)})
        assert rtp("aa", sims, gains, langs, pivot="en") > 0
        assert rtp("aa", sims, losses, langs, pivot="en") < 0

    def test_pivot_excluded_from_sum(self):
        langs = ("aa", "bb", "en")
        values = np.array([[1.0, 0.8, 0.9], [0.8, 1.0, 0.9], [0.9, 0.9, 1.0]])
        sims = SimilarityMatrix(langs, values)
        table = BleuTable({"aa": (0.2, 0.2), "bb": (0.6, 0.6), "en": (0.9, 0.9)})
        # only bb contributes; the en column must not be touched
        assert rtp("aa", sims, table, langs, pivot="en") == \
            pytest.approx(0.8, abs=1e-12)

    def test_order_of_languages_does_not_matter(self):
        langs = ("aa", "bb", "cc", "dd")
        rng = np.random.default_rng(5)
        base = rng.uniform(0.1, 0.9, size=(4, 4))
        values = (base + base.T) / 2
        np.fill_diagonal(values, 1.0)
        sims = SimilarityMatrix(langs, values)
        table = BleuTable({lang: (float(rng.uniform(0.1, 0.6)), 0.5)
                           for lang in langs})
        forward = rtp("aa", sims, table, ["aa", "bb", "cc", "dd"], pivot="en")
        shuffled = rtp("aa", sims, table, ["dd", "bb", "aa", "cc"], pivot="en")
        assert forward == shuffled

    def test_missing_scores_raise(self):
        sims = two_lang_sims(0.5)
        table = BleuTable({"aa": (0.2, 0.2)})
        with pytest.raises(IncompleteTableError):
            rtp("aa", sims, table, ["aa", "bb"], pivot="en")


class TestBleuTable:
    def test_from_file_and_scale(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("#scale=percent\naa\t21.5\t24.0\nbb\t30.0\t29.1\n")
        table = BleuTable.from_file(path)
        assert table.scale == "percent"
        assert table.bilingual("aa") == 21.5
        assert table.multilingual_gain("bb") == pytest.approx(-0.9)

    def test_missing_scale_header(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("aa\t21.5\t24.0\n")
        with pytest.raises(ValueError):
            BleuTable.from_file(path)

    def test_out_of_range_scores(self):
        with pytest.raises(ValueError):
            BleuTable({"aa": (1.5, 0.3)}, scale="unit")

    def test_second_row_for_a_language_rejected(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("#scale=unit\naa\t0.2\t0.3\nbb\t0.1\t0.1\naa\t0.4\t0.3\n")
        with pytest.raises(ValueError) as exc:
            BleuTable.from_file(path)
        assert repr("aa\t0.4\t0.3") in str(exc.value)  # names the row

    def test_second_scale_header_rejected(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("#scale=unit\naa\t0.2\t0.3\n#scale=percent\n")
        with pytest.raises(ValueError, match="#scale=percent"):
            BleuTable.from_file(path)


class TestSpearman:
    def test_perfect_agreement(self):
        rho, n = spearman([1.0, 2.0, 5.0, 9.0], [0.1, 0.4, 0.5, 3.0])
        assert rho == pytest.approx(1.0)
        assert n == 4

    def test_perfect_reversal(self):
        rho, _ = spearman([1.0, 2.0, 3.0], [9.0, 5.0, 1.0])
        assert rho == pytest.approx(-1.0)

    def test_hand_rank_case(self):
        rho, _ = spearman([1.0, 2.0, 3.0], [2.0, 1.0, 3.0])
        assert rho == pytest.approx(0.5, abs=1e-12)

    def test_average_ranks_for_ties(self):
        rho, _ = spearman([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert rho == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    @given(st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=30, unique=True),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_monotone_transform(self, xs, seed):
        rng = np.random.default_rng(seed)
        ys = rng.normal(size=len(xs)).tolist()
        base, _ = spearman(xs, ys)
        # scaling up by a power of two is exact for every float in range
        # (scaling down can underflow denormals into ties)
        transformed, _ = spearman([x * 4.0 for x in xs], ys)
        assert transformed == base

    def test_invariant_under_cubing(self):
        xs = [-3.0, -1.0, 0.0, 2.0, 5.0]
        ys = [0.3, -1.2, 0.8, 2.0, -0.5]
        assert spearman(xs, ys) == spearman([x ** 3 for x in xs], ys)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            spearman([1.0, 2.0], [2.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            spearman([1.0, 2.0, 3.0], [1.0, 2.0])


class TestCosine:
    def test_zero_vector_defined_as_zero(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0
