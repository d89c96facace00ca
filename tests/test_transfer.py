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
    cosine,
    rtp,
    similarity_matrix,
    spearman,
    xsim,
    xsim_loss,
)
from knnmt.vecstore import make_records


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

    def test_harmonic_flag_keeps_literal_weighting(self):
        a = {0: [[1.0, 0.0], [1.0, 0.0]]}
        b = {0: [[1.0, 0.0], [0.0, 1.0]]}
        dumps = dump_from_arrays(2, {"aa": a, "bb": b})
        # literal reading: 1/1 * 1.0 + 1/2 * 0.0
        assert xsim(dumps, "aa", "bb", harmonic_weights=True) == \
            pytest.approx(1.0, abs=1e-12)

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

    def test_duplicate_across_add_calls_keeps_last_record(self):
        dumps = ContextDumpSet(2)
        dumps.add_records("aa", make_records([[1.0, 0.0], [1.0, 0.0]], 0, 0, [0, 1]))
        dumps.add_records("aa", make_records([[0.0, 1.0]], 0, 0, [1]))
        dumps.add_records("bb", make_records([[1.0, 0.0], [1.0, 0.0]], 0, 0, [0, 1]))
        # t=0 keeps its first vector (cosine 1); t=1 takes the later one (cosine 0)
        assert xsim(dumps, "aa", "bb") == 0.5

    def test_wrong_dimension_rejected(self):
        dumps = ContextDumpSet(2)
        with pytest.raises(DimensionMismatchError):
            dumps.add_records("aa", make_records([[1.0, 0.0, 0.0]], 0, 0, [0]))

    def test_missing_language(self):
        dumps = dump_from_arrays(2, {"aa": {0: [[1.0, 0.0]]}})
        with pytest.raises(ValueError):
            xsim(dumps, "aa", "zz")


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


class TestXsimLoss:
    def test_identical_batches_sum_to_row_count(self):
        rng = np.random.default_rng(6)
        batch = rng.normal(size=(7, 4))
        assert xsim_loss(batch, batch.copy()) == pytest.approx(7.0, abs=1e-9)

    def test_orthogonal_rows_give_zero(self):
        c1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        c2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert xsim_loss(c1, c2) == 0.0

    def test_centering_hand_case(self):
        # batch mean is (0.5, 0.5); centered rows become opposites
        c1 = np.array([[1.0, 0.0], [1.0, 0.0]])
        c2 = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert xsim_loss(c1, c2, center=False) == 0.0
        assert xsim_loss(c1, c2, center=True) == pytest.approx(-2.0, abs=1e-12)

    def test_centered_value_shift_invariant(self):
        rng = np.random.default_rng(7)
        c1 = rng.normal(size=(5, 4))
        c2 = rng.normal(size=(5, 4))
        shift = rng.normal(size=4) * 10
        base = xsim_loss(c1, c2, center=True)
        shifted = xsim_loss(c1 + shift, c2 + shift, center=True)
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            xsim_loss(np.zeros((3, 2)), np.zeros((2, 2)))


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
