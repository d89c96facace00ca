import math

import numpy as np
import pytest

from knnmt.errors import (
    DimensionMismatchError,
    EmptyInputError,
    UndefinedReferenceError,
)
from knnmt.mteval import bleu


def toks(text):
    return text.split()


class TestBleu:
    def test_identity_scores_one(self):
        refs = [toks("the cat sat on the mat"), toks("a quick brown fox jumps")]
        result = bleu(refs, refs)
        assert result.score == 1.0
        assert result.brevity_penalty == 1.0
        assert result.precisions == (1.0, 1.0, 1.0, 1.0)

    def test_clipped_unigram_hand_case(self):
        # "the" appears twice in the reference, so 7 hypothesis copies clip to 2
        result = bleu([toks("the the the the the the the")],
                      [toks("the cat is on the mat")], smoothing="none")
        assert result.precisions[0] == 2 / 7

    def test_no_overlap_unsmoothed_is_zero(self):
        result = bleu([toks("aa bb cc dd")], [toks("ee ff gg hh")],
                      smoothing="none")
        assert result.score == 0.0

    def test_exp_smoothing_halves_per_zero_order(self):
        # unigrams all match; no bigram/trigram/4-gram matches
        hyp = toks("a b c d e")
        ref = toks("a c b e d")
        result = bleu([hyp], [ref], smoothing="exp")
        assert result.precisions[0] == 1.0
        assert result.precisions[1] == 1.0 / (2 * 4)
        assert result.precisions[2] == 1.0 / (4 * 3)
        assert result.precisions[3] == 1.0 / (8 * 2)
        assert result.score > 0.0

    def test_brevity_penalty_hand_cases(self):
        equal = bleu([toks("a b c d")], [toks("a b c d")])
        assert equal.brevity_penalty == 1.0
        longer = bleu([toks("a b c d e f")], [toks("a b c d")])
        assert longer.brevity_penalty == 1.0
        shorter = bleu([toks("a b c d e")], [toks("a b c d e f g h i j")])
        assert shorter.brevity_penalty == math.exp(1.0 - 10 / 5)

    def test_brevity_penalty_nine_tenths(self):
        result = bleu([toks("a b c d e f g h i")],
                      [toks("a b c d e f g h i j")])
        assert result.brevity_penalty == math.exp(1.0 - 10 / 9)

    def test_corpus_permutation_invariance(self):
        rng = np.random.default_rng(0)
        vocab = "abcdefgh"
        hyps = [[rng.choice(list(vocab)) for _ in range(rng.integers(4, 9))]
                for _ in range(12)]
        refs = [[rng.choice(list(vocab)) for _ in range(rng.integers(4, 9))]
                for _ in range(12)]
        base = bleu(hyps, refs)
        perm = rng.permutation(12)
        shuffled = bleu([hyps[i] for i in perm], [refs[i] for i in perm])
        assert shuffled.score == base.score
        assert shuffled.precisions == base.precisions

    def test_appending_perfect_pair_never_decreases(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            hyps = [[str(t) for t in rng.integers(0, 6, size=rng.integers(4, 9))]
                    for _ in range(5)]
            refs = [[str(t) for t in rng.integers(0, 6, size=rng.integers(4, 9))]
                    for _ in range(5)]
            perfect = [str(t) for t in rng.integers(0, 6, size=6)]
            before = bleu(hyps, refs).score
            after = bleu(hyps + [perfect], refs + [perfect]).score
            assert after >= before

    def test_repeating_token_beyond_clip_never_helps(self):
        hyp = toks("the cat sat")
        ref = toks("the cat sat down")
        base = bleu([hyp], [ref])
        padded = bleu([hyp + ["the"]], [ref])
        assert padded.precisions[0] < base.precisions[0]

    def test_score_bounds_and_bp_relation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            hyps = [[str(t) for t in rng.integers(0, 8, size=rng.integers(4, 10))]
                    for _ in range(4)]
            refs = [[str(t) for t in rng.integers(0, 8, size=rng.integers(4, 10))]
                    for _ in range(4)]
            result = bleu(hyps, refs)
            assert 0.0 <= result.score <= 1.0
            assert (result.brevity_penalty == 1.0) == \
                (result.hyp_len >= result.ref_len)

    def test_works_on_token_ids(self):
        result = bleu([[5, 6, 7, 8]], [[5, 6, 7, 8]])
        assert result.score == 1.0

    def test_empty_hypothesis_list(self):
        with pytest.raises(EmptyInputError):
            bleu([], [])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            bleu([toks("a b")], [])

    def test_empty_reference_sentence(self):
        with pytest.raises(UndefinedReferenceError):
            bleu([toks("a b")], [[]])

    def test_unknown_smoothing(self):
        with pytest.raises(ValueError):
            bleu([toks("a b")], [toks("a b")], smoothing="floor")
