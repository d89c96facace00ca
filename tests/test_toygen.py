import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmt import cli
from knnmt.corpus import RESERVED_TOKENS
from knnmt.features import LINGUISTIC_FEATURES
from knnmt.toygen import ToySpec, generate


def reference_generate(spec):
    """generate as it sampled with one rng.choice(p=...) per token: the oracle."""
    rng = np.random.default_rng(spec.seed)
    words = [f"w{i:03d}" for i in range(spec.n_words)]
    transitions = rng.dirichlet(np.full(spec.n_words, 0.1), size=spec.n_words)

    def sample_sentences(count):
        lengths = rng.integers(spec.min_len, spec.max_len + 1, size=count)
        sentences = []
        for n in lengths:
            state = int(rng.integers(0, spec.n_words))
            sent = [words[state]]
            for _ in range(int(n) - 1):
                state = int(rng.choice(spec.n_words, p=transitions[state]))
                sent.append(words[state])
            sentences.append(sent)
        return sentences

    target_pool = sample_sentences(spec.n_train)
    test_pool = sample_sentences(spec.n_test)
    permutations = {
        lang: {words[i]: words[j]
               for i, j in enumerate(rng.permutation(spec.n_words))}
        for lang in spec.langs
    }

    def render(lang, target):
        table = permutations[lang]
        return [table[w] for w in target]

    n_covered = max(1, int(round(spec.coverage * spec.n_train)))
    train = {}
    test = {}
    for lang in spec.langs:
        if n_covered < spec.n_train:
            picked = sorted(rng.choice(spec.n_train, size=n_covered, replace=False))
        else:
            picked = range(spec.n_train)
        train[lang] = [(render(lang, target_pool[i]), list(target_pool[i]))
                       for i in picked]
        test[lang] = [(render(lang, t), list(t)) for t in test_pool]

    bleu_rows = {}
    for lang in spec.langs:
        bilingual = float(np.clip(rng.normal(0.25, 0.08), 0.02, 0.9))
        multilingual = float(np.clip(bilingual + rng.normal(0.02, 0.05), 0.01, 0.95))
        bleu_rows[lang] = (bilingual, multilingual)
    distance_rows = {}
    ordered = sorted(spec.langs)
    for i, l1 in enumerate(ordered):
        for l2 in ordered[i + 1:]:
            distance_rows[(l1, l2)] = {
                name: float(rng.uniform(0.0, 1.0)) for name in LINGUISTIC_FEATURES
            }
    return words, train, test, bleu_rows, distance_rows


def assert_same_data(spec):
    words, train, test, bleu_rows, distance_rows = reference_generate(spec)
    data = generate(spec)
    assert data.spec == spec
    assert data.vocab.tokens == [*RESERVED_TOKENS, *words]
    assert data.train == train
    assert data.test == test
    # drawn after sampling: equal only if sampling left the stream where choice did
    assert data.bleu_rows == bleu_rows
    assert data.distance_rows == distance_rows


class TestToySpec:
    @pytest.mark.parametrize("field, value", [
        ("n_train", 0),
        ("n_words", 0),
        ("n_test", -1),
        ("coverage", 0.0),
        ("coverage", 1.5),
        ("min_len", 0),
        ("max_len", 2),  # below the default min_len of 3
    ])
    def test_bad_field_raises_at_construction(self, field, value):
        with pytest.raises(ValueError):
            ToySpec(langs=("aa",), **{field: value})

    def test_edge_values_construct_and_generate(self):
        spec = ToySpec(langs=("aa",), n_train=1, n_test=0, n_words=1, min_len=1,
                       max_len=1, coverage=1.0)
        data = generate(spec)
        assert len(data.train["aa"]) == 1 and data.test["aa"] == []


class TestSamplingOracle:
    @given(seed=st.integers(0, 2**32 - 1), n_words=st.integers(1, 300),
           n_train=st.integers(1, 40), n_test=st.integers(0, 5),
           lens=st.tuples(st.integers(1, 12), st.integers(0, 6)),
           coverage=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
           langs=st.sampled_from([("aa",), ("aa", "bb"), ("cc", "aa", "bb")]))
    @settings(max_examples=300, deadline=None)
    def test_same_data_as_per_token_choice(self, seed, n_words, n_train, n_test,
                                           lens, coverage, langs):
        min_len, extra = lens
        assert_same_data(ToySpec(langs=langs, n_train=n_train, n_test=n_test,
                                 n_words=n_words, min_len=min_len, max_len=min_len + extra,
                                 coverage=coverage, seed=seed))

    @pytest.mark.parametrize("n_words", [1, 2, 300])
    @pytest.mark.parametrize("length", [1, 2, 9])
    def test_fixed_lengths_and_vocabulary_extremes(self, n_words, length):
        assert_same_data(ToySpec(langs=("aa", "bb"), n_train=25, n_test=0, n_words=n_words,
                                 min_len=length, max_len=length, coverage=0.6, seed=11))

    def test_gen_toy_bytes_pinned(self, tmp_path):
        # digest of these gen-toy files as written with per-token rng.choice
        out = tmp_path / "toy"
        assert cli.main(["gen-toy", "--out", str(out), "--langs", "aa,bb,cc",
                         "--sentences", "40", "--test", "6", "--words", "30",
                         "--min-len", "1", "--max-len", "7", "--coverage", "0.8",
                         "--seed", "7"]) == 0
        h = hashlib.blake2b(digest_size=16)
        names = sorted(p.name for p in out.iterdir() if p.name != "gen-toy.run.json")
        assert len(names) == 18
        for name in names:
            h.update(name.encode() + b"\0" + (out / name).read_bytes() + b"\0")
        assert h.hexdigest() == "ac7b7ecce2a6bbfe3227c181cf84a742"
