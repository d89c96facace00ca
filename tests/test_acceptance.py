"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import functools
import math
import time

import numpy as np
import pytest

from knnmt import cli
from knnmt.align import PairedContexts, fit_linear_map, map_datastore
from knnmt.decode import interpolate, knn_distribution
from knnmt.features import permutation_importance, predict_xsim_loo
from knnmt.mteval import bleu
from knnmt.transfer import (
    BleuTable,
    ContextDumpSet,
    SimilarityMatrix,
    rtp,
    spearman,
    xsim,
)
from knnmt.vecstore import (
    Datastore,
    IndexSpec,
    make_records,
    merge_datastores,
    query,
    store_dtype,
)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d}: FAIL - {title}")
                raise
            print(f"ACCEPTANCE {number:2d}: PASS - {title}")
        return wrapper
    return decorate


def array_store(keys, tokens, lang="xx", vocab_size=None, index_spec=None):
    keys = np.asarray(keys, dtype=np.float32)
    n = keys.shape[0]
    rows = np.zeros(n, dtype=store_dtype(keys.shape[1]))
    rows["vec"] = keys
    rows["tok"] = tokens
    rows["sid"] = np.arange(n)
    return Datastore(rows, vocab_size or int(np.max(tokens)) + 1, (lang,),
                     index_spec or IndexSpec())


def naive_topk(keys, q, k):
    dists = np.sum((keys.astype(np.float64) - np.asarray(q, np.float64)) ** 2,
                   axis=1)
    order = sorted(range(len(keys)), key=lambda i: (dists[i], i))
    return order[:k]


@criterion(1, "index-oracle equivalence on 10^4 vectors, tie-breaks included")
def test_criterion_1_index_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    n, d = 10_000, 64
    keys = rng.normal(size=(n, d)).astype(np.float32)
    dup_from = rng.choice(n, size=50, replace=False)
    dup_to = rng.choice(n, size=50, replace=False)
    keys[dup_to] = keys[dup_from]  # exact ties exercise the tie-break
    tokens = rng.integers(0, 500, size=n)
    exact = array_store(keys, tokens, vocab_size=500)
    full_probe = array_store(keys, tokens, vocab_size=500,
                             index_spec=IndexSpec("cell-probe", n_cells=64,
                                                  n_probe=64))
    queries = [rng.normal(size=d) for _ in range(30)]
    queries += [keys[i].astype(np.float64) for i in dup_to[:10]]
    for k in (16, 32, 64):
        for q in queries:
            got = query(exact, q, k)
            assert [nb.entry_index for nb in got] == naive_topk(keys, q, k)
            probed = query(full_probe, q, k)
            assert [nb.entry_index for nb in probed] == \
                [nb.entry_index for nb in got]
            assert [nb.distance for nb in probed] == [nb.distance for nb in got]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0


@criterion(2, "retrieval-distribution laws: normalization, endpoints, flattening")
def test_criterion_2_distribution_laws():
    rng = np.random.default_rng(202)
    vocab_size = 200
    for _ in range(10_000):
        k = int(rng.integers(1, 65))
        dists = rng.uniform(0, 100, size=k)
        tokens = rng.integers(0, vocab_size, size=k)
        probs = knn_distribution(dists, tokens, float(rng.uniform(0.1, 100)),
                                 vocab_size)
        assert abs(probs.sum() - 1.0) <= 1e-9
    for _ in range(100):
        p_knn = rng.dirichlet(np.ones(vocab_size))
        p_base = rng.dirichlet(np.ones(vocab_size))
        assert np.array_equal(interpolate(p_knn, p_base, 0.0), p_base)
        assert np.array_equal(interpolate(p_knn, p_base, 1.0), p_knn)
    for _ in range(1000):
        k = int(rng.integers(2, 33))
        tokens = rng.choice(vocab_size, size=k, replace=False)
        dists = rng.uniform(0, 20, size=k)
        peaks = [knn_distribution(dists, tokens, t, vocab_size).max()
                 for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))


@criterion(3, "least-squares recovery: random map within 1e-4, identity within 1e-6")
def test_criterion_3_least_squares_recovery():
    rng = np.random.default_rng(303)
    truth = rng.normal(size=(16, 16))
    x = rng.normal(size=(200, 16))
    fitted = fit_linear_map(PairedContexts(rows_src=x, rows_tgt=x @ truth.T))
    assert np.linalg.norm(fitted.matrix - truth) < 1e-4
    identity = fit_linear_map(PairedContexts(rows_src=x, rows_tgt=x.copy()))
    assert np.abs(identity.matrix - np.eye(16)).max() < 1e-6


@criterion(4, "cross-lingual mapping lifts top-1 token-match rate")
def test_criterion_4_mapping_direction():
    rng = np.random.default_rng(7)
    d, n_tokens = 32, 25
    vocab_size = 3 + n_tokens
    centers = rng.normal(size=(n_tokens, d)) * 1.5
    q_mat, r = np.linalg.qr(rng.normal(size=(d, d)))
    rotation = q_mat * np.sign(np.diag(r))
    tokens = rng.integers(0, n_tokens, size=3000)
    lang1_keys = centers[tokens] + rng.normal(scale=0.4, size=(3000, d))
    lang2_keys = lang1_keys @ rotation.T
    store2 = array_store(lang2_keys, tokens + 3, lang="bb", vocab_size=vocab_size)
    inverse = fit_linear_map(PairedContexts(rows_src=lang2_keys,
                                            rows_tgt=lang1_keys,
                                            src_lang="bb", tgt_lang="aa"))
    mapped2 = map_datastore(store2, inverse)
    query_tokens = rng.integers(0, n_tokens, size=1000)
    queries = centers[query_tokens] + rng.normal(scale=0.4, size=(1000, d))
    raw_hits = sum(query(store2, q, 1)[0].token_id == t + 3
                   for q, t in zip(queries, query_tokens))
    mapped_hits = sum(query(mapped2, q, 1)[0].token_id == t + 3
                      for q, t in zip(queries, query_tokens))
    assert mapped_hits > raw_hits


@criterion(5, "merging a related store lifts interpolated token accuracy >= 2pp")
def test_criterion_5_multilingual_over_bilingual():
    rng = np.random.default_rng(42)
    d, n_clusters, sigma = 32, 40, 1.2
    vocab_size = 3 + n_clusters
    centers = rng.normal(size=(n_clusters, d))

    def draw(count):
        toks = rng.integers(0, n_clusters, size=count)
        return centers[toks] + rng.normal(scale=sigma, size=(count, d)), toks + 3

    lo_keys, lo_tokens = draw(200)
    hi_keys, hi_tokens = draw(5000)  # same generative clusters
    held_keys, held_tokens = draw(1000)
    bilingual = array_store(lo_keys, lo_tokens, lang="lo", vocab_size=vocab_size)
    related = array_store(hi_keys, hi_tokens, lang="hi", vocab_size=vocab_size)
    multilingual = merge_datastores([bilingual, related])
    base = np.full(vocab_size, 1.0 / vocab_size)

    def accuracy(store):
        hits = 0
        for q, tok in zip(held_keys, held_tokens):
            nbrs = query(store, q, min(16, len(store)))
            probs = interpolate(knn_distribution(nbrs.distance, nbrs.token_id, 10.0,
                                                 vocab_size),
                                base, 0.7)
            hits += int(np.argmax(probs)) == tok
        return hits / len(held_tokens)

    gain = accuracy(multilingual) - accuracy(bilingual)
    assert gain >= 0.02


@criterion(6, "exact-scan slows with store size; cell-probe beats it at 10^6")
def test_criterion_6_speed_monotonicity():
    rng = np.random.default_rng(606)
    d = 64
    keys = rng.normal(size=(1_000_000, d)).astype(np.float32)
    tokens = rng.integers(0, 1000, size=1_000_000)
    stores = [array_store(keys[:n], tokens[:n], vocab_size=1000)
              for n in (10_000, 100_000, 1_000_000)]
    probe_spec = IndexSpec("cell-probe", n_cells=256, n_probe=8)
    stores.append(array_store(keys, tokens, vocab_size=1000,
                              index_spec=probe_spec))
    queries = [rng.normal(size=d) for _ in range(16)]
    rows, _ = cli.benchmark_stores(stores, queries, k=64, warmup=1)
    exact_speeds = [row.tokens_per_sec for row in rows[:3]]
    assert exact_speeds[0] > exact_speeds[1] > exact_speeds[2]
    assert rows[3].tokens_per_sec > rows[2].tokens_per_sec


@criterion(7, "xsim and transfer-potential identities")
def test_criterion_7_xsim_rtp_identities():
    rng = np.random.default_rng(707)
    dumps = ContextDumpSet(8)
    rows = {}
    for lang in ("aa", "bb"):
        vectors = []
        for sid in range(6):
            for t in range(4):
                vec = rng.normal(size=8).astype(np.float32)
                rows[(lang, sid, t)] = vec
                vectors.append(vec)
        dumps.add_records(lang, make_records(vectors, 0, np.repeat(np.arange(6), 4),
                                             np.tile(np.arange(4), 6)))
    assert abs(xsim(dumps, "aa", "aa") - 1.0) <= 1e-9
    scaled = ContextDumpSet(8)
    for lang in ("aa", "bb"):
        factor = 4.0 if lang == "aa" else 1.0  # power of two: exact in f32
        scaled.add_records(lang, make_records(
            [rows[(lang, sid, t)] * factor for sid in range(6) for t in range(4)],
            0, np.repeat(np.arange(6), 4), np.tile(np.arange(4), 6)))
    assert xsim(scaled, "aa", "bb") == xsim(dumps, "aa", "bb")
    sims = SimilarityMatrix(("aa", "bb"),
                            np.array([[1.0, 0.61], [0.61, 1.0]]))
    flat = BleuTable({"aa": (0.3, 0.3), "bb": (0.3, 0.4)})
    assert rtp("aa", sims, flat, ["aa", "bb"], pivot="en") == 0.0
    single = BleuTable({"aa": (0.2, 0.3), "bb": (0.5, 0.5)})
    assert rtp("aa", sims, single, ["aa", "bb"], pivot="en") == \
        pytest.approx(0.61, abs=1e-12)


@criterion(8, "synthetic transfer-potential vs quality-delta rank correlation >= 0.9")
def test_criterion_8_synthetic_rtp_quality_correlation():
    rng = np.random.default_rng(808)
    n = 20
    langs = tuple(f"l{i:02d}" for i in range(n))
    position = np.linspace(0.0, 1.0, n)
    values = 0.35 + 0.6 * np.exp(-3.0 * np.abs(position[:, None] - position))
    np.fill_diagonal(values, 1.0)
    sims = SimilarityMatrix(langs, values)
    table = BleuTable({lang: (float(10 + 30 * z), float(10 + 30 * z))
                       for lang, z in zip(langs, position)}, scale="percent")
    potentials = [rtp(lang, sims, table, langs, pivot="en") for lang in langs]
    deltas = [5.0 * p + float(rng.normal(scale=0.2)) for p in potentials]
    rho, count = spearman(potentials, deltas)
    assert count == n
    assert rho >= 0.9


@criterion(9, "BLEU formula checks: identity, clipping, permutation, penalty")
def test_criterion_9_bleu_formula():
    ref = "the cat sat on the mat".split()
    assert bleu([ref], [ref]).score == 1.0
    clipped = bleu([["the"] * 7], [ref], smoothing="none")
    assert clipped.precisions[0] == 2 / 7
    rng = np.random.default_rng(909)
    hyps = [[str(t) for t in rng.integers(0, 9, size=rng.integers(4, 10))]
            for _ in range(15)]
    refs = [[str(t) for t in rng.integers(0, 9, size=rng.integers(4, 10))]
            for _ in range(15)]
    perm = rng.permutation(15)
    assert bleu(hyps, refs).score == \
        bleu([hyps[i] for i in perm], [refs[i] for i in perm]).score
    assert bleu([["a"] * 10], [["a"] * 10]).brevity_penalty == 1.0
    assert bleu([["a"] * 12], [["a"] * 10]).brevity_penalty == 1.0
    assert bleu([["a"] * 5], [["a"] * 10]).brevity_penalty == math.exp(1 - 10 / 5)
    assert bleu([["a"] * 9], [["a"] * 10]).brevity_penalty == math.exp(1 - 10 / 9)


def synthetic_feature_pairs(rng, n_langs, targets_fn):
    """Random features per language pair and a target from each row: the
    ``(pairs, x, y, names)`` predict_xsim_loo takes."""
    names = ("size_ratio", "vocab_occupancy_ratio", "src_subword_overlap",
             "multi_parallel_overlap", "tgt_ngram_overlap")
    langs = [f"l{i}" for i in range(n_langs)]
    pairs = [(langs[i], langs[j]) for i in range(n_langs) for j in range(i + 1, n_langs)]
    x = np.array([rng.uniform(0, 1, size=5) for _ in pairs])
    y = np.array([targets_fn(row) for row in x])
    return pairs, x, y, names


@criterion(10, "regression protocol: exact fit, importance separation, beats noise")
def test_criterion_10_regression_protocol():
    rng = np.random.default_rng(1010)
    coef = np.array([0.4, -0.3, 0.6, 0.2, -0.5])
    pairs, features, targets, names = synthetic_feature_pairs(
        rng, 8, lambda x: float(x @ coef))
    report = predict_xsim_loo(pairs, features, targets, names)
    assert report.mean_mae < 1e-8

    from knnmt.features import fit_linear
    x = rng.uniform(0, 1, size=(80, 2))
    y = 3.0 * x[:, 0]
    model = fit_linear(x, y, ["informative", "inert"])
    importances = permutation_importance(model, x, y, n_shuffles=50, seed=0)
    info_mean, info_std = importances["informative"]
    inert_mean, inert_std = importances["inert"]
    assert info_mean - 2 * info_std > inert_mean + 2 * inert_std

    # same targets, features replaced by fresh noise: the baseline of the
    # published protocol's "noise" row
    _, noise_x, _, _ = synthetic_feature_pairs(np.random.default_rng(2020), 8,
                                               lambda x: 0.0)
    noise_report = predict_xsim_loo(pairs, noise_x, targets, names)
    assert report.mean_mae < noise_report.mean_mae


@criterion(11, "end-to-end pipeline is bit-identical across same-seed runs")
def test_criterion_11_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    artifacts = []
    for run_dir in ("one", "two"):
        root = tmp_path / run_dir
        data = root / "data"
        assert cli.main(["gen-toy", "--out", str(data), "--langs", "aa,bb",
                         "--sentences", "120", "--test", "12", "--words", "40",
                         "--seed", "9"]) == 0
        store = root / "aa.kds"
        assert cli.main(["build", "--train-src", str(data / "aa-en.train.aa"),
                         "--train-tgt", str(data / "aa-en.train.en"),
                         "--vocab", str(data / "vocab.txt"),
                         "--src-lang", "aa", "--dim", "32",
                         "--out", str(store)]) == 0
        output = root / "out.txt"
        assert cli.main(["translate", "--train-src", str(data / "aa-en.train.aa"),
                         "--train-tgt", str(data / "aa-en.train.en"),
                         "--vocab", str(data / "vocab.txt"), "--dim", "32",
                         "--store", str(store), "-k", "8", "--lambda", "0.5",
                         "--beam", "2",
                         "--input", str(data / "aa-en.test.aa"),
                         "--output", str(output)]) == 0
        artifacts.append({
            "corpus": (data / "aa-en.train.aa").read_bytes(),
            "targets": (data / "aa-en.train.en").read_bytes(),
            "vocab": (data / "vocab.txt").read_bytes(),
            "store": store.read_bytes(),
            "translations": output.read_bytes(),
        })
    assert artifacts[0] == artifacts[1]
    assert time.perf_counter() - started < 300.0
