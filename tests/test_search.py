"""Both search indexes against the plain float64 scan, bit for bit.

The oracle is the scan the indexes replaced: ``squared_distances`` over every
searched row, then ``_topk`` by (distance, entry index). The indexes rank rows
with a float32 product and rescore only a certified shortlist, so their
entry indices, distances and tie order must equal the oracle's exactly, for
duplicated keys, keys one float32 ulp apart, k = N, large norms, degenerate
queries and non-finite keys.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from knnmt import vecstore
from knnmt.vecstore import (
    CellProbeIndex,
    ExactScanIndex,
    _topk,
    squared_distances,
    store_dtype,
)


def full_scan(keys, q, k, candidates=None):
    """The reference: float64 distances to every candidate row, then (distance, index)."""
    if candidates is None:
        candidates = np.arange(keys.shape[0], dtype=np.int64)
    return _topk(squared_distances(keys[candidates], q), candidates, k)


def probed_entries(index, q, k):
    """The entries a cell-probe search scans: the closest cells, expanded to hold k."""
    cdists = squared_distances(index.centroids, q)
    order = np.lexsort((np.arange(index.n_cells), cdists))
    cells = [index._order[index._bounds[c]:index._bounds[c + 1]] for c in order]
    probe = index.n_probe
    while sum(cell.size for cell in cells[:probe]) < k and probe < index.n_cells:
        probe += 1
    return np.sort(np.concatenate(cells[:probe]))


def assert_same(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1], equal_nan=True)


def as_row_view(keys):
    """The keys as the strided ``vec`` column of ``store_dtype`` rows, as a store holds them."""
    rows = np.zeros(keys.shape[0], dtype=store_dtype(keys.shape[1]))
    rows["vec"] = keys
    return rows["vec"]


@st.composite
def search_cases(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    # unit-scale keys, or norms up to about 10^3 as in mapped stores
    scale = draw(st.sampled_from([1.0, 1e3]))
    unit = arrays(np.float32, (n, d), elements=st.floats(-1, 1, width=32))
    keys = (draw(unit) * np.float32(scale)).astype(np.float32)
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=6)):
        keys[dst] = keys[src]  # duplicated keys
    for row, col in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, d - 1)),
                                  max_size=6)):
        if n > 1:
            keys[(row + 1) % n] = keys[row]
        keys[row, col] = np.nextafter(keys[row, col], np.float32(np.inf))  # one ulp apart
    if draw(st.integers(0, 5)) == 0:
        keys[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    kind = draw(st.sampled_from(["random", "zero", "nan", "key", "key-ulp"]))
    if kind == "random":
        q = draw(arrays(np.float64, d, elements=st.floats(-1, 1))) * scale
    elif kind == "zero":
        q = np.zeros(d)
    elif kind == "nan":
        q = np.full(d, np.nan)
    else:
        q = keys[draw(st.integers(0, n - 1))].astype(np.float64)
        if kind == "key-ulp":
            q = np.nextafter(q, np.inf)
    k = draw(st.integers(1, n))
    n_cells = draw(st.integers(1, n))
    n_probe = draw(st.integers(1, n_cells))
    strided = draw(st.booleans())
    return (as_row_view(keys) if strided else keys), q, k, n_cells, n_probe


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and inf keys reach k-means
@settings(deadline=None, max_examples=300)
@given(search_cases())
def test_indexes_match_the_full_scan(case):
    keys, q, k, n_cells, n_probe = case
    assert_same(ExactScanIndex(keys).search(q, k), full_scan(keys, q, k))
    full = CellProbeIndex(keys, n_cells, n_cells)
    assert_same(full.search(q, k), full_scan(keys, q, k))
    part = CellProbeIndex(keys, n_cells, n_probe)
    assert_same(part.search(q, k), full_scan(keys, q, k, probed_entries(part, q, k)))


def test_shortlist_rescores_few_rows(monkeypatch):
    """Near-ties everywhere, yet only a shortlist is rescored, with the scan's result."""
    rng = np.random.default_rng(7)
    base = rng.normal(size=(500, 16)).astype(np.float32)
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    keys = np.concatenate([base, base, np.nextafter(base, np.float32(np.inf))])
    keys = as_row_view(keys)
    rescored = []

    def counting(rows, q):
        rescored.append(rows.shape[0])
        return squared_distances(rows, q)

    index = ExactScanIndex(keys)
    for i in range(20):
        q = keys[i].astype(np.float64) if i % 2 else rng.normal(size=16)
        want = full_scan(keys, q, 16)
        monkeypatch.setattr(vecstore, "squared_distances", counting)
        got = index.search(q, 16)
        monkeypatch.undo()
        assert_same(got, want)
    assert max(rescored) < keys.shape[0] // 10


def store_of(keys, kind, n_cells=1, n_probe=1):
    """A store holding ``keys``, entry i with token i % 7, searched by the given index."""
    n = keys.shape[0]
    records = vecstore.make_records(keys, np.arange(n) % 7, np.arange(n), 0)
    params = {"n_cells": n_cells, "n_probe": n_probe}
    return vecstore.build_datastore(records, 7, "xx", kind, params)


@st.composite
def batch_cases(draw):
    half = draw(st.integers(1, 12))
    d = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1.0, 1e3]))
    base = draw(arrays(np.float32, (half, d), elements=st.floats(-1, 1, width=32)))
    keys = np.concatenate([base, base]) * np.float32(scale)  # every key twice: ties
    b = draw(st.integers(1, 8))
    queries = draw(arrays(np.float64, (b, d), elements=st.floats(-1, 1))) * scale
    for j in draw(st.lists(st.integers(0, b - 1), max_size=2)):
        queries[j] = keys[draw(st.integers(0, 2 * half - 1))]  # a query on a tied key
    if b > 1 and draw(st.booleans()):
        queries[draw(st.integers(0, b - 1))] = np.nan  # rescored in full, alone
    k = draw(st.one_of(st.just(2 * half), st.integers(1, 2 * half)))
    kind = draw(st.sampled_from(["exact-scan", "cell-probe"]))
    n_cells = draw(st.integers(1, 2 * half))
    return keys, queries, k, kind, n_cells, draw(st.integers(1, n_cells))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN query row
@settings(deadline=None, max_examples=300)
@given(batch_cases())
def test_batch_query_equals_single_queries(case):
    keys, queries, k, kind, n_cells, n_probe = case
    store = store_of(keys, kind, n_cells, n_probe)
    got = vecstore.query(store, queries, k)
    assert got.shape == (queries.shape[0], k) and got.dtype == vecstore.NEIGHBOR_DTYPE
    for j, q in enumerate(queries):
        assert got[j].tobytes() == vecstore.query(store, q, k).tobytes()


def test_batch_query_checks_its_shape():
    store = store_of(np.eye(4, dtype=np.float32), "exact-scan")
    assert vecstore.query(store, np.zeros((0, 4)), 2).shape == (0, 2)
    for bad in (np.zeros((2, 5)), np.zeros((2, 2, 4)), np.float64(1.0)):
        with pytest.raises(vecstore.DimensionMismatchError):
            vecstore.query(store, bad, 2)


def reference_shortlist(keys, q, column, k):
    """The rows the parent's single partition passed: within 2E of the k-th estimate.

    ``column`` is q's column of the batch's float32 product ``keys @ Q32.T``.
    """
    u32, u64 = 2.0 ** -24, 2.0 ** -53
    d = keys.shape[1]

    def gamma(m, u):
        return m * u / (1 - m * u)

    norms = np.einsum("ij,ij->i", keys, keys)
    knorm = np.sqrt(float(norms.max()) * (1 + 2 * gamma(d, u32)))
    qnorm = np.sqrt(float(q @ q)) * (1 + gamma(d + 2, u64))
    bound = (gamma(d + 3, u32) * (knorm * knorm + 2 * knorm * qnorm)
             + gamma(d + 3, u64) * (knorm + qnorm) ** 2 + (d + 1) * (3 + knorm) * 2.0 ** -149)
    approx = column * np.float32(-2.0)
    approx += norms
    limit = float(np.partition(approx, k - 1)[k - 1]) + 2 * bound
    return np.flatnonzero(approx <= np.nextafter(np.float32(limit), np.float32(np.inf)))


@pytest.mark.parametrize("n, k", [(9000, 1), (9000, 16), (40000, 64), (5000, 16)])
def test_sampled_threshold_passes_the_full_partition_rows(monkeypatch, n, k):
    """Over many rows the threshold comes from a strided sample; the rows rescored are
    exactly those the full partition passes, in order, for every query of a batch."""
    rng = np.random.default_rng(n + k)
    base = rng.normal(size=(n // 2, 8)).astype(np.float32)
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    # duplicated and one-ulp-apart keys: near-ties around every threshold
    keys = as_row_view(np.concatenate([base, np.nextafter(base, np.float32(np.inf))]))
    queries = np.concatenate([keys[[5, 77, n // 3]].astype(np.float64),
                              rng.normal(size=(3, 8)), np.zeros((1, 8))])
    rescored = []

    def recording(rows, q):
        rescored.append(np.array(rows))
        return squared_distances(rows, q)

    monkeypatch.setattr(vecstore, "squared_distances", recording)
    got = ExactScanIndex(keys).search(queries, k)
    monkeypatch.undo()
    ranked = keys @ queries.astype(np.float32).T
    assert len(rescored) == len(queries)
    for j, q in enumerate(queries):
        want = reference_shortlist(keys, q, ranked[:, j], k)
        assert np.array_equal(rescored[j], keys[want])
        assert_same((got[0][j], got[1][j]), full_scan(keys, q, k))


def count_vectors(draw, rows, d):
    """Signed integer counts over d slots, L2-normalized unless all zero: featurizer keys."""
    counts = draw(arrays(np.int64, (rows, d), elements=st.integers(-3, 3))).astype(np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
    return counts / np.where(norms > 0, norms, 1.0)[:, None]


@st.composite
def sparse_cases(draw):
    half = draw(st.integers(1, 20))
    d = draw(st.integers(1, 8))
    if draw(st.booleans()):
        base = count_vectors(draw, half, d).astype(np.float32)
    else:
        base = draw(arrays(np.float32, (half, d), elements=st.floats(-1, 1, width=32)))
    keys = np.concatenate([base, base])  # every key twice: ties
    kind = draw(st.sampled_from(["zero", "one", "signed-zeros", "counts"]))
    q = np.zeros(d)
    if kind == "one":
        q[draw(st.integers(0, d - 1))] = draw(st.floats(-1, 1).filter(bool))
    elif kind == "signed-zeros":  # -0.0 is a zero coordinate too
        # 1e-40 is a float32 subnormal; 1e-50 rounds to a float32 zero
        values = st.sampled_from([0.0, -0.0, 0.5, -1.0, 1e-40, 1e-50])
        q = draw(arrays(np.float64, d, elements=values))
    elif kind == "counts":  # the featurizer's query; all zero when its hashes cancel
        q = count_vectors(draw, 1, d)[0]
    # k up to every entry: few probed entries expand the probe
    k = draw(st.integers(1, 2 * half))
    n_cells = draw(st.integers(1, 2 * half))
    n_probe = draw(st.integers(1, n_cells))
    return (as_row_view(keys) if draw(st.booleans()) else keys), q, k, n_cells, n_probe


@settings(deadline=None, max_examples=300)
@given(sparse_cases())
def test_sparse_queries_match_the_full_scan(case):
    """The cell-probe ranking reads only a query's nonzero coordinates; all-zero, one-hot,
    signed-zero and count-vector queries still give the float64 scan's result."""
    keys, q, k, n_cells, n_probe = case
    part = CellProbeIndex(keys, n_cells, n_probe)
    assert_same(part.search(q, k), full_scan(keys, q, k, probed_entries(part, q, k)))
    full = CellProbeIndex(keys, n_cells, n_cells)
    assert_same(full.search(q, k), ExactScanIndex(keys).search(q, k))
    assert_same(full.search(q, k), full_scan(keys, q, k))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN query
def test_nan_query_rescores_every_probed_entry(monkeypatch):
    rng = np.random.default_rng(3)
    base = rng.normal(size=(50, 8)).astype(np.float32)
    keys = as_row_view(np.concatenate([base, base]))
    index = CellProbeIndex(keys, 10, 3)
    q = np.zeros(8)
    q[2] = np.nan
    rescored = []

    def recording(rows, query):
        rescored.append(rows.shape[0])
        return squared_distances(rows, query)

    monkeypatch.setattr(vecstore, "squared_distances", recording)
    got = index.search(q, 5)
    monkeypatch.undo()
    # the centroid ranking, then every probed entry: no float32 shortlist
    assert rescored == [index.n_cells, len(probed_entries(index, q, 5))]
    assert_same(got, full_scan(keys, q, 5, probed_entries(index, q, 5)))
