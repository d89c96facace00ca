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
