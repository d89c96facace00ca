import os
import struct

import numpy as np
import pytest

from knnmt import vecstore
from knnmt.errors import (
    CorruptFileError,
    DimensionMismatchError,
    EmptyDatastoreError,
    EmptyInputError,
    IncompatibleStoresError,
    InsufficientEntriesError,
    MalformedDumpError,
)
from knnmt.vecstore import (
    DumpHeader,
    IndexSpec,
    build_datastore,
    load_datastore,
    make_records,
    merge_datastores,
    query,
    read_dump,
    record_dtype,
    save_datastore,
    store_dtype,
    write_dump,
)


def naive_topk(keys, q, k):
    """Independent oracle: full scan, sorted by (distance, entry index)."""
    dists = np.sum((keys.astype(np.float64) - np.asarray(q, dtype=np.float64)) ** 2,
                   axis=1)
    order = sorted(range(len(keys)), key=lambda i: (dists[i], i))
    return [(i, dists[i]) for i in order[:k]]


def make_store(keys, tokens=None, lang="xx", vocab_size=None, **kw):
    keys = np.asarray(keys, dtype=np.float32)
    n, d = keys.shape
    if tokens is None:
        tokens = list(range(n))
    if vocab_size is None:
        vocab_size = max(tokens) + 1
    return build_datastore(make_records(keys, tokens, np.arange(n), 0), vocab_size,
                           lang, **kw)


def random_store(rng, n, d, langs=("xx",), vocab_size=100, **kw):
    """Languages take turns over the rows; each one's rows form one build, then merge."""
    keys = rng.normal(size=(n, d)).astype(np.float32)
    records = make_records(keys, rng.integers(vocab_size, size=n), np.arange(n), 0)
    stores = [build_datastore(records[i::len(langs)], vocab_size, lang, **kw)
              for i, lang in enumerate(langs)]
    return stores[0] if len(stores) == 1 else merge_datastores(stores)


class TestBuild:
    def test_count_preservation(self):
        store = make_store(np.zeros((3, 4)) + np.arange(3)[:, None])
        assert len(store) == 3
        assert store.dim == 4
        assert store.languages == {"xx": 3}

    def test_wrong_vector_length_rejected(self, tmp_path):
        # the dimension is declared by a dump header, and checked where it is
        records = make_records(np.zeros((1, 3)), 0, 0, 0)
        with pytest.raises(MalformedDumpError):
            write_dump(tmp_path / "d.rdmp", DumpHeader(4, 10, "xx"), records)

    def test_empty_dump_rejected(self):
        with pytest.raises(EmptyDatastoreError):
            build_datastore(np.empty(0, dtype=record_dtype(4)), 10, "xx")

    def test_empty_dump_not_written(self, tmp_path):
        with pytest.raises(EmptyDatastoreError):
            write_dump(tmp_path / "d.rdmp", DumpHeader(4, 10, "xx"),
                       np.empty(0, dtype=record_dtype(4)))

    def test_token_outside_vocab_rejected(self):
        records = make_records(np.zeros((1, 4)), 11, 0, 0)
        with pytest.raises(MalformedDumpError):
            build_datastore(records, 10, "xx")

    def test_bad_lang_code_rejected(self):
        records = make_records(np.zeros((1, 4)), 0, 0, 0)
        with pytest.raises(MalformedDumpError):
            build_datastore(records, 10, "XX")

    def test_context_ids_checked_against_their_fields(self):
        vectors = np.zeros((2, 4))
        for sids, steps in [(np.array([0, 2**32 + 5]), np.array([70000, 3])),  # wrapped
                            (-1, 0), (0, -1), (0, np.array([3, 2**16]))]:
            with pytest.raises(MalformedDumpError):
                make_records(vectors, [1, 2], sids, steps)
        records = make_records(vectors, [1, 2], np.array([0, 2**32 - 1]), 65535)
        assert records["sid"].tolist() == [0, 2**32 - 1]
        assert records["ts"].tolist() == [65535, 65535]

    def test_non_finite_key_rejected(self):
        for bad in (np.nan, np.inf):
            keys = np.zeros((3, 4))
            keys[1, 2] = bad
            with pytest.raises(MalformedDumpError):
                build_datastore(make_records(keys, 0, np.arange(3), 0), 10, "xx")

    def test_scaled_published_shape(self):
        # 1/1000-scale counts shaped like a real low-resource/high-resource pair
        rng = np.random.default_rng(7)
        be = random_store(rng, 116, 8, langs=("be",))
        ru = random_store(rng, 533, 8, langs=("ru",))
        merged = merge_datastores([be, ru])
        assert merged.languages == {"be": 116, "ru": 533}
        assert len(merged) == 649


class TestQuery:
    def test_self_retrieval_distance_zero(self):
        rng = np.random.default_rng(0)
        store = random_store(rng, 50, 8)
        result = query(store, store.keys[17], 3)
        assert result[0].entry_index == 17
        assert result[0].distance == 0.0
        assert result[0].token_id == store.token_ids[17]

    def test_equidistant_lower_index_wins(self):
        keys = np.zeros((4, 4), dtype=np.float32)
        keys[2] = keys[3] = 1.0  # entries 2 and 3 identical
        store = make_store(keys)
        result = query(store, np.ones(4, dtype=np.float32), 2)
        assert [nb.entry_index for nb in result] == [2, 3]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        store = random_store(rng, 500, 16)
        for k in (1, 5, 32):
            for _ in range(20):
                q = rng.normal(size=16)
                got = query(store, q, k)
                expected = naive_topk(store.keys, q, k)
                assert [nb.entry_index for nb in got] == [i for i, _ in expected]
                assert np.allclose([nb.distance for nb in got],
                                   [d for _, d in expected], rtol=1e-12)
                # rows read by attribute above; the columns are the index's arrays
                assert got.dtype == vecstore.NEIGHBOR_DTYPE
                idx, dists = store.index.search(q, k)
                assert np.array_equal(got.entry_index, idx)
                assert np.array_equal(got.distance, dists)
                assert np.array_equal(got.token_id, store.token_ids[idx])

    def test_distances_nondecreasing_and_count(self):
        rng = np.random.default_rng(2)
        store = random_store(rng, 200, 8)
        result = query(store, rng.normal(size=8), 64)
        dists = [nb.distance for nb in result]
        assert len(result) == 64
        assert dists == sorted(dists)
        assert all(d >= 0 for d in dists)

    def test_dim_mismatch(self):
        store = make_store(np.zeros((3, 4)))
        with pytest.raises(DimensionMismatchError):
            query(store, np.zeros(5), 1)

    def test_k_exceeds_entries(self):
        store = make_store(np.zeros((3, 4)))
        with pytest.raises(InsufficientEntriesError):
            query(store, np.zeros(4), 4)


class TestCellProbe:
    def test_full_probing_equals_exact_scan(self):
        rng = np.random.default_rng(3)
        keys = rng.normal(size=(2000, 16)).astype(np.float32)
        keys[100] = keys[200]  # force a tie the index must preserve
        exact = make_store(keys, vocab_size=5000)
        probe = make_store(keys, vocab_size=5000, index_kind="cell-probe",
                           index_params={"n_cells": 32, "n_probe": 32})
        for _ in range(25):
            q = rng.normal(size=16)
            a = query(exact, q, 10)
            b = query(probe, q, 10)
            assert [nb.entry_index for nb in a] == [nb.entry_index for nb in b]
            assert [nb.distance for nb in a] == [nb.distance for nb in b]

    def test_probing_expands_to_honor_k(self):
        rng = np.random.default_rng(4)
        store = random_store(rng, 60, 8, index_kind="cell-probe",
                             index_params={"n_cells": 10, "n_probe": 1})
        result = query(store, rng.normal(size=8), 50)
        assert len(result) == 50
        assert len({nb.entry_index for nb in result}) == 50

    def test_index_build_is_deterministic(self):
        rng = np.random.default_rng(5)
        keys = rng.normal(size=(300, 8)).astype(np.float32)
        a = make_store(keys, index_kind="cell-probe",
                       index_params={"n_cells": 8, "n_probe": 2})
        b = make_store(keys, index_kind="cell-probe",
                       index_params={"n_cells": 8, "n_probe": 2})
        assert np.array_equal(a.index.centroids, b.index.centroids)
        q = rng.normal(size=8)
        assert [nb.entry_index for nb in query(a, q, 7)] == \
            [nb.entry_index for nb in query(b, q, 7)]

    @pytest.mark.parametrize("chunk_rows", [1, 7, 256, 1000, 65536])
    def test_k_means_does_not_depend_on_the_chunk_size(self, monkeypatch, chunk_rows):
        """Cells and centroids are the same bits whatever rows each float64 temporary holds."""
        rng = np.random.default_rng(6)
        keys = make_store(rng.normal(size=(1000, 16)).astype(np.float32)).keys
        start = vecstore._initial_centroids(keys, 12)
        want = vecstore._refine_centroids(start.copy(), keys)
        want_cells = vecstore._assign_cells(keys, want)
        monkeypatch.setattr(vecstore, "_CHUNK_ROWS", chunk_rows)  # 7 does not divide 1000
        centroids = vecstore._refine_centroids(start.copy(), keys)
        assert np.array_equal(centroids, want)
        assert np.array_equal(vecstore._assign_cells(keys, centroids), want_cells)


@pytest.fixture
def builds(monkeypatch):
    """Count CellProbeIndex constructions; returns the list they append to."""
    made = []

    class Counted(vecstore.CellProbeIndex):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(vecstore, "CellProbeIndex", Counted)
    return made


class TestLazyIndex:
    def cell_probe_store(self, rng, n=400, lang="xx"):
        return random_store(rng, n, 8, langs=(lang,), index_kind="cell-probe",
                            index_params={"n_cells": 16, "n_probe": 3})

    def test_build_merge_map_save_make_no_index(self, builds, tmp_path):
        from knnmt.align import LinearMap, map_datastore
        rng = np.random.default_rng(11)
        a = self.cell_probe_store(rng)
        b = self.cell_probe_store(rng, lang="yy")
        merged = merge_datastores([a, b])
        mapped = map_datastore(a, LinearMap(rng.normal(size=(8, 8)), "xx", "yy", 0.0))
        for store in (a, merged, mapped):
            save_datastore(store, tmp_path / "s.kds")
        assert builds == []

    def test_first_query_builds_once_and_matches_an_eager_index(self, builds):
        rng = np.random.default_rng(12)
        store = self.cell_probe_store(rng)
        eager = vecstore.CellProbeIndex(store.keys, 16, 3)
        builds.clear()
        for i in range(10):
            q = rng.normal(size=8)
            nbrs = query(store, q, 5)
            assert len(builds) == 1
            idx, dists = eager.search(q, 5)
            assert np.array_equal(nbrs.entry_index, idx)
            assert np.array_equal(nbrs.distance, dists)
        assert np.array_equal(store.index.centroids, eager.centroids)

    def test_load_builds_exactly_one(self, builds, tmp_path):
        rng = np.random.default_rng(13)
        save_datastore(self.cell_probe_store(rng), tmp_path / "s.kds")
        store = load_datastore(tmp_path / "s.kds")
        assert len(builds) == 1
        query(store, rng.normal(size=8), 5)
        assert len(builds) == 1

    def test_first_query_copies_the_keys_in_cell_order_once(self, tmp_path):
        rng = np.random.default_rng(14)
        save_datastore(self.cell_probe_store(rng), tmp_path / "s.kds")
        store = load_datastore(tmp_path / "s.kds")
        index = store.index
        assert index._cell_keys is None and index._cell_norms is None
        query(store, rng.normal(size=8), 5)
        copy = index._cell_keys
        assert np.array_equal(copy, store.keys[index._order])
        for _ in range(3):
            query(store, rng.normal(size=8), 5)
            assert index._cell_keys is copy
        assert index._keys is store.keys  # the entry-ordered keys stay the index's keys

    @pytest.mark.parametrize("params", [{"n_cells": 0}, {"n_probe": 0}, {"n_cells": -1}])
    def test_bad_cell_probe_spec_rejected_at_build(self, params):
        with pytest.raises(ValueError):
            make_store(np.eye(4), index_kind="cell-probe", index_params=params)


class TestMerge:
    def test_additivity(self):
        rng = np.random.default_rng(6)
        a = random_store(rng, 10, 8, langs=("aa",))
        b = random_store(rng, 20, 8, langs=("bb",))
        merged = merge_datastores([a, b])
        assert len(merged) == 30
        assert merged.languages == {"aa": 10, "bb": 20}

    def test_single_store_identity(self):
        rng = np.random.default_rng(7)
        a = random_store(rng, 40, 8)
        merged = merge_datastores([a])
        for _ in range(10):
            q = rng.normal(size=8)
            assert [nb.entry_index for nb in query(merged, q, 5)] == \
                [nb.entry_index for nb in query(a, q, 5)]

    def test_top1_is_global_argmin_over_inputs(self):
        rng = np.random.default_rng(8)
        a = random_store(rng, 30, 8, langs=("aa",))
        b = random_store(rng, 50, 8, langs=("bb",))
        merged = merge_datastores([a, b])
        for _ in range(20):
            q = rng.normal(size=8)
            best = query(merged, q, 1)[0]
            # oracle: brute-force scan over both inputs
            oracle = min(naive_topk(a.keys, q, 1) +
                         [(i + 30, d) for i, d in naive_topk(b.keys, q, 1)],
                         key=lambda t: (t[1], t[0]))
            assert best.entry_index == oracle[0]

    def test_merge_order_insensitive_distances(self):
        rng = np.random.default_rng(9)
        a = random_store(rng, 25, 8, langs=("aa",))
        b = random_store(rng, 35, 8, langs=("bb",))
        ab = merge_datastores([a, b])
        ba = merge_datastores([b, a])
        for _ in range(10):
            q = rng.normal(size=8)
            d1 = [nb.distance for nb in query(ab, q, 12)]
            d2 = [nb.distance for nb in query(ba, q, 12)]
            assert d1 == d2

    def test_dim_mismatch(self):
        rng = np.random.default_rng(10)
        with pytest.raises(IncompatibleStoresError):
            merge_datastores([random_store(rng, 5, 8), random_store(rng, 5, 16)])

    def test_vocab_mismatch(self):
        rng = np.random.default_rng(11)
        a = random_store(rng, 5, 8, vocab_size=50)
        b = random_store(rng, 5, 8, vocab_size=60)
        with pytest.raises(IncompatibleStoresError):
            merge_datastores([a, b])

    def test_empty_list(self):
        with pytest.raises(EmptyInputError):
            merge_datastores([])


class TestCellFile:
    """``load_datastore`` keeps a cell-probe store's index in ``<store>.cells``."""

    def save(self, path, keys, n_cells=6, n_probe=2, train_size=vecstore.DEFAULT_TRAIN_SIZE):
        store = make_store(keys, index_kind="cell-probe",
                           index_params={"n_cells": n_cells, "n_probe": n_probe,
                                         "train_size": train_size})
        save_datastore(store, path)
        return store

    def keys(self, seed=30, n=300):
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=(n, 8)).astype(np.float32)
        keys[n // 2:] = keys[:n - n // 2]  # every key twice: ties on every query
        return keys

    def test_restored_index_equals_a_fresh_build(self, builds, tmp_path):
        keys, path = self.keys(), tmp_path / "s.kds"
        self.save(path, keys)
        load_datastore(path)
        fresh = vecstore.CellProbeIndex(make_store(keys).keys, 6, 1)
        exact = make_store(keys)
        rng = np.random.default_rng(31)
        for n_probe in range(1, 7):
            self.save(path, keys, n_probe=n_probe)  # the same rows: the file stays valid
            del builds[:]
            restored = load_datastore(path)
            assert builds == [] and restored.index.origin == "read"
            for name in ("centroids", "_order", "_bounds"):
                assert np.array_equal(getattr(restored.index, name), getattr(fresh, name))
            fresh.n_probe = n_probe
            for i in range(10):
                q = keys[i].astype(np.float64) if i % 2 else rng.normal(size=8)
                got = query(restored, q, 5)
                idx, dists = fresh.search(q, 5)
                assert np.array_equal(got.entry_index, idx)
                assert np.array_equal(got.distance, dists)
                if n_probe == 6:
                    want = query(exact, q, 5)
                    assert np.array_equal(got.entry_index, want.entry_index)
                    assert np.array_equal(got.distance, want.distance)

    def test_same_bytes_rewritten_keep_the_file(self, builds, tmp_path):
        path = tmp_path / "s.kds"
        self.save(path, self.keys())
        load_datastore(path)
        cells = vecstore.cells_path(path)
        before = open(cells, "rb").read()
        self.save(path, self.keys())
        assert load_datastore(path).index.origin == "read"
        assert len(builds) == 1
        assert open(cells, "rb").read() == before

    @pytest.mark.parametrize("change", ["rows", "cells", "train_size"])
    def test_stale_file_is_rebuilt_and_rewritten(self, builds, tmp_path, change):
        path = tmp_path / "s.kds"
        self.save(path, self.keys())
        load_datastore(path)
        before = open(vecstore.cells_path(path), "rb").read()
        if change == "rows":
            self.save(path, self.keys(seed=32))
        elif change == "cells":
            self.save(path, self.keys(), n_cells=5)
        else:
            self.save(path, self.keys(), train_size=100)
        del builds[:]
        store = load_datastore(path)
        assert len(builds) == 1 and store.index.origin == "built"
        after = open(vecstore.cells_path(path), "rb").read()
        assert after != before
        assert load_datastore(path).index.origin == "read"
        assert len(builds) == 1

    @pytest.mark.parametrize("failing", ["create", "replace"])
    def test_failed_write_still_loads_and_leaves_nothing(self, builds, tmp_path,
                                                         monkeypatch, failing):
        path = tmp_path / "s.kds"
        store = self.save(path, self.keys())

        def refuse(*args, **kwargs):
            raise PermissionError("read-only directory")

        def refuse_writes(file, mode="r", *args, **kwargs):
            if "w" in mode:
                refuse()
            return open(file, mode, *args, **kwargs)

        if failing == "create":
            monkeypatch.setattr(vecstore, "open", refuse_writes, raising=False)
        else:  # the temporary file is written, then cannot take the cell file's name
            monkeypatch.setattr(vecstore.os, "replace", refuse)
        loaded = load_datastore(path)
        assert len(builds) == 1 and loaded.index.origin == "built, not saved"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.kds", "s.manifest.json"]
        q = self.keys()[0]
        assert np.array_equal(query(loaded, q, 4).entry_index, query(store, q, 4).entry_index)

    def test_exact_scan_store_ignores_a_cell_file(self, builds, tmp_path):
        path = tmp_path / "s.kds"
        save_datastore(make_store(self.keys()), path)
        cells = vecstore.cells_path(path)
        open(cells, "wb").write(b"not a cell file")
        assert load_datastore(path).index.kind == "exact-scan"
        assert open(cells, "rb").read() == b"not a cell file"
        os.remove(cells)
        load_datastore(path)
        assert not os.path.exists(cells)
        assert builds == []

    def test_corrupt_file_names_itself_and_the_fix(self, tmp_path):
        path = tmp_path / "s.kds"
        self.save(path, self.keys())
        load_datastore(path)
        cells = vecstore.cells_path(path)
        raw = open(cells, "rb").read()
        open(cells, "wb").write(raw[:-1])
        with pytest.raises(CorruptFileError, match="s.kds.cells.*delete"):
            load_datastore(path)
        os.remove(cells)
        assert load_datastore(path).index.origin == "built"


class TestPersistence:
    def test_roundtrip_is_identity(self, tmp_path):
        rng = np.random.default_rng(17)
        store = random_store(rng, 100, 8, langs=("aa", "bb"))
        path = tmp_path / "store.kds"
        save_datastore(store, path)
        loaded = load_datastore(path)
        assert loaded.dim == store.dim
        assert loaded.vocab_size == store.vocab_size
        assert np.array_equal(loaded.keys, store.keys)
        assert np.array_equal(loaded.token_ids, store.token_ids)
        assert np.array_equal(loaded.sentence_ids, store.sentence_ids)
        assert np.array_equal(loaded.timesteps, store.timesteps)
        assert loaded.languages == store.languages
        assert (path.parent / "store.manifest.json").exists()

    def test_roundtrip_preserves_topk(self, tmp_path):
        rng = np.random.default_rng(18)
        store = random_store(rng, 100, 8)
        path = tmp_path / "store.kds"
        save_datastore(store, path)
        loaded = load_datastore(path)
        for _ in range(100):
            q = rng.normal(size=8)
            before = [(nb.entry_index, nb.distance) for nb in query(store, q, 10)]
            after = [(nb.entry_index, nb.distance) for nb in query(loaded, q, 10)]
            assert before == after

    @pytest.mark.parametrize("langs, kw", [
        (("xx",), {}),
        (("xx",), {"index_kind": "cell-probe", "index_params": {"n_cells": 4, "n_probe": 2}}),
        (("aa", "bb", "cc"), {}),
    ], ids=["exact-scan", "cell-probe", "merged"])
    def test_saving_a_loaded_store_reproduces_the_file(self, tmp_path, langs, kw):
        store = random_store(np.random.default_rng(24), 60, 8, langs=langs, **kw)
        first, second = tmp_path / "first.kds", tmp_path / "second.kds"
        save_datastore(store, first)
        save_datastore(load_datastore(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_columns_are_read_only_views_of_the_rows(self, tmp_path):
        built = random_store(np.random.default_rng(25), 30, 8, langs=("aa", "bb"))
        path = tmp_path / "store.kds"
        save_datastore(built, path)
        for store in (built, load_datastore(path)):
            assert store.rows.dtype == store_dtype(8)
            for column in (store.keys, store.token_ids, store.sentence_ids,
                           store.timesteps, store.lang_indices):
                assert np.shares_memory(column, store.rows)
            with pytest.raises(ValueError):
                store.keys[0, 0] = 1.0
            with pytest.raises(ValueError):
                store.rows["lang"] = 0

    def test_more_cells_than_entries_not_saved(self, tmp_path):
        store = random_store(np.random.default_rng(26), 10, 8)
        spec = IndexSpec("cell-probe", n_cells=11, n_probe=1)
        oversized = vecstore.Datastore(store.rows.copy(), store.vocab_size,
                                       store.lang_codes, spec)
        path = tmp_path / "store.kds"
        with pytest.raises(InsufficientEntriesError):
            save_datastore(oversized, path)
        assert not path.exists()

    def test_invalid_lang_code_not_saved(self, tmp_path):
        # build_datastore checks its code; a store made directly may hold any
        store = random_store(np.random.default_rng(27), 10, 8)
        bad = vecstore.Datastore(store.rows.copy(), store.vocab_size, ("Bad",),
                                 store.index_spec)
        path = tmp_path / "store.kds"
        with pytest.raises(MalformedDumpError):
            save_datastore(bad, path)
        assert not path.exists()
        assert not (tmp_path / "store.manifest.json").exists()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.kds"
        path.write_bytes(b"NOTKDS" + b"\x00" * 50)
        with pytest.raises(CorruptFileError):
            load_datastore(path)

    def test_truncation_rejected(self, tmp_path):
        rng = np.random.default_rng(19)
        store = random_store(rng, 20, 8)
        path = tmp_path / "store.kds"
        save_datastore(store, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 16])
        with pytest.raises(CorruptFileError):
            load_datastore(path)

    def saved_store(self, tmp_path, seed):
        store = random_store(np.random.default_rng(seed), 20, 8, vocab_size=10)
        path = tmp_path / "store.kds"
        save_datastore(store, path)
        # KDS1 record: u32 sid, u16 ts, u32 tok, u16 lang, 8 x f32
        return path, path.read_bytes(), len(store) * (12 + 4 * 8)

    def test_token_outside_vocab_rejected_on_load(self, tmp_path):
        path, raw, payload = self.saved_store(tmp_path, 22)
        tok_at = len(raw) - payload + 6  # first record: u32 sid, u16 ts, u32 tok
        path.write_bytes(raw[:tok_at] + struct.pack("<I", 9999) + raw[tok_at + 4:])
        with pytest.raises(CorruptFileError):
            load_datastore(path)

    def test_non_finite_key_rejected_on_load(self, tmp_path):
        path, raw, payload = self.saved_store(tmp_path, 24)
        vec_at = len(raw) - payload + 12 + 4 * 3  # first record's fourth key component
        for bad in (np.nan, np.inf):
            path.write_bytes(raw[:vec_at] + struct.pack("<f", bad) + raw[vec_at + 4:])
            with pytest.raises(CorruptFileError):
                load_datastore(path)

    def test_unknown_index_kind_rejected(self, tmp_path):
        path, raw, _ = self.saved_store(tmp_path, 23)
        kind_at = len(vecstore.KDS_MAGIC) + 8  # after u32 dim and u32 vocab_size
        path.write_bytes(raw[:kind_at] + bytes([2]) + raw[kind_at + 1:])
        with pytest.raises(CorruptFileError):
            load_datastore(path)

    def test_cell_probe_spec_survives_roundtrip(self, tmp_path):
        rng = np.random.default_rng(20)
        store = random_store(rng, 80, 8, index_kind="cell-probe",
                             index_params={"n_cells": 8, "n_probe": 3})
        path = tmp_path / "store.kds"
        save_datastore(store, path)
        loaded = load_datastore(path)
        assert loaded.index_spec == IndexSpec("cell-probe", 8, 3,
                                              vecstore.DEFAULT_TRAIN_SIZE)

    def test_dump_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        header = DumpHeader(dim=6, vocab_size=30, lang="aa")
        cells = [(s, t) for s in range(5) for t in range(4)]
        vectors = [rng.normal(size=6).astype(np.float32) for _ in cells]
        tokens = [int(rng.integers(30)) for _ in cells]
        records = make_records(vectors, tokens, *zip(*cells))
        path = tmp_path / "dump.rdmp"
        assert write_dump(path, header, records) == 20
        header2, loaded = read_dump(path)
        assert header2 == header
        assert len(loaded) == 20
        for a, b in zip(records, loaded):
            assert np.array_equal(a["vec"], b["vec"])
            assert (a["tok"], a["sid"], a["ts"]) == (b["tok"], b["sid"], b["ts"])

    def test_dump_of_a_strided_view_holds_its_rows(self, tmp_path):
        records = make_records(np.arange(24).reshape(6, 4), np.arange(6), np.arange(6), 1)
        path = tmp_path / "dump.rdmp"
        write_dump(path, DumpHeader(4, 10, "aa"), records[::2])
        assert read_dump(path)[1].tobytes() == records[::2].tobytes()

    @pytest.mark.parametrize("lang", ["Bad", "", "e n"])
    def test_dump_with_invalid_lang_code_not_written(self, tmp_path, lang):
        path = tmp_path / "dump.rdmp"
        with pytest.raises(MalformedDumpError):
            write_dump(path, DumpHeader(4, 10, lang), make_records(np.zeros((1, 4)), 0, 0, 0))
        assert not path.exists()

    def test_dump_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.rdmp"
        path.write_bytes(b"XXMP1\x00" + b"\x00" * 30)
        with pytest.raises(CorruptFileError):
            read_dump(path)
