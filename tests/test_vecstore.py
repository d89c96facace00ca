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
    provenance_stats,
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


class TestProvenance:
    def test_single_language_degenerate(self):
        rng = np.random.default_rng(12)
        store = random_store(rng, 20, 8)
        stats = provenance_stats(store, [(rng.normal(size=8), 3)])
        assert stats["xx"].p_obs == 1.0
        assert stats["xx"].p_uni == 1.0
        assert stats["xx"].ratio == 1.0

    def test_constructed_geometry(self):
        rng = np.random.default_rng(13)
        near = rng.normal(scale=0.1, size=(90, 8)).astype(np.float32)
        far = (rng.normal(scale=0.1, size=(10, 8)) + 100.0).astype(np.float32)
        store = merge_datastores([
            build_datastore(make_records(near, 0, np.arange(90), 0), 5, "aa"),
            build_datastore(make_records(far, 0, 90 + np.arange(10), 0), 5, "bb")])
        queries = [(rng.normal(scale=0.1, size=8), 1) for _ in range(40)]
        stats = provenance_stats(store, queries)
        assert stats["aa"].p_obs == 1.0
        assert stats["aa"].ratio == pytest.approx(1.0 / 0.9)
        assert stats["bb"].p_obs == 0.0

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(14)
        store = random_store(rng, 60, 8, langs=("aa", "bb", "cc"))
        stats = provenance_stats(store, [(rng.normal(size=8), 4) for _ in range(25)])
        assert sum(s.p_obs for s in stats.values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(s.p_uni for s in stats.values()) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_self_queries_give_unit_ratio(self):
        rng = np.random.default_rng(15)
        store = random_store(rng, 40, 8, langs=("aa", "bb"))
        queries = [(store.keys[i], 1) for i in range(len(store))]
        stats = provenance_stats(store, queries)
        for s in stats.values():
            assert s.ratio == pytest.approx(1.0)

    def test_zero_queries(self):
        rng = np.random.default_rng(16)
        with pytest.raises(EmptyInputError):
            provenance_stats(random_store(rng, 5, 8), [])


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

    def test_dump_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.rdmp"
        path.write_bytes(b"XXMP1\x00" + b"\x00" * 30)
        with pytest.raises(CorruptFileError):
            read_dump(path)
