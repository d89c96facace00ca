import hashlib
import json
import os
import struct

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmt import cli, vecstore
from knnmt.align import LinearMap, load_linear_map, save_linear_map
from knnmt.vecstore import DumpHeader, load_datastore, make_records, write_dump


def run(*argv):
    return cli.main([str(a) for a in argv])


def exit_status(*argv):
    """``main``'s return value, or the status of the SystemExit argparse raises."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    code = run("gen-toy", "--out", out, "--langs", "aa,bb,cc", "--sentences", "60",
               "--test", "8", "--words", "40", "--seed", "11", "--coverage", "0.8")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def built_store(toy_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("stores")
    store_path = out / "aa.kds"
    code = run("build", "--train-src", toy_dir / "aa-en.train.aa",
               "--train-tgt", toy_dir / "aa-en.train.en",
               "--vocab", toy_dir / "vocab.txt", "--src-lang", "aa",
               "--dim", "32", "--emit-dump", out / "aa.rdmp",
               "--out", store_path)
    assert code == 0
    return store_path


@pytest.fixture(scope="module")
def default_dim_store(toy_dir, tmp_path_factory):
    """A store of the built-in --dim, for runs whose config may set the dimension."""
    store_path = tmp_path_factory.mktemp("stores") / "aa64.kds"
    assert run("build", "--train-src", toy_dir / "aa-en.train.aa",
               "--train-tgt", toy_dir / "aa-en.train.en",
               "--vocab", toy_dir / "vocab.txt", "--src-lang", "aa",
               "--out", store_path) == 0
    return store_path


class TestGenToy:
    def test_writes_expected_files(self, toy_dir):
        assert (toy_dir / "vocab.txt").exists()
        assert (toy_dir / "aa-en.train.aa").exists()
        assert (toy_dir / "aa-en.train.en").exists()
        assert (toy_dir / "bb-en.test.bb").exists()
        assert (toy_dir / "alignment.aa-bb.tsv").exists()
        assert (toy_dir / "bleu-table.tsv").exists()
        assert (toy_dir / "distances.tsv").exists()
        assert (toy_dir / "gen-toy.run.json").exists()

    def test_deterministic_given_seed(self, tmp_path):
        for sub in ("one", "two"):
            assert run("gen-toy", "--out", tmp_path / sub, "--langs", "aa,bb",
                       "--sentences", "30", "--seed", "5") == 0
        a = (tmp_path / "one" / "aa-en.train.aa").read_bytes()
        b = (tmp_path / "two" / "aa-en.train.aa").read_bytes()
        assert a == b

    @pytest.mark.parametrize("flags, message", [
        (["--langs", "AA,aa"], "invalid language code: 'AA'"),
        (["--langs", "aa", "--tgt", "../en"], "invalid language code: '../en'"),
        (["--langs", "aa,bb,aa"], "given twice"),
        (["--langs", "aa", "--tgt", "aa"], "given twice"),
        (["--langs", "aa", "--test", "-3"], "n_test must be at least 0, got -3"),
    ], ids=["bad-code", "bad-target", "repeated", "source-is-target", "negative-test-count"])
    def test_bad_or_repeated_language_exits_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "toy"
        assert run("gen-toy", "--out", out, *flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestBuild:
    def test_store_readable_and_counted(self, toy_dir, built_store):
        store = load_datastore(built_store)
        assert store.languages.keys() == {"aa"}
        # independent token count: one entry per target token plus one
        # end-of-sequence step per sentence
        lines = (toy_dir / "aa-en.train.en").read_text().splitlines()
        expected = sum(len(line.split()) + 1 for line in lines)
        assert len(store) == expected
        manifest = json.loads((built_store.parent / "aa.kds.run.json").read_text())
        assert manifest["entry_count"] == expected
        assert manifest["subcommand"] == "build"
        assert manifest["cpu_seconds"] > 0 and manifest["elapsed_seconds"] > 0

    def test_missing_file_exits_2(self, toy_dir, tmp_path, capsys):
        code = run("build", "--train-src", toy_dir / "missing.txt",
                   "--train-tgt", toy_dir / "aa-en.train.en",
                   "--vocab", toy_dir / "vocab.txt", "--src-lang", "aa",
                   "--out", tmp_path / "x.kds")
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_target_beyond_the_u16_timestep_exits_2(self, tmp_path, capsys):
        (tmp_path / "vocab.txt").write_text("<pad>\n<s>\n</s>\nx\ny\n")
        (tmp_path / "train.src").write_text("x\n")
        (tmp_path / "train.tgt").write_text(" ".join(["y"] * 65536) + "\n")
        out = tmp_path / "s.kds"
        assert run("build", "--train-src", tmp_path / "train.src",
                   "--train-tgt", tmp_path / "train.tgt", "--vocab", tmp_path / "vocab.txt",
                   "--src-lang", "xx", "--dim", "8", "--out", out) == 2
        assert "65536 tokens" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_dim_exits_2(self, toy_dir, tmp_path, capsys):
        out = tmp_path / "s.kds"
        assert run("build", "--train-src", toy_dir / "aa-en.train.aa",
                   "--train-tgt", toy_dir / "aa-en.train.en", "--vocab", toy_dir / "vocab.txt",
                   "--src-lang", "aa", "--dim", "0", "--out", out) == 2
        assert "error: feature dimension" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, config", [
        (["--index", "cell-probe", "--cells", "0"], ""),
        ([], "index=bogus\n"),  # argparse does not check a default against choices
    ], ids=["zero-cells", "config-index"])
    def test_bad_index_writes_no_dump(self, toy_dir, tmp_path, capsys, flags, config):
        conf = tmp_path / "run.conf"
        conf.write_text(config)
        dump, out = tmp_path / "d.rdmp", tmp_path / "s.kds"
        assert run("build", "--config", conf, "--train-src", toy_dir / "aa-en.train.aa",
                   "--train-tgt", toy_dir / "aa-en.train.en", "--vocab", toy_dir / "vocab.txt",
                   "--src-lang", "aa", "--dim", "8", *flags, "--emit-dump", dump,
                   "--out", out) == 2
        assert "error:" in capsys.readouterr().err
        assert not dump.exists() and not out.exists()

    def test_dump_with_emit_dump_exits_2(self, built_store, tmp_path, capsys):
        out, dump = tmp_path / "s.kds", tmp_path / "d.rdmp"
        assert run("build", "--dump", built_store.parent / "aa.rdmp", "--emit-dump", dump,
                   "--out", out) == 2
        assert "error: --emit-dump" in capsys.readouterr().err
        assert not out.exists() and not dump.exists()

    def test_build_from_dump(self, tmp_path):
        rng = np.random.default_rng(0)
        vectors = [rng.normal(size=8).astype(np.float32) for _ in range(30)]
        records = make_records(vectors, [int(rng.integers(3, 20)) for _ in range(30)],
                               np.arange(30), 0)
        dump = tmp_path / "z.rdmp"
        write_dump(dump, DumpHeader(8, 20, "zz"), records)
        out = tmp_path / "z.kds"
        assert run("build", "--dump", dump, "--out", out) == 0
        assert len(load_datastore(out)) == 30


class TestMerge:
    def test_counts_add_up(self, toy_dir, built_store, tmp_path):
        bb = tmp_path / "bb.kds"
        assert run("build", "--train-src", toy_dir / "bb-en.train.bb",
                   "--train-tgt", toy_dir / "bb-en.train.en",
                   "--vocab", toy_dir / "vocab.txt", "--src-lang", "bb",
                   "--dim", "32", "--out", bb) == 0
        merged = tmp_path / "merged.kds"
        assert run("merge", built_store, bb, "--out", merged) == 0
        total = len(load_datastore(built_store)) + len(load_datastore(bb))
        store = load_datastore(merged)
        assert len(store) == total
        assert store.languages.keys() == {"aa", "bb"}


class TestTranslate:
    def translate(self, toy_dir, out, store=None, lam="0.4", extra=()):
        argv = ["translate", "--train-src", toy_dir / "aa-en.train.aa",
                "--train-tgt", toy_dir / "aa-en.train.en",
                "--vocab", toy_dir / "vocab.txt", "--dim", "32",
                "--input", toy_dir / "aa-en.test.aa", "--output", out,
                "--lambda", lam, "-k", "4", *extra]
        if store is not None:
            argv += ["--store", store]
        return run(*argv)

    def test_lambda_zero_equals_base_only_byte_for_byte(self, toy_dir,
                                                        built_store, tmp_path):
        base_out = tmp_path / "base.txt"
        knn_out = tmp_path / "knn.txt"
        assert self.translate(toy_dir, base_out) == 0
        assert self.translate(toy_dir, knn_out, store=built_store, lam="0.0") == 0
        assert base_out.read_bytes() == knn_out.read_bytes()

    def test_same_config_reruns_identically(self, toy_dir, built_store, tmp_path):
        outs = []
        for name in ("r1.txt", "r2.txt"):
            path = tmp_path / name
            assert self.translate(toy_dir, path, store=built_store) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_neighbor_grid_emits_manifest_per_run(self, toy_dir, built_store,
                                                  tmp_path):
        for k in (16, 32, 64):
            out = tmp_path / f"k{k}.txt"
            argv = ["translate", "--train-src", toy_dir / "aa-en.train.aa",
                    "--train-tgt", toy_dir / "aa-en.train.en",
                    "--vocab", toy_dir / "vocab.txt", "--dim", "32",
                    "--input", toy_dir / "aa-en.test.aa", "--output", out,
                    "--store", built_store, "-k", str(k)]
            assert run(*argv) == 0
        manifests = sorted(tmp_path.glob("k*.txt.run.json"))
        assert len(manifests) == 3
        payload = json.loads(manifests[0].read_text())
        assert payload["tokens_per_sec"] > 0
        assert payload["config"]["k"] == 16

    def test_dim_mismatch_exits_3(self, toy_dir, built_store, tmp_path, capsys):
        out = tmp_path / "bad.txt"
        code = run("translate", "--train-src", toy_dir / "aa-en.train.aa",
                   "--train-tgt", toy_dir / "aa-en.train.en",
                   "--vocab", toy_dir / "vocab.txt", "--dim", "16",
                   "--input", toy_dir / "aa-en.test.aa", "--output", out,
                   "--store", built_store)
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_beam_flag_runs(self, toy_dir, built_store, tmp_path):
        out = tmp_path / "beam.txt"
        assert self.translate(toy_dir, out, store=built_store,
                              extra=("--beam", "4")) == 0
        assert out.read_text().strip()


class TestMapCommands:
    def test_fit_and_apply_roundtrip(self, toy_dir, built_store, tmp_path):
        bb = tmp_path / "bb.kds"
        assert run("build", "--train-src", toy_dir / "bb-en.train.bb",
                   "--train-tgt", toy_dir / "bb-en.train.en",
                   "--vocab", toy_dir / "vocab.txt", "--src-lang", "bb",
                   "--dim", "32", "--out", bb) == 0
        map_path = tmp_path / "aa-bb.klm"
        code = run("map-fit", "--src-store", built_store, "--tgt-store", bb,
                   "--alignment", toy_dir / "alignment.aa-bb.tsv",
                   "--out", map_path)
        assert code == 0
        lin_map = load_linear_map(map_path)
        assert lin_map.source_lang == "aa"
        assert lin_map.target_lang == "bb"
        mapped = tmp_path / "mapped.kds"
        assert run("map-apply", "--map", map_path, "--store", built_store,
                   "--out", mapped) == 0
        assert len(load_datastore(mapped)) == len(load_datastore(built_store))

    def test_apply_with_overflowing_map_exits_2_and_writes_nothing(self, tmp_path):
        # each mapped component is 4 * 1e38, beyond float32's largest finite value
        store_path, map_path = tmp_path / "ones.kds", tmp_path / "big.klm"
        records = make_records(np.ones((4, 4)), [3, 4, 5, 6], np.arange(4), 0)
        vecstore.save_datastore(vecstore.build_datastore(records, 10, "aa"), store_path)
        save_linear_map(LinearMap(np.ones((4, 4)) * 1e38, "aa", "aa", 0.0), map_path)
        out = tmp_path / "mapped.kds"
        assert run("map-apply", "--map", map_path, "--store", store_path,
                   "--out", out) == 2
        assert not out.exists()


@pytest.fixture(scope="module")
def cp_stores(toy_dir, tmp_path_factory):
    """Cell-probe stores of aa and bb."""
    work = tmp_path_factory.mktemp("cellprobe")
    paths = {}
    for lang in ("aa", "bb"):
        paths[lang] = work / f"{lang}.cp.kds"
        assert run("build", "--train-src", toy_dir / f"{lang}-en.train.{lang}",
                   "--train-tgt", toy_dir / f"{lang}-en.train.en",
                   "--vocab", toy_dir / "vocab.txt", "--src-lang", lang, "--dim", "32",
                   "--index", "cell-probe", "--cells", "4", "--probe", "2",
                   "--out", paths[lang]) == 0
    return paths


@pytest.fixture
def index_builds(monkeypatch):
    """The list of ``CellProbeIndex`` builds made while the test runs."""
    builds = []

    class Counted(vecstore.CellProbeIndex):
        def __init__(self, *args, **kwargs):
            builds.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(vecstore, "CellProbeIndex", Counted)
    return builds


class TestIndexBuilds:
    """Only a store that is searched builds its cell-probe index."""

    def test_merge_builds_none_and_writes_the_same_bytes(self, cp_stores, tmp_path,
                                                         index_builds):
        inputs = [cp_stores["aa"], cp_stores["bb"]]
        out = tmp_path / "m.kds"
        assert run("merge", *inputs, "--out", out) == 0
        assert len(index_builds) == 0
        reference = tmp_path / "ref.kds"
        vecstore.save_datastore(
            vecstore.merge_datastores([load_datastore(p) for p in inputs]), reference)
        assert out.read_bytes() == reference.read_bytes()

    def test_map_fit_and_apply_build_none(self, toy_dir, cp_stores, tmp_path, index_builds):
        assert run("map-fit", "--src-store", cp_stores["aa"], "--tgt-store", cp_stores["bb"],
                   "--alignment", toy_dir / "alignment.aa-bb.tsv",
                   "--out", tmp_path / "m.klm") == 0
        assert run("map-apply", "--map", tmp_path / "m.klm", "--store", cp_stores["aa"],
                   "--out", tmp_path / "mapped.kds") == 0
        assert len(index_builds) == 0

    def test_translate_with_two_stores_builds_one(self, toy_dir, cp_stores, tmp_path,
                                                  index_builds):
        merged = tmp_path / "m.kds"
        assert run("merge", cp_stores["aa"], cp_stores["bb"], "--out", merged) == 0
        outputs = []
        for stores in ([cp_stores["aa"], cp_stores["bb"]], [merged]):
            outputs.append(tmp_path / f"out{len(outputs)}.txt")
            argv = ["translate", "--train-src", toy_dir / "aa-en.train.aa",
                    "--train-tgt", toy_dir / "aa-en.train.en", "--vocab", toy_dir / "vocab.txt",
                    "--dim", "32", "--input", toy_dir / "aa-en.test.aa",
                    "--output", outputs[-1], "-k", "4"]
            for store in stores:
                argv += ["--store", store]
            del index_builds[:]
            assert run(*argv) == 0
            assert len(index_builds) == 1
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_first_load_builds_one_and_later_loads_read_it(self, cp_stores, tmp_path,
                                                          index_builds):
        path = tmp_path / "aa.cp.kds"
        path.write_bytes(cp_stores["aa"].read_bytes())  # no cell file beside it yet
        store = vecstore.read_datastore(path)
        assert len(index_builds) == 0
        store.index  # noqa: B018 - the first search builds it
        assert len(index_builds) == 1
        assert not os.path.exists(vecstore.cells_path(path))
        load_datastore(path)
        assert len(index_builds) == 2
        assert os.path.exists(vecstore.cells_path(path))
        load_datastore(path)
        assert len(index_builds) == 2
        vecstore.read_datastore(path).index  # noqa: B018 - reads ignore the cell file
        assert len(index_builds) == 3

    def _translate(self, toy_dir, store, output, *extra):
        return run("translate", "--train-src", toy_dir / "aa-en.train.aa",
                   "--train-tgt", toy_dir / "aa-en.train.en", "--vocab", toy_dir / "vocab.txt",
                   "--dim", "32", "--store", store, "--output", output, "-k", "4", *extra)

    def test_translate_records_how_the_index_was_set(self, toy_dir, cp_stores, tmp_path):
        path = tmp_path / "aa.cp.kds"
        path.write_bytes(cp_stores["aa"].read_bytes())
        seen = []
        for _ in range(2):
            output = tmp_path / "out.txt"
            assert self._translate(toy_dir, path, output,
                                   "--input", toy_dir / "aa-en.test.aa") == 0
            manifest = json.loads((tmp_path / "out.txt.run.json").read_text())
            seen.append((manifest["cell_index"], manifest["kmeans_seconds"] > 0))
        assert seen == [("built", True), ("read", False)]

    def test_translate_input_error_writes_no_cell_file(self, toy_dir, cp_stores, tmp_path):
        path = tmp_path / "aa.cp.kds"
        path.write_bytes(cp_stores["aa"].read_bytes())
        output = tmp_path / "out.txt"
        assert self._translate(toy_dir, path, output,
                               "--input", tmp_path / "missing.txt") == 2
        assert self._translate(toy_dir, path, output, "--input", toy_dir / "aa-en.test.aa",
                               "--map", tmp_path / "missing.klm") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["aa.cp.kds"]


class TestBeamBytes:
    """``translate --beam 4`` output bytes, pinned by blake2b-64 digest.

    The beam searches all its hypotheses of a step at once; the digests were
    computed when it searched them one at a time, so both ways give one output.
    """

    PINS = {"exact": "205f1bbf10a0edc8", "cell-probe": "d80661af0c5daa7c",
            "map": "83316f7d4427707b"}

    @pytest.mark.parametrize("setup", sorted(PINS))
    def test_output_bytes_are_pinned(self, toy_dir, built_store, cp_stores, tmp_path, setup):
        extra = []
        if setup == "exact":
            store = built_store
        elif setup == "cell-probe":
            store = tmp_path / "aa.cp.kds"  # a copy: the search may write its cell file
            store.write_bytes(cp_stores["aa"].read_bytes())
        else:
            store = tmp_path / "bb.kds"
            assert run("build", "--train-src", toy_dir / "bb-en.train.bb",
                       "--train-tgt", toy_dir / "bb-en.train.en",
                       "--vocab", toy_dir / "vocab.txt", "--src-lang", "bb",
                       "--dim", "32", "--out", store) == 0
            assert run("map-fit", "--src-store", built_store, "--tgt-store", store,
                       "--alignment", toy_dir / "alignment.aa-bb.tsv",
                       "--out", tmp_path / "aa-bb.klm") == 0
            extra = ["--map", tmp_path / "aa-bb.klm"]
        out = tmp_path / "beam.txt"
        assert run("translate", "--train-src", toy_dir / "aa-en.train.aa",
                   "--train-tgt", toy_dir / "aa-en.train.en",
                   "--vocab", toy_dir / "vocab.txt", "--dim", "32",
                   "--input", toy_dir / "aa-en.test.aa", "--output", out,
                   "--lambda", "0.8", "-k", "8", "--beam", "4", "--store", store,
                   *extra) == 0
        assert hashlib.blake2b(out.read_bytes(), digest_size=8).hexdigest() == self.PINS[setup]


class TestBleuCommand:
    def test_reports_score(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("the cat sat on the mat\n")
        ref.write_text("the cat sat on the mat\n")
        assert run("bleu", "--hyp", hyp, "--ref", ref, "--percent") == 0
        out = capsys.readouterr().out
        assert out.startswith("BLEU = 100.0000")

    def test_empty_reference_exits_2(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a b\n")
        ref.write_text("\n")
        assert run("bleu", "--hyp", hyp, "--ref", ref) == 2


class TestBench:
    def make_store_file(self, tmp_path, rng, n, name):
        vectors = [rng.normal(size=16).astype(np.float32) for _ in range(n)]
        records = make_records(vectors, [int(rng.integers(3, 30)) for _ in range(n)],
                               np.arange(n), 0)
        store = vecstore.build_datastore(records, 30, "xx")
        path = tmp_path / name
        vecstore.save_datastore(store, path)
        return path

    def test_table_and_verdict(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        small = self.make_store_file(tmp_path, rng, 200, "small.kds")
        large = self.make_store_file(tmp_path, rng, 4000, "large.kds")
        queries = tmp_path / "q.rdmp"
        write_dump(queries, DumpHeader(16, 30, "xx"),
                   make_records([rng.normal(size=16) for _ in range(30)], 3,
                                np.arange(30), 0))
        out = tmp_path / "bench.tsv"
        assert run("bench", small, large, "--queries", queries, "-k", "8",
                   "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "entries\ttokens_per_sec\tindex" in stdout
        assert "monotonic_speedup=" in out.read_text()

    def test_manifest_records_each_cell_index(self, tmp_path):
        rng = np.random.default_rng(4)
        exact = self.make_store_file(tmp_path, rng, 100, "exact.kds")
        records = make_records(rng.normal(size=(300, 16)), 3, np.arange(300), 0)
        probe = tmp_path / "probe.kds"
        vecstore.save_datastore(vecstore.build_datastore(
            records, 30, "xx", index_kind="cell-probe",
            index_params={"n_cells": 4, "n_probe": 2}), probe)
        queries = tmp_path / "q.rdmp"
        write_dump(queries, DumpHeader(16, 30, "xx"), records[:5])
        seen = []
        for _ in range(2):
            assert run("bench", exact, probe, "--queries", queries, "-k", "4",
                       "--out", tmp_path / "bench.tsv") == 0
            manifest = json.loads((tmp_path / "bench.tsv.run.json").read_text())
            seen.append([(s["path"], s["cell_index"], s["kmeans_seconds"] > 0)
                         for s in manifest["stores"]])
        assert seen == [[(str(exact), None, False), (str(probe), "built", True)],
                        [(str(exact), None, False), (str(probe), "read", False)]]

    def test_negative_warmup_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        small = self.make_store_file(tmp_path, rng, 50, "small.kds")
        large = self.make_store_file(tmp_path, rng, 100, "large.kds")
        queries = tmp_path / "q.rdmp"
        write_dump(queries, DumpHeader(16, 30, "xx"),
                   make_records(rng.normal(size=(5, 16)), 3, np.arange(5), 0))
        out = tmp_path / "bench.tsv"
        assert run("bench", small, large, "--queries", queries, "-k", "4",
                   "--warmup", "-1", "--out", out) == 2
        assert "error: warm-up" in capsys.readouterr().err
        assert not out.exists()

    def test_single_store_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        only = self.make_store_file(tmp_path, rng, 100, "only.kds")
        queries = tmp_path / "q.rdmp"
        write_dump(queries, DumpHeader(16, 30, "xx"),
                   make_records([rng.normal(size=16) for _ in range(5)], 3, 0, 0))
        assert run("bench", only, "--queries", queries) == 2


@pytest.fixture(scope="module")
def analyze_out(toy_dir, tmp_path_factory):
    work = tmp_path_factory.mktemp("analysis")
    dumps = []
    for lang in ("aa", "bb", "cc"):
        store = work / f"{lang}.kds"
        dump = work / f"{lang}.rdmp"
        assert run("build", "--train-src", toy_dir / f"{lang}-en.train.{lang}",
                   "--train-tgt", toy_dir / f"{lang}-en.train.en",
                   "--vocab", toy_dir / "vocab.txt", "--src-lang", lang,
                   "--dim", "32", "--emit-dump", dump, "--out", store) == 0
        dumps.append(dump)
    out = work / "reports"
    argv = ["analyze", "--bleu-table", toy_dir / "bleu-table.tsv",
            "--vocab", toy_dir / "vocab.txt",
            "--distances", toy_dir / "distances.tsv",
            "--out", out, "--shuffles", "10", "--seed", "3"]
    for dump in dumps:
        argv += ["--dump", dump]
    for lang in ("aa", "bb", "cc"):
        argv += ["--corpus", lang, toy_dir / f"{lang}-en.train.{lang}",
                 toy_dir / f"{lang}-en.train.en"]
    assert run(*argv) == 0
    return out


class TestAnalyze:
    def test_reports_exist(self, analyze_out):
        for name in ("xsim.tsv", "rtp.tsv", "features.tsv", "analysis.json",
                     "analyze.run.json"):
            assert (analyze_out / name).exists()

    def test_xsim_self_row_is_one(self, analyze_out):
        lines = (analyze_out / "xsim.tsv").read_text().splitlines()
        header = lines[0].split("\t")[1:]
        for row in lines[1:]:
            parts = row.split("\t")
            self_value = float(parts[1 + header.index(parts[0])])
            assert self_value == 1.0

    def test_summary_validates_against_schema(self, analyze_out):
        summary = json.loads((analyze_out / "analysis.json").read_text())
        jsonschema.validate(summary, cli.ANALYSIS_SCHEMA)

    def test_rtp_independent_of_dump_order(self, toy_dir, analyze_out,
                                           tmp_path_factory):
        work = tmp_path_factory.mktemp("analysis2")
        dumps = list(analyze_out.parent.glob("*.rdmp"))
        assert len(dumps) == 3
        out = work / "reports"
        argv = ["analyze", "--bleu-table", toy_dir / "bleu-table.tsv",
                "--vocab", toy_dir / "vocab.txt",
                "--distances", toy_dir / "distances.tsv",
                "--out", out, "--shuffles", "10", "--seed", "3"]
        for dump in sorted(dumps, reverse=True):  # reversed input order
            argv += ["--dump", dump]
        for lang in ("cc", "bb", "aa"):
            argv += ["--corpus", lang, toy_dir / f"{lang}-en.train.{lang}",
                     toy_dir / f"{lang}-en.train.en"]
        assert run(*argv) == 0
        first = json.loads((analyze_out / "analysis.json").read_text())
        second = json.loads((out / "analysis.json").read_text())
        assert first["rtp"] == second["rtp"]

    def test_features_tsv_columns_are_the_regression_columns(self, analyze_out):
        header = (analyze_out / "features.tsv").read_text().splitlines()[0].split("\t")
        summary = json.loads((analyze_out / "analysis.json").read_text())
        assert header[:2] == ["lang1", "lang2"] and header[-1] == "xsim"
        assert header[2:-1] == summary["regression"]["feature_names"]

    def test_report_bytes_are_pinned(self, analyze_out):
        # blake2b-64 digests of this fixture's reports; a change to any report byte
        # must update them on purpose
        expected = {"xsim.tsv": "babfbcb082c8e6b3", "rtp.tsv": "32d45500ae4f89e6",
                    "features.tsv": "1184aff07ea5f460", "analysis.json": "edec93c58f4e2fb4"}
        assert {name: hashlib.blake2b((analyze_out / name).read_bytes(),
                                      digest_size=8).hexdigest()
                for name in expected} == expected

    def test_report_bytes_without_distances_are_pinned(self, toy_dir, analyze_out, tmp_path):
        out = tmp_path / "reports"
        argv = ["analyze", "--bleu-table", toy_dir / "bleu-table.tsv",
                "--vocab", toy_dir / "vocab.txt",
                "--out", out, "--shuffles", "10", "--seed", "3"]
        for lang in ("aa", "bb", "cc"):
            argv += ["--dump", analyze_out.parent / f"{lang}.rdmp",
                     "--corpus", lang, toy_dir / f"{lang}-en.train.{lang}",
                     toy_dir / f"{lang}-en.train.en"]
        assert run(*argv) == 0
        # the five dataset columns only
        expected = {"features.tsv": "41e686d1c2147e2f", "analysis.json": "2d36d18786a18548"}
        assert {name: hashlib.blake2b((out / name).read_bytes(),
                                      digest_size=8).hexdigest()
                for name in expected} == expected

    def test_two_dumps_of_one_language_exit_2(self, toy_dir, analyze_out, tmp_path, capsys):
        dump = analyze_out.parent / "aa.rdmp"
        argv = ["analyze", "--bleu-table", toy_dir / "bleu-table.tsv",
                "--vocab", toy_dir / "vocab.txt", "--out", tmp_path / "reports",
                "--dump", dump, "--dump", analyze_out.parent / "bb.rdmp", "--dump", dump]
        for lang in ("aa", "bb"):
            argv += ["--corpus", lang, toy_dir / f"{lang}-en.train.{lang}",
                     toy_dir / f"{lang}-en.train.en"]
        assert run(*argv) == 2
        assert "duplicate dump for language 'aa'" in capsys.readouterr().err
        assert not (tmp_path / "reports" / "analysis.json").exists()

    @pytest.mark.parametrize("dumps, corpora, distances", [
        ("aa bb cc", "aa bb cc", "aa\tbb\t0.5\n"),  # too few columns
        ("aa bb", "aa bb", None),        # rank correlation needs 3 languages
        ("aa bb cc", "aa bb cc cc:bb", None),  # cc twice, the second with bb's files
        ("aa bb cc dd", "aa bb cc", None),     # a dump language without a corpus
        ("aa bb cc", "aa bb cc dd:cc", None),  # a corpus language without a dump
    ], ids=["bad-distance-row", "two-languages", "repeated-corpus", "dump-without-corpus",
            "corpus-without-dump"])
    def test_input_error_writes_nothing(self, toy_dir, analyze_out, tmp_path, capsys,
                                        dumps, corpora, distances):
        # a fourth language, dd, with cc's records and its own score row
        header, records = vecstore.read_dump(analyze_out.parent / "cc.rdmp")
        write_dump(tmp_path / "dd.rdmp", DumpHeader(header.dim, header.vocab_size, "dd"),
                   records)
        scores = tmp_path / "bleu-table.tsv"
        scores.write_text((toy_dir / "bleu-table.tsv").read_text() + "dd\t0.2\t0.3\n")
        out = tmp_path / "reports"
        argv = ["analyze", "--bleu-table", scores,
                "--vocab", toy_dir / "vocab.txt", "--out", out, "--shuffles", "2"]
        if distances is not None:
            (tmp_path / "dist.tsv").write_text(distances)
            argv += ["--distances", tmp_path / "dist.tsv"]
        for lang in dumps.split():
            folder = tmp_path if lang == "dd" else analyze_out.parent
            argv += ["--dump", folder / f"{lang}.rdmp"]
        for spec in corpora.split():  # "lang" or "lang:files_of_lang"
            lang, _, files = spec.partition(":")
            files = files or lang
            argv += ["--corpus", lang, toy_dir / f"{files}-en.train.{files}",
                     toy_dir / f"{files}-en.train.en"]
        assert run(*argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_unexpected_exception_exits_4(self, monkeypatch, tmp_path, capsys):
        def broken(args):
            raise RuntimeError("invariant violated")

        # build_parser resolves the command from module globals at call time
        monkeypatch.setattr(cli, "cmd_gen_toy", broken)
        assert cli.main(["gen-toy", "--out", str(tmp_path / "x"),
                         "--langs", "aa"]) == 4
        assert "internal error" in capsys.readouterr().err

    def test_directory_manifest_exits_2_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "toy"
        assert run("gen-toy", "--out", out, "--langs", "aa", "--manifest", tmp_path) == 2
        assert "names a directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-toy", "merge"])
    def test_directory_default_manifest_exits_2_before_any_output(self, built_store,
                                                                   tmp_path, capsys, command):
        out = tmp_path / "out"
        if command == "gen-toy":
            argv, manifest = ["--langs", "aa"], out / "gen-toy.run.json"
        else:
            argv, manifest = [built_store], tmp_path / "out.run.json"
        manifest.mkdir(parents=True)
        assert run(command, *argv, "--out", out) == 2
        assert "names a directory" in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == []

    @pytest.mark.parametrize("argv, expected", [
        (["gen-toy", "--out", "d", "--langs", "aa"], os.path.join("d", "gen-toy.run.json")),
        (["build", "--dump", "x.rdmp", "--out", "s.kds"], "s.kds.run.json"),
        (["merge", "a.kds", "--out", "m.kds"], "m.kds.run.json"),
        (["map-fit", "--src-store", "a", "--tgt-store", "b", "--alignment", "t",
          "--out", "m.klm"], "m.klm.run.json"),
        (["map-apply", "--map", "m", "--store", "a", "--out", "s.kds"], "s.kds.run.json"),
        (["translate", "--train-src", "s", "--train-tgt", "t", "--vocab", "v",
          "--input", "i", "--output", "o.txt"], "o.txt.run.json"),
        (["bleu", "--hyp", "h", "--ref", "r"], None),
        (["bleu", "--hyp", "h", "--ref", "r", "--manifest", "b.json"], "b.json"),
        (["bench", "a.kds", "--queries", "q"], None),
        (["bench", "a.kds", "--queries", "q", "--out", "b.tsv"], "b.tsv.run.json"),
        (["analyze", "--dump", "d", "--bleu-table", "b", "--corpus", "aa", "s", "t",
          "--vocab", "v", "--out", "r"], os.path.join("r", "analyze.run.json")),
    ], ids=["gen-toy", "build", "merge", "map-fit", "map-apply", "translate", "bleu",
            "bleu-manifest", "bench", "bench-out", "analyze"])
    def test_manifest_path_is_known_before_the_run(self, argv, expected):
        assert cli._manifest_path(cli.build_parser().parse_args(argv)) == expected


class TestOversizedCounts:
    """A record count beyond the file's length is corruption, not a huge read."""

    @staticmethod
    def patch_count(path, n_records, itemsize, count):
        raw = path.read_bytes()
        at = len(raw) - n_records * itemsize - 8  # u64 count precedes the records
        path.write_bytes(raw[:at] + struct.pack("<Q", count) + raw[at + 8:])

    @pytest.mark.parametrize("count", [2**40, 2**62])
    def test_store_count_exits_2(self, tmp_path, capsys, count):
        path = tmp_path / "s.kds"
        records = make_records(np.zeros((5, 4)), 1, np.arange(5), 0)
        vecstore.save_datastore(vecstore.build_datastore(records, 10, "xx"), path)
        self.patch_count(path, 5, 12 + 4 * 4, count)  # u32 sid, u16 ts, u32 tok, u16 lang
        assert run("merge", path, "--out", tmp_path / "m.kds") == 2
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [2**40, 2**62])
    def test_dump_count_exits_2(self, tmp_path, capsys, count):
        path = tmp_path / "d.rdmp"
        write_dump(path, DumpHeader(4, 10, "xx"),
                   make_records(np.zeros((5, 4)), 1, np.arange(5), 0))
        self.patch_count(path, 5, vecstore.record_dtype(4).itemsize, count)
        assert run("build", "--dump", path, "--out", tmp_path / "s.kds") == 2
        assert "truncated" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, toy_dir, built_store,
                                                    tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("k=2\nlam=0.0\nbeam=1  # comment\n")
        out_cfg = tmp_path / "cfg.txt"
        assert run("translate", "--config", config,
                   "--train-src", toy_dir / "aa-en.train.aa",
                   "--train-tgt", toy_dir / "aa-en.train.en",
                   "--vocab", toy_dir / "vocab.txt", "--dim", "32",
                   "--input", toy_dir / "aa-en.test.aa",
                   "--output", out_cfg, "--store", built_store) == 0
        manifest = json.loads((tmp_path / "cfg.txt.run.json").read_text())
        assert manifest["config"]["k"] == 2
        assert manifest["config"]["lam"] == 0.0
        out_flag = tmp_path / "flag.txt"
        assert run("translate", "--config", config,
                   "--train-src", toy_dir / "aa-en.train.aa",
                   "--train-tgt", toy_dir / "aa-en.train.en",
                   "--vocab", toy_dir / "vocab.txt", "--dim", "32",
                   "--input", toy_dir / "aa-en.test.aa",
                   "--output", out_flag, "--store", built_store,
                   "-k", "7") == 0
        manifest = json.loads((tmp_path / "flag.txt.run.json").read_text())
        assert manifest["config"]["k"] == 7

    def test_unknown_config_key_exits_2(self, toy_dir, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("bogus_key=1\n")
        code = run("bleu", "--config", config, "--hyp", "x", "--ref", "y")
        assert code == 2
        assert "unknown config" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"k 2\n",                 # no '='
        b"k=2\nlam=\xff\xfe\n",    # not UTF-8
        b"func=1\n",
        b"subcommand=x\n",
        b"dim=abc\n",             # argparse cannot convert it
        b"store=a.kds\n",         # a repeatable flag: the typed --store would append to it
        b"k=2.5\n",               # converted by -k's int, as on the command line
        b"k=true\n",
    ], ids=["no-equals", "non-utf8", "func", "subcommand", "bad-int", "repeatable",
            "float-int", "bool-int"])
    def test_bad_config_exits_2(self, toy_dir, default_dim_store, tmp_path, capsys,
                                content):
        config = tmp_path / "bad.conf"
        config.write_bytes(content)
        out = tmp_path / "out.txt"
        assert exit_status("translate", "--config", config,
                           "--train-src", toy_dir / "aa-en.train.aa",
                           "--train-tgt", toy_dir / "aa-en.train.en",
                           "--vocab", toy_dir / "vocab.txt",
                           "--input", toy_dir / "aa-en.test.aa",
                           "--store", default_dim_store, "--output", out) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, content", [
        ("gen-toy", "seed=1.0\n"),
        ("bleu", "percent=yes\n"),  # a switch takes true or false only
        ("bleu", "percent=0\n"),
    ], ids=["float-seed", "switch-yes", "switch-0"])
    def test_value_its_flag_rejects_exits_2(self, toy_dir, tmp_path, capsys, command,
                                            content):
        config = tmp_path / "bad.conf"
        config.write_text(content)
        argv = {"gen-toy": ["--out", tmp_path / "toy", "--langs", "aa"],
                "bleu": ["--hyp", toy_dir / "aa-en.test.en", "--ref", toy_dir / "aa-en.test.en"]}
        assert exit_status(command, "--config", config, *argv[command]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "BLEU" not in captured.out
        assert not (tmp_path / "toy").exists()

    def test_numeric_manifest_names_a_file(self, toy_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.conf"
        config.write_text("manifest=1\npercent=TRUE  # a switch in any case\n")
        ref = toy_dir / "aa-en.test.en"
        assert run("bleu", "--config", config, "--hyp", ref, "--ref", ref) == 0
        assert capsys.readouterr().out.startswith("BLEU = 100.0000")
        manifest = json.loads((tmp_path / "1").read_text())
        assert manifest["subcommand"] == "bleu" and manifest["config"]["percent"] is True


@pytest.fixture(scope="module")
def fuzz_argv(tmp_path_factory):
    """Each subcommand's required flags over tiny inputs (absolute paths), with its
    outputs named relative to the working directory."""
    work = tmp_path_factory.mktemp("fuzz")
    toy = work / "toy"
    assert run("gen-toy", "--out", toy, "--langs", "aa,bb,cc", "--sentences", "12",
               "--test", "2", "--words", "12", "--seed", "5") == 0
    corpus = {lang: [toy / f"{lang}-en.train.{lang}", toy / f"{lang}-en.train.en"]
              for lang in ("aa", "bb", "cc")}
    model = ["--train-src", corpus["aa"][0], "--train-tgt", corpus["aa"][1],
             "--vocab", toy / "vocab.txt"]
    for lang in ("aa", "bb", "cc"):
        assert run("build", "--train-src", corpus[lang][0], "--train-tgt", corpus[lang][1],
                   "--vocab", toy / "vocab.txt", "--src-lang", lang,
                   "--emit-dump", work / f"{lang}.rdmp", "--out", work / f"{lang}.kds") == 0
    assert run("map-fit", "--src-store", work / "aa.kds", "--tgt-store", work / "bb.kds",
               "--alignment", toy / "alignment.aa-bb.tsv", "--out", work / "ab.klm") == 0
    analyze = ["--bleu-table", toy / "bleu-table.tsv", "--vocab", toy / "vocab.txt",
               "--out", "reports"]
    for lang in ("aa", "bb", "cc"):
        analyze += ["--dump", work / f"{lang}.rdmp", "--corpus", lang, *corpus[lang]]
    argv = {
        "gen-toy": ["--out", "toy", "--langs", "aa"],
        "build": [*model, "--src-lang", "aa", "--out", "s.kds"],
        "merge": [work / "aa.kds", work / "bb.kds", "--out", "m.kds"],
        "map-fit": ["--src-store", work / "aa.kds", "--tgt-store", work / "bb.kds",
                    "--alignment", toy / "alignment.aa-bb.tsv", "--out", "m.klm"],
        "map-apply": ["--map", work / "ab.klm", "--store", work / "aa.kds", "--out", "s.kds"],
        "translate": [*model, "--store", work / "aa.kds", "--input", toy / "aa-en.test.aa",
                      "--output", "out.txt"],
        "bleu": ["--hyp", toy / "aa-en.test.en", "--ref", toy / "aa-en.test.en"],
        "bench": [work / "aa.kds", work / "bb.kds", "--queries", work / "cc.rdmp",
                  "--out", "bench.tsv"],
        "analyze": analyze,
    }
    return {command: [str(a) for a in args] for command, args in argv.items()}


def single_valued_keys(command, argv):
    """Config keys of ``command`` that name one-value flags not already on ``argv``."""
    parsed = vars(cli.build_parser().parse_args([command, *argv]))
    given = {a.lstrip("-").replace("-", "_") for a in argv if a.startswith("-")}
    return sorted(k for k, v in parsed.items()
                  if k not in given | {"func", "subcommand"} and not isinstance(v, list))


CONFIG_VALUES = st.one_of(
    st.integers(-3, 300).map(str),
    st.floats().map(repr),  # nan and inf included
    st.sampled_from(["true", "false", ""]),
    st.text("abc.", min_size=1, max_size=3),  # a short relative name
)


class TestConfigFuzz:
    """One config key set to a generated value never ends as exit 4, and exit 2
    leaves no output behind."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_exit_is_0_2_or_3_and_2_writes_nothing(self, fuzz_argv, tmp_path_factory,
                                                    data):
        command = data.draw(st.sampled_from(sorted(fuzz_argv)))
        key = data.draw(st.sampled_from(single_valued_keys(command, fuzz_argv[command])))
        value = data.draw(CONFIG_VALUES)
        cwd = tmp_path_factory.mktemp("run")
        config = cwd.parent / f"{cwd.name}.conf"
        config.write_text(f"{key}={value}\n")
        home = os.getcwd()
        os.chdir(cwd)
        try:
            code = exit_status(command, "--config", config, *fuzz_argv[command])
        finally:
            os.chdir(home)
        assert code in (0, 2, 3)
        if code == 2:
            assert list(cwd.iterdir()) == []
