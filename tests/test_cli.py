import json
import struct

import jsonschema
import numpy as np
import pytest

from knnmt import cli, vecstore
from knnmt.align import load_linear_map
from knnmt.vecstore import DumpHeader, load_datastore, make_records, write_dump


def run(*argv):
    return cli.main([str(a) for a in argv])


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

    def test_missing_file_exits_2(self, toy_dir, tmp_path, capsys):
        code = run("build", "--train-src", toy_dir / "missing.txt",
                   "--train-tgt", toy_dir / "aa-en.train.en",
                   "--vocab", toy_dir / "vocab.txt", "--src-lang", "aa",
                   "--out", tmp_path / "x.kds")
        assert code == 2
        assert "error" in capsys.readouterr().err

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

    def test_jobs_flag_preserves_order(self, toy_dir, built_store, tmp_path):
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        assert self.translate(toy_dir, serial, store=built_store) == 0
        assert self.translate(toy_dir, parallel, store=built_store,
                              extra=("--jobs", "4")) == 0
        assert serial.read_bytes() == parallel.read_bytes()

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


class TestExitCodes:
    def test_unexpected_exception_exits_4(self, monkeypatch, tmp_path, capsys):
        def broken(args):
            raise RuntimeError("invariant violated")

        # build_parser resolves the command from module globals at call time
        monkeypatch.setattr(cli, "cmd_gen_toy", broken)
        assert cli.main(["gen-toy", "--out", str(tmp_path / "x"),
                         "--langs", "aa"]) == 4
        assert "internal error" in capsys.readouterr().err


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
