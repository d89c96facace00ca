"""Tests for the benchmark itself: a tiny smoke workload, and one planted
wrong answer per output check, which that check must reject.

Run from the repository root:  python3 -m pytest -q pipebench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from pipeline import OUT, Pipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "pipebench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two rounds of the smoke workload, outputs of the last round kept on disk."""
    work = tmp_path_factory.mktemp("smoke")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        pipe = Pipeline(WORKLOADS["smoke"], seed=3)
        pipe.setup()
        pipe.run_round()
        pipe.run_round()
        ops = checks.check_run(pipe)
    finally:
        os.chdir(cwd)
    return pipe, ops, work


# ------------------------------------------------------------------ whole runs

@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric(trace, section):
    proc = run_bench("--workload", "smoke", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for entry in SPEC[section]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float) and metric["value"] >= 0.0


def test_same_seed_runs_give_identical_outputs():
    digests = []
    for _ in range(2):
        proc = run_bench("--workload", "smoke", "--seed", "5", "--seconds", "0.5")
        assert proc.returncode == 0, proc.stderr
        summary = proc.stdout.strip().splitlines()[-2]
        digests.append(summary.split("output_digest=")[1])
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = run_bench("--workload", "smoke", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# ------------------------------------------------------------------ the smoke rounds

def test_smoke_rounds_pass_every_check(smoke):
    pipe, ops, _ = smoke
    assert [op for op in ops if op.error] == []
    assert len(pipe.rounds) == 2
    assert pipe.rounds[0].digests == pipe.rounds[1].digests


def _parsed(work: Path, name: str) -> dict:
    return checks.read_kds(str(work / OUT / name))


def test_store_check_rejects_a_changed_token(smoke):
    pipe, _, work = smoke
    vocab = checks.read_vocab(str(work / "data/vocab.txt"))
    targets = checks.read_ids(str(work / pipe.train("aa")[1]), vocab)
    store = _parsed(work, "aa.kds")
    assert checks.check_store_contents(store, "aa", targets, len(vocab), 64) is None
    store["tok"] = store["tok"].copy()
    store["tok"][3] = (store["tok"][3] + 1) % len(vocab)
    assert "tok column" in checks.check_store_contents(store, "aa", targets, len(vocab), 64)


def test_store_check_rejects_a_non_unit_key(smoke):
    pipe, _, work = smoke
    vocab = checks.read_vocab(str(work / "data/vocab.txt"))
    targets = checks.read_ids(str(work / pipe.train("aa")[1]), vocab)
    store = _parsed(work, "aa.kds")
    store["vec"] = store["vec"] * np.float32(1.01)
    assert "L2 norm" in checks.check_store_contents(store, "aa", targets, len(vocab), 64)


def test_merge_check_rejects_reordered_inputs(smoke):
    _, _, work = smoke
    parts = [_parsed(work, f"{lang}.kds") for lang in ("aa", "bb", "cc")]
    merged = _parsed(work, "merged.kds")
    assert checks.check_merge(merged, parts) is None
    assert checks.check_merge(merged, [parts[1], parts[0], parts[2]]) is not None


def test_search_check_rejects_a_swapped_neighbour():
    rng = np.random.default_rng(0)
    keys = rng.normal(size=(500, 8)).astype(np.float32)
    keys[10] = keys[3]  # an exact tie
    q = keys[3].astype(np.float64) + 0.01
    k = 6
    d = checks.naive_distances(keys, q)
    idx = np.lexsort((np.arange(d.size), d))[:k]
    assert checks.check_neighbors(idx, d[idx], d, k, exact=True) is None
    far = int(np.argmax(d))
    swapped = idx.copy()
    swapped[-1] = far
    assert checks.check_neighbors(swapped, d[swapped], d, k, exact=True) is not None
    reordered = idx.copy()
    reordered[[2, 3]] = reordered[[3, 2]]
    assert checks.check_neighbors(reordered, d[reordered], d, k, exact=True) is not None
    assert list(idx[:2]) == [3, 10]
    tie_flipped = idx.copy()
    tie_flipped[[0, 1]] = tie_flipped[[1, 0]]
    assert "tie" in checks.check_neighbors(tie_flipped, d[tie_flipped], d, k, exact=True)
    wrong_distance = d[idx].copy()
    wrong_distance[0] += 1e-6
    assert "distance" in checks.check_neighbors(idx, wrong_distance, d, k, exact=False)


def test_map_fit_check_rejects_a_perturbed_matrix(smoke):
    pipe, _, work = smoke
    with open(work / pipe.alignment("bb"), encoding="utf-8") as f:
        alignment = [tuple(int(v) for v in line.split()) for line in f]
    src, tgt = _parsed(work, "bb.kds"), _parsed(work, "aa.kds")
    klm = checks.read_klm(str(work / OUT / "bb.klm"))
    assert checks.check_map_fit(klm, src, tgt, "bb", "aa", alignment) is None
    x, _ = checks.repaired_rows(src, tgt, alignment)
    active = int(np.argmax(np.abs(x).sum(axis=0)))  # a column the data constrains
    bent = dict(klm, matrix=klm["matrix"].copy())
    bent["matrix"][0, active] += np.float32(1e-3)
    assert "normal-equation" in checks.check_map_fit(bent, src, tgt, "bb", "aa", alignment)


def test_map_apply_check_rejects_a_shifted_key(smoke):
    _, _, work = smoke
    src = _parsed(work, "bb.kds")
    klm = checks.read_klm(str(work / OUT / "bb.klm"))
    mapped = _parsed(work, "bb.mapped.kds")
    assert checks.check_map_apply(mapped, src, klm) is None
    mapped["vec"] = mapped["vec"].copy()
    mapped["vec"][5, 0] += np.float32(1e-4)
    assert "mapped key 5" in checks.check_map_apply(mapped, src, klm)


def test_analysis_check_rejects_a_shifted_xsim_value(smoke, tmp_path):
    _, _, work = smoke
    dumps = {lang: checks.read_rdmp(str(work / OUT / f"{lang}.rdmp")) for lang in ("aa", "bb", "cc")}
    table = str(work / "data/bleu-table.tsv")
    reports = tmp_path / "reports"
    shutil.copytree(work / OUT / "reports", reports)
    assert checks.check_analysis(str(reports), dumps, table) is None
    rows = (reports / "xsim.tsv").read_text().splitlines()
    cells = rows[1].split("\t")
    cells[2] = f"{float(cells[2]) + 1e-4:.6f}"
    rows[1] = "\t".join(cells)
    (reports / "xsim.tsv").write_text("\n".join(rows) + "\n")
    assert "xsim(aa,bb)" in checks.check_analysis(str(reports), dumps, table)


def test_decode_check_rejects_a_changed_token(smoke):
    pipe, _, _ = smoke
    model, exact, _, sources = pipe.loaded
    wl = pipe.wl
    ref = checks.ReferenceDecoder(model, exact.keys, exact.token_ids, exact.vocab_size,
                                  wl.k, wl.lam, wl.temperature)
    for i, got in enumerate(pipe.rounds[-1].outputs["greedy"]):
        want = ref.greedy(sources[i], wl.max_len)
        assert checks.check_tokens(got, want) is None
    beam_out = pipe.rounds[-1].outputs["beam"][0]
    assert checks.check_tokens(beam_out, ref.beam(sources[0], wl.beam, wl.max_len)) is None
    changed = list(want) or [5]
    changed[0] = changed[0] + 1
    assert checks.check_tokens(changed, want) is not None


def test_reference_bleu_matches_the_program_and_rejects_another_score():
    from knnmt import mteval

    rng = np.random.default_rng(1)
    hyps = [list(rng.integers(0, 6, size=rng.integers(1, 9))) for _ in range(30)]
    refs = [list(rng.integers(0, 6, size=rng.integers(1, 9))) for _ in range(30)]
    assert abs(checks.reference_bleu(hyps, refs) - mteval.bleu(hyps, refs).score) < 1e-12
    assert abs(checks.reference_bleu(hyps[1:], refs[1:]) - mteval.bleu(hyps, refs).score) > 1e-9


def test_cross_round_check_marks_a_differing_round(smoke, monkeypatch):
    pipe, _, work = smoke
    monkeypatch.chdir(work)
    for op in (op for rnd in pipe.rounds for op in rnd.ops.values()):
        op.error, op.wrong = None, False
    pipe.rounds[0].outputs["greedy"][0] = [*pipe.rounds[0].outputs["greedy"][0], 7]
    pipe.rounds[0].digests = dict(pipe.rounds[0].digests, **{"merged.kds": "0"})
    try:
        ops = checks.check_run(pipe)
    finally:
        pipe.rounds[0].outputs["greedy"][0].pop()
        pipe.rounds[0].digests = dict(pipe.rounds[1].digests)
    failed = {(op.round, op.name) for op in ops if op.error}
    assert failed == {(0, "greedy:0"), (0, "merge")}
    assert all(op.wrong for op in ops if op.error)
