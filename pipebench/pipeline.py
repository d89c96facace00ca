"""The measured pipeline: setup, then whole rounds of identical operations.

Every operation is issued one at a time (a closed loop with one client) and
timed from outside the program. Offline commands go through the CLI entry
point (``knnmt.cli.main``); translation goes through the public functions of
``corpus``, ``decode``, ``vecstore`` and ``mteval``, so that the decode loop
alone is timed, as the ``translate`` manifest does. All paths are relative to
the run's work directory, so outputs are byte-identical across rounds and
across runs with the same seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from knnmt import cli, corpus, decode, mteval, vecstore

from workloads import Workload

DATA = "data"
OUT = "out"
DECODE_KINDS = ("greedy", "cellprobe", "beam")


@dataclass
class Op:
    """One attempted operation and, once checked, why it failed (if it did)."""

    round: int
    name: str
    error: str | None = None
    wrong: bool = False  # set by a failed output check, not by a program error


@dataclass
class Round:
    ops: dict[str, Op] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, list[list[int]]] = field(default_factory=dict)
    bleu: float | None = None


def file_digest(path: str) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digests(root: str) -> dict[str, str]:
    """Digest of every output file under root, except timing manifests."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(".run.json"):
                continue  # wall-clock timings, never byte-stable
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = file_digest(path)
    return out


def emitted_tokens(out: list[int], max_len: int) -> int:
    """Tokens generated for one sentence, the end-of-sentence token included."""
    return len(out) + (1 if len(out) < max_len else 0)


class Pipeline:
    """Runs one workload's setup and rounds inside the current directory.

    ``times`` maps each repeated operation (a command, a load pass, one
    sentence's decoding) to its durations, one per repetition.
    """

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.rounds: list[Round] = []
        self.times: dict[str, list[float]] = defaultdict(list)
        self.setup_s: list[float] = []
        self.setup_ops: list[Op] = []
        self.setup_digests: list[dict[str, str]] = []
        self.entries: dict[str, int] = {}
        self.loaded = None  # (model, exact store, cell-probe store, test sources)
        self.on_round = None  # tracer hook, called with the round number

    # ----------------------------------------------------------- paths
    def train(self, lang: str) -> tuple[str, str]:
        return (f"{DATA}/{lang}-en.train.{lang}", f"{DATA}/{lang}-en.train.en")

    def test(self) -> tuple[str, str]:
        lang = self.wl.pivot
        return (f"{DATA}/{lang}-en.test.{lang}", f"{DATA}/{lang}-en.test.en")

    def alignment(self, lang: str) -> str:
        """sentence_id(lang) -> sentence_id(pivot), as map-fit expects."""
        return f"{DATA}/align.{lang}-to-{self.wl.pivot}.tsv"

    def translate_stores(self) -> tuple[str, str]:
        if self.wl.multilingual:
            return f"{OUT}/merged.kds", f"{OUT}/merged.cp.kds"
        lang = self.wl.pivot
        return f"{OUT}/{lang}.kds", f"{OUT}/{lang}.cp.kds"

    # ----------------------------------------------------------- metrics
    def robust_seconds(self, prefixes: tuple[str, ...]) -> float:
        """One repetition's time: per operation, the median over its repetitions, summed."""
        return sum(statistics.median(v) for k, v in self.times.items()
                   if k.startswith(prefixes))

    def tokens(self, kind: str) -> int:
        """Tokens one round decodes with this kind of decoding."""
        return sum(emitted_tokens(out, self.wl.max_len) for out in self.rounds[-1].outputs[kind])

    # ----------------------------------------------------------- setup
    def setup(self) -> None:
        """Generate the corpora and prepare inputs, ``setups`` times over."""
        wl = self.wl
        for i in range(wl.setups):
            op = Op(-1, f"setup:{i}")
            self.setup_ops.append(op)
            started = time.perf_counter()
            code, err = self._cli([
                "gen-toy", "--out", DATA, "--langs", ",".join(wl.langs),
                "--sentences", str(wl.sentences), "--test", str(wl.test_sentences),
                "--words", str(wl.words), "--min-len", str(wl.min_len),
                "--max-len", str(wl.max_sent_len), "--seed", str(self.seed)])
            if code != 0:
                op.error = f"exit {code}: {err}"
                continue
            for lang in wl.langs[1:]:
                with open(f"{DATA}/alignment.{wl.pivot}-{lang}.tsv", encoding="utf-8") as f:
                    rows = [line.split() for line in f if line.strip()]
                with open(self.alignment(lang), "w", encoding="utf-8") as f:
                    f.writelines(f"{b}\t{a}\n" for a, b in rows)
            self.setup_s.append(time.perf_counter() - started)
            self.setup_digests.append(tree_digests(DATA))
        for lang in wl.langs:
            with open(self.train(lang)[1], encoding="utf-8") as f:
                self.entries[lang] = sum(len(line.split()) + 1 for line in f)

    # ----------------------------------------------------------- rounds
    def run_round(self) -> Round:
        """Build, merge, then interleave load passes, decoding and offline passes."""
        wl = self.wl
        rnd = Round(outputs={kind: [] for kind in DECODE_KINDS})
        self.rounds.append(rnd)
        if self.on_round is not None:
            self.on_round(len(self.rounds) - 1)
        os.makedirs(OUT, exist_ok=True)

        for lang in wl.langs:
            src, tgt = self.train(lang)
            self._timed_cli(rnd, f"build:{lang}", [
                "build", "--train-src", src, "--train-tgt", tgt,
                "--vocab", f"{DATA}/vocab.txt", "--src-lang", lang,
                "--dim", str(wl.dim), "--out", f"{OUT}/{lang}.kds",
                "--emit-dump", f"{OUT}/{lang}.rdmp"])
        for lang in wl.langs:
            self._timed_cli(rnd, f"build-cp:{lang}", [
                "build", "--dump", f"{OUT}/{lang}.rdmp", "--index", "cell-probe",
                "--cells", str(wl.cells), "--probe", str(wl.probe),
                "--out", f"{OUT}/{lang}.cp.kds"])
        self._timed_cli(rnd, "merge", [
            "merge", *[f"{OUT}/{lang}.kds" for lang in wl.langs],
            "--out", f"{OUT}/merged.kds"])
        self._timed_cli(rnd, "merge-cp", [
            "merge", *[f"{OUT}/{lang}.cp.kds" for lang in wl.langs],
            "--out", f"{OUT}/merged.cp.kds"])

        offline = ["align"] * wl.align_passes + ["analyze"] * wl.analyze_passes
        sentences = {"greedy": wl.greedy_sentences, "cellprobe": wl.cellprobe_sentences,
                     "beam": wl.beam_sentences}
        for c in range(wl.chunks):
            self._load(rnd, c)
            for kind, n in sentences.items():
                self._decode(rnd, kind, _chunk(list(range(n)), c, wl.chunks))
            for p, kind in enumerate(offline):
                if p % wl.chunks == c:
                    if kind == "align":
                        self._align(rnd, p)
                    else:
                        self._analyze(rnd, p)
        self._bleu(rnd)
        rnd.digests = tree_digests(OUT)
        return rnd

    def _align(self, rnd: Round, p: int) -> None:
        pivot = self.wl.pivot
        for lang in self.wl.langs[1:]:
            self._timed_cli(rnd, f"map-fit:{lang}:{p}", [
                "map-fit", "--src-store", f"{OUT}/{lang}.kds",
                "--tgt-store", f"{OUT}/{pivot}.kds",
                "--alignment", self.alignment(lang), "--out", f"{OUT}/{lang}.klm"])
            self._timed_cli(rnd, f"map-apply:{lang}:{p}", [
                "map-apply", "--map", f"{OUT}/{lang}.klm",
                "--store", f"{OUT}/{lang}.kds", "--out", f"{OUT}/{lang}.mapped.kds"])

    def _analyze(self, rnd: Round, p: int) -> None:
        argv = ["analyze"]
        for lang in self.wl.langs:
            argv += ["--dump", f"{OUT}/{lang}.rdmp"]
        for lang in self.wl.langs:
            argv += ["--corpus", lang, *self.train(lang)]
        argv += ["--bleu-table", f"{DATA}/bleu-table.tsv", "--vocab", f"{DATA}/vocab.txt",
                 "--distances", f"{DATA}/distances.tsv", "--out", f"{OUT}/reports"]
        self._timed_cli(rnd, f"analyze:{p}", argv)

    def _load(self, rnd: Round, c: int) -> None:
        """Translate start-up: corpus, toy model, exact and cell-probe stores."""
        op = self._op(rnd, f"load:{c}")
        exact_path, cp_path = self.translate_stores()
        started = time.perf_counter()
        try:
            vocab = corpus.Vocabulary.from_file(f"{DATA}/vocab.txt")
            pairs = corpus.encode_pairs(corpus.load_parallel(*self.train(self.wl.pivot)), vocab)
            model = decode.toy_base_model(pairs, vocab_size=len(vocab), dim=self.wl.dim)
            exact = vecstore.load_datastore(exact_path)
            cp = vecstore.load_datastore(cp_path)
            sources = [vocab.encode(s) for s in corpus.read_sentences(self.test()[0])]
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
            self.loaded = None
        else:
            self.loaded = (model, exact, cp, sources)
        self.times["load"].append(time.perf_counter() - started)

    def _decode(self, rnd: Round, kind: str, sentences: list[int]) -> None:
        wl = self.wl
        cfg = decode.KnnConfig(k=wl.k, lam=wl.lam, temperature=wl.temperature)
        for i in sentences:
            op = self._op(rnd, f"{kind}:{i}")
            if self.loaded is None:
                op.error = "translate start-up failed"
                rnd.outputs[kind].append([])
                continue
            model, exact, cp, sources = self.loaded
            started = time.perf_counter()
            try:
                if kind == "beam":
                    out = decode.decode_beam(model, sources[i], wl.beam, store=exact,
                                             cfg=cfg, max_len=wl.max_len)
                else:
                    out = decode.decode_greedy(model, sources[i],
                                               store=exact if kind == "greedy" else cp,
                                               cfg=cfg, max_len=wl.max_len)
            except Exception as exc:  # noqa: BLE001
                op.error = f"{type(exc).__name__}: {exc}"
                out = []
            self.times[op.name].append(time.perf_counter() - started)
            rnd.outputs[kind].append(out)

    def _bleu(self, rnd: Round) -> None:
        op = self._op(rnd, "bleu")
        try:
            vocab = corpus.Vocabulary.from_file(f"{DATA}/vocab.txt")
            refs = corpus.read_sentences(self.test()[1])
            hyps = [vocab.decode(out) for out in rnd.outputs["greedy"]]
            rnd.bleu = 100.0 * mteval.bleu(hyps, refs[:len(hyps)]).score
        except Exception as exc:  # noqa: BLE001
            op.error = f"{type(exc).__name__}: {exc}"

    # ----------------------------------------------------------- CLI
    def _op(self, rnd: Round, name: str) -> Op:
        op = rnd.ops[name] = Op(len(self.rounds) - 1, name)
        return op

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue().strip()

    def _timed_cli(self, rnd: Round, name: str, argv: list[str]) -> None:
        """Run one command; its time is kept under its name without the pass number."""
        op = self._op(rnd, name)
        started = time.perf_counter()
        code, err = self._cli(argv)
        elapsed = time.perf_counter() - started
        if code != 0:
            op.error = f"exit {code}: {err}"
        key = name.rsplit(":", 1)[0] if name.startswith(("map-", "analyze")) else name
        self.times[key].append(elapsed)


def _chunk(items: list[int], c: int, chunks: int) -> list[int]:
    """The c-th of ``chunks`` contiguous, near-equal slices of items."""
    lo = len(items) * c // chunks
    hi = len(items) * (c + 1) // chunks
    return items[lo:hi]
