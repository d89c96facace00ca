"""Single executable over the library: build/merge/align/translate/evaluate/bench.

Every run is deterministic given its inputs and seed and emits a JSON run
manifest (``_manifest_path``) recording the config, seed, timings, and
throughput. Each ``cmd_*`` returns its result fields; ``main`` checks the
manifest path before the call, times the call, in wall-clock
(``elapsed_seconds``) and CPU (``cpu_seconds``) seconds, and writes the
manifest.
Exit codes: 0 success, 2 input error, 3 incompatibility, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import align, decode, features, mteval, toygen, transfer, vecstore
from .corpus import EncodedPairs, Vocabulary, encode_pairs, load_parallel, read_sentences
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    IncompatibleStoresError,
    InsufficientEntriesError,
    KnnmtError,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCOMPATIBLE = 3
EXIT_INTERNAL = 4

_INCOMPATIBLE = (DimensionMismatchError, IncompatibleStoresError, InsufficientEntriesError)

BENCH_TEMPERATURE = 10.0
BENCH_LAMBDA = 0.5

# schema for the analyze summary JSON (documented in the README)
ANALYSIS_SCHEMA = {
    "type": "object",
    "required": ["languages", "pivot", "rtp", "regression", "spearman_rtp_vs_delta"],
    "properties": {
        "languages": {"type": "array", "items": {"type": "string"}},
        "pivot": {"type": "string"},
        "rtp": {"type": "object", "additionalProperties": {"type": "number"}},
        "regression": {
            "type": "object",
            "required": ["mean_mae", "fold_mae", "fold_langs", "feature_names",
                         "coefficients", "intercept", "importances"],
            "properties": {
                "mean_mae": {"type": "number"},
                "fold_mae": {"type": "array", "items": {"type": "number"}},
                "fold_langs": {"type": "array", "items": {"type": "string"}},
                "feature_names": {"type": "array", "items": {"type": "string"}},
                "coefficients": {"type": "object",
                                 "additionalProperties": {"type": "number"}},
                "intercept": {"type": "number"},
                "importances": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "array", "items": {"type": "number"},
                        "minItems": 2, "maxItems": 2,
                    },
                },
            },
        },
        "spearman_rtp_vs_delta": {
            "type": "object",
            "required": ["rho", "n"],
            "properties": {"rho": {"type": "number"}, "n": {"type": "integer"}},
        },
    },
}


def load_config_file(path: str) -> dict:
    """UTF-8 key=value lines ('#' comments) as {dest: text}, defaults for ``build_parser``,
    whose flags convert the text with their own types. Surrounding quotes are dropped.
    A line without '=' or a file that is not UTF-8 raises ValueError.
    """
    values = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (expected key=value): {line!r}")
            key, _, text = line.partition("=")
            text = text.strip()
            if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
                text = text[1:-1]
            values[key.strip().replace("-", "_")] = text
    return values


def _manifest_path(args: argparse.Namespace) -> str | None:
    """Where the run manifest goes: ``--manifest``, else the command's default.

    The default is ``<out>.run.json``, ``<output>.run.json`` for translate and
    ``<out>/<command>.run.json`` for gen-toy and analyze, whose ``--out`` is a
    directory. ``bleu``, and ``bench`` without ``--out``, write none.
    """
    if args.manifest:
        return args.manifest
    command = args.subcommand
    if command == "bleu" or (command == "bench" and not args.out):
        return None
    if command == "translate":
        return args.output + ".run.json"
    if command in ("gen-toy", "analyze"):
        return os.path.join(args.out, f"{command}.run.json")
    return args.out + ".run.json"


def _write_manifest(args: argparse.Namespace, target: str | None, fields: dict) -> None:
    """Write the run manifest (subcommand, config, seed, then ``fields``) to ``target``;
    a None target writes none.
    """
    if target is None:
        return
    config = {k: v for k, v in vars(args).items() if k not in ("manifest", "config")}
    payload = {"subcommand": args.subcommand,
               "config": config,
               "seed": getattr(args, "seed", None),
               **fields}
    with open(target, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def _load_model(args) -> tuple[Vocabulary, EncodedPairs, decode.ToyBaseModel]:
    """The vocabulary, the encoded training pairs and the toy model trained on them."""
    vocab = Vocabulary.from_file(args.vocab)
    pairs = encode_pairs(load_parallel(args.train_src, args.train_tgt), vocab)
    model = decode.toy_base_model(pairs, vocab_size=len(vocab), dim=args.dim)
    return vocab, pairs, model


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_toy(args) -> dict:
    spec = toygen.ToySpec(
        langs=tuple(args.langs.split(",")),
        tgt_lang=args.tgt,
        n_train=args.sentences,
        n_test=args.test,
        n_words=args.words,
        min_len=args.min_len,
        max_len=args.max_len,
        coverage=args.coverage,
        seed=args.seed,
    )
    paths = toygen.write_dataset(toygen.generate(spec), args.out)
    print(f"generated {len(spec.langs)} languages x {spec.n_train} sentences "
          f"under {args.out}")
    return {"outputs": paths}


def cmd_build(args) -> dict:
    if args.dump and args.emit_dump:
        raise ValueError("--emit-dump writes the dump of a corpus build, not of --dump")
    if args.dump:
        header, records = vecstore.read_dump(args.dump)
        vocab_size, lang = header.vocab_size, header.lang
        source_desc = args.dump
    else:
        for flag in ("train_src", "train_tgt", "vocab", "src_lang"):
            if getattr(args, flag) is None:
                raise EmptyInputError(
                    "build needs either --dump or the corpus flags "
                    "(--train-src/--train-tgt/--vocab/--src-lang)")
        vocab, pairs, model = _load_model(args)
        records = decode.trajectory_records(model, pairs)
        vocab_size, lang = len(vocab), args.src_lang
        source_desc = f"{args.train_src} -> {args.train_tgt}"
    # built before the dump is written: it checks the records and the index spec
    store = vecstore.build_datastore(
        records, vocab_size, lang, index_kind=args.index,
        index_params={"n_cells": args.cells, "n_probe": args.probe})
    if args.emit_dump:
        vecstore.write_dump(args.emit_dump,
                            vecstore.DumpHeader(args.dim, vocab_size, lang), records)
    vecstore.save_datastore(store, args.out, manifest={"corpus": source_desc})
    print(f"built datastore {args.out}: {len(store)} entries, d={store.dim}")
    return {"entry_count": len(store), "dim": store.dim, "languages": store.languages}


def cmd_merge(args) -> dict:
    stores = [vecstore.read_datastore(p) for p in args.stores]
    merged = vecstore.merge_datastores(stores)
    vecstore.save_datastore(merged, args.out,
                            manifest={"corpus": f"merge of {len(stores)} stores"})
    print(f"merged {len(stores)} stores into {args.out}: {len(merged)} entries")
    return {"entry_count": len(merged), "languages": merged.languages}


def _read_alignment(path: str) -> list[tuple[int, int]]:
    rows = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"bad alignment row: {line!r}")
            rows.append((int(parts[0]), int(parts[1])))
    return rows


def cmd_map_fit(args) -> dict:
    src_store = vecstore.read_datastore(args.src_store)
    tgt_store = vecstore.read_datastore(args.tgt_store)
    pairs = align.extract_training_pairs(src_store, tgt_store,
                                         _read_alignment(args.alignment))
    lin_map = align.fit_linear_map(pairs, ridge=args.ridge)
    align.save_linear_map(lin_map, args.out)
    print(f"fitted {lin_map.source_lang}->{lin_map.target_lang} map on "
          f"{len(pairs)} pairs (residual {lin_map.residual:.6g})")
    return {"n_pairs": len(pairs), "ridge": lin_map.ridge, "residual": lin_map.residual}


def cmd_map_apply(args) -> dict:
    store = vecstore.read_datastore(args.store)
    lin_map = align.load_linear_map(args.map)
    mapped = align.map_datastore(store, lin_map)
    vecstore.save_datastore(mapped, args.out,
                            manifest={"corpus": f"{args.store} via {args.map}"})
    print(f"mapped {len(mapped)} keys into {args.out}")
    return {"entry_count": len(mapped)}


def _cell_index_fields(store: vecstore.Datastore | None) -> dict:
    """Whether a searched store's cell index was read, built, or built but not saved
    (its cell file could not be written), and the seconds its k-means run took;
    None and 0 for an exact-scan store or none.
    """
    index = vars(store).get("index") if store is not None else None  # never built here
    if not isinstance(index, vecstore.CellProbeIndex):
        return {"cell_index": None, "kmeans_seconds": 0.0}
    return {"cell_index": index.origin, "kmeans_seconds": index.build_seconds}


def cmd_translate(args) -> dict:
    # every input is read before the store: loading one may write its cell file
    vocab, _, model = _load_model(args)
    lin_map = align.load_linear_map(args.map) if args.map else None
    cfg = decode.KnnConfig(k=args.k, lam=args.lam, temperature=args.temperature)
    sentences = read_sentences(args.input)
    encoded = [vocab.encode(s) for s in sentences]
    store = None
    if len(args.store) == 1:
        store = vecstore.load_datastore(args.store[0])
    elif args.store:  # only the merged store is searched: its index is built on warm-up
        store = vecstore.merge_datastores([vecstore.read_datastore(p) for p in args.store])

    def run(source: list[int]) -> list[int]:
        if args.beam == 1:
            return decode.decode_greedy(model, source, store=store, lin_map=lin_map,
                                        cfg=cfg, max_len=args.max_len)
        return decode.decode_beam(model, source, args.beam, store=store,
                                  lin_map=lin_map, cfg=cfg, max_len=args.max_len)

    outputs: list[list[int]] = []
    token_count = 0
    elapsed = cpu = 0.0
    if encoded:
        outputs.append(run(encoded[0]))  # warm-up batch, excluded from timing
        started, cpu_started = time.perf_counter(), time.process_time()
        outputs.extend(run(s) for s in encoded[1:])
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        token_count = sum(len(o) for o in outputs[1:])
    with open(args.output, "w", encoding="utf-8") as f:
        for out in outputs:
            f.write(" ".join(vocab.decode(out)) + "\n")
    print(f"translated {len(outputs)} sentences into {args.output}")
    # decode-only timing: model and store loading and the warm-up are excluded
    return {
        "elapsed_seconds": elapsed, "cpu_seconds": cpu, "sentences": len(outputs),
        "tokens_decoded": token_count,
        "tokens_per_sec": token_count / elapsed if elapsed > 0 else None,
        **_cell_index_fields(store)}


def cmd_bleu(args) -> dict:
    hyps = read_sentences(args.hyp)
    refs = read_sentences(args.ref)
    result = mteval.bleu(hyps, refs, smoothing=args.smoothing)
    factor = 100.0 if args.percent else 1.0
    precisions = "/".join(f"{p * factor:.4f}" for p in result.precisions)
    print(f"BLEU = {result.score * factor:.4f} {precisions} "
          f"(BP = {result.brevity_penalty:.4f}, hyp_len = {result.hyp_len}, "
          f"ref_len = {result.ref_len})")
    return {"score": result.score, "brevity_penalty": result.brevity_penalty,
            "precisions": list(result.precisions)}


@dataclass(frozen=True)
class BenchRow:
    entries: int
    tokens_per_sec: float
    index_kind: str


def bench_step(store: vecstore.Datastore, q: np.ndarray, k: int,
               base: np.ndarray) -> np.ndarray:
    """One decoded token's worth of work: retrieval, softmax, interpolation."""
    nbrs = vecstore.query(store, q, k).view(np.ndarray)
    p_knn = decode.knn_distribution(nbrs["distance"], nbrs["token_id"], BENCH_TEMPERATURE,
                                    store.vocab_size)
    return decode.interpolate(p_knn, base, BENCH_LAMBDA)


def benchmark_stores(stores: list[vecstore.Datastore],
                     queries: Sequence[np.ndarray], k: int,
                     warmup: int = 1) -> tuple[list[BenchRow], bool]:
    """Throughput per store, plus whether speed strictly falls as size grows.

    Throughput is decoded tokens (queries) per wall-clock second over the
    full retrieval + softmax + interpolation loop; the first ``warmup``
    queries are excluded from timing. A negative ``warmup`` raises ValueError.
    """
    if len(stores) < 2:
        raise EmptyInputError("benchmark needs at least two store sizes")
    if warmup < 0:
        raise ValueError(f"warm-up runs must not be negative, got {warmup}")
    if len(queries) <= warmup:
        raise EmptyInputError("benchmark needs more queries than warm-up runs")
    rows = []
    for store in stores:
        base = np.full(store.vocab_size, 1.0 / store.vocab_size)
        for q in queries[:warmup]:
            bench_step(store, q, k, base)
        started = time.perf_counter()
        for q in queries[warmup:]:
            bench_step(store, q, k, base)
        elapsed = time.perf_counter() - started
        rows.append(BenchRow(entries=len(store),
                             tokens_per_sec=(len(queries) - warmup) / elapsed,
                             index_kind=store.index_spec.kind))
    by_size = sorted(rows, key=lambda r: r.entries)
    monotone = all(by_size[i].tokens_per_sec > by_size[i + 1].tokens_per_sec
                   for i in range(len(by_size) - 1))
    return rows, monotone


def cmd_bench(args) -> dict:
    stores = [vecstore.load_datastore(p) for p in args.stores]
    _, records = vecstore.read_dump(args.queries)
    rows, monotone = benchmark_stores(stores, records["vec"], args.k, warmup=args.warmup)
    lines = ["entries\ttokens_per_sec\tindex"]
    lines += [f"{r.entries}\t{r.tokens_per_sec:.2f}\t{r.index_kind}" for r in rows]
    lines.append(f"# monotonic_speedup={'true' if monotone else 'false'}")
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(table)
    return {"monotonic_speedup": monotone,
            "table": [{"entries": r.entries, "tokens_per_sec": r.tokens_per_sec,
                       "index": r.index_kind} for r in rows],
            "stores": [{"path": path, **_cell_index_fields(store)}
                       for path, store in zip(args.stores, stores)]}


def cmd_analyze(args) -> dict:
    # every report is computed before --out is created, so an input error writes nothing
    dumpset = None
    for path in args.dump:
        header, records = vecstore.read_dump(path)
        if dumpset is None:
            dumpset = transfer.ContextDumpSet(header.dim)
        dumpset.add_records(header.lang, records)
    langs = list(dumpset.languages)
    if len(langs) < 2:
        raise EmptyInputError("analyze needs dumps for at least two languages")
    vocab = Vocabulary.from_file(args.vocab)
    corpora = {}
    for lang, src_path, tgt_path in args.corpus:
        if lang in corpora:
            raise ValueError(f"duplicate --corpus for language {lang!r}")
        pairs = encode_pairs(load_parallel(src_path, tgt_path), vocab)
        corpora[lang] = features.Corpus(lang, pairs.src, pairs.tgt)
    if sorted(corpora) != langs:
        raise ValueError(f"--dump languages {langs} and --corpus languages "
                         f"{sorted(corpora)} differ")
    sims = transfer.similarity_matrix(dumpset)
    bleu_table = transfer.BleuTable.from_file(args.bleu_table)
    rtp_values = {lang: transfer.rtp(lang, sims, bleu_table, langs, args.pivot)
                  for lang in langs}
    deltas = {lang: bleu_table.multilingual_gain(lang) for lang in langs}
    rho, n = transfer.spearman([rtp_values[l] for l in langs],
                               [deltas[l] for l in langs])

    distances = (features.load_distance_table(args.distances)
                 if args.distances else None)
    pairs, x, names = features.pair_features_table(corpora, len(vocab), distances)
    y = np.array([sims.value(lang1, lang2) for lang1, lang2 in pairs])
    report = features.predict_xsim_loo(pairs, x, y, names,
                                       n_shuffles=args.shuffles, seed=args.seed)
    summary = {
        "languages": langs,
        "pivot": args.pivot,
        "rtp": rtp_values,
        "regression": asdict(report),  # its tuples are JSON arrays
        "spearman_rtp_vs_delta": {"rho": rho, "n": n},
    }

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "xsim.tsv"), "w", encoding="utf-8") as f:
        f.write("lang\t" + "\t".join(langs) + "\n")
        for i, lang in enumerate(langs):
            row = "\t".join(f"{sims.values[i, j]:.6f}" for j in range(len(langs)))
            f.write(f"{lang}\t{row}\n")
    with open(os.path.join(args.out, "rtp.tsv"), "w", encoding="utf-8") as f:
        f.write("lang\trtp\tdelta_bleu\n")
        for lang in langs:
            f.write(f"{lang}\t{rtp_values[lang]:.6f}\t{deltas[lang]:.6f}\n")
    with open(os.path.join(args.out, "features.tsv"), "w", encoding="utf-8") as f:
        f.write("lang1\tlang2\t" + "\t".join(names) + "\txsim\n")
        for (lang1, lang2), row, target in zip(pairs, x, y):
            values = "\t".join(f"{v:.6f}" for v in row)
            f.write(f"{lang1}\t{lang2}\t{values}\t{target:.6f}\n")
    with open(os.path.join(args.out, "analysis.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"analysis reports written under {args.out} "
          f"(spearman rho={rho:.3f} over {n} languages)")
    return {"spearman_rho": rho}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The ``knnmt`` parser. ``config`` becomes every subcommand's defaults, so a typed
    flag beats it, it beats a built-in default, and argparse converts its strings.
    """
    parser = argparse.ArgumentParser(
        prog="knnmt",
        description="retrieval-augmented translation datastores and transfer analysis")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--config", default=None,
                       help="key=value config file; flags override file values")
        p.add_argument("--manifest", default=None,
                       help="override the run-manifest path")
        return p

    p = common(sub.add_parser("gen-toy", help="generate a seeded synthetic dataset"))
    p.add_argument("--out", required=True)
    p.add_argument("--langs", required=True, help="comma-separated source languages")
    p.add_argument("--tgt", default="en")
    p.add_argument("--sentences", type=int, default=200)
    p.add_argument("--test", type=int, default=20)
    p.add_argument("--words", type=int, default=50)
    p.add_argument("--min-len", type=int, default=3)
    p.add_argument("--max-len", type=int, default=9)
    p.add_argument("--coverage", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)

    p = common(sub.add_parser("build", help="build a datastore from a corpus or dump"))
    p.add_argument("--dump", default=None, help="ingest an existing RDMP1 dump")
    p.add_argument("--train-src", default=None)
    p.add_argument("--train-tgt", default=None)
    p.add_argument("--vocab", default=None)
    p.add_argument("--src-lang", default=None)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--index", choices=["exact-scan", "cell-probe"],
                   default="exact-scan")
    p.add_argument("--cells", type=int, default=64)
    p.add_argument("--probe", type=int, default=8)
    p.add_argument("--emit-dump", default=None,
                   help="also write the trajectory dump as RDMP1 (corpus builds only)")
    p.add_argument("--out", required=True)

    p = common(sub.add_parser("merge", help="merge datastores"))
    p.add_argument("stores", nargs="+")
    p.add_argument("--out", required=True)

    p = common(sub.add_parser("map-fit", help="fit a cross-lingual linear map"))
    p.add_argument("--src-store", required=True)
    p.add_argument("--tgt-store", required=True)
    p.add_argument("--alignment", required=True,
                   help="TSV of sentence_id_src<TAB>sentence_id_tgt")
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--out", required=True)

    p = common(sub.add_parser("map-apply", help="map every key of a datastore"))
    p.add_argument("--map", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)

    p = common(sub.add_parser("translate", help="decode with optional retrieval"))
    p.add_argument("--train-src", required=True)
    p.add_argument("--train-tgt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--store", action="append", default=[],
                   help="datastore file; repeat to merge several")
    p.add_argument("--map", default=None)
    p.add_argument("-k", type=int, default=16)
    p.add_argument("--lambda", dest="lam", type=float, default=0.4)
    p.add_argument("--temperature", type=float, default=10.0)
    p.add_argument("--beam", type=int, default=1)
    p.add_argument("--max-len", type=int, default=32)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = common(sub.add_parser("bleu", help="corpus BLEU over tokenized files"))
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--smoothing", choices=["exp", "none"], default="exp")
    p.add_argument("--percent", action="store_true",
                   help="render on the 0-100 scale")

    p = common(sub.add_parser("bench", help="size-vs-speed retrieval benchmark"))
    p.add_argument("stores", nargs="+")
    p.add_argument("--queries", required=True, help="RDMP1 dump of query vectors")
    p.add_argument("-k", type=int, default=64)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--out", default=None)

    p = common(sub.add_parser("analyze", help="xsim/RTP/features/regression reports"))
    p.add_argument("--dump", action="append", required=True,
                   help="RDMP1 context dump; repeat per language")
    p.add_argument("--bleu-table", required=True)
    p.add_argument("--corpus", action="append", nargs=3, required=True,
                   metavar=("LANG", "SRC", "TGT"))
    p.add_argument("--vocab", required=True)
    p.add_argument("--distances", default=None)
    p.add_argument("--pivot", default="en")
    p.add_argument("--shuffles", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    for p in sub.choices.values():  # after add_argument: its default= would win otherwise
        p.set_defaults(**(config or {}))
    return parser


@functools.cache
def _plain_parser() -> argparse.ArgumentParser:
    """``build_parser()`` with no config, built once per process: parsing leaves it as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _plain_parser().parse_args(argv)
    try:
        if args.config:
            config = load_config_file(args.config)
            # unknown (no attribute) or list-valued: a typed list flag would append to the file's
            unknown = [k for k in config
                       if k == "subcommand" or isinstance(getattr(args, k, []), list)]
            if unknown:
                raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
            for key, text in config.items():
                if isinstance(getattr(args, key), bool):  # a switch has no type to convert
                    if text.lower() not in ("true", "false"):
                        raise ValueError(f"config key {key!r} is a switch: "
                                         f"expected true or false, got {text!r}")
                    config[key] = text.lower() == "true"
            args = build_parser(config).parse_args(argv)
        manifest = _manifest_path(args)
        if manifest and os.path.isdir(manifest):  # before any output is written
            raise IsADirectoryError(f"the run manifest path names a directory: {manifest}")
        started, cpu_started = time.perf_counter(), time.process_time()
        # looked up now, not when the parser was built
        fields = globals()["cmd_" + args.subcommand.replace("-", "_")](args)
        _write_manifest(args, manifest,
                        {"elapsed_seconds": time.perf_counter() - started,
                         "cpu_seconds": time.process_time() - cpu_started, **fields})
        return EXIT_OK
    except _INCOMPATIBLE as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (KnnmtError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - invariant violations exit 4
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
