"""Single executable over the library: build/merge/align/translate/evaluate/bench.

Every run is deterministic given its inputs and seed and emits a JSON run
manifest (``<output>.run.json`` unless overridden) recording the config,
seed, timings, and throughput. Each ``cmd_*`` returns its default manifest
path and its result fields; ``main`` times the call and writes the manifest.
Exit codes: 0 success, 2 input error, 3 incompatibility, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import align, decode, features, mteval, toygen, transfer, vecstore
from .corpus import Vocabulary, encode_pairs, load_parallel, read_sentences
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


def _coerce(raw: str):
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def load_config_file(path: str) -> dict:
    """Plain key=value config; '#' starts a comment, flags override these."""
    values = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (expected key=value): {line!r}")
            key, _, raw = line.partition("=")
            values[key.strip().replace("-", "_")] = _coerce(raw)
    return values


def _write_manifest(args: argparse.Namespace, default: str | None, fields: dict) -> None:
    """Write the run manifest (subcommand, config, seed, then ``fields``).

    ``--manifest`` overrides the command's default path; with neither, no
    manifest is written.
    """
    target = args.manifest or default
    if target is None:
        return
    config = {k: v for k, v in vars(args).items()
              if k not in ("func", "manifest", "config")}
    payload = {"subcommand": args.func.__name__.removeprefix("cmd_").replace("_", "-"),
               "config": config,
               "seed": getattr(args, "seed", None),
               **fields}
    with open(target, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def _load_model(args) -> tuple[Vocabulary, decode.ToyBaseModel]:
    vocab = Vocabulary.from_file(args.vocab)
    pairs = encode_pairs(load_parallel(args.train_src, args.train_tgt), vocab)
    model = decode.toy_base_model(pairs, vocab_size=len(vocab), dim=args.dim)
    return vocab, model


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_toy(args) -> tuple[str | None, dict]:
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
    return os.path.join(args.out, "gen-toy.run.json"), {"outputs": paths}


def cmd_build(args) -> tuple[str | None, dict]:
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
        vocab, model = _load_model(args)
        pairs = encode_pairs(load_parallel(args.train_src, args.train_tgt), vocab)
        records = np.concatenate([decode.trajectory_records(model, src, tgt, sid)
                                  for sid, (src, tgt) in enumerate(pairs)])
        vocab_size, lang = len(vocab), args.src_lang
        source_desc = f"{args.train_src} -> {args.train_tgt}"
        if args.emit_dump:
            vecstore.write_dump(args.emit_dump,
                                vecstore.DumpHeader(args.dim, vocab_size, lang), records)
    store = vecstore.build_datastore(
        records, vocab_size, lang, index_kind=args.index,
        index_params={"n_cells": args.cells, "n_probe": args.probe})
    vecstore.save_datastore(store, args.out,
                            manifest={"tokenizer": "whitespace", "corpus": source_desc})
    print(f"built datastore {args.out}: {len(store)} entries, d={store.dim}")
    return args.out + ".run.json", {"entry_count": len(store), "dim": store.dim,
                                    "languages": store.languages}


def cmd_merge(args) -> tuple[str | None, dict]:
    stores = [vecstore.load_datastore(p) for p in args.stores]
    merged = vecstore.merge_datastores(stores)
    vecstore.save_datastore(merged, args.out,
                            manifest={"tokenizer": "whitespace",
                                      "corpus": f"merge of {len(stores)} stores"})
    print(f"merged {len(stores)} stores into {args.out}: {len(merged)} entries")
    return args.out + ".run.json", {"entry_count": len(merged),
                                    "languages": merged.languages}


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


def cmd_map_fit(args) -> tuple[str | None, dict]:
    src_store = vecstore.load_datastore(args.src_store)
    tgt_store = vecstore.load_datastore(args.tgt_store)
    pairs = align.extract_training_pairs(src_store, tgt_store,
                                         _read_alignment(args.alignment))
    lin_map = align.fit_linear_map(pairs, ridge=args.ridge)
    align.save_linear_map(lin_map, args.out)
    print(f"fitted {lin_map.source_lang}->{lin_map.target_lang} map on "
          f"{len(pairs)} pairs (residual {lin_map.residual:.6g})")
    return args.out + ".run.json", {"n_pairs": len(pairs), "ridge": lin_map.ridge,
                                    "residual": lin_map.residual}


def cmd_map_apply(args) -> tuple[str | None, dict]:
    store = vecstore.load_datastore(args.store)
    lin_map = align.load_linear_map(args.map)
    mapped = align.map_datastore(store, lin_map)
    vecstore.save_datastore(mapped, args.out,
                            manifest={"tokenizer": "whitespace",
                                      "corpus": f"{args.store} via {args.map}"})
    print(f"mapped {len(mapped)} keys into {args.out}")
    return args.out + ".run.json", {"entry_count": len(mapped)}


def cmd_translate(args) -> tuple[str | None, dict]:
    vocab, model = _load_model(args)
    store = None
    if args.store:
        stores = [vecstore.load_datastore(p) for p in args.store]
        store = stores[0] if len(stores) == 1 else vecstore.merge_datastores(stores)
    lin_map = align.load_linear_map(args.map) if args.map else None
    cfg = decode.KnnConfig(k=args.k, lam=args.lam, temperature=args.temperature)
    sentences = read_sentences(args.input)
    encoded = [vocab.encode(s) for s in sentences]

    def run(source: list[int]) -> list[int]:
        if args.beam == 1:
            return decode.decode_greedy(model, source, store=store, lin_map=lin_map,
                                        cfg=cfg, max_len=args.max_len)
        return decode.decode_beam(model, source, args.beam, store=store,
                                  lin_map=lin_map, cfg=cfg, max_len=args.max_len)

    outputs: list[list[int]] = []
    token_count = 0
    elapsed = 0.0
    if encoded:
        outputs.append(run(encoded[0]))  # warm-up batch, excluded from timing
        rest = encoded[1:]
        started = time.perf_counter()
        if args.jobs > 1 and rest:
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                outputs.extend(pool.map(run, rest))
        else:
            outputs.extend(run(s) for s in rest)
        elapsed = time.perf_counter() - started
        token_count = sum(len(o) for o in outputs[1:])
    with open(args.output, "w", encoding="utf-8") as f:
        for out in outputs:
            f.write(" ".join(vocab.decode(out)) + "\n")
    print(f"translated {len(outputs)} sentences into {args.output}")
    # decode-only timing: model and store loading and the warm-up are excluded
    return args.output + ".run.json", {
        "elapsed_seconds": elapsed, "sentences": len(outputs),
        "tokens_decoded": token_count,
        "tokens_per_sec": token_count / elapsed if elapsed > 0 else None}


def cmd_bleu(args) -> tuple[str | None, dict]:
    hyps = read_sentences(args.hyp)
    refs = read_sentences(args.ref)
    result = mteval.bleu(hyps, refs, smoothing=args.smoothing)
    factor = 100.0 if args.percent else 1.0
    precisions = "/".join(f"{p * factor:.4f}" for p in result.precisions)
    print(f"BLEU = {result.score * factor:.4f} {precisions} "
          f"(BP = {result.brevity_penalty:.4f}, hyp_len = {result.hyp_len}, "
          f"ref_len = {result.ref_len})")
    return None, {"score": result.score, "brevity_penalty": result.brevity_penalty,
                  "precisions": list(result.precisions)}


@dataclass(frozen=True)
class BenchRow:
    entries: int
    tokens_per_sec: float
    index_kind: str


def bench_step(store: vecstore.Datastore, q: np.ndarray, k: int,
               base: np.ndarray) -> np.ndarray:
    """One decoded token's worth of work: retrieval, softmax, interpolation."""
    neighbors = vecstore.query(store, q, k)
    p_knn = decode.knn_distribution(neighbors, BENCH_TEMPERATURE, store.vocab_size)
    return decode.interpolate(p_knn, base, BENCH_LAMBDA)


def benchmark_stores(stores: list[vecstore.Datastore],
                     queries: Sequence[np.ndarray], k: int,
                     warmup: int = 1) -> tuple[list[BenchRow], bool]:
    """Throughput per store, plus whether speed strictly falls as size grows.

    Throughput is decoded tokens (queries) per wall-clock second over the
    full retrieval + softmax + interpolation loop; the first ``warmup``
    queries are excluded from timing.
    """
    if len(stores) < 2:
        raise EmptyInputError("benchmark needs at least two store sizes")
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


def cmd_bench(args) -> tuple[str | None, dict]:
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
    return (args.out + ".run.json") if args.out else None, {
        "monotonic_speedup": monotone,
        "table": [{"entries": r.entries, "tokens_per_sec": r.tokens_per_sec,
                   "index": r.index_kind} for r in rows]}


def cmd_analyze(args) -> tuple[str | None, dict]:
    os.makedirs(args.out, exist_ok=True)
    dumps: dict[str, np.ndarray] = {}
    dim = None
    for path in args.dump:
        header, records = vecstore.read_dump(path)
        if dim is None:
            dim = header.dim
        if header.lang in dumps:
            raise ValueError(f"duplicate dump for language {header.lang!r}")
        dumps[header.lang] = records
    if len(dumps) < 2:
        raise EmptyInputError("analyze needs dumps for at least two languages")
    dumpset = transfer.ContextDumpSet(dim, target_lang=args.pivot)
    for lang, records in dumps.items():
        dumpset.add_records(lang, records)
    langs = sorted(dumps)
    sims = transfer.similarity_matrix(dumpset, langs)
    bleu_table = transfer.BleuTable.from_file(args.bleu_table)

    xsim_path = os.path.join(args.out, "xsim.tsv")
    with open(xsim_path, "w", encoding="utf-8") as f:
        f.write("lang\t" + "\t".join(langs) + "\n")
        for i, lang in enumerate(langs):
            row = "\t".join(f"{sims.values[i, j]:.6f}" for j in range(len(langs)))
            f.write(f"{lang}\t{row}\n")

    rtp_values = {lang: transfer.rtp(lang, sims, bleu_table, langs, args.pivot)
                  for lang in langs}
    deltas = {lang: bleu_table.multilingual_gain(lang) for lang in langs}
    with open(os.path.join(args.out, "rtp.tsv"), "w", encoding="utf-8") as f:
        f.write("lang\trtp\tdelta_bleu\n")
        for lang in langs:
            f.write(f"{lang}\t{rtp_values[lang]:.6f}\t{deltas[lang]:.6f}\n")
    rho, n = transfer.spearman([rtp_values[l] for l in langs],
                               [deltas[l] for l in langs])

    vocab = Vocabulary.from_file(args.vocab)
    corpora = {}
    for lang, src_path, tgt_path in args.corpus:
        pairs = encode_pairs(load_parallel(src_path, tgt_path), vocab)
        corpora[lang] = features.Corpus.from_lists(
            lang, [s for s, _ in pairs], [t for _, t in pairs])
    distances = (features.load_distance_table(args.distances)
                 if args.distances else None)
    table = features.pair_features_table(corpora, len(vocab), distances)

    feature_names = None
    regression_pairs = []
    with open(os.path.join(args.out, "features.tsv"), "w", encoding="utf-8") as f:
        for (l1, l2), pf in sorted(table.items()):
            target = sims.value(l1, l2)
            regression_pairs.append((pf, target))
            if feature_names is None:
                feature_names = list(features.DATASET_FEATURES) + [
                    name for name in features.LINGUISTIC_FEATURES
                    if name in pf.linguistic]
                f.write("lang1\tlang2\t" + "\t".join(feature_names) + "\txsim\n")
            row = "\t".join(f"{v:.6f}" for v in pf.feature_vector(feature_names))
            f.write(f"{l1}\t{l2}\t{row}\t{target:.6f}\n")

    report = features.predict_xsim_loo(regression_pairs,
                                       n_shuffles=args.shuffles, seed=args.seed)
    summary = {
        "languages": langs,
        "pivot": args.pivot,
        "rtp": {lang: rtp_values[lang] for lang in langs},
        "regression": {
            "mean_mae": report.mean_mae,
            "fold_mae": list(report.fold_mae),
            "fold_langs": list(report.fold_langs),
            "feature_names": list(report.feature_names),
            "coefficients": report.coefficients,
            "intercept": report.intercept,
            "importances": {k: list(v) for k, v in report.importances.items()},
        },
        "spearman_rtp_vs_delta": {"rho": rho, "n": n},
    }
    with open(os.path.join(args.out, "analysis.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"analysis reports written under {args.out} "
          f"(spearman rho={rho:.3f} over {n} languages)")
    return os.path.join(args.out, "analyze.run.json"), {"spearman_rho": rho}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_gen_toy)

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
                   help="also write the trajectory dump as RDMP1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = common(sub.add_parser("merge", help="merge datastores"))
    p.add_argument("stores", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_merge)

    p = common(sub.add_parser("map-fit", help="fit a cross-lingual linear map"))
    p.add_argument("--src-store", required=True)
    p.add_argument("--tgt-store", required=True)
    p.add_argument("--alignment", required=True,
                   help="TSV of sentence_id_src<TAB>sentence_id_tgt")
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_map_fit)

    p = common(sub.add_parser("map-apply", help="map every key of a datastore"))
    p.add_argument("--map", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_map_apply)

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
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_translate)

    p = common(sub.add_parser("bleu", help="corpus BLEU over tokenized files"))
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--smoothing", choices=["exp", "none"], default="exp")
    p.add_argument("--percent", action="store_true",
                   help="render on the 0-100 scale")
    p.set_defaults(func=cmd_bleu)

    p = common(sub.add_parser("bench", help="size-vs-speed retrieval benchmark"))
    p.add_argument("stores", nargs="+")
    p.add_argument("--queries", required=True, help="RDMP1 dump of query vectors")
    p.add_argument("-k", type=int, default=64)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

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
    p.set_defaults(func=cmd_analyze)

    return parser


def _explicit_dests(argv: list[str] | None) -> set[str]:
    """Dests that were explicitly present on the command line.

    A throwaway parser with every default suppressed yields only the
    attributes the user actually typed (subparsers re-parse into a fresh
    namespace, so seeding a namespace cannot distinguish flag from default).
    """
    sentinel = build_parser()
    stack = [sentinel]
    while stack:
        p = stack.pop()
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
            action.default = argparse.SUPPRESS
        p._defaults.clear()
    return set(vars(sentinel.parse_args(argv)))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            overrides = load_config_file(args.config)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        unknown = sorted(set(overrides) - set(vars(args)))
        if unknown:
            print(f"error: unknown config keys: {', '.join(unknown)}",
                  file=sys.stderr)
            return EXIT_INPUT
        explicit = _explicit_dests(argv)
        for key, value in overrides.items():
            if key not in explicit:  # explicit flags beat file values
                setattr(args, key, value)
    try:
        started = time.perf_counter()
        default_manifest, fields = args.func(args)
        _write_manifest(args, default_manifest,
                        {"elapsed_seconds": time.perf_counter() - started, **fields})
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
