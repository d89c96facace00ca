"""Span tracer for the traced run, installed from the benchmark's files only.

``install`` replaces the program's public functions and methods named in
``TARGETS`` with wrappers that record a span (name, start, end, parent) per
call; every module binding of the same function object is replaced, so calls
made through ``from .x import f`` are traced as well. Spans stay in memory
until ``write_spans``. A layer's self time is its span time minus the time of
its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

from pipeline import DECODE_KINDS

# (module, attribute path, span name)
TARGETS = (
    ("knnmt.cli", "main", "cli.command"),
    ("knnmt.corpus", "load_parallel", "corpus.read"),
    ("knnmt.corpus", "encode_pairs", "corpus.read"),
    ("knnmt.corpus", "read_sentences", "corpus.read"),
    ("knnmt.vecstore", "squared_distances", "vecstore.distance"),
    ("knnmt.vecstore", "ExactScanIndex.search", "vecstore.exact_search"),
    ("knnmt.vecstore", "CellProbeIndex.search", "vecstore.cellprobe_search"),
    ("knnmt.vecstore", "CellProbeIndex.__init__", "vecstore.index_build"),
    ("knnmt.vecstore", "query", "vecstore.query"),
    ("knnmt.vecstore", "build_datastore", "vecstore.build_datastore"),
    ("knnmt.vecstore", "merge_datastores", "vecstore.merge"),
    ("knnmt.vecstore", "load_datastore", "vecstore.load"),
    ("knnmt.vecstore", "save_datastore", "vecstore.save"),
    ("knnmt.vecstore", "read_dump", "vecstore.dump_io"),
    ("knnmt.vecstore", "write_dump", "vecstore.dump_io"),
    ("knnmt.decode", "ToyBaseModel.__init__", "decode.model_train"),
    ("knnmt.decode", "ToyBaseModel.next_distribution", "decode.base"),
    ("knnmt.decode", "ToyBaseModel.featurize", "decode.featurize"),
    ("knnmt.decode", "knn_distribution", "decode.knn_dist"),
    ("knnmt.decode", "interpolate", "decode.interpolate"),
    ("knnmt.decode", "step_distribution", "decode.step"),
    ("knnmt.decode", "decode_greedy", "decode.greedy"),
    ("knnmt.decode", "decode_beam", "decode.beam"),
    ("knnmt.decode", "trajectory_records", "decode.trajectory"),
    ("knnmt.align", "extract_training_pairs", "align.extract_pairs"),
    ("knnmt.align", "fit_linear_map", "align.fit"),
    ("knnmt.align", "map_datastore", "align.map_store"),
    ("knnmt.transfer", "ContextDumpSet.add_records", "transfer.add_records"),
    ("knnmt.transfer", "similarity_matrix", "transfer.similarity"),
    ("knnmt.features", "pair_features_table", "features.pair_features"),
    ("knnmt.features", "predict_xsim_loo", "features.regression"),
)

RECALL_QUERIES = 100  # first cell-probe searches of round 0 scored for recall

# per-layer metric: (unit, how it is computed, spans it needs)
#   ("per_call", span, "incl"|"self")  microseconds per call
#   ("per_round", [spans], "incl"|"self")  seconds per round
LAYER_METRICS = {
    "vecstore.exact_search_us": ("us/call", ("per_call", "vecstore.exact_search", "incl")),
    "vecstore.cellprobe_search_us": ("us/call", ("per_call", "vecstore.cellprobe_search", "incl")),
    "vecstore.distance_us": ("us/call", ("per_call", "vecstore.distance", "incl")),
    "vecstore.query_self_us": ("us/call", ("per_call", "vecstore.query", "self")),
    "vecstore.index_build_s": ("s", ("per_round", ["vecstore.index_build"], "incl")),
    "vecstore.load_io_s": ("s", ("per_round", ["vecstore.load"], "self")),
    "vecstore.build_datastore_s": ("s", ("per_round", ["vecstore.build_datastore"], "self")),
    "vecstore.save_s": ("s", ("per_round", ["vecstore.save"], "self")),
    "vecstore.dump_io_s": ("s", ("per_round", ["vecstore.dump_io"], "self")),
    "vecstore.merge_s": ("s", ("per_round", ["vecstore.merge"], "self")),
    "decode.base_us": ("us/call", ("per_call", "decode.base", "self")),
    "decode.featurize_us": ("us/call", ("per_call", "decode.featurize", "self")),
    "decode.knn_dist_us": ("us/call", ("per_call", "decode.knn_dist", "self")),
    "decode.interpolate_us": ("us/call", ("per_call", "decode.interpolate", "self")),
    "decode.step_self_us": ("us/call", ("per_call", "decode.step", "self")),
    "decode.trajectory_us": ("us/call", ("per_call", "decode.trajectory", "self")),
    "decode.model_train_s": ("s", ("per_round", ["decode.model_train"], "incl")),
    "align.extract_pairs_s": ("s", ("per_round", ["align.extract_pairs"], "self")),
    "align.fit_s": ("s", ("per_round", ["align.fit"], "self")),
    "align.map_store_s": ("s", ("per_round", ["align.map_store"], "self")),
    "transfer.add_records_s": ("s", ("per_round", ["transfer.add_records"], "self")),
    "transfer.similarity_s": ("s", ("per_round", ["transfer.similarity"], "self")),
    "features.pair_features_s": ("s", ("per_round", ["features.pair_features"], "self")),
    "features.regression_s": ("s", ("per_round", ["features.regression"], "self")),
    "corpus.read_s": ("s", ("per_round", ["corpus.read"], "self")),
    "cli.self_s": ("s", ("per_round", ["cli.command"], "self")),
}


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans of the wrapped program functions; aggregates per name."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.rows_scanned = 0       # rows passed to squared_distances by cell-probe searches
        self.beam_steps = 0
        self._beam_depth: list[int] = []
        self.round = 0
        self.cp_queries: list[tuple] = []   # (keys, query, k, entries found)
        self._patched: list[tuple] = []

    # ----------------------------------------------------------- spans
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.incl[name] = 0.0
            self.self_time[name] = 0.0
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        names = self.names
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        stack, child = self._stack, self._child
        calls, incl, self_time = self.calls, self.incl, self.self_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if hook is not None:
                hook(parent, args, kwargs)
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(parent)
            span_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            start = time.perf_counter()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                span_end[idx] = end
                stack.pop()
                inner = child.pop()
                dur = end - start
                if child:
                    child[-1] += dur
                key = names[nid]
                calls[key] += 1
                incl[key] += dur
                self_time[key] += dur - inner
                if name == "decode.beam":
                    self.beam_steps += self._beam_depth.pop()
            if (name == "vecstore.cellprobe_search" and self.round == 0
                    and len(self.cp_queries) < RECALL_QUERIES):
                self.cp_queries.append((args[0]._keys, np.array(args[1], dtype=np.float64),
                                        int(args[2]), np.asarray(result[0]).copy()))
            return result

        return traced

    def _parent_name(self, parent: int) -> str | None:
        return self.names[self.span_name[parent]] if parent >= 0 else None

    def _hook_vecstore_distance(self, parent, args, kwargs):
        if self._parent_name(parent) == "vecstore.cellprobe_search":
            self.rows_scanned += int(args[0].shape[0])

    def _hook_decode_beam(self, parent, args, kwargs):
        self._beam_depth.append(0)

    def _hook_decode_step(self, parent, args, kwargs):
        if self._parent_name(parent) == "decode.beam":
            # prefix = [BOS, *hypothesis]: its length is the beam step number
            self._beam_depth[-1] = max(self._beam_depth[-1], len(args[2]))

    def install(self) -> None:
        originals = {}
        for module, path, name in TARGETS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            originals[id(original)] = (original, self.wrap(name, original))
        # rebind every module-level alias and class attribute of each original
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "knnmt" or mod_name.startswith("knnmt.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, originals[id(value)][1])
                elif isinstance(value, type) and value.__module__ == mod_name:
                    for cattr, cvalue in list(vars(value).items()):
                        if id(cvalue) in originals and originals[id(cvalue)][0] is cvalue:
                            self._patched.append((value, cattr, cvalue))
                            setattr(value, cattr, originals[id(cvalue)][1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def begin_round(self, r: int) -> None:
        self.round = r

    # ----------------------------------------------------------- results
    def overhead_s(self) -> float:
        """Estimated tracer cost: spans recorded times the cost of one empty span."""
        probe = Tracer()
        empty = probe.wrap("probe", lambda: None)
        plain = lambda: None  # noqa: E731
        n = 20_000
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(n):
                plain()
            t1 = time.perf_counter()
            for _ in range(n):
                empty()
            t2 = time.perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / n)
        return best * len(self.span_name)

    def cellprobe_recall(self) -> float | None:
        """Share of the exact top-k (naive scan, ties by index) the cell-probe search found."""
        from checks import naive_distances

        found = total = 0
        keys64 = {}  # one float64 copy per store
        for keys, q, k, got in self.cp_queries:
            if id(keys) not in keys64:
                keys64[id(keys)] = keys.astype(np.float64)
            d = naive_distances(keys64[id(keys)], q)
            exact = np.lexsort((np.arange(d.size), d))[:k]
            found += np.intersect1d(exact, got).size
            total += k
        return found / total if total else None

    def layer_metrics(self, pipe, measured_s: float) -> dict:
        """name -> (value, unit, why it is missing when value is None)."""
        rounds = len(pipe.rounds)
        out: dict[str, tuple] = {}

        def put(name, unit, value, reason):
            out[name] = (value, unit, reason if value is None else None)

        for name, (unit, (how, span, part)) in LAYER_METRICS.items():
            table = self.incl if part == "incl" else self.self_time
            if how == "per_call":
                n = self.calls.get(span, 0)
                put(name, unit, 1e6 * table[span] / n if n else None,
                    f"no {span} calls in this workload")
            else:
                n = sum(self.calls.get(s, 0) for s in span)
                put(name, unit, sum(table.get(s, 0.0) for s in span) / rounds if n else None,
                    f"no {'/'.join(span)} calls in this workload")
        searches = self.calls.get("vecstore.exact_search", 0) + self.calls.get(
            "vecstore.cellprobe_search", 0)
        select = (self.self_time.get("vecstore.exact_search", 0.0)
                  + self.self_time.get("vecstore.cellprobe_search", 0.0))
        put("vecstore.select_us", "us/call", 1e6 * select / searches if searches else None,
            "no searches in this workload")
        n_cp = self.calls.get("vecstore.cellprobe_search", 0)
        put("vecstore.rows_scanned_per_query", "rows",
            self.rows_scanned / n_cp if n_cp else None, "no cell-probe searches")
        put("vecstore.cellprobe_recall", "ratio", self.cellprobe_recall(),
            "no cell-probe searches")
        put("vecstore.index_builds", "count",
            self.calls.get("vecstore.index_build", 0) / rounds, "")
        beam_self = self.self_time.get("decode.beam", 0.0)
        put("decode.beam_self_us", "us/step",
            1e6 * beam_self / self.beam_steps if self.beam_steps else None,
            "no beam search in this workload")
        tokens = rounds * sum(pipe.tokens(kind) for kind in DECODE_KINDS)
        put("decode.queries_per_token", "count",
            self.calls.get("vecstore.query", 0) / tokens if tokens else None,
            "no decoding in this workload")
        put("mteval.bleu", "BLEU", pipe.rounds[-1].bleu, "no BLEU computed")
        put("trace.overhead_share", "ratio", self.overhead_s() / measured_s, "")
        return out

    def write_spans(self, path) -> None:
        """Spans as arrays (name id, start, end, parent) plus the name table."""
        np.savez_compressed(
            path,
            name=np.asarray(self.span_name, dtype=np.int32),
            start=np.asarray(self.span_start, dtype=np.float64),
            end=np.asarray(self.span_end, dtype=np.float64),
            parent=np.asarray(self.span_parent, dtype=np.int64),
            names=np.asarray(json.dumps(self.names)),
        )
