"""Output checks against computations made apart from the program.

The binary files are parsed here from their documented layouts, not with the
program's readers. Expected values come from the corpus text, from naive
numpy recomputations, or from properties of the method:

- stores and dumps: one entry per target token plus the end token, in corpus
  order, unit-norm keys; cell-probe and merged stores repeat their inputs;
- search: exact-scan neighbours equal a naive float64 scan ordered by
  (distance, index); cell-probe distances equal the naive ones;
- decoding: sampled sentences replayed by a reference greedy decoder and a
  reference beam search give identical tokens;
- map-fit: the matrix satisfies the normal equations of re-paired rows;
  map-apply: keys equal float32(K A^T);
- analyze: xsim.tsv and rtp.tsv equal a numpy recomputation; BLEU equals an
  independent corpus-BLEU implementation;
- every output is byte-identical across setups and rounds.

A failed check marks its operation failed and makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections import Counter

import numpy as np

from knnmt import vecstore
from pipeline import DATA, OUT

BOS_ID, EOS_ID = 1, 2
PROB_FLOOR = 1e-12
DIST_TOL = 1e-12       # float64 distances of unit-norm keys, summation-order noise
NORM_TOL = 1e-5        # float32 unit norm
NORMAL_EQ_TOL = 1e-5   # relative residual of the normal equations, float32 map
TSV_TOL = 1.5e-6       # values printed with 6 decimals
_SCAN_ROWS = 32768


# ---------------------------------------------------------------- file parsers

class _Reader:
    def __init__(self, path: str):
        with open(path, "rb") as f:
            self.buf = f.read()
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ValueError(f"{self.path}: truncated")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self) -> str:
        (n,) = self.unpack("<I")
        return self.take(n).decode("utf-8")

    def records(self, dtype: np.dtype, count: int) -> np.ndarray:
        arr = np.frombuffer(self.take(count * dtype.itemsize), dtype=dtype)
        if self.pos != len(self.buf):
            raise ValueError(f"{self.path}: trailing bytes")
        return arr


def read_kds(path: str) -> dict:
    """KDS1: magic, dim, vocab, index spec, provenance table, records."""
    r = _Reader(path)
    if r.take(6) != b"KDS1\x00\x00":
        raise ValueError(f"{path}: not KDS1")
    dim, vocab = r.unpack("<II")
    kind, cells, probe, train = r.unpack("<BIII")
    (n_langs,) = r.unpack("<I")
    langs = []
    for _ in range(n_langs):
        code = r.string()
        (count,) = r.unpack("<Q")
        langs.append((code, count))
    (count,) = r.unpack("<Q")
    dtype = np.dtype([("sid", "<u4"), ("ts", "<u2"), ("tok", "<u4"), ("lang", "<u2"),
                      ("vec", "<f4", (dim,))])
    rec = r.records(dtype, count)
    return {"dim": dim, "vocab": vocab, "spec": (kind, cells, probe, train),
            "langs": langs, "sid": rec["sid"], "ts": rec["ts"], "tok": rec["tok"],
            "lang": rec["lang"], "vec": rec["vec"]}


def read_rdmp(path: str) -> dict:
    """RDMP1: magic, dim, vocab, lang code, records."""
    r = _Reader(path)
    if r.take(6) != b"RDMP1\x00":
        raise ValueError(f"{path}: not RDMP1")
    dim, vocab = r.unpack("<II")
    lang = r.string()
    (count,) = r.unpack("<Q")
    dtype = np.dtype([("sid", "<u4"), ("ts", "<u2"), ("tok", "<u4"), ("vec", "<f4", (dim,))])
    rec = r.records(dtype, count)
    return {"dim": dim, "vocab": vocab, "lang": lang, "sid": rec["sid"],
            "ts": rec["ts"], "tok": rec["tok"], "vec": rec["vec"]}


def read_klm(path: str) -> dict:
    """KLM1: magic, d, source and target codes, ridge, d x d row-major f32."""
    r = _Reader(path)
    if r.take(6) != b"KLM1\x00\x00":
        raise ValueError(f"{path}: not KLM1")
    (d,) = r.unpack("<I")
    src, tgt = r.string(), r.string()
    (ridge,) = r.unpack("<d")
    matrix = np.frombuffer(r.take(d * d * 4), dtype="<f4").reshape(d, d)
    if r.pos != len(r.buf):
        raise ValueError(f"{path}: trailing bytes")
    return {"dim": d, "src": src, "tgt": tgt, "ridge": ridge, "matrix": matrix}


def read_vocab(path: str) -> dict[str, int]:
    with open(path, encoding="utf-8") as f:
        return {line.rstrip("\n"): i for i, line in enumerate(f)}


def read_ids(path: str, vocab: dict[str, int]) -> list[list[int]]:
    with open(path, encoding="utf-8") as f:
        return [[vocab[w] for w in line.split()] for line in f]


# ---------------------------------------------------------------- stores

def expected_columns(targets: list[list[int]]) -> dict[str, np.ndarray]:
    """sid, ts, tok of a store built from these targets: each plus the end token."""
    lengths = np.array([len(t) + 1 for t in targets], dtype=np.int64)
    return {
        "sid": np.repeat(np.arange(len(targets)), lengths),
        "ts": np.concatenate([np.arange(n) for n in lengths]),
        "tok": np.concatenate([np.array([*t, EOS_ID], dtype=np.int64) for t in targets]),
    }


def check_store_contents(store: dict, lang: str, targets: list[list[int]],
                         vocab_size: int, dim: int) -> str | None:
    exp = expected_columns(targets)
    n = exp["tok"].size
    if store["dim"] != dim or store["vocab"] != vocab_size:
        return f"header dim/vocab {store['dim']}/{store['vocab']}, expected {dim}/{vocab_size}"
    if store["langs"] != [(lang, n)]:
        return f"provenance {store['langs']}, expected {[(lang, n)]}"
    if store["tok"].size != n:
        return f"{store['tok'].size} entries, expected {n}"
    for col in ("sid", "ts", "tok"):
        if not np.array_equal(store[col], exp[col]):
            bad = int(np.flatnonzero(store[col] != exp[col])[0])
            return f"{col} column differs from the corpus at entry {bad}"
    if "lang" in store and np.any(store["lang"] != 0):
        return "language index column is not all 0"
    norms = np.linalg.norm(store["vec"].astype(np.float64), axis=1)
    # an all-zero key is the featurizer's known degenerate case: its signed
    # feature hashes cancelled exactly, so there was nothing to normalise
    bad = np.flatnonzero((np.abs(norms - 1.0) > NORM_TOL) & (norms != 0.0))
    if bad.size:
        return f"key {bad[0]} has L2 norm {norms[bad[0]]!r}"
    return None


def same_entries(a: dict, b: dict) -> str | None:
    for col in ("sid", "ts", "tok", "vec"):
        if not np.array_equal(a[col], b[col]):
            return f"{col} column differs"
    return None


def check_cellprobe_store(cp: dict, exact: dict, cells: int, probe: int) -> str | None:
    problem = same_entries(cp, exact)
    if problem:
        return f"cell-probe store entries differ from the exact store: {problem}"
    n_cells = min(cells, exact["tok"].size)
    kind, got_cells, got_probe, _ = cp["spec"]
    if (kind, got_cells, got_probe) != (1, n_cells, min(probe, n_cells)):
        return f"index spec {cp['spec']}, expected cell-probe {n_cells}/{min(probe, n_cells)}"
    if cp["langs"] != exact["langs"] or not np.array_equal(cp["lang"], exact["lang"]):
        return "provenance differs from the exact store"
    return None


def check_merge(merged: dict, parts: list[dict]) -> str | None:
    """A merged store is the concatenation of its inputs, provenance kept."""
    for col in ("sid", "ts", "tok", "vec"):
        if not np.array_equal(merged[col], np.concatenate([p[col] for p in parts])):
            return f"{col} column is not the concatenation of the inputs"
    langs = [p["langs"][0] for p in parts]
    if merged["langs"] != langs:
        return f"provenance {merged['langs']}, expected {langs}"
    expect_lang = np.repeat(np.arange(len(parts)), [p["tok"].size for p in parts])
    if not np.array_equal(merged["lang"], expect_lang):
        return "language column does not follow the input order"
    if merged["spec"] != parts[0]["spec"] or merged["dim"] != parts[0]["dim"]:
        return "index spec or dimension differs from the first input"
    return None


def check_dump(dump: dict, store: dict, lang: str) -> str | None:
    if dump["lang"] != lang or dump["dim"] != store["dim"] or dump["vocab"] != store["vocab"]:
        return "dump header disagrees with the store"
    problem = same_entries(dump, store)
    return f"dump records differ from the store: {problem}" if problem else None


# ---------------------------------------------------------------- search

def naive_distances(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    q64 = np.asarray(q, dtype=np.float64)
    out = np.empty(keys.shape[0])
    for lo in range(0, keys.shape[0], _SCAN_ROWS):
        diff = np.asarray(keys[lo:lo + _SCAN_ROWS], dtype=np.float64) - q64
        out[lo:lo + _SCAN_ROWS] = np.sum(diff * diff, axis=1)
    return out


def naive_topk(keys: np.ndarray, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    d = naive_distances(keys, q)
    order = np.lexsort((np.arange(d.size), d))[:k]
    return order, d[order]


def check_neighbors(idx: np.ndarray, dist: np.ndarray, d: np.ndarray, k: int,
                    exact: bool) -> str | None:
    """Compare one search result with naive float64 distances ``d`` to every key.

    Distances must equal the naive ones up to summation-order noise. For an
    exact scan the entries must also be the k smallest by (distance, index):
    equal keys tie exactly, and the lower entry index must win.
    """
    idx = np.asarray(idx, dtype=np.int64)
    dist = np.asarray(dist, dtype=np.float64)
    if idx.size != k or len(set(idx.tolist())) != k:
        return f"{idx.size} results ({len(set(idx.tolist()))} distinct), expected {k}"
    if np.any(np.abs(dist - d[idx]) > DIST_TOL):
        i = int(np.argmax(np.abs(dist - d[idx])))
        return f"distance of entry {idx[i]} is {dist[i]!r}, naive scan gives {d[idx[i]]!r}"
    if np.any(np.diff(dist) < -DIST_TOL):
        return "results are not in ascending distance order"
    for a in range(k - 1):  # exact ties: lower entry index first
        if dist[a] == dist[a + 1] and idx[a] > idx[a + 1]:
            return f"tie between entries {idx[a]} and {idx[a + 1]} broken toward the higher index"
    if not exact:
        return None
    ref_idx = np.lexsort((np.arange(d.size), d))[:k]
    if np.array_equal(ref_idx, idx):
        return None
    if np.any(np.abs(np.sort(d[idx]) - d[ref_idx]) > DIST_TOL):
        return f"entries {sorted(set(idx.tolist()) - set(ref_idx.tolist()))} are not among the k nearest"
    # same distances; any other difference must be an index tie-break
    worst = d[idx].max()
    left_out = np.flatnonzero(d == worst)
    left_out = left_out[~np.isin(left_out, idx)]
    kept = idx[d[idx] == worst]
    if left_out.size and kept.size and left_out.min() < kept.max():
        return f"boundary tie at distance {worst!r} keeps entry {kept.max()} over lower entry {left_out.min()}"
    return None


# ---------------------------------------------------------------- decoding

class ReferenceDecoder:
    """Greedy and beam search written apart from the program's decoders.

    Retrieval is a naive scan (or a supplied neighbour function), the token
    distribution is softmax(exp(-d/T)) aggregated per token, and the result is
    lam * p_knn + (1 - lam) * p_base over the model's next_distribution.
    """

    def __init__(self, model, keys: np.ndarray, tokens: np.ndarray, vocab_size: int,
                 k: int, lam: float, temperature: float, neighbors=None):
        self.model = model
        self.keys = keys
        self.tokens = np.asarray(tokens, dtype=np.int64)
        self.vocab_size = vocab_size
        self.k = min(k, keys.shape[0])
        self.lam = lam
        self.temperature = temperature
        self.neighbors = neighbors or (lambda q: naive_topk(self.keys, q, self.k))

    def step(self, source: list[int], prefix: list[int]) -> np.ndarray:
        p_base = np.asarray(self.model.next_distribution(source, prefix), dtype=np.float64)
        q = np.asarray(self.model.featurize(source, prefix), dtype=np.float64)
        idx, d = self.neighbors(q)
        w = np.exp(-np.asarray(d, dtype=np.float64) / self.temperature)
        p_knn = np.bincount(self.tokens[idx], weights=w, minlength=self.vocab_size)
        p_knn = p_knn / p_knn.sum()
        return self.lam * p_knn + (1.0 - self.lam) * p_base

    def greedy(self, source: list[int], max_len: int) -> list[int]:
        out: list[int] = []
        while len(out) < max_len:
            token = int(np.argmax(self.step(source, [BOS_ID, *out])))
            if token == EOS_ID:
                break
            out.append(token)
        return out

    def beam(self, source: list[int], size: int, max_len: int) -> list[int]:
        """Length-unnormalised beam search; finished hypotheses retire.

        Stops once the best finished score reaches the best active one (log
        probabilities are never positive); ties rank by token sequence.
        """
        active: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
        done: list[tuple[tuple[int, ...], float]] = []
        for _ in range(max_len):
            grown = []
            for toks, score in active:
                logp = np.log(np.maximum(self.step(source, [BOS_ID, *toks]), PROB_FLOOR))
                ranked = sorted(range(logp.size), key=lambda v: (-logp[v], v))[:size]
                grown.extend((toks + (v,), score + float(logp[v])) for v in ranked)
            grown.sort(key=lambda h: (-h[1], h[0]))
            active = []
            for toks, score in grown:
                if toks[-1] == EOS_ID:
                    done.append((toks, score))
                elif len(active) < size:
                    active.append((toks, score))
            if not active or (done and max(s for _, s in done) >= active[0][1]):
                break
        toks, _ = min(done or active, key=lambda h: (-h[1], h[0]))
        return list(toks[:-1]) if toks and toks[-1] == EOS_ID else list(toks)


def check_tokens(got: list[int], want: list[int]) -> str | None:
    if list(got) == list(want):
        return None
    return f"tokens {list(got)} differ from the reference decoder's {list(want)}"


# ---------------------------------------------------------------- alignment

def repaired_rows(src: dict, tgt: dict,
                  alignment: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Rows paired over aligned sentences with equal timestep sets and tokens."""
    def spans(store):
        sids = store["sid"].astype(np.int64)
        uniq, first = np.unique(sids, return_index=True)
        last = np.append(first[1:], sids.size)
        return {int(s): (int(a), int(b)) for s, a, b in zip(uniq, first, last)}

    s_spans, t_spans = spans(src), spans(tgt)
    xs, ys = [], []
    for s1, s2 in alignment:
        if s1 not in s_spans or s2 not in t_spans:
            continue
        a = slice(*s_spans[s1])
        b = slice(*t_spans[s2])
        if not np.array_equal(np.sort(src["ts"][a]), np.sort(tgt["ts"][b])):
            continue
        oa = np.argsort(src["ts"][a], kind="stable")
        ob = np.argsort(tgt["ts"][b], kind="stable")
        keep = src["tok"][a][oa] == tgt["tok"][b][ob]
        xs.append(src["vec"][a][oa][keep])
        ys.append(tgt["vec"][b][ob][keep])
    return (np.concatenate(xs).astype(np.float64), np.concatenate(ys).astype(np.float64))


def normal_equation_residual(matrix: np.ndarray, ridge: float,
                             x: np.ndarray, y: np.ndarray) -> float:
    """||(X'X + ridge I) A' - X'Y||_F / ||X'Y||_F."""
    a = np.asarray(matrix, dtype=np.float64)
    gram = x.T @ x
    rhs = x.T @ y
    resid = (gram + ridge * np.eye(gram.shape[0])) @ a.T - rhs
    return float(np.linalg.norm(resid) / np.linalg.norm(rhs))


def check_map_fit(klm: dict, src: dict, tgt: dict, src_lang: str, tgt_lang: str,
                  alignment: list[tuple[int, int]]) -> str | None:
    if (klm["src"], klm["tgt"]) != (src_lang, tgt_lang):
        return f"map direction {klm['src']}->{klm['tgt']}, expected {src_lang}->{tgt_lang}"
    if not (math.isfinite(klm["ridge"]) and klm["ridge"] >= 0.0):
        return f"ridge {klm['ridge']!r} is not a non-negative number"
    x, y = repaired_rows(src, tgt, alignment)
    rel = normal_equation_residual(klm["matrix"], klm["ridge"], x, y)
    if not rel <= NORMAL_EQ_TOL:
        return f"normal-equation residual {rel:.3g} over {x.shape[0]} re-paired rows"
    return None


def check_map_apply(mapped: dict, src: dict, klm: dict) -> str | None:
    for col in ("sid", "ts", "tok", "lang"):
        if not np.array_equal(mapped[col], src[col]):
            return f"{col} column changed"
    if mapped["spec"] != src["spec"] or mapped["langs"] != src["langs"]:
        return "index spec or provenance changed"
    want = (src["vec"].astype(np.float64) @ klm["matrix"].astype(np.float64).T).astype(np.float32)
    # one float32 ulp allows for the order of the float64 dot products
    slack = np.spacing(np.abs(want))
    if not np.all(np.abs(mapped["vec"] - want) <= slack):
        bad = int(np.argmax(np.any(np.abs(mapped["vec"] - want) > slack, axis=1)))
        return f"mapped key {bad} differs from float32(K A^T)"
    return None


# ---------------------------------------------------------------- analyze

def reference_xsim(d1: dict, d2: dict) -> float:
    """Mean over shared sentences of the mean cosine at shared timesteps."""
    k1 = d1["sid"].astype(np.int64) << 16 | d1["ts"].astype(np.int64)
    k2 = d2["sid"].astype(np.int64) << 16 | d2["ts"].astype(np.int64)
    _, i1, i2 = np.intersect1d(k1, k2, assume_unique=True, return_indices=True)
    v1 = d1["vec"][i1].astype(np.float64)
    v2 = d2["vec"][i2].astype(np.float64)
    n1 = np.linalg.norm(v1, axis=1)
    n2 = np.linalg.norm(v2, axis=1)
    cos = np.where((n1 > 0) & (n2 > 0),
                   np.sum(v1 * v2, axis=1) / np.where(n1 * n2 > 0, n1 * n2, 1.0), 0.0)
    _, sentence = np.unique(d1["sid"][i1], return_inverse=True)
    per_sentence = np.bincount(sentence, weights=cos) / np.bincount(sentence)
    return float(per_sentence.mean())


def read_bleu_table(path: str) -> dict[str, tuple[float, float]]:
    rows = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                lang, bi, multi = line.rstrip("\n").split("\t")
                rows[lang] = (float(bi), float(multi))
    return rows


def reference_rtp(lang: str, langs: list[str], sims: dict, table: dict, pivot: str) -> float:
    others = [c for c in sorted(langs) if c not in (lang, pivot)]
    deltas = {c: table[c][0] - table[lang][0] for c in others}
    scale = max((abs(v) for v in deltas.values()), default=0.0)
    if scale == 0.0:
        return 0.0
    return sum(deltas[c] / scale * sims[tuple(sorted((lang, c)))] for c in others)


def _read_tsv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n").split("\t") for line in f if line.strip()]


def check_analysis(report_dir: str, dumps: dict[str, dict], bleu_table: str,
                   pivot: str = "en") -> str | None:
    langs = sorted(dumps)
    sims = {(a, b): reference_xsim(dumps[a], dumps[b])
            for i, a in enumerate(langs) for b in langs[i + 1:]}
    rows = _read_tsv(f"{report_dir}/xsim.tsv")
    if rows[0] != ["lang", *langs] or [r[0] for r in rows[1:]] != langs:
        return "xsim.tsv header or row labels differ from the languages"
    for i, a in enumerate(langs):
        for j, b in enumerate(langs):
            want = 1.0 if a == b else sims[tuple(sorted((a, b)))]
            got = float(rows[i + 1][j + 1])
            if abs(got - want) > TSV_TOL:
                return f"xsim({a},{b}) is {got}, recomputed {want:.6f}"
    table = read_bleu_table(bleu_table)
    rtp = {lang: reference_rtp(lang, langs, sims, table, pivot) for lang in langs}
    rows = _read_tsv(f"{report_dir}/rtp.tsv")
    if rows[0] != ["lang", "rtp", "delta_bleu"] or [r[0] for r in rows[1:]] != langs:
        return "rtp.tsv header or row labels differ from the languages"
    for row in rows[1:]:
        lang = row[0]
        if abs(float(row[1]) - rtp[lang]) > TSV_TOL:
            return f"rtp({lang}) is {row[1]}, recomputed {rtp[lang]:.6f}"
        delta = table[lang][1] - table[lang][0]
        if abs(float(row[2]) - delta) > TSV_TOL:
            return f"delta_bleu({lang}) is {row[2]}, expected {delta:.6f}"
    with open(f"{report_dir}/analysis.json", encoding="utf-8") as f:
        summary = json.load(f)
    if summary.get("languages") != langs:
        return "analysis.json lists other languages"
    for lang in langs:
        if abs(summary["rtp"][lang] - rtp[lang]) > 1e-9:
            return f"analysis.json rtp({lang}) is {summary['rtp'][lang]!r}, recomputed {rtp[lang]!r}"
    return None


# ---------------------------------------------------------------- BLEU

def reference_bleu(hyps: list[list], refs: list[list], order: int = 4) -> float:
    """Corpus BLEU, clipped counts, brevity penalty, exponential smoothing."""
    match = [0] * order
    total = [0] * order
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    for h, r in zip(hyps, refs):
        for n in range(1, order + 1):
            hc = Counter(tuple(h[i:i + n]) for i in range(len(h) - n + 1))
            rc = Counter(tuple(r[i:i + n]) for i in range(len(r) - n + 1))
            match[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())
            total[n - 1] += sum(hc.values())
    logs = []
    zeros = 0
    for m, t in zip(match, total):
        if t == 0:
            return 0.0
        if m == 0:
            zeros += 1
            logs.append(math.log(1.0 / (2 ** zeros * t)))
        else:
            logs.append(math.log(m / t))
    if hyp_len == 0:
        return 0.0
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(sum(logs) / order)


# ---------------------------------------------------------------- a whole run

def _fail(op, message: str) -> None:
    if op.error is None:
        op.error = f"check: {message}"
        op.wrong = True


def _producer(name: str) -> str:
    """Operation name prefix that writes this output file."""
    if name.startswith("reports/"):
        return "analyze:"
    stem = name.split(".")[0]
    if name.endswith(".klm"):
        return f"map-fit:{stem}:"
    if ".mapped." in name:
        return f"map-apply:{stem}:"
    if stem == "merged":
        return "merge-cp" if ".cp." in name else "merge"
    if ".cp." in name:
        return f"build-cp:{stem}"
    return f"build:{stem}"


def _op_for(rnd, prefix: str):
    matches = [op for name, op in rnd.ops.items()
               if name == prefix or (prefix.endswith(":") and name.startswith(prefix))]
    return matches[-1] if matches else None


def check_run(pipe) -> list:
    """Run every check on the run's outputs; return all operations, marked."""
    wl = pipe.wl
    ops = list(pipe.setup_ops)
    for rnd in pipe.rounds:
        ops.extend(rnd.ops.values())
    for i, digests in enumerate(pipe.setup_digests):
        if digests != pipe.setup_digests[0]:
            _fail(pipe.setup_ops[i], "gen-toy output differs from the first setup")
    last = pipe.rounds[-1]
    for rnd in pipe.rounds[:-1]:
        for path in sorted(set(rnd.digests) | set(last.digests)):
            if rnd.digests.get(path) != last.digests.get(path):
                op = _op_for(rnd, _producer(path))
                if op is not None:
                    _fail(op, f"{path} differs from the last round")
        for kind, outs in rnd.outputs.items():
            for i, (a, b) in enumerate(zip(outs, last.outputs[kind])):
                if a != b:
                    _fail(rnd.ops[f"{kind}:{i}"], "tokens differ from the last round")
        if rnd.bleu != last.bleu:
            _fail(rnd.ops["bleu"], "score differs from the last round")
    if any(op.error for op in last.ops.values() if not op.wrong):
        return ops  # the program failed; its missing outputs are not checked

    def guarded(op_name: str, fn, *args):
        op = _op_for(last, op_name)
        try:
            problem = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a malformed output fails its check
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            _fail(op, problem)

    vocab = read_vocab(f"{DATA}/vocab.txt")
    targets = {lang: read_ids(pipe.train(lang)[1], vocab) for lang in wl.langs}
    stores, dumps, cps = {}, {}, {}
    for lang in wl.langs:
        stores[lang] = read_kds(f"{OUT}/{lang}.kds")
        dumps[lang] = read_rdmp(f"{OUT}/{lang}.rdmp")
        cps[lang] = read_kds(f"{OUT}/{lang}.cp.kds")
        guarded(f"build:{lang}", check_store_contents, stores[lang], lang,
                targets[lang], len(vocab), wl.dim)
        guarded(f"build:{lang}", check_dump, dumps[lang], stores[lang], lang)
        guarded(f"build-cp:{lang}", check_cellprobe_store, cps[lang], stores[lang],
                wl.cells, wl.probe)
    merged = read_kds(f"{OUT}/merged.kds")
    merged_cp = read_kds(f"{OUT}/merged.cp.kds")
    guarded("merge", check_merge, merged, [stores[lang] for lang in wl.langs])
    guarded("merge-cp", check_merge, merged_cp, [cps[lang] for lang in wl.langs])
    for lang in wl.langs[1:]:
        with open(pipe.alignment(lang), encoding="utf-8") as f:
            alignment = [tuple(int(v) for v in line.split()) for line in f if line.strip()]
        klm = read_klm(f"{OUT}/{lang}.klm")
        guarded(f"map-fit:{lang}:", check_map_fit, klm, stores[lang], stores[wl.pivot],
                lang, wl.pivot, alignment)
        guarded(f"map-apply:{lang}:", check_map_apply,
                read_kds(f"{OUT}/{lang}.mapped.kds"), stores[lang], klm)
    guarded("analyze:", check_analysis, f"{OUT}/reports", dumps, f"{DATA}/bleu-table.tsv")

    exact_file, cp_file = ((merged, merged_cp) if wl.multilingual
                           else (stores[wl.pivot], cps[wl.pivot]))
    model, exact, cp, sources = pipe.loaded
    guarded("load:", _check_loaded, exact, exact_file, cp, cp_file)
    _check_decoding(pipe, last, model, exact, cp, exact_file, sources, guarded)

    guarded("bleu", _check_bleu, last.bleu, last.outputs["greedy"],
            read_ids(pipe.test()[1], vocab))
    return ops


def _check_bleu(score: float, hyps: list[list[int]], refs: list[list[int]]) -> str | None:
    want = 100.0 * reference_bleu(hyps, refs[:len(hyps)])
    return None if abs(score - want) <= 1e-9 else f"BLEU {score!r}, reference {want!r}"


def _check_loaded(exact, exact_file: dict, cp, cp_file: dict) -> str | None:
    for store, parsed, kind in ((exact, exact_file, "exact-scan"), (cp, cp_file, "cell-probe")):
        if store.index_spec.kind != kind:
            return f"loaded {store.index_spec.kind} store, expected {kind}"
        if not (np.array_equal(store.keys, parsed["vec"])
                and np.array_equal(store.token_ids, parsed["tok"])):
            return f"loaded {kind} store differs from its file"
    return None


class _SearchMismatch(Exception):
    pass


def _check_decoding(pipe, rnd, model, exact, cp, exact_file, sources, guarded) -> None:
    """Replay sampled sentences; compare tokens and every search on the way."""
    wl = pipe.wl
    keys = exact_file["vec"].astype(np.float64)  # converted once for every naive scan
    tokens = exact_file["tok"]
    k = min(wl.k, keys.shape[0])

    def checked_search(store, exact_scan: bool):
        """Program search, checked against a naive scan; returns the reference's neighbours."""
        def search(q):
            d = naive_distances(keys, q)
            found = vecstore.query(store, q, k)
            idx = np.array([nb.entry_index for nb in found], dtype=np.int64)
            dist = np.array([nb.distance for nb in found])
            problem = check_neighbors(idx, dist, d, k, exact=exact_scan)
            if problem:
                raise _SearchMismatch(problem)
            if not exact_scan:  # decode with what the cell-probe index found
                return idx, d[idx]
            ref = np.lexsort((np.arange(d.size), d))[:k]
            return ref, d[ref]
        return search

    def replay(kind: str, i: int) -> str | None:
        store, exact_scan = (cp, False) if kind == "cellprobe" else (exact, True)
        ref = ReferenceDecoder(model, keys, tokens, exact.vocab_size, wl.k, wl.lam,
                               wl.temperature, neighbors=checked_search(store, exact_scan))
        try:
            want = (ref.beam(sources[i], wl.beam, wl.max_len) if kind == "beam"
                    else ref.greedy(sources[i], wl.max_len))
        except _SearchMismatch as exc:
            return f"search: {exc}"
        return check_tokens(rnd.outputs[kind][i], want)

    picks = {
        "greedy": _spread(wl.greedy_sentences, wl.check_greedy),
        "cellprobe": _spread(wl.cellprobe_sentences, wl.check_greedy),
        "beam": _spread(wl.beam_sentences, wl.check_beam),
    }
    for kind, indices in picks.items():
        for i in indices:
            guarded(f"{kind}:{i}", replay, kind, i)


def _spread(n: int, m: int) -> list[int]:
    """m indices spread evenly over range(n)."""
    m = min(n, m)
    return sorted({i * n // m for i in range(m)})


def run_digest(pipe) -> str:
    """One digest of every output of the last round; equal for equal seeds."""
    rnd = pipe.rounds[-1]
    h = hashlib.blake2b(digest_size=8)
    h.update(json.dumps([sorted(pipe.setup_digests[0].items()), sorted(rnd.digests.items()),
                         rnd.outputs, rnd.bleu], sort_keys=True).encode())
    return h.hexdigest()
