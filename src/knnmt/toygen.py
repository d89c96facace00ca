"""Seeded synthetic corpora for desk-scale pipeline runs.

Targets are random word sequences; each source language renders a target
through its own fixed word permutation, so languages are exact relabelings
of one another. That gives the count-based toy model something learnable
and gives cross-lingual alignment a recoverable ground truth. Every output
is a pure function of the seed, through numpy's ``Generator`` stream.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .corpus import RESERVED_TOKENS, Vocabulary, write_sentences
from .features import LINGUISTIC_FEATURES
from .vecstore import check_lang_code


@dataclass(frozen=True)
class ToySpec:
    """Shape of a generated dataset.

    Every language code, the target's included, must pass ``check_lang_code``
    (MalformedDumpError), and no code may appear twice (ValueError): they
    name the dataset's files, and the binary writers take the same codes.
    Every other bad shape raises ValueError here, before anything is
    generated: ``n_train`` or ``n_words`` below 1, a negative ``n_test``, a
    ``coverage`` outside (0, 1], or a length range that is not
    ``1 <= min_len <= max_len``.
    """

    langs: tuple[str, ...]
    tgt_lang: str = "en"
    n_train: int = 200
    n_test: int = 20
    n_words: int = 50
    min_len: int = 3
    max_len: int = 9
    coverage: float = 1.0  # fraction of the target pool each language sees
    seed: int = 0

    def __post_init__(self):
        codes = (*self.langs, self.tgt_lang)
        for code in codes:
            check_lang_code(code)
        if len(set(codes)) < len(codes):
            raise ValueError(f"a language code is given twice: {', '.join(codes)}")
        if self.n_train < 1 or self.n_words < 1:
            raise ValueError("need at least one sentence and one word")
        if self.n_test < 0:
            raise ValueError(f"n_test must be at least 0, got {self.n_test}")
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError("coverage must lie in (0, 1]")
        if self.min_len < 1 or self.max_len < self.min_len:
            raise ValueError("bad sentence length range")


@dataclass(frozen=True)
class ToyData:
    """In-memory generated dataset, before any files are written."""

    spec: ToySpec
    vocab: Vocabulary
    # per language: line-aligned (source, target) word sequences
    train: dict[str, list[tuple[list[str], list[str]]]]
    test: dict[str, list[tuple[list[str], list[str]]]]
    bleu_rows: dict[str, tuple[float, float]]
    distance_rows: dict[tuple[str, str], dict[str, float]]


def generate(spec: ToySpec) -> ToyData:
    rng = np.random.default_rng(spec.seed)
    words = [f"w{i:03d}" for i in range(spec.n_words)]
    vocab = Vocabulary(list(RESERVED_TOKENS) + words)

    # targets follow a seeded first-order Markov chain, so the count-based
    # toy model has transferable bigram structure to learn
    transitions = rng.dirichlet(np.full(spec.n_words, 0.1), size=spec.n_words)
    # each row's CDF as Generator.choice(n_words, p=row) builds it, so
    # bisect_right (searchsorted side="right") on the same uniform draw
    # picks the same next word, and the stream advances the same way
    cdfs = []
    for row in transitions:
        cdf = row.cumsum()
        cdf /= cdf[-1]
        cdfs.append(cdf.tolist())

    def sample_sentences(count: int) -> list[list[int]]:
        lengths = rng.integers(spec.min_len, spec.max_len + 1, size=count)
        sentences = []
        for n in lengths.tolist():
            state = int(rng.integers(0, spec.n_words))
            sent = [state]
            for u in rng.random(n - 1).tolist():
                state = bisect_right(cdfs[state], u)
                sent.append(state)
            sentences.append(sent)
        return sentences

    target_pool = sample_sentences(spec.n_train)
    test_pool = sample_sentences(spec.n_test)
    # word id -> its word in each language
    tables = {lang: [words[j] for j in rng.permutation(spec.n_words)]
              for lang in spec.langs}

    def render(table: list[str], ids: list[int]) -> list[str]:
        return list(map(table.__getitem__, ids))

    n_covered = max(1, int(round(spec.coverage * spec.n_train)))
    train = {}
    test = {}
    for lang in spec.langs:
        if n_covered < spec.n_train:
            picked = sorted(rng.choice(spec.n_train, size=n_covered, replace=False))
        else:
            picked = range(spec.n_train)
        table = tables[lang]
        train[lang] = [(render(table, target_pool[i]), render(words, target_pool[i]))
                       for i in picked]
        test[lang] = [(render(table, t), render(words, t)) for t in test_pool]

    bleu_rows = {}
    for lang in spec.langs:
        bilingual = float(np.clip(rng.normal(0.25, 0.08), 0.02, 0.9))
        multilingual = float(np.clip(bilingual + rng.normal(0.02, 0.05), 0.01, 0.95))
        bleu_rows[lang] = (bilingual, multilingual)
    distance_rows = {}
    ordered = sorted(spec.langs)
    for i, l1 in enumerate(ordered):
        for l2 in ordered[i + 1:]:
            distance_rows[(l1, l2)] = {
                name: float(rng.uniform(0.0, 1.0)) for name in LINGUISTIC_FEATURES
            }
    return ToyData(spec=spec, vocab=vocab, train=train, test=test,
                   bleu_rows=bleu_rows, distance_rows=distance_rows)


def write_dataset(data: ToyData, out_dir: str | os.PathLike) -> dict[str, str]:
    """Write corpus, vocab, alignment, score and distance files; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    out = os.fspath(out_dir)
    spec = data.spec
    paths = {}
    vocab_path = os.path.join(out, "vocab.txt")
    data.vocab.save(vocab_path)
    paths["vocab"] = vocab_path
    for lang in spec.langs:
        pair = f"{lang}-{spec.tgt_lang}"
        for split, pairs in (("train", data.train[lang]), ("test", data.test[lang])):
            if not pairs:
                continue
            src_path = os.path.join(out, f"{pair}.{split}.{lang}")
            tgt_path = os.path.join(out, f"{pair}.{split}.{spec.tgt_lang}")
            write_sentences(src_path, [s for s, _ in pairs])
            write_sentences(tgt_path, [t for _, t in pairs])
            paths[f"{pair}.{split}"] = src_path
    for i, l1 in enumerate(spec.langs):
        for l2 in spec.langs[i + 1:]:
            align_path = os.path.join(out, f"alignment.{l1}-{l2}.tsv")
            targets2 = {" ".join(t): j for j, (_, t) in enumerate(data.train[l2])}
            with open(align_path, "w", encoding="utf-8") as f:
                for sid1, (_, target) in enumerate(data.train[l1]):
                    sid2 = targets2.get(" ".join(target))
                    if sid2 is not None:
                        f.write(f"{sid1}\t{sid2}\n")
            paths[f"alignment.{l1}-{l2}"] = align_path
    bleu_path = os.path.join(out, "bleu-table.tsv")
    with open(bleu_path, "w", encoding="utf-8") as f:
        f.write("#scale=unit\n")
        for lang in spec.langs:
            bi, multi = data.bleu_rows[lang]
            f.write(f"{lang}\t{bi:.6f}\t{multi:.6f}\n")
    paths["bleu_table"] = bleu_path
    dist_path = os.path.join(out, "distances.tsv")
    with open(dist_path, "w", encoding="utf-8") as f:
        for (l1, l2), row in sorted(data.distance_rows.items()):
            values = "\t".join(f"{row[name]:.6f}" for name in LINGUISTIC_FEATURES)
            f.write(f"{l1}\t{l2}\t{values}\n")
    paths["distances"] = dist_path
    return paths
