"""Plain-text parallel corpora and token vocabularies.

Corpus files are UTF-8, one whitespace-tokenized sentence per line, two
line-aligned files per pair (``<name>.<src>``, ``<name>.<tgt>``). Vocabulary
files hold one token per line; the line number is the token id, with ids
0/1/2 reserved for pad/bos/eos. An encoded corpus is held in arrays: each
side is one ``TokenRows`` CSR pair of token ids and per-sentence offsets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>")


class Vocabulary:
    """Token <-> id mapping with the three reserved specials."""

    def __init__(self, tokens: list[str]):
        if len(tokens) < len(RESERVED_TOKENS):
            raise ValueError("vocabulary must include the three reserved ids")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary contains duplicate tokens")
        self.tokens = list(tokens)
        self._ids = {tok: i for i, tok in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: list[str]) -> list[int]:
        try:
            return list(map(self._ids.__getitem__, tokens))
        except KeyError as e:
            raise ValueError(f"token not in vocabulary: {e.args[0]!r}") from None

    def decode(self, ids: list[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            tokens = [line.rstrip("\n") for line in f]
        return cls(tokens)

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")


def read_sentences(path: str | os.PathLike) -> list[list[str]]:
    """One tokenized sentence per line; blank lines become empty sentences."""
    with open(path, encoding="utf-8") as f:
        return [line.split() for line in f]


def write_sentences(path: str | os.PathLike, sentences: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for sent in sentences:
            f.write(" ".join(sent) + "\n")


@dataclass(frozen=True)
class TokenRows:
    """Sentences of token ids as one CSR pair of int64 arrays.

    Sentence i is ``ids[offsets[i]:offsets[i + 1]]``; ``offsets`` starts at 0
    and has one entry more than there are sentences.
    """

    ids: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return self.offsets.size - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    @classmethod
    def from_lengths(cls, ids: np.ndarray, lengths: np.ndarray) -> "TokenRows":
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(ids, offsets)

    @classmethod
    def from_lists(cls, sentences: Sequence[Sequence[int]]) -> "TokenRows":
        lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
        ids = np.fromiter(chain.from_iterable(sentences), np.int64, int(lengths.sum()))
        return cls.from_lengths(ids, lengths)


@dataclass(frozen=True)
class EncodedPairs:
    """Line-aligned sentence pairs of token ids: one ``TokenRows`` per side."""

    src: TokenRows
    tgt: TokenRows

    def __post_init__(self):
        if len(self.src) != len(self.tgt):
            raise ValueError(f"corpus sides differ: {len(self.src)} source sentences, "
                             f"{len(self.tgt)} target sentences")

    def __len__(self) -> int:
        return len(self.src)

    @classmethod
    def of(cls, pairs: "EncodedPairs | Sequence[tuple[Sequence[int], Sequence[int]]]"
           ) -> "EncodedPairs":
        """``pairs`` itself, or a sequence of (source ids, target ids) pairs converted."""
        if isinstance(pairs, cls):
            return pairs
        return cls(TokenRows.from_lists([s for s, _ in pairs]),
                   TokenRows.from_lists([t for _, t in pairs]))


@dataclass(frozen=True)
class ParallelText:
    """A line-aligned corpus as read: each side's whole text and its lines."""

    src_text: str
    src_lines: list[str]
    tgt_text: str
    tgt_lines: list[str]


def _read_text(path: str | os.PathLike) -> tuple[str, list[str]]:
    """A file's text and its lines, split as iterating over the file splits them."""
    with open(path, encoding="utf-8") as f:
        text = f.read()  # newlines translated to "\n", as line iteration translates them
    lines = text.split("\n")
    if not lines[-1]:  # the empty piece after a final newline, or of an empty file
        lines.pop()
    return text, lines


def load_parallel(src_path: str | os.PathLike,
                  tgt_path: str | os.PathLike) -> ParallelText:
    """Both sides of a line-aligned corpus, each read once; raises on length mismatch."""
    src_text, src_lines = _read_text(src_path)
    tgt_text, tgt_lines = _read_text(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise ValueError(
            f"corpus sides differ: {len(src_lines)} lines in {src_path}, "
            f"{len(tgt_lines)} in {tgt_path}")
    return ParallelText(src_text, src_lines, tgt_text, tgt_lines)


def _encode_side(vocab: Vocabulary, text: str, lines: list[str]) -> TokenRows:
    """One side's token ids and offsets; raises KeyError for an unknown token."""
    tokens = text.split()  # every line's tokens in order: "\n" is whitespace too
    ids = np.fromiter(map(vocab._ids.__getitem__, tokens), np.int64, len(tokens))
    return TokenRows.from_lengths(ids, np.fromiter(map(len, map(str.split, lines)),
                                                   np.int64, len(lines)))


def encode_pairs(text: ParallelText, vocab: Vocabulary) -> EncodedPairs:
    """Encode both sides of ``load_parallel``'s corpus, each in one pass.

    An unknown token raises ValueError naming the token that encoding the
    pairs one by one, source before target, would meet first.
    """
    try:
        return EncodedPairs(_encode_side(vocab, text.src_text, text.src_lines),
                            _encode_side(vocab, text.tgt_text, text.tgt_lines))
    except KeyError:
        for src, tgt in zip(text.src_lines, text.tgt_lines):  # raises for the first one
            vocab.encode(src.split())
            vocab.encode(tgt.split())
        raise
