"""Plain-text parallel corpora and token vocabularies.

Corpus files are UTF-8, one whitespace-tokenized sentence per line, two
line-aligned files per pair (``<name>.<src>``, ``<name>.<tgt>``). Vocabulary
files hold one token per line; the line number is the token id, with ids
0/1/2 reserved for pad/bos/eos.
"""

from __future__ import annotations

import os

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


def load_parallel(src_path: str | os.PathLike,
                  tgt_path: str | os.PathLike) -> list[tuple[list[str], list[str]]]:
    """Line-aligned sentence pairs; raises on length mismatch."""
    src = read_sentences(src_path)
    tgt = read_sentences(tgt_path)
    if len(src) != len(tgt):
        raise ValueError(
            f"corpus sides differ: {len(src)} lines in {src_path}, "
            f"{len(tgt)} in {tgt_path}")
    return list(zip(src, tgt))


def encode_pairs(pairs: list[tuple[list[str], list[str]]],
                 vocab: Vocabulary) -> list[tuple[list[int], list[int]]]:
    return [(vocab.encode(s), vocab.encode(t)) for s, t in pairs]
