import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmt.corpus import (
    RESERVED_TOKENS,
    EncodedPairs,
    TokenRows,
    Vocabulary,
    encode_pairs,
    load_parallel,
)

VOCAB = Vocabulary([*RESERVED_TOKENS, "a", "b", "c"])


class TestEncode:
    @given(st.lists(st.sampled_from(VOCAB.tokens), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_ids_are_line_numbers(self, tokens):
        assert VOCAB.encode(tokens) == [VOCAB.tokens.index(t) for t in tokens]

    def test_first_of_two_unknown_tokens_named(self):
        with pytest.raises(ValueError) as err:
            VOCAB.encode(["a", "x", "b", "y"])
        assert str(err.value) == "token not in vocabulary: 'x'"
        with pytest.raises(ValueError, match="^token not in vocabulary: 'y'$"):
            VOCAB.encode(["y", "x"])


# every whitespace class str.split splits on; line iteration splits only on newlines
WHITESPACE = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
              "\u3000", "\u2028"]
ENDINGS = ["\n", "\r\n", "\r"]
KNOWN = ["a", "b", "\u00e9", "\u65e5\u672c", "Stra\u00dfe", "c1"]  # and non-ASCII ones
UNKNOWN = ["x", "\u00fc", "\u8a9e"]
CORPUS_VOCAB = Vocabulary([*RESERVED_TOKENS, *KNOWN])


def per_line_oracle(src_path, tgt_path, vocab):
    """The corpus read line by line and encoded pair by pair: what the bulk reader must give."""
    with open(src_path, encoding="utf-8") as f:
        src = [line.split() for line in f]
    with open(tgt_path, encoding="utf-8") as f:
        tgt = [line.split() for line in f]
    if len(src) != len(tgt):
        raise ValueError(f"corpus sides differ: {len(src)} lines in {src_path}, "
                         f"{len(tgt)} in {tgt_path}")
    return [(vocab.encode(s), vocab.encode(t)) for s, t in zip(src, tgt)]


def outcome(read):
    """``read()``'s result, or the type and text of the error it raised."""
    try:
        return read()
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def corpus_text(draw, n_lines, unknown):
    """A file's text: blank and whitespace-only lines, every line ending, maybe no final one."""
    tokens = st.sampled_from(KNOWN + UNKNOWN if unknown else KNOWN)
    gap = st.text(st.sampled_from(WHITESPACE), min_size=1, max_size=3)
    text = ""
    for _ in range(n_lines):
        line = draw(st.text(st.sampled_from(WHITESPACE), max_size=2))  # leading whitespace
        for token, sep in draw(st.lists(st.tuples(tokens, gap), max_size=5)):
            line += token + sep
        if draw(st.booleans()):
            line = line.rstrip("".join(WHITESPACE))
        text += line + draw(st.sampled_from(ENDINGS))
    if text and draw(st.booleans()):  # no final newline
        text = text.rstrip("\r\n")
    return text


class TestLoadParallel:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_line_oracle(self, data):
        n_src = data.draw(st.integers(0, 6), label="source lines")
        n_tgt = n_src if data.draw(st.booleans(), label="same length") else \
            data.draw(st.integers(0, 6), label="target lines")
        unknown = data.draw(st.booleans(), label="unknown tokens")
        texts = [data.draw(corpus_text(n, unknown)) for n in (n_src, n_tgt)]
        with tempfile.TemporaryDirectory() as tmp:
            src_path, tgt_path = Path(tmp) / "c.xx", Path(tmp) / "c.en"
            for path, text in zip((src_path, tgt_path), texts):
                path.write_bytes(text.encode("utf-8"))  # "\r" kept as written
            expected = outcome(lambda: per_line_oracle(src_path, tgt_path, CORPUS_VOCAB))
            got = outcome(lambda: encode_pairs(load_parallel(src_path, tgt_path),
                                               CORPUS_VOCAB))
        if isinstance(expected, tuple):  # the same error, naming the same token
            assert got == expected
            return
        reference = EncodedPairs.of(expected)
        for side in ("src", "tgt"):
            rows, want = getattr(got, side), getattr(reference, side)
            assert rows.ids.dtype == rows.offsets.dtype == np.int64
            assert rows.ids.tolist() == want.ids.tolist()
            assert rows.offsets.tolist() == want.offsets.tolist()
        assert len(got) == len(expected)

    def test_unknown_token_of_the_first_pair_to_hold_one_named(self, tmp_path):
        # the target side's unknown comes first, pair by pair, though the
        # source side holds one too
        (tmp_path / "c.xx").write_text("a\na x\n", encoding="utf-8")
        (tmp_path / "c.en").write_text("b y\nb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^token not in vocabulary: 'y'$"):
            encode_pairs(load_parallel(tmp_path / "c.xx", tmp_path / "c.en"), CORPUS_VOCAB)
        (tmp_path / "c.xx").write_text("x\na\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^token not in vocabulary: 'x'$"):
            encode_pairs(load_parallel(tmp_path / "c.xx", tmp_path / "c.en"), CORPUS_VOCAB)


class TestTokenRows:
    def test_lists_round_trip(self):
        rows = TokenRows.from_lists([[3, 4], [], [5]])
        assert rows.ids.tolist() == [3, 4, 5]
        assert rows.offsets.tolist() == [0, 2, 2, 3]
        assert rows.lengths.tolist() == [2, 0, 1] and len(rows) == 3

    def test_sides_of_other_lengths_rejected(self):
        with pytest.raises(ValueError, match="corpus sides differ"):
            EncodedPairs(TokenRows.from_lists([[3]]), TokenRows.from_lists([]))

    def test_encoded_pairs_pass_through(self):
        pairs = EncodedPairs.of([([3, 4], [5]), ([], [6, 7])])
        assert EncodedPairs.of(pairs) is pairs
        assert pairs.src.offsets.tolist() == [0, 2, 2]
        assert pairs.tgt.ids.tolist() == [5, 6, 7]
