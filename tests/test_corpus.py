import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmt.corpus import RESERVED_TOKENS, Vocabulary

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
