import pytest

from knnmt.toygen import ToySpec, generate


class TestToySpec:
    @pytest.mark.parametrize("field, value", [
        ("n_train", 0),
        ("n_words", 0),
        ("n_test", -1),
        ("coverage", 0.0),
        ("coverage", 1.5),
        ("min_len", 0),
        ("max_len", 2),  # below the default min_len of 3
    ])
    def test_bad_field_raises_at_construction(self, field, value):
        with pytest.raises(ValueError):
            ToySpec(langs=("aa",), **{field: value})

    def test_edge_values_construct_and_generate(self):
        spec = ToySpec(langs=("aa",), n_train=1, n_test=0, n_words=1, min_len=1,
                       max_len=1, coverage=1.0)
        data = generate(spec)
        assert len(data.train["aa"]) == 1 and data.test["aa"] == []
