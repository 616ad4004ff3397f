"""Unit tests for tokenization and term normalization."""

from hypothesis import given, strategies as st

from repro.textsys.analysis import (
    normalize_term,
    tokenize,
    tokenize_with_positions,
)


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Belief UPDATE") == ["belief", "update"]

    def test_splits_on_punctuation(self):
        assert tokenize("smith, jones; and-co") == ["smith", "jones", "and", "co"]

    def test_internal_apostrophe_kept(self):
        assert tokenize("O'Brien's work") == ["o'brien's", "work"]

    def test_numbers_are_tokens(self):
        assert tokenize("may 1993") == ["may", "1993"]

    def test_alphanumeric_runs(self):
        assert tokenize("garcia042x7") == ["garcia042x7"]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("!!! --- ???") == []


class TestPositions:
    def test_word_offsets(self):
        assert tokenize_with_positions("a b a") == [("a", 0), ("b", 1), ("a", 2)]

    def test_positions_skip_punctuation(self):
        assert tokenize_with_positions("a, b") == [("a", 0), ("b", 1)]


class TestNormalizeTerm:
    def test_first_token(self):
        assert normalize_term("Belief") == "belief"

    def test_empty(self):
        assert normalize_term("???") == ""


@given(st.text(max_size=80))
def test_tokenize_idempotent_on_join(text):
    """Re-tokenizing the joined token stream is a fixpoint."""
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


@given(st.text(max_size=80))
def test_tokens_are_normalized(text):
    for token in tokenize(text):
        assert token == token.lower()
        assert token  # non-empty
