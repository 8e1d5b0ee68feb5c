"""Tests for repro.text: tokenizers, normalization, number patterns,
token hashes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import (
    KNOWN_AWARD_PATTERNS,
    alphanumeric,
    award_number_suffix,
    casefold_tokens,
    collapse_whitespace,
    comparable,
    delimiter,
    normalize_title,
    pattern_signature,
    qgram,
    strip_special_characters,
    unique,
    whitespace,
)
from repro.text.intern import Vocabulary, fnv1a_64


class TestTokenizers:
    def test_whitespace(self):
        assert whitespace("a  b\tc") == ["a", "b", "c"]
        assert whitespace("") == []

    def test_alphanumeric(self):
        assert alphanumeric("ab-12_cd") == ["ab", "12", "cd"]

    def test_delimiter(self):
        tok = delimiter("|")
        assert tok("Smith, A|Jones, B") == ["Smith, A", "Jones, B"]
        assert tok("||a||") == ["a"]

    def test_qgram_padding(self):
        assert qgram(3)("ab") == ["##a", "#ab", "ab#", "b##"]
        assert qgram(2)("a") == ["#a", "a#"]
        assert qgram(1)("ab") == ["a", "b"]

    def test_qgram_empty(self):
        assert qgram(3)("") == []

    def test_qgram_invalid(self):
        with pytest.raises(ValueError):
            qgram(0)

    def test_unique_wrapper(self):
        tok = unique(whitespace)
        assert tok("a b a c b") == ["a", "b", "c"]


class TestNormalize:
    def test_strip_special_characters(self):
        assert strip_special_characters('a "b" (c)!').split() == ["a", "b", "c"]

    def test_normalize_title(self):
        assert normalize_title('The "BIG" (Study)!') == "the big study"

    def test_normalize_missing_passthrough(self):
        assert normalize_title(None) is None

    def test_normalize_non_string(self):
        assert normalize_title(42) == "42"

    def test_casefold_tokens(self):
        assert casefold_tokens(["AbC", "D"]) == ["abc", "d"]

    def test_collapse_whitespace(self):
        assert collapse_whitespace("  a \t b  ") == "a b"


class TestPatterns:
    def test_suffix_extraction(self):
        assert award_number_suffix("10.200 2008-34103-19449") == "2008-34103-19449"
        assert award_number_suffix("10.203 WIS01040") == "WIS01040"

    def test_suffix_none_for_plain_numbers(self):
        assert award_number_suffix("2008-34103-19449") is None
        assert award_number_suffix(None) is None
        assert award_number_suffix("") is None

    def test_signature_shapes(self):
        assert pattern_signature("2008-34103-19449") == "YYYY-#####-#####"
        assert pattern_signature("WIS01040") == "XXX#####"
        assert pattern_signature("03-CS-11231300-031") == "##-XX-########-###"

    def test_signature_year_detection(self):
        assert pattern_signature("2008") == "YYYY"
        assert pattern_signature("3008") == "####"  # not a plausible year

    def test_signature_missing(self):
        assert pattern_signature(None) is None
        assert pattern_signature("   ") is None

    def test_comparable_same_pattern_only(self):
        assert comparable("WIS01040", "WIS04509")
        assert not comparable("WIS01040", "2008-34103-19449")

    def test_paper_example_not_comparable(self):
        # the paper's Section-12 example pair
        assert not comparable("03-CS-112313000-031", "2001-34101-10526")

    def test_known_patterns_restriction(self):
        assert comparable("WIS01040", "WIS04509", KNOWN_AWARD_PATTERNS)
        # same signatures but an unrecognised shape -> not comparable
        assert not comparable("AB1", "CD2", KNOWN_AWARD_PATTERNS)

    def test_comparable_with_missing(self):
        assert not comparable(None, "WIS01040")


def fnv1a_reference(token):
    h = 0xCBF29CE484222325
    for byte in token.encode("utf-8", "surrogatepass"):
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    return h


class TestTokenHashes:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(max_size=12), max_size=20))
    def test_fnv1a_matches_bytewise_reference(self, tokens):
        assert fnv1a_64(tokens).tolist() == [fnv1a_reference(t) for t in tokens]

    def test_known_values(self):
        # published FNV-1a 64 test vectors
        assert fnv1a_64(["", "a", "foobar"]).tolist() == [
            0xCBF29CE484222325, 0xAF63DC4C8601EC8C, 0x85944171F73967E8,
        ]

    def test_vocabulary_hashes_follow_text_not_ids(self):
        first, second = Vocabulary(), Vocabulary()
        first.intern_all(["corn", "swamp"])
        first.token_hashes()
        first.intern_all(["dodder", "λж"])  # extends the cached hashes
        second.intern_all(["λж", "dodder", "swamp", "corn"])
        for token in ["corn", "swamp", "dodder", "λж"]:
            assert (
                first.token_hashes()[first.id_of(token)]
                == second.token_hashes()[second.id_of(token)]
                == fnv1a_reference(token)
            )
