"""Unit and property tests for character-level string similarities."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.strings import (
    edit_similarity,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_within,
    ngram_overlap,
)

short_text = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=20)

#: Astral code points, combining marks, zero-width joiners and several
#: kinds of whitespace, drawn often enough that two strings share characters.
_tricky_chars = st.sampled_from(
    "ab e\u00e9\u0301\u0308\u200d\t\n\u00a0\u3000\U0001F600\U00010348"
)
_whitespace = st.sampled_from(" \t\n\r\u00a0\u2003\u3000")
#: Any code point a Python ``str`` can hold (surrogates excepted).
_any_char = st.characters(exclude_categories=("Cs",))


def _text_of_length(alphabet):
    # Lengths up to 150 so the bit-vector kernel runs past 64 bits.
    return st.integers(min_value=0, max_value=150).flatmap(
        lambda n: st.text(alphabet=alphabet, min_size=n, max_size=n)
    )


unicode_text = st.one_of(
    _text_of_length(st.one_of(_tricky_chars, _any_char)),
    _text_of_length(_whitespace),
)


@st.composite
def unicode_pairs(draw):
    """Two unrelated strings, or a string and a few random edits of it."""
    a = draw(unicode_text)
    if draw(st.booleans()):
        return a, draw(unicode_text)
    chars = list(a)
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        pos = draw(st.integers(min_value=0, max_value=len(chars)))
        op = draw(st.sampled_from(("insert", "delete", "substitute")))
        if op == "insert":
            chars.insert(pos, draw(_tricky_chars))
        elif pos < len(chars):
            if op == "delete":
                del chars[pos]
            else:
                chars[pos] = draw(_tricky_chars)
    return a, "".join(chars)


def textbook_levenshtein(a, b):
    """The O(|a| * |b|) Wagner-Fischer table, kept as the reference."""
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


def reference_jaro(a, b):
    """Jaro with a linear scan of the match window for the first unmatched
    equal character, kept as the reference."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    match_window = max(max(la, lb) // 2 - 1, 0)
    a_matched = [False] * la
    b_matched = [False] * lb
    matches = 0
    for i, ca in enumerate(a):
        for j in range(max(0, i - match_window), min(lb, i + match_window + 1)):
            if b_matched[j] or b[j] != ca:
                continue
            a_matched[i] = b_matched[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, ca in enumerate(a):
        if not a_matched[i]:
            continue
        while not b_matched[j]:
            j += 1
        if ca != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    m = float(matches)
    return (m / la + m / lb + (m - transpositions) / m) / 3.0


def reference_jaro_winkler(a, b):
    base = reference_jaro(a, b)
    prefix_len = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix_len >= 4:
            break
        prefix_len += 1
    return base + prefix_len * 0.1 * (1.0 - base)


class TestExactnessOracles:
    """The fast kernels return exactly the reference values."""

    @given(unicode_pairs())
    @settings(max_examples=150, deadline=None)
    def test_levenshtein_matches_textbook_dp(self, pair):
        a, b = pair
        assert levenshtein(a, b) == textbook_levenshtein(a, b)

    @given(unicode_pairs(), st.integers(min_value=-1, max_value=160))
    @settings(max_examples=100, deadline=None)
    def test_levenshtein_within_matches_textbook_dp(self, pair, budget):
        a, b = pair
        exact = textbook_levenshtein(a, b)
        assert levenshtein_within(a, b, budget) == (exact if exact <= budget else None)

    @given(unicode_pairs())
    @settings(max_examples=150, deadline=None)
    def test_jaro_and_jaro_winkler_match_reference_loop(self, pair):
        a, b = pair
        assert jaro(a, b) == reference_jaro(a, b)
        assert jaro(b, a) == reference_jaro(b, a)
        assert jaro_winkler(a, b) == reference_jaro_winkler(a, b)

    @pytest.mark.parametrize("length", [1, 29, 30, 31, 63, 64, 65, 127, 128, 129, 150])
    def test_levenshtein_at_machine_word_boundaries(self, length):
        pattern = "".join("abcde"[i % 5] for i in range(length))
        for other in (pattern[::-1], pattern[1:] + "z", "x" + pattern, pattern[:-1], ""):
            assert levenshtein(pattern, other) == textbook_levenshtein(pattern, other)
            assert levenshtein(other, pattern) == textbook_levenshtein(pattern, other)


class TestLevenshtein:
    def test_identical_strings(self):
        assert levenshtein("stanley", "stanley") == 0

    def test_empty_strings(self):
        assert levenshtein("", "") == 0
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_classic_example(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_single_substitution(self):
        assert levenshtein("morgan", "morgen") == 1

    def test_single_insertion(self):
        assert levenshtein("morgan", "morgans") == 1

    def test_single_deletion(self):
        assert levenshtein("morgan", "organ") == 1

    def test_completely_different(self):
        assert levenshtein("abc", "xyz") == 3

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_text, short_text)
    def test_bounds(self, a, b):
        distance = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= distance <= max(len(a), len(b))

    @given(short_text)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(short_text, short_text, short_text)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestLevenshteinWithin:
    def test_within_budget_matches_exact(self):
        assert levenshtein_within("kitten", "sitting", 3) == 3

    def test_over_budget_returns_none(self):
        assert levenshtein_within("kitten", "sitting", 2) is None

    def test_negative_budget(self):
        assert levenshtein_within("a", "b", -1) is None

    def test_equal_strings_zero_budget(self):
        assert levenshtein_within("same", "same", 0) == 0

    def test_length_difference_prunes(self):
        assert levenshtein_within("a", "abcdef", 2) is None

    def test_empty_string(self):
        assert levenshtein_within("", "ab", 2) == 2
        assert levenshtein_within("", "abc", 2) is None

    @given(short_text, short_text, st.integers(min_value=0, max_value=25))
    @settings(max_examples=100)
    def test_agrees_with_exact(self, a, b, budget):
        exact = levenshtein(a, b)
        within = levenshtein_within(a, b, budget)
        if exact <= budget:
            assert within == exact
        else:
            assert within is None


class TestEditSimilarity:
    def test_identical(self):
        assert edit_similarity("stanley", "stanley") == 1.0

    def test_empty_pair(self):
        assert edit_similarity("", "") == 1.0

    def test_against_empty(self):
        assert edit_similarity("abc", "") == 0.0

    def test_normalization(self):
        # one edit over max length 7
        assert edit_similarity("stanley", "stanlee") == pytest.approx(1 - 1 / 7)

    @given(short_text, short_text)
    def test_range(self, a, b):
        assert 0.0 <= edit_similarity(a, b) <= 1.0

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert edit_similarity(a, b) == edit_similarity(b, a)


class TestJaro:
    def test_identical(self):
        assert jaro("martha", "martha") == 1.0

    def test_classic_martha(self):
        assert jaro("martha", "marhta") == pytest.approx(0.944, abs=1e-3)

    def test_classic_dixon(self):
        assert jaro("dixon", "dicksonx") == pytest.approx(0.767, abs=1e-3)

    def test_no_match(self):
        assert jaro("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro("", "abc") == 0.0
        assert jaro("", "") == 1.0

    @given(short_text, short_text)
    def test_range_and_symmetry(self, a, b):
        value = jaro(a, b)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(jaro(b, a))


class TestJaroWinkler:
    def test_identical(self):
        assert jaro_winkler("stanley", "stanley") == 1.0

    def test_prefix_boost(self):
        assert jaro_winkler("martha", "marhta") > jaro("martha", "marhta")

    def test_no_boost_without_common_prefix(self):
        assert jaro_winkler("abcd", "xbcd") == pytest.approx(jaro("abcd", "xbcd"))

    def test_prefix_capped_at_four(self):
        # Only the first four characters of the shared prefix matter.
        long_prefix = jaro_winkler("abcdefgh", "abcdefgx")
        explicit = jaro("abcdefgh", "abcdefgx")
        assert long_prefix == pytest.approx(explicit + 4 * 0.1 * (1 - explicit))

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            jaro_winkler("a", "b", prefix_scale=0.5)

    @given(short_text, short_text)
    def test_range(self, a, b):
        assert 0.0 <= jaro_winkler(a, b) <= 1.0

    @given(short_text, short_text)
    def test_at_least_jaro(self, a, b):
        assert jaro_winkler(a, b) >= jaro(a, b) - 1e-12


class TestNgramOverlap:
    def test_identical(self):
        assert ngram_overlap("stanley", "stanley") == 1.0

    def test_disjoint(self):
        assert ngram_overlap("aaaa", "bbbb") == 0.0

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            ngram_overlap("ab", "cd", n=0)

    @given(short_text, short_text)
    def test_range(self, a, b):
        assert 0.0 <= ngram_overlap(a, b) <= 1.0
