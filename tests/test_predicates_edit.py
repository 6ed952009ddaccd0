"""Unit tests for the edit-based predicate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predicates import EditDistance
from repro.text.strings import edit_similarity
from repro.text.tokenize import normalize_string


class TestEditDistance:
    def test_identity_scores_one(self, company_strings):
        predicate = EditDistance().fit(company_strings)
        for tid in (0, 4, 7):
            assert predicate.score(company_strings[tid], tid) == pytest.approx(1.0)

    def test_score_matches_direct_formula(self, company_strings):
        predicate = EditDistance().fit(company_strings)
        query = "Morgan Stanley Grp Inc."
        expected = edit_similarity(
            normalize_string(query), normalize_string(company_strings[0])
        )
        assert predicate.score(query, 0) == pytest.approx(expected)

    def test_token_swap_weakness(self, company_strings):
        """Edit distance mis-ranks token swaps (paper section 5.4)."""
        predicate = EditDistance().fit(company_strings)
        scores = dict(predicate.rank("Beijing Hotel"))
        # Beijing Labs is judged closer than Hotel Beijing by pure edit distance.
        assert scores[6] > scores[7]

    def test_rank_restricted_to_qgram_candidates(self, company_strings):
        predicate = EditDistance().fit(company_strings)
        ranked = predicate.rank("zzzzqqqq")
        assert ranked == []

    def test_select_threshold_validation(self, company_strings):
        predicate = EditDistance().fit(company_strings)
        with pytest.raises(ValueError):
            predicate.select("x", threshold=1.5)

    def test_select_agrees_with_rank_filtering(self, company_strings):
        """The filtered selection must return exactly the tuples the unfiltered
        ranking would keep above the threshold (no false negatives)."""
        predicate = EditDistance().fit(company_strings)
        for query in ("Morgan Stanley Group Inc.", "AT&T Inc", "Beijing Hotle"):
            for threshold in (0.5, 0.7, 0.9):
                expected = {
                    scored.tid: scored.score
                    for scored in predicate.rank(query)
                    if scored.score >= threshold
                }
                actual = {scored.tid: scored.score for scored in predicate.select(query, threshold)}
                assert actual.keys() == expected.keys()
                for tid, score in actual.items():
                    assert score == pytest.approx(expected[tid])

    @given(
        st.lists(
            st.text(alphabet=st.characters(min_codepoint=65, max_codepoint=90), min_size=1, max_size=10),
            min_size=2,
            max_size=6,
        ),
        st.floats(min_value=0.3, max_value=0.95),
    )
    @settings(max_examples=25, deadline=None)
    def test_select_never_loses_candidates(self, strings, threshold):
        predicate = EditDistance().fit(strings)
        query = strings[0]
        expected_tids = {
            scored.tid for scored in predicate.rank(query) if scored.score >= threshold
        }
        actual_tids = {scored.tid for scored in predicate.select(query, threshold)}
        assert expected_tids == actual_tids

    def test_scores_bounded(self, company_strings):
        predicate = EditDistance().fit(company_strings)
        for scored in predicate.rank("Granite Construction Inc"):
            assert 0.0 <= scored.score <= 1.0

    def test_select_keeps_tuple_exactly_at_threshold(self):
        # (1 - 0.8) * 20 is 3.999... in floating point; the tuple is four
        # substitutions away, so it scores exactly 0.8 and must be kept.
        rows = ["ABCDEFGHIJKLMNOPQRST", "ABCDEFGHIJKLMNOPWXYZ"]
        predicate = EditDistance().fit(rows)
        assert [(st.tid, st.score) for st in predicate.select(rows[0], 0.8)] == [
            (0, 1.0),
            (1, 0.8),
        ]
