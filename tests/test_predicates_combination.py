"""Unit tests for the combination predicates (GES family and SoftTFIDF)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.predicates import GES, GESApx, GESJaccard, SoftTFIDF
from repro.datagen import make_dataset
from repro.engine import SimilarityEngine
from repro.text.strings import edit_similarity, jaro_winkler
from repro.text.weights import tfidf_weights


class TestGES:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GES(cins=1.5)

    def test_identity_scores_one(self, company_strings):
        predicate = GES().fit(company_strings)
        for tid in (0, 5, 9):
            assert predicate.score(company_strings[tid], tid) == pytest.approx(1.0)

    def test_scores_in_unit_interval(self, company_strings):
        predicate = GES().fit(company_strings)
        for scored in predicate.rank("Morgan Stanley Grp Inc"):
            assert 0.0 <= scored.score <= 1.0

    def test_edit_error_resilience(self, company_strings):
        """GES tolerates within-word edit errors well (paper Table 5.6)."""
        predicate = GES().fit(company_strings)
        assert predicate.score("Morgn Stanlye Group Inc.", 0) > 0.8

    def test_token_swap_weakness(self, company_strings):
        """GES cannot capture token swaps (paper section 5.4.1)."""
        predicate = GES().fit(company_strings)
        swapped = predicate.score("Hotel Beijing", 5)     # base tuple "Beijing Hotel"
        identical = predicate.score("Beijing Hotel", 5)
        assert swapped < identical

    def test_deletion_cost_reduces_score(self, company_strings):
        predicate = GES().fit(company_strings)
        full = predicate.score("Morgan Stanley Group Inc.", 0)
        partial = predicate.score("Morgan Stanley Group Inc. Extra Words Here", 0)
        assert partial < full

    def test_insertion_cost_uses_cins(self, company_strings):
        cheap = GES(cins=0.1).fit(company_strings)
        expensive = GES(cins=0.9).fit(company_strings)
        query = "Morgan Group"  # needs insertions to become the full name
        assert cheap.score(query, 0) >= expensive.score(query, 0)

    def test_ges_score_empty_query(self, company_strings):
        predicate = GES().fit(company_strings)
        assert predicate.ges_score([], ["X"]) in (0.0, 1.0)


class TestGESJaccard:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            GESJaccard(threshold=1.5)

    def test_filter_is_upper_bound_of_exact_score(self, company_strings):
        """Equation 4.7 over-estimates GES, so filtering keeps true positives."""
        predicate = GESJaccard(threshold=0.0).fit(company_strings)
        query_words = predicate._query_words("Morgan Stanley Grup Inc.")
        for tid in range(len(company_strings)):
            tuple_words = predicate._word_lists[tid]
            filter_score = predicate.filter_score(query_words, tuple_words)
            exact = predicate.ges_score(query_words, tuple_words)
            assert filter_score >= exact - 1e-9

    def test_zero_threshold_matches_plain_ges_on_candidates(self, company_strings):
        ges = GES().fit(company_strings)
        ges_jaccard = GESJaccard(threshold=0.0).fit(company_strings)
        query = "Morgan Stanley Grup Inc."
        exact = dict(ges.rank(query))
        filtered = dict(ges_jaccard.rank(query))
        for tid, score in filtered.items():
            assert score == pytest.approx(exact[tid])

    def test_higher_threshold_prunes_more(self, company_strings):
        query = "Morgan Stanley Grup Inc."
        loose = GESJaccard(threshold=0.5).fit(company_strings)
        strict = GESJaccard(threshold=0.95).fit(company_strings)
        assert len(strict.rank(query)) <= len(loose.rank(query))

    def test_exact_match_survives_any_threshold(self, company_strings):
        predicate = GESJaccard(threshold=0.9).fit(company_strings)
        ranked = predicate.rank(company_strings[0])
        assert ranked and ranked[0].tid == 0
        assert ranked[0].score == pytest.approx(1.0)


class TestGESApx:
    def test_is_a_ges_jaccard(self, company_strings):
        predicate = GESApx(threshold=0.5).fit(company_strings)
        assert isinstance(predicate, GESJaccard)

    def test_signatures_precomputed_for_base_words(self, company_strings):
        predicate = GESApx().fit(company_strings)
        assert "MORGAN" in predicate._signatures
        assert len(predicate._signatures["MORGAN"]) == predicate.hasher.num_hashes

    def test_exact_match_found(self, company_strings):
        predicate = GESApx(threshold=0.7).fit(company_strings)
        ranked = predicate.rank(company_strings[3])
        assert ranked and ranked[0].tid == 3

    def test_more_hashes_approximates_jaccard_filter(self, company_strings):
        """With many hash functions GESapx converges to GESJaccard (paper 5.4.1)."""
        query = "Morgan Stanley Grup Inc."
        exact = GESJaccard(threshold=0.6).fit(company_strings)
        coarse = GESApx(threshold=0.6, num_hashes=2).fit(company_strings)
        fine = GESApx(threshold=0.6, num_hashes=64).fit(company_strings)
        exact_tids = {scored.tid for scored in exact.rank(query)}
        fine_tids = {scored.tid for scored in fine.rank(query)}
        coarse_tids = {scored.tid for scored in coarse.rank(query)}
        assert len(fine_tids ^ exact_tids) <= len(coarse_tids ^ exact_tids) + 1

    def test_scores_are_exact_ges_for_survivors(self, company_strings):
        ges = GES().fit(company_strings)
        apx = GESApx(threshold=0.5).fit(company_strings)
        query = "Morgan Stanley Group Inc."
        exact = dict(ges.rank(query))
        for tid, score in apx.rank(query):
            assert score == pytest.approx(exact[tid])


class TestSoftTFIDF:
    def test_theta_validation(self):
        with pytest.raises(ValueError):
            SoftTFIDF(theta=-0.1)

    def test_identity_scores_close_to_one(self, company_strings):
        predicate = SoftTFIDF().fit(company_strings)
        for tid in (0, 5, 9):
            assert predicate.score(company_strings[tid], tid) == pytest.approx(1.0, abs=1e-6)

    def test_token_swap_robustness(self, company_strings):
        """SoftTFIDF ignores word order (paper Table 5.5)."""
        predicate = SoftTFIDF().fit(company_strings)
        assert predicate.score("Hotel Beijing", 5) == pytest.approx(
            predicate.score("Beijing Hotel", 5), rel=1e-6
        )

    def test_close_words_matched_through_jaro_winkler(self, company_strings):
        predicate = SoftTFIDF().fit(company_strings)
        # "Stanly" ~ "Stanley" above the 0.8 Jaro-Winkler threshold.
        assert predicate.score("Morgan Stanly Group Inc.", 0) > 0.8

    def test_theta_one_requires_exact_words(self, company_strings):
        strict = SoftTFIDF(theta=0.999).fit(company_strings)
        relaxed = SoftTFIDF(theta=0.8).fit(company_strings)
        query = "Morgn Stanly Grp Inc."
        assert strict.score(query, 0) <= relaxed.score(query, 0)

    def test_empty_query(self, company_strings):
        predicate = SoftTFIDF().fit(company_strings)
        assert predicate.rank("") == []

    def test_abbreviation_robustness(self, company_strings):
        predicate = SoftTFIDF().fit(company_strings)
        scores = dict(predicate.rank("AT&T Incorporated"))
        assert scores[4] > scores.get(3, 0.0)


def _memo_free_ges(predicate, query_words, tuple_words):
    """Equation 3.14 calling the edit-similarity kernel in every DP cell."""
    total_weight = sum(predicate._weight(word) for word in query_words)
    if total_weight == 0.0:
        return 1.0 if not tuple_words else 0.0
    n, m = len(query_words), len(tuple_words)
    query_weights = [predicate._weight(word) for word in query_words]
    tuple_weights = [predicate._weight(word) for word in tuple_words]
    previous = [0.0] * (m + 1)
    for j in range(1, m + 1):
        previous[j] = previous[j - 1] + predicate.cins * tuple_weights[j - 1]
    for i in range(1, n + 1):
        current = [previous[0] + query_weights[i - 1]] + [0.0] * m
        for j in range(1, m + 1):
            replace = (
                previous[j - 1]
                + (1.0 - edit_similarity(query_words[i - 1], tuple_words[j - 1]))
                * query_weights[i - 1]
            )
            delete = previous[j] + query_weights[i - 1]
            insert = current[j - 1] + predicate.cins * tuple_weights[j - 1]
            current[j] = min(replace, delete, insert)
        previous = current
    return 1.0 - min(previous[m] / total_weight, 1.0)


def _memo_free_soft_tfidf(predicate, query_weights, tid):
    """Soft tf-idf calling Jaro-Winkler for every word pair."""
    tuple_words = predicate._word_lists[tid]
    score = 0.0
    for word, query_weight in sorted(query_weights.items()):
        best_similarity, best_word = 0.0, None
        for other in tuple_words:
            similarity = jaro_winkler(word, other)
            if similarity > best_similarity:
                best_similarity, best_word = similarity, other
        if best_word is None or best_similarity <= predicate.theta:
            continue
        score += query_weight * predicate._doc_weights[tid].get(best_word, 0.0) * best_similarity
    return score


def _memo_free_scores(predicate, query):
    words = predicate._query_words(query)
    expected = {}
    if isinstance(predicate, SoftTFIDF):
        if not words:
            return expected
        weights = tfidf_weights(Counter(words), predicate._idf, default_idf=predicate._average_idf)
        for tid in predicate._candidates(words):
            score = _memo_free_soft_tfidf(predicate, weights, tid)
            if score > 0.0:
                expected[tid] = score
        return expected
    for tid in predicate._candidates(words):
        tuple_words = predicate._word_lists[tid]
        if (
            isinstance(predicate, GESJaccard)
            and predicate.filter_score(words, tuple_words) < predicate.threshold
        ):
            continue
        expected[tid] = _memo_free_ges(predicate, words, tuple_words)
    return expected


@pytest.mark.parametrize(
    "name, cls, kwargs",
    [
        ("ges", GES, {}),
        ("ges_jaccard", GESJaccard, {"threshold": 0.3}),
        ("ges_apx", GESApx, {"threshold": 0.53}),
        ("soft_tfidf", SoftTFIDF, {}),
    ],
)
def test_word_pair_memo_gives_memo_free_floats(name, cls, kwargs):
    """The per-query word-pair memo returns exactly the floats of calling the
    kernel for every pair, through _scores, _score_one and run_many."""
    dataset = make_dataset("CU1", size=60, num_clean=15, seed=11)
    queries = [dataset.records[tid].text for tid in dataset.sample_query_tids(6, seed=5)]
    predicate = cls(**kwargs).fit(dataset.strings)
    expected = [_memo_free_scores(predicate, query) for query in queries]
    assert any(expected)
    for query, scores in zip(queries, expected):
        assert predicate._scores(query) == scores
        for tid in range(len(dataset.strings)):
            assert predicate._score_one(query, tid) == scores.get(tid, 0.0)
    batches = (
        SimilarityEngine()
        .from_strings(dataset.strings)
        .predicate(name, **kwargs)
        .run_many(queries, op="rank")
    )
    for matches, scores in zip(batches, expected):
        assert {match.tid: match.score for match in matches} == scores
