"""Unit tests for the public topk_search facade."""

import pytest

from repro import Algorithm, topk_search
from repro.exceptions import QueryError


class TestSources:
    def test_accepts_document(self, figure1_doc):
        outcome = topk_search(figure1_doc, ["k1", "k2"], k=3)
        assert len(outcome) >= 1

    def test_accepts_database(self, figure1_db):
        outcome = topk_search(figure1_db, ["k1", "k2"], k=3)
        assert len(outcome) >= 1

    def test_accepts_index(self, figure1_db):
        outcome = topk_search(figure1_db.index, ["k1", "k2"], k=3)
        assert len(outcome) >= 1

    def test_rejects_other_types(self):
        with pytest.raises(QueryError, match="unsupported"):
            topk_search("not a document", ["k1"], k=3)


class TestAlgorithmSelection:
    def test_enum_and_string_equivalent(self, figure1_db):
        by_enum = topk_search(figure1_db, ["k1"], 3, Algorithm.PRSTACK)
        by_name = topk_search(figure1_db, ["k1"], 3, "prstack")
        assert [str(r.code) for r in by_enum] == \
            [str(r.code) for r in by_name]

    def test_default_is_eager(self, figure1_db):
        outcome = topk_search(figure1_db, ["k1", "k2"], k=3)
        assert outcome.stats["algorithm"] == "eager_topk"

    def test_all_algorithms_agree(self, figure1_db):
        reference = None
        for algorithm in Algorithm:
            outcome = topk_search(figure1_db, ["k1", "k2"], 3, algorithm)
            key = [(str(r.code), round(r.probability, 10))
                   for r in outcome]
            if reference is None:
                reference = key
            assert key == reference, algorithm

    def test_unknown_algorithm(self, figure1_db):
        with pytest.raises(QueryError, match="unknown algorithm"):
            topk_search(figure1_db, ["k1"], 3, "quantum")


class TestResults:
    def test_results_hydrated_with_nodes(self, figure1_db):
        outcome = topk_search(figure1_db, ["k1", "k2"], k=5,
                              algorithm="prstack")
        for result in outcome:
            assert result.node is not None
            assert result.node.is_ordinary
            assert result.label == result.node.label

    def test_invalid_k(self, figure1_db):
        with pytest.raises(QueryError):
            topk_search(figure1_db, ["k1"], k=0)

    def test_empty_query_rejected(self, figure1_db):
        with pytest.raises(QueryError):
            topk_search(figure1_db, [], k=3)

    def test_str_of_result(self, fragment_db):
        outcome = topk_search(fragment_db, ["k1", "k2"], k=1)
        text = str(outcome.results[0])
        assert "C1" in text and "0.00945" in text

    def test_outcome_iterable_and_sized(self, figure1_db):
        outcome = topk_search(figure1_db, ["k1"], k=4)
        assert len(list(outcome)) == len(outcome)
        assert len(outcome.codes()) == len(outcome.probabilities())


class TestQueryValidation:
    def test_k_must_be_positive_with_value_in_message(self, figure1_db):
        with pytest.raises(QueryError, match="k must be positive, got -2"):
            topk_search(figure1_db, ["k1"], k=-2)

    def test_duplicate_keyword_rejected(self, figure1_db):
        with pytest.raises(QueryError, match="duplicate query keyword"):
            topk_search(figure1_db, ["k1", "k1"], k=3)

    def test_case_variant_duplicate_rejected(self, figure1_db):
        # "K1" and "k1" normalise to the same term: the query would
        # silently collapse to fewer required keywords.
        with pytest.raises(QueryError, match="'K1'.*'k1'"):
            topk_search(figure1_db, ["k1", "K1"], k=3)

    def test_multi_word_keywords_may_share_terms(self, figure1_db):
        # Distinct keyword strings that merely overlap term-wise are
        # fine; only identical normalised keyword tuples are rejected.
        outcome = topk_search(figure1_db, ["k1 k2", "k2"], k=3)
        assert len(outcome) >= 1

    def test_unindexable_keyword_named_in_error(self, figure1_db):
        with pytest.raises(QueryError, match="'!!'"):
            topk_search(figure1_db, ["k1", "!!"], k=3)

    def test_validated_terms_returns_unique_terms_in_keyword_order(self):
        from repro.core.api import validated_terms
        assert validated_terms(iter(["b", "a"]), 5) == \
            (["b", "a"], Algorithm.EAGER)
        assert validated_terms(["United States", "ship", "states ship"],
                               5, "PrStack") == \
            (["united", "states", "ship"], Algorithm.PRSTACK)
        assert validated_terms([], 5, Algorithm.POSSIBLE_WORLDS) == \
            ([], Algorithm.POSSIBLE_WORLDS)

    @pytest.mark.parametrize("keywords, k, algorithm, semantics, match", [
        # k is checked first, then duplicates, then the query shape,
        # then unindexable keywords.
        (["!!", "a", "A"], 0, "eager", "slca", "k must be positive"),
        (["!!", "a", "A"], 3, "nope", "slca", "duplicate query keyword"),
        (["!!", "a"], 3, "nope", "slca", "unknown algorithm"),
        (["!!", "a"], 3, "prstack", "xlca", "unknown semantics"),
        (["!!", "a"], 3, "eager", "elca", "SLCA-specific"),
        (["a", "!!", "??"], 3, "eager", "slca", "'!!' contains no"),
    ])
    def test_validated_terms_keeps_the_error_order(self, keywords, k,
                                                   algorithm, semantics,
                                                   match):
        from repro.core.api import validated_terms
        with pytest.raises(QueryError, match=match):
            validated_terms(keywords, k, algorithm, semantics)
