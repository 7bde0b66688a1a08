"""Tests for the text substrate: tokenizer, Porter stemmer, terms."""

from __future__ import annotations

import doctest
import itertools
import string

import pytest
from hypothesis import given, strategies as st

from repro.text import extract_terms, porter, porter_stem, tokenize_words
from repro.text.stopwords import STOPWORDS, is_stopword
from repro.text.terms import TermExtractor


class TestTokenizeWords:
    def test_basic_split(self):
        assert tokenize_words("hello world") == ["hello", "world"]

    def test_lowercasing(self):
        assert tokenize_words("Hello WORLD") == ["hello", "world"]

    def test_lowercase_off(self):
        assert tokenize_words("Hello", lowercase=False) == ["Hello"]

    def test_punctuation_stripped(self):
        assert tokenize_words("one, two; three!") == ["one", "two", "three"]

    def test_numbers_kept(self):
        assert tokenize_words("price 1999 only") == ["price", "1999", "only"]

    def test_internal_apostrophe(self):
        assert tokenize_words("o'brien's") == ["o'brien's"]

    def test_internal_hyphen(self):
        assert tokenize_words("blu-ray disc") == ["blu-ray", "disc"]

    def test_leading_trailing_apostrophe_dropped(self):
        assert tokenize_words("'quoted'") == ["quoted"]

    def test_empty(self):
        assert tokenize_words("") == []
        assert tokenize_words("   ,;!  ") == []

    def test_non_ascii_words_stay_whole(self):
        assert tokenize_words("naïve café 東京 résumés") == [
            "naïve", "café", "東京", "résumés",
        ]

    def test_cyrillic_phrase_stays_whole(self):
        assert tokenize_words("Быстрая бурая лиса, дом-музей!") == [
            "быстрая", "бурая", "лиса", "дом-музей",
        ]

    def test_underscore_still_separates(self):
        assert tokenize_words("snake_case") == ["snake", "case"]

    @given(st.text(max_size=200))
    def test_never_raises_and_tokens_nonempty(self, text):
        for token in tokenize_words(text):
            assert token
            assert token == token.lower()


# Canonical (word, stem) pairs from Porter's 1980 paper.
PORTER_CASES = [
    ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
    ("caress", "caress"), ("cats", "cat"), ("feed", "feed"),
    ("agreed", "agre"), ("plastered", "plaster"), ("bled", "bled"),
    ("motoring", "motor"), ("sing", "sing"), ("conflated", "conflat"),
    ("troubled", "troubl"), ("sized", "size"), ("hopping", "hop"),
    ("tanned", "tan"), ("falling", "fall"), ("hissing", "hiss"),
    ("fizzed", "fizz"), ("failing", "fail"), ("filing", "file"),
    ("happy", "happi"), ("sky", "sky"), ("relational", "relat"),
    ("conditional", "condit"), ("rational", "ration"),
    ("valenci", "valenc"), ("hesitanci", "hesit"),
    ("digitizer", "digit"), ("conformabli", "conform"),
    ("radicalli", "radic"), ("differentli", "differ"),
    ("vileli", "vile"), ("analogousli", "analog"),
    ("vietnamization", "vietnam"), ("predication", "predic"),
    ("operator", "oper"), ("feudalism", "feudal"),
    ("decisiveness", "decis"), ("hopefulness", "hope"),
    ("callousness", "callous"), ("formaliti", "formal"),
    ("sensitiviti", "sensit"), ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"), ("formative", "form"),
    ("formalize", "formal"), ("electriciti", "electr"),
    ("electrical", "electr"), ("hopeful", "hope"),
    ("goodness", "good"), ("revival", "reviv"),
    ("allowance", "allow"), ("inference", "infer"),
    ("airliner", "airlin"), ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"), ("defensible", "defens"),
    ("irritant", "irrit"), ("replacement", "replac"),
    ("adjustment", "adjust"), ("dependent", "depend"),
    ("adoption", "adopt"), ("communism", "commun"),
    ("activate", "activ"), ("angulariti", "angular"),
    ("homologous", "homolog"), ("effective", "effect"),
    ("bowdlerize", "bowdler"), ("probate", "probat"),
    ("rate", "rate"), ("cease", "ceas"),
    ("controll", "control"), ("roll", "roll"),
]


class TestPorterStemmer:
    @pytest.mark.parametrize("word,stem", PORTER_CASES)
    def test_canonical_cases(self, word, stem):
        assert porter_stem(word) == stem

    def test_short_words_untouched(self):
        assert porter_stem("as") == "as"
        assert porter_stem("a") == "a"
        assert porter_stem("") == ""

    def test_non_ascii_words_untouched(self):
        for word in ("naïve", "café", "résumés", "東京", "лиса", "городами"):
            assert porter_stem(word) == word

    def test_unicode_text_survives_term_extraction(self):
        assert extract_terms("naïve café 東京 résumés") == [
            "naïve", "café", "東京", "résumés",
        ]

    def test_same_stem_for_inflections(self):
        stems = {porter_stem(w) for w in ("connect", "connected", "connecting",
                                          "connection", "connections")}
        assert stems == {"connect"}

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
    def test_idempotent_enough(self, word):
        # The stem never grows and never raises.
        stem = porter_stem(word)
        assert len(stem) <= len(word)

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=3, max_size=20))
    def test_stem_nonempty_for_long_words(self, word):
        assert porter_stem(word)


class TestStemMemo:
    def test_memo_matches_unmemoized_stemmer(self):
        for word, _ in PORTER_CASES:
            # The second call is answered from the memo.
            for _ in range(2):
                assert porter_stem(word) == porter_stem.__wrapped__(word)

    def test_memo_reports_hits_misses_size_and_cap(self):
        porter_stem.cache_clear()
        porter_stem("caresses")
        porter_stem("caresses")
        porter_stem("ponies")
        info = porter_stem.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
        assert info.maxsize == porter.STEM_MEMO_ENTRIES

    def test_memo_size_never_exceeds_cap(self):
        cap = porter.STEM_MEMO_ENTRIES
        porter_stem.cache_clear()
        words = (
            "".join(letters) + "ing"
            for letters in itertools.product(string.ascii_lowercase, repeat=4)
        )
        largest = 0
        for word in itertools.islice(words, cap + 500):
            porter_stem(word)
            largest = max(largest, porter_stem.cache_info().currsize)
        assert largest == cap
        assert porter_stem.cache_info().misses == cap + 500
        porter_stem.cache_clear()

    def test_doctest_still_collected(self):
        # tests/test_doctests.py runs doctest.testmod, which finds
        # examples with DocTestFinder; the memo wrapper must not hide them.
        from tests.test_doctests import _all_modules

        assert porter.__name__ in _all_modules()
        found = {t.name: t for t in doctest.DocTestFinder().find(porter)}
        assert found["repro.text.porter.porter_stem"].examples


class TestStopwords:
    def test_common_stopwords_present(self):
        for word in ("the", "and", "of", "is"):
            assert is_stopword(word)

    def test_content_words_absent(self):
        for word in ("camera", "price", "elvis"):
            assert not is_stopword(word)

    def test_all_lowercase(self):
        assert all(w == w.lower() for w in STOPWORDS)


class TestTermExtractor:
    def test_default_pipeline_stems(self):
        assert extract_terms("Connected connections") == ["connect", "connect"]

    def test_counts(self):
        counts = TermExtractor().extract_counts("cat cats dog")
        assert counts == {"cat": 2, "dog": 1}

    def test_stopword_removal_opt_in(self):
        with_stops = TermExtractor().extract("the cat")
        without = TermExtractor(remove_stopwords=True).extract("the cat")
        assert "the" in with_stops
        assert without == ["cat"]

    def test_no_stemming_mode(self):
        assert TermExtractor(stem=False).extract("connections") == ["connections"]

    def test_min_length(self):
        terms = TermExtractor(min_length=3).extract("an ox ran far")
        assert "ox" not in terms
        assert "far" in terms

    def test_extract_many(self):
        terms = TermExtractor().extract_many(["cat", "dog"])
        assert terms == ["cat", "dog"]

    def test_empty_text(self):
        assert TermExtractor().extract("") == []
        assert TermExtractor().extract_counts("") == {}
