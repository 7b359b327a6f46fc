"""Tokenization and the embedder's units against a per-match reference.

The reference below splits a text into sentence segments, case-folds each
word match on its own, filters the characters with ``str.isalpha`` and
numbers word types with ``dict.setdefault``; the embedder's reference units
are the sentence segments, or the words when there are too few of them.
``tokenize`` and ``build_series``, given the document alone or with its
token stream, must produce the same values byte for byte, also when
``tokenize`` codes its words in runs of a segment or a few characters.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zgptda import corpus, mfdfa
from zgptda.corpus import Document, tokenize
from zgptda.fitkit import NotFittable
from zgptda.mfdfa import EmbeddingProvider, build_series

_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
_SENT_RE = re.compile(r"[.!?]+")


def ref_word_tokens(text):
    return [m.group(0).casefold() for m in _WORD_RE.finditer(text)]


def ref_split_sentences(text):
    return [seg for seg in _SENT_RE.split(text) if _WORD_RE.search(seg)]


def ref_tokenize(text):
    words, sentences = [], []
    for seg in ref_split_sentences(text):
        seg_words = ref_word_tokens(seg)
        words.extend(seg_words)
        sentences.append(len(seg_words))
    chars = "".join(c for c in text if c.isalpha())
    index = {}
    codes = np.fromiter((index.setdefault(w, len(index)) for w in words), np.int64)
    return words, sentences, chars, codes


def ref_units(text, min_len):
    units, kind = ref_split_sentences(text), "sentence"
    if len(units) < min_len:
        units, kind = ref_word_tokens(text), "word"
    return units, kind


class RecordingProvider(EmbeddingProvider):
    """Returns zero vectors and keeps the units it was asked to embed."""

    provider_id = "recording"
    dimension = 1

    def unit_vectors(self, doc, units):
        self.units = list(units)
        return np.zeros((len(units), 1))


def embedded_units(doc, *ts):
    provider = RecordingProvider()
    try:
        series = build_series(doc, provider, *ts)
    except NotFittable as exc:
        return ("NotFittable", str(exc))
    return provider.units, series.source.rsplit("/", 1)[-1]


def assert_matches_reference(text):
    doc = Document(id="t", text=text)
    words, sentences, chars, codes = ref_tokenize(text)
    ts = tokenize(doc)
    assert ts.words == words
    assert ts.sentences == sentences
    assert ts.sentence_texts == ref_split_sentences(text)
    assert ts.chars == chars
    assert ts.codes.dtype == codes.dtype and ts.codes.tobytes() == codes.tobytes()
    # both branches of the word fallback: the real threshold, and thresholds
    # that short texts meet with their sentences or only with their words
    for min_len in (mfdfa.MIN_SERIES_LEN, 1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mfdfa, "MIN_SERIES_LEN", min_len)
            units, kind = ref_units(text, min_len)
            expected = (units, kind) if len(units) >= min_len else (
                "NotFittable", f"mandelbrot: {len(units)} {kind} units, need {min_len}")
            assert embedded_units(doc) == expected
            assert embedded_units(doc, ts) == expected


# letters that case-fold to several characters (ß, ﬁ, İ), a final sigma,
# a titlecase digraph, a combining mark, an astral letter, non-decimal
# numerals that the word pattern matches but isalpha rejects (², ½, Ⅻ),
# decimal digits and the underscore, which split words; whitespace other
# than the space that str.split splits on, a zero-width space that is
# neither whitespace nor alphanumeric, a non-ASCII decimal digit, a
# feminine ordinal letter, and the fullwidth ！ and 。, which end no sentence
ALPHABET = "aBzΣσßﬁİǅ́𝐀²½Ⅻ09_ .!?,\n\x1c\x85\xa0\u2028\u3000\u200b٣ª！。"
EDGE_TEXTS = [
    "",
    "0123 456.",
    "a_b",
    "²",
    "½",
    "Ⅻ",
    "ß",
    "ΟΔΟΣ. ΟΔΟΣ",
    "İ",
    "ﬁ",
    "ǅ",
    "é áb́",
    "...",
    "?!",
    "Wait... what?! Yes!!! no?.",
    "Price x² is ½ of Ⅻ.",
    "Straße ﬁne. Strasse fine.",
    "a\x1cb\x85c\xa0d\u2028e\u3000f",
    "zero\u200bwidth\u200b space",
    "x٣y ٣٣ z٣",
    "ªb ª",
    "Wide！ stops。 are not ends. Next",
    "End?!.",
    "One?!.two.?!three",
    "Runs ?!. inside ?!. and at the end?!.",
    "a?!.",
]


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_edge_texts_match_reference(text):
    assert_matches_reference(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=300))
def test_small_alphabet_texts_match_reference(text):
    assert_matches_reference(text)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_unicode_texts_match_reference(text):
    assert_matches_reference(text)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["Word", "wORD", "ß", "x²", "a", "b"]), min_size=60, max_size=200),
       st.sampled_from([" ", ". ", "! "]))
def test_long_texts_match_reference(words, sep):
    # long enough for the real threshold to choose sentences or words
    assert_matches_reference(sep.join(words))


def test_books_match_reference(book_a, book_b):
    for book in (book_a, book_b):
        assert_matches_reference(book.text)


# one segment per run, or a few segments: types first seen in a later run
# are numbered after those of the runs before it
@pytest.mark.parametrize("run_chars", [1, 2, 40])
@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from(EDGE_TEXTS), st.text(alphabet=ALPHABET, max_size=300)))
def test_texts_coded_in_runs_match_reference(run_chars, text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "_RUN_CHARS", run_chars)
        assert_matches_reference(text)


@pytest.mark.parametrize("run_chars", [1, 2, 40])
def test_books_coded_in_runs_match_reference(book_a, run_chars, monkeypatch):
    monkeypatch.setattr(corpus, "_RUN_CHARS", run_chars)
    assert_matches_reference(book_a.text)


# numerals the word pattern matches but isalpha rejects, in some runs and not
# others: only the letters of the runs that hold one are filtered
@pytest.mark.parametrize("run_chars", [1, 2, 40])
@pytest.mark.parametrize("text", [
    "Price x² is ½ of it. Then plain words follow here. And more plain words. End x²y.",
    "Plain words first. " * 5 + "Half is ½. " + "Plain words last. " * 5,
    "²½. ab. ½",
])
def test_numerals_in_some_runs_match_reference(run_chars, text, monkeypatch):
    monkeypatch.setattr(corpus, "_RUN_CHARS", run_chars)
    assert_matches_reference(text)
