"""Metamorphic relations of the token layer.

Each relation transforms a text in a way that one or more token-level laws
cannot see, and requires the law's series to stay the same bit for bit:

* relabelling the letters a-z by a fixed permutation, on lowercased texts,
  changes no count of words, blocks, characters or lengths, so all seven
  token-level series stay the same;
* reversing the order of the sentences keeps every word count, every
  sentence length and the words of each sentence, so ``zipf``, ``benford``
  and ``menzerath`` stay the same.

The texts are four mock completions of about 180 words, on which taylor is
not fittable, and four synthetic books of a few thousand words, on which
every law is.
"""

import random
import string

import pytest

from tests.conftest import synth_book
from zgptda.augment import GenerationConfig, MockTransport
from zgptda.corpus import Document, tokenize
from zgptda.laws import build_all_many

TEXTS = [MockTransport(seed).complete("prompt", GenerationConfig(), slot) for seed, slot in
         ((0, 0), (0, 1), (7, 3), (11, 9))] + [synth_book(seed, n_sentences=300) for seed in (1, 2, 3, 4)]

_shuffled = list(string.ascii_lowercase)
random.Random(5).shuffle(_shuffled)
RELABEL = str.maketrans(string.ascii_lowercase, "".join(_shuffled))


def series(text, laws=None):
    """(law, detail, x bytes, y bytes) of each of the text's seven series,
    or of those named in `laws`."""
    reports = build_all_many([tokenize(Document(id="t", text=text))])[0]
    return [(r.law, r.detail, *((r.series.x.tobytes(), r.series.y.tobytes()) if r.series else ()))
            for r in reports if laws is None or r.law in laws]


def reverse_sentences(text):
    return ". ".join(reversed(tokenize(Document(id="t", text=text)).sentence_texts)) + "."


@pytest.mark.parametrize("text", TEXTS, ids=range(len(TEXTS)))
def test_letter_relabelling_keeps_every_series(text):
    text = text.lower()
    relabelled = text.translate(RELABEL)
    assert relabelled != text
    assert series(relabelled) == series(text)


@pytest.mark.parametrize("text", TEXTS, ids=range(len(TEXTS)))
def test_sentence_reversal_keeps_order_free_series(text):
    reversed_text = reverse_sentences(text)
    assert tokenize(Document(id="r", text=reversed_text)).sentences[::-1] == \
        tokenize(Document(id="t", text=text)).sentences
    laws = ("zipf", "benford", "menzerath")
    assert series(reversed_text, laws) == series(text, laws)


def test_books_fit_every_law():
    # the relations above are checked on fittable series, not only on details
    for text in TEXTS[4:]:
        assert all(r.series is not None for r in build_all_many([tokenize(Document(id="t", text=text))])[0])
