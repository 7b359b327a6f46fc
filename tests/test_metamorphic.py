"""Metamorphic relations of the token layer.

Each relation transforms a text in a way that one or more token-level laws
cannot see, and requires the law's series to stay the same bit for bit:

* relabelling the letters a-z by a fixed permutation, on lowercased texts,
  changes no count of words, blocks, characters or lengths, so all seven
  token-level series stay the same; with a ``FileVectorEmbedder`` that gives
  both texts the same vectors, the whole ``score_instances`` result stays
  the same too: every law's exponent and metrics, the Z-number and the
  suitability (the hashed embedder sees the letters, so it is left out);
* reversing the order of the sentences keeps every word count, every
  sentence length and the words of each sentence, so ``zipf``, ``benford``
  and ``menzerath`` stay the same;
* repeating the text k times, its copies joined as sentences, multiplies
  every sentence-length count and every summed word length by k, so the
  ``benford`` frequencies and the ``menzerath`` means stay the same;
* reversing the character stream, cut to a power-of-two length so that every
  window length u divides it, maps each window of u characters to a window,
  so the ``ebeling`` series stays the same;
* reversing the word order maps each block of mu words to its reverse, one
  to one, so every ``hilberg`` block count and entropy stays the same, the
  entropies within 1e-12 relative, as they are summed in another order;
* repeating the text k times multiplies every word count by k and keeps the
  ranks, so the ``zipf`` exponent stays the same within 1e-14 relative
  (measured: at most 3.7e-16 for k = 2, 3 and 5), as only the intercept
  of the log-log fit moves.

Relations of the fluctuation analysis (Kantelhardt et al., Physica A 316,
2002): the affine copy a·x + b of a series has the profile a times x's,
as the mean is removed, so its F_q(s) is |a| times x's and its h(q) is
the same, on every q of the grid. For 3,000 points of white noise, F_q(s)
scaled within 1.6e-15 relative and h(q) moved by at most 1 ulp; the
relation holds them to 1e-12. A random walk's profile sums values of up
to about 100, so its windows' small residuals keep fewer exact digits:
over six seeds its F_q(s) scaled within 1.2e-12 relative, which the
relation holds to 1e-10, and its h(q) moved by at most 2.1e-13.

The texts are four mock completions of about 180 words, on which taylor is
not fittable, and four synthetic books of a few thousand words, on which
every law is; the whole score is checked on a batch of eight mock
completions and two of the books.
"""

import json
import random
import string

import numpy as np
import pytest

from tests.conftest import synth_book, token_stream
from zgptda.augment import GenerationConfig, MockTransport, score_instances
from zgptda.corpus import Document, tokenize
from zgptda.fitkit import fit_loglog
from zgptda.laws import build_all_many, ebeling_series, hilberg_series, zipf_series
from zgptda.mfdfa import DEFAULT_Q_GRID, FileVectorEmbedder, ScalarSeries, run_mfdfa

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


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("text", TEXTS, ids=range(len(TEXTS)))
def test_repetition_keeps_benford_and_menzerath(text, k):
    repeated = ". ".join([text] * k)
    assert tokenize(Document(id="r", text=repeated)).sentences == \
        tokenize(Document(id="t", text=text)).sentences * k
    laws = ("benford", "menzerath")
    assert series(repeated, laws) == series(text, laws)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("text", TEXTS, ids=range(len(TEXTS)))
def test_repetition_keeps_zipf_exponent(text, k):
    def exponent(t):
        return fit_loglog(zipf_series(tokenize(Document(id="t", text=t)))).exponent

    assert exponent(". ".join([text] * k)) == pytest.approx(exponent(text), rel=1e-14, abs=0)


@pytest.mark.parametrize("text", TEXTS, ids=range(len(TEXTS)))
def test_character_reversal_keeps_ebeling(text):
    chars = tokenize(Document(id="t", text=text)).chars
    chars = chars[: 1 << (len(chars).bit_length() - 1)]
    forward, backward = ebeling_series(token_stream(chars=chars)), ebeling_series(token_stream(chars=chars[::-1]))
    assert (backward.x.tobytes(), backward.y.tobytes()) == (forward.x.tobytes(), forward.y.tobytes())


@pytest.mark.parametrize("text", TEXTS, ids=range(len(TEXTS)))
def test_word_order_reversal_keeps_hilberg(text):
    ts = tokenize(Document(id="t", text=text))
    forward, backward = hilberg_series(ts), hilberg_series(token_stream(ts.words[::-1]))
    assert backward.x.tobytes() == forward.x.tobytes()
    assert backward.y.tolist() == pytest.approx(forward.y.tolist(), rel=1e-12, abs=0)


def test_books_fit_every_law():
    # the relations above are checked on fittable series, not only on details
    for text in TEXTS[4:]:
        assert all(r.series is not None for r in build_all_many([tokenize(Document(id="t", text=text))])[0])


def scored(instance):
    """Everything a scored instance reports, floats by their repr."""
    fits = [(r.law, r.detail, *((r.fit.exponent, r.fit.prefactor, r.fit.secondary_exponent, r.fit.metrics,
                                 r.fit.fitted_y.tobytes()) if r.fit else ())) for r in instance.law_reports]
    return repr((instance.instance.id, instance.suitability, instance.z, fits))


def test_letter_relabelling_keeps_the_whole_score(tmp_path):
    texts = [MockTransport(0).complete("prompt", GenerationConfig(), slot).lower() for slot in range(8)]
    texts += [text.lower() for text in TEXTS[4:6]]
    docs = [Document(id=f"t{k}", text=text) for k, text in enumerate(texts)]
    relabelled = [Document(id=doc.id, text=doc.text.translate(RELABEL)) for doc in docs]
    # one vector per word: as many as the units of either text, whichever kind build_series takes
    rng = np.random.default_rng(9)
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text("".join(
        json.dumps({"id": doc.id, "unit_index": k, "vector": rng.normal(size=4).tolist()}) + "\n"
        for doc in docs for k in range(tokenize(doc).codes.size)))
    embedder = FileVectorEmbedder(vectors)
    original = score_instances(docs, embedder=embedder)
    assert all(r.fittable for instance in original for r in instance.law_reports if r.law == "mandelbrot")
    assert len({instance.suitability.s for instance in original}) > 1
    assert list(map(scored, score_instances(relabelled, embedder=embedder))) == list(map(scored, original))


@pytest.mark.parametrize("walk, rel", [(False, 1e-12), (True, 1e-10)], ids=["noise", "walk"])
def test_affine_copy_scales_fluctuation_and_keeps_h(walk, rel):
    x = np.random.default_rng(0).standard_normal(3000)
    if walk:
        x = np.cumsum(x)
    fluct, spec = run_mfdfa(ScalarSeries(x, "x"))
    fluct_ab, spec_ab = run_mfdfa(ScalarSeries(3.7 * x + 11, "ax+b"))
    assert fluct.q_grid.tolist() == fluct_ab.q_grid.tolist() == DEFAULT_Q_GRID.tolist()
    assert spec.q_grid.tolist() == spec_ab.q_grid.tolist() == DEFAULT_Q_GRID.tolist()
    assert fluct_ab.values.ravel().tolist() == pytest.approx((3.7 * fluct.values).ravel().tolist(),
                                                             rel=rel, abs=0)
    assert spec_ab.h.tolist() == pytest.approx(spec.h.tolist(), rel=0, abs=1e-12)
