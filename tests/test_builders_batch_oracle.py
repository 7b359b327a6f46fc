"""The token-level series builders against their one-text numpy references.

The references below build one text's series on their own, as the library
did before its builders took a batch of texts. Every series the library
builds must equal theirs byte for byte, and every ``NotFittable`` detail
must read the same, whether the text is built alone or in a batch, and
whether ebeling counts its runs in one slice of positions or in many.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import token_stream
from tests.test_laws_oracle import exact_ebeling
from zgptda import laws
from zgptda.corpus import Document, first_digits, tokenize
from zgptda.fitkit import EmpiricalSeries, NotFittable


def ref_zipf(ts):
    if not ts.words:
        raise NotFittable("zipf: no word tokens")
    freqs = np.sort(np.bincount(ts.codes))[::-1]
    ranks = np.arange(1, len(freqs) + 1, dtype=float)
    return EmpiricalSeries(ranks, freqs.astype(float), law="zipf")


def ref_heaps(ts):
    n = len(ts.words)
    if n == 0:
        raise NotFittable("heaps: no word tokens")
    stride = max(1, math.ceil(n / 200))
    xs = np.unique(np.append(np.arange(stride, n + 1, stride), n))
    ys = np.maximum.accumulate(ts.codes)[xs - 1] + 1
    return EmpiricalSeries(xs.astype(float), ys.astype(float), law="heaps")


def ref_hilberg(ts, max_block):
    n = len(ts.words)
    if n == 0:
        raise NotFittable("hilberg: no word tokens")
    blocks = codes = ts.codes
    n_types = int(codes.max()) + 1
    xs, ys = [], []
    for mu in range(1, max_block + 1):
        total = n - mu + 1
        if total < 1:
            break
        if mu > 1:
            keys = blocks[:total] * n_types + codes[mu - 1 :]
            perm = np.argsort(keys)
            sorted_keys = keys[perm]
            edge = np.ones(total + 1, bool)
            edge[1:total] = sorted_keys[1:] != sorted_keys[:-1]
            bounds = np.flatnonzero(edge)
            starts = bounds[:-1]
            blocks = np.empty_like(keys)
            blocks[perm] = np.repeat(np.minimum.reduceat(perm, starts), bounds[1:] - starts)
        counts = np.bincount(blocks)
        probs = counts[counts > 0] / total
        xs.append(mu)
        ys.append(float(-np.sum(probs * np.log(probs))))
    return EmpiricalSeries(np.array(xs, dtype=float), np.array(ys, dtype=float), law="hilberg")


def ref_ebeling(ts):
    chars = ts.chars
    c = len(chars)
    if c // 8 < 2:
        raise NotFittable(f"ebeling: {c} characters is too short")
    codes = np.frombuffer(chars.encode("utf-32-le"), "<u4")
    codes = codes.astype(np.min_scalar_type(codes.max()))
    totals = np.bincount(codes)
    order = np.argsort(codes, kind="stable")
    split = np.empty(c + 1, order.dtype)
    split[1:c] = order[1:] ^ order[:-1]
    split[0] = c
    split[np.cumsum(totals[totals > 0])] = c
    xs, ys = [], []
    u = 2
    while u <= c // 8:
        n_win = c // u
        bounds = np.flatnonzero(split >= u)
        run_lens = bounds[1:] - bounds[:-1]
        tail = np.bincount(codes[n_win * u :], minlength=totals.size)
        sum_sq = int(run_lens @ run_lens) - int(tail @ tail)
        in_windows = totals - tail
        xs.append(u)
        ys.append((n_win * sum_sq - int(in_windows @ in_windows)) / (n_win * n_win))
        u *= 2
    return EmpiricalSeries(np.array(xs, dtype=float), np.array(ys, dtype=float), law="ebeling")


def ref_menzerath(ts):
    if not ts.sentences:
        raise NotFittable("menzerath: no sentences")
    sentence_len = np.repeat(ts.sentences, ts.sentences)
    word_len = np.fromiter(map(len, ts.words), np.int64, len(ts.words))
    xs = np.unique(ts.sentences)
    ys = np.bincount(sentence_len, weights=word_len)[xs] / np.bincount(sentence_len)[xs]
    return EmpiricalSeries(xs.astype(float), ys, law="menzerath")


def ref_benford(ts):
    digits = np.arange(1, 10, dtype=float)
    lengths = [n for n in ts.sentences if n >= 1]
    if not lengths:
        freqs = np.zeros(9)
    else:
        counts = np.bincount(first_digits(lengths), minlength=10)[1:10]
        freqs = counts / counts.sum()
    return EmpiricalSeries(digits, freqs, law="benford")


def references(max_block):
    """The reference builder of each batched law."""
    return {
        "zipf": ref_zipf,
        "heaps": ref_heaps,
        "hilberg": lambda ts: ref_hilberg(ts, max_block),
        "ebeling": ref_ebeling,
        "menzerath": ref_menzerath,
        "benford": ref_benford,
    }


def described(s):
    if isinstance(s, NotFittable):
        return ("NotFittable", str(s))
    return (s.law, s.x.dtype.str, s.x.tobytes(), s.y.dtype.str, s.y.tobytes())


def outcome(build, ts):
    try:
        return described(build(ts))
    except NotFittable as exc:
        return described(exc)


def assert_batch_matches(texts, max_block=6):
    tss = [tokenize(Document(id=f"t{i}", text=text)) for i, text in enumerate(texts)]
    batched = {
        "zipf": laws.zipf_series_many,
        "heaps": laws.heaps_series_many,
        "hilberg": lambda b: laws.hilberg_series_many(b, max_block),
        "ebeling": laws.ebeling_series_many,
        "menzerath": laws.menzerath_series_many,
        "benford": laws.benford_series_many,
    }
    for law, reference in references(max_block).items():
        results = batched[law](tss)
        assert len(results) == len(tss)
        for ts, result in zip(tss, results):
            assert described(result) == outcome(reference, ts), law


def assert_one_text_matches(text, max_block=6):
    ts = tokenize(Document(id="t", text=text))
    builders = {
        "zipf": laws.zipf_series,
        "heaps": laws.heaps_series,
        "hilberg": lambda t: laws.hilberg_series(t, max_block),
        "ebeling": laws.ebeling_series,
        "menzerath": laws.menzerath_series,
        "benford": laws.benford_series,
    }
    for law, reference in references(max_block).items():
        assert outcome(builders[law], ts) == outcome(reference, ts), law


# short words that repeat and tie; case folding, non-ASCII letters, the
# numerals ², ½ and Ⅻ that the word pattern takes as words, and a letter
# above U+FFFF
WORDS = ["a", "b", "ab", "Ba", "aab", "é", "É", "ß", "ss", "zz", "x²", "½", "Ⅻ", "𝐀b"]
SEPARATORS = [" ", " ", " ", ", ", ". ", "! ", "? ", "... ", "\n", " 7 "]
EDGE_TEXTS = [
    "",                                         # empty
    "... 12 !",                                 # no words
    "a b a c b a d a",                          # no sentence terminator
    "a b.",                                     # too short for ebeling
    "x² is ½ of Ⅻ. 𝐀𝐁 𝐀.",
]
word_texts = st.lists(
    st.tuples(st.sampled_from(WORDS), st.sampled_from(SEPARATORS)), max_size=300
).map(lambda parts: "".join(w + sep for w, sep in parts))
texts = st.one_of(st.sampled_from(EDGE_TEXTS), word_texts,
                  st.text(alphabet="ab Ab.!é1²𝐀", max_size=200))


@settings(max_examples=150, deadline=None)
@given(texts, st.integers(min_value=1, max_value=6))
def test_one_text_matches_reference(text, max_block):
    assert_one_text_matches(text, max_block)


@settings(max_examples=150, deadline=None)
@given(st.lists(texts, min_size=1, max_size=12), st.integers(min_value=1, max_value=6))
def test_batches_match_reference(batch, max_block):
    assert_batch_matches(batch, max_block)


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_edge_texts_match_reference(text):
    assert_one_text_matches(text)
    assert_batch_matches([text])


def test_edge_texts_in_one_batch_match_reference():
    assert_batch_matches(EDGE_TEXTS + EDGE_TEXTS[::-1])


def test_empty_batch():
    assert laws.build_all_many([]) == []


def test_books_match_reference(book_a, book_b):
    for book in (book_a, book_b):
        assert_one_text_matches(book.text)
        assert_batch_matches([book.text])


def assert_ebeling_matches(tss):
    results = laws.ebeling_series_many(tss)
    assert len(results) == len(tss)
    for ts, result in zip(tss, results):
        assert described(result) == outcome(ref_ebeling, ts) == outcome(exact_ebeling, ts)


# character streams whose (text, character) groups fill a slice of 13
# positions with several groups, so that slices end inside a text and span
# two texts; groups longer than any slice; code points above U+FFFF; and
# texts too short for ebeling or empty between the others
SLICE_BATCHES = {
    "slices end inside texts": ["abcdefgh" * 3, "hgfedcba" * 2 + "abc", "abcd" * 4],
    "groups longer than a slice": ["a" * 60 + "b" * 3, "ab" * 9, "b" * 20],
    "wide alphabet": ["aΣ𝐀𝐁" * 6 + "𝐀" * 9, "é𝐁ab" * 5, "ÿ" * 16],
    "too short or empty": ["", "abc", "ab" * 12, "a" * 15, "ba" * 10, ""],
}


@pytest.mark.parametrize("slice_positions", [1, 2, 13])
@pytest.mark.parametrize("batch", SLICE_BATCHES.values(), ids=SLICE_BATCHES)
def test_ebeling_in_slices_matches_reference(batch, slice_positions, monkeypatch):
    monkeypatch.setattr(laws, "_EBELING_SLICE", slice_positions)
    assert_ebeling_matches([token_stream(chars=chars) for chars in batch])
    assert_ebeling_matches([token_stream(chars="".join(batch))])


@pytest.mark.parametrize("slice_positions", [1, 2, 13])
@settings(max_examples=60, deadline=None)
@given(st.lists(texts, min_size=1, max_size=12))
def test_ebeling_batches_in_slices_match_reference(slice_positions, batch):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laws, "_EBELING_SLICE", slice_positions)
        assert_ebeling_matches([tokenize(Document(id=f"t{i}", text=text)) for i, text in enumerate(batch)])


# hilberg sorts only the blocks whose prefix occurs more than once in the
# batch, and codes every other block by its own position: batches where
# every prefix repeats, where the same words repeat only in another text
# (whose codes differ) or across the end of a text, a text of one word
# repeated, and block sizes above every text's length
HILBERG_BATCHES = {
    "one word repeated": ["w " * 50],
    "one word repeated, in a batch": ["w " * 50, "w w", "v " * 9 + "w"],
    "same words in other texts": ["a b c", "a b c", "a b c"],
    "prefix repeated across text ends": ["x a b", "a b y", "b", "a b"],
    "each text's last words start the next": ["p q r s", "r s t u", "t u p q"],
    "blocks longer than every text": ["a b a", "b", "", "a a", "c d c d"],
}


@pytest.mark.parametrize("max_block", [1, 2, 3, 7])
@pytest.mark.parametrize("batch", HILBERG_BATCHES.values(), ids=HILBERG_BATCHES)
def test_hilberg_batches_match_reference(batch, max_block):
    assert_batch_matches(batch, max_block)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "A"]), max_size=120).map(" ".join),
                min_size=1, max_size=8),
       st.integers(min_value=1, max_value=7))
def test_small_vocabulary_hilberg_batches_match_reference(batch, max_block):
    assert_batch_matches(batch, max_block)
