"""The count-based series builders against a plain-Python reference.

The reference builders below count words with ``Counter``, sets and dicts,
one word at a time. Every series the library builds must equal theirs byte
for byte, and every ``NotFittable`` detail must read the same. The
character-variance reference sums the variances as exact fractions and
rounds once; the earlier float reference, which summed squared deviations
in float64, must agree with it to a relative 1e-9.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import token_stream
from zgptda.corpus import Document, tokenize
from zgptda.fitkit import EmpiricalSeries, NotFittable
from zgptda.laws import (
    ebeling_series,
    heaps_series,
    hilberg_series,
    menzerath_series,
    taylor_series,
    zipf_series,
)


def ref_zipf(ts):
    if not ts.words:
        raise NotFittable("zipf: no word tokens")
    freqs = sorted(Counter(ts.words).values(), reverse=True)
    ranks = np.arange(1, len(freqs) + 1, dtype=float)
    return EmpiricalSeries(ranks, np.array(freqs, dtype=float), law="zipf")


def ref_heaps(ts):
    n = len(ts.words)
    if n == 0:
        raise NotFittable("heaps: no word tokens")
    stride = max(1, math.ceil(n / 200))
    seen = set()
    xs, ys = [], []
    for i, w in enumerate(ts.words, start=1):
        seen.add(w)
        if i % stride == 0 or i == n:
            xs.append(i)
            ys.append(len(seen))
    return EmpiricalSeries(np.array(xs, dtype=float), np.array(ys, dtype=float), law="heaps")


def ref_taylor(ts, segment_len):
    words = ts.words
    n_segments = len(words) // segment_len
    if n_segments < 3:
        raise NotFittable(f"taylor: {n_segments} full segments, need 3")
    per_segment = [
        Counter(words[i * segment_len : (i + 1) * segment_len]) for i in range(n_segments)
    ]
    presence = Counter()
    for seg in per_segment:
        presence.update(seg.keys())
    by_mean = {}
    for word, n_present in presence.items():
        if n_present < 2:
            continue
        counts = np.array([seg.get(word, 0) for seg in per_segment], dtype=float)
        by_mean.setdefault(float(counts.mean()), []).append(float(counts.std()))
    if not by_mean:
        raise NotFittable("taylor: no word type occurs in 2 or more segments")
    xs = np.array(sorted(by_mean), dtype=float)
    ys = np.array([np.mean(by_mean[x]) for x in xs], dtype=float)
    return EmpiricalSeries(xs, ys, law="taylor")


def ref_hilberg(ts, max_block):
    words = ts.words
    n = len(words)
    if n == 0:
        raise NotFittable("hilberg: no word tokens")
    xs, ys = [], []
    for mu in range(1, max_block + 1):
        if n - mu + 1 < 1:
            break
        grams = Counter(tuple(words[i : i + mu]) for i in range(n - mu + 1))
        probs = np.array(list(grams.values()), dtype=float) / (n - mu + 1)
        xs.append(mu)
        ys.append(float(-np.sum(probs * np.log(probs))))
    return EmpiricalSeries(np.array(xs, dtype=float), np.array(ys, dtype=float), law="hilberg")


def ref_ebeling(ts, min_windows=8):
    chars = ts.chars
    c = len(chars)
    if c // min_windows < 2:
        raise NotFittable(f"ebeling: {c} characters is too short")
    index = {ch: i for i, ch in enumerate(sorted(set(chars)))}
    codes = np.array([index[ch] for ch in chars], dtype=np.int64)
    k = len(index)
    xs, ys = [], []
    u = 2
    while u <= c // min_windows:
        n_win = c // u
        win_ids = np.repeat(np.arange(n_win, dtype=np.int64), u)
        table = np.bincount(win_ids * k + codes[: n_win * u], minlength=n_win * k)
        xs.append(u)
        ys.append(float(table.reshape(n_win, k).var(axis=0).sum()))
        u *= 2
    return EmpiricalSeries(np.array(xs, dtype=float), np.array(ys, dtype=float), law="ebeling")


def exact_ebeling(ts, min_windows=8):
    chars = ts.chars
    c = len(chars)
    if c // min_windows < 2:
        raise NotFittable(f"ebeling: {c} characters is too short")
    xs, ys = [], []
    u = 2
    while u <= c // min_windows:
        n_win = c // u
        sum_sq, col = Counter(), Counter()
        for w in range(n_win):
            for ch, n in Counter(chars[w * u : (w + 1) * u]).items():
                sum_sq[ch] += n * n
                col[ch] += n
        # population variance of each character's count over the windows
        var = sum(Fraction(sum_sq[ch], n_win) - Fraction(col[ch], n_win) ** 2 for ch in col)
        xs.append(u)
        ys.append(float(var))
        u *= 2
    return EmpiricalSeries(np.array(xs, dtype=float), np.array(ys, dtype=float), law="ebeling")


def ref_menzerath(ts):
    if not ts.sentences:
        raise NotFittable("menzerath: no sentences")
    words = ts.words
    lengths = {}
    offset = 0
    for n_words in ts.sentences:
        lengths.setdefault(n_words, []).extend(len(w) for w in words[offset : offset + n_words])
        offset += n_words
    xs = np.array(sorted(lengths), dtype=float)
    ys = np.array([np.mean(lengths[int(x)]) for x in xs], dtype=float)
    return EmpiricalSeries(xs, ys, law="menzerath")


def pairs(segment_len, max_block):
    """(library builder, reference builder) for each count-based law."""
    return [
        (zipf_series, ref_zipf),
        (heaps_series, ref_heaps),
        (lambda ts: taylor_series(ts, segment_len), lambda ts: ref_taylor(ts, segment_len)),
        (lambda ts: hilberg_series(ts, max_block), lambda ts: ref_hilberg(ts, max_block)),
        (ebeling_series, exact_ebeling),
        (menzerath_series, ref_menzerath),
    ]


def outcome(build, ts):
    try:
        s = build(ts)
    except NotFittable as exc:
        return ("NotFittable", str(exc))
    return (s.law, s.x.dtype.str, s.x.tobytes(), s.y.dtype.str, s.y.tobytes())


def assert_matches_reference(text, segment_len=100, max_block=6):
    ts = tokenize(Document(id="t", text=text))
    for build, reference in pairs(segment_len, max_block):
        # the reference first: the library must not depend on what ran before
        expected = outcome(reference, ts)
        assert outcome(build, ts) == expected
    assert_close_to_float_ebeling(ts)


def assert_close_to_float_ebeling(ts):
    try:
        expected = ref_ebeling(ts)
    except NotFittable:
        return  # the exact reference has compared the detail
    got = ebeling_series(ts)
    assert got.x.tobytes() == expected.x.tobytes()
    for a, b in zip(got.y.tolist(), expected.y.tolist()):
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# a small vocabulary so that words repeat and counts tie; mixed case and
# non-ASCII letters exercise case folding and the code-point order of chars
WORDS = ["a", "b", "ab", "Ba", "aab", "é", "É", "ß", "ss", "zz"]
SEPARATORS = [" ", " ", " ", ", ", ". ", "! ", "? ", "... ", "\n"]
texts = st.lists(
    st.tuples(st.sampled_from(WORDS), st.sampled_from(SEPARATORS)), max_size=400
).map(lambda parts: "".join(w + sep for w, sep in parts))


@settings(max_examples=200, deadline=None)
@given(texts, st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=6))
def test_random_texts_match_reference(text, segment_len, max_block):
    assert_matches_reference(text, segment_len, max_block)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="ab Ab.!é1", max_size=300), st.integers(min_value=1, max_value=50))
def test_raw_character_texts_match_reference(text, segment_len):
    assert_matches_reference(text, segment_len, max_block=6)


# texts whose code points fit one byte, two bytes and only four bytes
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["ab", "aéΣσ", "aΣ𝐀𝐁"]).flatmap(lambda a: st.text(alphabet=a, max_size=300)))
def test_wide_alphabet_ebeling_matches_reference(chars):
    ts = token_stream(chars=chars)
    assert outcome(ebeling_series, ts) == outcome(exact_ebeling, ts)
    assert_close_to_float_ebeling(ts)


@pytest.mark.parametrize("text", [
    "",
    "...",
    "a",
    "a a a a a a a a a a a a a a a a a a.",      # a single type
    "a b. a c. b c a. d",                       # fewer than 3 segments at 100
    "one two three four five.",
    # 60 distinct words: every hilberg block size has groups of one block only
    " ".join(a + b for a in "bcdfghjklm" for b in "aeiouy") + ".",
    "a" * 16,                                   # ebeling: one u, one run per window
])
@pytest.mark.parametrize("segment_len", [1, 2, 100])
def test_edge_texts_match_reference(text, segment_len):
    assert_matches_reference(text, segment_len, max_block=6)


@pytest.mark.parametrize("segment_len", [100, 20])
def test_books_match_reference(book_a, book_b, segment_len):
    for book in (book_a, book_b):
        assert_matches_reference(book.text, segment_len, max_block=6)
