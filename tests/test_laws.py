import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.conftest import synth_book, token_stream
from tests.test_laws_oracle import assert_matches_reference
from zgptda import laws
from zgptda.corpus import Document, TokenStream, tokenize
from zgptda.fitkit import NotFittable, fit_loglog
from zgptda.laws import (
    LAW_NAMES,
    benford_series,
    ebeling_series,
    evaluate_all,
    heaps_series,
    hilberg_series,
    menzerath_series,
    taylor_series,
    zipf_series,
)

# hand-computed constants
HILBERG_H1 = math.log(2)                                   # p = (1/2, 1/2)
HILBERG_H2 = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
TAYLOR_SIGMA = math.sqrt(2.0) / 3.0                        # popstd of (1, 1, 2)


class TestZipf:
    def test_hand_count(self):
        s = zipf_series(token_stream(words=["a", "a", "a", "b", "b", "c"]))
        assert list(zip(s.x, s.y)) == [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]

    def test_single_type_not_fittable(self):
        s = zipf_series(token_stream(words=["a"] * 10))
        assert list(zip(s.x, s.y)) == [(1.0, 10.0)]
        with pytest.raises(NotFittable):
            fit_loglog(s)

    def test_all_distinct_flat(self):
        s = zipf_series(token_stream(words=[f"w{i}" for i in range(50)]))
        fit = fit_loglog(s)
        assert fit.exponent == pytest.approx(0.0, abs=1e-9)

    def test_empty_not_fittable(self):
        with pytest.raises(NotFittable):
            zipf_series(token_stream())

    def test_non_increasing_y(self, book_a):
        s = zipf_series(tokenize(book_a))
        assert np.all(np.diff(s.y) <= 0)


class TestHeaps:
    def test_hand_count(self):
        s = heaps_series(token_stream(words=["a", "b", "a", "c"]))
        assert list(s.x) == [1.0, 2.0, 3.0, 4.0]
        assert list(s.y) == [1.0, 2.0, 2.0, 3.0]

    def test_all_identical_flat(self):
        s = heaps_series(token_stream(words=["a"] * 40))
        fit = fit_loglog(s)
        assert fit.exponent == pytest.approx(0.0, abs=1e-9)

    def test_all_distinct_linear(self):
        s = heaps_series(token_stream(words=[f"w{i}" for i in range(200)]))
        fit = fit_loglog(s)
        assert fit.exponent == pytest.approx(1.0, abs=1e-6)

    def test_monotone_and_bounded(self, book_a):
        s = heaps_series(tokenize(book_a))
        assert np.all(np.diff(s.y) >= 0)
        assert np.all(s.y <= s.x)

    def test_stride_keeps_final_point(self):
        words = [f"w{i % 37}" for i in range(1003)]
        s = heaps_series(token_stream(words=words))
        assert s.x[-1] == 1003


class TestTaylor:
    def test_hand_example(self):
        s = taylor_series(token_stream(words=["a", "b", "a", "b", "a", "a"]), segment_len=2)
        # a: counts (1,1,2) -> rho 4/3; b: counts (1,1,0) -> rho 2/3
        assert s.x == pytest.approx([2 / 3, 4 / 3])
        assert s.y == pytest.approx([TAYLOR_SIGMA, TAYLOR_SIGMA])

    def test_zero_variance_point_kept_but_dropped_from_fit(self):
        # "c" appears exactly twice in every segment: sigma = 0 at rho = 2
        segments = [
            ["c", "c", "a", "a"],
            ["c", "c", "a", "b"],
            ["c", "c", "b", "d"],
            ["c", "c", "a", "d"],
            ["c", "c", "b", "b"],
            ["c", "c", "d", "a"],
        ]
        words = [w for seg in segments for w in seg]
        s = taylor_series(token_stream(words=words), segment_len=4)
        assert s.y[list(s.x).index(2.0)] == 0.0
        fit = fit_loglog(s)  # zero-sigma point dropped inside the fit
        assert math.isfinite(fit.exponent)

    def test_too_few_segments(self):
        with pytest.raises(NotFittable):
            taylor_series(token_stream(words=["a"] * 250), segment_len=100)

    def test_poisson_oracle(self):
        # iid sampling makes per-segment counts ~ Poisson: variance = mean,
        # so sigma ~ rho^0.5
        rng = np.random.default_rng(5)
        ranks = np.arange(1, 401, dtype=float)
        p = (1 / ranks) / (1 / ranks).sum()
        words = [f"w{i}" for i in rng.choice(400, size=40_000, p=p)]
        s = taylor_series(token_stream(words=words), segment_len=100)
        fit = fit_loglog(s)
        assert fit.exponent == pytest.approx(0.5, abs=0.1)

    def test_population_std_bound(self, book_a):
        s = taylor_series(tokenize(book_a), segment_len=100)
        n_segments = len(tokenize(book_a).words) // 100
        assert np.all(s.y <= s.x * math.sqrt(n_segments - 1) + 1e-9)


@pytest.mark.parametrize("block_cells", [1, 100])
@pytest.mark.parametrize("segment_len", [7, 20])
def test_small_blocks_match_reference(monkeypatch, block_cells, segment_len):
    # taylor walks its count table a block at a time; blocks of one row and
    # of a few rows, with a short last block, change no bit
    monkeypatch.setattr(laws, "_BLOCK_CELLS", block_cells)
    assert_matches_reference(synth_book(seed=7, n_sentences=120), segment_len, max_block=2)


class TestHilberg:
    def test_hand_entropies(self):
        s = hilberg_series(token_stream(words=["a", "b", "a", "b"]), max_block=2)
        assert s.y[0] == pytest.approx(HILBERG_H1, abs=1e-12)
        assert s.y[1] == pytest.approx(HILBERG_H2, abs=1e-12)

    def test_constant_text_not_fittable(self):
        s = hilberg_series(token_stream(words=["a"] * 20), max_block=4)
        assert np.all(s.y == 0.0)
        with pytest.raises(NotFittable):
            fit_loglog(s)

    def test_non_decreasing_on_book(self, book_a):
        s = hilberg_series(tokenize(book_a), max_block=6)
        assert np.all(np.diff(s.y) >= -1e-12)


class TestEbeling:
    def test_periodic_text_zero_variance(self):
        s = ebeling_series(token_stream(chars="ab" * 20))
        assert s.y[0] == 0.0  # u=2 windows are all "ab"

    def test_iid_uniform_eta_near_one(self):
        rng = np.random.default_rng(3)
        chars = "".join("abcd"[i] for i in rng.integers(0, 4, size=2 ** 15))
        s = ebeling_series(token_stream(chars=chars))
        fit = fit_loglog(s)
        assert fit.exponent == pytest.approx(1.0, abs=0.1)

    def test_short_text_not_fittable(self):
        with pytest.raises(NotFittable):
            ebeling_series(token_stream(chars="abcdefg"))

    def test_geometric_grid(self):
        s = ebeling_series(token_stream(chars="ab" * 600))
        assert list(s.x) == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]


class TestMenzerath:
    def test_hand_example(self):
        s = menzerath_series(tokenize(Document(id="x", text="hi there.")))
        assert list(zip(s.x, s.y)) == [(2.0, 3.5)]

    def test_independent_lengths_flat(self):
        # constant word length regardless of sentence length -> exponent ~ 0
        text = ". ".join(" ".join(["word"] * n) for n in (2, 3, 5, 8, 13)) + "."
        s = menzerath_series(tokenize(Document(id="x", text=text)))
        fit = fit_loglog(s)
        assert fit.exponent == pytest.approx(0.0, abs=1e-9)

    def test_no_sentences(self):
        with pytest.raises(NotFittable):
            menzerath_series(token_stream())


class TestBenford:
    def test_hand_frequencies(self):
        s = benford_series(token_stream(sentences=[12, 25, 14, 9]))
        expected = np.zeros(9)
        expected[0], expected[1], expected[8] = 0.5, 0.25, 0.25
        assert s.y == pytest.approx(expected)

    def test_seeded_sampler_matches_closed_form(self):
        rng = np.random.default_rng(11)
        d = np.arange(1, 10)
        p = np.log10(1 + 1 / d)
        lengths = rng.choice(d, size=20_000, p=p / p.sum())
        s = benford_series(token_stream(sentences=list(lengths)))
        assert np.max(np.abs(s.y - p / p.sum())) < 0.02

    def test_empty_all_zero(self):
        s = benford_series(token_stream())
        assert np.all(s.y == 0.0)

    @given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=60))
    def test_sums_to_one(self, lengths):
        s = benford_series(token_stream(sentences=lengths))
        assert abs(s.y.sum() - 1.0) < 1e-12


class TestEvaluateAll:
    def test_book_all_fittable(self, book_a):
        reports = evaluate_all(tokenize(book_a))
        assert [r.law for r in reports] == list(LAW_NAMES)
        assert all(r.fittable for r in reports)

    def test_five_word_text_degrades(self):
        reports = evaluate_all(tokenize(Document(id="x", text="one two three four five.")))
        assert len(reports) == 7
        unfittable = [r for r in reports if not r.fittable]
        assert len(unfittable) >= 3
        assert all(r.fit is None for r in unfittable)

    def test_empty_stream_all_unfittable(self):
        reports = evaluate_all(TokenStream())
        assert len(reports) == 7
        assert all(not r.fittable for r in reports)
        assert all(r.fit is None for r in reports)

    def test_deterministic(self, book_b):
        ts = tokenize(book_b)
        first = evaluate_all(ts)
        second = evaluate_all(ts)
        for a, b in zip(first, second):
            assert a.fittable == b.fittable
            if a.fittable:
                assert a.fit.exponent == b.fit.exponent
                assert a.fit.metrics == b.fit.metrics
