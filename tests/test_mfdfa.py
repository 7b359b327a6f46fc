import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zgptda.mfdfa as mfdfa
from zgptda.corpus import Document
from zgptda.fitkit import NotFittable
from zgptda.mfdfa import (
    DEFAULT_Q_GRID,
    EmbeddingProvider,
    FileVectorEmbedder,
    FluctuationMatrix,
    HashedTrigramEmbedder,
    ProviderError,
    Q_REF,
    ScalarSeries,
    build_series,
    conformity_series,
    default_scales,
    fluctuation,
    fluctuation_many,
    mandelbrot_conformity,
    profile,
    run_mfdfa,
    spectrum,
)


def binomial_cascade(n_max=14, p=0.3):
    idx = np.arange(2 ** n_max)
    bits = np.array([bin(i).count("1") for i in idx])
    return p ** bits * (1 - p) ** (n_max - bits)


def cascade_h_analytic(q, p=0.3):
    return 1 / q - np.log(p ** q + (1 - p) ** q) / (q * np.log(2))


class ConstantProvider(EmbeddingProvider):
    provider_id = "constant"
    dimension = 4

    def __init__(self, vector=(1.0, 2.0, 3.0, 6.0)):
        self.vector = np.asarray(vector, dtype=float)

    def embed(self, text_unit):
        return self.vector


class FailingProvider(EmbeddingProvider):
    provider_id = "failing"
    dimension = 2

    def embed(self, text_unit):
        if "boom" in text_unit:
            raise RuntimeError("exploded")
        return np.zeros(2)


class TestProfile:
    def test_hand_example(self):
        prof = profile(ScalarSeries([1.0, 2.0, 3.0], "t"))
        assert prof == pytest.approx([-1.0, -1.0, 0.0])

    def test_constant_series_zero(self):
        prof = profile(ScalarSeries([5.0] * 10, "t"))
        assert np.all(prof == 0.0)

    def test_last_element_telescopes_to_zero(self):
        rng = np.random.default_rng(1)
        prof = profile(ScalarSeries(rng.random(500), "t"))
        assert abs(prof[-1]) < 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        v = rng.random(200)
        p1 = profile(ScalarSeries(v, "t"))
        p2 = profile(ScalarSeries(v + 17.3, "t"))
        assert np.max(np.abs(p1 - p2)) < 1e-9


class TestBuildSeries:
    def test_constant_provider_constant_series(self):
        text = ". ".join(f"sentence number {i} speaks" for i in range(70)) + "."
        series = build_series(Document(id="d", text=text), ConstantProvider())
        assert len(series) == 70
        assert np.all(series.values == 3.0)  # mean of (1, 2, 3, 6)
        assert series.source.endswith("/sentence")

    def test_word_fallback_for_short_docs(self):
        text = "word " * 80 + "."
        series = build_series(Document(id="d", text=text), ConstantProvider())
        assert len(series) == 80
        assert series.source.endswith("/word")

    def test_too_short_not_fittable(self):
        with pytest.raises(NotFittable):
            build_series(Document(id="d", text="only a few words here."), ConstantProvider())

    def test_provider_failure_names_unit(self):
        text = "fine " * 70 + "boom " + "fine " * 10
        with pytest.raises(ProviderError, match="unit 70"):
            build_series(Document(id="d", text=text), FailingProvider())

    def test_fallback_embedder_reproducible(self):
        doc = Document(id="d", text="the pump failed under pressure " * 30)
        s1 = build_series(doc, HashedTrigramEmbedder())
        s2 = build_series(doc, HashedTrigramEmbedder())
        assert np.array_equal(s1.values, s2.values)

    def test_fallback_embedder_frozen_value(self):
        # guards against platform- or version-dependent hashing drift
        vec = HashedTrigramEmbedder().embed("the pump")
        assert vec.shape == (64,)
        assert np.linalg.norm(vec) == pytest.approx(1.0)
        # 6 trigrams, one bucket collision: counts (2,1,1,1,1) / sqrt(8)
        assert vec.max() == pytest.approx(0.7071067811865475, abs=1e-12)
        assert sorted(np.nonzero(vec)[0].tolist()) == [1, 25, 27, 46, 60]

    def test_file_vectors_match_component_means(self, tmp_path):
        text = "alpha beta gamma. " * 40
        doc = Document(id="doc1", text=text)
        n_units = 120  # word fallback: 3 words x 40
        path = tmp_path / "vecs.jsonl"
        rng = np.random.default_rng(0)
        rows = []
        with open(path, "w") as fh:
            for k in range(n_units):
                vec = rng.random(8).tolist()
                rows.append(vec)
                fh.write(json.dumps({"id": "doc1", "unit_index": k, "vector": vec}) + "\n")
        series = build_series(doc, FileVectorEmbedder(path))
        assert series.values[7] == pytest.approx(sum(rows[7]) / 8)
        assert len(series) == n_units

    def test_file_vectors_missing_unit(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"id": "doc1", "unit_index": 0, "vector": [1.0, 2.0]}) + "\n")
        doc = Document(id="doc1", text="word " * 70)
        with pytest.raises(ProviderError, match="unit 1"):
            build_series(doc, FileVectorEmbedder(path))

    def test_file_vectors_dimension_mismatch(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"id": "d", "unit_index": 0, "vector": [1.0, 2.0]}) + "\n")
            fh.write(json.dumps({"id": "d", "unit_index": 1, "vector": [1.0]}) + "\n")
        with pytest.raises(ProviderError, match="dimension"):
            FileVectorEmbedder(path)

    @pytest.mark.parametrize("second, match", [
        ({"unit_index": 1.7}, "line 2: unit_index must be an integer >= 0"),
        ({"unit_index": True}, "line 2: unit_index must be an integer >= 0"),
        ({"unit_index": "2"}, "line 2: unit_index must be an integer >= 0"),
        ({"unit_index": -1}, "line 2: unit_index must be an integer >= 0"),
        ({"unit_index": 0}, "line 2: repeats 'd' unit 0"),
        ({"vector": [1.0, float("nan")]}, "line 2: vector has a non-finite component"),
        ({"vector": [float("inf"), 2.0]}, "line 2: vector has a non-finite component"),
        ({"id": 5}, "line 2: bad embedding record"),
        ({"vector": ["1.5", 2.0]}, "line 2: vector components must be JSON numbers"),
        ({"vector": [1.0, True]}, "line 2: vector components must be JSON numbers"),
        ({"vector": [False, 2.0]}, "line 2: vector components must be JSON numbers"),
    ], ids=["float-index", "bool-index", "string-index", "negative-index", "repeated-key", "nan", "inf",
            "integer-id", "string-component", "true-component", "false-component"])
    def test_file_vectors_bad_record(self, tmp_path, second, match):
        path = tmp_path / "vecs.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"id": "d", "unit_index": 0, "vector": [1.0, 2.0]}) + "\n")
            fh.write(json.dumps({"id": "d", "unit_index": 1, "vector": [1.0, 2.0], **second}) + "\n")
        with pytest.raises(ProviderError, match=match):
            FileVectorEmbedder(path)


class TestFluctuation:
    def test_linear_profile_floors_and_flags(self):
        prof = np.linspace(0.0, 10.0, 256)
        fluct = fluctuation(prof, [16, 32], [2.0], m=1)
        assert fluct.floored
        assert np.all(fluct.values > 0)

    def test_white_noise_h2_slope(self):
        rng = np.random.default_rng(42)
        prof = profile(ScalarSeries(rng.standard_normal(20_000), "t"))
        scales = default_scales(20_000)
        fluct = fluctuation(prof, scales, [2.0])
        slope = np.polyfit(np.log(scales), np.log(fluct.values[0]), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.07)

    def test_monotone_in_q_at_fixed_scale(self):
        rng = np.random.default_rng(7)
        prof = profile(ScalarSeries(rng.standard_normal(4096), "t"))
        fluct = fluctuation(prof, default_scales(4096), DEFAULT_Q_GRID)
        assert np.all(np.diff(fluct.values, axis=0) >= -1e-12)

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(9)
        prof = profile(ScalarSeries(rng.standard_normal(5000), "t"))
        scales = default_scales(5000)
        f1 = fluctuation(prof, scales, DEFAULT_Q_GRID)
        f2 = fluctuation(prof[::-1], scales, DEFAULT_Q_GRID)
        assert np.max(np.abs(f1.values - f2.values)) < 1e-9

    def test_scale_bounds_enforced(self):
        prof = np.zeros(256)
        with pytest.raises(ValueError):
            fluctuation(prof, [8], [2.0])
        with pytest.raises(ValueError):
            fluctuation(prof, [100], [2.0])

    def test_detrend_order_validated(self):
        with pytest.raises(ValueError):
            fluctuation(np.zeros(256), [16], [2.0], m=0)

    @pytest.mark.parametrize("scales", [[16, 16, 16], [32, 16], [16, 32, 32, 48]])
    def test_repeated_or_unsorted_scales_rejected(self, scales):
        prof = profile(ScalarSeries(np.random.default_rng(3).standard_normal(256), "t"))
        with pytest.raises(ValueError, match="strictly increasing"):
            fluctuation(prof, scales, [2.0])


def qr_fluctuation(prof, scales, q_grid, m=1):
    """The reference: fluctuation with a QR basis built per scale and call."""
    prof = np.asarray(prof, dtype=float)
    scales = np.asarray(scales, dtype=int)
    q_grid = np.asarray(q_grid, dtype=float)
    n = prof.size
    f2 = []
    for s in scales.tolist():
        n_win = n // s
        windows = np.concatenate([prof[: n_win * s], prof[n - n_win * s:]]).reshape(2 * n_win, s)
        basis, _ = np.linalg.qr(np.vander(np.arange(s, dtype=float), m + 1))
        resid = windows - (windows @ basis) @ basis.T
        f2.append(np.einsum("ij,ij->i", resid, resid) / s)
    f2 = np.concatenate(f2)
    floored = bool(np.any(f2 < 1e-30))
    f2 = np.maximum(f2, 1e-30)
    counts = 2 * (n // scales)
    starts = np.cumsum(counts) - counts
    values = np.empty((q_grid.size, scales.size))
    zero = q_grid == 0.0
    q = q_grid[~zero, None]
    values[~zero] = (np.add.reduceat(f2 ** (q / 2.0), starts, axis=1) / counts) ** (1.0 / q)
    values[zero] = np.exp(0.5 * np.add.reduceat(np.log(f2), starts) / counts)
    return FluctuationMatrix(values=values, q_grid=q_grid, scales=scales, floored=floored)


def kept_cells():
    return sum(b.size for b in mfdfa._bases.values())


class TestBasisMemo:
    """fluctuation with the per-process basis memo against the per-call QR."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(64, 2000), st.booleans(), st.data())
    def test_bit_identical_to_per_call_qr(self, seed, n, heavy, data):
        rng = np.random.default_rng(seed)
        steps = rng.standard_t(2.0, n) if heavy else rng.standard_normal(n)
        prof = profile(ScalarSeries(steps, "walk"))
        scales = data.draw(st.one_of(
            st.just(default_scales(n)),
            st.lists(st.integers(16, n // 4), min_size=1, max_size=12, unique=True).map(sorted),
        ))
        expected = {m: qr_fluctuation(prof, scales, DEFAULT_Q_GRID, m=m) for m in (1, 2, 3)}
        mfdfa._bases.clear()
        for memo in ("cold", "warm"):
            for m in (1, 2, 3):
                got = fluctuation(prof, scales, DEFAULT_Q_GRID, m=m)
                assert got.values.tobytes() == expected[m].values.tobytes(), (memo, m)
                assert got.floored == expected[m].floored
                assert got.scales.tolist() == expected[m].scales.tolist()

    def test_basis_is_read_only(self):
        for s, m in [(20, 1), (mfdfa._BASIS_CACHE_MAX, 1)]:  # kept, and too large to keep
            basis = mfdfa._detrend_basis(s, m)
            assert not basis.flags.writeable
            with pytest.raises(ValueError):
                basis[0, 0] = 1.0

    def test_memo_never_retains_more_than_the_cap(self, monkeypatch):
        monkeypatch.setattr(mfdfa, "_bases", {})
        cap = mfdfa._BASIS_CACHE_MAX
        for s in range(10_000, 140_000, 9_000):
            for m in (1, 2, 3):
                basis = mfdfa._detrend_basis(s, m)
                assert kept_cells() <= cap
                # each kept basis owns its data, so its cells are all it retains
                assert all(b.base is None for b in mfdfa._bases.values())
                assert (mfdfa._bases.get((s, m)) is basis) == (basis.size <= cap)


class TestFluctuationMany:
    """fluctuation_many against fluctuation of each profile alone and the
    per-scale loop reference, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.one_of(st.integers(64, 1500), st.sampled_from([100, 257])), min_size=1, max_size=12),
           st.sampled_from([(Q_REF,), tuple(DEFAULT_Q_GRID)]))
    def test_mixed_lengths_match_each_profile_alone(self, seed, lengths, q_grid):
        rng = np.random.default_rng(seed)
        # the third profile, when there is one, is flat, so its windows floor
        profs = [np.zeros(n) if k == 2 else profile(ScalarSeries(rng.standard_t(2.0, n), "walk"))
                 for k, n in enumerate(lengths)]
        scales = [default_scales(n) for n in lengths]
        for m in (1, 2, 3):
            batch = fluctuation_many(profs, scales, q_grid, m=m)
            assert len(batch) == len(profs)
            for prof, grid, got in zip(profs, scales, batch):
                for expected in (fluctuation(prof, grid, q_grid, m=m), qr_fluctuation(prof, grid, q_grid, m=m)):
                    assert got.values.tobytes() == expected.values.tobytes(), m
                    assert got.floored == expected.floored
                    assert got.scales.tolist() == expected.scales.tolist()

    def test_empty_batch(self):
        assert fluctuation_many([], [], DEFAULT_Q_GRID) == []

    def test_checks_name_the_failing_profile(self):
        profs = [np.arange(256.0), np.arange(100.0)]
        with pytest.raises(ValueError, match=r"n//4 = 25"):
            fluctuation_many(profs, [[16, 64], [16, 32]], [2.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            fluctuation_many(profs, [[16, 64], [20, 16]], [2.0])
        with pytest.raises(ValueError, match="one scale grid per profile"):
            fluctuation_many(profs, [[16]], [2.0])


class TestSpectrum:
    def test_cascade_matches_analytic(self):
        fluct, spec = run_mfdfa(ScalarSeries(binomial_cascade(), "cascade"))
        for qi, q in enumerate(spec.q_grid):
            if q == 0.0 or abs(q) > 5:
                continue
            assert spec.h[qi] == pytest.approx(cascade_h_analytic(q), abs=0.05), f"q={q}"

    def test_tau_identity_and_monotone(self):
        _, spec = run_mfdfa(ScalarSeries(binomial_cascade(n_max=12), "cascade"))
        assert np.allclose(spec.tau, spec.q_grid * spec.h - 1.0, atol=1e-12)
        assert np.all(np.diff(spec.tau) >= -1e-9)

    def test_white_noise_narrow_spectrum(self):
        rng = np.random.default_rng(42)
        _, spec = run_mfdfa(ScalarSeries(rng.standard_normal(100_000), "wn"))
        assert spec.delta_alpha <= 0.15
        assert spec.delta_alpha >= 0.0

    def test_f_alpha_is_one_at_q_zero(self):
        _, spec = run_mfdfa(ScalarSeries(binomial_cascade(n_max=12), "cascade"))
        i0 = np.where(spec.q_grid == 0.0)[0][0]
        assert spec.f_alpha[i0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(spec.f_alpha <= 1.0 + 1e-6)

    def test_needs_three_scales(self):
        fl = FluctuationMatrix(
            values=np.ones((3, 2)),
            q_grid=np.array([-2.0, 0.0, 2.0]),
            scales=np.array([16, 32]),
        )
        with pytest.raises(NotFittable):
            spectrum(fl)


class TestMandelbrotConformity:
    def test_exact_power_column(self):
        scales = np.array([16, 32, 64, 128, 256])
        values = (scales.astype(float) ** 0.7)[None, :]
        fl = FluctuationMatrix(values=values, q_grid=np.array([2.0]), scales=scales)
        fit = mandelbrot_conformity(fl)
        assert fit.exponent == pytest.approx(0.7, abs=1e-9)
        assert fit.metrics.r2 == 1.0

    def test_white_noise_exponent(self):
        rng = np.random.default_rng(12)
        fluct, _ = run_mfdfa(ScalarSeries(rng.standard_normal(30_000), "wn"))
        fit = mandelbrot_conformity(fluct)
        assert fit.exponent == pytest.approx(0.5, abs=0.07)

    def test_q_ref_must_be_on_grid(self):
        fl = FluctuationMatrix(
            values=np.ones((1, 3)), q_grid=np.array([3.0]), scales=np.array([16, 24, 32])
        )
        with pytest.raises(ValueError):
            mandelbrot_conformity(fl)

    @pytest.mark.parametrize("q", [2.0, 2.0 + 1e-9, 2.001, 2.0 + 2e-5, 2.0 + 3e-5, 1.9999,
                                   -2.0, np.nan, np.inf, -np.inf])
    def test_q_ref_tolerance_is_isclose(self, q):
        grid = np.array([0.5, q, 2.0])
        fl = FluctuationMatrix(values=np.arange(1.0, 10.0).reshape(3, 3), q_grid=grid,
                               scales=np.array([16, 24, 32]))
        row = np.flatnonzero(np.isclose(grid, Q_REF))[0]
        assert conformity_series(fl).y.tolist() == fl.values[row].tolist()
        fl.q_grid = grid[:2]
        if np.isclose(q, Q_REF):
            assert conformity_series(fl).y.tolist() == fl.values[1].tolist()
        else:
            with pytest.raises(ValueError, match="is not on the q grid"):
                conformity_series(fl)


class TestEndToEndOnText:
    def test_book_sentence_units(self, book_a):
        series = build_series(book_a, HashedTrigramEmbedder())
        assert series.source.endswith("/sentence")
        fluct, spec = run_mfdfa(series)
        fit = mandelbrot_conformity(fluct)
        assert np.isfinite(fit.exponent)
        assert np.isfinite(spec.delta_alpha)
        assert np.all(np.isfinite(spec.h))

    def test_pipeline_bit_reproducible(self, book_b):
        s1 = build_series(book_b, HashedTrigramEmbedder())
        s2 = build_series(book_b, HashedTrigramEmbedder())
        f1, _ = run_mfdfa(s1)
        f2, _ = run_mfdfa(s2)
        assert np.array_equal(f1.values, f2.values)
