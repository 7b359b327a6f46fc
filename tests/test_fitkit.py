import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import jensenshannon
from scipy.stats import entropy as scipy_entropy

from zgptda.fitkit import (
    ConformityVerdict,
    EmpiricalSeries,
    FitMetrics,
    NotFittable,
    fit_benford,
    fit_loglog,
    fit_loglog_many,
    fit_metrics,
)

# hand-computed: 0.5*ln(2) + 0.5*ln(2/3)
KL_HAND = 0.1438410362258904


class TestFitMetrics:
    def test_identity(self):
        m = fit_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m.r2 == 1.0
        assert m.kl == pytest.approx(0.0, abs=1e-12)
        assert m.js == pytest.approx(0.0, abs=1e-12)
        assert m.mape == 0.0

    def test_hand_pair(self):
        m = fit_metrics([0.5, 0.5], [0.25, 0.75])
        assert m.kl == pytest.approx(KL_HAND, abs=1e-9)
        assert m.mape == pytest.approx(0.5, abs=1e-12)

    def test_kl_js_match_scipy(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        q = np.array([0.3, 0.3, 0.2, 0.2])
        m = fit_metrics(p, q)
        assert m.kl == pytest.approx(scipy_entropy(p, q), rel=1e-9)
        assert m.js == pytest.approx(jensenshannon(p, q, base=2) ** 2, rel=1e-6)

    @pytest.mark.parametrize("observed, fitted", [
        # raw KL of -9.1e-17 and raw JS of -1.8e-17: rounding below zero
        ([0.2797867137638703, 0.05097352393619469, 0.026527635528529096, 0.8232702392002724,
          0.9227555772777217, 0.6166357757671799, 0.7394965609839984, 0.5536249914654229,
          0.9450724237877682, 0.8258535541215322],
         [0.2797867137638704, 0.050973523936194705, 0.026527635528529086, 0.8232702392002722,
          0.9227555772777222, 0.6166357757671799, 0.7394965609839981, 0.553624991465423,
          0.9450724237877685, 0.8258535541215325]),
        ([0.13428327649956395, 0.6806244146936303], [0.13428327649956395, 0.6806244146936304]),
    ])
    def test_divergences_of_near_identical_series_are_not_negative(self, observed, fitted):
        m = fit_metrics(observed, fitted)
        assert m.kl >= 0.0 and m.js >= 0.0

    def test_mape_skips_zero_observed(self):
        m = fit_metrics([0.0, 1.0, 2.0], [5.0, 1.5, 2.0])
        assert m.mape == pytest.approx((0.5 + 0.0) / 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_metrics([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_all_zero_observed(self):
        with pytest.raises(ValueError):
            fit_metrics([0.0, 0.0], [1.0, 2.0])

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=2, max_size=20))
    def test_kl_self_is_zero(self, values):
        m = fit_metrics(values, values)
        assert m.kl == pytest.approx(0.0, abs=1e-12)
        assert m.r2 == 1.0

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=2, max_size=12),
        st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=2, max_size=12),
    )
    def test_js_symmetric_and_bounded(self, a, b):
        n = min(len(a), len(b))
        p, q = a[:n], b[:n]
        m1 = fit_metrics(p, q)
        m2 = fit_metrics(q, p)
        assert m1.js == pytest.approx(m2.js, rel=1e-9, abs=1e-12)
        assert 0.0 <= m1.js <= 1.0 + 1e-12

    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=3, max_size=12),
        st.floats(min_value=0.01, max_value=50.0),
    )
    def test_mape_joint_scaling_invariance(self, values, c):
        fitted = [v * 1.1 for v in values]
        m1 = fit_metrics(values, fitted)
        m2 = fit_metrics([v * c for v in values], [f * c for f in fitted])
        assert m1.mape == pytest.approx(m2.mape, rel=1e-9)

    def test_r2_constant_observed(self):
        assert fit_metrics([2.0, 2.0, 2.0], [2.0, 2.0, 2.0]).r2 == 1.0
        assert fit_metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]).r2 == 0.0

    def test_r2_constant_up_to_rounding(self):
        # one ulp of spread is rounding, not variance: a perfect fit has R^2 = 1
        a = 1.75505466
        assert fit_metrics([a, math.nextafter(a, 2.0), a], [a, a, a]).r2 == 1.0
        assert fit_metrics([a, math.nextafter(a, 2.0), a], [a, a, 2 * a]).r2 == 0.0

    @pytest.mark.parametrize("a", [1.0, 3.7e-4, 2.9e5])
    def test_r2_flat_band_is_16_ulps_rms(self, a):
        # the constant fit at the mean reads R^2 = 1 while the RMS deviation
        # is within 16 ulps of the mean (a spike of up to ~34 ulps in three
        # points), and R^2 = 0 beyond it
        eps = np.finfo(float).eps
        for ulps, r2 in ((30, 1.0), (40, 0.0)):
            p = [a, a + ulps * eps * a, a]
            assert fit_metrics(p, [np.mean(p)] * 3).r2 == r2

    def test_r2_relative_spread_far_above_rounding_is_not_flat(self):
        assert fit_metrics([1.0, 1.0 + 1e-8, 1.0], [1.0, 1.0, 1.0]).r2 == 0.0

    @given(st.floats(min_value=1e-6, max_value=1e6), st.sampled_from([[1, 1, 1], [0, 1, 1, 1], [1, 0, 1, 1]]))
    def test_flat_three_point_series_fits_perfectly(self, a, pattern):
        # the mean of three equal values need not round to that value
        series = EmpiricalSeries(np.arange(1.0, len(pattern) + 1), a * np.array(pattern, dtype=float))
        fit = fit_loglog(series)
        assert fit.metrics.r2 == 1.0
        assert fit.verdict.r2_ok


class TestConformityVerdict:
    def test_threshold_boundaries_both_sides(self):
        eps = 1e-9
        at = ConformityVerdict.from_metrics(FitMetrics(r2=0.9, kl=0.5, js=0.2, mape=0.5))
        assert not (at.r2_ok or at.kl_ok or at.js_ok or at.mape_ok)
        inside = ConformityVerdict.from_metrics(
            FitMetrics(r2=0.9 + eps, kl=0.5 - eps, js=0.2 - eps, mape=0.5 - eps)
        )
        assert inside.r2_ok and inside.kl_ok and inside.js_ok and inside.mape_ok
        outside = ConformityVerdict.from_metrics(
            FitMetrics(r2=0.9 - eps, kl=0.5 + eps, js=0.2 + eps, mape=0.5 + eps)
        )
        assert not (outside.r2_ok or outside.kl_ok or outside.js_ok or outside.mape_ok)

    def test_kl_point_four_acceptable(self):
        v = ConformityVerdict.from_metrics(FitMetrics(r2=0.95, kl=0.4, js=0.1, mape=0.1))
        assert v.kl_ok and v.all_ok


class TestFitLoglog:
    def test_exact_power_law(self):
        x = np.arange(1, 101, dtype=float)
        fit = fit_loglog(EmpiricalSeries(x, 2.0 * x ** -1.0, law="test"))
        assert fit.exponent == pytest.approx(-1.0, abs=1e-9)
        assert fit.prefactor == pytest.approx(2.0, rel=1e-9)
        assert fit.metrics.r2 == 1.0
        assert fit.metrics.kl < 1e-9
        assert fit.metrics.js < 1e-9

    def test_fitted_y_spans_source_series(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 0.0, 9.0, 16.0])  # zero point dropped from the fit
        fit = fit_loglog(EmpiricalSeries(x, y, law="test"))
        assert fit.fitted_y.shape == x.shape

    def test_not_fittable_below_three_points(self):
        with pytest.raises(NotFittable):
            fit_loglog(EmpiricalSeries([1.0, 2.0], [1.0, 2.0], law="t"))
        with pytest.raises(NotFittable):
            fit_loglog(EmpiricalSeries([1.0, 2.0, 3.0], [0.0, 0.0, 1.0], law="t"))

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_exponent_invariant_under_y_scaling(self, c):
        x = np.arange(1, 30, dtype=float)
        y = 3.0 * x ** -0.7
        base = fit_loglog(EmpiricalSeries(x, y, law="t"))
        scaled = fit_loglog(EmpiricalSeries(x, c * y, law="t"))
        assert scaled.exponent == pytest.approx(base.exponent, abs=1e-9)
        assert scaled.prefactor == pytest.approx(c * base.prefactor, rel=1e-6)

    def test_noisy_power_law_r2_below_one(self):
        rng = np.random.default_rng(0)
        x = np.arange(1, 200, dtype=float)
        y = x ** -0.8 * np.exp(rng.normal(0, 0.2, x.size))
        fit = fit_loglog(EmpiricalSeries(x, y, law="t"))
        assert fit.metrics.r2 < 1.0
        assert fit.exponent == pytest.approx(-0.8, abs=0.1)


class TestEmpiricalSeries:
    def test_rejects_non_increasing_x(self):
        with pytest.raises(ValueError):
            EmpiricalSeries([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EmpiricalSeries([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            EmpiricalSeries([1.0, 2.0], [1.0, -2.0])

    @pytest.mark.parametrize("x, y, message", [
        ([[1.0]], [[1.0]], "x and y must be 1-D and the same length"),
        ([1.0, 2.0], [1.0], "x and y must be 1-D and the same length"),
        ([0.0, 1.0], [1.0, 2.0], "x values must be positive"),
        ([-1.0], [1.0], "x values must be positive"),
        ([2.0, 1.0], [1.0, 1.0], "x must be strictly increasing"),
        # repeated infinities: the difference inf - inf is NaN, the order test is not
        ([1.0, math.inf, math.inf], [1.0, 1.0, 1.0], "x must be strictly increasing"),
        ([1.0, 2.0], [1.0, -2.0], "y values must be nonnegative"),
        # NaN compares false both ways, so each check must ask for the good case
        ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0], "x values must be positive"),
        ([1.0, 2.0, 3.0], [1.0, math.nan, 3.0], "y values must be nonnegative"),
    ])
    def test_messages(self, x, y, message):
        with pytest.raises(ValueError) as info:
            EmpiricalSeries(x, y)
        assert str(info.value) == message

    def test_empty_and_one_point_series_constructible(self):
        assert len(EmpiricalSeries([], [])) == 0
        assert len(EmpiricalSeries([3.0], [0.0])) == 1


class TestFitBenford:
    @staticmethod
    def independent_ols(freqs):
        # normal-equation least squares on the linearized model, kept separate
        # from the production path on purpose
        d = np.arange(1, 10, dtype=float)
        design = np.column_stack([np.ones(9), d, np.log(d)])
        y = np.log(np.where(freqs > 0, freqs, 1e-12))
        beta = np.linalg.solve(design.T @ design, design.T @ y)
        fitted = np.exp(design @ beta)
        fitted /= fitted.sum()
        ss_res = np.sum((freqs - fitted) ** 2)
        ss_tot = np.sum((freqs - freqs.mean()) ** 2)
        return beta, 1.0 - ss_res / ss_tot

    def test_exact_benford_frequencies(self):
        d = np.arange(1, 10, dtype=float)
        freqs = np.log10(1 + 1 / d)
        assert freqs[0] == pytest.approx(0.301, abs=5e-4)
        beta, oracle_r2 = self.independent_ols(freqs)
        assert oracle_r2 >= 0.99  # verified before asserting on the main path
        fit = fit_benford(freqs)
        assert fit.metrics.r2 >= 0.99
        assert fit.exponent == pytest.approx(-beta[1], abs=1e-9)
        assert fit.secondary_exponent == pytest.approx(beta[2] + 1.0, abs=1e-9)

    def test_uniform_frequencies(self):
        fit = fit_benford(np.full(9, 1.0 / 9.0))
        assert fit.exponent == pytest.approx(0.0, abs=1e-9)
        assert fit.secondary_exponent == pytest.approx(1.0, abs=1e-9)

    def test_single_dominant_digit(self):
        # degenerate-input contract: the fit must succeed, not be good
        freqs = np.zeros(9)
        freqs[0] = 1.0
        fit = fit_benford(freqs)
        assert math.isfinite(fit.exponent)
        assert math.isfinite(fit.secondary_exponent)
        assert math.isfinite(fit.metrics.mape)

    def test_two_spike_histogram_reports_large_error(self):
        freqs = np.zeros(9)
        freqs[0] = freqs[2] = 0.5
        fit = fit_benford(freqs)
        assert fit.metrics.mape > 0.5

    def test_all_zero_not_fittable(self):
        with pytest.raises(NotFittable):
            fit_benford(np.zeros(9))

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            fit_benford(np.full(8, 0.125))


class TestBatchFits:
    """A batch entry is exactly the fit of that series alone."""

    @given(st.lists(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), max_size=12),
                    max_size=6))
    def test_loglog_batch_is_per_series(self, ys):
        series = [EmpiricalSeries(np.arange(1.0, len(y) + 1), y, law=f"s{i}") for i, y in enumerate(ys)]
        for fit, s in zip(fit_loglog_many(series), series, strict=True):
            try:
                alone = fit_loglog(s)
            except NotFittable as exc:
                assert isinstance(fit, NotFittable) and str(fit) == str(exc)
                continue
            assert (fit.exponent, fit.prefactor, fit.metrics) == (alone.exponent, alone.prefactor, alone.metrics)
            assert np.array_equal(fit.fitted_y, alone.fitted_y)
