"""The regression engines against general least-squares references.

The references below solve every fit with ``np.polyfit`` or
``np.linalg.lstsq``, one system at a time. The library's fits must agree with
them to ``rel_tol=1e-9, abs_tol=1e-12`` on every float, and exactly on every
``NotFittable`` detail, verdict, ``floored`` flag, kept q set and suitability.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zgptda.augment as augment
import zgptda.laws as laws
import zgptda.mfdfa as mfdfa
from zgptda.augment import GenerationConfig, MockTransport, evaluate_corpus, score_instance
from zgptda.corpus import Document
from zgptda.fitkit import (
    EmpiricalSeries,
    LawFit,
    NotFittable,
    fit_benford,
    fit_loglog,
    fit_metrics,
)
from zgptda.mfdfa import (
    DEFAULT_Q_GRID,
    FluctuationMatrix,
    HashedTrigramEmbedder,
    MultifractalSpectrum,
    ScalarSeries,
    build_series,
    default_scales,
    fluctuation,
    profile,
    spectrum,
)

REL_TOL = 1e-9
ABS_TOL = 1e-12


def ref_fit_loglog(series):
    pos = series.y > 0
    if int(pos.sum()) < 3:
        raise NotFittable(f"{series.law or 'series'}: {int(pos.sum())} positive points, need 3")
    lx = np.log(series.x[pos])
    ly = np.log(series.y[pos])
    slope, intercept = np.polyfit(lx, ly, 1)
    prefactor = float(np.exp(intercept))
    fitted_y = prefactor * series.x ** slope
    metrics = fit_metrics(series.y[pos], fitted_y[pos])
    return LawFit(exponent=float(slope), prefactor=prefactor, fitted_y=fitted_y, metrics=metrics)


def ref_fit_benford(freqs):
    f = np.asarray(freqs, dtype=float)
    if not np.any(f > 0):
        raise NotFittable("benford: all digit frequencies are zero")
    d = np.arange(1, 10, dtype=float)
    smoothed = np.where(f > 0, f, 1e-12)
    design = np.column_stack([np.ones(9), d, np.log(d)])
    beta, *_ = np.linalg.lstsq(design, np.log(smoothed), rcond=None)
    fitted = np.exp(design @ beta)
    fitted = fitted / fitted.sum()
    return LawFit(
        exponent=float(-beta[1]),
        prefactor=float(np.exp(beta[0])),
        fitted_y=fitted,
        metrics=fit_metrics(f, fitted),
        secondary_exponent=float(beta[2] + 1.0),
    )


def ref_fluctuation(prof, scales, q_grid, m=1):
    prof = np.asarray(prof, dtype=float)
    scales = np.asarray(scales, dtype=int)
    q_grid = np.asarray(q_grid, dtype=float)
    n = prof.size
    if m < 1:
        raise ValueError("detrend order must be >= 1")
    values = np.empty((q_grid.size, scales.size))
    floored = False
    for j, s in enumerate(scales):
        n_win = n // s
        windows = np.vstack([prof[: n_win * s].reshape(n_win, s),
                             prof[n - n_win * s:].reshape(n_win, s)])
        design = np.vander(np.arange(s, dtype=float), m + 1)
        coef, *_ = np.linalg.lstsq(design, windows.T, rcond=None)
        resid = windows.T - design @ coef
        f2 = np.mean(resid ** 2, axis=0)
        if np.any(f2 < 1e-30):
            floored = True
            f2 = np.maximum(f2, 1e-30)
        log_f2 = np.log(f2)
        for i, q in enumerate(q_grid):
            if q == 0.0:
                values[i, j] = np.exp(0.5 * log_f2.mean())
            else:
                values[i, j] = np.mean(f2 ** (q / 2.0)) ** (1.0 / q)
    return FluctuationMatrix(values=values, q_grid=q_grid, scales=scales, floored=floored)


def ref_spectrum(fluct):
    if fluct.scales.size < 3:
        raise NotFittable(f"mandelbrot: {fluct.scales.size} scales, need 3")
    log_s = np.log(fluct.scales.astype(float))
    h = np.empty(fluct.q_grid.size)
    for i in range(fluct.q_grid.size):
        with np.errstate(divide="ignore", invalid="ignore"):
            log_f = np.log(fluct.values[i])
        if not np.all(np.isfinite(log_f)):
            h[i] = np.nan
            continue
        h[i] = np.polyfit(log_s, log_f, 1)[0]
    keep = np.isfinite(h)
    if int(keep.sum()) < 3:
        raise NotFittable("mandelbrot: fewer than 3 q points with finite slopes")
    q = fluct.q_grid[keep]
    h = h[keep]
    dh = np.gradient(h, q)
    alpha = h + q * dh
    return MultifractalSpectrum(
        q_grid=q,
        h=h,
        tau=q * h - 1.0,
        alpha=alpha,
        f_alpha=q * (alpha - h) + 1.0,
        delta_alpha=float(alpha.max() - alpha.min()),
        scales=fluct.scales,
        fluctuation=fluct.values[keep],
    )


def use_reference_engines(monkeypatch):
    """Route the pipeline's fits through the references, where it looks them up."""
    monkeypatch.setattr(laws, "fit_loglog", ref_fit_loglog)
    monkeypatch.setattr(laws, "fit_benford", ref_fit_benford)
    monkeypatch.setattr(mfdfa, "fit_loglog", ref_fit_loglog)
    monkeypatch.setattr(augment, "fluctuation", ref_fluctuation)
    monkeypatch.setattr(augment, "spectrum", ref_spectrum)


def assert_close(actual, expected):
    actual = np.atleast_1d(np.asarray(actual, dtype=float))
    expected = np.atleast_1d(np.asarray(expected, dtype=float))
    assert actual.shape == expected.shape
    for a, e in zip(actual.tolist(), expected.tolist()):
        if math.isfinite(e):
            assert math.isclose(a, e, rel_tol=REL_TOL, abs_tol=ABS_TOL), (a, e)
        else:
            assert a == e or (math.isnan(a) and math.isnan(e)), (a, e)


def assert_fits_match(fit, ref):
    assert_close(fit.exponent, ref.exponent)
    assert_close(fit.prefactor, ref.prefactor)
    assert (fit.secondary_exponent is None) == (ref.secondary_exponent is None)
    if ref.secondary_exponent is not None:
        assert_close(fit.secondary_exponent, ref.secondary_exponent)
    assert_close(fit.fitted_y, ref.fitted_y)
    for name in ("r2", "kl", "js", "mape"):
        assert_close(getattr(fit.metrics, name), getattr(ref.metrics, name))
    assert fit.verdict == ref.verdict


def outcome(solve, *args):
    try:
        return solve(*args)
    except NotFittable as exc:
        return ("NotFittable", str(exc))


def assert_outcomes_match(solve, reference, compare, *args):
    expected = outcome(reference, *args)
    actual = outcome(solve, *args)
    if isinstance(expected, tuple):
        assert actual == expected
    else:
        assert not isinstance(actual, tuple), actual
        compare(actual, expected)


def assert_fluct_match(fluct, ref):
    assert fluct.floored == ref.floored
    assert np.array_equal(fluct.scales, ref.scales)
    assert np.array_equal(fluct.q_grid, ref.q_grid)
    assert_close(fluct.values.ravel(), ref.values.ravel())


def assert_spectra_match(spec, ref):
    assert np.array_equal(spec.q_grid, ref.q_grid)
    assert np.array_equal(spec.scales, ref.scales)
    for name in ("h", "tau", "alpha", "f_alpha", "delta_alpha"):
        assert_close(getattr(spec, name), getattr(ref, name))
    assert_close(spec.fluctuation.ravel(), ref.fluctuation.ravel())


def assert_reports_match(reports, refs):
    assert [r.law for r in reports] == [r.law for r in refs]
    for rep, ref in zip(reports, refs):
        assert (rep.fittable, rep.detail) == (ref.fittable, ref.detail)
        if ref.fit is not None:
            assert_fits_match(rep.fit, ref.fit)


# --- log-log fits --------------------------------------------------------------

@st.composite
def power_laws(draw):
    """Noisy power laws on log-spaced x, some points zeroed. The noise is
    Gaussian, so no drawn series is constant: on a series constant to
    rounding R^2 compares two rounding errors and no two solvers agree."""
    n = draw(st.integers(min_value=1, max_value=25))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = np.exp(np.cumsum(rng.uniform(0.1, 0.5, n)))
    noise = draw(st.sampled_from([0.01, 0.1])) * rng.standard_normal(n)
    exponent = draw(st.floats(-3.0, 3.0))
    log_prefactor = draw(st.floats(-5.0, 5.0))
    y = np.exp(log_prefactor + exponent * np.log(x) + noise)
    y[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0.0
    return EmpiricalSeries(x, y, law="law")


@settings(max_examples=300, deadline=None)
@given(power_laws())
def test_loglog_matches_polyfit(series):
    assert_outcomes_match(fit_loglog, ref_fit_loglog, assert_fits_match, series)


@pytest.mark.parametrize("y", [
    [1.0, 2.0, 4.0, 8.0, 16.0],
    [3.0, 3.0, 3.0, 3.0],            # flat: slope 0, R^2 from the constant branch
    [0.0, 5.0, 0.0, 1.0, 2.0],
    [0.0, 0.0, 1.0, 2.0],            # two positive points
    [0.0, 0.0, 0.0],
])
def test_loglog_edge_series_match_polyfit(y):
    series = EmpiricalSeries(np.arange(1.0, len(y) + 1), y, law="edge")
    assert_outcomes_match(fit_loglog, ref_fit_loglog, assert_fits_match, series)


# --- first-digit fits ----------------------------------------------------------

digit_counts = st.lists(st.integers(0, 1000), min_size=9, max_size=9).map(
    lambda c: np.array(c, dtype=float) / max(1, sum(c))
)
digit_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=9, max_size=9
).map(np.array)


@settings(max_examples=300, deadline=None)
@given(st.one_of(digit_counts, digit_weights))
def test_benford_matches_lstsq(freqs):
    assert_outcomes_match(fit_benford, ref_fit_benford, assert_fits_match, freqs)


@pytest.mark.parametrize("freqs", [
    np.log10(1.0 + 1.0 / np.arange(1, 10)),
    np.full(9, 1.0 / 9.0),
    np.eye(9)[0],
    np.eye(9)[8],
    np.zeros(9),
])
def test_benford_edge_frequencies_match_lstsq(freqs):
    assert_outcomes_match(fit_benford, ref_fit_benford, assert_fits_match, freqs)


# --- fluctuation and spectrum ----------------------------------------------------

def walk(seed, n, kind):
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal(n) if kind == "normal" else rng.standard_t(2.0, n)
    return profile(ScalarSeries(steps, kind))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.integers(64, 2000),
    st.integers(1, 3),
    st.sampled_from(["normal", "heavy"]),
)
def test_random_walks_match_lstsq(seed, n, m, kind):
    prof = walk(seed, n, kind)
    scales = default_scales(n)
    fluct = fluctuation(prof, scales, DEFAULT_Q_GRID, m=m)
    ref = ref_fluctuation(prof, scales, DEFAULT_Q_GRID, m=m)
    assert_fluct_match(fluct, ref)
    assert_outcomes_match(spectrum, ref_spectrum, assert_spectra_match, ref)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_flat_profile_floors_like_lstsq(m):
    prof, scales, q_grid = np.zeros(256), [16, 32, 64], [-2.0, 0.0, 2.0]
    fluct = fluctuation(prof, scales, q_grid, m=m)
    assert fluct.floored
    assert_fluct_match(fluct, ref_fluctuation(prof, scales, q_grid, m=m))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.integers(1, 8),
    st.lists(st.sampled_from([0.0, np.inf, np.nan]), max_size=12),
)
def test_spectrum_drops_the_same_q(seed, n_scales, bad):
    rng = np.random.default_rng(seed)
    q_grid = np.arange(-3.0, 3.5, 0.5)
    values = np.exp(rng.normal(size=(q_grid.size, n_scales)))
    rows = rng.integers(0, q_grid.size, len(bad))
    cols = rng.integers(0, n_scales, len(bad))
    values[rows, cols] = bad
    fluct = FluctuationMatrix(values=values, q_grid=q_grid, scales=16 * 2 ** np.arange(n_scales))
    assert_outcomes_match(spectrum, ref_spectrum, assert_spectra_match, fluct)


# --- whole pipeline ---------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3])
def test_book_fluctuation_matches_lstsq(book_a, book_b, m):
    embedder = HashedTrigramEmbedder()
    for book in (book_a, book_b):
        series = build_series(book, embedder)
        prof = profile(series)
        scales = default_scales(len(series))
        fluct = fluctuation(prof, scales, DEFAULT_Q_GRID, m=m)
        ref = ref_fluctuation(prof, scales, DEFAULT_Q_GRID, m=m)
        assert_fluct_match(fluct, ref)
        assert_spectra_match(spectrum(fluct), ref_spectrum(ref))


def test_books_match_reference_engines(book_a, book_b, monkeypatch):
    actual = [evaluate_corpus([b], name=b.id, with_spectrum=True) for b in (book_a, book_b)]
    use_reference_engines(monkeypatch)
    expected = [evaluate_corpus([b], name=b.id, with_spectrum=True) for b in (book_a, book_b)]
    for ev, ref in zip(actual, expected):
        assert_reports_match(ev.reports, ref.reports)
        assert_spectra_match(ev.spectrum, ref.spectrum)


def mock_completions(count=50):
    transport, cfg = MockTransport(seed=0), GenerationConfig()
    return [
        Document(id=f"m{i}", text=transport.complete(f"raw example {i // 10}", cfg, slot=i % 10))
        for i in range(count)
    ]


def test_mock_suitability_matches_reference_engines(monkeypatch):
    docs = mock_completions()
    actual = [score_instance(d) for d in docs]
    use_reference_engines(monkeypatch)
    expected = [score_instance(d) for d in docs]
    for sc, ref in zip(actual, expected):
        assert sc.suitability == ref.suitability
        assert (sc.excluded_laws, sc.no_signal) == (ref.excluded_laws, ref.no_signal)
        assert_reports_match(sc.law_reports, ref.law_reports)
        if ref.z is not None:
            assert_close([sc.z.a_t, sc.z.b_t], [ref.z.a_t, ref.z.b_t])
            assert sc.z.laws_used == ref.z.laws_used
