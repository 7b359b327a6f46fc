"""Regression engines and conformity metrics shared by every scaling law.

A law is judged by four numbers computed between the observed series and the
fitted curve: the coefficient of determination (R^2), the Kullback-Leibler
divergence, the Jensen-Shannon divergence (normalized into [0, 1]), and the
mean absolute percentage error expressed as a fraction.

Acceptance thresholds: R^2 > 0.9, KL < 0.5, JS < 0.2, MAPE < 0.5.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotFittable",
    "EmpiricalSeries",
    "FitMetrics",
    "ConformityVerdict",
    "LawFit",
    "fit_metrics",
    "fit_loglog",
    "fit_loglog_many",
    "fit_benford",
    "fit_benford_many",
    "R2_MIN",
    "KL_MAX",
    "JS_MAX",
    "MAPE_MAX",
]

R2_MIN = 0.9
KL_MAX = 0.5
JS_MAX = 0.2
MAPE_MAX = 0.5

# additive smoothing for probability normalization; small enough not to move
# well-behaved values at the reported precision
_EPS = 1e-12

_MIN_POINTS = 3

# RMS deviation from the mean, relative to the mean, up to which an observed
# series is constant up to rounding: 16 ulps
_FLAT_ULPS = 16 * np.finfo(float).eps

# regressors [1, d, ln d] of the first-digit model at d = 1..9, and their
# pseudo-inverse: the least-squares coefficients of any log-frequency vector
_DIGITS = np.arange(1, 10, dtype=float)
_BENFORD_DESIGN = np.column_stack([np.ones(9), _DIGITS, np.log(_DIGITS)])
_BENFORD_PINV = np.linalg.pinv(_BENFORD_DESIGN)


class NotFittable(Exception):
    """The series has too few usable points for the law's regression."""


def _check_series(x: np.ndarray, y: np.ndarray, run_starts: np.ndarray) -> None:
    """Raise ValueError unless x and y are 1-D and the same length, x is
    positive and strictly increasing within each run (a new run begins at
    each index in `run_starts`) and y is nonnegative; NaN fails each check."""
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-D and the same length")
    if not (x > 0).all():
        raise ValueError("x values must be positive")
    rising = x[1:] > x[:-1]
    rising[run_starts - 1] = True
    if not rising.all():
        raise ValueError("x must be strictly increasing")
    if not (y >= 0).all():
        raise ValueError("y values must be nonnegative")


@dataclass
class EmpiricalSeries:
    """(x, y) observations for one law.

    x must be strictly increasing and positive; y nonnegative. Series with
    fewer than 3 points are constructible (degenerate inputs produce them)
    but the regressions below reject them.
    """

    x: np.ndarray
    y: np.ndarray
    law: str = ""

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        _check_series(self.x, self.y, np.empty(0, np.intp))

    def __len__(self):
        return self.x.size

    @classmethod
    def _many(cls, x, y, lengths, law: str) -> list["EmpiricalSeries"]:
        """The series of consecutive runs of `lengths` points of x and y, checked once for all."""
        starts = np.cumsum(lengths) - lengths
        _check_series(x, y, starts[(starts > 0) & (starts < x.size)])
        made = []
        for a, n in zip(starts.tolist(), lengths.tolist()):
            made.append(series := object.__new__(cls))
            series.x, series.y, series.law = x[a:a + n], y[a:a + n], law
        return made


@dataclass(frozen=True)
class FitMetrics:
    r2: float
    kl: float
    js: float
    mape: float


@dataclass(frozen=True)
class ConformityVerdict:
    """Per-metric pass/fail against the acceptance thresholds."""

    r2_ok: bool
    kl_ok: bool
    js_ok: bool
    mape_ok: bool

    @classmethod
    def from_metrics(cls, m: FitMetrics) -> "ConformityVerdict":
        return cls(
            r2_ok=m.r2 > R2_MIN,
            kl_ok=m.kl < KL_MAX,
            js_ok=m.js < JS_MAX,
            mape_ok=m.mape < MAPE_MAX,
        )

    @property
    def all_ok(self) -> bool:
        return self.r2_ok and self.kl_ok and self.js_ok and self.mape_ok


@dataclass
class LawFit:
    """Fitted parameters and conformity metrics for one law.

    ``exponent`` is the law's scaling exponent; ``secondary_exponent`` is only
    set for the two-parameter first-digit model. ``fitted_y`` has the same
    length as the source series.
    """

    exponent: float
    prefactor: float
    fitted_y: np.ndarray
    metrics: FitMetrics
    secondary_exponent: float | None = None

    @property
    def verdict(self) -> ConformityVerdict:
        return ConformityVerdict.from_metrics(self.metrics)


def _segments(counts: np.ndarray):
    """For an array cut into consecutive segments of lengths `counts` (each
    >= 1): a function giving the sum of each segment, rounded as ``np.sum``
    of that segment alone, and one spreading a value per segment over the
    segment's entries. ``reduceat`` adds the pairwise sum of a segment's tail
    to its first entry, so each segment is summed laid out after a zero."""
    if counts.size == 1:
        return (lambda v: np.add.reduce(v, keepdims=True)), (lambda v: v)
    seg = np.arange(counts.size).repeat(counts)
    at = counts.cumsum() - counts + np.arange(counts.size)
    places = np.arange(seg.size) + seg + 1
    laid_out = np.zeros(seg.size + counts.size)

    def total(v):
        laid_out[places] = v
        return np.add.reduceat(laid_out, at)
    return total, lambda v: v[seg]


def _segment_metrics(p: np.ndarray, q: np.ndarray, counts: np.ndarray) -> list[FitMetrics]:
    """The metrics of consecutive segments of `p` and `q` with the given
    lengths (each >= 2, each with a nonzero observed value)."""
    total, spread = _segments(counts)
    mean = total(p) / counts
    ss_res = total((p - q) ** 2)
    ss_tot = total((p - spread(mean)) ** 2)
    resolution = counts * (_FLAT_ULPS * mean) ** 2
    p_eps, q_eps = p + _EPS, q + _EPS
    pn, qn = p_eps / spread(total(p_eps)), q_eps / spread(total(q_eps))
    m = 0.5 * (pn + qn)
    kl = total(pn * np.log(pn / qn))
    js = (0.5 * total(pn * np.log(pn / m)) + 0.5 * total(qn * np.log(qn / m))) / math.log(2.0)
    nz = p != 0
    nz_counts = np.add.reduceat(nz, counts.cumsum() - counts)
    mape = _segments(nz_counts)[0](np.abs((q[nz] - p[nz]) / p[nz])) / nz_counts
    # a series whose RMS deviation from its mean is within _FLAT_ULPS of it is
    # constant up to rounding: R^2 is 1 if the fit matches it that closely, else 0
    return [FitMetrics(r2=float(res <= tol) if tot <= tol else min(1.0, max(0.0, 1.0 - res / tot)),
                       kl=max(0.0, a), js=max(0.0, b), mape=c)
            for res, tot, tol, a, b, c in zip(ss_res.tolist(), ss_tot.tolist(), resolution.tolist(),
                                              kl.tolist(), js.tolist(), mape.tolist())]


def fit_metrics(observed, fitted) -> FitMetrics:
    """Compute (R^2, KL, JS, MAPE) between observed and fitted values.

    R^2 and MAPE are computed on the values as given (MAPE skips points with
    observed == 0); KL and JS are computed on the two series normalized to
    probability vectors after additive epsilon smoothing. JS uses the
    symmetric midpoint form in natural log, divided by ln 2 so it lies in
    [0, 1]. An observed series whose RMS deviation from its mean is within
    16 ulps of the mean is constant: R^2 is 1 if the fit's RMS error is
    within that too, and 0 otherwise.
    """
    p = np.asarray(observed, dtype=float)
    q = np.asarray(fitted, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("observed and fitted must be 1-D and the same length")
    if p.size < 2:
        raise ValueError("need at least 2 points")
    if not np.any(p != 0):
        raise ValueError("observed values are all zero")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("metric inputs must be nonnegative")
    return _segment_metrics(p, q, np.array([p.size]))[0]


def fit_loglog_many(series: Sequence[EmpiricalSeries]) -> list[LawFit | NotFittable]:
    """:func:`fit_loglog` of every series, as one segmented reduction over
    their concatenated positive supports. A series that cannot be fitted has
    the :class:`NotFittable` it raises alone in its place."""
    pos = [s.y > 0 for s in series]
    n_pos = [int(np.count_nonzero(mask)) for mask in pos]
    results = [NotFittable(f"{s.law or 'series'}: {n} positive points, need {_MIN_POINTS}")
               if n < _MIN_POINTS else None for s, n in zip(series, n_pos)]
    ok = [i for i, r in enumerate(results) if r is None]
    if not ok:
        return results
    x = np.concatenate([series[i].x for i in ok])
    keep = np.concatenate([pos[i] for i in ok])
    y = np.concatenate([series[i].y for i in ok])[keep]
    counts = np.array([n_pos[i] for i in ok])
    lengths = np.array([series[i].x.size for i in ok])
    total, spread = _segments(counts)
    # centered normal equations; x is strictly increasing, so dx @ dx > 0. The products are
    # taken per series on copies, so they round as for it alone on any BLAS kernel
    lx, ly = np.log(x[keep]), np.log(y)
    mean_x, mean_y = total(lx) / counts, total(ly) / counts
    dx, dy = lx - spread(mean_x), ly - spread(mean_y)
    slope = np.array([(a := dx[end - n:end].copy()) @ dy[end - n:end].copy() / (a @ a)
                      for end, n in zip(counts.cumsum().tolist(), counts.tolist())])
    prefactor = np.exp(mean_y - slope * mean_x)
    fitted = prefactor.repeat(lengths) * x ** slope.repeat(lengths)
    metrics = _segment_metrics(y, fitted[keep], counts)
    for i, k, c, end, n, m in zip(ok, slope.tolist(), prefactor.tolist(),
                                  lengths.cumsum().tolist(), lengths.tolist(), metrics):
        results[i] = LawFit(exponent=k, prefactor=c, fitted_y=fitted[end - n:end], metrics=m)
    return results


def fit_loglog(series: EmpiricalSeries) -> LawFit:
    """Ordinary least squares of ln y on ln x, solved in closed form.

    Zero-y points are dropped before fitting; at least 3 positive points must
    remain. ``fitted_y`` is evaluated at every x of the source series; the
    metrics are computed over the fitted (positive-y) support.

    Raises:
        NotFittable: fewer than 3 positive points.
    """
    return _only(fit_loglog_many([series]))


def _attempt(solve, *args):
    """``solve(*args)``, or the NotFittable it raises, without its traceback:
    its frames would hold the caller's results, the exception among them, in
    a cycle only the garbage collector frees."""
    try:
        return solve(*args)
    except NotFittable as exc:
        return exc.with_traceback(None)


def _only(results):
    """The one result of a one-item batch, raised if it is a NotFittable."""
    [result] = results
    if isinstance(result, NotFittable):
        raise result
    return result


def fit_benford_many(rows) -> list[LawFit | NotFittable]:
    """:func:`fit_benford` of each row of nine frequencies, or the
    :class:`NotFittable` it raises alone. The two products of a row are taken
    on copies, so they round as for that row alone; the rest is one batch."""
    if not len(rows):
        return []
    f = np.asarray(rows, dtype=float)
    if f.ndim != 2 or f.shape[1] != 9:
        raise ValueError("expected 9 digit frequencies (digits 1..9)")
    if (f < 0).any():
        raise ValueError("frequencies must be nonnegative")
    fits = (f > 0).any(axis=1)
    f = f[fits]
    beta = np.array([_BENFORD_PINV @ row.copy() for row in np.log(np.where(f > 0, f, _EPS))]).reshape(-1, 3)
    fitted = np.exp(np.array([_BENFORD_DESIGN @ b.copy() for b in beta]).reshape(-1, 9))
    fitted /= fitted.sum(axis=1, keepdims=True)
    metrics = _segment_metrics(f.ravel(), fitted.ravel(), np.full(len(f), 9))
    prefactors = np.exp(beta[:, 0]).tolist()
    made = iter([LawFit(exponent=-b1, prefactor=c, fitted_y=y, metrics=m, secondary_exponent=b2 + 1.0)
                 for (_, b1, b2), c, y, m in zip(beta.tolist(), prefactors, fitted, metrics)])
    return [next(made) if ok else NotFittable("benford: all digit frequencies are zero")
            for ok in fits.tolist()]


def fit_benford(freqs) -> LawFit:
    """Fit first-digit frequencies to ``f(d) = C * exp(-k*d) * d**(w-1)``.

    The model is linear in log space: ``ln f = ln C - k*d + (w-1)*ln d``,
    solved by least squares on the regressors [1, d, ln d] through their fixed
    pseudo-inverse. Zero frequencies are replaced by a smoothing epsilon
    before taking logs. The fitted curve is renormalized to sum 1 before the
    metrics are computed against the original frequencies.

    Returns a fit with ``exponent = k`` and ``secondary_exponent = w``.

    Raises:
        NotFittable: all nine frequencies are zero.
    """
    return _only(fit_benford_many([freqs]))
