"""Regression engines and conformity metrics shared by every scaling law.

A law is judged by four numbers computed between the observed series and the
fitted curve: the coefficient of determination (R^2), the Kullback-Leibler
divergence, the Jensen-Shannon divergence (normalized into [0, 1]), and the
mean absolute percentage error expressed as a fraction.

Acceptance thresholds: R^2 > 0.9, KL < 0.5, JS < 0.2, MAPE < 0.5.
"""

import math
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
    "fit_benford",
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

# regressors [1, d, ln d] of the first-digit model at d = 1..9, and their
# pseudo-inverse: the least-squares coefficients of any log-frequency vector
_DIGITS = np.arange(1, 10, dtype=float)
_BENFORD_DESIGN = np.column_stack([np.ones(9), _DIGITS, np.log(_DIGITS)])
_BENFORD_PINV = np.linalg.pinv(_BENFORD_DESIGN)


class NotFittable(Exception):
    """The series has too few usable points for the law's regression."""


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
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("x and y must be 1-D and the same length")
        if self.x.size and np.any(self.x <= 0):
            raise ValueError("x values must be positive")
        if self.x.size > 1 and np.any(np.diff(self.x) <= 0):
            raise ValueError("x must be strictly increasing")
        if self.y.size and np.any(self.y < 0):
            raise ValueError("y values must be nonnegative")

    def __len__(self):
        return self.x.size


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


def _normalize(v: np.ndarray) -> np.ndarray:
    v = v + _EPS
    return v / v.sum()


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum(p * np.log(p / q)))


def fit_metrics(observed, fitted) -> FitMetrics:
    """Compute (R^2, KL, JS, MAPE) between observed and fitted values.

    R^2 and MAPE are computed on the values as given (MAPE skips points with
    observed == 0); KL and JS are computed on the two series normalized to
    probability vectors after additive epsilon smoothing. JS uses the
    symmetric midpoint form in natural log, divided by ln 2 so it lies in
    [0, 1].
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

    ss_res = float(np.sum((p - q) ** 2))
    ss_tot = float(np.sum((p - p.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-12 else 0.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))

    pn = _normalize(p)
    qn = _normalize(q)
    kl = max(0.0, _kl(pn, qn))
    m = 0.5 * (pn + qn)
    js = max(0.0, (0.5 * _kl(pn, m) + 0.5 * _kl(qn, m)) / math.log(2.0))

    nz = p != 0
    mape = float(np.mean(np.abs((q[nz] - p[nz]) / p[nz])))

    return FitMetrics(r2=r2, kl=kl, js=js, mape=mape)


def fit_loglog(series: EmpiricalSeries) -> LawFit:
    """Ordinary least squares of ln y on ln x, solved in closed form.

    Zero-y points are dropped before fitting; at least 3 positive points must
    remain. ``fitted_y`` is evaluated at every x of the source series; the
    metrics are computed over the fitted (positive-y) support.

    Raises:
        NotFittable: fewer than 3 positive points.
    """
    pos = series.y > 0
    if int(pos.sum()) < _MIN_POINTS:
        raise NotFittable(
            f"{series.law or 'series'}: {int(pos.sum())} positive points, need {_MIN_POINTS}"
        )
    lx = np.log(series.x[pos])
    ly = np.log(series.y[pos])
    # centered normal equations; x is strictly increasing, so dx @ dx > 0
    mean_x, mean_y = lx.mean(), ly.mean()
    dx = lx - mean_x
    slope = float(dx @ (ly - mean_y) / (dx @ dx))
    prefactor = float(np.exp(mean_y - slope * mean_x))
    fitted_y = prefactor * series.x ** slope
    metrics = fit_metrics(series.y[pos], fitted_y[pos])
    return LawFit(exponent=slope, prefactor=prefactor, fitted_y=fitted_y, metrics=metrics)


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
    f = np.asarray(freqs, dtype=float)
    if f.shape != (9,):
        raise ValueError("expected 9 digit frequencies (digits 1..9)")
    if np.any(f < 0):
        raise ValueError("frequencies must be nonnegative")
    if not np.any(f > 0):
        raise NotFittable("benford: all digit frequencies are zero")

    smoothed = np.where(f > 0, f, _EPS)
    beta = _BENFORD_PINV @ np.log(smoothed)
    kappa = float(-beta[1])
    omega = float(beta[2] + 1.0)
    fitted = np.exp(_BENFORD_DESIGN @ beta)
    fitted = fitted / fitted.sum()
    metrics = fit_metrics(f, fitted)
    return LawFit(
        exponent=kappa,
        prefactor=float(np.exp(beta[0])),
        fitted_y=fitted,
        metrics=metrics,
        secondary_exponent=omega,
    )
