"""Empirical series builders and fits for the seven token-level laws.

Each builder turns a :class:`~zgptda.corpus.TokenStream` into the (x, y)
series the corresponding law predicts to be a power law (or, for first
digits, a gamma-like quasi-scaling curve). Builders raise
:class:`~zgptda.fitkit.NotFittable` only when no series can be assembled at
all; degenerate short series are returned as-is and rejected by the
regression, so callers can always report *why* a law was unavailable.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus import TokenStream, first_digits
# fit_loglog is not called here: perfbench/instrument.py looks it up on this module
from .fitkit import (EmpiricalSeries, LawFit, NotFittable, fit_benford,  # noqa: F401
                     fit_loglog, fit_loglog_many)

__all__ = [
    "LAW_NAMES",
    "LawReport",
    "zipf_series",
    "heaps_series",
    "taylor_series",
    "hilberg_series",
    "ebeling_series",
    "menzerath_series",
    "benford_series",
    "build_all",
    "fit_reports",
    "evaluate_all",
]

# fixed evaluation order; "mandelbrot" (the multifractal route) lives in mfdfa
LAW_NAMES = ("zipf", "heaps", "taylor", "hilberg", "ebeling", "menzerath", "benford")

HEAPS_TARGET_POINTS = 200
TAYLOR_SEGMENT_LEN = 100
HILBERG_MAX_BLOCK = 6
# fewest windows of the longest ebeling window length
EBELING_MIN_WINDOWS = 8
# cells of the taylor count table held as float64 at a time
_BLOCK_CELLS = 2 ** 18


@dataclass
class LawReport:
    """Outcome of building and fitting one law on one token stream."""

    law: str
    series: EmpiricalSeries | None
    fit: LawFit | None
    fittable: bool
    detail: str = ""


def zipf_series(ts: TokenStream) -> EmpiricalSeries:
    """Rank-frequency series: x = 1..V by descending frequency, y = f(r)."""
    if not ts.words:
        raise NotFittable("zipf: no word tokens")
    freqs = np.sort(np.bincount(ts.codes))[::-1]
    ranks = np.arange(1, len(freqs) + 1, dtype=float)
    return EmpiricalSeries(ranks, freqs.astype(float), law="zipf")


def heaps_series(ts: TokenStream) -> EmpiricalSeries:
    """Vocabulary growth: x = tokens seen, y = distinct types.

    Checkpointed every ceil(N/200) tokens (minimum stride 1) to keep the fit
    cheap on large corpora; the final token is always a checkpoint.
    """
    n = len(ts.words)
    if n == 0:
        raise NotFittable("heaps: no word tokens")
    stride = max(1, math.ceil(n / HEAPS_TARGET_POINTS))
    xs = np.unique(np.append(np.arange(stride, n + 1, stride), n))
    # types are coded by first occurrence: i tokens hold max(codes[:i]) + 1 types
    ys = np.maximum.accumulate(ts.codes)[xs - 1] + 1
    return EmpiricalSeries(xs.astype(float), ys.astype(float), law="heaps")


def taylor_series(ts: TokenStream, segment_len: int = TAYLOR_SEGMENT_LEN) -> EmpiricalSeries:
    """Count-variance scaling: x = mean per-segment count, y = its std.

    The stream is cut into consecutive non-overlapping segments of
    `segment_len` words (remainder dropped). For every word type present in
    at least 2 segments, the mean and population standard deviation of its
    per-segment counts (zeros included) form one point; points sharing a mean
    are aggregated by averaging their stds so x stays strictly increasing.
    """
    if segment_len < 1:
        raise ValueError("segment_len must be >= 1")
    n_segments = len(ts.words) // segment_len
    if n_segments < 3:
        raise NotFittable(f"taylor: {n_segments} full segments, need 3")
    codes = ts.codes[: n_segments * segment_len]
    # type x segment counts; a count is at most segment_len, so a narrow dtype holds it
    table = np.zeros((int(codes.max()) + 1, n_segments), dtype=np.min_scalar_type(segment_len))
    np.add.at(table, (codes, np.arange(codes.size) // segment_len), 1)
    by_mean: dict[float, list[float]] = {}
    # rows in ascending code order, i.e. by first occurrence; each row's mean
    # and std are reduced along the row, as for a single row
    block_rows = max(1, _BLOCK_CELLS // n_segments)
    for lo in range(0, len(table), block_rows):
        block = table[lo : lo + block_rows]
        block = block[np.count_nonzero(block, axis=1) >= 2].astype(float)
        for mean, std in zip(block.mean(axis=1).tolist(), block.std(axis=1).tolist()):
            by_mean.setdefault(mean, []).append(std)
    if not by_mean:
        raise NotFittable("taylor: no word type occurs in 2 or more segments")
    xs = np.array(sorted(by_mean), dtype=float)
    ys = np.array([np.mean(by_mean[x]) for x in xs], dtype=float)
    return EmpiricalSeries(xs, ys, law="taylor")


def hilberg_series(ts: TokenStream, max_block: int = HILBERG_MAX_BLOCK) -> EmpiricalSeries:
    """Block entropy growth: x = block size, y = entropy of word blocks.

    y is the plug-in Shannon entropy (natural log) of the empirical
    distribution of overlapping word blocks of each size up to `max_block`.
    """
    if max_block < 1:
        raise ValueError("max_block must be >= 1")
    n = len(ts.words)
    if n == 0:
        raise NotFittable("hilberg: no word tokens")
    blocks = codes = ts.codes
    n_types = int(codes.max()) + 1
    xs: list[int] = []
    ys: list[float] = []
    for mu in range(1, max_block + 1):
        total = n - mu + 1
        if total < 1:
            break
        if mu > 1:
            # block code = prefix code * n_types + last word code; one sort
            # groups the blocks, each is re-coded by its first position (so the
            # next keys fit int64), and bincount counts them by first occurrence
            keys = blocks[:total] * n_types + codes[mu - 1 :]
            perm = np.argsort(keys)
            sorted_keys = keys[perm]
            # the bounds of the groups of equal keys: 0, each change, total
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


def ebeling_series(ts: TokenStream) -> EmpiricalSeries:
    """Character-variance scaling: x = window length, y = summed count variance.

    Window lengths u are powers of two up to C // EBELING_MIN_WINDOWS, C the
    number of characters. The characters are cut into floor(C/u) non-overlapping
    windows; y(u) sums, over the alphabet of the text, the population variance
    across windows of each character's count. y(u) is the exact sum,
    correctly rounded to float.
    """
    chars = ts.chars
    c = len(chars)
    if c // EBELING_MIN_WINDOWS < 2:
        raise NotFittable(f"ebeling: {c} characters is too short")
    # code points, narrowed so the stable sort below is a radix sort on most texts
    codes = np.frombuffer(chars.encode("utf-32-le"), "<u4")
    codes = codes.astype(np.min_scalar_type(codes.max()))
    totals = np.bincount(codes)
    # positions grouped by character, ascending within each: at each u the
    # nonzero (character, window) cells are runs, which start at a character's
    # first position or where pos // u changes, i.e. for u a power of two,
    # where pos differs from the position before it in a bit worth u or more;
    # split holds each position XOR the one before it, c at each character's
    # first position, and c past the end, so every run ends where the next starts
    order = np.argsort(codes, kind="stable")
    split = np.empty(c + 1, order.dtype)
    split[1:c] = order[1:] ^ order[:-1]
    split[0] = c
    split[np.cumsum(totals[totals > 0])] = c
    xs: list[int] = []
    ys: list[float] = []
    u = 2
    while u <= c // EBELING_MIN_WINDOWS:
        n_win = c // u
        bounds = np.flatnonzero(split >= u)
        run_lens = bounds[1:] - bounds[:-1]
        # less the partial last window's cells; then sum_k var_k is
        # (n_win * sum_wk n_wk^2 - sum_k T_k^2) / n_win^2, exact in Python ints
        tail = np.bincount(codes[n_win * u :], minlength=totals.size)
        sum_sq = int(run_lens @ run_lens) - int(tail @ tail)
        in_windows = totals - tail
        xs.append(u)
        ys.append((n_win * sum_sq - int(in_windows @ in_windows)) / (n_win * n_win))
        u *= 2
    return EmpiricalSeries(np.array(xs, dtype=float), np.array(ys, dtype=float), law="ebeling")


def menzerath_series(ts: TokenStream) -> EmpiricalSeries:
    """Sentence/word length coupling: x = sentence length in words,
    y = mean word length in letters over all words in sentences of that length.
    """
    if not ts.sentences:
        raise NotFittable("menzerath: no sentences")
    sentence_len = np.repeat(ts.sentences, ts.sentences)  # per word
    word_len = np.fromiter(map(len, ts.words), np.int64, len(ts.words))
    xs = np.unique(ts.sentences)
    ys = np.bincount(sentence_len, weights=word_len)[xs] / np.bincount(sentence_len)[xs]
    return EmpiricalSeries(xs.astype(float), ys, law="menzerath")


def benford_series(ts: TokenStream) -> EmpiricalSeries:
    """First-digit frequencies of sentence word-lengths: x = digits 1..9,
    y = relative frequency (absent digits are 0)."""
    digits = np.arange(1, 10, dtype=float)
    lengths = [n for n in ts.sentences if n >= 1]
    if not lengths:
        freqs = np.zeros(9)
    else:
        counts = np.bincount(first_digits(lengths), minlength=10)[1:10]
        freqs = counts / counts.sum()
    return EmpiricalSeries(digits, freqs, law="benford")


def build_all(
    ts: TokenStream,
    *,
    segment_len: int = TAYLOR_SEGMENT_LEN,
    max_block: int = HILBERG_MAX_BLOCK,
) -> list[LawReport]:
    """Build the series of all seven token-level laws, not yet fitted.

    A law whose series cannot be assembled (:class:`NotFittable`) is
    reported unfittable with the reason. Report order matches :data:`LAW_NAMES`.
    """
    series_of = {
        "zipf": lambda: zipf_series(ts),
        "heaps": lambda: heaps_series(ts),
        "taylor": lambda: taylor_series(ts, segment_len),
        "hilberg": lambda: hilberg_series(ts, max_block),
        "ebeling": lambda: ebeling_series(ts),
        "menzerath": lambda: menzerath_series(ts),
        "benford": lambda: benford_series(ts),
    }
    reports: list[LawReport] = []
    for law in LAW_NAMES:
        try:
            reports.append(LawReport(law=law, series=series_of[law](), fit=None, fittable=False))
        except NotFittable as exc:
            reports.append(LawReport(law=law, series=None, fit=None, fittable=False, detail=str(exc)))
    return reports


def fit_reports(reports: list[LawReport]) -> list[LawReport]:
    """Fit the series of every report in place and return the reports.

    All log-log series, whichever text or law they come from, are fitted as
    one segmented reduction and each first-digit series on its own. A series
    the regression rejects leaves its report unfittable with the reason.
    """
    built = [r for r in reports if r.series is not None]
    loglog = iter(fit_loglog_many([r.series for r in built if r.law != "benford"]))
    for report in built:
        try:
            fit = fit_benford(report.series.y) if report.law == "benford" else next(loglog)
        except NotFittable as exc:
            fit = exc
        if isinstance(fit, NotFittable):
            report.detail = str(fit)
        else:
            report.fit, report.fittable = fit, True
    return reports


def evaluate_all(
    ts: TokenStream,
    *,
    segment_len: int = TAYLOR_SEGMENT_LEN,
    max_block: int = HILBERG_MAX_BLOCK,
) -> list[LawReport]:
    """Build and fit all seven token-level laws.

    Unfittable laws are flagged in their report, never fatal, so short texts
    degrade gracefully. Report order matches :data:`LAW_NAMES`.
    """
    return fit_reports(build_all(ts, segment_len=segment_len, max_block=max_block))
