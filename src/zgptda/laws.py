"""Empirical series builders and fits for the seven token-level laws.

Each builder turns a :class:`~zgptda.corpus.TokenStream` into the (x, y)
series the corresponding law predicts to be a power law (or, for first
digits, a gamma-like quasi-scaling curve). Builders raise
:class:`~zgptda.fitkit.NotFittable` only when no series can be assembled at
all; degenerate short series are returned as-is and rejected by the
regression, so callers can always report *why* a law was unavailable.

Each builder but taylor's, ``X_series(ts)``, is the one-text case of
``X_series_many(tss)``, which builds the series of a batch of texts at once,
byte for byte as each text alone, and puts in place of a text's series the
NotFittable that text raises alone.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import TokenStream, first_digits
# fit_loglog and fit_benford are not called here: perfbench/instrument.py looks them up on this module
from .fitkit import (EmpiricalSeries, LawFit, NotFittable, _attempt, _only, _segments,  # noqa: F401
                     fit_benford, fit_benford_many, fit_loglog, fit_loglog_many)

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
    "zipf_series_many",
    "heaps_series_many",
    "hilberg_series_many",
    "ebeling_series_many",
    "menzerath_series_many",
    "benford_series_many",
    "build_all_many",
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
    fit: LawFit | None = None
    detail: str = ""

    @property
    def fittable(self) -> bool:
        return self.fit is not None


def _cut(law, x, y, lengths, fits, detail):
    """One series per text from the texts' points laid end to end, `lengths`
    points each, or for a text that `fits` not, NotFittable(`detail`)."""
    return [series if ok else NotFittable(detail)
            for series, ok in zip(EmpiricalSeries._many(x, y, lengths, law), fits.tolist())]


def _word_codes(tss):
    """The texts' words as one array of type codes, the types of each text
    numbered after those of the texts before it, with per-text word counts,
    first word positions, type counts and first type codes."""
    local = [ts.codes for ts in tss]
    n = np.fromiter(map(len, local), np.int64, len(local))
    n_types = np.fromiter((len(ts.types) for ts in tss), np.int64, len(local))
    offsets = np.cumsum(n_types) - n_types
    codes = np.concatenate([np.empty(0, np.int64), *(c + o for c, o in zip(local, offsets.tolist()))])
    return codes, n, np.cumsum(n) - n, n_types, offsets


def zipf_series_many(tss: Sequence[TokenStream]) -> list[EmpiricalSeries | NotFittable]:
    """:func:`zipf_series` of each text."""
    codes, n, _, n_types, offsets = _word_codes(tss)
    counts = np.bincount(codes, minlength=int(n_types.sum()))
    top = int(counts.max(initial=0)) + 1
    # each text's counts in descending order: sort by (text, top - count)
    keys = np.sort(np.repeat(np.arange(len(tss)) * top, n_types) + top - counts)
    ranks = np.arange(1.0, counts.size + 1) - np.repeat(offsets, n_types)
    return _cut("zipf", ranks, (top - keys % top).astype(float), n_types, n > 0, "zipf: no word tokens")


def zipf_series(ts: TokenStream) -> EmpiricalSeries:
    """Rank-frequency series: x = 1..V by descending frequency, y = f(r)."""
    return _only(zipf_series_many([ts]))


def heaps_series_many(tss: Sequence[TokenStream]) -> list[EmpiricalSeries | NotFittable]:
    """:func:`heaps_series` of each text."""
    codes, n, starts, _, offsets = _word_codes(tss)
    stride = np.maximum(1, -(-n // HEAPS_TARGET_POINTS))
    # every stride-th token and the last one: ceil(n / stride) checkpoints
    m = -(-n // stride)
    j = np.arange(1, m.sum() + 1) - np.repeat(np.cumsum(m) - m, m)
    xs = np.minimum(j * np.repeat(stride, m), np.repeat(n, m))
    # types are coded by first occurrence, and the codes of a text exceed those
    # before it: i tokens of a text hold max(codes[:i]) - offset + 1 types
    ys = np.maximum.accumulate(codes)[np.repeat(starts, m) + xs - 1] - np.repeat(offsets, m) + 1
    return _cut("heaps", xs.astype(float), ys.astype(float), m, n > 0, "heaps: no word tokens")


def heaps_series(ts: TokenStream) -> EmpiricalSeries:
    """Vocabulary growth: x = tokens seen, y = distinct types.

    Checkpointed every ceil(N/200) tokens (minimum stride 1) to keep the fit
    cheap on large corpora; the final token is always a checkpoint.
    """
    return _only(heaps_series_many([ts]))


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
    n_segments = ts.codes.size // segment_len
    if n_segments < 3:
        raise NotFittable(f"taylor: {n_segments} full segments, need 3")
    codes = ts.codes[: n_segments * segment_len]
    # the nonzero cells of the type x segment count table, in row-major order
    cells, counts = np.unique(codes * n_segments + np.arange(codes.size) // segment_len,
                              return_counts=True)
    types = cells // n_segments
    # one row per type present in 2 or more segments, in ascending code order
    # (by first occurrence), filled into one buffer a block of rows at a time
    kept = np.bincount(types) >= 2
    mine = kept[types]
    flat, counts = (np.cumsum(kept) - 1)[types[mine]] * n_segments + cells[mine] % n_segments, counts[mine]
    total, size = int(np.count_nonzero(kept)) * n_segments, max(1, _BLOCK_CELLS // n_segments) * n_segments
    edges = np.searchsorted(flat, np.arange(0, total + size, size)).tolist()
    buffer = np.empty(min(size, total))
    by_mean: dict[float, list[float]] = {}
    for k, lo in enumerate(range(0, total, size)):
        block = buffer[: min(size, total - lo)]
        block.fill(0.0)
        block[flat[edges[k] : edges[k + 1]] - lo] = counts[edges[k] : edges[k + 1]]
        # each row's mean and std are reduced along the row, as for a single row
        block = block.reshape(-1, n_segments)
        for mean, std in zip(block.mean(axis=1).tolist(), block.std(axis=1).tolist()):
            by_mean.setdefault(mean, []).append(std)
    if not by_mean:
        raise NotFittable("taylor: no word type occurs in 2 or more segments")
    xs = np.array(sorted(by_mean), dtype=float)
    ys = np.array([np.mean(by_mean[x]) for x in xs], dtype=float)
    return EmpiricalSeries(xs, ys, law="taylor")


def hilberg_series_many(
    tss: Sequence[TokenStream], max_block: int = HILBERG_MAX_BLOCK
) -> list[EmpiricalSeries | NotFittable]:
    """:func:`hilberg_series` of each text. The words of all texts are laid
    end to end and their blocks grouped as one text's; a block that runs past
    the end of its text is a group of its own, as its last word code is of a
    later text, and is not counted."""
    if max_block < 1:
        raise ValueError("max_block must be >= 1")
    codes, n, starts, n_types, offsets = _word_codes(tss)
    blocks = codes
    ends = starts + n
    entropy = np.zeros((len(tss), max_block))
    for mu in range(1, max_block + 1):
        alive = n >= mu
        if not alive.any():
            break
        if mu > 1:
            n_blocks = codes.size - mu + 1
            # block code = prefix code * n_types + last word code; one sort
            # groups the blocks, each is re-coded by its first position (so the
            # next keys fit int64), and bincount counts them by first occurrence
            keys = blocks[:n_blocks] * int(n_types.sum()) + codes[mu - 1 :]
            perm = np.argsort(keys)
            sorted_keys = keys[perm]
            # the bounds of the groups of equal keys: 0, each change, n_blocks
            edge = np.ones(n_blocks + 1, bool)
            edge[1:n_blocks] = sorted_keys[1:] != sorted_keys[:-1]
            bounds = np.flatnonzero(edge)
            group_starts = bounds[:-1]
            blocks = np.empty_like(keys)
            blocks[perm] = np.repeat(np.minimum.reduceat(perm, group_starts), bounds[1:] - group_starts)
        counts = np.bincount(blocks)
        # the blocks that start in the last mu - 1 words of a text run past it
        tail = np.minimum(n, mu - 1)
        past = np.arange(tail.sum()) + np.repeat(ends - tail - (np.cumsum(tail) - tail), tail)
        counts[past[past < counts.size]] = 0
        present = counts > 0
        # each text's blocks are coded from its first type (mu = 1) or word on
        distinct = np.add.reduceat(present, (starts if mu > 1 else offsets)[alive])
        total, spread = _segments(distinct)
        probs = counts[present] / spread(n[alive] - mu + 1)
        entropy[alive, mu - 1] = -total(probs * np.log(probs))
    m = np.minimum(n, max_block)
    x = np.arange(1.0, m.sum() + 1) - np.repeat(np.cumsum(m) - m, m)
    return _cut("hilberg", x, entropy[np.arange(max_block) < m[:, None]], m, m > 0, "hilberg: no word tokens")


def hilberg_series(ts: TokenStream, max_block: int = HILBERG_MAX_BLOCK) -> EmpiricalSeries:
    """Block entropy growth: x = block size, y = entropy of word blocks.

    y is the plug-in Shannon entropy (natural log) of the empirical
    distribution of overlapping word blocks of each size up to `max_block`.
    """
    return _only(hilberg_series_many([ts], max_block))


def ebeling_series_many(tss: Sequence[TokenStream]) -> list[EmpiricalSeries | NotFittable]:
    """:func:`ebeling_series` of each text, summed in integers text by text."""
    n_chars = np.fromiter((len(ts.chars) for ts in tss), np.int64, len(tss))
    fits = n_chars // EBELING_MIN_WINDOWS >= 2
    c = n_chars[fits]
    chars = "".join(ts.chars for ts, ok in zip(tss, fits) if ok)
    points = np.frombuffer(chars.encode("utf-32-le"), "<u4")
    starts = np.cumsum(c) - c
    # (text, code point) keys, narrowed so the stable sort below is a radix
    # sort on most batches
    width = int(points.max(initial=0)) + 1
    keys = points.astype(np.min_scalar_type(c.size * width - 1))
    for t, (a, m) in enumerate(zip(starts.tolist()[1:], c.tolist()[1:]), start=1):
        keys[a:a + m] += t * width
    totals = np.bincount(keys)
    present = totals > 0
    totals = totals[present]
    # where each text's alphabet starts among the batch's (text, character) pairs
    alphabet_starts = np.searchsorted(np.flatnonzero(present), np.arange(c.size) * width)
    # positions grouped by text and character, ascending within each, the
    # texts in turn: at each u the nonzero (character, window) cells are runs,
    # which start at a character's first position or where pos // u changes,
    # i.e. for u a power of two, where pos differs from the position before it
    # in a bit worth u or more; split holds each position within its text XOR
    # the one before it, c at each character's first position, and c past the
    # end, so every run ends where the next starts
    order = np.argsort(keys, kind="stable")
    for a, m in zip(starts.tolist()[1:], c.tolist()[1:]):
        order[a:a + m] -= a
    split = np.empty(order.size + 1, order.dtype)
    split[1:-1] = order[1:] ^ order[:-1]
    split[np.cumsum(totals)] = split[0] = order.size
    us: list[int] = []
    ys: list[list[float]] = [[] for _ in c]
    u = 2
    while u <= c.max(initial=0) // EBELING_MIN_WINDOWS:
        n_win = c // u
        bounds = np.flatnonzero(split >= u)
        run_lens = bounds[1:] - bounds[:-1]
        run_sq = np.add.reduceat(run_lens * run_lens, np.searchsorted(bounds, starts)).tolist()
        # less the partial last window's cells; then sum_k var_k is
        # (n_win * sum_wk n_wk^2 - sum_k T_k^2) / n_win^2, exact in Python ints
        part = c - n_win * u
        at = np.arange(part.sum()) + np.repeat(starts + n_win * u - (np.cumsum(part) - part), part)
        tail = np.bincount(keys[at], minlength=present.size)[present]
        in_windows = totals - tail
        tail_sq = np.add.reduceat(tail * tail, alphabet_starts).tolist()
        in_sq = np.add.reduceat(in_windows * in_windows, alphabet_starts).tolist()
        for y, w, r, tl, iw in zip(ys, n_win.tolist(), run_sq, tail_sq, in_sq):
            # u <= C // EBELING_MIN_WINDOWS, as C // u >= EBELING_MIN_WINDOWS
            if w >= EBELING_MIN_WINDOWS:
                y.append((w * (r - tl) - iw) / (w * w))
        us.append(u)
        u *= 2
    built = iter(EmpiricalSeries._many(np.array([v for y in ys for v in us[:len(y)]], dtype=float),
                                       np.array([v for y in ys for v in y]),
                                       np.array([len(y) for y in ys], np.int64), "ebeling"))
    return [next(built) if ok else NotFittable(f"ebeling: {m} characters is too short")
            for ok, m in zip(fits.tolist(), n_chars.tolist())]


def ebeling_series(ts: TokenStream) -> EmpiricalSeries:
    """Character-variance scaling: x = window length, y = summed count variance.

    Window lengths u are powers of two up to C // EBELING_MIN_WINDOWS, C the
    number of characters. The characters are cut into floor(C/u) non-overlapping
    windows; y(u) sums, over the alphabet of the text, the population variance
    across windows of each character's count. y(u) is the exact sum,
    correctly rounded to float.
    """
    return _only(ebeling_series_many([ts]))


def menzerath_series_many(tss: Sequence[TokenStream]) -> list[EmpiricalSeries | NotFittable]:
    """:func:`menzerath_series` of each text."""
    n_sent = np.fromiter((len(ts.sentences) for ts in tss), np.int64, len(tss))
    sentences = np.fromiter(chain.from_iterable(ts.sentences for ts in tss), np.int64, int(n_sent.sum()))
    width = int(sentences.max(initial=0)) + 1
    # (text, sentence length) of each sentence, and of each word
    keys = np.repeat(np.arange(len(tss)) * width, n_sent) + sentences
    word_keys = np.repeat(keys, sentences)
    # each word's length in letters is its folded type's
    lengths = [np.fromiter(map(len, ts.types), np.int64, len(ts.types))[ts.codes]
               for ts in tss if ts.sentences]
    word_len = np.concatenate([np.empty(0, np.int64), *lengths])
    xs = np.unique(keys)
    ys = np.bincount(word_keys, weights=word_len)[xs] / np.bincount(word_keys)[xs]
    n_x = np.bincount(xs // width, minlength=len(tss))
    return _cut("menzerath", (xs % width).astype(float), ys, n_x, n_sent > 0, "menzerath: no sentences")


def menzerath_series(ts: TokenStream) -> EmpiricalSeries:
    """Sentence/word length coupling: x = sentence length in words,
    y = mean word length in letters over all words in sentences of that length.
    """
    return _only(menzerath_series_many([ts]))


def benford_series_many(tss: Sequence[TokenStream]) -> list[EmpiricalSeries]:
    """:func:`benford_series` of each text."""
    n_sent = np.fromiter((len(ts.sentences) for ts in tss), np.int64, len(tss))
    lengths = np.fromiter(chain.from_iterable(ts.sentences for ts in tss), np.int64, int(n_sent.sum()))
    kept = lengths >= 1
    digits = np.array(first_digits(lengths[kept].tolist()), np.int64)
    keys = np.repeat(np.arange(len(tss)) * 10, n_sent)[kept] + digits
    counts = np.bincount(keys, minlength=10 * len(tss)).reshape(-1, 10)[:, 1:]
    # absent digits are 0, and so are all of a text without sentences
    freqs = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
    return EmpiricalSeries._many(np.tile(np.arange(1.0, 10.0), len(tss)), freqs.ravel(),
                                 np.full(len(tss), 9), "benford")


def benford_series(ts: TokenStream) -> EmpiricalSeries:
    """First-digit frequencies of sentence word-lengths: x = digits 1..9,
    y = relative frequency (absent digits are 0)."""
    return _only(benford_series_many([ts]))


def _report(law: str, series) -> LawReport:
    if isinstance(series, NotFittable):
        return LawReport(law=law, series=None, detail=str(series))
    return LawReport(law=law, series=series)


def build_all_many(
    tss: Sequence[TokenStream],
    *,
    segment_len: int = TAYLOR_SEGMENT_LEN,
    max_block: int = HILBERG_MAX_BLOCK,
) -> list[list[LawReport]]:
    """Build the series of all seven token-level laws of each text, not yet
    fitted; every law but taylor is built for all the texts at once.

    A law whose series cannot be assembled (:class:`NotFittable`) is
    reported unfittable with the reason. Report order matches :data:`LAW_NAMES`.
    """
    by_law = (zipf_series_many(tss), heaps_series_many(tss),
              [_attempt(taylor_series, ts, segment_len) for ts in tss],
              hilberg_series_many(tss, max_block), ebeling_series_many(tss),
              menzerath_series_many(tss), benford_series_many(tss))
    return [list(map(_report, LAW_NAMES, row)) for row in zip(*by_law)]


def fit_reports(reports: list[LawReport]) -> list[LawReport]:
    """Fit the series of every report in place and return the reports.

    All log-log series, whichever text or law they come from, are fitted as
    one segmented reduction, and all first-digit series as one batch. A
    series the regression rejects leaves its report unfittable with the reason.
    """
    built = [r for r in reports if r.series is not None]
    loglog = iter(fit_loglog_many([r.series for r in built if r.law != "benford"]))
    benford = iter(fit_benford_many([r.series.y for r in built if r.law == "benford"]))
    for report in built:
        fit = next(benford) if report.law == "benford" else next(loglog)
        if isinstance(fit, NotFittable):
            report.detail = str(fit)
        else:
            report.fit = fit
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
    return fit_reports(build_all_many([ts], segment_len=segment_len, max_block=max_block)[0])
