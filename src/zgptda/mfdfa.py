"""Multifractal detrended fluctuation analysis of text-derived scalar series.

The pipeline mirrors the standard MFDFA recipe on a series V(k) obtained by
embedding text units (sentences, falling back to words for short texts) and
reducing each vector to the mean of its components:

1. profile: cumulative sum of mean-removed values
2. fluctuation: split the profile into non-overlapping windows of size s from
   both ends (2 * floor(n/s) windows), detrend each with an order-m
   polynomial, and aggregate the residual variances into F_q(s)
3. spectrum: h(q) as the log-log slope of F_q(s), mass exponents
   tau(q) = q*h(q) - 1, and the Holder spectrum (alpha, f(alpha)) via finite
   differences of h

Embedding is abstracted behind providers: a deterministic hashed byte-trigram
fallback (hermetic, no model download) and a reader for precomputed vector
files (JSONL of {"id", "unit_index", "vector"}).
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import Document, split_sentences, word_tokens
from .fitkit import EmpiricalSeries, LawFit, NotFittable, fit_loglog

__all__ = [
    "MIN_SERIES_LEN",
    "DEFAULT_Q_GRID",
    "ProviderError",
    "EmbeddingProvider",
    "HashedTrigramEmbedder",
    "FileVectorEmbedder",
    "ScalarSeries",
    "FluctuationMatrix",
    "MultifractalSpectrum",
    "build_series",
    "profile",
    "default_scales",
    "fluctuation",
    "spectrum",
    "mandelbrot_conformity",
    "run_mfdfa",
]

MIN_SERIES_LEN = 64
MIN_SCALE = 16
N_SCALES = 12
DEFAULT_Q_GRID = np.arange(-10.0, 10.5, 0.5)

# residual-variance floor keeps q < 0 and q = 0 aggregations finite when a
# window is perfectly detrended
_F2_FLOOR = 1e-30

# most grams whose buckets one HashedTrigramEmbedder keeps (1 MB); scoring
# 200 texts of 1,200 words meets about 9,000 distinct grams
_GRAM_CACHE_MAX = 2 ** 16


class ProviderError(Exception):
    """An embedding provider failed or cannot serve the requested unit."""


class EmbeddingProvider:
    """Deterministic mapping from text units to fixed-dimension vectors.

    The pipeline calls :meth:`unit_vectors` once per document. A provider
    either implements :meth:`embed` for one unit, which the default
    :meth:`unit_vectors` calls per unit, or overrides :meth:`unit_vectors`.
    """

    provider_id: str = "abstract"
    dimension: int = 0

    def embed(self, text_unit: str) -> np.ndarray:
        raise NotImplementedError

    def unit_vectors(self, doc: Document, units: list[str]) -> np.ndarray:
        """Embed every unit of `doc`, reporting the failing unit index."""
        vectors = np.empty((len(units), self.dimension))
        for k, unit in enumerate(units):
            try:
                vectors[k] = self.embed(unit)
            except ProviderError:
                raise
            except Exception as exc:
                raise ProviderError(f"{self.provider_id}: embedding failed for unit {k}") from exc
        return vectors


class HashedTrigramEmbedder(EmbeddingProvider):
    """Hermetic fallback provider: hashed byte-trigram frequency vectors.

    Each UTF-8 byte trigram of the unit is hashed (blake2b) into one of 64
    buckets; a unit of 1 or 2 bytes is hashed whole. The bucket counts are
    L2-normalized. Fully deterministic across runs and platforms.

    :meth:`unit_vectors` embeds all units of a document in one pass and
    :meth:`embed` is its one-unit case. Only grams not seen before are
    hashed: the buckets of the others come from a cache of at most
    :data:`_GRAM_CACHE_MAX` grams, which starts again from the current
    document's grams (as many as fit) when they would overflow it.
    """

    provider_id = "fallback-trigram-64"
    dimension = 64

    def __init__(self):
        # (sorted gram codes, their buckets); replaced as one tuple so a
        # concurrent reader never pairs codes with another table's buckets
        self._gram_cache = (np.empty(0, np.int64), np.empty(0, np.int64))

    def _bucket(self, code: int) -> int:
        gram = (code & 0xFFFFFF).to_bytes(code >> 24 or 3, "big")
        digest = hashlib.blake2b(gram, digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.dimension

    def _buckets(self, codes: np.ndarray) -> np.ndarray:
        """The bucket of each of the sorted, distinct gram `codes`; only
        codes not in the cache are hashed."""
        keys, buckets = self._gram_cache
        pos = np.searchsorted(keys, codes)
        hit = pos < keys.size
        hit[hit] = keys[pos[hit]] == codes[hit]
        if hit.all():
            return buckets[pos]
        new = ~hit
        out = np.empty(codes.size, np.int64)
        out[hit] = buckets[pos[hit]]
        out[new] = np.fromiter(map(self._bucket, codes[new].tolist()), np.int64)
        if keys.size + np.count_nonzero(new) <= _GRAM_CACHE_MAX:
            self._gram_cache = (np.insert(keys, pos[new], codes[new]),
                                np.insert(buckets, pos[new], out[new]))
        else:
            # full: start again from this document's grams, as many as fit
            self._gram_cache = (codes[:_GRAM_CACHE_MAX].copy(), out[:_GRAM_CACHE_MAX].copy())
        return out

    def unit_vectors(self, doc: Document, units: list[str]) -> np.ndarray:
        encoded = []
        for k, unit in enumerate(units):
            try:
                encoded.append(unit.encode("utf-8"))
            except UnicodeEncodeError as exc:
                raise ProviderError(f"{self.provider_id}: embedding failed for unit {k}") from exc
        lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
        n = int(lengths.sum())
        data = np.frombuffer(b"".join(encoded) + b"\0\0", np.uint8).astype(np.int64)
        # the code b0 << 16 | b1 << 8 | b2 of the three bytes starting at each position
        grams = data[:n] << 16 | data[1 : n + 1] << 8 | data[2:]
        unit_of = np.repeat(np.arange(len(units)), lengths)
        ends = np.cumsum(lengths)
        starts = ends - lengths
        # trigrams that lie wholly inside one unit
        inside = np.flatnonzero(np.arange(n) + 3 <= ends[unit_of])
        # a 1- or 2-byte unit is one gram, coded length << 24 | its bytes, above every trigram
        short = np.flatnonzero((lengths == 1) | (lengths == 2))
        short_codes = lengths[short] << 24 | grams[starts[short]] >> 8 * (3 - lengths[short])
        # (gram code, unit) pairs sorted by code, so each distinct gram is
        # looked up once; codes take 26 bits and unit indices fit in 32
        pairs = np.sort(np.concatenate([grams[inside], short_codes]) << 32
                        | np.concatenate([unit_of[inside], short]))
        codes = pairs >> 32
        is_first = np.diff(codes, prepend=-1) != 0
        buckets = self._buckets(codes[is_first])[np.cumsum(is_first) - 1]
        counts = np.bincount(
            (pairs & 0xFFFFFFFF) * self.dimension + buckets, minlength=len(units) * self.dimension
        ).reshape(len(units), self.dimension)
        # integer counts: the sums of squares are exact, so the norms match a per-unit norm
        norms = np.sqrt((counts * counts).sum(axis=1))
        norms[norms == 0] = 1.0
        return counts / norms[:, None]

    def embed(self, text_unit: str) -> np.ndarray:
        return self.unit_vectors(None, [text_unit])[0]


class FileVectorEmbedder(EmbeddingProvider):
    """Precomputed vectors read from a JSONL file.

    Each record is ``{"id": str, "unit_index": int, "vector": [float, ...]}``;
    all vectors must share one dimension and the records for a document must
    cover unit indices 0..n-1.
    """

    def __init__(self, path):
        self.provider_id = f"file:{path}"
        self._vectors: dict[tuple[str, int], np.ndarray] = {}
        self.dimension = 0
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    key = (obj["id"], int(obj["unit_index"]))
                    vec = np.asarray(obj["vector"], dtype=float)
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    raise ProviderError(f"{path}: line {lineno}: bad embedding record") from exc
                if vec.ndim != 1 or vec.size == 0:
                    raise ProviderError(f"{path}: line {lineno}: vector must be non-empty 1-D")
                if self.dimension == 0:
                    self.dimension = vec.size
                elif vec.size != self.dimension:
                    raise ProviderError(
                        f"{path}: line {lineno}: vector dimension {vec.size} != {self.dimension}"
                    )
                self._vectors[key] = vec

    def unit_vectors(self, doc: Document, units: list[str]) -> np.ndarray:
        vectors = np.empty((len(units), self.dimension))
        for k in range(len(units)):
            vec = self._vectors.get((doc.id, k))
            if vec is None:
                raise ProviderError(f"{self.provider_id}: no vector for {doc.id!r} unit {k}")
            vectors[k] = vec
        return vectors


@dataclass
class ScalarSeries:
    """The scalar series V(k) fed into the fluctuation analysis."""

    values: np.ndarray
    source: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    def __len__(self):
        return self.values.size


@dataclass
class FluctuationMatrix:
    """F_q(s) over a (q, scale) grid, plus the floor flag for degenerate
    windows (zero residual variance)."""

    values: np.ndarray  # shape (len(q_grid), len(scales))
    q_grid: np.ndarray
    scales: np.ndarray
    floored: bool = False


@dataclass
class MultifractalSpectrum:
    q_grid: np.ndarray
    h: np.ndarray
    tau: np.ndarray
    alpha: np.ndarray
    f_alpha: np.ndarray
    delta_alpha: float
    scales: np.ndarray
    fluctuation: np.ndarray = field(repr=False)


def build_series(doc: Document, provider: EmbeddingProvider) -> ScalarSeries:
    """Embed a document's units and reduce each vector to its component mean.

    Units are sentences; documents with fewer than 64 sentences fall back to
    word tokens so short texts still produce a usable series.

    Raises:
        NotFittable: fewer than 64 units even after the word fallback.
        ProviderError: the provider failed on a unit.
    """
    units = split_sentences(doc.text)
    unit_kind = "sentence"
    if len(units) < MIN_SERIES_LEN:
        units = word_tokens(doc.text)
        unit_kind = "word"
    if len(units) < MIN_SERIES_LEN:
        raise NotFittable(
            f"mandelbrot: {len(units)} {unit_kind} units, need {MIN_SERIES_LEN}"
        )
    vectors = provider.unit_vectors(doc, units)
    values = vectors.mean(axis=1)
    return ScalarSeries(values=values, source=f"{provider.provider_id}/mean/{unit_kind}")


def profile(series: ScalarSeries) -> np.ndarray:
    """Cumulative sum of mean-removed values; the last element is ~0."""
    v = series.values
    if v.size < 2:
        raise ValueError("profile requires at least 2 values")
    return np.cumsum(v - v.mean())


def default_scales(n: int) -> np.ndarray:
    """12 log-spaced integer window sizes in [16, n // 4]."""
    if n < MIN_SERIES_LEN:
        raise NotFittable(f"mandelbrot: series length {n} < {MIN_SERIES_LEN}")
    return np.unique(np.round(np.geomspace(MIN_SCALE, n // 4, N_SCALES)).astype(int))


def fluctuation(prof, scales, q_grid, m: int = 1) -> FluctuationMatrix:
    """Compute F_q(s) over the scale and q grids.

    For each scale s the profile is split into floor(n/s) windows from the
    start and the same number from the end. Each window is detrended by an
    order-m polynomial; the mean squared residual is the window's detrended
    variance F2. Aggregation over windows follows the generalized mean of
    order q/2, with the q = 0 case as exp(mean(0.5 * ln F2)).
    """
    prof = np.asarray(prof, dtype=float)
    scales = np.asarray(scales, dtype=int)
    q_grid = np.asarray(q_grid, dtype=float)
    n = prof.size
    if scales.size == 0 or q_grid.size == 0:
        raise ValueError("scales and q_grid must be non-empty")
    if np.any(scales < MIN_SCALE) or np.any(scales > n // 4):
        raise ValueError(f"scales must satisfy {MIN_SCALE} <= s <= n//4 = {n // 4}")
    if m < 1:
        raise ValueError("detrend order must be >= 1")

    f2 = []
    for s in scales.tolist():
        n_win = n // s
        windows = np.concatenate([prof[: n_win * s], prof[n - n_win * s:]]).reshape(2 * n_win, s)
        # orthonormal basis of the order-m polynomials on a window; each
        # window's residual is what its projection onto them leaves
        basis, _ = np.linalg.qr(np.vander(np.arange(s, dtype=float), m + 1))
        resid = windows - (windows @ basis) @ basis.T
        f2.append(np.einsum("ij,ij->i", resid, resid) / s)
    f2 = np.concatenate(f2)
    floored = bool(np.any(f2 < _F2_FLOOR))
    f2 = np.maximum(f2, _F2_FLOOR)
    # the windows of scale j are the counts[j] entries of f2 from starts[j]
    counts = 2 * (n // scales)
    starts = np.cumsum(counts) - counts
    values = np.empty((q_grid.size, scales.size))
    zero = q_grid == 0.0
    q = q_grid[~zero, None]
    values[~zero] = (np.add.reduceat(f2 ** (q / 2.0), starts, axis=1) / counts) ** (1.0 / q)
    values[zero] = np.exp(0.5 * np.add.reduceat(np.log(f2), starts) / counts)
    return FluctuationMatrix(values=values, q_grid=q_grid, scales=scales, floored=floored)


def spectrum(fluct: FluctuationMatrix) -> MultifractalSpectrum:
    """Generalized Hurst exponents and the Holder spectrum from F_q(s).

    h(q) is the log-log slope of F_q(s) against s; tau(q) = q*h(q) - 1 (the
    fractal dimension of a 1-D series is 1); alpha = h + q*h' with h' by
    central finite differences (one-sided at the ends);
    f(alpha) = q*(alpha - h) + 1. q values with non-finite slopes are dropped.

    Raises:
        NotFittable: fewer than 3 scales, or fewer than 3 surviving q points.
    """
    if fluct.scales.size < 3:
        raise NotFittable(f"mandelbrot: {fluct.scales.size} scales, need 3")
    log_s = np.log(fluct.scales.astype(float))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_f = np.log(fluct.values)
    finite = np.isfinite(log_f).all(axis=1)
    # one centered least-squares slope per row with finite logs
    dx = log_s - log_s.mean()
    rows = log_f[finite]
    h = np.full(fluct.q_grid.size, np.nan)
    h[finite] = (rows - rows.mean(axis=1, keepdims=True)) @ dx / (dx @ dx)
    keep = np.isfinite(h)
    if int(keep.sum()) < 3:
        raise NotFittable("mandelbrot: fewer than 3 q points with finite slopes")
    q = fluct.q_grid[keep]
    h = h[keep]
    tau = q * h - 1.0
    dh = np.gradient(h, q)
    alpha = h + q * dh
    f_alpha = q * (alpha - h) + 1.0
    return MultifractalSpectrum(
        q_grid=q,
        h=h,
        tau=tau,
        alpha=alpha,
        f_alpha=f_alpha,
        delta_alpha=float(alpha.max() - alpha.min()),
        scales=fluct.scales,
        fluctuation=fluct.values[keep],
    )


def mandelbrot_conformity(fluct: FluctuationMatrix, q_ref: float = 2.0) -> LawFit:
    """Power-law fit of F_{q_ref}(s) against s; the exponent is h(q_ref).

    This is the conformity row the fuzzy scorer consumes for the
    multifractal law.
    """
    matches = np.where(np.isclose(fluct.q_grid, q_ref))[0]
    if matches.size == 0:
        raise ValueError(f"q_ref={q_ref} is not on the q grid")
    row = fluct.values[matches[0]]
    series = EmpiricalSeries(fluct.scales.astype(float), row, law="mandelbrot")
    return fit_loglog(series)


def run_mfdfa(
    series: ScalarSeries,
    q_grid=None,
    m: int = 1,
    scales=None,
) -> tuple[FluctuationMatrix, MultifractalSpectrum]:
    """Profile -> fluctuation -> spectrum with the default grids."""
    if q_grid is None:
        q_grid = DEFAULT_Q_GRID
    if scales is None:
        scales = default_scales(len(series))
    prof = profile(series)
    fluct = fluctuation(prof, scales, q_grid, m=m)
    return fluct, spectrum(fluct)
