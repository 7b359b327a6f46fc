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
import threading
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corpus import Document, TokenStream, tokenize
from .fitkit import EmpiricalSeries, LawFit, NotFittable, _only, fit_loglog

__all__ = [
    "MIN_SERIES_LEN",
    "DEFAULT_Q_GRID",
    "Q_REF",
    "ProviderError",
    "EmbeddingProvider",
    "HashedTrigramEmbedder",
    "FileVectorEmbedder",
    "ScalarSeries",
    "FluctuationMatrix",
    "MultifractalSpectrum",
    "build_series",
    "build_series_many",
    "profile",
    "default_scales",
    "fluctuation",
    "fluctuation_many",
    "spectrum",
    "conformity_series",
    "mandelbrot_conformity",
    "run_mfdfa",
]

MIN_SERIES_LEN = 64
MIN_SCALE = 16
N_SCALES = 12
DEFAULT_Q_GRID = np.arange(-10.0, 10.5, 0.5)
# the multifractal law is scored by its conformity row F_2(s), whose exponent
# is h(2), standard DFA
Q_REF = 2.0

# residual-variance floor keeps q < 0 and q = 0 aggregations finite when a
# window is perfectly detrended
_F2_FLOOR = 1e-30

# most grams whose buckets one HashedTrigramEmbedder keeps (1 MB); scoring
# 200 texts of 1,200 words meets about 9,000 distinct grams
_GRAM_CACHE_MAX = 2 ** 16

# most characters of distinct units HashedTrigramEmbedder.unit_means embeds
# in one pass, at about 100 bytes of temporaries each (6.5 MB)
_EMBED_BLOCK_CHARS = 2 ** 16

# most float64 cells the detrending bases kept by _detrend_basis hold (2 MB);
# scoring 500 texts of ~186 words meets 61 window sizes, 5,618 cells
_BASIS_CACHE_MAX = 2 ** 18
_bases: dict[tuple[int, int], np.ndarray] = {}
_bases_lock = threading.Lock()


class ProviderError(Exception):
    """An embedding provider failed or cannot serve the requested unit."""


class EmbeddingProvider:
    """Deterministic mapping from text units to fixed-dimension vectors.

    The pipeline calls :meth:`unit_means` once per batch of documents,
    which by default calls :meth:`unit_vectors` once per document. A provider
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

    def unit_means(self, docs: list[Document], units_per_doc: list[list[str]]) -> list[np.ndarray]:
        """The component mean of each unit's vector, one array per document."""
        return [self.unit_vectors(doc, units).mean(axis=1) for doc, units in zip(docs, units_per_doc)]


class HashedTrigramEmbedder(EmbeddingProvider):
    """Hermetic fallback provider: hashed byte-trigram frequency vectors.

    Each UTF-8 byte trigram of the unit is hashed (blake2b) into one of 64
    buckets; a unit of 1 or 2 bytes is hashed whole. The bucket counts are
    L2-normalized. Fully deterministic across runs and platforms.

    :meth:`unit_vectors` embeds all units of a document in one pass and
    :meth:`embed` is its one-unit case. Only grams not seen before are
    hashed: the buckets of the others come from a cache of at most
    :data:`_GRAM_CACHE_MAX` grams, which starts again from the current
    block's grams (as many as fit) when they would overflow it.
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
            # full: start again from this block's grams, as many as fit
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
        is_first = np.ones(codes.size, bool)
        is_first[1:] = codes[1:] != codes[:-1]
        buckets = self._buckets(codes[is_first])[np.cumsum(is_first) - 1]
        counts = np.bincount(
            (pairs & 0xFFFFFFFF) * self.dimension + buckets, minlength=len(units) * self.dimension
        ).reshape(len(units), self.dimension)
        # integer counts: the sums of squares are exact, so the norms match a per-unit norm
        norms = np.sqrt((counts * counts).sum(axis=1))
        norms[norms == 0] = 1.0
        return counts / norms[:, None]

    def unit_means(self, docs: list[Document], units_per_doc: list[list[str]]) -> list[np.ndarray]:
        """The component means of the units of every document; each distinct
        unit of the batch is embedded once, in consecutive blocks of at most
        :data:`_EMBED_BLOCK_CHARS` characters (a longer unit alone)."""
        index = {unit: i for i, unit in enumerate(dict.fromkeys(chain.from_iterable(units_per_doc)))}
        distinct = list(index)
        ends = np.cumsum(np.fromiter(map(len, distinct), np.int64, len(distinct)))
        means, start = np.empty(len(distinct)), 0
        try:
            while start < len(distinct):
                budget = ends[start] - len(distinct[start]) + _EMBED_BLOCK_CHARS
                stop = max(start + 1, int(np.searchsorted(ends, budget, "right")))
                means[start:stop] = self.unit_vectors(None, distinct[start:stop]).mean(axis=1)
                start = stop
        except ProviderError:
            # raised again by the first document with the failing unit, which
            # names the unit by its index in that document
            for doc, units in zip(docs, units_per_doc):
                self.unit_vectors(doc, units)
            raise
        return [means[np.fromiter(map(index.__getitem__, units), np.intp, len(units))]
                for units in units_per_doc]

    def embed(self, text_unit: str) -> np.ndarray:
        return self.unit_vectors(None, [text_unit])[0]


class FileVectorEmbedder(EmbeddingProvider):
    """Precomputed vectors read from a JSONL file.

    Each record is ``{"id": str, "unit_index": int, "vector": [float, ...]}``
    with a unit index >= 0 and finite JSON numbers as components; no (id,
    unit index) may repeat, all vectors must share one dimension and the
    records for a document must cover unit indices 0..n-1.
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
                    key = (obj["id"], obj["unit_index"])
                    if not isinstance(key[0], str):
                        raise TypeError("id must be a string")
                    vec = np.asarray(obj["vector"], dtype=float)
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    raise ProviderError(f"{path}: line {lineno}: bad embedding record") from exc
                # a JSON integer, not a bool (an int subclass), a float or a string
                if type(key[1]) is not int or key[1] < 0:
                    raise ProviderError(f"{path}: line {lineno}: unit_index must be an integer >= 0")
                if key in self._vectors:
                    raise ProviderError(f"{path}: line {lineno}: repeats {key[0]!r} unit {key[1]}")
                if vec.ndim != 1 or vec.size == 0:
                    raise ProviderError(f"{path}: line {lineno}: vector must be non-empty 1-D")
                if not all(type(v) in (int, float) for v in obj["vector"]):
                    raise ProviderError(f"{path}: line {lineno}: vector components must be JSON numbers")
                if not np.isfinite(vec).all():
                    raise ProviderError(f"{path}: line {lineno}: vector has a non-finite component")
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


def build_series_many(
    docs: list[Document], provider: EmbeddingProvider, tss: list[TokenStream]
) -> list[ScalarSeries | NotFittable]:
    """:func:`build_series` of every document, with its token stream from
    `tss` and one :meth:`~EmbeddingProvider.unit_means` call for the batch; a
    document too short for a series has the NotFittable it raises alone in its
    place. A provider failure raises :class:`ProviderError`."""
    chosen = [("sentence", ts.sentence_texts) if len(ts.sentence_texts) >= MIN_SERIES_LEN
              else ("word", ts.words) for ts in tss]
    long_enough = [len(units) >= MIN_SERIES_LEN for _, units in chosen]
    means = iter(provider.unit_means([doc for doc, ok in zip(docs, long_enough) if ok],
                                     [units for (_, units), ok in zip(chosen, long_enough) if ok]))
    return [ScalarSeries(values=next(means), source=f"{provider.provider_id}/mean/{kind}") if ok
            else NotFittable(f"mandelbrot: {len(units)} {kind} units, need {MIN_SERIES_LEN}")
            for (kind, units), ok in zip(chosen, long_enough)]


def build_series(
    doc: Document, provider: EmbeddingProvider, ts: TokenStream | None = None
) -> ScalarSeries:
    """Embed a document's units and reduce each vector to its component mean.

    Units are sentences; documents with fewer than 64 sentences fall back to
    word tokens so short texts still produce a usable series. A caller that
    has already tokenized `doc` passes ``ts``, which must be ``tokenize(doc)``.

    Raises:
        NotFittable: fewer than 64 units even after the word fallback.
        ProviderError: the provider failed on a unit.
    """
    return _only(build_series_many([doc], provider, [tokenize(doc) if ts is None else ts]))


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


def _detrend_basis(s: int, m: int) -> np.ndarray:
    """Orthonormal basis (s x (m + 1), read-only) of the order-m polynomials
    on a window of s points.

    Each basis is built once per process and kept while the kept bases hold
    at most :data:`_BASIS_CACHE_MAX` cells; when one more would overflow
    them, they start again from it.
    """
    basis = _bases.get((s, m))
    if basis is None:
        basis, _ = np.linalg.qr(np.vander(np.arange(s, dtype=float), m + 1))
        basis.flags.writeable = False
        if basis.size <= _BASIS_CACHE_MAX:
            with _bases_lock:
                if sum(b.size for b in _bases.values()) + basis.size > _BASIS_CACHE_MAX:
                    _bases.clear()
                _bases[(s, m)] = basis
    return basis


def fluctuation_many(profs, scales, q_grid, m: int = 1) -> list[FluctuationMatrix]:
    """F_q(s) of each profile ``profs[i]`` over ``scales[i]`` and the q grid.

    For each scale s a profile is split into floor(n/s) windows from the
    start and the same number from the end. Each window is detrended by an
    order-m polynomial; the mean squared residual is the window's detrended
    variance F2. Aggregation over windows follows the generalized mean of
    order q/2, with the q = 0 case as exp(mean(0.5 * ln F2)). The scales
    must be strictly increasing and lie in [16, n // 4]. The windows of one
    (scale, window count) are detrended in one stacked product with a slice
    per profile shaped as for it alone, so each F_q(s) is bit for bit its own.
    """
    profs = [np.asarray(p, dtype=float) for p in profs]
    scales = [np.asarray(s, dtype=int) for s in scales]
    q_grid = np.asarray(q_grid, dtype=float)
    if len(scales) != len(profs):
        raise ValueError("need one scale grid per profile")
    if q_grid.size == 0 or any(s.size == 0 for s in scales):
        raise ValueError("scales and q_grid must be non-empty")
    if not profs:
        return []
    # one entry per (profile, scale) pair, profile by profile
    n_scales, sizes = np.array([s.size for s in scales]), np.array([p.size for p in profs])
    prof_of = np.repeat(np.arange(len(profs)), n_scales)
    s_all, n_all, head = np.concatenate(scales), sizes[prof_of], (np.cumsum(sizes) - sizes)[prof_of]
    bad = (s_all < MIN_SCALE) | (s_all > n_all // 4)
    if bad.any():
        raise ValueError(f"scales must satisfy {MIN_SCALE} <= s <= n//4 = {n_all[bad.argmax()] // 4}")
    if (np.diff(s_all) <= 0)[np.diff(prof_of) == 0].any():
        raise ValueError("scales must be strictly increasing")
    if m < 1:
        raise ValueError("detrend order must be >= 1")

    # pair p's 2 * n_win F2 values start at at[p], one per window: its windows j < n_win
    # from the profile's start, then the others up to its end; firsts: their first points in `flat`
    n_win = n_all // s_all
    at = np.cumsum(2 * n_win) - 2 * n_win
    pair = np.repeat(np.arange(prof_of.size), 2 * n_win)
    j = np.arange(pair.size) - at[pair]
    firsts = j * s_all[pair] + np.where(j < n_win[pair], head[pair], (head + n_all - 2 * n_win * s_all)[pair])
    # the windows by (scale, window count), each group's profile by profile
    base = int(n_all.max()) + 1
    keys = (s_all * base + n_win)[pair]
    order = np.argsort(keys, kind="stable")
    bounds = np.flatnonzero(np.diff(keys[order], prepend=-1, append=-1)).tolist()
    f2 = np.empty(pair.size)
    flat = np.concatenate(profs)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        s, w = divmod(int(keys[order[lo]]), base)
        windows = flat[firsts[order[lo:hi], None] + np.arange(s)].reshape(-1, 2 * w, s)
        # each window's residual is what its projection onto the order-m polynomials leaves
        basis = _detrend_basis(s, m)
        resid = (windows - (windows @ basis) @ basis.T).reshape(-1, s)
        f2[order[lo:hi]] = np.einsum("ij,ij->i", resid, resid) / s
    zero = q_grid == 0.0
    q = q_grid[~zero, None]
    first = np.cumsum(n_scales) - n_scales
    results = []
    for f, a, grid in zip(np.split(f2, at[first[1:]]), first.tolist(), scales):
        floored = bool((f < _F2_FLOOR).any())
        f = np.maximum(f, _F2_FLOOR)
        # the windows of scale j are the counts[j] entries of f from starts[j]
        counts, starts = 2 * n_win[a:a + grid.size], at[a:a + grid.size] - at[a]
        values = np.empty((q_grid.size, grid.size))
        values[~zero] = (np.add.reduceat(f ** (q / 2.0), starts, axis=1) / counts) ** (1.0 / q)
        if zero.any():
            values[zero] = np.exp(0.5 * np.add.reduceat(np.log(f), starts) / counts)
        results.append(FluctuationMatrix(values=values, q_grid=q_grid, scales=grid, floored=floored))
    return results


def fluctuation(prof, scales, q_grid, m: int = 1) -> FluctuationMatrix:
    """:func:`fluctuation_many` of one profile."""
    return fluctuation_many([prof], [scales], q_grid, m)[0]


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


def conformity_series(fluct: FluctuationMatrix) -> EmpiricalSeries:
    """The conformity row F_{Q_REF}(s) against s, which the fuzzy scorer
    fits for the multifractal law.

    Raises:
        ValueError: Q_REF is not on the q grid.
    """
    # np.isclose(q_grid, Q_REF) written out; NaN and +-inf never match
    matches = np.flatnonzero(abs(fluct.q_grid - Q_REF) <= 1e-8 + 1e-5 * abs(Q_REF))
    if matches.size == 0:
        raise ValueError(f"Q_REF={Q_REF} is not on the q grid")
    return EmpiricalSeries(fluct.scales.astype(float), fluct.values[matches[0]], law="mandelbrot")


def mandelbrot_conformity(fluct: FluctuationMatrix) -> LawFit:
    """Power-law fit of the conformity row; the exponent is h(Q_REF)."""
    return fit_loglog(conformity_series(fluct))


def run_mfdfa(series: ScalarSeries) -> tuple[FluctuationMatrix, MultifractalSpectrum]:
    """Profile -> fluctuation -> spectrum on the default q and scale grids,
    detrending each window linearly."""
    scales = default_scales(len(series))
    fluct = fluctuation(profile(series), scales, DEFAULT_Q_GRID)
    return fluct, spectrum(fluct)
