"""Paraphrase generation, scaling-law scoring, and dataset emission.

The pipeline generates ``n`` paraphrase instances per raw example through a
chat-completion transport, fits all eight laws on each instance, scores each
instance's conformity through the fuzzy Z-number machinery, keeps the top
fraction by suitability, and emits the concatenation of the raw examples and
the selected instances as a new training set.

Transports are pluggable: a live HTTP client, an offline replay reader, and
a fully deterministic mock. Every pipeline test runs against the mock or
recorded generations; live completions are nondeterministic and priced.
"""

import contextlib
import functools
import hashlib
import io
import json
import logging
import math
import os
import random
import time
import urllib.parse
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .corpus import Document, tokenize
from .fitkit import NotFittable
# evaluate_all, build_series, fluctuation, mandelbrot_conformity, law_vector,
# aggregate and infer_suitability are not called here: perfbench/instrument.py
# looks them up on this module
from .laws import (HILBERG_MAX_BLOCK, LAW_NAMES, TAYLOR_SEGMENT_LEN, LawReport,  # noqa: F401
                   build_all_many, evaluate_all, fit_reports)
from .mfdfa import (DEFAULT_Q_GRID, Q_REF, EmbeddingProvider, HashedTrigramEmbedder,  # noqa: F401
                    MultifractalSpectrum, build_series, build_series_many, conformity_series, default_scales,
                    fluctuation, fluctuation_many, mandelbrot_conformity, profile, spectrum)
from .zscore import (Suitability, ZNumber, aggregate, infer_suitability,  # noqa: F401
                     law_vector, score_laws)

__all__ = [
    "DEFAULT_PROMPT",
    "API_KEY_ENV",
    "SCHEMA_VERSION",
    "GenerationConfig",
    "TransportError",
    "PartialGeneration",
    "Transport",
    "MockTransport",
    "ReplayTransport",
    "LiveTransport",
    "RecordingTransport",
    "request_payload",
    "request_hash",
    "generate_instances",
    "ScoredInstance",
    "score_instance",
    "score_instances",
    "rank_instances",
    "select_augmented",
    "AugmentationRun",
    "augmentation_runs",
    "run_augmentation",
    "atomic_writer",
    "atomic_write_text",
    "emit_dataset",
    "CorpusEvaluation",
    "evaluate_corpus",
    "compare_corpora",
]

log = logging.getLogger(__name__)

DEFAULT_PROMPT = (
    "You are a famous expert in the field of engineering. "
    "Based on your understanding, restate the text in {n} sentences.\n\n{text}"
)

API_KEY_ENV = "ZGPTDA_API_KEY"

# of every JSON report and manifest written
SCHEMA_VERSION = 1

ALL_LAWS = LAW_NAMES + ("mandelbrot",)


@dataclass
class GenerationConfig:
    """Knobs of one augmentation run."""

    n_instances: int = 10
    prompt_template: str = DEFAULT_PROMPT
    top_fraction: float = 0.5
    model: str = "gpt-4"
    temperature: str = "1.0"
    seed: int = 0
    max_in_flight: int = 4

    def __post_init__(self):
        if self.n_instances < 1:
            raise ValueError("n_instances must be >= 1")
        if not (0.0 < self.top_fraction <= 1.0):
            raise ValueError("top_fraction must be in (0, 1]")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        # kept a string so the config hash stays stable; parsed on every request
        try:
            temperature = float(self.temperature)
        except (TypeError, ValueError):
            temperature = math.nan
        if not 0.0 <= temperature < math.inf:
            raise ValueError(f"temperature must be a finite number >= 0, got {self.temperature!r}")

    def sha256(self) -> str:
        blob = json.dumps(self.__dict__, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TransportError(Exception):
    """The transport could not produce a completion."""


class PartialGeneration(Exception):
    """Generation aborted mid-way; carries the instances obtained so far."""

    def __init__(self, message: str, instances: list[Document]):
        super().__init__(message)
        self.instances = instances


def request_payload(prompt: str, cfg: GenerationConfig) -> dict:
    """The wire-format chat-completion request for one instance."""
    return {
        "model": cfg.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": float(cfg.temperature),
    }


def request_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=64)
def _hash_of(prompt: str, model: str, temperature: str) -> str:
    """``request_hash(request_payload(prompt, cfg))``, all of cfg the payload holds; memoized per request."""
    return request_hash(request_payload(prompt, GenerationConfig(model=model, temperature=temperature)))


class Transport:
    """Produces one completion per call. ``slot`` is the 0-based instance
    index within a generation batch; deterministic transports use it to vary
    output between otherwise identical requests. ``in_process`` declares that
    ``complete`` computes in Python without waiting on I/O, so threads cannot
    overlap its calls: generation then makes them on the calling thread."""

    transport_id: str = "abstract"
    in_process: bool = False

    def complete(self, prompt: str, cfg: GenerationConfig, slot: int = 0) -> str:
        raise NotImplementedError


def _mock_vocabulary() -> list[str]:
    # fixed pseudo-vocabulary with a spread of word lengths
    onsets = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z"]
    nuclei = ["a", "e", "i", "o", "u", "ar", "en", "or"]
    words = []
    for i, onset in enumerate(onsets):
        for j, nucleus in enumerate(nuclei):
            stem = onset + nucleus
            words.append(stem)
            words.append(stem + nuclei[(i + j) % len(nuclei)] + onsets[(i * j) % len(onsets)])
    return words


_MOCK_VOCAB = _mock_vocabulary()


class MockTransport(Transport):
    """Deterministic offline transport for tests and dry runs.

    The completion is a pure function of (seed, request, slot): pseudo-text
    with a skewed word-frequency profile and variable sentence lengths, so
    every law has something to fit.
    """

    in_process = True

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.transport_id = f"mock:{seed}"

    def complete(self, prompt: str, cfg: GenerationConfig, slot: int = 0) -> str:
        h = _hash_of(prompt, cfg.model, cfg.temperature)
        digest = hashlib.blake2b(
            f"{self.seed}|{h}|{slot}".encode("utf-8"), digest_size=8
        ).digest()
        rng = random.Random(int.from_bytes(digest, "big"))
        n_sentences = 8 + rng.randrange(8)
        sentences = []
        for _ in range(n_sentences):
            n_words = int(round(math.exp(rng.uniform(math.log(4.0), math.log(40.0)))))
            words = []
            for _ in range(n_words):
                idx = int(len(_MOCK_VOCAB) * rng.random() ** 3)
                words.append(_MOCK_VOCAB[min(idx, len(_MOCK_VOCAB) - 1)])
            words[0] = words[0].capitalize()
            terminator = "." if rng.random() < 0.85 else ("!" if rng.random() < 0.5 else "?")
            sentences.append(" ".join(words) + terminator)
        return " ".join(sentences)


class ReplayTransport(Transport):
    """Replays recorded completions from a JSONL file of
    ``{"request_hash": str, "completion": str}`` records.

    The k-th record carrying a given request hash serves slot k, so replay is
    byte-stable no matter how calls are scheduled. The transport id names
    the file by the SHA-256 of its bytes, so it replays the same from any path.
    """

    in_process = True

    def __init__(self, path):
        with open(path, "rb") as fh:
            data = fh.read()
        self.transport_id = f"replay:sha256:{hashlib.sha256(data).hexdigest()}"
        self._by_hash: dict[str, list[str]] = {}
        for lineno, line in enumerate(io.StringIO(data.decode("utf-8"), newline=None), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                h, completion = obj["request_hash"], obj["completion"]
                if not (isinstance(h, str) and isinstance(completion, str)):
                    raise TypeError("request_hash and completion must be strings")
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise TransportError(f"{path}: line {lineno}: bad replay record") from exc
            self._by_hash.setdefault(h, []).append(completion)

    def complete(self, prompt: str, cfg: GenerationConfig, slot: int = 0) -> str:
        h = _hash_of(prompt, cfg.model, cfg.temperature)
        recorded = self._by_hash.get(h, [])
        if slot >= len(recorded):
            raise TransportError(
                f"replay file has {len(recorded)} completions for request {h[:12]}..., "
                f"slot {slot} requested"
            )
        return recorded[slot]


class LiveTransport(Transport):
    """HTTP chat-completion client with bounded retries and backoff.

    The API key is read from the ``ZGPTDA_API_KEY`` environment variable.
    A retryable failure (a retryable status, a connection error or a
    timeout) is retried up to MAX_RETRIES times, after sleeping BACKOFF_S,
    then twice that, and so on; any other failure is raised at once.

    Raises:
        ValueError: the endpoint is not an http or https URL with a host.
    """

    RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
    MAX_RETRIES = 3
    BACKOFF_S = 0.5
    TIMEOUT_S = 60.0

    def __init__(self, endpoint: str):
        url = urllib.parse.urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint {endpoint!r} is not an http(s) URL with a host")
        self.endpoint = endpoint
        self.api_key = os.environ.get(API_KEY_ENV)
        self.transport_id = f"live:{endpoint}"

    def complete(self, prompt: str, cfg: GenerationConfig, slot: int = 0) -> str:
        import requests

        payload = request_payload(prompt, cfg)
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error = None
        for attempt in range(self.MAX_RETRIES + 1):
            if attempt:
                time.sleep(self.BACKOFF_S * 2 ** (attempt - 1))
            try:
                resp = requests.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.TIMEOUT_S
                )
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_error = exc
                continue
            except requests.RequestException as exc:
                raise TransportError(f"request failed: {exc}") from exc
            if resp.status_code in self.RETRYABLE_STATUS:
                last_error = TransportError(f"HTTP {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
            try:
                return self._extract(resp.json())
            except ValueError as exc:
                raise TransportError(f"HTTP 200 body is not JSON: {resp.text[:200]!r}") from exc
        raise TransportError(f"transport exhausted after {self.MAX_RETRIES + 1} attempts") from last_error

    @staticmethod
    def _extract(data) -> str:
        """The completion string of the first known response shape that
        carries one; a null (refusals, tool calls) or other non-string is none."""
        for path in (("choices", 0, "message", "content"), ("choices", 0, "text"),
                     ("completion",), ("text",)):
            value = data
            try:
                for key in path:
                    value = value[key]
            except (KeyError, IndexError, TypeError):
                continue
            if isinstance(value, str):
                return value
        raise TransportError("response carries no text completion")


class RecordingTransport(Transport):
    """Wraps another transport and captures completions for later replay."""

    def __init__(self, inner: Transport):
        self.inner = inner
        self.transport_id = f"recording({inner.transport_id})"
        self.in_process = inner.in_process
        self._records: dict[tuple[str, int], str] = {}

    def complete(self, prompt: str, cfg: GenerationConfig, slot: int = 0) -> str:
        h = _hash_of(prompt, cfg.model, cfg.temperature)
        completion = self.inner.complete(prompt, cfg, slot=slot)
        self._records[(h, slot)] = completion
        return completion

    def dump(self, path) -> int:
        """Write the captured completions, ordered by request then slot."""
        entries = sorted(self._records.items(), key=lambda kv: (kv[0][0], kv[0][1]))
        atomic_write_text(path, "".join(
            json.dumps({"request_hash": h, "completion": completion}, ensure_ascii=False) + "\n"
            for (h, _slot), completion in entries
        ))
        return len(entries)


def generate_instances(raw: Document, cfg: GenerationConfig, transport: Transport) -> list[Document]:
    """Generate ``cfg.n_instances`` paraphrases of one raw example.

    Instance ids are ``{raw.id}#gen{k}`` (k = 1..n) and labels are inherited.
    Empty completions are retried once and then dropped with a warning, so
    the result may be shorter than n. An ``in_process`` transport is called
    slot by slot on the calling thread, any other on ``max_in_flight`` threads.

    Raises:
        PartialGeneration: the transport failed on a slot (the lowest is named);
            the exception carries the instances of the slots that succeeded.
    """
    prompt = cfg.prompt_template.format(n=cfg.n_instances, text=raw.text)

    def one(slot: int) -> str | TransportError | None:
        try:
            text = transport.complete(prompt, cfg, slot=slot)
            if not text.strip():
                text = transport.complete(prompt, cfg, slot=slot)
        except TransportError as exc:
            return exc
        if not text.strip():
            log.warning("%s: slot %d returned an empty completion twice; dropped", raw.id, slot + 1)
            return None
        return text

    n = cfg.n_instances
    workers = 1 if transport.in_process else min(cfg.max_in_flight, n)
    if workers == 1:
        results = [one(k) for k in range(n)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(one, k) for k in range(n)]
            results = [fut.result() for fut in futures]

    instances = [
        Document(id=f"{raw.id}#gen{k + 1}", text=text, label=raw.label)
        for k, text in enumerate(results)
        if isinstance(text, str)
    ]
    failures = [(k, exc) for k, exc in enumerate(results) if isinstance(exc, TransportError)]
    if failures:
        slot, exc = failures[0]
        raise PartialGeneration(
            f"{raw.id}: transport failed on slot {slot + 1}: {exc}", instances
        ) from exc
    return instances


@dataclass
class ScoredInstance:
    """One generated instance with its full conformity audit trail, from
    which the laws excluded from its aggregation and ``no_signal`` derive."""

    instance: Document
    law_reports: list[LawReport]
    z: ZNumber | None
    suitability: Suitability
    rank: int = 0

    @property
    def excluded_laws(self) -> list[str]:
        return [r.law for r in self.law_reports if not r.fittable]

    @property
    def no_signal(self) -> bool:
        return self.z is None


_FALLBACK_EMBEDDER = HashedTrigramEmbedder()

# most characters of text run_augmentation scores in one batch (about 84 mock
# paraphrases); peak memory grows with it, mostly the builders' and fits' temporaries
_SCORE_BATCH_CHARS = 2 ** 16


def _fit_laws(docs, tss, embedder, q_grid, m, segment_len=TAYLOR_SEGMENT_LEN, max_block=HILBERG_MAX_BLOCK):
    """Each document's eight law reports, fitted, and its F_q(s) over
    ``q_grid`` (which must hold Q_REF) with detrending order ``m``, or None
    when the text is too short for it; ``tss`` are the documents' token
    streams. All documents' token-level laws are built, their units embedded,
    their F_q(s) computed and every report fitted at once."""
    law_reports = build_all_many(tss, segment_len=segment_len, max_block=max_block)
    series = build_series_many(docs, embedder or _FALLBACK_EMBEDDER, tss)
    fitted = [s for s in series if not isinstance(s, NotFittable)]
    grids = {n: default_scales(n) for n in {len(s) for s in fitted}}
    computed = iter(fluctuation_many(list(map(profile, fitted)), [grids[len(s)] for s in fitted], q_grid, m))
    flucts = [None if isinstance(s, NotFittable) else next(computed) for s in series]
    for reports, s, fluct in zip(law_reports, series, flucts):
        reports.append(LawReport(law="mandelbrot", series=None, detail=str(s)) if fluct is None
                       else LawReport(law="mandelbrot", series=conformity_series(fluct)))
    fit_reports([r for reports in law_reports for r in reports])
    return law_reports, flucts


def score_instances(
    docs: list[Document], *, embedder: EmbeddingProvider | None = None
) -> list[ScoredInstance]:
    """Fit all eight laws on each document and attach its suitability.

    The documents are scored as one batch: the token-level laws but taylor
    are built, the units embedded, F_q(s) computed, the log-log and
    first-digit laws fitted, and all fitted laws graded and inferred, each for
    all documents at once; tokenizing runs per document. Unfittable laws are
    excluded from their instance's aggregation (the Z-number mean
    renormalizes over the rest) and listed in ``excluded_laws``. An instance
    with zero fittable laws is flagged ``no_signal`` and scored 0.
    """
    law_reports, _ = _fit_laws(docs, [tokenize(doc) for doc in docs], embedder, (Q_REF,), 1)
    metrics = [[r.fit.metrics for r in reports if r.fittable] for reports in law_reports]
    zs, suits = score_laws(np.array([(m.r2, m.kl, m.js, m.mape) for ms in metrics for m in ms]),
                           [len(ms) for ms in metrics])
    return [
        ScoredInstance(instance=doc, law_reports=reports, z=z, suitability=suit)
        for doc, reports, z, suit in zip(docs, law_reports, zs, suits)
    ]


def score_instance(instance: Document, *, embedder: EmbeddingProvider | None = None) -> ScoredInstance:
    """:func:`score_instances` of one document."""
    return score_instances([instance], embedder=embedder)[0]


def _order(scored: ScoredInstance):
    return (-scored.suitability.s, scored.instance.id)


def rank_instances(scored: list[ScoredInstance]) -> list[ScoredInstance]:
    """Sort by descending suitability (ties broken by id) and assign ranks."""
    ranked = sorted(scored, key=_order)
    for i, item in enumerate(ranked, start=1):
        item.rank = i
    return ranked


def select_augmented(instances: list[ScoredInstance], top_fraction: float) -> list[ScoredInstance]:
    """The top ceil(top_fraction * n) instances by suitability."""
    if not instances:
        raise ValueError("no instances to select from")
    if not (0.0 < top_fraction <= 1.0):
        raise ValueError("top_fraction must be in (0, 1]")
    k = math.ceil(top_fraction * len(instances))
    return sorted(instances, key=_order)[:k]


@dataclass
class AugmentationRun:
    """One raw example, its scored instances and selected subset, and whether generation failed."""

    raw: Document
    instances: list[ScoredInstance]
    selected: list[ScoredInstance]
    partial: bool


def augmentation_runs(
    raws: list[Document],
    cfg: GenerationConfig,
    transport: Transport,
    *,
    embedder: EmbeddingProvider | None = None,
) -> Iterator[AugmentationRun]:
    """Generate, score, rank, and select for every raw example, yielding each
    example's run as soon as all its instances are scored.

    Instances are scored in batches of consecutive instances, which may span
    raw examples, of at most :data:`_SCORE_BATCH_CHARS` characters (or one).
    On transport exhaustion the failing example's partial instances are still
    scored and its run, marked partial, is yielded; then the
    :class:`PartialGeneration` is raised.
    """
    # (raw, instance count) of the runs not yet yielded, and the scored
    # instances of their first ones
    pending, scored, batch, size = [], [], [], 0
    error: PartialGeneration | None = None
    for k, raw in enumerate(raws, start=1):
        try:
            docs = generate_instances(raw, cfg, transport)
        except PartialGeneration as exc:
            docs, error = exc.instances, exc
        pending.append((raw, len(docs)))
        for doc in docs:
            if batch and size + len(doc.text) > _SCORE_BATCH_CHARS:
                scored += score_instances(batch, embedder=embedder)
                batch, size = [], 0
            batch.append(doc)
            size += len(doc.text)
        if batch and (error is not None or k == len(raws)):
            scored += score_instances(batch, embedder=embedder)
            batch = []
        while pending and pending[0][1] <= len(scored):
            own_raw, n = pending.pop(0)
            own = rank_instances(scored[:n])
            del scored[:n]
            yield AugmentationRun(raw=own_raw, instances=own, selected=select_augmented(own, cfg.top_fraction)
                                  if own else [], partial=error is not None and not pending)
        if error is not None:
            raise error


def run_augmentation(
    raws: list[Document],
    cfg: GenerationConfig,
    transport: Transport,
    *,
    embedder: EmbeddingProvider | None = None,
) -> tuple[list[AugmentationRun], PartialGeneration | None]:
    """:func:`augmentation_runs`, collected: the runs, and the transport
    failure that ended them or None."""
    runs = []
    try:
        for run in augmentation_runs(raws, cfg, transport, embedder=embedder):
            runs.append(run)
    except PartialGeneration as exc:
        return runs, exc
    return runs, None


@contextlib.contextmanager
def atomic_writer(path):
    """A text file to write ``path`` through: it is ``path`` + ``.tmp``,
    renamed to ``path`` when the block ends and removed if it raises, so a
    failure leaves no partial file behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through :func:`atomic_writer`."""
    with atomic_writer(path) as fh:
        fh.write(text)


def emit_dataset(raws: list[Document], runs: Iterable[AugmentationRun], path) -> int:
    """Write the concatenated training set: every raw example followed by
    every selected instance.

    Raw records carry ``origin: "raw"``; augmented records carry
    ``origin: "aug"`` plus their source id and suitability. Each run's
    records are written as the run arrives, so ``runs`` may be
    :func:`augmentation_runs` itself. The file is written through
    :func:`atomic_writer`, so failures leave no partial output behind.

    Returns the number of records written.

    Raises:
        ValueError: two records share an id, or a run's raw example is not
            among ``raws``.
    """
    raw_ids = {d.id for d in raws}
    ids: set[str] = set()

    def line(rec: dict) -> str:
        if rec["id"] in ids:
            raise ValueError(f"duplicate output id {rec['id']!r}")
        ids.add(rec["id"])
        return json.dumps(rec, ensure_ascii=False) + "\n"

    with atomic_writer(path) as fh:
        fh.writelines(line({"id": doc.id, "text": doc.text, "label": doc.label, "origin": "raw"})
                      for doc in raws)
        for run in runs:
            if run.raw.id not in raw_ids:
                raise ValueError(f"run for {run.raw.id!r} has no matching raw example")
            fh.writelines(line({
                "id": item.instance.id,
                "text": item.instance.text,
                "label": item.instance.label,
                "origin": "aug",
                "source_id": run.raw.id,
                "suitability": item.suitability.s,
            }) for item in run.selected)
    return len(ids)


@dataclass
class CorpusEvaluation:
    """All-law evaluation of one corpus, treated as a single merged text."""

    name: str
    n_documents: int
    word_count: int
    sentence_count: int
    char_count: int
    reports: list[LawReport]
    spectrum: MultifractalSpectrum | None = None


def evaluate_corpus(
    docs: list[Document],
    *,
    name: str = "corpus",
    embedder: EmbeddingProvider | None = None,
    segment_len: int = TAYLOR_SEGMENT_LEN,
    max_block: int = HILBERG_MAX_BLOCK,
    with_spectrum: bool = False,
    detrend_order: int = 1,
) -> CorpusEvaluation:
    """Concatenate a corpus and evaluate all eight laws on the whole.

    ``with_spectrum`` additionally runs the full multifractal analysis over
    the default q grid (the conformity fit alone only needs q = Q_REF); when
    the spectrum cannot be computed the multifractal law is unfittable.
    """
    # checked before any work, with the messages of the steps that need them
    if segment_len < 1:
        raise ValueError("segment_len must be >= 1")
    if max_block < 1:
        raise ValueError("max_block must be >= 1")
    if detrend_order < 1:
        raise ValueError("detrend order must be >= 1")
    if not docs:
        raise ValueError("corpus is empty")
    merged = Document(id=name, text="\n".join(d.text for d in docs))
    ts = tokenize(merged)
    q_grid = DEFAULT_Q_GRID if with_spectrum else (Q_REF,)
    (reports,), (fluct,) = _fit_laws([merged], [ts], embedder, q_grid, detrend_order, segment_len, max_block)
    spec = None
    if with_spectrum and fluct is not None:
        try:
            spec = spectrum(fluct)
        except NotFittable as exc:
            reports[-1] = LawReport(law="mandelbrot", series=None, detail=str(exc))
    return CorpusEvaluation(
        name=name,
        n_documents=len(docs),
        word_count=ts.codes.size,
        sentence_count=len(ts.sentences),
        char_count=len(ts.chars),
        reports=reports,
        spectrum=spec,
    )


def _report_cell(report: LawReport) -> dict:
    fit = report.fit
    if fit is None:
        return {"fittable": False, "detail": report.detail}
    m, v = fit.metrics, fit.verdict
    return {
        "fittable": True,
        "exponent": fit.exponent,
        "secondary_exponent": fit.secondary_exponent,
        "prefactor": fit.prefactor,
        "metrics": {"r2": m.r2, "kl": m.kl, "js": m.js, "mape": m.mape},
        "verdict": {"r2_ok": v.r2_ok, "kl_ok": v.kl_ok, "js_ok": v.js_ok, "mape_ok": v.mape_ok},
    }


def corpus_report_dict(ev: CorpusEvaluation) -> dict:
    out = {
        "name": ev.name,
        "n_documents": ev.n_documents,
        "word_count": ev.word_count,
        "sentence_count": ev.sentence_count,
        "char_count": ev.char_count,
        "laws": {r.law: _report_cell(r) for r in ev.reports},
    }
    if ev.spectrum is not None:
        s = ev.spectrum
        out["multifractal"] = {
            "q_grid": s.q_grid.tolist(),
            "h": s.h.tolist(),
            "tau": s.tau.tolist(),
            "alpha": s.alpha.tolist(),
            "f_alpha": s.f_alpha.tolist(),
            "delta_alpha": s.delta_alpha,
            "scales": s.scales.tolist(),
        }
    return out


def compare_corpora(
    docs_a: list[Document],
    docs_b: list[Document],
    *,
    name_a: str = "corpus_a",
    name_b: str = "corpus_b",
    embedder: EmbeddingProvider | None = None,
    segment_len: int = TAYLOR_SEGMENT_LEN,
    max_block: int = HILBERG_MAX_BLOCK,
) -> dict:
    """Side-by-side all-law evaluation of two corpora.

    Returns a JSON-ready grid: 8 laws x 4 metrics per corpus, with fitted
    exponents next to each other. Unfittable laws appear as null cells.
    """
    ev_a = evaluate_corpus(
        docs_a, name=name_a, embedder=embedder, segment_len=segment_len, max_block=max_block
    )
    ev_b = evaluate_corpus(
        docs_b, name=name_b, embedder=embedder, segment_len=segment_len, max_block=max_block
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "laws": list(ALL_LAWS),
        "corpora": {name_a: corpus_report_dict(ev_a), name_b: corpus_report_dict(ev_b)},
    }
