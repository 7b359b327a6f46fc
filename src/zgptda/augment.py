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

import hashlib
import json
import logging
import math
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from .corpus import Document, tokenize
from .fitkit import EmpiricalSeries, NotFittable
from .laws import HILBERG_MAX_BLOCK, LAW_NAMES, TAYLOR_SEGMENT_LEN, LawReport, evaluate_all
from .mfdfa import (
    DEFAULT_Q_GRID,
    EmbeddingProvider,
    FluctuationMatrix,
    HashedTrigramEmbedder,
    MultifractalSpectrum,
    build_series,
    default_scales,
    fluctuation,
    mandelbrot_conformity,
    profile,
    spectrum,
)
from .zscore import NoSignal, Suitability, ZNumber, aggregate, infer_suitability, law_vector

__all__ = [
    "DEFAULT_PROMPT",
    "API_KEY_ENV",
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
    "rank_instances",
    "select_augmented",
    "AugmentationRun",
    "run_augmentation",
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

ALL_LAWS = LAW_NAMES + ("mandelbrot",)

# the multifractal law is scored by its conformity row h(2)
Q_REF = 2.0


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


class Transport:
    """Produces one completion per call. ``slot`` is the 0-based instance
    index within a generation batch; deterministic transports use it to vary
    output between otherwise identical requests."""

    transport_id: str = "abstract"

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

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.transport_id = f"mock:{seed}"

    def complete(self, prompt: str, cfg: GenerationConfig, slot: int = 0) -> str:
        h = request_hash(request_payload(prompt, cfg))
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
    byte-stable no matter how calls are scheduled.
    """

    def __init__(self, path):
        self.transport_id = f"replay:{path}"
        self._by_hash: dict[str, list[str]] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    self._by_hash.setdefault(obj["request_hash"], []).append(obj["completion"])
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise TransportError(f"{path}: line {lineno}: bad replay record") from exc

    def complete(self, prompt: str, cfg: GenerationConfig, slot: int = 0) -> str:
        h = request_hash(request_payload(prompt, cfg))
        recorded = self._by_hash.get(h, [])
        if slot >= len(recorded):
            raise TransportError(
                f"replay file has {len(recorded)} completions for request {h[:12]}..., "
                f"slot {slot} requested"
            )
        return recorded[slot]


class LiveTransport(Transport):
    """HTTP chat-completion client with bounded retries and backoff.

    The API key is read from the ``ZGPTDA_API_KEY`` environment variable
    unless passed explicitly.
    """

    RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})

    def __init__(self, endpoint: str, api_key: str | None = None, max_retries: int = 3,
                 backoff: float = 0.5, timeout: float = 60.0):
        self.endpoint = endpoint
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        self.transport_id = f"live:{endpoint}"

    def complete(self, prompt: str, cfg: GenerationConfig, slot: int = 0) -> str:
        import requests

        payload = request_payload(prompt, cfg)
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                resp = requests.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code in self.RETRYABLE_STATUS:
                last_error = TransportError(f"HTTP {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
            try:
                return self._extract(resp.json())
            except ValueError as exc:
                raise TransportError(f"HTTP 200 body is not JSON: {resp.text[:200]!r}") from exc
        raise TransportError(f"transport exhausted after {self.max_retries + 1} attempts") from last_error

    @staticmethod
    def _extract(data) -> str:
        try:
            return data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            pass
        try:
            return data["choices"][0]["text"]
        except (KeyError, IndexError, TypeError):
            pass
        for key in ("completion", "text"):
            if isinstance(data, dict) and isinstance(data.get(key), str):
                return data[key]
        raise TransportError("response carries no text completion")


class RecordingTransport(Transport):
    """Wraps another transport and captures completions for later replay."""

    def __init__(self, inner: Transport):
        self.inner = inner
        self.transport_id = f"recording({inner.transport_id})"
        self._records: dict[tuple[str, int], str] = {}

    def complete(self, prompt: str, cfg: GenerationConfig, slot: int = 0) -> str:
        h = request_hash(request_payload(prompt, cfg))
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
    the result may be shorter than n.

    Raises:
        PartialGeneration: the transport failed on some slot; the exception
            carries the instances obtained so far.
    """
    prompt = cfg.prompt_template.format(n=cfg.n_instances, text=raw.text)

    def one(slot: int) -> str | None:
        text = transport.complete(prompt, cfg, slot=slot)
        if not text.strip():
            text = transport.complete(prompt, cfg, slot=slot)
        if not text.strip():
            log.warning("%s: slot %d returned an empty completion twice; dropped", raw.id, slot + 1)
            return None
        return text

    n = cfg.n_instances
    results: list[str | None] = [None] * n
    failures: list[tuple[int, Exception]] = []
    with ThreadPoolExecutor(max_workers=min(cfg.max_in_flight, n)) as pool:
        futures = [pool.submit(one, k) for k in range(n)]
        for k, fut in enumerate(futures):
            try:
                results[k] = fut.result()
            except TransportError as exc:
                failures.append((k, exc))

    instances = [
        Document(id=f"{raw.id}#gen{k + 1}", text=text, label=raw.label)
        for k, text in enumerate(results)
        if text is not None
    ]
    if failures:
        slot, exc = failures[0]
        raise PartialGeneration(
            f"{raw.id}: transport failed on slot {slot + 1}: {exc}", instances
        ) from exc
    return instances


@dataclass
class ScoredInstance:
    """One generated instance with its full conformity audit trail."""

    instance: Document
    law_reports: list[LawReport]
    z: ZNumber | None
    suitability: Suitability
    rank: int = 0
    excluded_laws: list[str] = field(default_factory=list)
    no_signal: bool = False


_FALLBACK_EMBEDDER = HashedTrigramEmbedder()


def _unfittable_mandelbrot(exc: NotFittable) -> LawReport:
    return LawReport(law="mandelbrot", series=None, fit=None, fittable=False, detail=str(exc))


def _mandelbrot_report(
    doc: Document, embedder: EmbeddingProvider, q_grid, m: int
) -> tuple[LawReport, FluctuationMatrix | None]:
    """The multifractal law's conformity fit on F_{Q_REF}(s), plus F_q(s)
    over ``q_grid`` (which must hold Q_REF); the matrix is None when the
    text is too short to compute it."""
    fluct = None
    try:
        series = build_series(doc, embedder)
        fluct = fluctuation(profile(series), default_scales(len(series)), q_grid, m=m)
        fit = mandelbrot_conformity(fluct, Q_REF)
    except NotFittable as exc:
        return _unfittable_mandelbrot(exc), fluct
    row = fluct.values[np.isclose(fluct.q_grid, Q_REF)][0]
    emp = EmpiricalSeries(fluct.scales.astype(float), row, law="mandelbrot")
    return LawReport(law="mandelbrot", series=emp, fit=fit, fittable=True), fluct


def score_instance(instance: Document, *, embedder: EmbeddingProvider | None = None) -> ScoredInstance:
    """Fit all eight laws on one instance and attach its suitability.

    Unfittable laws are excluded from the aggregation (the Z-number mean
    renormalizes over the rest) and listed in ``excluded_laws``. An instance
    with zero fittable laws is flagged ``no_signal`` and scored 0.
    """
    ts = tokenize(instance)
    reports = evaluate_all(ts)
    mandelbrot, _ = _mandelbrot_report(instance, embedder or _FALLBACK_EMBEDDER, (Q_REF,), m=1)
    reports.append(mandelbrot)
    vectors = [law_vector(r.fit.metrics) for r in reports if r.fittable]
    excluded = [r.law for r in reports if not r.fittable]
    try:
        z = aggregate(vectors)
        suit = infer_suitability(z)
        no_signal = False
    except NoSignal:
        z = None
        suit = Suitability(s=0.0, s_prime_centroid=1.0)
        no_signal = True
    return ScoredInstance(
        instance=instance,
        law_reports=reports,
        z=z,
        suitability=suit,
        excluded_laws=excluded,
        no_signal=no_signal,
    )


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
    """One raw example, its scored instances, and the selected subset."""

    raw: Document
    instances: list[ScoredInstance]
    selected: list[ScoredInstance]
    provenance: dict


def run_augmentation(
    raws: list[Document],
    cfg: GenerationConfig,
    transport: Transport,
    *,
    embedder: EmbeddingProvider | None = None,
) -> tuple[list[AugmentationRun], PartialGeneration | None]:
    """Generate, score, rank, and select for every raw example.

    On transport exhaustion the partial instances of the failing example are
    still scored and included; the run list produced so far is returned
    together with the error so callers can preserve partial results.
    """
    runs: list[AugmentationRun] = []
    for raw in raws:
        error: PartialGeneration | None = None
        try:
            docs = generate_instances(raw, cfg, transport)
        except PartialGeneration as exc:
            docs = exc.instances
            error = exc
        scored = rank_instances([
            score_instance(d, embedder=embedder) for d in docs
        ])
        selected = select_augmented(scored, cfg.top_fraction) if scored else []
        runs.append(AugmentationRun(
            raw=raw,
            instances=scored,
            selected=selected,
            provenance={
                "transport": transport.transport_id,
                "config_sha256": cfg.sha256(),
                "generated_at": datetime.now(timezone.utc).isoformat(),
                "partial": error is not None,
            },
        ))
        if error is not None:
            return runs, error
    return runs, None


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file and a rename, so a
    failure leaves no partial file behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_dataset(raws: list[Document], runs: list[AugmentationRun], path) -> int:
    """Write the concatenated training set: every raw example followed by
    every selected instance.

    Raw records carry ``origin: "raw"``; augmented records carry
    ``origin: "aug"`` plus their source id and suitability. The file is
    written atomically (write-then-rename), so failures leave no partial
    output behind.

    Returns the number of records written.
    """
    raw_ids = {d.id for d in raws}
    for run in runs:
        if run.raw.id not in raw_ids:
            raise ValueError(f"run for {run.raw.id!r} has no matching raw example")
    records = []
    for doc in raws:
        records.append({"id": doc.id, "text": doc.text, "label": doc.label, "origin": "raw"})
    for run in runs:
        for item in run.selected:
            records.append({
                "id": item.instance.id,
                "text": item.instance.text,
                "label": item.instance.label,
                "origin": "aug",
                "source_id": run.raw.id,
                "suitability": item.suitability.s,
            })
    ids = [r["id"] for r in records]
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate output ids: {dupes[:5]}")
    atomic_write_text(path, "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in records))
    return len(records)


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
    reports = evaluate_all(ts, segment_len=segment_len, max_block=max_block)
    q_grid = DEFAULT_Q_GRID if with_spectrum else (Q_REF,)
    mandelbrot, fluct = _mandelbrot_report(
        merged, embedder or _FALLBACK_EMBEDDER, q_grid, m=detrend_order
    )
    spec = None
    if with_spectrum and fluct is not None:
        try:
            spec = spectrum(fluct)
        except NotFittable as exc:
            mandelbrot = _unfittable_mandelbrot(exc)
    reports.append(mandelbrot)
    return CorpusEvaluation(
        name=name,
        n_documents=len(docs),
        word_count=len(ts.words),
        sentence_count=len(ts.sentences),
        char_count=len(ts.chars),
        reports=reports,
        spectrum=spec,
    )


def _report_cell(report: LawReport) -> dict:
    fit = report.fit
    if fit is None:
        return {"fittable": report.fittable, "detail": report.detail}
    return {
        "fittable": report.fittable,
        "exponent": fit.exponent,
        "secondary_exponent": fit.secondary_exponent,
        "prefactor": fit.prefactor,
        "metrics": asdict(fit.metrics),
        "verdict": asdict(fit.verdict),
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
        "schema_version": 1,
        "laws": list(ALL_LAWS),
        "corpora": {name_a: corpus_report_dict(ev_a), name_b: corpus_report_dict(ev_b)},
    }
