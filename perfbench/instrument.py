"""Per-layer instrumentation of one zgptda command (layer = module).

``instrument`` wraps the public functions of each layer where the calling
module looks them up, and derives the diagnostics the pipeline computes but
does not report from the objects those functions return: the excluded-law
histogram (``ScoredInstance.excluded_laws``, ``LawReport.fittable``), the
multifractal unit kind (``ScalarSeries.source``), the fluctuation floor
(``FluctuationMatrix.floored``) and grading fallbacks
(``MetricGrade.fallback``, ``ScoredInstance.no_signal``).

Functions called tens of thousands of times per command (``embed``,
``grade_metric``, ``fit_metrics``) are counted, not spanned; their time is
part of the caller's self time.
"""

import os
import statistics

import numpy as np

from workloads import ALL_LAWS as LAWS

# every per-layer metric, in report order, with its unit; a name ending in
# ".s" is the self time of the span named by the rest (``cli`` for cli.self)
PER_LAYER = {
    "corpus.load_jsonl.s": "s",
    "corpus.tokenize.s": "s",
    "corpus.tokenize.calls": "count",
    "corpus.words": "count",
    **{f"laws.{law}.s": "s" for law in LAWS[:-1]},
    "laws.evaluate_all.s": "s",
    **{f"laws.excluded.{law}": "count" for law in LAWS},
    "fitkit.fit_loglog.s": "s",
    "fitkit.fit_benford.s": "s",
    "fitkit.fit_metrics.calls": "count",
    "mfdfa.build_series.s": "s",
    "mfdfa.embed.calls": "count",
    "mfdfa.embed.repeat_share": "frac",
    "mfdfa.unit_kind.word": "count",
    "mfdfa.unit_kind.sentence": "count",
    "mfdfa.profile.s": "s",
    "mfdfa.fluctuation.s": "s",
    "mfdfa.floored": "count",
    "mfdfa.spectrum.s": "s",
    "mfdfa.mandelbrot_conformity.s": "s",
    "zscore.law_vector.s": "s",
    "zscore.aggregate.s": "s",
    "zscore.infer_suitability.s": "s",
    "zscore.grade_fallback": "count",
    "zscore.no_signal": "count",
    "augment.transport_init.s": "s",
    "augment.transport.s": "s",
    "augment.transport.calls": "count",
    "augment.transport.failed": "count",
    "augment.generate_instances.s": "s",
    "augment.score_instance.s": "s",
    "augment.score_instance.ms_p50": "ms",
    "augment.score_instance.ms_p99": "ms",
    "augment.select.s": "s",
    "augment.run_augmentation.s": "s",
    "augment.evaluate_corpus.s": "s",
    "augment.emit_dataset.s": "s",
    "augment.emit_dataset.bytes": "bytes",
    "augment.record_dump.s": "s",
    "augment.record_dump.bytes": "bytes",
    "cli.self.s": "s",
    "cli.output.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

TRANSPORT_SPAN = "augment.transport"


def _wrap_transport(tracer, cls):
    """Span the outermost ``complete`` only: a recording transport's call
    into the transport it wraps is part of the same call."""
    fn = cls.complete

    def complete(self, *args, **kwargs):
        if tracer.top_name() == TRANSPORT_SPAN:
            return fn(self, *args, **kwargs)
        tracer.count("augment.transport.calls")
        index = tracer.open(TRANSPORT_SPAN)
        try:
            return fn(self, *args, **kwargs)
        except BaseException:
            tracer.count("augment.transport.failed")
            raise
        finally:
            tracer.close(index)

    cls.complete = complete


def instrument(tracer, zg):
    """Install the spans and counters on a freshly imported ``zgptda``."""
    cli, aug, laws, mfdfa, fitkit, zscore = (
        zg.cli, zg.augment, zg.laws, zg.mfdfa, zg.fitkit, zg.zscore)
    count = tracer.count

    def scored(item, elapsed_ns):
        tracer.score_ms.append(elapsed_ns / 1e6)
        for law in item.excluded_laws:
            count(f"laws.excluded.{law}")
        if item.no_signal:
            count("zscore.no_signal")

    def evaluated(ev, _elapsed):
        for report in ev.reports:
            if not report.fittable:
                count(f"laws.excluded.{report.law}")

    def tokenized(ts, _elapsed):
        count("corpus.tokenize.calls")
        count("corpus.words", len(ts.words))

    def built(series, _elapsed):
        count(f"mfdfa.unit_kind.{series.source.rsplit('/', 1)[-1]}")

    def embedded(args, _vector):
        count("mfdfa.embed.calls")
        if args[0] in tracer.seen_units:
            count("mfdfa.embed.repeats")
        else:
            tracer.seen_units.add(args[0])

    def fluct(matrix, _elapsed):
        if matrix.floored:
            count("mfdfa.floored")

    def graded(_args, grade):
        if grade.fallback:
            count("zscore.grade_fallback")

    tracer.wrap(cli, "load_jsonl", "corpus.load_jsonl")
    tracer.wrap(cli, "run_augmentation", "augment.run_augmentation")
    tracer.wrap(cli, "emit_dataset", "augment.emit_dataset")
    tracer.wrap(cli, "evaluate_corpus", "augment.evaluate_corpus", evaluated)
    tracer.wrap(aug.ReplayTransport, "__init__", "augment.transport_init")
    tracer.wrap(aug.RecordingTransport, "dump", "augment.record_dump")
    for cls in (aug.MockTransport, aug.ReplayTransport, aug.RecordingTransport):
        _wrap_transport(tracer, cls)
    tracer.wrap(aug, "generate_instances", "augment.generate_instances")
    tracer.wrap(aug, "score_instance", "augment.score_instance", scored)
    tracer.wrap(aug, "rank_instances", "augment.select")
    tracer.wrap(aug, "select_augmented", "augment.select")

    tracer.wrap(aug, "tokenize", "corpus.tokenize", tokenized)
    tracer.wrap(aug, "evaluate_all", "laws.evaluate_all")
    for law in LAWS[:-1]:
        tracer.wrap(laws, f"{law}_series", f"laws.{law}")
    tracer.wrap(laws, "fit_loglog", "fitkit.fit_loglog")
    tracer.wrap(laws, "fit_benford", "fitkit.fit_benford")
    tracer.wrap(mfdfa, "fit_loglog", "fitkit.fit_loglog")
    tracer.wrap_count(fitkit, "fit_metrics", lambda _a, _r: count("fitkit.fit_metrics.calls"))

    tracer.wrap(aug, "build_series", "mfdfa.build_series", built)
    tracer.wrap_count(aug._FALLBACK_EMBEDDER, "embed", embedded)
    tracer.wrap(aug, "profile", "mfdfa.profile")
    tracer.wrap(aug, "fluctuation", "mfdfa.fluctuation", fluct)
    tracer.wrap(aug, "spectrum", "mfdfa.spectrum")
    tracer.wrap(aug, "mandelbrot_conformity", "mfdfa.mandelbrot_conformity")

    tracer.wrap(aug, "law_vector", "zscore.law_vector")
    tracer.wrap(aug, "aggregate", "zscore.aggregate")
    tracer.wrap(aug, "infer_suitability", "zscore.infer_suitability")
    tracer.wrap_count(zscore, "grade_metric", graded)


def _size(path) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def layer_metrics(tracer, output_bytes: int, prep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command (``trace.overhead_s`` is
    filled in by the caller, which has the untraced commands)."""
    self_s = tracer.self_times()
    span_names = {f"{name}.s" for name in self_s}
    unlisted = span_names - set(PER_LAYER) - {"cli.s"}
    if unlisted:
        raise RuntimeError(f"spans without a metric: {sorted(unlisted)}")
    metrics: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            metrics[name] = self_s.get(name[:-2], 0.0)
        elif unit == "count":
            metrics[name] = float(tracer.counts.get(name, 0))
    metrics["cli.self.s"] = self_s.get("cli", 0.0)

    calls = tracer.counts.get("mfdfa.embed.calls", 0)
    metrics["mfdfa.embed.repeat_share"] = (
        tracer.counts.get("mfdfa.embed.repeats", 0) / calls if calls else 0.0)
    score_ms = tracer.score_ms
    metrics["augment.score_instance.ms_p50"] = statistics.median(score_ms) if score_ms else 0.0
    metrics["augment.score_instance.ms_p99"] = (
        float(np.percentile(score_ms, 99)) if score_ms else 0.0)
    files = prep["files"]
    metrics["augment.emit_dataset.bytes"] = float(_size(files["out"]) if "raws" in files else 0)
    recorded = "--record-file" in prep["argv"]
    metrics["augment.record_dump.bytes"] = float(_size(files["completions"]) if recorded else 0)
    metrics["cli.output.bytes"] = float(output_bytes)
    root = tracer.spans[0]
    metrics["trace.wall_s"] = (root[2] - root[1]) / 1e9
    metrics["trace.overhead_s"] = 0.0
    return metrics
