"""Command-line surface: analyze, compare, and augment.

Every command writes a run manifest next to its primary output (command,
full config snapshot, input hashes, tool version, seed, wall-clock), so runs
with deterministic transports and providers are reproducible byte-exactly.

Exit codes: 0 success, 1 input or usage error, 2 transport/provider failure.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone

from . import __version__
from .augment import (
    API_KEY_ENV,
    DEFAULT_PROMPT,
    SCHEMA_VERSION,
    GenerationConfig,
    LiveTransport,
    MockTransport,
    PartialGeneration,
    RecordingTransport,
    ReplayTransport,
    TransportError,
    atomic_write_text,
    atomic_writer,
    augmentation_runs,
    compare_corpora,
    corpus_report_dict,
    emit_dataset,
    evaluate_corpus,
    run_augmentation,  # noqa: F401  not called here: perfbench/instrument.py looks it up on this module
)
from .corpus import LoadError, load_jsonl
from .laws import HILBERG_MAX_BLOCK, TAYLOR_SEGMENT_LEN
from .mfdfa import FileVectorEmbedder, ProviderError
from .zscore import describe_rulebase

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_TRANSPORT = 2

# (flag, argument name) of the files a command writes, and of those it reads
_OUTPUTS = (("--out", "out"), ("--scores", "scores"), ("--record-file", "record_file"),
            ("--csv", "csv"))
_INPUTS = (("input", "input"), ("corpus_a", "corpus_a"), ("corpus_b", "corpus_b"),
           ("--replay-file", "replay_file"), ("--embeddings", "embeddings"))


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False, sort_keys=True)


def _write_json(path, obj):
    atomic_write_text(path, _dumps(obj) + "\n")


def _write_manifest(out_path, command: str, args: argparse.Namespace, inputs, started: float):
    finished = time.time()
    if args.embeddings:  # read by every command that is given one
        inputs = [*inputs, args.embeddings]
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "input_sha256": {str(p): _sha256_file(p) for p in inputs},
        "seed": getattr(args, "seed", None),
        "started_at": datetime.fromtimestamp(started, timezone.utc).isoformat(),
        "finished_at": datetime.fromtimestamp(finished, timezone.utc).isoformat(),
        "duration_s": finished - started,
    }
    _write_json(f"{out_path}.manifest.json", manifest)


def _shared_path(args) -> str | None:
    """Which two flags name one file, where one of them is an output, if any."""
    given = vars(args)
    outputs = [(flag, given[dest]) for flag, dest in _OUTPUTS if given.get(dest)]
    if given.get("out"):
        outputs.append(("the manifest of --out", f"{given['out']}.manifest.json"))
    # each is written through a temporary file beside it, augment's --out and
    # --scores at once
    outputs += [(f"the temporary file of {flag}", f"{path}.tmp") for flag, path in outputs]
    if given.get("series_csv"):
        outputs.append(("--series-csv", given["series_csv"]))
    inputs = [(flag, given[dest]) for flag, dest in _INPUTS if given.get(dest)]
    written: dict[str, str] = {}
    for k, (flag, path) in enumerate(outputs + inputs):
        real = os.path.realpath(path)
        if real in written:
            return f"{written[real]} and {flag} name one file, {path}"
        if k < len(outputs):
            written[real] = flag
    return None


def _embedder(args):
    if getattr(args, "embeddings", None):
        return FileVectorEmbedder(args.embeddings)
    return None


def _series_csv(ev, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for report in ev.reports:
        if report.series is None:
            continue
        fitted = report.fit.fitted_y if report.fit is not None else [""] * len(report.series)
        lines = ["x,y,fitted"]
        for x, y, f in zip(report.series.x, report.series.y, fitted):
            lines.append(f"{float(x)},{float(y)},{float(f) if f != '' else ''}")
        atomic_write_text(os.path.join(out_dir, f"{report.law}.csv"), "\n".join(lines) + "\n")
    if ev.spectrum is not None:
        s = ev.spectrum
        for i, q in enumerate(s.q_grid):
            lines = ["s,F"]
            for scale, value in zip(s.scales, s.fluctuation[i]):
                lines.append(f"{int(scale)},{float(value)}")
            atomic_write_text(
                os.path.join(out_dir, f"fq_q{float(q):+.1f}.csv"), "\n".join(lines) + "\n"
            )


def cmd_analyze(args) -> int:
    started = time.time()
    docs = load_jsonl(args.input)
    if not docs:
        print(f"error: {args.input} contains no documents", file=sys.stderr)
        return EXIT_INPUT
    ev = evaluate_corpus(
        docs,
        name=os.path.splitext(os.path.basename(args.input))[0],
        embedder=_embedder(args),
        segment_len=args.segment_len,
        max_block=args.max_block,
        with_spectrum=True,
        detrend_order=args.detrend_order,
    )
    report = {"schema_version": SCHEMA_VERSION, "corpus": corpus_report_dict(ev)}
    _write_json(args.out, report)
    if args.series_csv:
        _series_csv(ev, args.series_csv)
    _write_manifest(args.out, "analyze", args, [args.input], started)
    unfittable = [r.law for r in ev.reports if not r.fittable]
    if unfittable:
        print(f"warning: unfittable laws: {', '.join(unfittable)}", file=sys.stderr)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    started = time.time()
    docs_a = load_jsonl(args.corpus_a)
    docs_b = load_jsonl(args.corpus_b)
    if not docs_a or not docs_b:
        print("error: both corpora must be non-empty", file=sys.stderr)
        return EXIT_INPUT
    name_a = os.path.splitext(os.path.basename(args.corpus_a))[0]
    name_b = os.path.splitext(os.path.basename(args.corpus_b))[0]
    if name_a == name_b:
        name_a, name_b = f"{name_a}#a", f"{name_b}#b"
    report = compare_corpora(
        docs_a,
        docs_b,
        name_a=name_a,
        name_b=name_b,
        embedder=_embedder(args),
        segment_len=args.segment_len,
        max_block=args.max_block,
    )
    _write_json(args.out, report)
    if args.csv:
        _comparison_csv(report, args.csv)
    _write_manifest(args.out, "compare", args, [args.corpus_a, args.corpus_b], started)
    nulls = [
        f"{name}:{law}"
        for name, corpus in report["corpora"].items()
        for law, cell in corpus["laws"].items()
        if not cell["fittable"]
    ]
    if nulls:
        print(f"warning: null cells: {', '.join(nulls)}", file=sys.stderr)
    print(f"wrote {args.out}")
    return EXIT_OK


def _comparison_csv(report: dict, path):
    names = list(report["corpora"])
    lines = ["law,corpus,exponent,secondary_exponent,r2,kl,js,mape"]
    for law in report["laws"]:
        for name in names:
            cell = report["corpora"][name]["laws"][law]
            if cell["fittable"]:
                m = cell["metrics"]
                second = cell["secondary_exponent"]
                lines.append(
                    f"{law},{name},{cell['exponent']},{second if second is not None else ''},"
                    f"{m['r2']},{m['kl']},{m['js']},{m['mape']}"
                )
            else:
                lines.append(f"{law},{name},,,,,,")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _law_entry(fit) -> dict:
    m = fit.metrics
    return {"r2": m.r2, "kl": m.kl, "js": m.js, "mape": m.mape, "exponent": fit.exponent}


def _run_entry(run, transport_id: str, config_sha256: str) -> dict:
    """One run's member of the ``runs`` list of scores.json."""
    instances = []
    for item in run.instances:
        entry = {
            "id": item.instance.id,
            "rank": item.rank,
            "suitability": item.suitability.s,
            "s_prime_centroid": item.suitability.s_prime_centroid,
            "no_signal": item.no_signal,
            "excluded_laws": item.excluded_laws,
            "laws": {
                r.law: _law_entry(r.fit) if r.fittable else None for r in item.law_reports
            },
        }
        if item.z is not None:
            entry["z"] = {"a_t": item.z.a_t, "b_t": item.z.b_t, "laws_used": item.z.laws_used}
        instances.append(entry)
    return {
        "raw_id": run.raw.id,
        "transport": transport_id,
        "config_sha256": config_sha256,
        "partial": run.partial,
        "selected_ids": [s.instance.id for s in run.selected],
        "instances": instances,
    }


def cmd_augment(args) -> int:
    started = time.time()
    raws = load_jsonl(args.input)
    if not raws:
        print(f"error: {args.input} contains no documents", file=sys.stderr)
        return EXIT_INPUT
    cfg = GenerationConfig(
        n_instances=args.n,
        prompt_template=args.prompt_template,
        top_fraction=args.fraction,
        model=args.model,
        temperature=args.temperature,
        seed=args.seed,
        max_in_flight=args.max_in_flight,
    )
    if args.transport == "mock":
        transport = MockTransport(seed=args.seed)
    elif args.transport == "replay":
        if not args.replay_file:
            print("error: --transport replay requires --replay-file", file=sys.stderr)
            return EXIT_INPUT
        transport = ReplayTransport(args.replay_file)
    else:
        if not args.endpoint:
            print("error: --transport live requires --endpoint", file=sys.stderr)
            return EXIT_INPUT
        if not os.environ.get(API_KEY_ENV):
            print(f"warning: {API_KEY_ENV} is not set", file=sys.stderr)
        transport = LiveTransport(args.endpoint)
    recorder = None
    if args.record_file:
        recorder = RecordingTransport(transport)
        transport = recorder

    # scores.json as _write_json writes it, around runs written one at a
    # time: JSON escapes every newline within a string, so a run's own
    # encoding with each line indented by 4 more is its encoding at depth 2
    head, _, tail = _dumps({"schema_version": SCHEMA_VERSION, "config": {**cfg.__dict__},
                            "rulebase": describe_rulebase(), "runs": [None]}).partition("\n    null")
    config_sha256, embedder = cfg.sha256(), _embedder(args)
    error = None

    def scored_runs(scores):
        """Each run, once its entry is written to ``scores``; with
        --keep-partial a transport failure ends the runs, else it is raised."""
        nonlocal error
        try:
            for k, run in enumerate(augmentation_runs(raws, cfg, transport, embedder=embedder)):
                entry = _dumps(_run_entry(run, transport.transport_id, config_sha256))
                scores.write(("," if k else "") + "\n    " + entry.replace("\n", "\n    "))
                yield run
        except PartialGeneration as exc:
            if not args.keep_partial:
                raise
            error = exc

    # each run is written as soon as it is scored; the dataset is renamed
    # into place before the scores, and a failure removes both temporary
    # files and leaves any earlier outputs as they were
    try:
        with atomic_writer(args.scores) as scores:
            scores.write(head)
            n_records = emit_dataset(raws, scored_runs(scores), args.out)
            scores.write(tail + "\n")
    except PartialGeneration as exc:
        print(f"error: {exc} (rerun with --keep-partial to keep partial results)", file=sys.stderr)
        return EXIT_TRANSPORT

    if recorder is not None:
        recorder.dump(args.record_file)
    replayed = [args.replay_file] if args.transport == "replay" else []
    _write_manifest(args.out, "augment", args, [args.input, *replayed], started)
    print(f"wrote {args.out} ({n_records} records) and {args.scores}")
    if error is not None:
        print(f"error: {error} (partial results kept)", file=sys.stderr)
        return EXIT_TRANSPORT
    return EXIT_OK


def build_parser(config_defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zgptda",
        description="Scaling-law conformity analysis and Z-number guided text augmentation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--config",
        help="JSON file of flag defaults (keys are flag names with dashes as underscores)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: list[argparse.ArgumentParser] = []

    def common_flags(p):
        p.add_argument("--embeddings",
                       help="JSONL file of precomputed unit vectors (default: built-in hashed embedder)")

    def law_flags(p):
        p.add_argument("--segment-len", type=int, default=TAYLOR_SEGMENT_LEN,
                       help="segment length in words for the count-variance law")
        p.add_argument("--max-block", type=int, default=HILBERG_MAX_BLOCK,
                       help="largest block size for the block-entropy law")
        common_flags(p)

    p_analyze = sub.add_parser("analyze", help="evaluate all eight laws on one corpus")
    p_analyze.add_argument("input", help="JSONL dataset")
    p_analyze.add_argument("--out", default="report.json", help="report path")
    p_analyze.add_argument("--series-csv", help="directory for per-law series and F_q(s) CSV dumps")
    p_analyze.add_argument("--detrend-order", type=int, choices=(1, 2, 3), default=1,
                           help="polynomial order for fluctuation detrending (1..3)")
    law_flags(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_compare = sub.add_parser("compare", help="side-by-side law grid for two corpora")
    p_compare.add_argument("corpus_a", help="first JSONL dataset")
    p_compare.add_argument("corpus_b", help="second JSONL dataset")
    p_compare.add_argument("--out", default="comparison.json", help="report path")
    p_compare.add_argument("--csv", help="also write the metric grid as CSV")
    law_flags(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_augment = sub.add_parser("augment", help="generate, score, and select paraphrase instances")
    p_augment.add_argument("input", help="JSONL dataset of raw examples")
    p_augment.add_argument("--out", default="augmented.jsonl", help="output dataset path")
    p_augment.add_argument("--scores", default="scores.json", help="per-instance score report path")
    p_augment.add_argument("--transport", choices=("mock", "replay", "live"), default="mock")
    p_augment.add_argument("--replay-file", help="recorded generations for --transport replay")
    p_augment.add_argument("--record-file", help="record completions to this replay file")
    p_augment.add_argument("--endpoint", help="chat-completion URL for --transport live")
    p_augment.add_argument("--model", default="gpt-4")
    p_augment.add_argument("--temperature", default="1.0")
    p_augment.add_argument("--n", type=int, default=10, help="instances per raw example")
    p_augment.add_argument("--fraction", type=float, default=0.5,
                           help="fraction of instances kept, by descending suitability")
    p_augment.add_argument("--prompt-template", default=DEFAULT_PROMPT)
    p_augment.add_argument("--max-in-flight", type=int, default=4,
                           help="most concurrent live requests (mock and replay run in order)")
    p_augment.add_argument("--seed", type=int, default=0,
                           help="seed of the mock transport, recorded in the config hash")
    p_augment.add_argument("--keep-partial", action="store_true",
                           help="keep partial outputs when the transport fails")
    common_flags(p_augment)
    p_augment.set_defaults(func=cmd_augment)
    subparsers.extend([p_analyze, p_compare, p_augment])

    if config_defaults:
        # a key may name any subcommand's flag, so one file serves every command
        flags = {a.dest for sp in subparsers for a in sp._actions if a.option_strings and a.dest != "help"}
        unknown = sorted(set(config_defaults) - flags)
        if unknown:
            print(f"error: --config: {', '.join(map(repr, unknown))} names no flag"
                  " (keys are flag names with dashes as underscores)", file=sys.stderr)
            raise SystemExit(EXIT_INPUT)
        # defaults must land on the subparsers: argparse resolves subcommand
        # arguments against the subparser's own defaults, without checking
        # them, so each value is converted and checked as its flag's would be
        for sp in subparsers:
            for action in (a for a in sp._actions if a.dest in config_defaults):
                value = config_defaults[action.dest]
                try:
                    # an on/off flag takes JSON true or false, not a truthy string
                    if action.nargs == 0 and not isinstance(value, bool):
                        raise argparse.ArgumentError(action, f"expected true or false, got {value!r}")
                    if action.type is not None:
                        value = sp._get_value(action, str(value))
                    sp._check_value(action, value)
                except argparse.ArgumentError as exc:
                    print(f"error: --config: {exc}", file=sys.stderr)
                    raise SystemExit(EXIT_INPUT) from exc
                sp.set_defaults(**{action.dest: value})
    return parser


def _parse_args(argv) -> argparse.Namespace:
    # a config file provides defaults; explicit flags still win
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    config_defaults = None
    if known.config:
        try:
            with open(known.config, encoding="utf-8") as fh:
                config_defaults = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {known.config}: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_INPUT) from exc
        if not isinstance(config_defaults, dict):
            print(f"error: --config {known.config}: the top level must be a JSON object", file=sys.stderr)
            raise SystemExit(EXIT_INPUT)
    return build_parser(config_defaults).parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code reserved for transport
        # failures; --help and --version exit 0
        return EXIT_INPUT if exc.code else EXIT_OK
    # checked before any work, so no paid completion is lost to a bad path
    for path in filter(None, (vars(args).get(dest) for _, dest in _OUTPUTS)):
        if not os.path.isdir(os.path.dirname(str(path)) or "."):
            print(f"error: the directory of {path} does not exist", file=sys.stderr)
            return EXIT_INPUT
        if os.path.isdir(path):
            print(f"error: {path} is a directory", file=sys.stderr)
            return EXIT_INPUT
    # --series-csv is a directory the command creates with its missing parents
    if vars(args).get("series_csv"):
        nearest = os.path.abspath(args.series_csv)
        while not os.path.lexists(nearest):
            nearest = os.path.dirname(nearest)
        if not os.path.isdir(nearest):
            print(f"error: --series-csv {args.series_csv}: {nearest} is not a directory", file=sys.stderr)
            return EXIT_INPUT
    shared = _shared_path(args)
    if shared:
        print(f"error: {shared}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (LoadError, FileNotFoundError, IsADirectoryError, PermissionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (TransportError, PartialGeneration, ProviderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT


if __name__ == "__main__":
    sys.exit(main())
