"""Benchmark of the two user-facing zgptda jobs: augmentation and corpus analysis.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload augment-mock --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all

Every command runs in this one process through the public entry point
``zgptda.cli.main(argv)``, on inputs generated from ``--seed``. Before each
command the ``zgptda`` modules are dropped from ``sys.modules`` and imported
again, so each command starts from the module state a fresh ``zgptda`` process
has (the hashed embedder's bucket cache, for one). Commands repeat until
``--seconds`` would be exceeded (at least three times); figures are medians.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced commands and reports per-layer metrics taken from the
traced command with the median wall time; see ``instrument.py``.

Every command's outputs are checked (``workloads.py``): the first in full,
the others must reproduce it byte for byte. One more untimed command runs on
the default seed's inputs cut to a few raws or documents, and its scores,
selection and law fits are compared with the stored reference in
``reference/``. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--workload all`` the workloads run one after another in this process
and metric names get the workload as a prefix; ``peak_rss_mb`` is then the
process's high-water mark so far, not the workload's own.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy  # imported up front so that no set-up sample pays for it

from instrument import PER_LAYER, instrument, layer_metrics
from tracer import Tracer
from workloads import WORKLOADS, sha256_file

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

DEFAULT_SEED = 0
MIN_COMMANDS = 3
# set-up is short and noisy, so it is sampled several times per command
SETUP_REPEATS = 5
# generation threads: the CLI default is 4, but more threads than cores only
# adds contention
MAX_IN_FLIGHT = min(2, os.cpu_count() or 1)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
# printed, but not in END_TO_END: for a given seed each is a fixed amount of
# work divided by wall_s, so it adds no check and a noisier spread
THROUGHPUT = {
    "instances_per_s": "1/s",
    "words_per_s": "1/s",
}


def import_zgptda():
    """Import the zgptda under ``src/`` of this checkout, never another."""
    if not os.path.isfile(os.path.join(SRC, "zgptda", "cli.py")):
        raise SystemExit(f"error: no zgptda sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("zgptda.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported zgptda from {cli.__file__}, not from {SRC}")
    return cli


def drop_zgptda():
    for name in [m for m in sys.modules if m == "zgptda" or m.startswith("zgptda.")]:
        del sys.modules[name]
    # the old module graph holds reference cycles (functions <-> globals)
    gc.collect()


def load_reference(name: str):
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Command:
    """One timed CLI command and what it produced."""

    def __init__(self, setup_s: list[float], wall_s: float, problems: list[str], tracer=None,
                 output_bytes: int = 0):
        self.setup_s = setup_s
        self.wall_s = wall_s
        self.problems = problems
        self.tracer = tracer
        self.output_bytes = output_bytes


def set_up(wl, prep):
    """Fresh import of zgptda plus loading the inputs; returns the seconds
    taken and the imported package."""
    drop_zgptda()
    t0 = time.perf_counter()
    import_zgptda()
    zg = sys.modules["zgptda"]
    wl.load(zg, prep)
    return time.perf_counter() - t0, zg


def run_command(wl, prep, traced: bool, run_id: int) -> Command:
    """Set up (several times), then time ``main(argv)`` once."""
    setup_s = []
    for _ in range(SETUP_REPEATS):
        seconds, zg = set_up(wl, prep)
        setup_s.append(seconds)

    outputs = wl.outputs(prep)
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    tracer = Tracer(run_id) if traced else None
    if tracer is not None:
        instrument(tracer, zg)
    captured = io.StringIO()
    problems: list[str] = []
    t0 = time.perf_counter()
    root = tracer.open("cli") if tracer is not None else None
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = zg.cli.main(prep["argv"])
    except Exception:
        rc = None
        problems.append("uncaught exception:\n" + traceback.format_exc())
    finally:
        if tracer is not None:
            tracer.close(root)
    wall_s = time.perf_counter() - t0
    if rc not in (0, None):
        problems.append(f"exit code {rc}: {captured.getvalue().strip()[-2000:]}")
    output_bytes = sum(os.path.getsize(p) for p in outputs if os.path.exists(p))
    return Command(setup_s, wall_s, problems, tracer, output_bytes)


def fingerprint(wl, prep) -> list[str]:
    return [sha256_file(p) for p in wl.outputs(prep) if not p.endswith(".manifest.json")]


def verify(wl, prep, cmd: Command, first_fingerprint=None, reference=None) -> list[str]:
    """Check one command's outputs in full, or against the first command's
    fingerprint, and against a stored reference when one is given."""
    if cmd.problems:
        return cmd.problems
    try:
        if first_fingerprint is not None:
            if fingerprint(wl, prep) != first_fingerprint:
                return ["outputs differ from the first command of this run"]
            return []
        problems = wl.check(prep)
        if reference is not None:
            problems += wl.compare(wl.summary(prep), reference["summary"])
        return problems
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable outputs: {exc!r}"]


def measure(wl, seed: int, seconds: float, trace: bool) -> dict:
    import zgptda.augment as zg_augment  # for the replay request hashes

    work = os.path.join(WORK, wl.name)
    prep = wl.prepare(zg_augment, seed, os.path.join(work, f"seed{seed}"), MAX_IN_FLIGHT)

    untraced: list[Command] = []
    traced: list[Command] = []
    failures: list[str] = []
    first = None
    started = time.perf_counter()
    run_id = 0
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            cmd = run_command(wl, prep, is_traced, run_id)
            run_id += 1
            problems = verify(wl, prep, cmd, first)
            if problems:
                failures.append("; ".join(problems[:5]))
            elif first is None:
                first = fingerprint(wl, prep)
            (traced if is_traced else untraced).append(cmd)
        # stop before a round that would end after the deadline
        elapsed = time.perf_counter() - started
        if len(untraced) >= MIN_COMMANDS and elapsed * (1 + 1 / len(untraced)) > seconds:
            break
    attempted = len(untraced) + len(traced) + 1

    ref_wl = wl.for_reference()
    ref_prep = ref_wl.prepare(zg_augment, DEFAULT_SEED, os.path.join(work, "reference"),
                              MAX_IN_FLIGHT)
    reference = load_reference(wl.name)
    if reference is None:
        failures.append(f"reference: nothing stored for {wl.name}")
    else:
        problems = verify(ref_wl, ref_prep, run_command(ref_wl, ref_prep, False, run_id),
                          reference=reference)
        if problems:
            failures.append("reference: " + "; ".join(problems[:5]))

    n_instances, n_words = wl.work_units(prep) if "words" in prep else (0, 0)
    wall = statistics.median(c.wall_s for c in untraced)
    result = {
        "workload": wl.name,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "max_in_flight": MAX_IN_FLIGHT,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "commands": {"untraced": len(untraced), "traced": len(traced)},
            "inputs": prep["sizes"],
            "per_command": {"instances": n_instances, "words": n_words},
        },
        "samples": {
            "setup_s": [s for c in untraced + traced for s in c.setup_s],
            "wall_s": [c.wall_s for c in untraced],
            "traced_wall_s": [c.wall_s for c in traced],
        },
    }
    if trace:
        # the traced command with the median wall time, so that its self
        # times add up to exactly the wall time it reports
        ordered = sorted(traced, key=lambda c: c.wall_s)
        chosen = ordered[(len(ordered) - 1) // 2]
        metrics = layer_metrics(chosen.tracer, chosen.output_bytes, prep)
        metrics["trace.overhead_s"] = statistics.median(c.wall_s for c in traced) - wall
        result["metrics"] = {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}
        result["self_sum_s"] = sum(v for name, (v, unit) in result["metrics"].items()
                                   if unit == "s" and not name.startswith("trace."))
        with open(os.path.join(work, f"spans-seed{seed}.jsonl"), "w", encoding="utf-8") as fh:
            for span in chosen.tracer.dump():
                fh.write(json.dumps(span) + "\n")
    else:
        ok = 1.0 - len(failures) / attempted
        values = {
            "setup_s": statistics.median(result["samples"]["setup_s"]),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": ok,
        }
        result["metrics"] = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        rates = {"instances_per_s": n_instances / wall, "words_per_s": n_words / wall}
        result["throughput"] = {name: (rates[name], unit) for name, unit in THROUGHPUT.items()}
    with open(os.path.join(work, f"result-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result: dict, prefix: str = ""):
    for failure in result["failures"]:
        print(f"FAILED {result['workload']}: {failure}", file=sys.stderr)
    print(f"# {result['workload']} env {json.dumps(result['env'], sort_keys=True)}")
    print(f"# {result['workload']} failed_frac {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} commands)")
    if "self_sum_s" in result:
        print(f"# {result['workload']} self times sum to {result['self_sum_s']:.6f} s of "
              f"{result['metrics']['trace.wall_s'][0]:.6f} s traced wall time")
    for name, (value, unit) in result.get("throughput", {}).items():
        print(f"# {prefix}{name} {value:.6g} {unit}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{prefix}{name} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_zgptda()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        report(result, prefix)
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, (value, unit) in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
