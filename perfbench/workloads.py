"""The benchmark workloads: inputs, CLI command lines and output checks.

Each workload writes its seeded inputs into a directory, names the
``zgptda`` command that runs on them, loads them the way the command does
(for the set-up measurement), and checks the command's outputs. Checks
return a list of problems; an empty list means the outputs are correct.

Tolerance for floating-point results compared against a stored reference:
``math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-9)``. Selected ids, record
counts, word counts and the set of fittable laws must match exactly.
"""

import copy
import hashlib
import json
import math
import os
import re

import inputs

REL_TOL = 1e-6
ABS_TOL = 1e-9
ALL_LAWS = ("zipf", "heaps", "taylor", "hilberg", "ebeling", "menzerath", "benford", "mandelbrot")

# independent of zgptda's tokenizer on purpose: counts the words the
# benchmark generated, which the program must report back unchanged
_WORD_RE = re.compile(r"[^\W\d_]+")


def count_words(text: str) -> int:
    return len(_WORD_RE.findall(text))


def close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class AugmentWorkload:
    n_instances = 10
    fraction = 0.5

    def __init__(self, name: str, transport: str, n_raws: int, reference_raws: int,
                 replay_sentences: int = 0, replay_types: int = 0):
        self.name = name
        self.transport = transport
        self.n_raws = n_raws
        self.reference_raws = reference_raws
        self.replay_sentences = replay_sentences
        self.replay_types = replay_types

    def for_reference(self):
        """The same workload cut to its first raws, for the stored-reference
        comparison."""
        ref = copy.copy(self)
        ref.n_raws = self.reference_raws
        return ref

    @property
    def n_selected(self) -> int:
        return math.ceil(self.fraction * self.n_instances)

    def request_key(self, zg_augment):
        """The request hash the CLI looks completions up by, per raw text."""
        cfg = zg_augment.GenerationConfig(n_instances=self.n_instances)

        def key(raw_text: str) -> str:
            prompt = cfg.prompt_template.format(n=self.n_instances, text=raw_text)
            return zg_augment.request_hash(zg_augment.request_payload(prompt, cfg))

        return key

    def prepare(self, zg_augment, seed: int, work: str, max_in_flight: int) -> dict:
        os.makedirs(work, exist_ok=True)
        key = self.request_key(zg_augment)
        raws = inputs.raw_records(seed, self.n_raws)
        raws_path = os.path.join(work, "raws.jsonl")
        files = {
            "raws": raws_path,
            "out": os.path.join(work, "augmented.jsonl"),
            "scores": os.path.join(work, "scores.json"),
        }
        sizes = {"raws": {"records": len(raws), "bytes": inputs.write_jsonl(raws_path, raws)}}
        argv = ["augment", raws_path, "--out", files["out"], "--scores", files["scores"],
                "--n", str(self.n_instances), "--fraction", str(self.fraction),
                "--max-in-flight", str(max_in_flight), "--seed", str(seed)]
        if self.transport == "replay":
            files["completions"] = os.path.join(work, "replay.jsonl")
            records = inputs.replay_records(
                seed, raws, self.n_instances, self.replay_sentences, self.replay_types, key)
            sizes["replay"] = {
                "records": len(records),
                "bytes": inputs.write_jsonl(files["completions"], records),
                "words": sum(count_words(r["completion"]) for r in records),
            }
            argv += ["--transport", "replay", "--replay-file", files["completions"]]
        else:
            # the completion write path: every mock completion is recorded
            files["completions"] = os.path.join(work, "recorded.jsonl")
            argv += ["--transport", "mock", "--record-file", files["completions"]]
        return {"argv": argv, "files": files, "sizes": sizes, "raws": raws, "key": key}

    def outputs(self, prep: dict) -> list[str]:
        files = prep["files"]
        out = [files["out"], files["scores"], files["out"] + ".manifest.json"]
        if self.transport == "mock":
            out.append(files["completions"])
        return out

    def load(self, zg, prep: dict):
        """What the command loads before its first instance: the raws and,
        for replay, the recorded completions."""
        zg.corpus.load_jsonl(prep["files"]["raws"])
        if self.transport == "replay":
            zg.augment.ReplayTransport(prep["files"]["completions"])

    def work_units(self, prep: dict) -> tuple[int, int]:
        """(instances, words) the command processes; valid after a check."""
        return self.n_raws * self.n_instances, prep["words"]

    def check(self, prep: dict) -> list[str]:
        """Full structural check of one command's outputs."""
        files = prep["files"]
        problems = []
        records = read_jsonl(files["out"])
        expected = self.n_raws * (1 + self.n_selected)
        if len(records) != expected:
            problems.append(f"{len(records)} records, expected {expected}")
        with open(files["scores"], encoding="utf-8") as fh:
            scores = json.load(fh)
        runs = scores["runs"]
        if [r["raw_id"] for r in runs] != [r["id"] for r in prep["raws"]]:
            return problems + ["scores.json runs do not follow the raw examples"]

        completions: dict[str, list[str]] = {}
        for rec in read_jsonl(files["completions"]):
            completions.setdefault(rec["request_hash"], []).append(rec["completion"])

        words = 0
        expected_aug = []
        for raw, run in zip(prep["raws"], runs):
            texts = completions.get(prep["key"](raw["text"]), [])
            if len(texts) != self.n_instances or len(run["instances"]) != self.n_instances:
                problems.append(f"{raw['id']}: {len(run['instances'])} instances, "
                                f"{len(texts)} completions, expected {self.n_instances}")
                continue
            words += sum(count_words(t) for t in texts)
            by_id = {inst["id"]: inst for inst in run["instances"]}
            ranked = sorted(run["instances"], key=lambda i: (-i["suitability"], i["id"]))
            top = [i["id"] for i in ranked[: self.n_selected]]
            if run["selected_ids"] != top:
                problems.append(f"{raw['id']}: selected {run['selected_ids']}, top by "
                                f"suitability is {top}")
            for inst_id in run["selected_ids"]:
                slot = int(inst_id.rsplit("#gen", 1)[1]) - 1
                expected_aug.append((inst_id, texts[slot], by_id[inst_id]["suitability"],
                                     raw["id"]))
        prep["words"] = words

        raw_part, aug_part = records[: self.n_raws], records[self.n_raws:]
        if [(r["id"], r["text"], r["origin"]) for r in raw_part] != [
                (r["id"], r["text"], "raw") for r in prep["raws"]]:
            problems.append("raw records differ from the input")
        got_aug = [(r["id"], r["text"], r["suitability"], r["source_id"]) for r in aug_part]
        if got_aug != expected_aug:
            problems.append("augmented records differ from the selected completions")
        return problems

    def summary(self, prep: dict) -> dict:
        """What must not change between commits on the default seed."""
        with open(prep["files"]["scores"], encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
        return {
            run["raw_id"]: {
                "selected": run["selected_ids"],
                "instances": {
                    inst["id"]: {
                        "suitability": inst["suitability"],
                        "fittable": ",".join(sorted(
                            law for law, cell in inst["laws"].items() if cell)),
                    }
                    for inst in run["instances"]
                },
            }
            for run in runs
        }

    @staticmethod
    def compare(summary: dict, reference: dict) -> list[str]:
        if summary.keys() != reference.keys():
            return ["raw ids differ from the reference"]
        problems = []
        for raw_id, ref in reference.items():
            got = summary[raw_id]
            if got["selected"] != ref["selected"]:
                problems.append(f"{raw_id}: selected {got['selected']}, reference {ref['selected']}")
            if got["instances"].keys() != ref["instances"].keys():
                problems.append(f"{raw_id}: instance ids differ from the reference")
                continue
            for inst_id, r in ref["instances"].items():
                g = got["instances"][inst_id]
                if g["fittable"] != r["fittable"]:
                    problems.append(f"{inst_id}: fittable {g['fittable']}, reference {r['fittable']}")
                if not close(g["suitability"], r["suitability"]):
                    problems.append(f"{inst_id}: suitability {g['suitability']!r}, "
                                    f"reference {r['suitability']!r}")
        return problems


class AnalyzeWorkload:
    def __init__(self, name: str, n_docs: int, reference_docs: int, words_per_doc: int,
                 n_types: int):
        self.name = name
        self.n_docs = n_docs
        self.reference_docs = reference_docs
        self.words_per_doc = words_per_doc
        self.n_types = n_types

    def for_reference(self):
        """The same corpus cut to its first documents, for the
        stored-reference comparison."""
        ref = copy.copy(self)
        ref.n_docs = self.reference_docs
        return ref

    def prepare(self, zg_augment, seed: int, work: str, max_in_flight: int) -> dict:
        os.makedirs(work, exist_ok=True)
        docs = inputs.book_records(seed, self.n_docs, self.words_per_doc, self.n_types)
        path = os.path.join(work, "book.jsonl")
        files = {"book": path, "out": os.path.join(work, "report.json")}
        sizes = {"book": {"records": len(docs), "bytes": inputs.write_jsonl(path, docs),
                          "words": sum(count_words(d["text"]) for d in docs)}}
        return {"argv": ["analyze", path, "--out", files["out"]], "files": files,
                "sizes": sizes, "words": sizes["book"]["words"]}

    def outputs(self, prep: dict) -> list[str]:
        return [prep["files"]["out"], prep["files"]["out"] + ".manifest.json"]

    def load(self, zg, prep: dict):
        zg.corpus.load_jsonl(prep["files"]["book"])

    def work_units(self, prep: dict) -> tuple[int, int]:
        return self.n_docs, prep["words"]

    def check(self, prep: dict) -> list[str]:
        with open(prep["files"]["out"], encoding="utf-8") as fh:
            corpus = json.load(fh)["corpus"]
        problems = []
        if corpus["word_count"] != prep["words"]:
            problems.append(f"word_count {corpus['word_count']}, generated {prep['words']}")
        if corpus["n_documents"] != self.n_docs:
            problems.append(f"n_documents {corpus['n_documents']}, expected {self.n_docs}")
        fittable = sorted(law for law, cell in corpus["laws"].items() if cell["fittable"])
        if fittable != sorted(ALL_LAWS):
            problems.append(f"fittable laws {fittable}, expected all of {list(ALL_LAWS)}")
        if "multifractal" not in corpus or len(corpus["multifractal"]["h"]) < 3:
            problems.append("no multifractal spectrum")
        return problems

    def summary(self, prep: dict) -> dict:
        with open(prep["files"]["out"], encoding="utf-8") as fh:
            corpus = json.load(fh)["corpus"]
        laws = {}
        for law, cell in corpus["laws"].items():
            if not cell["fittable"]:
                laws[law] = None
                continue
            laws[law] = {"exponent": cell["exponent"],
                         "secondary_exponent": cell["secondary_exponent"],
                         **cell["metrics"]}
        return {"word_count": corpus["word_count"], "laws": laws,
                "delta_alpha": corpus["multifractal"]["delta_alpha"]}

    @staticmethod
    def compare(summary: dict, reference: dict) -> list[str]:
        problems = []
        if summary["word_count"] != reference["word_count"]:
            problems.append(f"word_count {summary['word_count']}, reference {reference['word_count']}")
        fittable = sorted(law for law, v in summary["laws"].items() if v)
        ref_fittable = sorted(law for law, v in reference["laws"].items() if v)
        if fittable != ref_fittable:
            return problems + [f"fittable laws {fittable}, reference {ref_fittable}"]
        for law in ref_fittable:
            for key, ref_value in reference["laws"][law].items():
                value = summary["laws"][law][key]
                if not close(value, ref_value):
                    problems.append(f"{law}.{key} {value!r}, reference {ref_value!r}")
        if not close(summary["delta_alpha"], reference["delta_alpha"]):
            problems.append(f"delta_alpha {summary['delta_alpha']!r}, "
                            f"reference {reference['delta_alpha']!r}")
        return problems


# Why each workload exists is recorded in BENCHMARK.json. augment-replay-long
# (long replayed paraphrases: every law fits, sentence units never repeat) is
# left out of BENCHMARK.json so that the other two get runs long enough to
# be steady on a noisy host; run it by name to measure the replay read path.
WORKLOADS = {
    wl.name: wl
    for wl in (
        AugmentWorkload("augment-mock", "mock", n_raws=50, reference_raws=10),
        AugmentWorkload("augment-replay-long", "replay", n_raws=20, reference_raws=4,
                        replay_sentences=80, replay_types=4000),
        AnalyzeWorkload("analyze-book", n_docs=8, reference_docs=2, words_per_doc=15000,
                        n_types=5000),
    )
}
