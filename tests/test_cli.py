import hashlib
import json
import os

import pytest

from zgptda import augment
from zgptda.augment import (SCHEMA_VERSION, GenerationConfig, MockTransport, ReplayTransport, request_hash,
                            request_payload, run_augmentation)
from zgptda.cli import _parse_args, _run_entry, main
from zgptda.corpus import Document, load_jsonl, tokenize
from zgptda.zscore import describe_rulebase
from tests.conftest import make_raw_dataset


@pytest.fixture
def dataset(tmp_path):
    return make_raw_dataset(tmp_path / "raw.jsonl", n=4, seed=3)


def run(argv):
    return main([str(a) for a in argv])


class TestAnalyze:
    def test_happy_path_writes_report_and_manifest(self, dataset, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["analyze", dataset, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert set(report["corpus"]["laws"]) == {
            "zipf", "heaps", "taylor", "hilberg", "ebeling", "menzerath", "benford", "mandelbrot"
        }
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["seed"] is None
        assert str(dataset) in manifest["input_sha256"]

    def test_manifest_hashes_the_embeddings_file(self, dataset, tmp_path):
        merged = "\n".join(d.text for d in load_jsonl(dataset))
        vectors = tmp_path / "vectors.jsonl"
        vectors.write_text("".join(  # one vector per word: at least one per unit
            json.dumps({"id": "raw", "unit_index": k, "vector": [k % 7 / 7, 1.0]}) + "\n"
            for k in range(len(tokenize(Document(id="raw", text=merged)).words))))
        out = tmp_path / "report.json"
        assert run(["analyze", dataset, "--out", out, "--embeddings", vectors]) == 0
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["input_sha256"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (dataset, vectors)}

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert run(["analyze", tmp_path / "nope.jsonl", "--out", tmp_path / "r.json"]) == 1
        assert "nope.jsonl" in capsys.readouterr().err
        (tmp_path / "dir.jsonl").mkdir()
        assert run(["analyze", tmp_path / "dir.jsonl", "--out", tmp_path / "r.json"]) == 1
        assert "dir.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, target", [
        ("analyze", "--out", "nodir/out"), ("compare", "--csv", "nodir/out"), ("analyze", "--out", "somedir"),
    ], ids=["analyze---out", "compare---csv", "analyze---out-directory"])
    def test_missing_output_directory_rejected_before_analysis(self, dataset, tmp_path, command, flag,
                                                               target, monkeypatch, capsys):
        import zgptda.augment
        import zgptda.cli

        calls = []
        for module in (zgptda.cli, zgptda.augment):  # compare_corpora calls it from augment
            monkeypatch.setattr(module, "evaluate_corpus", lambda *a, **kw: calls.append(a))
        (tmp_path / "somedir").mkdir()  # an output path that is a directory
        missing = tmp_path / target
        inputs = [dataset] * (2 if command == "compare" else 1)
        assert run([command, *inputs, "--out", tmp_path / "r.json", flag, missing]) == 1
        err = capsys.readouterr().err
        assert str(missing) in err and ".tmp" not in err
        assert calls == []

    def test_malformed_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a"}\n', encoding="utf-8")
        assert run(["analyze", bad, "--out", tmp_path / "r.json"]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_report_byte_identical_across_runs(self, dataset, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run(["analyze", dataset, "--out", out1])
        run(["analyze", dataset, "--out", out2])
        assert out1.read_bytes() == out2.read_bytes()

    def test_series_csv_one_file_per_law_and_q(self, dataset, tmp_path):
        out_dir = tmp_path / "csv"
        assert run(["analyze", dataset, "--out", tmp_path / "r.json", "--series-csv", out_dir]) == 0
        files = sorted(os.listdir(out_dir))
        law_files = [f for f in files if not f.startswith("fq_")]
        q_files = [f for f in files if f.startswith("fq_")]
        assert "zipf.csv" in law_files and "benford.csv" in law_files
        assert len(q_files) >= 3  # one per surviving q
        header = (out_dir / "zipf.csv").read_text().splitlines()[0]
        assert header == "x,y,fitted"

    @pytest.mark.parametrize("target, message", [
        ("file.txt", "file.txt is not a directory"),
        ("file.txt/csv", "file.txt is not a directory"),
        ("r.json", "--out and --series-csv name one file"),
        ("r.json.manifest.json", "the manifest of --out and --series-csv name one file"),
    ], ids=["existing-file", "under-a-file", "the-out-file", "the-out-manifest"])
    def test_series_csv_not_a_directory_rejected_before_analysis(self, dataset, tmp_path, target,
                                                                  message, capsys):
        (tmp_path / "file.txt").write_text("kept\n", encoding="utf-8")
        out = tmp_path / "r.json"
        assert run(["analyze", dataset, "--out", out, "--series-csv", tmp_path / target]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert (tmp_path / "file.txt").read_text(encoding="utf-8") == "kept\n"


def tree_sha256(*paths) -> str:
    """One digest over the bytes of every file under ``paths``, by sorted name."""
    h = hashlib.sha256()
    for path in paths:
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            h.update(f.name.encode("utf-8") + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


class TestOutputsPinned:
    """Analyze and compare outputs on the shared synthetic books, pinned
    byte-for-byte. The digests were taken with NumPy 2.4 on x86-64; another
    platform's libm or LAPACK may move the last digit of a float."""

    @pytest.fixture
    def books(self, book_a, book_b, tmp_path):
        paths = []
        for doc in (book_a, book_b):
            path = tmp_path / f"{doc.id}.jsonl"
            path.write_text(json.dumps({"id": doc.id, "text": doc.text}) + "\n", encoding="utf-8")
            paths.append(path)
        return paths

    def test_analyze_report_and_series_csv(self, books, tmp_path):
        out, csv_dir = tmp_path / "report.json", tmp_path / "csv"
        assert run(["analyze", books[0], "--out", out, "--series-csv", csv_dir]) == 0
        assert tree_sha256(out, csv_dir) == ANALYZE_SHA256

    def test_compare_report_and_grid(self, books, tmp_path):
        out, grid = tmp_path / "comparison.json", tmp_path / "grid.csv"
        assert run(["compare", *books, "--out", out, "--csv", grid]) == 0
        assert tree_sha256(out, grid) == COMPARE_SHA256


ANALYZE_SHA256 = "44805e4613074a9832551bcb5aaa839f5866dec0d764ef939590e15855386228"
COMPARE_SHA256 = "e598b241feb8f13328058958fbada8c97afb0aa42974fe508d3755853cc28042"


class TestCompare:
    def test_grid_shape(self, dataset, tmp_path):
        out = tmp_path / "cmp.json"
        assert run(["compare", dataset, dataset, "--out", out, "--csv", tmp_path / "grid.csv"]) == 0
        report = json.loads(out.read_text())
        assert len(report["corpora"]) == 2
        for corpus in report["corpora"].values():
            assert len(corpus["laws"]) == 8
        grid = (tmp_path / "grid.csv").read_text().splitlines()
        assert len(grid) == 1 + 8 * 2

    def test_same_file_identical_columns(self, dataset, tmp_path):
        out = tmp_path / "cmp.json"
        run(["compare", dataset, dataset, "--out", out])
        report = json.loads(out.read_text())
        names = list(report["corpora"])
        assert report["corpora"][names[0]]["laws"] == report["corpora"][names[1]]["laws"]


    def test_out_and_csv_sharing_a_file_rejected_before_analysis(self, dataset, tmp_path,
                                                                 monkeypatch, capsys):
        import zgptda.augment

        calls = []
        complete = MockTransport.complete
        monkeypatch.setattr(MockTransport, "complete",
                            lambda self, *a, **kw: calls.append(a) or complete(self, *a, **kw))
        monkeypatch.setattr(zgptda.augment, "evaluate_corpus", lambda *a, **kw: calls.append(a))
        shared = tmp_path / "grid"
        assert run(["compare", dataset, dataset, "--out", shared, "--csv", shared]) == 1
        assert "error: --out and --csv name one file" in capsys.readouterr().err
        assert calls == []
        assert not shared.exists()


class TestAugment:
    def test_mock_deterministic_and_sized(self, dataset, tmp_path):
        out1, out2 = tmp_path / "a1.jsonl", tmp_path / "a2.jsonl"
        for out, scores in ((out1, tmp_path / "s1.json"), (out2, tmp_path / "s2.json")):
            code = run([
                "augment", dataset, "--transport", "mock", "--n", "10",
                "--fraction", "0.5", "--seed", "7", "--out", out, "--scores", scores,
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()
        lines = out1.read_text().splitlines()
        assert len(lines) == 4 + 4 * 5  # raws + ceil(0.5 * 10) per raw

    def test_fraction_one_keeps_all(self, dataset, tmp_path):
        out = tmp_path / "a.jsonl"
        assert run([
            "augment", dataset, "--transport", "mock", "--n", "4", "--fraction", "1.0",
            "--seed", "1", "--out", out, "--scores", tmp_path / "s.json",
        ]) == 0
        assert len(out.read_text().splitlines()) == 4 + 4 * 4

    def test_scores_carry_audit_trail(self, dataset, tmp_path):
        scores_path = tmp_path / "s.json"
        run([
            "augment", dataset, "--transport", "mock", "--n", "4", "--fraction", "0.5",
            "--seed", "1", "--out", tmp_path / "a.jsonl", "--scores", scores_path,
        ])
        scores = json.loads(scores_path.read_text())
        assert scores["rulebase"]["grade_tables"]["r2"]["medium"] == [0.1, 0.15, 0.2]
        run0 = scores["runs"][0]
        assert len(run0["instances"]) == 4
        assert len(run0["selected_ids"]) == 2
        inst = run0["instances"][0]
        assert inst["rank"] == 1
        assert set(inst["laws"]) == {
            "zipf", "heaps", "taylor", "hilberg", "ebeling", "menzerath", "benford", "mandelbrot"
        }

    def test_record_then_replay_byte_identical(self, dataset, tmp_path):
        rec = tmp_path / "gens.jsonl"
        out1 = tmp_path / "a1.jsonl"
        assert run([
            "augment", dataset, "--transport", "mock", "--n", "5", "--fraction", "0.5",
            "--seed", "2", "--out", out1, "--scores", tmp_path / "s1.json",
            "--record-file", rec,
        ]) == 0
        out2 = tmp_path / "a2.jsonl"
        assert run([
            "augment", dataset, "--transport", "replay", "--replay-file", rec,
            "--n", "5", "--fraction", "0.5", "--seed", "2",
            "--out", out2, "--scores", tmp_path / "s2.json",
        ]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_hashes_the_replay_file(self, dataset, tmp_path):
        rec = tmp_path / "gens.jsonl"
        flags = ["--n", "2", "--seed", "2", "--scores", tmp_path / "s.json"]
        assert run(["augment", dataset, *flags, "--out", tmp_path / "a1.jsonl",
                    "--record-file", rec]) == 0
        assert run(["augment", dataset, *flags, "--out", tmp_path / "a2.jsonl",
                    "--transport", "replay", "--replay-file", rec]) == 0
        manifest = json.loads((tmp_path / "a2.jsonl.manifest.json").read_text())
        assert manifest["input_sha256"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (dataset, rec)}

    def test_replay_from_two_paths_writes_identical_scores(self, dataset, tmp_path, monkeypatch):
        rec = tmp_path / "gens.jsonl"
        flags = ["--n", "3", "--seed", "2"]
        assert run(["augment", dataset, *flags, "--out", tmp_path / "a.jsonl",
                    "--scores", tmp_path / "s.json", "--record-file", rec]) == 0
        (tmp_path / "elsewhere").mkdir()
        copy = tmp_path / "elsewhere" / "copy.jsonl"
        copy.write_bytes(rec.read_bytes())
        monkeypatch.chdir(tmp_path)
        # an absolute path, a relative one, and a copy in another directory
        for k, path in enumerate([rec, "gens.jsonl", copy]):
            assert run(["augment", dataset, *flags, "--transport", "replay", "--replay-file", path,
                        "--out", tmp_path / f"a{k}.jsonl", "--scores", tmp_path / f"s{k}.json"]) == 0
        assert (tmp_path / "s0.json").read_bytes() == (tmp_path / "s1.json").read_bytes()
        assert (tmp_path / "s0.json").read_bytes() == (tmp_path / "s2.json").read_bytes()

    def test_replay_miss_exit_2_without_outputs(self, dataset, tmp_path, capsys):
        empty = tmp_path / "gens.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "a.jsonl"
        code = run([
            "augment", dataset, "--transport", "replay", "--replay-file", empty,
            "--out", out, "--scores", tmp_path / "s.json",
        ])
        assert code == 2
        assert not out.exists()

    def test_replay_miss_keep_partial_writes_outputs(self, dataset, tmp_path):
        empty = tmp_path / "gens.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "a.jsonl"
        code = run([
            "augment", dataset, "--transport", "replay", "--replay-file", empty,
            "--out", out, "--scores", tmp_path / "s.json", "--keep-partial",
        ])
        assert code == 2
        assert out.exists()
        records = [json.loads(s) for s in out.read_text().splitlines()]
        assert all(r["origin"] == "raw" for r in records)

    def test_replay_requires_file_flag(self, dataset, tmp_path, capsys):
        assert run([
            "augment", dataset, "--transport", "replay",
            "--out", tmp_path / "a.jsonl", "--scores", tmp_path / "s.json",
        ]) == 1

    def test_live_requires_endpoint(self, dataset, tmp_path):
        assert run([
            "augment", dataset, "--transport", "live",
            "--out", tmp_path / "a.jsonl", "--scores", tmp_path / "s.json",
        ]) == 1

    def test_invalid_flag_value_exit_1(self, dataset, tmp_path, capsys):
        assert run([
            "augment", dataset, "--transport", "mock", "--n", "0",
            "--out", tmp_path / "a.jsonl", "--scores", tmp_path / "s.json",
        ]) == 1
        assert "n_instances" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--n", "abc"],
        ["--segment-len", "50"],
        ["--max-block", "3"],
        ["--transport", "carrier-pigeon"],
        ["--temperature", "warm"],
    ])
    def test_usage_error_exit_1(self, dataset, tmp_path, flags):
        out = tmp_path / "a.jsonl"
        assert run(["augment", dataset, *flags, "--out", out, "--scores", tmp_path / "s.json"]) == 1
        assert not out.exists()

    def test_schemeless_endpoint_is_usage_error(self, dataset, tmp_path, monkeypatch, capsys):
        # requests raises MissingSchema for an endpoint without a scheme; no
        # retry can mend it, so it is rejected before any request is made
        import requests

        calls, sleeps = [], []

        def fake_post(url, *args, **kwargs):
            calls.append(url)
            raise requests.exceptions.MissingSchema(f"Invalid URL {url!r}: No scheme supplied")

        monkeypatch.setattr(requests, "post", fake_post)
        monkeypatch.setattr("zgptda.augment.time.sleep", sleeps.append)
        out = tmp_path / "a.jsonl"
        assert run(["augment", dataset, "--transport", "live", "--endpoint", "localhost:9/v1",
                    "--n", "2", "--out", out, "--scores", tmp_path / "s.json"]) == 1
        assert "is not an http(s) URL with a host" in capsys.readouterr().err
        assert calls == [] and sleeps == []
        assert not out.exists()

    @pytest.fixture
    def non_json_200(self, monkeypatch):
        """Every POST answers HTTP 200 with an HTML body; nothing leaves the process."""
        import requests

        class Response:
            status_code = 200
            text = "<html>gateway</html>"

            def json(self):
                raise requests.exceptions.JSONDecodeError("Expecting value", self.text, 0)

        calls = []
        monkeypatch.setattr(requests, "post", lambda *a, **kw: calls.append(a) or Response())
        return calls

    def test_non_json_body_is_transport_failure(self, dataset, tmp_path, non_json_200):
        out = tmp_path / "a.jsonl"
        argv = ["augment", dataset, "--transport", "live", "--endpoint", "http://localhost:9/v1",
                "--n", "2", "--out", out, "--scores", tmp_path / "s.json"]
        assert run(argv) == 2
        assert not out.exists()
        assert run([*argv, "--keep-partial"]) == 2
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["origin"] for r in records] == ["raw"] * 4
        assert len(non_json_200) == 4  # one attempt per slot per run: not retried


    def test_null_completion_is_transport_failure(self, dataset, tmp_path, monkeypatch, capsys):
        # chat APIs answer a refusal or a tool call with a null content
        import requests

        class Response:
            status_code = 200
            text = '{"choices": [{"message": {"content": null}}]}'

            def json(self):
                return json.loads(self.text)

        monkeypatch.setattr(requests, "post", lambda *a, **kw: Response())
        assert run(["augment", dataset, "--transport", "live", "--endpoint", "http://localhost:9/v1",
                    "--n", "2", "--out", tmp_path / "a.jsonl", "--scores", tmp_path / "s.json"]) == 2
        assert "response carries no text completion" in capsys.readouterr().err

    def test_runs_carry_the_commands_transport_config_and_partial_flag(self, dataset, tmp_path):
        rec, first_two = tmp_path / "gens.jsonl", tmp_path / "first_two.jsonl"
        first_two.write_text("".join(dataset.read_text().splitlines(keepends=True)[:2]),
                             encoding="utf-8")
        scores = tmp_path / "s1.json"
        flags = ["--n", "3", "--fraction", "0.5", "--seed", "1"]
        assert run(["augment", first_two, "--transport", "mock", *flags, "--out", tmp_path / "a1.jsonl",
                    "--scores", scores, "--record-file", rec]) == 0
        runs = json.loads(scores.read_text())["runs"]
        config_sha256 = GenerationConfig(n_instances=3, top_fraction=0.5, seed=1).sha256()
        assert [(r["transport"], r["config_sha256"], r["partial"]) for r in runs] == [
            ("recording(mock:1)", config_sha256, False)] * 2

        # the recording covers the first two raws only: the third misses
        scores = tmp_path / "s2.json"
        assert run(["augment", dataset, "--transport", "replay", "--replay-file", rec, *flags,
                    "--out", tmp_path / "a2.jsonl", "--scores", scores, "--keep-partial"]) == 2
        runs = json.loads(scores.read_text())["runs"]
        replay = f"replay:sha256:{hashlib.sha256(rec.read_bytes()).hexdigest()}"
        assert [(r["raw_id"], r["transport"], r["partial"]) for r in runs] == [
            ("r0", replay, False), ("r1", replay, False), ("r2", replay, True)]
        assert {r["config_sha256"] for r in runs} == {config_sha256}

    @pytest.mark.parametrize("flag, target", [
        ("--out", "nodir/x.json"), ("--scores", "nodir/x.json"), ("--record-file", "nodir/x.json"),
        ("--scores", "somedir"),
    ], ids=["--out", "--scores", "--record-file", "--scores-directory"])
    def test_missing_output_directory_rejected_before_generation(self, dataset, tmp_path, flag, target,
                                                                 monkeypatch, capsys):
        calls = []
        complete = MockTransport.complete
        monkeypatch.setattr(MockTransport, "complete",
                            lambda self, *a, **kw: calls.append(a) or complete(self, *a, **kw))
        (tmp_path / "somedir").mkdir()  # an output path that is a directory
        paths = {"--out": tmp_path / "a.jsonl", "--scores": tmp_path / "s.json",
                 "--record-file": tmp_path / "rec.jsonl"}
        paths[flag] = missing = tmp_path / target
        assert run(["augment", dataset, "--transport", "mock", "--n", "2",
                    *(a for item in paths.items() for a in item)]) == 1
        err = capsys.readouterr().err
        assert str(missing) in err and ".tmp" not in err
        assert calls == []
        assert [p for p in paths.values() if p.exists() and p != tmp_path / "somedir"] == []

    @pytest.mark.parametrize("flags, names", [
        ({"--out": "x.json", "--scores": "x.json"}, "--out and --scores"),
        ({"--transport": "replay", "--replay-file": "rec.jsonl", "--record-file": "rec.jsonl"},
         "--record-file and --replay-file"),
        ({"--scores": "raw.jsonl"}, "--scores and input"),
        ({"--scores": "a.jsonl.manifest.json"}, "--scores and the manifest of --out"),
        ({"--out": "s.json.tmp", "--scores": "s.json"}, "--out and the temporary file of --scores"),
        ({"--scores": "a.jsonl.tmp"}, "--scores and the temporary file of --out"),
    ])
    def test_outputs_sharing_a_file_rejected_before_generation(self, dataset, tmp_path, flags, names,
                                                               monkeypatch, capsys):
        calls = []
        complete = MockTransport.complete
        monkeypatch.setattr(MockTransport, "complete",
                            lambda self, *a, **kw: calls.append(a) or complete(self, *a, **kw))
        (tmp_path / "rec.jsonl").write_text("", encoding="utf-8")
        argv = ["augment", dataset, "--n", "2"]
        for flag, value in {"--out": "a.jsonl", "--scores": "s.json", **flags}.items():
            argv += [flag, value if flag == "--transport" else tmp_path / value]
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert run(argv) == 1
        assert f"error: {names} name one file" in capsys.readouterr().err
        assert calls == []
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("record", [
        {"request_hash": "0" * 64, "completion": 5},
        {"request_hash": "0" * 64, "completion": None},
        {"request_hash": 5, "completion": "text"},
    ])
    def test_bad_replay_record_rejected_on_load(self, dataset, tmp_path, record, capsys):
        replay = tmp_path / "replay.jsonl"
        replay.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert run(["augment", dataset, "--transport", "replay", "--replay-file", replay,
                    "--out", tmp_path / "a.jsonl", "--scores", tmp_path / "s.json"]) == 2
        assert "line 1: bad replay record" in capsys.readouterr().err


class TestAugmentStreamed:
    """augment writes each run as soon as it is scored; its outputs must be
    the bytes of the whole payload encoded at once, built here from
    run_augmentation in the same process."""

    RAWS = [
        {"id": "Größe-1", "text": "Die Pumpe fiel aus. Der Druck stieg über das Maß.", "label": "ä"},
        {"id": "日本-2", "text": "ポンプが故障した。 Valve «ouverte» — leak ½ of the flow.", "label": None},
        {"id": "r3", "text": "The seal failed under load. Steam escaped.", "label": "3"},
    ]

    @pytest.fixture
    def raws(self, tmp_path):
        path = tmp_path / "raws.jsonl"
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in self.RAWS),
                        encoding="utf-8")
        return path

    @staticmethod
    def expected(raws_path, cfg, transport, transport_id):
        """scores.json and augmented.jsonl as one encoding of each whole."""
        raws = load_jsonl(raws_path)
        runs, error = run_augmentation(raws, cfg, transport)
        payload = {"schema_version": SCHEMA_VERSION, "config": {**cfg.__dict__},
                   "rulebase": describe_rulebase(),
                   "runs": [_run_entry(r, transport_id, cfg.sha256()) for r in runs]}
        records = [{"id": d.id, "text": d.text, "label": d.label, "origin": "raw"} for d in raws]
        records += [{"id": item.instance.id, "text": item.instance.text, "label": item.instance.label,
                     "origin": "aug", "source_id": r.raw.id, "suitability": item.suitability.s}
                    for r in runs for item in r.selected]
        scores = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        dataset = "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in records)
        return scores, dataset, runs, error

    @classmethod
    def request_key(cls, cfg, k):
        """The request hash of the k-th raw example's paraphrases."""
        prompt = cfg.prompt_template.format(n=cfg.n_instances, text=cls.RAWS[k]["text"])
        return request_hash(request_payload(prompt, cfg))

    @staticmethod
    def outputs(tmp_path, name):
        return [(tmp_path / f"{name}.{ext}").read_text(encoding="utf-8") for ext in ("json", "jsonl")]

    @pytest.mark.parametrize("fraction", ["0.5", "1"])
    def test_mock_outputs_equal_one_encoding(self, raws, tmp_path, fraction):
        assert run(["augment", raws, "--n", "3", "--fraction", fraction, "--seed", "4",
                    "--out", tmp_path / "a.jsonl", "--scores", tmp_path / "a.json"]) == 0
        cfg = GenerationConfig(n_instances=3, top_fraction=float(fraction), seed=4)
        scores, dataset, runs, _ = self.expected(raws, cfg, MockTransport(seed=4), "mock:4")
        assert self.outputs(tmp_path, "a") == [scores, dataset]
        assert len(runs) == 3 and all(len(r.selected) == (3 if fraction == "1" else 2) for r in runs)

    def test_partial_last_run_equals_one_encoding(self, raws, tmp_path):
        rec = tmp_path / "rec.jsonl"
        flags = ["--n", "3", "--seed", "1"]
        assert run(["augment", raws, *flags, "--out", tmp_path / "m.jsonl", "--scores", tmp_path / "m.json",
                    "--record-file", rec]) == 0
        # the second raw's request loses its last completion: it fails at slot 3
        cfg = GenerationConfig(n_instances=3, seed=1)
        second = self.request_key(cfg, 1)
        lines = rec.read_text(encoding="utf-8").splitlines(keepends=True)
        dropped = max(k for k, line in enumerate(lines) if json.loads(line)["request_hash"] == second)
        replay = tmp_path / "replay.jsonl"
        replay.write_text("".join(lines[:dropped] + lines[dropped + 1:]), encoding="utf-8")
        assert run(["augment", raws, *flags, "--transport", "replay", "--replay-file", replay,
                    "--out", tmp_path / "a.jsonl", "--scores", tmp_path / "a.json", "--keep-partial"]) == 2
        transport = ReplayTransport(replay)
        scores, dataset, runs, error = self.expected(raws, cfg, transport, transport.transport_id)
        assert self.outputs(tmp_path, "a") == [scores, dataset]
        assert "slot 3" in str(error)
        assert [(r.raw.id, len(r.instances), r.partial) for r in runs] == [
            ("Größe-1", 3, False), ("日本-2", 2, True)]

    def test_first_raw_failing_at_slot_1_equals_one_encoding(self, raws, tmp_path):
        replay = tmp_path / "replay.jsonl"
        replay.write_text("", encoding="utf-8")
        assert run(["augment", raws, "--n", "2", "--transport", "replay", "--replay-file", replay,
                    "--out", tmp_path / "a.jsonl", "--scores", tmp_path / "a.json", "--keep-partial"]) == 2
        cfg = GenerationConfig(n_instances=2)
        transport = ReplayTransport(replay)
        scores, dataset, runs, _ = self.expected(raws, cfg, transport, transport.transport_id)
        assert self.outputs(tmp_path, "a") == [scores, dataset]
        assert [(r.raw.id, r.instances, r.partial) for r in runs] == [("Größe-1", [], True)]

    @pytest.fixture
    def earlier_outputs(self, tmp_path):
        """Outputs of an earlier command, which a failed one must leave as they are."""
        paths = {"--out": tmp_path / "a.jsonl", "--scores": tmp_path / "a.json",
                 "--record-file": tmp_path / "rec.jsonl"}
        for path in [*paths.values(), tmp_path / "a.jsonl.manifest.json"]:
            path.write_text(f"earlier {path.name}\n", encoding="utf-8")
        return [a for item in paths.items() for a in item]

    @staticmethod
    def assert_untouched(tmp_path):
        assert sorted(p.name for p in tmp_path.glob("*.tmp")) == []
        for name in ("a.jsonl", "a.json", "rec.jsonl", "a.jsonl.manifest.json"):
            assert (tmp_path / name).read_text(encoding="utf-8") == f"earlier {name}\n"

    def test_transport_failure_without_keep_partial_leaves_earlier_outputs(
            self, raws, tmp_path, earlier_outputs, monkeypatch, capsys):
        # one instance per batch, so the first run is written before the miss
        monkeypatch.setattr(augment, "_SCORE_BATCH_CHARS", 1)
        replay = tmp_path / "replay.jsonl"
        cfg = GenerationConfig(n_instances=2)
        first = self.request_key(cfg, 0)
        replay.write_text("".join(json.dumps({"request_hash": first, "completion": text}) + "\n"
                                  for text in ("One sentence here. Another one.", "Short text. Words.")),
                          encoding="utf-8")
        assert run(["augment", raws, "--n", "2", "--transport", "replay", "--replay-file", replay,
                    *earlier_outputs]) == 2
        assert "rerun with --keep-partial" in capsys.readouterr().err
        self.assert_untouched(tmp_path)

    def test_provider_failure_leaves_earlier_outputs(self, raws, tmp_path, earlier_outputs, monkeypatch,
                                                     capsys):
        monkeypatch.setattr(augment, "_SCORE_BATCH_CHARS", 1)
        # vectors for every unit of the first raw's instances, none for the second's
        embeddings = tmp_path / "vectors.jsonl"
        embeddings.write_text("".join(
            json.dumps({"id": f"Größe-1#gen{k}", "unit_index": i, "vector": [1.0, float(i % 7)]},
                       ensure_ascii=False) + "\n"
            for k in (1, 2) for i in range(1000)), encoding="utf-8")
        assert run(["augment", raws, "--n", "2", "--embeddings", embeddings, *earlier_outputs]) == 2
        assert "no vector for '日本-2#gen1'" in capsys.readouterr().err
        self.assert_untouched(tmp_path)

    def test_duplicate_output_id_exit_1_without_outputs(self, tmp_path, capsys):
        raws = tmp_path / "raws.jsonl"
        raws.write_text("".join(json.dumps({"id": i, "text": "The pump failed."}) + "\n"
                                for i in ("a", "a#gen1")), encoding="utf-8")
        assert run(["augment", raws, "--n", "1", "--out", tmp_path / "a.jsonl",
                    "--scores", tmp_path / "a.json", "--record-file", tmp_path / "rec.jsonl"]) == 1
        assert "duplicate output id 'a#gen1'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raws.jsonl"]


class TestUsage:
    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag, capsys):
        assert run([flag]) == 0
        assert "zgptda" in capsys.readouterr().out

    def test_missing_command_exit_1(self, capsys):
        assert run([]) == 1

    def test_unreadable_config_exit_1(self, tmp_path, capsys):
        assert run(["--config", tmp_path / "nope.json", "analyze", "x.jsonl"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("top", ['["n"]', '"n"', "5", "null"])
    def test_config_not_an_object_exit_1(self, dataset, tmp_path, top, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg.write_text(top, encoding="utf-8")
        assert run(["--config", cfg, "analyze", dataset, "--out", out]) == 1
        assert f"error: --config {cfg}: the top level must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("order", ["0", "4", "-1"])
    def test_detrend_order_checked_before_loading(self, tmp_path, order, capsys):
        # the input does not exist: the order is rejected before any corpus work
        out = tmp_path / "r.json"
        assert run(["analyze", tmp_path / "nope.jsonl", "--out", out, "--detrend-order", order]) == 1
        assert "--detrend-order" in capsys.readouterr().err
        assert not out.exists()

    def test_detrend_order_from_config_checked(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"detrend_order": 0}), encoding="utf-8")
        assert run(["--config", cfg, "analyze", dataset, "--out", tmp_path / "r.json"]) == 1
        assert "--detrend-order" in capsys.readouterr().err


class TestConfigFile:
    def test_config_provides_defaults(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "fraction": 1.0, "seed": 11}), encoding="utf-8")
        out = tmp_path / "a.jsonl"
        assert run([
            "--config", cfg, "augment", dataset, "--transport", "mock",
            "--out", out, "--scores", tmp_path / "s.json",
        ]) == 0
        assert len(out.read_text().splitlines()) == 4 + 4 * 3

    def test_explicit_flag_wins_over_config(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "fraction": 1.0}), encoding="utf-8")
        out = tmp_path / "a.jsonl"
        assert run([
            "--config", cfg, "augment", dataset, "--transport", "mock", "--n", "2",
            "--out", out, "--scores", tmp_path / "s.json",
        ]) == 0
        assert len(out.read_text().splitlines()) == 4 + 4 * 2

    @pytest.mark.parametrize("config, flag", [
        ({"n": 2.5}, "--n"),
        ({"transport": "bogus"}, "--transport"),
        ({"fraction": True}, "--fraction"),
    ])
    def test_bad_config_value_rejected_before_any_work(self, config, flag, tmp_path, capsys):
        # the input does not exist: the value is rejected before it is read
        # and before any transport is built
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "a.jsonl"
        assert run([
            "--config", cfg, "augment", tmp_path / "nope.jsonl",
            "--out", out, "--scores", tmp_path / "s.json",
        ]) == 1
        err = capsys.readouterr().err
        assert "--config" in err and flag in err
        assert "nope.jsonl" not in err and "requires --endpoint" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_on_off_flag_takes_only_true_or_false(self, value, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"keep_partial": value}), encoding="utf-8")
        assert run(["--config", cfg, "augment", tmp_path / "nope.jsonl", "--out", tmp_path / "a.jsonl"]) == 1
        err = capsys.readouterr().err
        assert "--config" in err and "--keep-partial" in err and "nope.jsonl" not in err

    @pytest.mark.parametrize("key", ["nonsense", "segment-len", "input", "help", "config"])
    def test_key_naming_no_flag_rejected(self, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 50}), encoding="utf-8")
        assert run(["--config", cfg, "analyze", tmp_path / "nope.jsonl", "--out", tmp_path / "r.json"]) == 1
        err = capsys.readouterr().err
        assert "--config" in err and repr(key) in err and "nope.jsonl" not in err

    def test_keys_of_other_subcommands_allowed(self, tmp_path):
        # one file serves every command: augment's flags parse for analyze
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"keep_partial": True, "n": 3, "segment_len": 50}), encoding="utf-8")
        args = _parse_args(["--config", str(cfg), "analyze", "x.jsonl"])
        assert args.segment_len == 50 and not hasattr(args, "n")
        assert _parse_args(["--config", str(cfg), "augment", "x.jsonl"]).keep_partial is True
