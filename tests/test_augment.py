import json
import logging
import math
import threading

import pytest

from zgptda import augment
from zgptda.augment import (
    ALL_LAWS,
    GenerationConfig,
    LiveTransport,
    MockTransport,
    PartialGeneration,
    RecordingTransport,
    ReplayTransport,
    Transport,
    TransportError,
    compare_corpora,
    emit_dataset,
    evaluate_corpus,
    generate_instances,
    rank_instances,
    request_hash,
    request_payload,
    run_augmentation,
    score_instance,
    score_instances,
    select_augmented,
)
from zgptda.corpus import Document, load_jsonl
from zgptda.zscore import Suitability


class FlakyTransport(Transport):
    """Succeeds below a slot threshold, raises above it."""

    transport_id = "flaky"

    def __init__(self, fail_from: int, mock: MockTransport | None = None):
        self.fail_from = fail_from
        self.mock = mock or MockTransport(seed=0)
        self.calls: dict[int, int] = {}

    def complete(self, prompt, cfg, slot=0):
        self.calls[slot] = self.calls.get(slot, 0) + 1
        if slot >= self.fail_from:
            raise TransportError(f"slot {slot} unavailable")
        return self.mock.complete(prompt, cfg, slot=slot)


class EmptyOnceTransport(Transport):
    transport_id = "empty-once"

    def __init__(self):
        self.mock = MockTransport(seed=1)
        self.calls: dict[int, int] = {}

    def complete(self, prompt, cfg, slot=0):
        self.calls[slot] = self.calls.get(slot, 0) + 1
        if slot == 1:
            return ""  # empty on every attempt: the slot gets dropped
        return self.mock.complete(prompt, cfg, slot=slot)


@pytest.fixture
def raw():
    return Document(id="r1", text="The cooling pump failed and pressure rose quickly.", label="3")


class TestConfig:
    def test_defaults(self):
        cfg = GenerationConfig()
        assert cfg.n_instances == 10
        assert cfg.top_fraction == 0.5
        assert "restate the text" in cfg.prompt_template

    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(n_instances=0)
        with pytest.raises(ValueError):
            GenerationConfig(top_fraction=0.0)
        with pytest.raises(ValueError):
            GenerationConfig(top_fraction=1.0001)
        for temperature in ("hot", "", "-0.1", "nan", "inf", None):
            with pytest.raises(ValueError, match="temperature"):
                GenerationConfig(temperature=temperature)
        assert GenerationConfig(temperature="0").temperature == "0"

    def test_hash_stable(self):
        assert GenerationConfig(seed=1).sha256() == GenerationConfig(seed=1).sha256()
        assert GenerationConfig(seed=1).sha256() != GenerationConfig(seed=2).sha256()


class TestMockTransport:
    def test_deterministic_across_instances(self, raw):
        cfg = GenerationConfig(seed=7)
        a = generate_instances(raw, cfg, MockTransport(seed=7))
        b = generate_instances(raw, cfg, MockTransport(seed=7))
        assert [d.text for d in a] == [d.text for d in b]

    def test_exactly_n_with_ids_and_labels(self, raw):
        cfg = GenerationConfig(n_instances=10, seed=7)
        docs = generate_instances(raw, cfg, MockTransport(seed=7))
        assert len(docs) == 10
        assert [d.id for d in docs] == [f"r1#gen{k}" for k in range(1, 11)]
        assert all(d.label == "3" for d in docs)

    def test_slots_differ(self, raw):
        cfg = GenerationConfig(seed=7)
        docs = generate_instances(raw, cfg, MockTransport(seed=7))
        assert len({d.text for d in docs}) > 1

    def test_seed_changes_output(self, raw):
        cfg7 = GenerationConfig(seed=7)
        cfg8 = GenerationConfig(seed=8)
        a = generate_instances(raw, cfg7, MockTransport(seed=7))
        b = generate_instances(raw, cfg8, MockTransport(seed=8))
        assert [d.text for d in a] != [d.text for d in b]


class TestReplay:
    def test_record_then_replay_byte_identical(self, raw, tmp_path):
        cfg = GenerationConfig(n_instances=6, seed=3)
        recorder = RecordingTransport(MockTransport(seed=3))
        originals = generate_instances(raw, cfg, recorder)
        replay_file = tmp_path / "gens.jsonl"
        recorder.dump(replay_file)

        replayed = generate_instances(raw, cfg, ReplayTransport(replay_file))
        assert [d.text for d in replayed] == [d.text for d in originals]

    def test_failed_dump_keeps_previous_record_file(self, raw, tmp_path, monkeypatch):
        recorder = RecordingTransport(MockTransport(seed=3))
        generate_instances(raw, GenerationConfig(n_instances=2, seed=3), recorder)
        replay_file = tmp_path / "gens.jsonl"
        replay_file.write_text("previous\n", encoding="utf-8")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("zgptda.augment.os.replace", fail)
        with pytest.raises(OSError):
            recorder.dump(replay_file)
        assert replay_file.read_text(encoding="utf-8") == "previous\n"
        assert list(tmp_path.iterdir()) == [replay_file]

    def test_replay_miss_is_transport_error(self, raw, tmp_path):
        replay_file = tmp_path / "gens.jsonl"
        replay_file.write_text("", encoding="utf-8")
        cfg = GenerationConfig(n_instances=2, seed=0)
        with pytest.raises(PartialGeneration):
            generate_instances(raw, cfg, ReplayTransport(replay_file))

    def test_request_hash_covers_model_and_temperature(self):
        cfg_a = GenerationConfig(model="gpt-4")
        cfg_b = GenerationConfig(model="gpt-4o")
        assert request_hash(request_payload("p", cfg_a)) != request_hash(request_payload("p", cfg_b))

    def test_each_distinct_request_hashed_once(self, tmp_path, monkeypatch):
        hashed = []
        monkeypatch.setattr(augment, "request_hash", lambda payload: hashed.append(payload) or request_hash(payload))
        augment._hash_of.cache_clear()
        raws = [Document(id=f"r{k}", text=f"raw text {k}") for k in range(3)]
        configs = [GenerationConfig(n_instances=4, seed=3), GenerationConfig(n_instances=4, seed=3, temperature="0.5"),
                   GenerationConfig(n_instances=4, seed=3, model="other")]
        recorder = RecordingTransport(MockTransport(seed=3))
        for cfg in configs:
            for raw in raws + raws[:1]:
                generate_instances(raw, cfg, recorder)
        record_file = tmp_path / "gens.jsonl"
        recorder.dump(record_file)
        for cfg in configs:
            for raw in raws:
                generate_instances(raw, cfg, ReplayTransport(record_file))
        # 9 distinct requests, asked for 132 times by the recorder, its mock and the replay
        assert len(hashed) == 9
        recorded = [json.loads(line)["request_hash"] for line in record_file.read_text().splitlines()]
        assert sorted(recorded) == sorted(request_hash(payload) for payload in hashed for _slot in range(4))


class TestLiveTransport:
    """The retry loop against a stubbed ``requests.post``; nothing leaves the process."""

    @pytest.fixture
    def post(self, monkeypatch):
        """Answer each POST with the next of the given replies (an HTTP
        status, or an exception to raise); return the recorded sleeps."""
        import requests

        class Response:
            def __init__(self, status):
                self.status_code = status
                self.text = f"status {status}"

            def json(self):
                return {"choices": [{"message": {"content": "a paraphrase"}}]}

        def install(*replies):
            pending = list(replies)

            def fake_post(*args, **kwargs):
                reply = pending.pop(0)
                if isinstance(reply, Exception):
                    raise reply
                return Response(reply)

            monkeypatch.setattr(requests, "post", fake_post)
            return pending

        sleeps = []
        monkeypatch.setattr("zgptda.augment.time.sleep", sleeps.append)
        return install, sleeps

    def complete(self):
        return LiveTransport("http://localhost:9/v1").complete("p", GenerationConfig())

    def test_retryable_status_retried_with_backoff(self, post):
        install, sleeps = post
        pending = install(503, 503, 200)
        assert self.complete() == "a paraphrase"
        assert sleeps == [0.5, 1.0]
        assert pending == []

    def test_request_exception_retried(self, post):
        import requests

        install, sleeps = post
        install(requests.ConnectionError("refused"), 200)
        assert self.complete() == "a paraphrase"
        assert sleeps == [0.5]

    def test_client_error_raises_at_once(self, post):
        install, sleeps = post
        pending = install(400, 200)
        with pytest.raises(TransportError, match="HTTP 400"):
            self.complete()
        assert sleeps == []
        assert pending == [200]

    def test_unretryable_request_error_raises_at_once(self, post):
        import requests

        install, sleeps = post
        bad = requests.exceptions.InvalidURL("Failed to parse")
        pending = install(bad, 200)
        with pytest.raises(TransportError, match="request failed") as exc_info:
            self.complete()
        assert exc_info.value.__cause__ is bad
        assert sleeps == []
        assert pending == [200]

    @pytest.mark.parametrize("endpoint", ["localhost:9/v1", "ftp://localhost/v1", "http:///v1", ""])
    def test_endpoint_needs_http_scheme_and_host(self, endpoint):
        with pytest.raises(ValueError, match="is not an http\\(s\\) URL with a host"):
            LiveTransport(endpoint)

    def test_exhausted_after_four_attempts(self, post):
        import requests

        install, sleeps = post
        last = requests.Timeout("read timed out")
        install(503, 429, requests.ConnectionError("refused"), last)
        with pytest.raises(TransportError, match="transport exhausted after 4 attempts") as exc_info:
            self.complete()
        assert exc_info.value.__cause__ is last
        assert sleeps == [0.5, 1.0, 2.0]


class TestGenerateInstances:
    # both generation paths: slot by slot on the calling thread, and a pool
    # of max_in_flight threads for a transport that waits
    def test_partial_generation_carries_instances(self, raw):
        cfg = GenerationConfig(n_instances=8, seed=0)
        for in_process in (False, True):
            transport = FlakyTransport(fail_from=3)
            transport.in_process = in_process
            with pytest.raises(PartialGeneration) as exc_info:
                generate_instances(raw, cfg, transport)
            got = exc_info.value.instances
            assert [d.id for d in got] == ["r1#gen1", "r1#gen2", "r1#gen3"]
            assert str(exc_info.value) == "r1: transport failed on slot 4: slot 3 unavailable"
            assert transport.calls == {k: 1 for k in range(8)}  # every slot attempted

    def test_empty_completion_dropped_with_warning(self, raw, caplog):
        cfg = GenerationConfig(n_instances=4, seed=1)
        for in_process in (False, True):
            transport = EmptyOnceTransport()
            transport.in_process = in_process
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="zgptda.augment"):
                docs = generate_instances(raw, cfg, transport)
            assert [d.id for d in docs] == ["r1#gen1", "r1#gen3", "r1#gen4"]
            assert transport.calls == {0: 1, 1: 2, 2: 1, 3: 1}  # retried once before dropping
            assert [r.message for r in caplog.records] == [
                "r1: slot 2 returned an empty completion twice; dropped"]

    @pytest.mark.parametrize("kind", ["mock", "replay", "recording"])
    def test_in_process_transports_called_on_the_calling_thread(self, raw, tmp_path, kind,
                                                               monkeypatch):
        import zgptda.augment as augment

        cfg = GenerationConfig(n_instances=4, seed=2)
        transport = MockTransport(seed=2)
        if kind == "replay":
            recorder = RecordingTransport(transport)
            generate_instances(raw, cfg, recorder)
            recorder.dump(tmp_path / "gens.jsonl")
            transport = ReplayTransport(tmp_path / "gens.jsonl")
        elif kind == "recording":
            transport = RecordingTransport(transport)
        assert transport.in_process
        threads = []
        complete = transport.complete

        def on_thread(prompt, cfg, slot=0):
            threads.append(threading.get_ident())
            return complete(prompt, cfg, slot=slot)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        transport.complete = on_thread
        monkeypatch.setattr(augment, "ThreadPoolExecutor", no_pool)
        docs = generate_instances(raw, cfg, transport)
        assert [d.id for d in docs] == [f"r1#gen{k}" for k in range(1, 5)]
        assert threads == [threading.get_ident()] * 4

    def test_waiting_transport_gets_max_in_flight_calls_at_once(self, raw):
        class Waiting(Transport):
            transport_id = "waiting"
            mock = MockTransport(seed=3)
            # a sequential regression breaks the barrier after 5 s, not never
            both_in_flight = threading.Barrier(2, timeout=5)

            def complete(self, prompt, cfg, slot=0):
                self.both_in_flight.wait()
                return self.mock.complete(prompt, cfg, slot=slot)

        cfg = GenerationConfig(n_instances=4, seed=3, max_in_flight=2)
        docs = generate_instances(raw, cfg, Waiting())
        assert [d.text for d in docs] == [
            MockTransport(seed=3).complete(cfg.prompt_template.format(n=4, text=raw.text), cfg, slot=k)
            for k in range(4)]


class TestScoreInstance:
    def test_large_text_scores_all_laws(self, book_a):
        scored = score_instance(book_a)
        assert [r.law for r in scored.law_reports] == list(ALL_LAWS)
        assert all(r.fittable for r in scored.law_reports)
        assert scored.z is not None and scored.z.laws_used == 8
        assert 0.0 <= scored.suitability.s <= 1.0
        assert scored.excluded_laws == []

    def test_tiny_text_degrades(self):
        scored = score_instance(Document(id="t", text="pump failed now."))
        assert scored.excluded_laws  # several laws cannot fit 3 words
        assert scored.z is not None or scored.no_signal
        assert 0.0 <= scored.suitability.s <= 1.0

    def test_empty_text_no_signal(self):
        scored = score_instance(Document(id="t", text=""))
        assert scored.no_signal
        assert scored.suitability.s == 0.0
        assert len(scored.excluded_laws) == 8


class TestSelection:
    @staticmethod
    def make(id_, s):
        from zgptda.augment import ScoredInstance

        return ScoredInstance(
            instance=Document(id=id_, text="x"),
            law_reports=[],
            z=None,
            suitability=Suitability(s=s, s_prime_centroid=1.0 - s),
        )

    def test_ten_at_half_selects_five(self):
        items = [self.make(f"i{k:02d}", s=k / 10) for k in range(10)]
        assert len(select_augmented(items, 0.5)) == 5

    def test_equal_scores_tie_break_on_id(self):
        items = [self.make(f"i{k:02d}", s=0.5) for k in range(10)]
        chosen = select_augmented(items, 0.5)
        assert [c.instance.id for c in chosen] == ["i00", "i01", "i02", "i03", "i04"]

    def test_ceiling_keeps_one(self):
        items = [self.make("only", s=0.1)]
        assert len(select_augmented(items, 0.5)) == 1

    def test_fraction_one_keeps_all(self):
        items = [self.make(f"i{k}", s=k / 10) for k in range(7)]
        assert len(select_augmented(items, 1.0)) == 7

    def test_prefix_property(self):
        items = [self.make(f"i{k:02d}", s=(k * 37 % 11) / 11) for k in range(9)]
        previous: list[str] = []
        for fraction in (0.1, 0.25, 0.4, 0.6, 0.8, 1.0):
            chosen = [c.instance.id for c in select_augmented(items, fraction)]
            assert chosen[: len(previous)] == previous
            previous = chosen

    def test_cardinality_matches_ceiling(self):
        items = [self.make(f"i{k}", s=k / 20) for k in range(7)]
        for fraction in (0.15, 0.3, 0.5, 0.77, 1.0):
            assert len(select_augmented(items, fraction)) == math.ceil(fraction * 7)

    def test_rank_assignment(self):
        items = [self.make("b", 0.5), self.make("a", 0.5), self.make("c", 0.9)]
        ranked = rank_instances(items)
        assert [(r.rank, r.instance.id) for r in ranked] == [(1, "c"), (2, "a"), (3, "b")]


class TestEmitDataset:
    def run_small(self, tmp_path, n_raws=3, n=4, fraction=0.5, seed=5):
        raws = [
            Document(id=f"raw{i}", text=f"The unit {i} pump failed under load.", label=str(i))
            for i in range(n_raws)
        ]
        cfg = GenerationConfig(n_instances=n, top_fraction=fraction, seed=seed)
        runs, err = run_augmentation(raws, cfg, MockTransport(seed=seed))
        assert err is None
        out = tmp_path / "aug.jsonl"
        count = emit_dataset(raws, runs, out)
        return raws, runs, out, count

    def test_record_count_and_order(self, tmp_path):
        raws, runs, out, count = self.run_small(tmp_path)
        lines = [json.loads(s) for s in out.read_text().splitlines()]
        assert count == 3 + 3 * 2 == len(lines)
        assert [r["origin"] for r in lines] == ["raw"] * 3 + ["aug"] * 6
        assert [r["id"] for r in lines[:3]] == ["raw0", "raw1", "raw2"]

    def test_labels_preserved_and_provenance(self, tmp_path):
        raws, runs, out, _ = self.run_small(tmp_path)
        by_id = {d.id: d for d in raws}
        for rec in map(json.loads, out.read_text().splitlines()):
            if rec["origin"] == "aug":
                assert rec["label"] == by_id[rec["source_id"]].label
                assert 0.0 <= rec["suitability"] <= 1.0

    def test_zero_runs_keeps_only_raws(self, tmp_path):
        raws = [Document(id="a", text="t", label=None)]
        out = tmp_path / "aug.jsonl"
        assert emit_dataset(raws, [], out) == 1
        assert json.loads(out.read_text())["origin"] == "raw"

    def test_duplicate_ids_fatal_before_write(self, tmp_path):
        raws = [Document(id="a", text="t"), Document(id="a#gen1", text="u")]
        cfg = GenerationConfig(n_instances=1, top_fraction=1.0)
        runs, _ = run_augmentation([raws[0]], cfg, MockTransport(seed=0))
        out = tmp_path / "aug.jsonl"
        with pytest.raises(ValueError, match="duplicate"):
            emit_dataset(raws, runs, out)
        assert not out.exists()

    def test_unknown_run_raw_rejected(self, tmp_path):
        raws = [Document(id="a", text="t")]
        cfg = GenerationConfig(n_instances=1, top_fraction=1.0)
        runs, _ = run_augmentation([Document(id="other", text="t")], cfg, MockTransport(seed=0))
        with pytest.raises(ValueError, match="no matching raw"):
            emit_dataset(raws, runs, tmp_path / "x.jsonl")

    def test_byte_identical_across_runs(self, tmp_path):
        _, _, out1, _ = self.run_small(tmp_path / "one" if False else tmp_path, seed=9)
        out2 = tmp_path / "aug2.jsonl"
        raws = [
            Document(id=f"raw{i}", text=f"The unit {i} pump failed under load.", label=str(i))
            for i in range(3)
        ]
        cfg = GenerationConfig(n_instances=4, top_fraction=0.5, seed=9)
        runs, _ = run_augmentation(raws, cfg, MockTransport(seed=9))
        emit_dataset(raws, runs, out2)
        assert out2.read_bytes() == (tmp_path / "aug.jsonl").read_bytes()


class TestRunAugmentation:
    def test_partial_keeps_prior_runs(self):
        raws = [
            Document(id="ok", text="The pump failed badly today.", label="1"),
            Document(id="bad", text="The valve stuck open.", label="2"),
        ]

        class FailSecond(Transport):
            transport_id = "fail-second"
            mock = MockTransport(seed=2)

            def complete(self, prompt, cfg, slot=0):
                if "valve" in prompt and slot >= 2:
                    raise TransportError("quota")
                return self.mock.complete(prompt, cfg, slot=slot)

        cfg = GenerationConfig(n_instances=4, top_fraction=0.5, seed=2)
        runs, err = run_augmentation(raws, cfg, FailSecond())
        assert err is not None
        assert len(runs) == 2
        assert not runs[0].partial
        assert runs[1].partial
        assert len(runs[1].instances) == 2  # slots 1..2 succeeded

    def test_partial_batch_scored_once_and_empty_batch_not_at_all(self, monkeypatch):
        import zgptda.augment as augment

        calls = []

        def recording(docs, **kwargs):
            calls.append([d.id for d in docs])
            return score_instances(docs, **kwargs)

        monkeypatch.setattr(augment, "score_instances", recording)

        class Failing(Transport):
            transport_id = "failing"
            mock = MockTransport(seed=4)

            def complete(self, prompt, cfg, slot=0):
                if "valve" in prompt and slot >= 2 or "seal" in prompt:
                    raise TransportError("quota")
                return self.mock.complete(prompt, cfg, slot=slot)

        raws = [Document(id="ok", text="The pump failed."), Document(id="half", text="The valve stuck."),
                Document(id="none", text="The seal leaked.")]
        cfg = GenerationConfig(n_instances=4, top_fraction=0.5, seed=4, max_in_flight=1)
        runs, err = run_augmentation(raws, cfg, Failing())
        assert isinstance(err, PartialGeneration) and "half" in str(err)
        # the instances of both raw examples fit one batch
        assert calls == [[f"ok#gen{k}" for k in range(1, 5)] + ["half#gen1", "half#gen2"]]
        assert [r.raw.id for r in runs] == ["ok", "half"]
        assert sorted(i.instance.id for i in runs[1].instances) == ["half#gen1", "half#gen2"]
        assert [i.rank for i in runs[1].instances] == [1, 2]
        assert runs[1].selected == runs[1].instances[:1]

        assert [r.partial for r in runs] == [False, True]

        # a failing raw example without instances is the only partial run
        calls.clear()
        runs, err = run_augmentation([raws[0], raws[2]], cfg, Failing())
        assert calls == [[f"ok#gen{k}" for k in range(1, 5)]]
        assert [(r.raw.id, r.partial) for r in runs] == [("ok", False), ("none", True)]

        calls.clear()
        runs, err = run_augmentation(raws[2:], cfg, Failing())
        assert isinstance(err, PartialGeneration) and err.instances == []
        assert calls == []
        assert (runs[0].instances, runs[0].selected) == ([], [])
        assert runs[0].partial


class TestCompareCorpora:
    def test_reflexive_identical_columns(self, book_a):
        docs = [book_a]
        report = compare_corpora(docs, docs, name_a="left", name_b="right")
        left = report["corpora"]["left"]["laws"]
        right = report["corpora"]["right"]["laws"]
        assert left == right

    def test_tiny_corpus_null_cells(self, book_a):
        tiny = [Document(id="t", text="Short text here.")]
        report = compare_corpora([book_a], tiny, name_a="big", name_b="tiny")
        cells = report["corpora"]["tiny"]["laws"]
        assert any(not cell["fittable"] for cell in cells.values())
        for cell in cells.values():
            if not cell["fittable"]:
                assert "metrics" not in cell

    @pytest.mark.parametrize("knob, message", [
        ("detrend_order", "detrend order must be >= 1"),
        ("segment_len", "segment_len must be >= 1"),
        ("max_block", "max_block must be >= 1"),
    ])
    def test_bad_knob_rejected_before_tokenizing(self, monkeypatch, knob, message):
        def tokenize(doc):
            raise AssertionError("tokenized before the knobs were checked")

        monkeypatch.setattr("zgptda.augment.tokenize", tokenize)
        doc = Document(id="d", text="Some text. More text.")
        with pytest.raises(ValueError, match=message):
            evaluate_corpus([doc], **{knob: 0})

    @pytest.mark.parametrize("text", [
        MockTransport(seed=0).complete("Restate: pumps fail.", GenerationConfig()),
        "Short text here.",
        "The pump failed. " * 120,
    ], ids=["mock-completion", "short", "repeated-sentence"])
    def test_corpus_route_equals_scoring_route(self, text):
        # analyze and compare build, embed and fit a text as augment scores it
        def facts(reports):
            return [(r.law, r.detail) + ((r.fit.exponent, r.fit.metrics, r.fit.fitted_y.tolist())
                                         if r.fit is not None else ()) for r in reports]

        doc = Document(id="d", text=text)
        assert facts(evaluate_corpus([doc]).reports) == facts(score_instance(doc).law_reports)

    def test_corpus_evaluation_counts(self, book_a):
        ev = evaluate_corpus([book_a], name="b")
        assert ev.word_count > 10_000
        assert ev.sentence_count > 1_000
        assert len(ev.reports) == 8

    @pytest.mark.parametrize("n_words, n_scales", [(66, 1), (70, 2)])
    def test_short_corpus_mandelbrot_detail(self, n_words, n_scales):
        # with the spectrum requested its failure wins over the conformity fit's
        words = ["alpha", "beta", "gamma", "delta"]
        doc = Document(id="d", text=" ".join(words[i % 4] for i in range(n_words)))
        expected = {
            True: f"mandelbrot: {n_scales} scales, need 3",
            False: f"mandelbrot: {n_scales} positive points, need 3",
        }
        for with_spectrum, detail in expected.items():
            ev = evaluate_corpus([doc], with_spectrum=with_spectrum)
            mandelbrot = ev.reports[-1]
            assert (mandelbrot.law, mandelbrot.fittable) == ("mandelbrot", False)
            assert mandelbrot.detail == detail
            assert ev.spectrum is None
        scored = score_instance(doc)
        assert scored.law_reports[-1].detail == expected[False]
