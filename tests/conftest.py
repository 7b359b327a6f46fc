"""Shared fixtures: deterministic synthetic corpora.

Real multi-thousand-sentence books are not bundled, so the corpus-level
tests run on seeded synthetic "books": Zipfian vocabulary with short words
at the frequent ranks, log-uniform sentence lengths, and a mild tendency to
use shorter words in longer sentences. That is enough structure for all
eight laws to produce fittable series at book scale.
"""

import bisect
import http.server
import json
import math
import os
import random
import threading

import numpy as np
import pytest

from zgptda.corpus import Document, TokenStream

_LETTER_WEIGHTS = {
    "e": 12.7, "t": 9.1, "a": 8.2, "o": 7.5, "i": 7.0, "n": 6.7, "s": 6.3,
    "h": 6.1, "r": 6.0, "d": 4.3, "l": 4.0, "c": 2.8, "u": 2.8, "m": 2.4,
    "w": 2.4, "f": 2.2, "g": 2.0, "y": 2.0, "p": 1.9, "b": 1.5, "v": 1.0,
    "k": 0.8, "j": 0.2, "x": 0.2, "q": 0.1, "z": 0.1,
}


def _build_vocab(rng: random.Random, size: int) -> list[str]:
    letters = list(_LETTER_WEIGHTS)
    weights = list(_LETTER_WEIGHTS.values())
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)

    def letter() -> str:
        return letters[min(bisect.bisect_left(cumulative, rng.random()), len(letters) - 1)]

    vocab: list[str] = []
    seen: set[str] = set()
    while len(vocab) < size:
        # frequent ranks get short words, rare ranks longer ones
        target_len = 2 + int(10 * (len(vocab) / size) * rng.random()) + rng.randrange(3)
        word = "".join(letter() for _ in range(max(2, target_len)))
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


def token_stream(words=(), sentences=(), chars=""):
    """The TokenStream of `words`, their types numbered 0, 1, ... by first occurrence."""
    index: dict[str, int] = {}
    codes = np.fromiter((index.setdefault(w, len(index)) for w in words), np.int64)
    return TokenStream(codes=codes, types=list(index), sentences=list(sentences), chars=chars)


def synth_book(seed: int, n_sentences: int = 2500, vocab_size: int = 3000,
               zipf_exponent: float = 1.05) -> str:
    """Deterministic book-scale pseudo-text."""
    rng = random.Random(seed)
    vocab = _build_vocab(rng, vocab_size)
    weights = [1.0 / (r + 1) ** zipf_exponent for r in range(vocab_size)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)

    sentences = []
    for _ in range(n_sentences):
        n_words = int(round(math.exp(rng.uniform(math.log(3.0), math.log(45.0)))))
        # longer sentences lean harder on the frequent (short) vocabulary
        concentration = 1.0 + n_words / 30.0
        words = []
        for _ in range(n_words):
            u = rng.random() ** concentration
            idx = min(bisect.bisect_left(cumulative, u), vocab_size - 1)
            words.append(vocab[idx])
        words[0] = words[0].capitalize()
        mark = "." if rng.random() < 0.9 else ("!" if rng.random() < 0.5 else "?")
        sentences.append(" ".join(words) + mark)
    return " ".join(sentences)


@pytest.fixture(scope="session")
def book_a() -> Document:
    return Document(id="book_a", text=synth_book(seed=101))


@pytest.fixture(scope="session")
def book_b() -> Document:
    return Document(id="book_b", text=synth_book(seed=202, zipf_exponent=1.2))


def make_raw_dataset(path, n: int = 5, seed: int = 3):
    """Small JSONL dataset of hazard-report-flavored raw examples."""
    rng = random.Random(seed)
    nouns = ["pump", "valve", "tank", "pressure", "seal", "leak", "flow", "cooling",
             "system", "alarm", "unit", "line", "vessel", "gas", "steam", "pipe",
             "relief", "hazard", "failure", "operator"]
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            sents = []
            for _ in range(rng.randrange(3, 7)):
                k = rng.randrange(5, 20)
                sents.append(" ".join(rng.choice(nouns) for _ in range(k)).capitalize() + ".")
            fh.write(json.dumps(
                {"id": f"r{i}", "text": " ".join(sents), "label": str(i % 3)}
            ) + "\n")
    return path


class LoopbackEndpoint:
    """A chat-completion endpoint on 127.0.0.1 that answers each request
    with the next of ``replies``.

    A reply is a status (200 carries a completion, any other the body
    ``status N``), a ``(status, body)`` pair, :attr:`DROP` to close the
    connection unanswered, or :attr:`STALL` to send nothing until the
    endpoint is closed. Each request is kept in :attr:`requests` as
    ``(method, path, headers, body)``; the :func:`loopback` fixture keeps
    the transport's backoff sleeps in :attr:`sleeps`.
    """

    DROP, STALL = "drop", "stall"
    COMPLETION = json.dumps({"choices": [{"message": {"content": "a paraphrase"}}]})

    def __init__(self):
        self.replies: list = []
        self.requests: list[tuple[str, str, dict, bytes]] = []
        self.sleeps: list[float] = []
        self._lock = threading.Lock()
        self._closed = threading.Event()
        endpoint = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with endpoint._lock:  # the transport may send several requests at once
                    endpoint.requests.append((self.command, self.path, dict(self.headers), body))
                    reply = endpoint.replies.pop(0) if endpoint.replies else (418, "no reply scripted")
                if reply == endpoint.STALL:
                    endpoint._closed.wait(10)
                if reply in (endpoint.DROP, endpoint.STALL):
                    self.close_connection = True
                    return
                status, text = reply if isinstance(reply, tuple) else (
                    reply, endpoint.COMPLETION if reply == 200 else f"status {reply}")
                data = text.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            do_GET = do_POST

            def log_message(self, *args):
                pass

        self._server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_port}/v1/chat/completions"
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.01,), daemon=True)
        self._thread.start()

    def close(self):
        self._closed.set()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


@pytest.fixture
def loopback(monkeypatch):
    """A :class:`LoopbackEndpoint` reached with no proxy and no API key; the
    transport's backoff sleeps are recorded in its ``sleeps``, not slept."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    monkeypatch.delenv("ZGPTDA_API_KEY", raising=False)
    endpoint = LoopbackEndpoint()
    monkeypatch.setattr("zgptda.augment.time.sleep", endpoint.sleeps.append)
    yield endpoint
    endpoint.close()
