"""Shared fixtures: deterministic synthetic corpora.

Real multi-thousand-sentence books are not bundled, so the corpus-level
tests run on seeded synthetic "books": Zipfian vocabulary with short words
at the frequent ranks, log-uniform sentence lengths, and a mild tendency to
use shorter words in longer sentences. That is enough structure for all
eight laws to produce fittable series at book scale.
"""

import bisect
import math
import random

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
    import json

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
