"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the seed, so the same seed gives
byte-identical inputs. The generators are deliberately independent of the
test suite's fixtures: editing the tests must not move the benchmark.

Sizes are fixed exactly (raws, paraphrases, sentences, words) so that the
amount of work per run does not drift with the seed; only the text does.
"""

import itertools
import json
import math
import random

# English-like letter frequencies, so character-level statistics (the
# character-variance law) see a skewed alphabet like real text
_LETTERS = "etaoinshrdlcumwfgypbvkjxqz"
_LETTER_WEIGHTS = (12.7, 9.1, 8.2, 7.5, 7.0, 6.7, 6.3, 6.1, 6.0, 4.3, 4.0, 2.8, 2.8,
                   2.4, 2.4, 2.2, 2.0, 2.0, 1.9, 1.5, 1.0, 0.8, 0.2, 0.2, 0.1, 0.1)

_RAW_NOUNS = ("pump", "valve", "tank", "pressure", "seal", "leak", "flow", "cooling",
              "system", "alarm", "unit", "line", "vessel", "gas", "steam", "pipe",
              "relief", "hazard", "failure", "operator", "sensor", "flange", "motor")


class ZipfText:
    """Pseudo-text over a Zipf-distributed vocabulary of ``n_types`` words.

    Frequent ranks get short words, sentence lengths are log-uniform in
    [3, 45] words (mean about 15.5), so every scaling law has a series to fit.
    """

    def __init__(self, rng: random.Random, n_types: int, exponent: float = 1.05):
        self.rng = rng
        letter_cum = list(itertools.accumulate(_LETTER_WEIGHTS))
        vocab: list[str] = []
        seen: set[str] = set()
        while len(vocab) < n_types:
            length = 2 + int(9 * (len(vocab) / n_types) * rng.random()) + rng.randrange(3)
            word = "".join(rng.choices(_LETTERS, cum_weights=letter_cum, k=length))
            if word not in seen:
                seen.add(word)
                vocab.append(word)
        self.vocab = vocab
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** exponent for r in range(n_types)))

    def sentence_length(self) -> int:
        return int(round(math.exp(self.rng.uniform(math.log(3.0), math.log(45.0)))))

    def sentence(self, n_words: int) -> str:
        words = self.rng.choices(self.vocab, cum_weights=self.cum, k=n_words)
        mark = "." if self.rng.random() < 0.9 else ("!" if self.rng.random() < 0.5 else "?")
        return " ".join(words).capitalize() + mark

    def sentences(self, n_sentences: int) -> str:
        return " ".join(self.sentence(self.sentence_length()) for _ in range(n_sentences))

    def words(self, n_words: int) -> str:
        """Exactly ``n_words`` words; the last sentence is cut to fit."""
        out = []
        left = n_words
        while left > 0:
            k = min(self.sentence_length(), left)
            out.append(self.sentence(k))
            left -= k
        return " ".join(out)


def raw_records(seed: int, n_raws: int) -> list[dict]:
    """Short hazard-report-like raw examples, ids ``r000``, ``r001``, ..."""
    rng = random.Random(f"raws/{seed}")
    records = []
    for i in range(n_raws):
        sentences = []
        for _ in range(rng.randrange(3, 7)):
            k = rng.randrange(5, 20)
            sentences.append(" ".join(rng.choices(_RAW_NOUNS, k=k)).capitalize() + ".")
        records.append({"id": f"r{i:03d}", "text": " ".join(sentences), "label": str(i % 3)})
    return records


def replay_records(seed: int, raws: list[dict], n_instances: int, n_sentences: int,
                   n_types: int, request_key) -> list[dict]:
    """Recorded completions: ``n_instances`` long paraphrases per raw.

    ``request_key(raw_text)`` gives the request hash the CLI will look up for
    that raw; the k-th record under a hash serves slot k. Every sentence is
    drawn fresh, so sentence units practically never repeat.
    """
    text = ZipfText(random.Random(f"replay/{seed}"), n_types)
    records = []
    for raw in raws:
        key = request_key(raw["text"])
        for _ in range(n_instances):
            records.append({"request_hash": key, "completion": text.sentences(n_sentences)})
    return records


def book_records(seed: int, n_docs: int, words_per_doc: int, n_types: int) -> list[dict]:
    """A book-scale corpus split into ``n_docs`` documents of exactly
    ``words_per_doc`` words each, sharing one vocabulary."""
    text = ZipfText(random.Random(f"book/{seed}"), n_types)
    return [{"id": f"ch{i:02d}", "text": text.words(words_per_doc)} for i in range(n_docs)]


def write_jsonl(path, records) -> int:
    """Write records as JSON Lines; returns the number of bytes written."""
    data = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
