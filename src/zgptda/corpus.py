"""Dataset ingestion and deterministic tokenization.

Input datasets are JSON Lines files, one object per line:
``{"id": str, "text": str, "label": str?}``, UTF-8 encoded.

Tokenization rules (fixed so every downstream statistic is reproducible):

* words: maximal runs of non-decimal alphanumeric characters (``²`` and ``½`` too), case-folded
* sentences: split on runs of ``.``, ``!``, ``?``; sentences without words dropped
* chars: the letters (``str.isalpha``) of the text in order, case preserved
"""

import json
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress

import numpy as np

__all__ = [
    "Document",
    "TokenStream",
    "LoadError",
    "load_jsonl",
    "tokenize",
    "first_digits",
]

# characters of sentence segments whose words are found and coded at a time
_RUN_CHARS = 2 ** 16


class LoadError(Exception):
    """Raised when a dataset file violates the JSONL contract."""


@dataclass(frozen=True)
class Document:
    """One text with a stable id and an optional classification label."""

    id: str
    text: str
    label: str | None = None


@dataclass
class TokenStream:
    """Word, sentence-length, and character sequences derived from one text.

    ``codes`` holds one int64 code per word, indexing ``types``, the folded
    word types in order of first occurrence; ``sentences`` holds the word
    count of each sentence in document order, so ``sum(sentences) ==
    codes.size``; ``sentence_texts`` holds their texts.
    """

    codes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    types: list[str] = field(default_factory=list)
    sentences: list[int] = field(default_factory=list)
    chars: str = ""
    sentence_texts: list[str] = field(default_factory=list)

    @property
    def words(self) -> list[str]:
        """The folded word of each occurrence, built anew on each access."""
        return list(map(self.types.__getitem__, self.codes.tolist()))


def tokenize(doc: Document) -> TokenStream:
    """Derive the token streams of a document.

    Pure function of the input bytes; empty text yields empty streams.
    """
    # each terminator becomes "."; a run of them leaves empty segments, which hold no words
    segments = doc.text.translate(str.maketrans("!?", "..")).split(".")
    # every character but "." that a word cannot hold becomes a space
    gaps = {ord(c): " " for c in set(doc.text) if c != "." and (not c.isalnum() or c.isdecimal())}
    ends = list(accumulate(map(len, segments)))
    sentences, sentence_texts, runs = [], [], []
    # each distinct word of a run is folded once, its type numbered by first occurrence
    index: dict[str, int] = {}
    codes = array("q")
    lo = 0
    while lo < len(segments):
        # the segments within _RUN_CHARS characters of this one, or it alone
        hi = max(bisect_right(ends, ends[lo] - len(segments[lo]) + _RUN_CHARS), lo + 1)
        run = segments[lo:hi]
        per_segment = list(map(str.split, ".".join(run).translate(gaps).split(".")))
        sentence_texts += compress(run, per_segment)
        sentences += filter(None, map(len, per_segment))
        found = list(chain.from_iterable(per_segment))
        letters = "".join(found)
        # words also hold non-decimal numerals such as ² and ½, which chars leaves out
        runs.append(letters if letters.isalpha() else "".join(filter(str.isalpha, letters)))
        code = {w: index.setdefault(w.casefold(), len(index)) for w in dict.fromkeys(found)}
        codes.fromlist(list(map(code.__getitem__, found)))
        lo = hi
    return TokenStream(codes=np.frombuffer(codes, np.int64), types=list(index), sentences=sentences,
                       chars="".join(runs), sentence_texts=sentence_texts)


def load_jsonl(path) -> list[Document]:
    """Load a JSONL dataset, preserving input order.

    Raises:
        LoadError: malformed JSON, missing ``id``/``text``, or duplicate id;
            the message names the offending 1-based line number.
    """
    docs: list[Document] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LoadError(f"{path}: line {lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise LoadError(f"{path}: line {lineno}: expected a JSON object")
            if "id" not in obj or not isinstance(obj["id"], str) or not obj["id"]:
                raise LoadError(f"{path}: line {lineno}: missing or empty 'id'")
            if "text" not in obj or not isinstance(obj["text"], str):
                raise LoadError(f"{path}: line {lineno}: missing 'text'")
            if obj["id"] in seen:
                raise LoadError(f"{path}: line {lineno}: duplicate id {obj['id']!r}")
            seen.add(obj["id"])
            label = obj.get("label")
            if label is not None and not isinstance(label, str):
                raise LoadError(f"{path}: line {lineno}: 'label' must be a string")
            docs.append(Document(id=obj["id"], text=obj["text"], label=label))
    return docs


def first_digits(values) -> list[int]:
    """Leading decimal digit of each positive integer, order preserved."""
    digits: list[int] = []
    for v in values:
        if v < 1:
            raise ValueError(f"first_digits requires values >= 1, got {v}")
        digits.append(int(str(int(v))[0]))
    return digits
