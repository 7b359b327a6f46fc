"""Dataset ingestion and deterministic tokenization.

Input datasets are JSON Lines files, one object per line:
``{"id": str, "text": str, "label": str?}``, UTF-8 encoded.

Tokenization rules (fixed so every downstream statistic is reproducible):

* words: maximal runs of Unicode alphabetic characters, case-folded
* sentences: split on runs of ``.``, ``!``, ``?``; empty sentences dropped
* chars: the alphabetic characters of the text in order, case preserved
"""

import json
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Document",
    "TokenStream",
    "LoadError",
    "load_jsonl",
    "tokenize",
    "split_sentences",
    "word_tokens",
    "first_digits",
]

# alphabetic-only: \w minus digits and underscore
_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
_SENT_RE = re.compile(r"[.!?]+")


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

    ``sentences`` holds the word count of each sentence in document order,
    so ``sum(sentences) == len(words)``.
    """

    words: list[str] = field(default_factory=list)
    sentences: list[int] = field(default_factory=list)
    chars: str = ""

    @cached_property
    def codes(self) -> np.ndarray:
        """One int64 code per word, word types numbered 0, 1, ... by first occurrence."""
        index: dict[str, int] = {}
        return np.fromiter((index.setdefault(w, len(index)) for w in self.words), np.int64)


def word_tokens(text: str) -> list[str]:
    """Case-folded maximal alphabetic runs, in document order."""
    return [m.group(0).casefold() for m in _WORD_RE.finditer(text)]


def split_sentences(text: str) -> list[str]:
    """Sentence fragments of `text` that contain at least one word token."""
    return [seg for seg in _SENT_RE.split(text) if _WORD_RE.search(seg)]


def tokenize(doc: Document) -> TokenStream:
    """Derive the token streams of a document.

    Pure function of the input bytes; empty text yields empty streams.
    """
    words: list[str] = []
    sentences: list[int] = []
    for seg in split_sentences(doc.text):
        seg_words = word_tokens(seg)
        words.extend(seg_words)
        sentences.append(len(seg_words))
    chars = "".join(c for c in doc.text if c.isalpha())
    return TokenStream(words=words, sentences=sentences, chars=chars)


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
