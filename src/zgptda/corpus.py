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
from itertools import chain

import numpy as np

__all__ = [
    "Document",
    "TokenStream",
    "LoadError",
    "load_jsonl",
    "tokenize",
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
    segments = _SENT_RE.split(doc.text)
    per_segment = [_WORD_RE.findall(seg) for seg in segments]
    sentence_texts = [seg for seg, seg_words in zip(segments, per_segment) if seg_words]
    sentences = [len(seg_words) for seg_words in per_segment if seg_words]
    found = list(chain.from_iterable(per_segment))
    chars = "".join(found)
    # the word pattern also matches non-decimal numerals such as ² and ½
    if not chars.isalpha():
        chars = "".join(c for c in doc.text if c.isalpha())
    # each distinct match is folded once and its type numbered by first occurrence
    index: dict[str, int] = {}
    code = {w: index.setdefault(w.casefold(), len(index)) for w in dict.fromkeys(found)}
    codes = np.fromiter(map(code.__getitem__, found), np.int64, len(found))
    return TokenStream(codes=codes, types=list(index), sentences=sentences, chars=chars,
                       sentence_texts=sentence_texts)


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
