import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zgptda.corpus import (
    Document,
    LoadError,
    first_digits,
    load_jsonl,
    tokenize,
)


def write_jsonl(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadJsonl:
    def test_three_valid_lines_in_order(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [
            json.dumps({"id": "a", "text": "one"}),
            json.dumps({"id": "b", "text": "two", "label": "x"}),
            json.dumps({"id": "c", "text": "three"}),
        ])
        docs = load_jsonl(path)
        assert [d.id for d in docs] == ["a", "b", "c"]
        assert docs[1].label == "x"
        assert docs[0].label is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_jsonl(path) == []

    def test_missing_text_cites_line(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [
            json.dumps({"id": "a", "text": "one"}),
            json.dumps({"id": "b"}),
        ])
        with pytest.raises(LoadError, match="line 2"):
            load_jsonl(path)

    def test_malformed_json_cites_line(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [
            json.dumps({"id": "a", "text": "one"}),
            "{not json",
        ])
        with pytest.raises(LoadError, match="line 2"):
            load_jsonl(path)

    def test_duplicate_id_fatal(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [
            json.dumps({"id": "a", "text": "one"}),
            json.dumps({"id": "a", "text": "two"}),
        ])
        with pytest.raises(LoadError, match="duplicate id"):
            load_jsonl(path)

    def test_text_preserved_byte_exact(self, tmp_path):
        text = "  Ünïcode — with\ttabs and  spaces.  "
        path = write_jsonl(tmp_path / "d.jsonl", [json.dumps({"id": "a", "text": text})])
        assert load_jsonl(path)[0].text == text


class TestTokenize:
    def test_hand_example(self):
        ts = tokenize(Document(id="x", text="The pump failed. Restart it!"))
        assert ts.words == ["the", "pump", "failed", "restart", "it"]
        assert ts.sentences == [3, 2]
        assert ts.chars == "ThepumpfailedRestartit"

    def test_empty_text(self):
        ts = tokenize(Document(id="x", text=""))
        assert ts.words == [] and ts.sentences == [] and ts.chars == ""

    def test_case_folding(self):
        assert tokenize(Document(id="x", text="ABC abc")).words == ["abc", "abc"]

    def test_punctuation_runs_collapse(self):
        ts = tokenize(Document(id="x", text="Wait... what?! Now."))
        assert ts.sentences == [1, 1, 1]

    def test_numerals_not_word_tokens(self):
        ts = tokenize(Document(id="x", text="room 101 is hot."))
        assert ts.words == ["room", "is", "hot"]
        assert ts.chars == "roomishot"

    def test_unicode_words(self):
        ts = tokenize(Document(id="x", text="Café naïve Zürich."))
        assert ts.words == ["café", "naïve", "zürich"]

    def test_concat_property(self):
        a, b = "the pump failed", "restart the unit"
        combined = tokenize(Document(id="x", text=a + ". " + b))
        assert combined.words == (
            tokenize(Document(id="a", text=a)).words + tokenize(Document(id="b", text=b)).words
        )

    @given(st.text(max_size=300))
    def test_sentence_counts_partition_words(self, text):
        ts = tokenize(Document(id="x", text=text))
        assert sum(ts.sentences) == len(ts.words)
        assert all(w and not w.isspace() for w in ts.words)
        assert all(c.isalpha() for c in ts.chars)

    @given(st.text(max_size=300))
    def test_pure_function(self, text):
        d = Document(id="x", text=text)
        first, second = tokenize(d), tokenize(d)
        assert first.words == second.words
        assert first.sentences == second.sentences
        assert first.chars == second.chars

    def test_split_sentences_keeps_wordful_segments(self):
        assert tokenize(Document("x", "One two. ... Three!")).sentence_texts == ["One two", " Three"]


class TestFirstDigits:
    def test_hand_examples(self):
        assert first_digits([12, 7, 305]) == [1, 7, 3]
        assert first_digits([9]) == [9]
        assert first_digits([1000]) == [1]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            first_digits([0])
        with pytest.raises(ValueError):
            first_digits([5, -1])

    @given(st.lists(st.integers(min_value=1, max_value=10**12), max_size=50))
    def test_range_and_length(self, values):
        digits = first_digits(values)
        assert len(digits) == len(values)
        assert all(1 <= d <= 9 for d in digits)
