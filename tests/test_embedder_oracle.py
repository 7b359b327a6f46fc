"""The hashed-trigram embedder against a plain-Python reference.

The reference below embeds one unit at a time: it hashes every UTF-8 byte
trigram of the unit (the whole unit when it is 1 or 2 bytes long) into one
of 64 buckets, counts them and L2-normalises the counts. Every vector the
library builds, and every series ``build_series`` reduces them to, must
equal the reference byte for byte.
"""

import hashlib
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zgptda import mfdfa
from zgptda.augment import GenerationConfig, MockTransport
from zgptda.corpus import Document, tokenize
from zgptda.mfdfa import (EmbeddingProvider, HashedTrigramEmbedder, ProviderError, build_series,
                          build_series_many)


def ref_bucket(gram: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(gram, digest_size=8).digest(), "big") % 64


def ref_embed(unit: str) -> np.ndarray:
    data = unit.encode("utf-8")
    vec = np.zeros(64)
    if len(data) >= 3:
        grams = [data[i : i + 3] for i in range(len(data) - 2)]
    elif data:
        grams = [data]
    else:
        return vec
    for gram in grams:
        vec[ref_bucket(gram)] += 1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


class ReferenceEmbedder(EmbeddingProvider):
    """`ref_embed` behind the base class's per-unit `unit_vectors`."""

    provider_id = HashedTrigramEmbedder.provider_id
    dimension = 64

    def embed(self, text_unit):
        return ref_embed(text_unit)


def ref_vectors(units) -> np.ndarray:
    return ReferenceEmbedder().unit_vectors(None, units)


DOC = Document(id="d", text="")

# 1- and 2-byte units next to trigrams that contain the same bytes, so a
# short-unit code that collides with a trigram code shows up
EDGE_UNITS = ["", "a", "ab", "\x00ab", "ab\x00", "a\x00", "\x00", "a.b", ".", "x\x00y",
              "日本", "日", "é", "😀", "abc", "abcabc", " ", "a b"]
_CHARS = list("abc .!?\x00") + ["é", "日", "😀", "́", "\x7f", "ÿ"]
unit_strategy = st.one_of(st.sampled_from(EDGE_UNITS), st.text(alphabet=_CHARS, max_size=12))


def mock_text(n_completions: int) -> str:
    transport = MockTransport(seed=7)
    cfg = GenerationConfig()
    return " ".join(transport.complete("prompt", cfg, slot=k) for k in range(n_completions))


def test_edge_units_match_reference():
    vectors = HashedTrigramEmbedder().unit_vectors(DOC, EDGE_UNITS)
    assert vectors.shape == (len(EDGE_UNITS), 64)
    assert vectors.tobytes() == ref_vectors(EDGE_UNITS).tobytes()


def test_no_units():
    vectors = HashedTrigramEmbedder().unit_vectors(DOC, [])
    assert vectors.shape == (0, 64)


@settings(max_examples=200, deadline=None)
@given(st.lists(unit_strategy, max_size=40))
def test_random_units_match_reference(units):
    vectors = HashedTrigramEmbedder().unit_vectors(DOC, units)
    assert vectors.tobytes() == ref_vectors(units).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(unit_strategy, max_size=15), max_size=6))
def test_one_embedder_across_documents_matches_reference(docs):
    # grams seen in one document are looked up, not hashed, in the next
    embedder = HashedTrigramEmbedder()
    for units in docs:
        assert embedder.unit_vectors(DOC, units).tobytes() == ref_vectors(units).tobytes()


@pytest.mark.parametrize("unit", EDGE_UNITS)
def test_embed_matches_reference(unit):
    assert HashedTrigramEmbedder().embed(unit).tobytes() == ref_embed(unit).tobytes()


@pytest.mark.parametrize("n_completions", [1, 40])
def test_mock_text_series_matches_reference(n_completions):
    # one completion has fewer than 64 sentences (word units), forty have more
    doc = Document(id="mock", text=mock_text(n_completions))
    got = build_series(doc, HashedTrigramEmbedder())
    want = build_series(doc, ReferenceEmbedder())
    assert got.source == want.source
    assert got.values.tobytes() == want.values.tobytes()


def test_books_match_reference(book_a, book_b):
    embedder = HashedTrigramEmbedder()
    for doc in (book_a, book_b):
        got = build_series(doc, embedder)
        want = build_series(doc, ReferenceEmbedder())
        assert got.source == want.source
        assert got.values.tobytes() == want.values.tobytes()


def test_unencodable_unit_names_its_index():
    # a lone surrogate, as a "\ud800" JSON escape decodes to
    with pytest.raises(ProviderError, match="unit 2"):
        HashedTrigramEmbedder().unit_vectors(DOC, ["ok", "fine", "bad \ud800 unit", "ok"])


def per_text_means(units_per_doc):
    return [HashedTrigramEmbedder().unit_vectors(DOC, units).mean(axis=1) for units in units_per_doc]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(unit_strategy, max_size=15), max_size=6))
def test_unit_means_match_per_text_unit_vectors(units_per_doc):
    got = HashedTrigramEmbedder().unit_means([DOC] * len(units_per_doc), units_per_doc)
    assert [m.tobytes() for m in got] == [m.tobytes() for m in per_text_means(units_per_doc)]


@pytest.mark.parametrize("n_completions, kind", [(1, "word"), (40, "sentence")])
def test_batch_series_match_per_text(n_completions, kind):
    # word units repeat within and across the texts; sentence units do not
    docs = [Document(id=f"m{k}", text=mock_text(n_completions) + " extra" * k) for k in range(4)]
    tss = [tokenize(doc) for doc in docs]
    got = build_series_many(docs, HashedTrigramEmbedder(), tss)
    units = [ts.words if kind == "word" else ts.sentence_texts for ts in tss]
    assert {s.source.rsplit("/", 1)[-1] for s in got} == {kind}
    assert [s.values.tobytes() for s in got] == [m.tobytes() for m in per_text_means(units)]
    for doc, series in zip(docs, got):
        assert series.values.tobytes() == build_series(doc, ReferenceEmbedder()).values.tobytes()


def test_unencodable_unit_in_a_batch_names_its_index_in_its_text():
    units_per_doc = [["ok", "fine"], ["a", "b", "c"], ["c", "d", "bad \ud800 unit", "e"]]
    with pytest.raises(ProviderError, match="unit 2$"):
        HashedTrigramEmbedder().unit_means([DOC] * 3, units_per_doc)


# units longer than the smaller blocks below, drawn from one pool so that
# units repeat within and across documents
_LONG_UNITS = st.text(alphabet=_CHARS, min_size=6, max_size=80)
pooled_docs = st.lists(st.one_of(unit_strategy, _LONG_UNITS), min_size=1, max_size=10).flatmap(
    lambda pool: st.lists(st.lists(st.sampled_from(pool), max_size=12), max_size=5))


def spy_blocks(embedder):
    """Record the units of every `unit_vectors` call of `embedder`."""
    calls, unit_vectors = [], embedder.unit_vectors
    embedder.unit_vectors = lambda doc, units: calls.append(list(units)) or unit_vectors(doc, units)
    return calls


@pytest.mark.parametrize("block_chars", [1, 5, 64])
@settings(max_examples=60, deadline=None)
@given(pooled_docs)
def test_unit_means_in_blocks_match_reference(block_chars, units_per_doc):
    embedder = HashedTrigramEmbedder()
    calls = spy_blocks(embedder)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mfdfa, "_EMBED_BLOCK_CHARS", block_chars)
        got = embedder.unit_means([DOC] * len(units_per_doc), units_per_doc)
    want = [ref_vectors(units).mean(axis=1) for units in units_per_doc]
    assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
    # the distinct units in order, each block as long as the budget allows
    # and a longer unit alone
    assert sum(calls, []) == list(dict.fromkeys(u for units in units_per_doc for u in units))
    for block, after in zip(calls, calls[1:]):
        assert sum(map(len, block)) <= block_chars or len(block) == 1
        assert sum(map(len, block)) + len(after[0]) > block_chars


@pytest.mark.parametrize("block_chars", [1, 5, 64])
def test_unencodable_unit_in_a_later_block_names_its_index_in_its_text(block_chars, monkeypatch):
    monkeypatch.setattr(mfdfa, "_EMBED_BLOCK_CHARS", block_chars)
    units_per_doc = [["ok", "fine"], ["a" * 70, "b", "c"], ["c", "d", "bad \ud800 unit", "e"]]
    embedder = HashedTrigramEmbedder()
    calls = spy_blocks(embedder)
    with pytest.raises(ProviderError, match="unit 2$"):
        embedder.unit_means([DOC] * 3, units_per_doc)
    assert "bad \ud800 unit" not in calls[0]


def test_gram_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(mfdfa, "_GRAM_CACHE_MAX", 12)
    embedder = HashedTrigramEmbedder()
    docs = [
        ["abcdef", "a"],             # 5 grams: cached
        ["abcdefgh", "ab"],          # 3 more: cached
        ["ijklmnopq", "abc"],        # 7 more would make 15: restart from these 8
        ["abcdefghijklmnopqrstu"],   # 19 grams: restart from the 12 lowest codes
        ["ijk"],                     # one of them
    ]
    sizes = []
    for units in docs:
        assert embedder.unit_vectors(DOC, units).tobytes() == ref_vectors(units).tobytes()
        keys, buckets = embedder._gram_cache
        assert keys.size == buckets.size <= 12
        assert np.all(np.diff(keys) > 0)
        sizes.append(keys.size)
    assert sizes == [5, 8, 8, 12, 12]


def test_shared_embedder_across_threads(monkeypatch):
    # a small cache restarts often, so readers race with replacements
    monkeypatch.setattr(mfdfa, "_GRAM_CACHE_MAX", 64)
    embedder = HashedTrigramEmbedder()
    rng = random.Random(5)
    docs = [[rng.choice(EDGE_UNITS) + rng.choice("abcdef") * rng.randrange(6) for _ in range(30)]
            for _ in range(24)]
    expected = [ref_vectors(units).tobytes() for units in docs]
    mismatches = []

    def work(offset):
        for _ in range(20):
            for k in range(offset, len(docs), 6):
                if embedder.unit_vectors(DOC, docs[k]).tobytes() != expected[k]:
                    mismatches.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
