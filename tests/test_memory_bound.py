"""Peak memory of the steps of ``analyze`` that once grew with the corpus.

``tracemalloc`` counts NumPy's array buffers as well as Python objects, so
its peak over one call is the call's own working memory; the inputs are
built before tracing starts. The embedder holds one block of units at a
time, so its peak does not grow with the corpus. taylor sums over the
nonzero cells of its count table and holds no dense table, so its peak is
the few int64 arrays of one entry per word it sorts. Each bound leaves
room above what the step needs today (about 6 and 7 MB; taylor took 9
when it filled its table a block of types at a time); the steps before
blocking needed about 75 and 35 MB on these inputs.

On the book of 217,639 words and 787,697 letters below, ``tokenize`` finds
and codes the words of a run of segments at a time, so no string per word
of the whole text is alive at once (about 8 MB today, 21 before);
``ebeling_series_many`` counts the runs of its position order a slice of
whole character groups at a time (about 11 MB, 36 before); and
``hilberg_series_many`` sorts only the blocks whose prefix repeats and frees
each temporary of a block size's sort as it dies (about 10 MB; 12 when it
sorted every block, 19 before it freed them).

``ebeling_series_many`` keys each (text, character) pair by the rank of
the character's code point among the batch's, so one astral letter in a
batch of augment-sized texts costs what any letter does (about 0.6 MB, 90
before, when the keys spanned every code point up to the largest).

``augment`` writes each raw example's run as soon as it is scored and keeps
none of its scored instances after, so its peak is that of one scoring
batch, whatever the number of raw examples: 10 and 40 raws of 10 mock
paraphrases peak at about 6.3 and 7.0 MB, where holding every run to the
end took 6.3 and 12 to 15 (the garbage collector freed some of it).

A token stream keeps one int64 code per word and each word type once. The
bound on what a stream retains per word (about 21 bytes today: codes,
letters and sentence texts) fails a stream that also keeps a string
reference per word, which took about 30.
"""

import tracemalloc

import numpy as np
import pytest

from tests.conftest import make_raw_dataset, synth_book, token_stream
from zgptda.cli import main
from zgptda.corpus import Document, tokenize
from zgptda.laws import ebeling_series_many, hilberg_series_many, taylor_series
from zgptda.mfdfa import HashedTrigramEmbedder

EMBED_BOUND_MB = 10
TAYLOR_BOUND_MB = 16
TOKENIZE_BOUND_MB = 12
EBELING_BOUND_MB = 16
EBELING_ASTRAL_BOUND_MB = 8
AUGMENT_GROWTH_BOUND_MB = 2
HILBERG_BOUND_MB = 15
STREAM_BOUND_BYTES_PER_WORD = 26


def peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def book():
    return Document(id="book", text=synth_book(seed=303, n_sentences=14000))


@pytest.fixture(scope="module")
def book_stream(book):
    ts = tokenize(book)
    assert (ts.codes.size, len(ts.chars)) == (217_639, 787_697)
    return ts


def test_embedder_peak_is_bounded(book_stream):
    units = book_stream.sentence_texts
    assert sum(map(len, units)) > 1_000_000
    assert peak_mb(lambda: HashedTrigramEmbedder().unit_means([None], [units])) < EMBED_BOUND_MB


def test_taylor_peak_is_bounded():
    # 200,000 words over 20,000 Zipf-distributed types: 2,000 segments of 100
    rng = np.random.default_rng(0)
    weights = 1.0 / np.arange(1, 20001) ** 1.05
    ts = token_stream([f"w{k}" for k in rng.choice(20000, 200_000, p=weights / weights.sum())])
    assert peak_mb(lambda: taylor_series(ts)) < TAYLOR_BOUND_MB


def test_tokenize_peak_is_bounded(book):
    assert peak_mb(lambda: tokenize(book)) < TOKENIZE_BOUND_MB


def test_ebeling_peak_is_bounded(book_stream):
    assert peak_mb(lambda: ebeling_series_many([book_stream])) < EBELING_BOUND_MB


def test_ebeling_peak_with_an_astral_letter_is_bounded():
    # 84 augment-sized texts of 115 letters, one of them with U+1D400
    base = "alpha beta gamma delta epsilon zeta eta theta " * 3
    tss = [tokenize(Document(id=str(k), text=base + ("\U0001d400" if k == 0 else "x"))) for k in range(84)]
    assert peak_mb(lambda: ebeling_series_many(tss)) < EBELING_ASTRAL_BOUND_MB


def test_augment_peak_barely_grows_with_the_raws(tmp_path):
    def augment(n_raws):
        raws = make_raw_dataset(tmp_path / f"raws{n_raws}.jsonl", n=n_raws, seed=1)
        return lambda: main(["augment", str(raws), "--out", str(tmp_path / f"a{n_raws}.jsonl"),
                             "--scores", str(tmp_path / f"s{n_raws}.json")])

    augment(1)()  # what the first command of a process allocates once is not counted
    small, large = peak_mb(augment(10)), peak_mb(augment(40))
    assert large - small < AUGMENT_GROWTH_BOUND_MB, (small, large)


def test_hilberg_peak_is_bounded(book_stream):
    assert peak_mb(lambda: hilberg_series_many([book_stream])) < HILBERG_BOUND_MB


def test_token_stream_retention_is_bounded(book):
    tracemalloc.start()
    try:
        ts = tokenize(book)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ts.codes.size == 217_639
    assert retained / ts.codes.size < STREAM_BOUND_BYTES_PER_WORD
