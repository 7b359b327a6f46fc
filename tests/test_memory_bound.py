"""Peak memory of the steps of ``analyze`` that once grew with the corpus.

``tracemalloc`` counts NumPy's array buffers as well as Python objects, so
its peak over one call is the call's own working memory; the inputs are
built before tracing starts. The embedder holds one block of units at a
time, so its peak does not grow with the corpus. taylor's count table is
filled one block of types at a time, so its peak grows only by the few
int64 arrays of one entry per word it sorts. Each bound leaves room above
what the step needs today (about 6 and 9 MB); the steps before blocking
needed about 75 and 35 MB on these inputs.

A token stream keeps one int64 code per word and each word type once. The
bound on what a stream retains per word once its codes exist (about 21
bytes today: codes, letters and sentence texts) fails a stream that also
keeps a string reference per word, which took about 30.
"""

import tracemalloc

import numpy as np

from tests.conftest import synth_book, token_stream
from zgptda.corpus import Document, tokenize
from zgptda.laws import taylor_series
from zgptda.mfdfa import HashedTrigramEmbedder

EMBED_BOUND_MB = 10
TAYLOR_BOUND_MB = 16
STREAM_BOUND_BYTES_PER_WORD = 26


def peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_embedder_peak_is_bounded():
    units = tokenize(Document(id="book", text=synth_book(seed=303, n_sentences=14000))).sentence_texts
    assert sum(map(len, units)) > 1_000_000
    assert peak_mb(lambda: HashedTrigramEmbedder().unit_means([None], [units])) < EMBED_BOUND_MB


def test_taylor_peak_is_bounded():
    # 200,000 words over 20,000 Zipf-distributed types: 2,000 segments of 100
    rng = np.random.default_rng(0)
    weights = 1.0 / np.arange(1, 20001) ** 1.05
    ts = token_stream([f"w{k}" for k in rng.choice(20000, 200_000, p=weights / weights.sum())])
    assert peak_mb(lambda: taylor_series(ts)) < TAYLOR_BOUND_MB


def test_token_stream_retention_is_bounded():
    doc = Document(id="book", text=synth_book(seed=303, n_sentences=14000))
    tracemalloc.start()
    try:
        ts = tokenize(doc)
        ts.codes  # the codes the law builders read, if a stream built them lazily
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ts.codes.size == 217_639
    assert retained / ts.codes.size < STREAM_BOUND_BYTES_PER_WORD
