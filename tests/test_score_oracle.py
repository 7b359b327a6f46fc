"""Batch scoring against the per-instance scoring path it replaced.

The reference below scores one document at a time the way ``score_instance``
did before the n paraphrases of a raw example were scored as one batch:
scalar fits per law, scalar triangular membership per metric, and one
rule-base inference per instance (the fluctuation analysis, which batching
left as it was, is the library's). It keeps the flat-series R^2 rule of
``fit_metrics``, the one deliberate change.

``score_instances`` must agree with it to ``rel_tol=1e-9, abs_tol=1e-12`` on
every float, exactly on everything else, and select the same instances.
"""

import math
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zgptda.augment import (
    GenerationConfig,
    MockTransport,
    ScoredInstance,
    rank_instances,
    score_instance,
    score_instances,
    select_augmented,
)
from zgptda.corpus import Document, tokenize
from zgptda.fitkit import (_BENFORD_DESIGN, _BENFORD_PINV, EmpiricalSeries, FitMetrics, LawFit,
                           NotFittable)
from zgptda.laws import (
    LawReport,
    benford_series,
    ebeling_series,
    heaps_series,
    hilberg_series,
    menzerath_series,
    taylor_series,
    zipf_series,
)
from zgptda.mfdfa import HashedTrigramEmbedder, build_series, default_scales, fluctuation, profile
from zgptda.zscore import (
    A_SETS,
    B_CLAMP,
    B_SETS,
    GRADE_TABLES,
    METRIC_ORDER,
    RULES,
    S_SETS,
    WEIGHTS,
    Suitability,
    ZNumber,
)

REL_TOL = 1e-9
ABS_TOL = 1e-12


# --- the per-instance path --------------------------------------------------------

def ref_fit_metrics(p, q):
    ss_res = float(np.sum((p - q) ** 2))
    mean = p.mean()
    ss_tot = float(np.sum((p - mean) ** 2))
    resolution = p.size * (16 * np.finfo(float).eps * mean) ** 2
    if ss_tot <= resolution:
        r2 = 1.0 if ss_res <= resolution else 0.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))

    def normalize(v):
        v = v + 1e-12
        return v / v.sum()

    def kl(a, b):
        return float(np.sum(a * np.log(a / b)))

    pn, qn = normalize(p), normalize(q)
    m = 0.5 * (pn + qn)
    nz = p != 0
    return FitMetrics(
        r2=r2,
        kl=max(0.0, kl(pn, qn)),
        js=max(0.0, (0.5 * kl(pn, m) + 0.5 * kl(qn, m)) / math.log(2.0)),
        mape=float(np.mean(np.abs((q[nz] - p[nz]) / p[nz]))),
    )


def ref_fit_loglog(series):
    pos = series.y > 0
    if int(pos.sum()) < 3:
        raise NotFittable(f"{series.law or 'series'}: {int(pos.sum())} positive points, need 3")
    lx, ly = np.log(series.x[pos]), np.log(series.y[pos])
    dx = lx - lx.mean()
    slope = float(dx @ (ly - ly.mean()) / (dx @ dx))
    prefactor = float(np.exp(ly.mean() - slope * lx.mean()))
    fitted_y = prefactor * series.x ** slope
    return LawFit(exponent=slope, prefactor=prefactor, fitted_y=fitted_y,
                  metrics=ref_fit_metrics(series.y[pos], fitted_y[pos]))


def ref_fit_benford(f):
    if not np.any(f > 0):
        raise NotFittable("benford: all digit frequencies are zero")
    beta = _BENFORD_PINV @ np.log(np.where(f > 0, f, 1e-12))
    fitted = np.exp(_BENFORD_DESIGN @ beta)
    fitted = fitted / fitted.sum()
    return LawFit(exponent=float(-beta[1]), prefactor=float(np.exp(beta[0])), fitted_y=fitted,
                  metrics=ref_fit_metrics(f, fitted), secondary_exponent=float(beta[2] + 1.0))


def membership(mf, x):
    if x == mf.b:
        return 1.0
    if x <= mf.a or x >= mf.c:
        return 0.0
    if x < mf.b:
        return (x - mf.a) / (mf.b - mf.a)
    return (mf.c - x) / (mf.c - mf.b)


def ref_badness(kind, value):
    graded = max(1.0 - value if kind == "r2" else value, 0.0)
    sets = GRADE_TABLES[kind]
    apexes = [s.b for s in sets]
    graded = min(graded, apexes[2])
    degrees = [membership(s, graded) for s in sets]
    if sum(degrees) == 0.0:
        nearest = min(range(3), key=lambda i: (abs(graded - apexes[i]), i))
        degrees = [float(i == nearest) for i in range(3)]
    centroid = sum(d * p for d, p in zip(degrees, apexes)) / sum(degrees)
    return (centroid - apexes[0]) / (apexes[2] - apexes[0])


def ref_suitability(a_t, b_t):
    a_t, b_t = min(max(a_t, 0.0), 1.0), min(max(b_t, 0.0), B_CLAMP)
    levels = {name: 0.0 for name in S_SETS}
    for a_name, b_names, s_names in RULES:
        mu_b = 1.0 if b_names is None else max(membership(B_SETS[n], b_t) for n in b_names)
        for s_name in s_names:
            levels[s_name] = max(levels[s_name], min(membership(A_SETS[a_name], a_t), mu_b))
    x = np.linspace(0.0, 1.0, 1001)
    agg = np.zeros_like(x)
    for name, level in levels.items():
        mf = S_SETS[name]
        on_grid = np.array([membership(mf, v) for v in x.tolist()])
        agg = np.maximum(agg, np.minimum(level, on_grid))
    centroid = float(np.trapezoid(x * agg, x) / np.trapezoid(agg, x))
    return Suitability(s=1.0 - centroid, s_prime_centroid=centroid)


def ref_report(law, build, fit):
    try:
        series = build()
    except NotFittable as exc:
        return LawReport(law=law, series=None, detail=str(exc))
    try:
        return LawReport(law=law, series=series, fit=fit(series))
    except NotFittable as exc:
        return LawReport(law=law, series=series, detail=str(exc))


def ref_mandelbrot_series(doc):
    series = build_series(doc, HashedTrigramEmbedder())
    fluct = fluctuation(profile(series), default_scales(len(series)), [2.0])
    return EmpiricalSeries(fluct.scales.astype(float), fluct.values[0], law="mandelbrot")


def ref_score_instance(doc):
    ts = tokenize(doc)
    series_fns = [zipf_series, heaps_series, taylor_series, hilberg_series, ebeling_series,
                  menzerath_series, benford_series]
    reports = [ref_report(b.__name__[:-len("_series")], lambda b=b: b(ts),
                          lambda s: ref_fit_benford(s.y) if s.law == "benford" else ref_fit_loglog(s))
               for b in series_fns]
    reports.append(ref_report("mandelbrot", lambda: ref_mandelbrot_series(doc), ref_fit_loglog))
    vectors = []
    for r in reports:
        if r.fittable:
            badness = np.array([ref_badness(k, getattr(r.fit.metrics, k)) for k in METRIC_ORDER])
            vectors.append((abs(float(WEIGHTS @ badness)), float(badness.std())))
    if vectors:
        z = ZNumber(a_t=float(np.mean([a for a, _ in vectors])),
                    b_t=float(np.mean([b for _, b in vectors])), laws_used=len(vectors))
        suit = ref_suitability(z.a_t, z.b_t)
    else:
        z, suit = None, Suitability(s=0.0, s_prime_centroid=1.0)
    return ScoredInstance(instance=doc, law_reports=reports, z=z, suitability=suit)


# --- comparison -------------------------------------------------------------------

def assert_same(actual, expected, path="", exact=False):
    """Floats within the tolerance (or equal when `exact`), all else equal."""
    if is_dataclass(expected):
        assert type(actual) is type(expected), path
        for f in fields(expected):
            assert_same(getattr(actual, f.name), getattr(expected, f.name), f"{path}.{f.name}", exact)
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_same(a, e, f"{path}[{i}]", exact)
    elif isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray) and actual.shape == expected.shape, path
        assert_same(actual.tolist(), expected.tolist(), path, exact)
    elif isinstance(expected, float):
        assert isinstance(actual, float), (path, actual)
        if exact or not math.isfinite(expected):
            assert actual == expected or (math.isnan(actual) and math.isnan(expected)), path
        else:
            assert math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL), (path, actual, expected)
    else:
        assert actual == expected, (path, actual, expected)


def mock_text(prompt, slot, n_sentences):
    """A mock completion cut to its first `n_sentences` sentences."""
    text = MockTransport(seed=0).complete(prompt, GenerationConfig(), slot=slot)
    sentences = [s for s in text.replace("!", ".").replace("?", ".").split(".") if s.strip()]
    return ". ".join(sentences[:n_sentences]) + "."


documents = st.one_of(
    st.builds(mock_text, st.sampled_from(["raw a", "raw b", "raw c"]), st.integers(0, 9),
              st.integers(1, 16)),
    st.sampled_from([
        "pump failed now.",                        # most laws unfittable
        "The valve stuck. The valve stuck open!",  # too short for the fluctuation
        "one two three four five six seven eight nine ten eleven twelve",  # one sentence
        "",                                        # no signal
    ]),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(documents, min_size=1, max_size=8))
def test_batch_matches_per_instance_path(texts):
    docs = [Document(id=f"raw#gen{k + 1}", text=t) for k, t in enumerate(texts)]
    actual = score_instances(docs)
    expected = [ref_score_instance(d) for d in docs]
    assert_same(actual, expected)
    for fraction in (0.3, 0.5, 1.0):
        assert ([i.instance.id for i in select_augmented(rank_instances(actual), fraction)]
                == [i.instance.id for i in select_augmented(rank_instances(expected), fraction)])


def test_mock_raw_example_matches_per_instance_path():
    transport = MockTransport(seed=3)
    docs = [Document(id=f"r#gen{k + 1}", text=transport.complete("raw", GenerationConfig(), slot=k))
            for k in range(10)]
    actual = score_instances(docs)
    expected = [ref_score_instance(d) for d in docs]
    # each batch sum rounds as the per-instance sum it replaced, so nothing moves at all
    assert_same(actual, expected, exact=True)


@pytest.mark.parametrize("text", [
    "",
    "pump failed now.",
    MockTransport(seed=1).complete("raw", GenerationConfig(), slot=2),
])
def test_one_document_is_the_batch_of_one(text):
    doc = Document(id="d", text=text)
    batch = score_instances([Document(id="x", text="The valve stuck."), doc])
    assert_same(score_instance(doc), score_instances([doc])[0], exact=True)
    assert_same(score_instance(doc), batch[1], exact=True)


def test_empty_batch():
    assert score_instances([]) == []
