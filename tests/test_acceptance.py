"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Derived expectations were computed with the independent
oracles below (closed forms, linearized least squares, a loop-based Mamdani
reference) before the package internals existed; published benchmark values
that would require multi-million-word corpora, a neural embedding model, and
live GPT-4 generations are out of reach for a hermetic suite and are noted
in the README instead of asserted here.
"""

import math
import time

import numpy as np
import pytest

from zgptda.augment import (
    GenerationConfig,
    MockTransport,
    compare_corpora,
    emit_dataset,
    run_augmentation,
)
from zgptda.corpus import Document
from zgptda.fitkit import ConformityVerdict, EmpiricalSeries, FitMetrics, fit_benford, fit_loglog, fit_metrics
from zgptda.laws import zipf_series
from zgptda.mfdfa import ScalarSeries, default_scales, fluctuation, mandelbrot_conformity, profile, run_mfdfa
from zgptda.zscore import (
    B_CLAMP,
    TriMF,
    ZNumber,
    aggregate,
    grade_metric,
    infer_suitability,
    law_vector,
)

from tests.conftest import synth_book, token_stream


def verdict(criterion: int, ok: bool, detail: str):
    print(f"[ACCEPTANCE {criterion:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# independent reference implementation of the fuzzy inference, written before
# the package module and kept free of any shared code (plain loops)
# ---------------------------------------------------------------------------

class ReferenceMamdani:
    A_SETS = {"low": (0.0, 0.0, 0.3), "medium": (0.2, 0.5, 0.8), "high": (0.7, 1.0, 1.0)}
    B_SETS = {"low": (0.0, 0.0, 0.1), "medium": (0.05, 0.15, 0.25), "high": (0.2, 0.5, 0.5)}
    S_SETS = {"low": (0.0, 0.0, 0.35), "medium": (0.25, 0.5, 0.75), "high": (0.65, 1.0, 1.0)}
    RULES = [
        ("high", None, ("high",)),
        ("medium", ("medium", "low"), ("medium",)),
        ("low", ("high",), ("low", "medium")),
        ("low", ("low", "medium"), ("low",)),
        ("medium", ("high",), ("medium",)),
    ]

    @staticmethod
    def tri(x, a, b, c):
        if x == b:
            return 1.0
        if x <= a or x >= c:
            return 0.0
        if x < b:
            return (x - a) / (b - a)
        return (c - x) / (c - b)

    @classmethod
    def suitability(cls, a_t, b_t, npts=1001):
        a_t = min(max(a_t, 0.0), 1.0)
        b_t = min(max(b_t, 0.0), 0.5)
        levels = {"low": 0.0, "medium": 0.0, "high": 0.0}
        for a_name, b_names, s_names in cls.RULES:
            mu_a = cls.tri(a_t, *cls.A_SETS[a_name])
            mu_b = 1.0 if b_names is None else max(cls.tri(b_t, *cls.B_SETS[n]) for n in b_names)
            w = min(mu_a, mu_b)
            for name in s_names:
                levels[name] = max(levels[name], w)
        xs = [i / (npts - 1) for i in range(npts)]
        mu = [max(min(levels[n], cls.tri(x, *cls.S_SETS[n])) for n in cls.S_SETS) for x in xs]
        num = den = 0.0
        for i in range(npts - 1):
            h = xs[i + 1] - xs[i]
            num += h * (xs[i] * mu[i] + xs[i + 1] * mu[i + 1]) / 2.0
            den += h * (mu[i] + mu[i + 1]) / 2.0
        return 1.0 - num / den


# regression anchors, frozen from ReferenceMamdani before the main build
S_REF_PERFECT = 0.8833342857142857
S_REF_WORST = 0.11666571428571426


def test_criterion_1_power_law_recovery():
    """Seeded sampler from an exact Zipf(1.0) distribution over 10k types and
    100k expected tokens; the regression must recover the generating
    exponent."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    n_types, n_tokens, alpha = 10_000, 100_000, 1.0
    ranks = np.arange(1, n_types + 1, dtype=float)
    lam = ranks ** -alpha / np.sum(ranks ** -alpha) * n_tokens
    counts = np.floor(lam).astype(int) + (rng.random(n_types) < (lam - np.floor(lam)))
    tokens = np.repeat(np.arange(n_types), counts)
    rng.shuffle(tokens)
    words = [f"w{i}" for i in tokens]
    fit = fit_loglog(zipf_series(token_stream(words, sentences=[len(words)])))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(fit.exponent - (-alpha)) <= 0.05
        and fit.metrics.r2 > 0.95
        and elapsed < 5.0
    )
    verdict(1, ok, f"alpha={fit.exponent:.4f} (target -1.0 +/- 0.05), "
                   f"R2={fit.metrics.r2:.4f} (> 0.95), {elapsed:.2f}s (< 5s)")


def test_criterion_2_metric_exactness():
    kl_hand = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)  # 0.1438 nats
    pair = fit_metrics([0.5, 0.5], [0.25, 0.75])
    ident = fit_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    ok = (
        abs(pair.kl - kl_hand) < 1e-6
        and abs(pair.kl - 0.1438) < 1e-4
        and abs(pair.mape - 0.5) < 1e-6
        and ident.r2 == 1.0
        and abs(ident.kl) < 1e-6
        and abs(ident.js) < 1e-6
        and ident.mape == 0.0
    )
    verdict(2, ok, f"KL={pair.kl:.10f} (0.1438 nats), MAPE={pair.mape}, "
                   f"identity=(R2={ident.r2}, KL={ident.kl:.1e}, JS={ident.js:.1e}, MAPE={ident.mape})")


def test_criterion_3_threshold_verdicts():
    eps = 1e-9
    passing = ConformityVerdict.from_metrics(
        FitMetrics(r2=0.9 + eps, kl=0.5 - eps, js=0.2 - eps, mape=0.5 - eps)
    )
    failing = ConformityVerdict.from_metrics(
        FitMetrics(r2=0.9 - eps, kl=0.5 + eps, js=0.2 + eps, mape=0.5 + eps)
    )
    boundary = ConformityVerdict.from_metrics(FitMetrics(r2=0.9, kl=0.5, js=0.2, mape=0.5))
    ok = (
        passing.all_ok
        and not (failing.r2_ok or failing.kl_ok or failing.js_ok or failing.mape_ok)
        and not (boundary.r2_ok or boundary.kl_ok or boundary.js_ok or boundary.mape_ok)
    )
    verdict(3, ok, "strict boundaries R2>0.9, KL<0.5, JS<0.2, MAPE<0.5 hold on both sides")


def test_criterion_4_benford():
    d = np.arange(1, 10, dtype=float)
    freqs = np.log10(1 + 1 / d)
    # independent oracle: normal-equation least squares on [1, d, ln d]
    design = np.column_stack([np.ones(9), d, np.log(d)])
    beta = np.linalg.solve(design.T @ design, design.T @ np.log(freqs))
    oracle_fit = np.exp(design @ beta)
    oracle_fit /= oracle_fit.sum()
    oracle_r2 = 1 - np.sum((freqs - oracle_fit) ** 2) / np.sum((freqs - freqs.mean()) ** 2)
    assert oracle_r2 >= 0.99, "oracle bound must hold before testing the main path"

    fit = fit_benford(freqs)
    uniform = fit_benford(np.full(9, 1.0 / 9.0))
    ok = (
        fit.metrics.r2 >= 0.99
        and abs(fit.exponent - (-beta[1])) < 1e-9
        and abs(fit.secondary_exponent - (beta[2] + 1.0)) < 1e-9
        and abs(uniform.exponent) < 1e-9
        and abs(uniform.secondary_exponent - 1.0) < 1e-9
    )
    verdict(4, ok, f"exact-Benford R2={fit.metrics.r2:.6f} (>= 0.99, oracle {oracle_r2:.6f}); "
                   f"uniform kappa={uniform.exponent:.1e}, omega={uniform.secondary_exponent:.12f}")


def test_criterion_5_mfdfa_oracles():
    # (a) white noise
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    fluct_wn, spec_wn = run_mfdfa(ScalarSeries(rng.standard_normal(100_000), "wn"))
    elapsed = time.perf_counter() - t0
    h2 = spec_wn.h[np.isclose(spec_wn.q_grid, 2.0)][0]
    a_ok = abs(h2 - 0.5) <= 0.07 and elapsed < 10.0

    # (b) binomial cascade against the analytic closed form
    p, n_max = 0.3, 14
    idx = np.arange(2 ** n_max)
    bits = np.array([bin(i).count("1") for i in idx])
    cascade = p ** bits * (1 - p) ** (n_max - bits)
    _, spec_c = run_mfdfa(ScalarSeries(cascade, "cascade"))
    worst = 0.0
    for qi, q in enumerate(spec_c.q_grid):
        if q == 0.0 or abs(q) > 5:
            continue
        h_true = 1 / q - np.log(p ** q + (1 - p) ** q) / (q * np.log(2))
        worst = max(worst, abs(spec_c.h[qi] - h_true))
    b_ok = worst <= 0.05

    # (c) mass-exponent identity
    c_ok = bool(
        np.allclose(spec_c.tau, spec_c.q_grid * spec_c.h - 1.0, atol=1e-12)
        and np.allclose(spec_wn.tau, spec_wn.q_grid * spec_wn.h - 1.0, atol=1e-12)
    )

    # (d) reversal symmetry of the windowing
    prof = profile(ScalarSeries(rng.standard_normal(8192), "t"))
    scales = default_scales(8192)
    f_fwd = fluctuation(prof, scales, spec_wn.q_grid)
    f_rev = fluctuation(prof[::-1], scales, spec_wn.q_grid)
    d_ok = float(np.max(np.abs(f_fwd.values - f_rev.values))) < 1e-9

    ok = a_ok and b_ok and c_ok and d_ok
    verdict(5, ok, f"h(2)={h2:.4f} (0.5 +/- 0.07) in {elapsed:.2f}s; cascade worst |dh|={worst:.4f} "
                   f"(<= 0.05); tau identity {'exact' if c_ok else 'BROKEN'}; "
                   f"reversal diff={np.max(np.abs(f_fwd.values - f_rev.values)):.2e}")


def test_criterion_6_fuzzy_unit_suite():
    tri = TriMF(0.1, 0.15, 0.2)
    trimf_ok = (
        tri.membership(0.15) == 1.0
        and tri.membership(0.1) == 0.0
        and tri.membership(0.2) == 0.0
        and tri.membership(0.125) == pytest.approx(0.5)
    )
    grade_ok = (
        grade_metric("js", 0.15).medium == 1.0
        and abs(grade_metric("r2", 0.85).medium - 1.0) < 1e-9
        and grade_metric("r2", 0.85).low == 0.0
        and grade_metric("r2", 0.85).high == 0.0
    )
    violations = 0
    for b in np.linspace(0.0, B_CLAMP, 101):
        prev = None
        for a in np.linspace(0.0, 1.0, 101):
            s = infer_suitability(ZNumber(float(a), float(b), 4)).s
            if prev is not None and s > prev + 1e-12:
                violations += 1
            prev = s
    ok = trimf_ok and grade_ok and violations == 0
    verdict(6, ok, f"trimf apex/feet exact; 1-R2=0.15 -> Medium membership 1; "
                   f"monotonicity violations on 101x101 grid: {violations}")


def test_criterion_7_znumber_regression_anchors():
    ref_perfect = ReferenceMamdani.suitability(0.0, 0.0)
    ref_worst = max(ReferenceMamdani.suitability(1.0, b) for b in np.linspace(0.0, 0.5, 51))
    anchors_frozen = (
        abs(ref_perfect - S_REF_PERFECT) < 1e-12 and abs(ref_worst - S_REF_WORST) < 1e-12
    )
    main_perfect = infer_suitability(ZNumber(0.0, 0.0, 8)).s
    main_worst = max(
        infer_suitability(ZNumber(1.0, float(b), 8)).s for b in np.linspace(0.0, 0.5, 51)
    )
    agree = abs(main_perfect - ref_perfect) < 1e-9 and abs(main_worst - ref_worst) < 1e-9
    for a_t, b_t in [(0.1, 0.05), (0.25, 0.22), (0.5, 0.1), (0.75, 0.3), (0.33, 0.47)]:
        agree = agree and abs(
            infer_suitability(ZNumber(a_t, b_t, 8)).s - ReferenceMamdani.suitability(a_t, b_t)
        ) < 1e-9
    ok = anchors_frozen and agree and main_perfect >= 0.85 and main_worst <= 0.15
    verdict(7, ok, f"s(0,0)={main_perfect:.12f} (>= 0.85, ref {ref_perfect:.12f}); "
                   f"max_B s(1,B)={main_worst:.12f} (<= 0.15); main/reference agree to 1e-9")


def _pipeline_dataset(tmp_path, tag):
    raws = [
        Document(
            id=f"raw{i:02d}",
            text=f"The pump unit {i} failed and the cooling line pressure rose steadily.",
            label=str(i % 5),
        )
        for i in range(50)
    ]
    cfg = GenerationConfig(n_instances=10, top_fraction=0.5, seed=7)
    runs, err = run_augmentation(raws, cfg, MockTransport(seed=7))
    assert err is None
    out = tmp_path / f"aug_{tag}.jsonl"
    count = emit_dataset(raws, runs, out)
    return out, count


def test_criterion_8_pipeline_determinism_and_cardinality(tmp_path):
    out1, count1 = _pipeline_dataset(tmp_path, "one")
    out2, count2 = _pipeline_dataset(tmp_path, "two")
    identical = out1.read_bytes() == out2.read_bytes()
    ok = count1 == 300 and count2 == 300 and identical
    verdict(8, ok, f"50 raws x (1 + 5 selected) = {count1} records (300 expected); "
                   f"two runs byte-identical: {identical}")


def test_criterion_9_dominance_property():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(100):
        worse_metrics, better_metrics = [], []
        for _ in range(8):
            r2 = rng.uniform(0.0, 0.999)
            kl = rng.uniform(0.001, 1.2)
            js = rng.uniform(0.001, 0.9)
            mape = rng.uniform(0.001, 1.2)
            worse_metrics.append(FitMetrics(r2=r2, kl=kl, js=js, mape=mape))
            better_metrics.append(FitMetrics(
                r2=rng.uniform(r2, 1.0),
                kl=rng.uniform(0.0, kl),
                js=rng.uniform(0.0, js),
                mape=rng.uniform(0.0, mape),
            ))
        s_worse = infer_suitability(aggregate([law_vector(m) for m in worse_metrics])).s
        s_better = infer_suitability(aggregate([law_vector(m) for m in better_metrics])).s
        if s_better < s_worse - 1e-12:
            violations += 1
    verdict(9, violations == 0, f"100 random 8-law dominance pairs, violations: {violations}")


def test_criterion_10_corpus_comparison_shape():
    docs_a = [Document(id="book_a", text=synth_book(seed=101))]
    docs_b = [Document(id="book_b", text=synth_book(seed=202, zipf_exponent=1.2))]
    report = compare_corpora(docs_a, docs_b, name_a="book_a", name_b="book_b")
    n_cells = 0
    nulls = []
    exponents_finite = True
    for name, corpus in report["corpora"].items():
        for law, cell in corpus["laws"].items():
            if not cell["fittable"]:
                nulls.append(f"{name}:{law}")
                continue
            n_cells += 4
            exponents_finite = exponents_finite and math.isfinite(cell["exponent"])
    ok = not nulls and n_cells == 64 and exponents_finite
    verdict(10, ok, f"8 laws x 4 metrics x 2 corpora = {n_cells} cells (64 expected), "
                    f"null cells: {nulls or 'none'}, exponents finite: {exponents_finite}")
    # qualitative side-by-side for documentation
    for law in report["laws"]:
        cells = [report["corpora"][n]["laws"][law] for n in ("book_a", "book_b")]
        if all(c["fittable"] for c in cells):
            print(f"    {law:<10} exp {cells[0]['exponent']:+.4f} vs {cells[1]['exponent']:+.4f}  "
                  f"R2 {cells[0]['metrics']['r2']:.4f} vs {cells[1]['metrics']['r2']:.4f}")
