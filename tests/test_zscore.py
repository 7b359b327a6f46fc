import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zgptda.fitkit import FitMetrics
from zgptda.zscore import (
    Suitability,
    B_CLAMP,
    LawVector,
    NoSignal,
    TriMF,
    ZNumber,
    aggregate,
    describe_rulebase,
    grade_metric,
    infer_suitability,
    law_vector,
    score_laws,
)

# regression anchors pinned from the independent reference implementation
# (see test_acceptance.ReferenceMamdani) before this module was written
S_PERFECT = 0.8833342857142857
S_WORST = 0.11666571428571426


class TestTriMF:
    def test_apex_and_feet(self):
        t = TriMF(0.1, 0.15, 0.2)
        assert t.membership(0.15) == 1.0
        assert t.membership(0.1) == 0.0
        assert t.membership(0.2) == 0.0
        assert t.membership(0.05) == 0.0
        assert t.membership(0.25) == 0.0

    def test_piecewise_linear(self):
        t = TriMF(0.0, 0.5, 1.0)
        assert t.membership(0.25) == pytest.approx(0.5)
        assert t.membership(0.75) == pytest.approx(0.5)

    def test_left_shoulder(self):
        t = TriMF(0.0, 0.0, 0.3)
        assert t.membership(0.0) == 1.0
        assert t.membership(0.15) == pytest.approx(0.5)
        assert t.membership(0.3) == 0.0

    def test_right_shoulder(self):
        t = TriMF(0.7, 1.0, 1.0)
        assert t.membership(1.0) == 1.0
        assert t.membership(0.85) == pytest.approx(0.5)
        assert t.membership(0.7) == 0.0

    def test_invalid_points(self):
        with pytest.raises(ValueError):
            TriMF(0.5, 0.4, 0.6)


class TestGradeMetric:
    def test_paper_breakpoint_medium(self):
        # graded quantity for r2 is 1 - r2; 0.15 sits on the Medium apex
        grade = grade_metric("r2", 0.85)
        assert grade.medium == pytest.approx(1.0, abs=1e-9)
        assert grade.low == 0.0 and grade.high == 0.0

    def test_js_exact_apex(self):
        grade = grade_metric("js", 0.15)
        assert grade.medium == 1.0

    def test_zero_is_fully_low(self):
        grade = grade_metric("kl", 0.0)
        assert grade.low == 1.0
        assert grade.badness == 0.0
        assert grade.fallback

    def test_perfect_r2_zero_badness(self):
        assert grade_metric("r2", 1.0).badness == 0.0

    def test_off_scale_clamps_to_high(self):
        grade = grade_metric("kl", 2.0)
        assert grade.high == 1.0
        assert grade.badness == 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            grade_metric("rmse", 0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            grade_metric("kl", float("nan"))

    @pytest.mark.parametrize("kind", ["r2", "kl", "js", "mape"])
    def test_badness_monotone_sweep(self, kind):
        xs = np.linspace(0.0, 1.2, 1000)
        if kind == "r2":
            values = [grade_metric(kind, 1.0 - x).badness for x in xs]
        else:
            values = [grade_metric(kind, x).badness for x in xs]
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(values, values[1:]))
        assert values[0] == 0.0
        assert values[-1] == 1.0


class TestLawVector:
    def test_perfect_fit(self):
        v = law_vector(FitMetrics(r2=1.0, kl=0.0, js=0.0, mape=0.0))
        assert np.all(v.badness == 0.0)
        assert v.reliability == 0.0

    def test_single_bad_component(self):
        # mape = 0.6 grades to badness 1, the rest to 0
        v = law_vector(FitMetrics(r2=1.0, kl=0.0, js=0.0, mape=0.6))
        assert v.badness == pytest.approx([0.0, 0.0, 0.0, 1.0])
        assert v.reliability == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-12)

    def test_reliability_is_population_std(self):
        v = LawVector(badness=np.array([0.2, 0.2, 0.2, 0.2]), reliability=0.0)
        assert float(np.std(v.badness)) == 0.0


class TestAggregate:
    def test_all_perfect(self):
        vs = [law_vector(FitMetrics(1.0, 0.0, 0.0, 0.0)) for _ in range(8)]
        z = aggregate(vs)
        assert z.a_t == 0.0 and z.b_t == 0.0 and z.laws_used == 8

    def test_constant_vector_under_convex_weights(self):
        z = aggregate([LawVector(badness=np.full(4, 0.2), reliability=0.0)])
        assert z.a_t == pytest.approx(0.2, abs=1e-12)

    def test_mean_of_contributions(self):
        v1 = LawVector(badness=np.array([1.0, 0.0, 0.0, 0.0]), reliability=0.0)  # 0.1
        v2 = LawVector(badness=np.array([1.0, 1.0, 0.0, 0.0]), reliability=0.0)  # 0.3
        z = aggregate([v1, v2])
        assert z.a_t == pytest.approx(0.2, abs=1e-12)

    def test_empty_raises_no_signal(self):
        with pytest.raises(NoSignal):
            aggregate([])

    @given(st.permutations(list(range(6))))
    def test_permutation_invariance(self, order):
        base = [
            LawVector(badness=np.array([i / 6, 0.0, 1.0, 0.5]), reliability=i / 10)
            for i in range(6)
        ]
        z1 = aggregate(base)
        z2 = aggregate([base[i] for i in order])
        assert z1.a_t == pytest.approx(z2.a_t, abs=1e-12)
        assert z1.b_t == pytest.approx(z2.b_t, abs=1e-12)


class TestInferSuitability:
    def test_perfect_anchor(self):
        s = infer_suitability(ZNumber(0.0, 0.0, 8))
        assert s.s == pytest.approx(S_PERFECT, abs=1e-12)
        assert s.s >= 0.85
        assert s.s == pytest.approx(1.0 - s.s_prime_centroid, abs=1e-12)

    def test_worst_anchor_any_b(self):
        for b in np.linspace(0.0, 0.6, 25):
            s = infer_suitability(ZNumber(1.0, float(b), 8))
            assert s.s == pytest.approx(S_WORST, abs=1e-12)
            assert s.s <= 0.15

    def test_clamping(self):
        assert infer_suitability(ZNumber(1.7, 0.0, 1)).s == pytest.approx(S_WORST, abs=1e-12)
        assert infer_suitability(ZNumber(-0.2, -1.0, 1)).s == pytest.approx(S_PERFECT, abs=1e-12)
        assert infer_suitability(ZNumber(0.1, 0.9, 1)) == infer_suitability(ZNumber(0.1, B_CLAMP, 1))

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=B_CLAMP),
    )
    def test_s_in_unit_interval(self, a_t, b_t):
        s = infer_suitability(ZNumber(a_t, b_t, 3))
        assert 0.0 <= s.s <= 1.0
        assert 0.0 <= s.s_prime_centroid <= 1.0

    def test_monotone_in_a_t_coarse_grid(self):
        # the full 101x101 sweep runs in the acceptance suite
        for b in np.linspace(0.0, B_CLAMP, 21):
            prev = None
            for a in np.linspace(0.0, 1.0, 21):
                s = infer_suitability(ZNumber(float(a), float(b), 4)).s
                if prev is not None:
                    assert s <= prev + 1e-12
                prev = s

    def test_depends_on_metrics_only_through_grades(self):
        # kl = 0.05 and kl = 0.15 grade into the same (all-Low) badness
        m1 = FitMetrics(r2=0.99, kl=0.05, js=0.02, mape=0.1)
        m2 = FitMetrics(r2=0.97, kl=0.15, js=0.08, mape=0.18)
        s1 = infer_suitability(aggregate([law_vector(m1)]))
        s2 = infer_suitability(aggregate([law_vector(m2)]))
        assert s1.s == pytest.approx(s2.s, abs=1e-12)


class TestScoreLaws:
    def test_instances_match_one_at_a_time(self):
        rows = [FitMetrics(0.99, 0.05, 0.02, 0.1), FitMetrics(0.5, 0.7, 0.3, 0.9),
                FitMetrics(0.85, 0.2, 0.1, 0.5), FitMetrics(1.0, 0.0, 0.0, 0.0)]
        used = [2, 0, 1, 1]
        zs, suits = score_laws(np.array([[m.r2, m.kl, m.js, m.mape] for m in rows]), used)
        assert zs[1] is None and suits[1] == Suitability(s=0.0, s_prime_centroid=1.0)
        groups = [rows[0:2], [], rows[2:3], rows[3:4]]
        for z, suit, group in zip(zs, suits, groups):
            if group:
                alone = aggregate([law_vector(m) for m in group])
                assert z == alone
                assert suit == infer_suitability(alone)

    def test_no_instances(self):
        assert score_laws(np.empty((0, 4)), []) == ([], [])


class TestRulebaseAudit:
    def test_serializable_and_complete(self):
        desc = describe_rulebase()
        blob = json.dumps(desc)
        assert "grade_tables" in desc and "rules" in desc
        assert desc["grade_tables"]["r2"]["medium"] == [0.1, 0.15, 0.2]
        assert desc["grade_tables"]["kl"]["high"] == [0.5, 0.75, 1.0]
        assert desc["metric_weights"] == {"r2": 0.1, "kl": 0.2, "js": 0.2, "mape": 0.5}
        assert json.loads(blob) == desc
