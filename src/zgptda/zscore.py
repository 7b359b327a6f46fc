"""Fuzzy Z-number scoring of per-law conformity metrics.

Each fitted law contributes a 4-vector of per-metric "badness" scalars
(graded through triangular membership sets over R^2, KL, JS, and MAPE) and a
reliability figure (the dispersion of that vector). The law vectors are
aggregated into a Z-number (A_t, B_t), mapped through a Mamdani rule base to
a non-suitability distribution S', and defuzzified by centroid; the final
suitability is s = 1 - centroid(S').
"""

from dataclasses import dataclass

import numpy as np

from .fitkit import FitMetrics

__all__ = [
    "NoSignal",
    "TriMF",
    "MetricGrade",
    "LawVector",
    "ZNumber",
    "Suitability",
    "WEIGHTS",
    "grade_metric",
    "law_vector",
    "aggregate",
    "infer_suitability",
    "score_laws",
    "describe_rulebase",
]


class NoSignal(Exception):
    """No fittable laws: there is nothing to aggregate."""


@dataclass(frozen=True)
class TriMF:
    """Triangular membership function on points a <= b <= c.

    Degenerate edges (a == b or b == c) act as shoulders: membership is 1 at
    the apex even when it coincides with a foot.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a <= self.b <= self.c):
            raise ValueError(f"invalid trimf points ({self.a}, {self.b}, {self.c})")

    def membership(self, x: float) -> float:
        return float(_trimf(self.a, self.b, self.c, np.float64(x)))


def _trimf(a, b, c, x):
    """Triangular membership of `x` in the sets with points (a, b, c), all
    broadcast against each other (b and c no wider than x - a): rising on
    (a, b), falling on (b, c), 1 at b."""
    rise = x - a
    rising = np.divide(rise, b - a, out=np.zeros_like(rise), where=(x > a) & (x < b))
    falling = np.divide(c - x, c - b, out=np.zeros_like(rise), where=(x > b) & (x < c))
    return np.where(x == b, 1.0, rising + falling)


def _points(sets) -> np.ndarray:
    """The (a, b, c) of each set, one row per set."""
    return np.array([[t.a, t.b, t.c] for t in sets])


# Per-metric grading sets (Low, Medium, High). R^2 is graded via 1 - R^2 and
# shares its breakpoints with JS; MAPE reuses the KL breakpoints.
_RJ_SETS = (TriMF(0.0, 0.05, 0.1), TriMF(0.1, 0.15, 0.2), TriMF(0.2, 0.6, 1.0))
_KM_SETS = (TriMF(0.0, 0.1, 0.2), TriMF(0.2, 0.35, 0.5), TriMF(0.5, 0.75, 1.0))

GRADE_TABLES: dict[str, tuple[TriMF, TriMF, TriMF]] = {
    "r2": _RJ_SETS,
    "kl": _KM_SETS,
    "js": _RJ_SETS,
    "mape": _KM_SETS,
}

METRIC_ORDER = ("r2", "kl", "js", "mape")

# empirically chosen metric weights, in METRIC_ORDER
WEIGHTS = np.array([0.1, 0.2, 0.2, 0.5])


@dataclass(frozen=True)
class MetricGrade:
    """Membership degrees and the defuzzified badness of one metric value.

    ``fallback`` marks values that fell on a boundary where every set has
    zero membership and were assigned to the nearest set.
    """

    low: float
    medium: float
    high: float
    badness: float
    fallback: bool = False


# (a, b, c) of the Low, Medium and High sets of each metric, in METRIC_ORDER
_GRADE_POINTS = np.array([_points(GRADE_TABLES[kind]) for kind in METRIC_ORDER])
_KINDS = np.arange(len(METRIC_ORDER))


def _grade(values: np.ndarray, kinds: np.ndarray):
    """Membership degrees (N, 3), badness (N,) and fallback flags (N,) of
    metric values graded by the tables of the METRIC_ORDER indices `kinds`."""
    if not np.isfinite(values).all():
        bad = METRIC_ORDER[int(kinds[~np.isfinite(values)][0])]
        raise ValueError(f"{bad}: value must be finite")
    points = _GRADE_POINTS[kinds]
    a, apexes, c = points[..., 0], points[..., 1], points[..., 2]
    graded = np.where(kinds == 0, 1.0 - values, values)
    graded = np.minimum(np.maximum(graded, 0.0), apexes[:, 2])[:, None]
    degrees = _trimf(a, apexes, c, graded)
    # boundary points between adjacent sets (shared feet) carry zero
    # membership everywhere; assign the nearest set, lower on ties
    fallback = degrees.sum(axis=1) == 0.0
    nearest = np.abs(graded[fallback] - apexes[fallback]).argmin(axis=1)
    degrees[fallback] = np.eye(3)[nearest]
    centroid = (degrees * apexes).sum(axis=1) / degrees.sum(axis=1)
    badness = (centroid - apexes[:, 0]) / (apexes[:, 2] - apexes[:, 0])
    return degrees, badness, fallback


def grade_metric(metric_kind: str, value: float) -> MetricGrade:
    """Grade one metric value into (Low, Medium, High) and a badness scalar.

    For ``metric_kind == "r2"`` the graded quantity is ``1 - value``. Values
    above the High apex clamp to full High membership. The badness is the
    membership-weighted centroid of the set apexes, rescaled so the Low apex
    maps to 0 and the High apex to 1; it is non-decreasing in the graded
    value and reaches 0 exactly for perfect metrics.
    """
    if metric_kind not in GRADE_TABLES:
        raise ValueError(f"unknown metric kind {metric_kind!r}")
    degrees, badness, fallback = _grade(np.array([float(value)]),
                                        np.array([METRIC_ORDER.index(metric_kind)]))
    return MetricGrade(*degrees[0].tolist(), badness=float(badness[0]), fallback=bool(fallback[0]))


@dataclass
class LawVector:
    """Badness 4-vector of one law (order: R^2, KL, JS, MAPE) and its
    reliability figure, the population standard deviation of the four."""

    badness: np.ndarray
    reliability: float


def law_vector(metrics: FitMetrics) -> LawVector:
    badness = _grade(np.array([metrics.r2, metrics.kl, metrics.js, metrics.mape], dtype=float),
                     _KINDS)[1]
    return LawVector(badness=badness, reliability=float(badness.std()))


@dataclass(frozen=True)
class ZNumber:
    """Aggregated badness A_t, aggregated dispersion B_t, and how many laws
    entered the aggregation."""

    a_t: float
    b_t: float
    laws_used: int


def _znumbers(badness: np.ndarray, reliability: np.ndarray,
              used: list[int]) -> list[ZNumber | None]:
    """The Z-number of each consecutive group of used[i] law vectors, None
    for an empty group. Each mean is taken over the group's own slice, so it
    sums the group's laws in the order the group alone would."""
    contributions = np.abs(np.vecdot(badness, WEIGHTS))
    return [ZNumber(a_t=float(contributions[end - n:end].mean()),
                    b_t=float(reliability[end - n:end].mean()), laws_used=n) if n else None
            for end, n in zip(np.cumsum(used, dtype=np.int64).tolist(), used)]


def aggregate(law_vectors) -> ZNumber:
    """Mean over laws of |W . A_i| and of B_i.

    Unfittable laws are simply not passed in; the mean renormalizes over
    whatever remains.

    Raises:
        NoSignal: the sequence is empty.
    """
    vectors = list(law_vectors)
    if not vectors:
        raise NoSignal("no fittable laws to aggregate")
    return _znumbers(np.array([v.badness for v in vectors]),
                     np.array([v.reliability for v in vectors]), [len(vectors)])[0]


@dataclass(frozen=True)
class Suitability:
    """Defuzzified suitability s = 1 - centroid(S')."""

    s: float
    s_prime_centroid: float


# Output-side fuzzification. A_t lives on [0, 1]; B_t is clamped to [0, 0.5];
# the non-suitability S' universe is [0, 1]. Shoulder sets guarantee that
# every input activates at least one rule.
A_SETS = {"low": TriMF(0.0, 0.0, 0.3), "medium": TriMF(0.2, 0.5, 0.8), "high": TriMF(0.7, 1.0, 1.0)}
B_SETS = {"low": TriMF(0.0, 0.0, 0.1), "medium": TriMF(0.05, 0.15, 0.25), "high": TriMF(0.2, 0.5, 0.5)}
S_SETS = {"low": TriMF(0.0, 0.0, 0.35), "medium": TriMF(0.25, 0.5, 0.75), "high": TriMF(0.65, 1.0, 1.0)}

B_CLAMP = 0.5

# Mamdani rules: (A_t set, B_t sets or None for "any B", S' sets activated).
# High aggregate badness maps to high non-suitability regardless of
# reliability; low badness with unreliable metrics hedges between low and
# medium; the (medium, high-B) rule completes the grid monotonically.
RULES: tuple[tuple[str, tuple[str, ...] | None, tuple[str, ...]], ...] = (
    ("high", None, ("high",)),
    ("medium", ("medium", "low"), ("medium",)),
    ("low", ("high",), ("low", "medium")),
    ("low", ("low", "medium"), ("low",)),
    ("medium", ("high",), ("medium",)),
)

_CENTROID_GRID = np.linspace(0.0, 1.0, 1001)
# the (a, b, c) rows of the A_t and B_t sets, transposed to (a's, b's, c's)
_A_POINTS = _points(A_SETS.values()).T
_B_POINTS = _points(B_SETS.values()).T
# each S' set's membership on the centroid grid, one row per set
_S_ON_GRID = _trimf(*_points(S_SETS.values()).T[:, :, None], _CENTROID_GRID)


def _infer(a_t: np.ndarray, b_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Suitability s and the centroid of S' for each (A_t, B_t) pair."""
    a_t = np.minimum(np.maximum(a_t, 0.0), 1.0)[:, None]
    b_t = np.minimum(np.maximum(b_t, 0.0), B_CLAMP)[:, None]
    mu_a = dict(zip(A_SETS, _trimf(*_A_POINTS, a_t).T))
    mu_b = dict(zip(B_SETS, _trimf(*_B_POINTS, b_t).T))
    activations = {name: np.zeros(len(a_t)) for name in S_SETS}
    for a_name, b_names, s_names in RULES:
        strength = mu_a[a_name]
        if b_names is not None:
            strength = np.minimum(strength, np.maximum.reduce([mu_b[n] for n in b_names]))
        for s_name in s_names:
            activations[s_name] = np.maximum(activations[s_name], strength)
    x = _CENTROID_GRID
    agg = np.zeros((len(a_t), x.size))
    for level, on_grid in zip(activations.values(), _S_ON_GRID):
        np.maximum(agg, np.minimum(level[:, None], on_grid), out=agg)
    mass = np.trapezoid(agg, x, axis=1)
    if np.any(mass <= 0.0):
        raise RuntimeError("rule base produced an empty aggregate; inputs out of range?")
    centroid = np.trapezoid(x * agg, x, axis=1) / mass
    return 1.0 - centroid, centroid


def infer_suitability(z: ZNumber) -> Suitability:
    """Mamdani min-activation / max-aggregation inference to suitability.

    A_t is clamped to [0, 1] and B_t to [0, 0.5] before fuzzification. The
    aggregated S' membership is defuzzified by its centroid on a 1001-point
    grid (trapezoidal integration); the completed rule base guarantees a
    nonzero aggregate for every input.
    """
    s, centroid = _infer(np.array([z.a_t]), np.array([z.b_t]))
    return Suitability(s=float(s[0]), s_prime_centroid=float(centroid[0]))


def score_laws(metrics: np.ndarray,
               used: list[int]) -> tuple[list[ZNumber | None], list[Suitability]]:
    """Z-numbers and suitabilities of instances from the (R^2, KL, JS, MAPE)
    rows of their fittable laws, instance i owning the next used[i] rows.

    All laws are graded as one array, aggregated per instance, and inferred
    on one grid. An instance with no law gets ``None`` for its Z-number and
    the no-signal suitability s = 0.
    """
    rows = metrics.reshape(-1, len(_KINDS))
    badness = _grade(rows.ravel(), np.tile(_KINDS, len(rows)))[1].reshape(rows.shape)
    zs = _znumbers(badness, badness.std(axis=1), used)
    signal = [z for z in zs if z is not None]
    s, centroid = _infer(np.array([z.a_t for z in signal]), np.array([z.b_t for z in signal]))
    inferred = iter(zip(s.tolist(), centroid.tolist()))
    return zs, [Suitability(*next(inferred)) if z else Suitability(s=0.0, s_prime_centroid=1.0)
                for z in zs]


def describe_rulebase() -> dict:
    """JSON-serializable snapshot of every breakpoint and rule, so reported
    scores are auditable."""

    def mf(t: TriMF) -> list[float]:
        return [t.a, t.b, t.c]

    return {
        "metric_weights": {k: float(w) for k, w in zip(METRIC_ORDER, WEIGHTS)},
        "grade_tables": {
            kind: {"low": mf(s[0]), "medium": mf(s[1]), "high": mf(s[2])}
            for kind, s in GRADE_TABLES.items()
        },
        "a_t_sets": {k: mf(v) for k, v in A_SETS.items()},
        "b_t_sets": {k: mf(v) for k, v in B_SETS.items()},
        "b_t_clamp": B_CLAMP,
        "s_prime_sets": {k: mf(v) for k, v in S_SETS.items()},
        "rules": [
            {
                "a_t": a,
                "b_t": list(b) if b is not None else "any",
                "s_prime": list(s),
            }
            for a, b, s in RULES
        ],
        "defuzzification": "centroid, trapezoidal on 1001-point grid",
        "suitability": "s = 1 - centroid(S')",
    }
