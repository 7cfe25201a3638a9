"""The statistical comparison engine (result analysis, piece 2 of 4).

Comparing two benchmark runs honestly means separating three questions
the verdict has to answer at once:

1. **Is the difference real?** — a seeded bootstrap confidence interval
   at ``1 - alpha`` on the relative difference of means (percentile
   method), so the interval and the test below judge at one level.
   Resampling makes no normality assumption, which matters for
   latency-shaped samples; seeding makes the interval reproducible.
2. **Does the evidence agree?** — a two-sided Mann–Whitney U test
   (normal approximation with tie correction).  Rank-based, so a single
   outlier cannot manufacture significance.  With very small samples
   the test *cannot* reach significance (the minimum achievable p-value
   for n=m=2 is 1/3), so it only participates in the verdict when its
   resolution actually covers ``alpha``.
3. **Is the difference big enough to care?** — a relative
   effect-size threshold (``tolerance``).  A statistically certain
   0.1% delta is still "unchanged" for gating purposes.

The verdicts are ``improved`` / ``regressed`` / ``unchanged`` /
``inconclusive``.  Single-sample runs (n=1 on either side) are handled
honestly: no interval and no test are possible, so only a delta well
beyond the tolerance (``SINGLE_SAMPLE_FACTOR``×) earns a directional
verdict; anything else in the gray zone is ``inconclusive`` rather than
a false "unchanged".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from statistics import fmean
from typing import Any

from repro.analysis.store import RunRecord
from repro.core.errors import AnalysisError
from repro.core.metrics import metric_direction
from repro.core.results import MetricStats, RunResult

#: The four verdicts a per-metric comparison can emit.
VERDICTS = ("improved", "regressed", "unchanged", "inconclusive")

#: Default relative effect-size threshold: deltas below 5% are noise.
DEFAULT_TOLERANCE = 0.05
#: Default significance level for interval/test agreement.
DEFAULT_ALPHA = 0.05
#: Bootstrap resamples (seeded, so cheap enough to keep high).
DEFAULT_BOOTSTRAP_ITERATIONS = 2000
#: With n=1 on a side, only a delta this many times the tolerance earns
#: a directional verdict; smaller non-trivial deltas are inconclusive.
SINGLE_SAMPLE_FACTOR = 3.0


# ---------------------------------------------------------------------------
# Statistics primitives (stdlib-only; scipy is an optional test dep)
# ---------------------------------------------------------------------------


def bootstrap_mean_delta_ci(
    baseline: list[float],
    candidate: list[float],
    *,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile-bootstrap ``1 - alpha`` CI on the relative difference
    of means.

    The statistic is ``(mean(candidate*) - mean(baseline*)) / scale``
    with ``scale = |mean(baseline)|`` fixed from the observed baseline
    (falling back to an absolute difference when the baseline mean is
    zero).  The RNG is seeded from the inputs' shape, so identical
    inputs always produce the identical interval.
    """
    if len(baseline) < 2 or len(candidate) < 2:
        raise AnalysisError("bootstrap needs at least 2 samples per side")
    scale = abs(fmean(baseline)) or 1.0
    rng = random.Random(f"bootstrap|{seed}|{len(baseline)}|{len(candidate)}")
    deltas = []
    for _ in range(DEFAULT_BOOTSTRAP_ITERATIONS):
        resampled_b = rng.choices(baseline, k=len(baseline))
        resampled_c = rng.choices(candidate, k=len(candidate))
        deltas.append((fmean(resampled_c) - fmean(resampled_b)) / scale)
    deltas.sort()
    tail = alpha / 2.0
    last = DEFAULT_BOOTSTRAP_ITERATIONS - 1
    low_index = int(math.floor(tail * last))
    high_index = int(math.ceil((1.0 - tail) * last))
    return deltas[low_index], deltas[high_index]


def mann_whitney_u(
    baseline: list[float], candidate: list[float]
) -> tuple[float, float]:
    """Two-sided Mann–Whitney U: ``(U, p)``.

    Normal approximation with tie correction and continuity correction
    — the classic large-sample form, adequate here because the exact
    small-sample regime is detected separately (see
    :func:`min_achievable_p`) and excluded from verdict decisions.
    All-tied inputs (zero rank variance) return ``p = 1.0``.
    """
    n, m = len(baseline), len(candidate)
    if n == 0 or m == 0:
        raise AnalysisError("Mann-Whitney needs samples on both sides")
    pooled = sorted(
        [(value, 0) for value in baseline] + [(value, 1) for value in candidate]
    )
    # Midranks with tie bookkeeping.
    ranks = [0.0] * (n + m)
    tie_sizes: list[int] = []
    index = 0
    while index < len(pooled):
        stop = index
        while stop + 1 < len(pooled) and pooled[stop + 1][0] == pooled[index][0]:
            stop += 1
        midrank = (index + stop) / 2.0 + 1.0
        for position in range(index, stop + 1):
            ranks[position] = midrank
        if stop > index:
            tie_sizes.append(stop - index + 1)
        index = stop + 1
    rank_sum_candidate = sum(
        rank for rank, (_, side) in zip(ranks, pooled) if side == 1
    )
    u_candidate = rank_sum_candidate - m * (m + 1) / 2.0
    mean_u = n * m / 2.0
    total = n + m
    tie_term = sum(t**3 - t for t in tie_sizes) / (total * (total - 1))
    variance = n * m / 12.0 * ((total + 1) - tie_term)
    if variance <= 0:
        return u_candidate, 1.0
    z = (abs(u_candidate - mean_u) - 0.5) / math.sqrt(variance)
    z = max(z, 0.0)
    p = 2.0 * (1.0 - _normal_cdf(z))
    return u_candidate, min(max(p, 0.0), 1.0)


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def min_achievable_p(n: int, m: int) -> float:
    """The smallest two-sided p an exact U test could produce.

    Complete separation of the two samples has probability
    ``n! m! / (n+m)!`` per direction under the null; below ~4 samples a
    side the test simply cannot reach 0.05, so it must not veto a
    verdict there.
    """
    return 2.0 * (
        math.factorial(n) * math.factorial(m) / math.factorial(n + m)
    )


# ---------------------------------------------------------------------------
# Typed comparison results
# ---------------------------------------------------------------------------


@dataclass
class MetricComparison:
    """The comparison of one metric between baseline and candidate."""

    metric: str
    direction: str  # "lower" or "higher" is better
    verdict: str  # improved | regressed | unchanged | inconclusive
    baseline_mean: float
    candidate_mean: float
    baseline_n: int
    candidate_n: int
    #: ``(candidate_mean - baseline_mean) / |baseline_mean|``.
    relative_delta: float
    #: Bootstrap CI on the relative delta (None when n < 2 on a side).
    ci_low: float | None = None
    ci_high: float | None = None
    #: Two-sided Mann–Whitney p-value (None when n < 2 on a side).
    p_value: float | None = None
    #: The effect-size threshold the verdict used.
    tolerance: float = DEFAULT_TOLERANCE
    #: Percentile snapshots (p50/p95/p99) of both sides.
    baseline_percentiles: dict[str, float] = field(default_factory=dict)
    candidate_percentiles: dict[str, float] = field(default_factory=dict)

    @property
    def significant(self) -> bool:
        """Whether the interval (and test, where usable) excludes zero."""
        if self.ci_low is None or self.ci_high is None:
            return False
        return not (self.ci_low <= 0.0 <= self.ci_high)

    def as_dict(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "direction": self.direction,
            "verdict": self.verdict,
            "baseline_mean": self.baseline_mean,
            "candidate_mean": self.candidate_mean,
            "baseline_n": self.baseline_n,
            "candidate_n": self.candidate_n,
            "relative_delta": self.relative_delta,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "p_value": self.p_value,
            "tolerance": self.tolerance,
            "baseline_percentiles": self.baseline_percentiles,
            "candidate_percentiles": self.candidate_percentiles,
        }


@dataclass
class Comparison:
    """A full per-metric comparison of two runs (or series)."""

    baseline: str
    candidate: str
    metrics: dict[str, MetricComparison] = field(default_factory=dict)

    @property
    def overall(self) -> str:
        """Worst-first rollup: regressed > inconclusive > improved >
        unchanged — a single noisy metric keeps the overall honest."""
        verdicts = {c.verdict for c in self.metrics.values()}
        for verdict in ("regressed", "inconclusive", "improved"):
            if verdict in verdicts:
                return verdict
        return "unchanged"

    def as_dict(self) -> dict[str, Any]:
        return {
            "baseline": self.baseline,
            "candidate": self.candidate,
            "overall": self.overall,
            "metrics": {
                name: comparison.as_dict()
                for name, comparison in self.metrics.items()
            },
        }


# ---------------------------------------------------------------------------
# The comparison entry points
# ---------------------------------------------------------------------------


def compare_samples(
    metric: str,
    baseline: list[float],
    candidate: list[float],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
) -> MetricComparison:
    """Compare one metric's samples and emit a verdict.

    Decision rule, in order:

    1. effect below ``tolerance`` → ``unchanged`` (however certain);
    2. n ≥ 2 both sides: directional verdict iff the ``1 - alpha``
       bootstrap CI excludes zero *and* the U test agrees wherever its
       resolution covers ``alpha``; otherwise ``inconclusive``;
    3. n = 1 on a side: directional only beyond
       ``SINGLE_SAMPLE_FACTOR × tolerance``, else ``inconclusive``.
    """
    if not baseline or not candidate:
        raise AnalysisError(
            f"metric {metric!r}: cannot compare empty sample lists"
        )
    if not 0 <= tolerance < math.inf:
        raise AnalysisError(
            f"tolerance must be finite and non-negative, got {tolerance}"
        )
    if not 0 < alpha < 1:
        raise AnalysisError(f"alpha must be in (0, 1), got {alpha}")
    direction = metric_direction(metric)
    mean_b, mean_c = fmean(baseline), fmean(candidate)
    scale = abs(mean_b) or 1.0
    relative_delta = (mean_c - mean_b) / scale

    ci_low = ci_high = p_value = None
    if len(baseline) >= 2 and len(candidate) >= 2:
        ci_low, ci_high = bootstrap_mean_delta_ci(
            baseline, candidate, alpha=alpha, seed=seed
        )
        _, p_value = mann_whitney_u(baseline, candidate)
        significant = not (ci_low <= 0.0 <= ci_high)
        if min_achievable_p(len(baseline), len(candidate)) <= alpha:
            significant = significant and p_value <= alpha
        if abs(relative_delta) <= tolerance:
            verdict = "unchanged"
        elif significant:
            verdict = _directional_verdict(relative_delta, direction)
        else:
            verdict = "inconclusive"
    else:
        if abs(relative_delta) <= tolerance:
            verdict = "unchanged"
        elif abs(relative_delta) >= SINGLE_SAMPLE_FACTOR * tolerance:
            verdict = _directional_verdict(relative_delta, direction)
        else:
            verdict = "inconclusive"

    return MetricComparison(
        metric=metric,
        direction=direction,
        verdict=verdict,
        baseline_mean=mean_b,
        candidate_mean=mean_c,
        baseline_n=len(baseline),
        candidate_n=len(candidate),
        relative_delta=relative_delta,
        ci_low=ci_low,
        ci_high=ci_high,
        p_value=p_value,
        tolerance=tolerance,
        baseline_percentiles=_percentiles(metric, baseline),
        candidate_percentiles=_percentiles(metric, candidate),
    )


def _directional_verdict(relative_delta: float, direction: str) -> str:
    went_up = relative_delta > 0
    if direction == "lower":
        return "regressed" if went_up else "improved"
    return "improved" if went_up else "regressed"


def _percentiles(metric: str, samples: list[float]) -> dict[str, float]:
    stats = MetricStats(metric, list(samples))
    return {"p50": stats.p50, "p95": stats.p95, "p99": stats.p99}


def _metric_samples(source: Any) -> dict[str, list[float]]:
    """Metric → samples from a RunRecord, RunResult, or plain dict."""
    if isinstance(source, RunRecord):
        return source.metrics
    if isinstance(source, RunResult):
        return {
            name: list(stats.samples) for name, stats in source.metrics.items()
        }
    if isinstance(source, dict):
        return {name: list(samples) for name, samples in source.items()}
    raise AnalysisError(
        f"cannot extract metric samples from {type(source).__name__}"
    )


def _label(source: Any, fallback: str) -> str:
    if isinstance(source, RunRecord):
        return source.record_id
    if isinstance(source, RunResult):
        return source.test_name
    return fallback


def compare_records(
    baseline: Any,
    candidate: Any,
    *,
    metrics: list[str] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
) -> Comparison:
    """Compare two runs metric by metric.

    Accepts :class:`~repro.analysis.store.RunRecord`,
    :class:`~repro.core.results.RunResult`, or plain
    ``{metric: samples}`` dicts on either side.  ``metrics`` restricts
    the comparison; by default every metric both sides carry is
    compared (baseline order).
    """
    baseline_samples = _metric_samples(baseline)
    candidate_samples = _metric_samples(candidate)
    if metrics is None:
        metrics = [
            name for name in baseline_samples if name in candidate_samples
        ]
    if not metrics:
        raise AnalysisError("the two runs share no comparable metrics")
    comparison = Comparison(
        baseline=_label(baseline, "baseline"),
        candidate=_label(candidate, "candidate"),
    )
    for name in metrics:
        if name not in baseline_samples or name not in candidate_samples:
            raise AnalysisError(
                f"metric {name!r} is not present on both sides; shared: "
                f"{sorted(set(baseline_samples) & set(candidate_samples))}"
            )
        comparison.metrics[name] = compare_samples(
            name,
            baseline_samples[name],
            candidate_samples[name],
            tolerance=tolerance,
            alpha=alpha,
            seed=seed,
        )
    return comparison
