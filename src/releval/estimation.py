"""Point estimates, intervals, and tests for paired relevance deltas.

The paired design is realized as per-query deltas (treatment - control)
followed by one-sample inference: a t-test under simple random sampling and
a normal-approximation z-test for the stratified weighted estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from ._lazy import np, t_ufuncs
from .core import (
    GROUP_BY_INTEREST,
    GROUP_BY_POPULARITY,
    GROUP_BY_STRATUM,
    EvalDataset,
    StratumKey,
    check_alpha,
)
from .errors import (
    NoSegments,
    OutOfDomain,
    TooFewSamples,
    TooFewSamplesInStratum,
    WeightMismatch,
)
from .fdr import benjamini_hochberg
from .metrics import paired_deltas
from .power import normal_cdf, normal_quantile
from .sampling import check_weights

SRS = "srs"
STRATIFIED = "stratified"


@dataclass(frozen=True)
class EstimateResult:
    """Mean, standard error, two-sided CI, and p-value for a delta estimate.

    ``degenerate`` marks zero-variance inputs, where the p-value follows the
    convention 1.0 if the mean is exactly 0 and 0.0 otherwise.
    """

    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    p_value: float
    n: int
    estimator: str
    alpha: float
    degenerate: bool = False


@dataclass(frozen=True)
class SegmentEffect:
    segment: Hashable
    estimate: EstimateResult
    bh_rejected: bool
    adjusted_p: float


@dataclass(frozen=True)
class SegmentAnalysis:
    """Per-segment effects plus the segments excluded for having n < 2."""

    effects: tuple[SegmentEffect, ...]
    excluded: tuple[tuple[Hashable, int], ...]


def _degenerate(mean: float, n: int, estimator: str, alpha: float) -> EstimateResult:
    p = 1.0 if mean == 0.0 else 0.0
    return EstimateResult(mean=mean, std_error=0.0, ci_low=mean, ci_high=mean,
                          p_value=p, n=n, estimator=estimator, alpha=alpha, degenerate=True)


def sample_variance(values: Sequence[float]) -> float:
    """The ddof=1 variance of ``values``; exactly 0.0 for constant inputs,
    where numpy's two-pass variance can leave float dust."""
    arr = np.asarray(values, dtype=float)
    return 0.0 if np.ptp(arr) == 0.0 else float(arr.var(ddof=1))


def srs_estimate(deltas: Sequence[float], alpha: float = 0.05) -> EstimateResult:
    """One-sample t inference on paired deltas under simple random sampling."""
    n = len(deltas)
    if n < 2:
        raise TooFewSamples(f"srs_estimate needs n >= 2, got {n}")
    check_alpha(alpha)
    arr = np.asarray(deltas, dtype=float)
    mean = float(arr.mean())
    var = sample_variance(arr)
    if var == 0.0:
        return _degenerate(mean, n, SRS, alpha)
    se = math.sqrt(var) / math.sqrt(n)  # bit for bit arr.std(ddof=1) / sqrt(n)
    # scipy's compiled ufuncs, loaded on first use without scipy.special's
    # package init, which would cost every evaluate ~0.1 s
    stdtr, stdtrit = t_ufuncs()
    df = n - 1
    t = mean / se
    p = 2.0 * float(stdtr(df, -abs(t)))
    crit = float(stdtrit(df, 1.0 - alpha / 2.0))
    return EstimateResult(mean=mean, std_error=se,
                          ci_low=mean - crit * se, ci_high=mean + crit * se,
                          p_value=min(p, 1.0), n=n, estimator=SRS, alpha=alpha)


def check_design(per_stratum: Mapping[StratumKey, object],
                 weights: Mapping[StratumKey, float]) -> None:
    """Design weights name exactly the observed strata and sum to 1."""
    if set(per_stratum) != set(weights):
        missing = set(per_stratum) ^ set(weights)
        raise WeightMismatch(f"strata and weights disagree on {sorted(map(str, missing))}")
    check_weights(weights.values())


def stratified_variance(
    per_stratum: Mapping[StratumKey, Sequence[float]],
    weights: Mapping[StratumKey, float],
) -> float:
    """sum_k W_k^2 s_k^2 / n_k, summed over ``per_stratum`` in its key order."""
    var = 0.0
    for key, values in per_stratum.items():
        if len(values) < 2:
            raise TooFewSamplesInStratum(f"stratum {key} has n={len(values)}, need >= 2")
        var += weights[key] * weights[key] * sample_variance(values) / len(values)
    return var


def stratified_estimate(
    per_stratum: Mapping[StratumKey, Sequence[float]],
    weights: Mapping[StratumKey, float],
    alpha: float = 0.05,
) -> EstimateResult:
    """Weighted stratified mean with variance sum_k W_k^2 s_k^2 / n_k.

    Uses the normal approximation for the interval and test; requires
    explicit design weights (never inferred from sample counts) summing to 1.
    """
    check_alpha(alpha)
    if not per_stratum and not weights:
        raise TooFewSamplesInStratum("stratified_estimate needs at least one stratum")
    check_design(per_stratum, weights)

    se = math.sqrt(stratified_variance(per_stratum, weights))
    mean = sum(weights[key] * float(np.mean(values)) for key, values in per_stratum.items())
    n_total = sum(map(len, per_stratum.values()))
    if se == 0.0:
        return _degenerate(mean, n_total, STRATIFIED, alpha)
    z = mean / se
    p = 2.0 * normal_cdf(-abs(z))
    crit = normal_quantile(1.0 - alpha / 2.0)
    return EstimateResult(mean=mean, std_error=se,
                          ci_low=mean - crit * se, ci_high=mean + crit * se,
                          p_value=min(p, 1.0), n=n_total, estimator=STRATIFIED, alpha=alpha)


_SEGMENT_KEYS = {
    GROUP_BY_POPULARITY: lambda stratum: stratum.popularity,
    GROUP_BY_INTEREST: lambda stratum: stratum.interest,
    GROUP_BY_STRATUM: lambda stratum: stratum,
}


def group_deltas(dataset: EvalDataset, grouping: str) -> dict[Hashable, list[float]]:
    """Each segment's paired deltas in record order; segments in first-seen order."""
    segment_of = _SEGMENT_KEYS.get(grouping)
    if segment_of is None:
        raise OutOfDomain(f"unknown grouping {grouping!r}")
    groups: dict[Hashable, list[float]] = {}
    for record, delta in zip(dataset.records, paired_deltas(dataset)):
        groups.setdefault(segment_of(record.stratum), []).append(delta)
    return groups


def segment_effects(
    dataset: EvalDataset,
    grouping: str = GROUP_BY_POPULARITY,
    alpha: float = 0.05,
    q: float = 0.05,
) -> SegmentAnalysis:
    """Per-segment SRS estimates with BH correction across segment p-values.

    Segments with fewer than 2 paired queries are reported in ``excluded``
    rather than silently dropped. Effects are sorted by segment key.
    """
    groups = group_deltas(dataset, grouping)

    # a StratumKey sorts as (interest, popularity) and a PopularitySegment as its string
    included = sorted(s for s, d in groups.items() if len(d) >= 2)
    excluded = tuple(sorted((s, len(d)) for s, d in groups.items() if len(d) < 2))
    if not included:
        raise NoSegments("no segment has at least 2 paired queries")

    estimates = [srs_estimate(groups[s], alpha) for s in included]
    bh = benjamini_hochberg([e.p_value for e in estimates], q)
    effects = tuple(
        SegmentEffect(segment=s, estimate=e, bh_rejected=bh.rejected[i], adjusted_p=bh.adjusted_p[i])
        for i, (s, e) in enumerate(zip(included, estimates)))
    return SegmentAnalysis(effects=effects, excluded=excluded)
