"""Stratified sampling design: variance decomposition and budget allocation.

The decomposition uses population (divide-by-n) variance throughout so the
identity total = within + between is exact; estimation uses the n-1
convention separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, Mapping, Sequence

from ._lazy import np
from .core import StratumKey, check_instance, check_integer, store_numbers
from .errors import BudgetTooSmall, EmptyInput, MissingSigma, OutOfDomain, WeightMismatch

MIN_PER_STRATUM = 2
WEIGHT_TOL = 1e-9  # how far stratum weights, or a row of probabilities, may sum from 1


@dataclass(frozen=True)
class StratumSpec:
    """Design inputs for one stratum: population share and moment estimates."""

    key: StratumKey
    weight: float
    sigma: float | None = None
    mu: float | None = None

    def __post_init__(self):
        check_instance(self.key, StratumKey, "stratum key")
        store_numbers(self, "weight", *(name for name in ("sigma", "mu")
                                         if getattr(self, name) is not None))
        if not 0.0 < self.weight <= 1.0:
            raise WeightMismatch(f"stratum {self.key} weight must be in (0, 1], got {self.weight}")
        if self.sigma is not None and not 0.0 <= self.sigma < math.inf:
            raise MissingSigma(f"stratum {self.key} sigma must be finite and >= 0, got {self.sigma}")
        if self.mu is not None and not math.isfinite(self.mu):
            raise OutOfDomain(f"stratum {self.key} mu must be finite, got {self.mu}")


@dataclass(frozen=True)
class VarianceDecomposition:
    within: float
    between: float
    total: float


@dataclass(frozen=True)
class Allocation:
    """Integer sample counts per stratum summing exactly to the budget.

    ``fallback_proportional`` is set when optimal allocation degenerated
    (all weight*sigma products zero) and proportional shares were used.
    """

    per_stratum: Mapping[StratumKey, int]
    fallback_proportional: bool = False


def check_weights(weights: Iterable[float]) -> None:
    total = float(reduce(add, weights, 0))
    if not abs(total - 1.0) <= WEIGHT_TOL:  # a NaN total fails too
        raise WeightMismatch(f"stratum weights must sum to 1 +/- {WEIGHT_TOL}, got {total!r}")


def decompose_variance(values: Iterable[tuple[StratumKey, float]]) -> VarianceDecomposition:
    """Split pooled population variance into within- and between-strata parts.

    within  = sum_k (n_k/N) var_k      (population variance inside stratum k)
    between = sum_k (n_k/N) (mean_k - mean)^2
    total equals the population variance of the pooled values.
    """
    groups: dict[StratumKey, list[float]] = {}
    for key, value in values:
        groups.setdefault(key, []).append(float(value))
    if not groups:
        raise EmptyInput("decompose_variance requires at least one value")

    n_total = sum(len(vals) for vals in groups.values())
    grand_mean = sum(sum(vals) for vals in groups.values()) / n_total
    within = 0.0
    between = 0.0
    for vals in groups.values():
        arr = np.asarray(vals)
        share = len(vals) / n_total
        within += share * float(arr.var())
        between += share * (float(arr.mean()) - grand_mean) ** 2
    return VarianceDecomposition(within=within, between=between, total=within + between)


def _largest_remainder(targets: Sequence[float], keys: Sequence[StratumKey], budget: int) -> list[int]:
    """Round real targets to integers summing to ``budget``.

    Leftover units go to the largest fractional remainders; ties break by
    stratum key in lexicographic order so the result is deterministic. A
    budget whose float targets lost units (past about 2^52) is refused.
    """
    floors = [math.floor(t) for t in targets]
    leftover = budget - sum(floors)
    if not 0 <= leftover <= len(targets):
        raise OutOfDomain(f"budget {budget} is too large to split into exact stratum counts")
    order = sorted(range(len(targets)),
                   key=lambda i: (-(targets[i] - floors[i]), keys[i]))
    counts = list(floors)
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def allocate(
    strata: Sequence[StratumSpec],
    budget: int,
    mode: str = "neyman",
    min_per_stratum: int = MIN_PER_STRATUM,
) -> Allocation:
    """Allocate an integer sample budget to strata.

    ``mode="neyman"`` sets shares proportional to weight*sigma (optimal
    allocation); ``"proportional"`` uses the weights alone. Strata whose
    real-valued target falls below ``min_per_stratum`` are pinned at the
    minimum and the remaining budget re-allocated among the rest.
    """
    if mode not in ("neyman", "proportional"):
        raise OutOfDomain(f"unknown allocation mode {mode!r}")
    if not strata:
        raise EmptyInput("allocate requires at least one stratum")
    if check_integer(min_per_stratum, "min_per_stratum") < 0:
        raise OutOfDomain(f"min_per_stratum must be >= 0, got {min_per_stratum}")
    check_weights(s.weight for s in strata)
    if check_integer(budget, "budget") < min_per_stratum * len(strata):
        raise BudgetTooSmall(
            f"budget {budget} cannot give {len(strata)} strata at least {min_per_stratum} each")

    fallback = False
    if mode == "neyman":
        for s in strata:
            if s.sigma is None:
                raise MissingSigma(f"optimal allocation requires sigma for stratum {s.key}")
        shares = [s.weight * s.sigma for s in strata]
        if not any(shares):  # every share is >= 0
            shares = [s.weight for s in strata]
            fallback = True
    else:
        shares = [s.weight for s in strata]
    # bounds every target below, which is at most budget * share
    try:
        finite = math.isfinite(budget * reduce(add, shares, 0))
    except OverflowError:  # a budget beyond the float range
        finite = False
    if not finite:
        raise OutOfDomain(f"budget {budget} times the summed stratum shares is not finite")

    keys = [s.key for s in strata]
    counts = [min_per_stratum] * len(strata)
    active = list(range(len(strata)))
    # Pin strata whose target is below the minimum, then re-scale the rest.
    while active:
        remaining = budget - min_per_stratum * (len(strata) - len(active))
        # never 0: the first round pins every zero share when the minimum is
        # positive, and pins nothing when it is 0
        share_sum = reduce(add, (shares[i] for i in active), 0)
        targets = [remaining * shares[i] / share_sum for i in active]
        kept = [i for i, t in zip(active, targets) if t >= min_per_stratum]
        if len(kept) == len(active):
            for i, c in zip(active, _largest_remainder(targets, [keys[i] for i in active],
                                                       remaining)):
                counts[i] = c
            break
        active = kept

    per_stratum = {keys[i]: counts[i] for i in range(len(strata))}
    return Allocation(per_stratum=per_stratum, fallback_proportional=fallback)

