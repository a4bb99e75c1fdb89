"""Benjamini-Hochberg step-up control of the false discovery rate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ._lazy import np
from .core import check_fdr_level, is_number, shown
from .errors import BadPValue, EmptyInput


@dataclass(frozen=True)
class BhResult:
    """Per-hypothesis decisions and adjusted p-values, in input order.

    ``k_star`` is the largest rejection index in sorted-p order (0 when
    nothing is rejected).
    """

    rejected: tuple[bool, ...]
    adjusted_p: tuple[float, ...]
    k_star: int


def benjamini_hochberg(p_values: Sequence[float], q: float = 0.05) -> BhResult:
    """Step-up procedure at FDR level ``q``.

    Sort p ascending, find the largest i with p_(i) <= i*q/m and reject
    hypotheses 1..i. Adjusted p-values are the step-up duals
    min(1, min_{j>=i} m*p_(j)/j), so rejected[i] <=> adjusted_p[i] <= q.
    Ties are broken by original index (stable), making output deterministic.
    """
    m = len(p_values)
    if m == 0:
        raise EmptyInput("benjamini_hochberg requires at least one p-value")
    check_fdr_level(q)
    for p in p_values:
        if not is_number(p) or not 0.0 <= p <= 1.0:
            raise BadPValue(f"p-value must be a number in [0, 1], got {shown(p)}")

    p = np.asarray(p_values, dtype=float)
    order = np.argsort(p, kind="stable")
    ranks = np.arange(1, m + 1)
    passing = np.flatnonzero(p[order] <= ranks * q / m)
    k_star = int(passing[-1]) + 1 if passing.size else 0
    adjusted = np.empty(m)
    # the running minimum from the largest p down
    adjusted[order] = np.minimum.accumulate(np.minimum(1.0, m * p[order] / ranks)[::-1])[::-1]
    rejected = np.empty(m, dtype=bool)
    rejected[order] = ranks <= k_star
    return BhResult(rejected=tuple(rejected.tolist()), adjusted_p=tuple(adjusted.tolist()),
                    k_star=k_star)
