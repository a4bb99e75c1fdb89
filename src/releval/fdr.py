"""Benjamini-Hochberg step-up control of the false discovery rate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import check_fdr_level
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
        if not 0.0 <= p <= 1.0:
            raise BadPValue(f"p-value out of [0, 1]: {p}")

    order = sorted(range(m), key=lambda i: (p_values[i], i))

    k_star = 0
    for pos, i in enumerate(order, start=1):
        if p_values[i] <= pos * q / m:
            k_star = pos

    adjusted_sorted = [0.0] * m
    running = 1.0
    for pos in range(m, 0, -1):
        running = min(running, m * p_values[order[pos - 1]] / pos)
        adjusted_sorted[pos - 1] = running

    rejected = [False] * m
    adjusted = [1.0] * m
    for pos, i in enumerate(order):
        adjusted[i] = adjusted_sorted[pos]
        rejected[i] = pos < k_star
    return BhResult(rejected=tuple(rejected), adjusted_p=tuple(adjusted), k_star=k_star)
