"""Query-level relevance metrics.

The page score is a normalized discounted gain at depth K whose ideal
denominator assumes an unlimited supply of top-grade (level 5) results, so
it is a pure relevance ratio in [0.2, 1.0]: 0.2 when every label is 1 and
1.0 when every label is 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import QueryRecord, RankedPage
from .errors import EmptyPage, MissingArm

MAX_LEVEL = 5

_discount_cache: list[float] = []


def _discounts(k: int) -> list[float]:
    """1/log2(1+rank) for ranks 1..k, cached across calls."""
    while len(_discount_cache) < k:
        rank = len(_discount_cache) + 1
        _discount_cache.append(1.0 / math.log2(1.0 + rank))
    return _discount_cache[:k]


@dataclass(frozen=True)
class SdcgScore:
    """Page score plus the effective depth it was computed at.

    ``short_page`` is set when the page had fewer than k_depth results; the
    score then truncates both numerator and denominator to the page length.
    """

    value: float
    k_effective: int
    short_page: bool


def sdcg_at_k(page: RankedPage, k_depth: int) -> SdcgScore:
    """Score one ranked page at depth ``k_depth``.

    value = [sum_{k<=K'} L_k / log2(1+k)] / [sum_{k<=K'} 5 / log2(1+k)]
    with K' = min(k_depth, len(page)). Deterministic; raises EmptyPage for a
    page with no results.
    """
    if k_depth < 1:
        raise EmptyPage(f"k_depth must be >= 1, got {k_depth}")
    n = len(page)
    if n == 0:
        raise EmptyPage("cannot score an empty page")
    k_eff = min(k_depth, n)
    disc = _discounts(k_eff)
    levels = page.levels
    num = sum(levels[i] * disc[i] for i in range(k_eff))
    den = MAX_LEVEL * sum(disc)
    return SdcgScore(value=num / den, k_effective=k_eff, short_page=n < k_depth)


def paired_delta(record: QueryRecord, k_depth: int) -> float:
    """Treatment-minus-control score difference for one paired query."""
    if record.treatment is None:
        raise MissingArm(f"record {record.query_id!r} has no treatment arm",
                         query_id=record.query_id, field="treatment")
    return sdcg_at_k(record.treatment, k_depth).value - sdcg_at_k(record.control, k_depth).value
