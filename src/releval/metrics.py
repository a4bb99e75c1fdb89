"""Query-level relevance metrics.

The page score is a normalized discounted gain at depth K whose ideal
denominator assumes an unlimited supply of top-grade (level 5) results, so
it is a pure relevance ratio in [0.2, 1.0]: 0.2 when every label is 1 and
1.0 when every label is 5.
"""

from __future__ import annotations

import math
from operator import mul

from .core import EvalDataset, QueryRecord, check_metric_depth
from .errors import EmptyPage, MissingArm

MAX_LEVEL = 5

_discount_cache: list[float] = []
# MAX_LEVEL * sum of the first k discounts, by k
_denominator_cache: dict[int, float] = {}


def _discounts(k: int) -> list[float]:
    """1/log2(1+rank) for ranks 1..k, cached across calls."""
    while len(_discount_cache) < k:
        rank = len(_discount_cache) + 1
        _discount_cache.append(1.0 / math.log2(1.0 + rank))
    return _discount_cache[:k]


def _denominator(k: int) -> float:
    den = _denominator_cache.get(k)
    if den is None:
        den = _denominator_cache[k] = MAX_LEVEL * sum(_discounts(k))
    return den


def sdcg_at_k(page: bytes, k_depth: int) -> float:
    """Score one ranked page, its labels in rank order, at depth ``k_depth``.

    value = [sum_{k<=K'} L_k / log2(1+k)] / [sum_{k<=K'} 5 / log2(1+k)]
    with K' = min(k_depth, len(page)), so a short page is scored over its
    length. Deterministic; raises EmptyPage for a page with no results and
    OutOfDomain for a depth below 1.
    """
    check_metric_depth(k_depth)
    n = len(page)
    if n == 0:
        raise EmptyPage("cannot score an empty page")
    k_eff = min(k_depth, n)
    den = _denominator(k_eff)  # fills _discount_cache up to k_eff
    # summed left to right, so the value matches a plain += loop bit for bit on
    # CPython up to 3.11; from 3.12, sum() of floats is compensated (Neumaier),
    # which may round the last bit differently
    num = sum(map(mul, page[:k_eff], _discount_cache))
    return num / den


def _require_treatment(record: QueryRecord) -> None:
    if record.treatment is None:
        raise MissingArm(f"record {record.query_id!r} has no treatment arm",
                         query_id=record.query_id, field="treatment")


def paired_delta(record: QueryRecord, k_depth: int) -> float:
    """Treatment-minus-control score difference for one paired query."""
    _require_treatment(record)
    return sdcg_at_k(record.treatment, k_depth) - sdcg_at_k(record.control, k_depth)


def arm_scores(dataset: EvalDataset, arm: str) -> list[float | None]:
    """Page scores of one arm of every record, at the dataset's depth.

    ``arm`` is a page field of QueryRecord: "control", "treatment",
    "control_reference" or "treatment_reference". The entry is None where a
    record has no such page. Each arm is scored once per dataset and kept on
    it, so every consumer reads the same floats. An empty page raises
    EmptyPage naming the first record that has one.
    """
    scores = dataset._scores.get(arm)
    if scores is None:
        k_depth = dataset.k_depth
        try:
            scores = dataset._scores[arm] = [
                None if page is None else sdcg_at_k(page, k_depth)
                for page in (getattr(rec, arm) for rec in dataset.records)]
        except EmptyPage as err:
            # located only on failure, so scoring pays nothing for it
            err.query_id = next(r.query_id for r in dataset.records if getattr(r, arm) == b"")
            err.field = arm
            raise
    return scores


def paired_deltas(dataset: EvalDataset) -> list[float]:
    """Treatment-minus-control score of every record, in record order.

    Raises MissingArm, as paired_delta does, for the first record without a
    treatment arm.
    """
    for rec in dataset.records:
        _require_treatment(rec)
    return [t - c for t, c in zip(arm_scores(dataset, "treatment"),
                                  arm_scores(dataset, "control"))]
