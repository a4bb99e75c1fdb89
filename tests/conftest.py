"""Shared helpers: record builders and independent brute-force oracles.

The oracles here deliberately avoid the library's fast paths: correlation and
inversion counts by O(n^2) pair scan, BH by direct threshold enumeration,
pooled variance by direct computation, page-score moments in closed form,
page scores drawn from a probability vector with their own discounts, and
dataset lines by json.dumps on each record's JSON object.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import settings

from releval.core import (
    PopularitySegment,
    QueryRecord,
    StratumKey,
)

SEGMENTS = list(PopularitySegment)

# property tests draw the same examples on every run and keep no example
# database, so a failure reproduces from the source alone
settings.register_profile("ci", derandomize=True, database=None, deadline=None)
settings.load_profile("ci")


def sk(interest: str, popularity: str = "head") -> StratumKey:
    return StratumKey(interest=interest, popularity=PopularitySegment(popularity))


def page(*levels: int) -> bytes:
    return bytes(levels)


def record(query_id: str, control, treatment=None, stratum=None, market="US",
           control_reference=None, treatment_reference=None) -> QueryRecord:
    """A record whose given pages, any sequences of labels, become bytes."""
    def as_page(labels):
        return None if labels is None else bytes(labels)

    return QueryRecord(
        query_id=query_id,
        market=market,
        stratum=stratum or sk("art"),
        control=bytes(control),
        treatment=as_page(treatment),
        control_reference=as_page(control_reference),
        treatment_reference=as_page(treatment_reference),
    )


def raw_record(query_id: str, control_levels, treatment_levels=None,
               interest="art", popularity="head", market="US") -> dict:
    obj = {
        "query_id": query_id,
        "market": market,
        "stratum": {"interest": interest, "popularity": popularity},
        "control": [{"rank": i + 1, "label": lab} for i, lab in enumerate(control_levels)],
    }
    if treatment_levels is not None:
        obj["treatment"] = [{"rank": i + 1, "label": lab}
                            for i, lab in enumerate(treatment_levels)]
    return obj


def dual_raw(query_id, machine, reference, machine_t=None, reference_t=None,
             interest="art", popularity="head", market="US"):
    obj = {
        "query_id": query_id,
        "market": market,
        "stratum": {"interest": interest, "popularity": popularity},
        "control": {"machine_labels": machine, "reference_labels": reference},
    }
    if machine_t is not None:
        obj["treatment"] = {"machine_labels": machine_t, "reference_labels": reference_t}
    return obj


# -- oracles ------------------------------------------------------------------

def _arm_to_json(page, reference):
    if reference is not None:
        return {"machine_labels": list(page), "reference_labels": list(reference)}
    return [{"rank": r, "label": lab} for r, lab in enumerate(page, start=1)]


def record_to_json(rec: QueryRecord) -> dict:
    """A record's JSON object: a list-form arm without reference labels, a
    dual-label one with them, and no treatment key for a record without one."""
    obj = {
        "query_id": rec.query_id,
        "market": rec.market,
        "stratum": {"interest": rec.stratum.interest,
                    "popularity": rec.stratum.popularity.value},
        "control": _arm_to_json(rec.control, rec.control_reference),
    }
    if rec.treatment is not None:
        obj["treatment"] = _arm_to_json(rec.treatment, rec.treatment_reference)
    return obj


def dataset_bytes(records) -> bytes:
    """The bytes write_dataset must give: one json.dumps(sort_keys=True) line a record."""
    return "".join(json.dumps(record_to_json(rec), sort_keys=True) + "\n"
                   for rec in records).encode("utf-8")


def brute_kendall_tau(x, y) -> float:
    """Tau-b by blocked O(n^2) sign scan; no ranks, no sort, no inversion count."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    s = 0
    block = 512
    for lo in range(0, n, block):
        # int8 signs (a > b) - (a < b), their products summed as integers
        xb, yb = x[lo:lo + block, None], y[lo:lo + block, None]
        dx = (xb > x).view(np.int8) - (xb < x).view(np.int8)
        dy = (yb > y).view(np.int8) - (yb < y).view(np.int8)
        s += int((dx * dy).sum(dtype=np.int64))
    s /= 2.0  # each unordered pair counted twice; diagonal contributes 0
    n0 = n * (n - 1) / 2.0
    t_x = sum(c * (c - 1) / 2.0 for c in np.unique(x, return_counts=True)[1])
    t_y = sum(c * (c - 1) / 2.0 for c in np.unique(y, return_counts=True)[1])
    return s / math.sqrt((n0 - t_x) * (n0 - t_y))


def brute_inversions(a) -> int:
    """Pairs i < j with a[i] > a[j], every pair compared directly."""
    a = np.asarray(a)
    return int(np.triu(a[:, None] > a[None, :], 1).sum())


def brute_spearman_rho(x, y) -> float:
    """Midrank Pearson via scipy-free direct computation."""
    def midranks(a):
        a = np.asarray(a, dtype=float)
        order = np.argsort(a)
        ranks = np.empty(len(a))
        i = 0
        while i < len(a):
            j = i
            while j + 1 < len(a) and a[order[j + 1]] == a[order[i]]:
                j += 1
            ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return ranks

    rx = midranks(x)
    ry = midranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / math.sqrt((rx ** 2).sum() * (ry ** 2).sum()))


def brute_bh_rejections(p_values, q) -> list[bool]:
    """Step-up by direct enumeration of the sorted thresholds."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: (p_values[i], i))
    k_star = 0
    for pos, i in enumerate(order, start=1):
        if p_values[i] <= pos * q / m:
            k_star = pos
    rejected = [False] * m
    for pos, i in enumerate(order, start=1):
        if pos <= k_star:
            rejected[i] = True
    return rejected


def pooled_population_variance(values) -> float:
    arr = np.asarray(values, dtype=float)
    return float(arr.var())


def shift_pmf(pmf, delta: float) -> np.ndarray:
    """Distribution over labels 1..5 of clamp(L + delta) for a fractional shift:
    L moves up by floor(delta) w.p. 1 - frac and by one more w.p. frac."""
    pmf = np.asarray(pmf, dtype=float)
    f = math.floor(delta)
    frac = delta - f
    moved = np.arange(5) + f
    return (np.bincount(np.clip(moved, 0, 4), pmf * (1.0 - frac), minlength=5)
            + np.bincount(np.clip(moved + 1, 0, 4), pmf * frac, minlength=5))


def stratum_score_moments(probs, k_depth: int, shift: float = 0.0) -> tuple[float, float]:
    """Exact mean and variance of the page score when each of ``k_depth`` labels
    is drawn independently from ``probs`` shifted by ``shift``.

    The score is linear in the labels: with d_k = 1/log2(1+k) and D = 5 sum d_k,
    mean = E[L] sum d_k / D = E[L] / 5 and var = Var[L] sum d_k^2 / D^2.
    """
    pmf = shift_pmf(probs, shift)
    levels = np.arange(1, 6)
    mean = pmf @ levels
    disc = 1.0 / np.log2(np.arange(2, k_depth + 2))
    var = (pmf @ levels ** 2 - mean ** 2) * (disc ** 2).sum() / (5.0 * disc.sum()) ** 2
    return float(mean / 5.0), float(var)


def sample_stratum_scores(probs, count: int, k_depth: int, rng) -> np.ndarray:
    """``count`` page scores, each of ``k_depth`` labels drawn from ``probs`` by
    inverse CDF on one ``(count, k_depth)`` block of uniforms."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    levels = np.searchsorted(cdf, rng.random((count, k_depth))) + 1
    disc = 1.0 / np.log2(np.arange(2, k_depth + 2))
    return levels @ disc / (5.0 * disc.sum())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
