"""Query-level relevance metrics.

The page score is a normalized discounted gain at depth K whose ideal
denominator assumes an unlimited supply of top-grade (level 5) results, so
it is a pure relevance ratio in [0.2, 1.0]: 0.2 when every label is 1 and
1.0 when every label is 5.
"""

from __future__ import annotations

import math
from operator import mul

from ._lazy import np
from .core import EvalDataset, QueryRecord, check_metric_depth, check_pages
from .errors import EmptyPage, MissingArm

MAX_LEVEL = 5

# records an arm is checked and scored per slice, and page pairs counted per
# slice by alignment's agreement: it bounds check_pages' join and the float
# block, 200 KB at K = 25 (4,096 rows held 0.8 MB and scored no faster)
SCORE_SLICE = 1024

# 1/log2(1+rank) for ranks 1, 2, ..., and the running sums of those
# discounts: _prefix[k] is the sum of the first k, added left to right
_discounts: list[float] = []
_prefix: list[float] = [0.0]


def _extend_discounts(depth: int) -> None:
    while len(_discounts) < depth:
        rank = len(_discounts) + 1
        _discounts.append(1.0 / math.log2(1.0 + rank))
        _prefix.append(_prefix[-1] + _discounts[-1])


def sdcg_at_k(page: bytes, k_depth: int) -> float:
    """Score one ranked page, its labels in rank order, at depth ``k_depth``.

    value = [sum_{k<=K'} L_k / log2(1+k)] / [sum_{k<=K'} 5 / log2(1+k)]
    with K' = min(k_depth, len(page)), so a short page is scored over its
    length. Deterministic; raises EmptyPage for a page with no results and
    OutOfDomain for a depth below 1. The page's labels are not checked: this
    is ``metric``'s per-page path, over pages the parser has checked, and
    ``arm_scores`` checks the pages it scores.
    """
    check_metric_depth(k_depth)
    n = len(page)
    if n == 0:
        raise EmptyPage("cannot score an empty page")
    k_eff = min(k_depth, n)
    _extend_discounts(k_eff)
    # both sums add one term at a time, left to right, on every CPython; from
    # 3.12 sum() of floats is compensated (Neumaier) and may round differently
    num = 0.0
    for term in map(mul, page[:k_eff], _discounts):
        num += term
    return num / (MAX_LEVEL * _prefix[k_eff])


def _require_treatment(record: QueryRecord) -> None:
    if record.treatment is None:
        raise MissingArm(f"record {record.query_id!r} has no treatment arm",
                         query_id=record.query_id, field="treatment")


def paired_delta(record: QueryRecord, k_depth: int) -> float:
    """Treatment-minus-control score difference for one paired query."""
    _require_treatment(record)
    return sdcg_at_k(record.treatment, k_depth) - sdcg_at_k(record.control, k_depth)


def _slice_scores(labels: bytes, lengths: list[int], k_depth: int) -> list[float]:
    """The score of each page of a slice, from its joined labels and page lengths.

    The pages are laid into an (n, width) float block, one page a row, width
    the longest page's effective depth. Each row times the discounts is
    summed by np.cumsum, which adds in order, left to right as sdcg_at_k
    does, and is read at its page's effective depth: the same bits as
    sdcg_at_k gives page by page.
    """
    sizes = np.array(lengths, dtype=np.intp)
    flat = np.frombuffer(labels, np.uint8)
    width = min(k_depth, int(sizes.max()))
    if width < sizes.max():  # keep each page's first K labels
        starts = np.cumsum(sizes) - sizes
        flat = flat[np.arange(len(flat)) - np.repeat(starts, sizes) < width]
    depth = np.minimum(sizes, width)
    block = np.zeros((len(sizes), width))
    block[np.arange(width) < depth[:, None]] = flat
    _extend_discounts(width)
    block *= _discounts[:width]
    sums = np.cumsum(block, axis=1, out=block)[np.arange(len(sizes)), depth - 1]
    return (sums / (MAX_LEVEL * np.array(_prefix)[depth])).tolist()


def arm_scores(dataset: EvalDataset, arm: str) -> list[float | None]:
    """Page scores of one arm of every record, at the dataset's depth.

    ``arm`` is a page field of QueryRecord: "control", "treatment",
    "control_reference" or "treatment_reference". The entry is None where a
    record has no such page. Each arm is scored once per dataset and kept on
    it, so every consumer reads the same floats, the bits sdcg_at_k gives.
    The pages are checked and scored SCORE_SLICE records at a time: each
    slice's pages pass ``check_pages`` and its join is scored as one numpy
    block, so neither holds more than one slice. An empty page raises
    EmptyPage naming the first record with one.
    """
    scores = dataset._scores.get(arm)
    if scores is None:
        records, k_depth = dataset.records, dataset.k_depth
        scores = [None] * len(records)
        for lo in range(0, len(records), SCORE_SLICE):
            pages = [getattr(rec, arm) for rec in records[lo:lo + SCORE_SLICE]]
            present = [page for page in pages if page is not None]
            labels = check_pages(present, arm)
            lengths = list(map(len, present))
            if not all(lengths):
                raise EmptyPage("cannot score an empty page", field=arm, query_id=next(
                    rec.query_id for rec, page in zip(records[lo:], pages) if page == b""))
            if not present:
                continue
            values = _slice_scores(labels, lengths, k_depth)
            if len(present) < len(pages):  # None where a record has no page
                scored = iter(values)
                values = [None if page is None else next(scored) for page in pages]
            scores[lo:lo + len(pages)] = values
        dataset._scores[arm] = scores
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
