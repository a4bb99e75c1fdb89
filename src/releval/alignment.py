"""Machine-vs-reference label validation.

Agreement rates over raw labels, rank correlations and error distributions
over query-level page scores, reported per popularity segment (and
optionally per market). Paired-difference errors are computed on
delta-of-deltas, where per-query offsets shared by both arms cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from . import metrics
from ._lazy import np
from .core import EvalDataset, PopularitySegment, check_pages
from .errors import (
    AllTied,
    EmptyInput,
    LengthMismatch,
    MissingReferenceLabels,
    OutOfDomain,
    TooFewSamples,
)

OVERALL = "overall"


def _check_xy(x: Sequence[float], y: Sequence[float]) -> None:
    if len(x) != len(y):
        raise LengthMismatch(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise TooFewSamples(f"need at least 2 observations, got {len(x)}")


def _scores(values: Sequence[float], name: str) -> np.ndarray:
    """Values as a float array; NaN raises OutOfDomain (it has no rank), ±inf is kept."""
    array = np.asarray(values, dtype=float)
    if np.isnan(array).any():
        raise OutOfDomain(f"{name} must not contain NaN")
    return array


def _tied_pairs(counts: np.ndarray) -> int:
    """Sum of t*(t-1)/2 over groups of t equal values, given each group's t."""
    return int((counts * (counts - 1) // 2).sum())


def _discordant(a: np.ndarray) -> int:
    """Strict inversions (pairs i<j with a[i] > a[j]) of integers in [0, len(a)), by bottom-up merge.

    At width w each key is offset by n per block of 2w, so all left halves form one sorted array.
    """
    n = len(a)
    pos = np.arange(n)
    count, width = 0, 1
    while width < n:
        offset = pos // (2 * width) * n
        keys = a + offset
        right = pos % (2 * width) >= width
        # a right key's block and the blocks before it hold (block + 1) * width left keys
        below = np.searchsorted(keys[~right], keys[right], side="right")
        count += int(((offset[right] // n + 1) * width - below).sum())
        a = np.sort(keys) - offset
        width *= 2
    return count


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-adjusted rank correlation (tau-b) in O(n log^2 n).

    (C - D) / sqrt((n0 - T_x)(n0 - T_y)) with n0 = n(n-1)/2 and T the tie
    pair counts. Raises AllTied when either variable is constant (the
    denominator would be zero) and OutOfDomain when either holds NaN.
    """
    _check_xy(x, y)
    n = len(x)
    _, rx, cx = np.unique(_scores(x, "x"), return_inverse=True, return_counts=True)
    _, ry, cy = np.unique(_scores(y, "y"), return_inverse=True, return_counts=True)
    n0, t_x, t_y = n * (n - 1) // 2, _tied_pairs(cx), _tied_pairs(cy)
    if n0 == t_x or n0 == t_y:
        raise AllTied("correlation undefined: one variable is constant")

    # dense ranks are below n, so each (x, y) pair is one integer; y's inversions sorted by it
    joint = rx * n + ry
    t_xy = _tied_pairs(np.unique(joint, return_counts=True)[1])
    discordant = _discordant(ry[np.argsort(joint, kind="stable")])
    con_minus_dis = n0 - t_x - t_y + t_xy - 2 * discordant
    return con_minus_dis / math.sqrt((n0 - t_x) * (n0 - t_y))


def _midranks(a: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), ties receiving the mean of their positions."""
    _, inv, counts = np.unique(a, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((2 * ends - counts + 1) / 2)[inv]


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of midranks; NaN in either variable raises OutOfDomain."""
    _check_xy(x, y)
    rx = _midranks(_scores(x, "x"))
    ry = _midranks(_scores(y, "y"))
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0.0:
        raise AllTied("correlation undefined: one variable is constant")
    return float(rx @ ry) / denom


@dataclass(frozen=True)
class ErrorDistribution:
    """Mean and P10/median/P90 of machine-minus-reference errors.

    Percentiles interpolate linearly between order statistics at positions
    (n - 1) * p.
    """

    mean: float
    p10: float
    median: float
    p90: float
    n: int


def error_distribution(machine_scores: Sequence[float],
                       reference_scores: Sequence[float]) -> ErrorDistribution:
    """Machine-minus-reference errors; NaN or ±inf in either argument raises
    OutOfDomain naming it, as a percentile or a difference of them is NaN.
    Finite scores whose difference, or the sum of whose errors, overflows the
    float range raise OutOfDomain naming the overflow."""
    if len(machine_scores) != len(reference_scores):
        raise LengthMismatch(
            f"length mismatch: {len(machine_scores)} vs {len(reference_scores)}")
    if len(machine_scores) == 0:
        raise EmptyInput("error_distribution requires at least one score pair")
    machine = _scores(machine_scores, "machine_scores")
    reference = _scores(reference_scores, "reference_scores")
    for name, scores in (("machine_scores", machine), ("reference_scores", reference)):
        if np.isinf(scores).any():
            raise OutOfDomain(f"{name} must be finite, got {scores[np.isinf(scores)][0]}")
    with np.errstate(over="raise"):
        try:
            errors = machine - reference
        except FloatingPointError:
            raise OutOfDomain(
                "machine_scores - reference_scores overflows the float range") from None
        try:
            mean = float(errors.mean())
        except FloatingPointError:
            raise OutOfDomain("the sum of the errors overflows the float range, "
                              "so their mean cannot be taken") from None
    p10, median, p90 = _p10_median_p90(errors)
    return ErrorDistribution(mean=mean, p10=p10, median=median, p90=p90, n=len(errors))


def _p10_median_p90(values: np.ndarray) -> list[float]:
    """``np.percentile(values, [10, 50, 90])``, bit for bit, as floats.

    numpy's linear method, step by step: ``np.partition`` at the kth set
    numpy uses, so tied values such as -0.0 and 0.0 land where numpy's do,
    then its interpolation with both branches. np.percentile itself calls a
    plain np.unique, which imports numpy.ma.
    """
    n = len(values)
    # numpy divides 10, 50 and 90 by 100, which gives these same floats
    positions = [(n - 1) * q for q in (0.1, 0.5, 0.9)]
    # a position at or past the last index reads the last value on both sides
    below = [-1 if at >= n - 1 else math.floor(at) for at in positions]
    above = [-1 if at >= n - 1 else lo + 1 for at, lo in zip(positions, below)]
    ordered = np.partition(values, sorted({0, -1, *below, *above}))
    out = []
    for at, lo, hi in zip(positions, below, above):
        a, b, weight = float(ordered[lo]), float(ordered[hi]), at - lo
        step = b - a
        out.append(b - step * (1 - weight) if weight >= 0.5 else a + step * weight)
    return out


@dataclass(frozen=True)
class AgreementStats:
    """Label-level agreement; confusion rows are reference labels, columns machine."""

    exact_rate: float
    within_one_rate: float
    confusion: tuple[tuple[int, ...], ...]
    n: int


def label_agreement(machine: bytes, reference: bytes) -> AgreementStats:
    """Agreement of two pages, read in place once ``check_pages`` passes each: a
    page that is not bytes, or a label outside 1..5, raises BadLabelValue."""
    return pooled_agreement(((machine, reference),))


def pooled_agreement(pairs: Iterable[tuple[bytes, bytes]]) -> AgreementStats:
    """Agreement over every position of each (machine, reference) page pair.

    The pairs are read SCORE_SLICE at a time: each slice's machine pages and
    reference pages pass ``check_pages``, and their joins are counted in
    place, so nothing grows with the number of pages but the counts. Integer
    counts add exactly, so any slicing gives the same rates. A pair whose
    pages differ in length raises LengthMismatch, and no label pair at all
    EmptyInput.
    """
    confusion = np.zeros(25, dtype=np.intp)
    pairs = iter(pairs)
    while chunk := list(islice(pairs, metrics.SCORE_SLICE)):
        machine, reference = zip(*chunk)
        m = np.frombuffer(check_pages(machine, "machine"), np.uint8)
        r = np.frombuffer(check_pages(reference, "reference"), np.uint8)
        if list(map(len, machine)) != list(map(len, reference)):
            m_len, r_len = next((len(x), len(y)) for x, y in chunk if len(x) != len(y))
            raise LengthMismatch(f"length mismatch: {m_len} vs {r_len}")
        # uint8 cells 5r + m - 6, built in place in one array, 2^16 per
        # bincount (it widens them to intp); exact on the diagonal
        cells = r * np.uint8(5)
        cells += m
        cells -= 6
        for lo in range(0, len(cells), 1 << 16):
            confusion += np.bincount(cells[lo:lo + (1 << 16)], minlength=25)
    n = int(confusion.sum())
    if n == 0:
        raise EmptyInput("label_agreement requires at least one label pair")
    confusion = confusion.reshape(5, 5)
    exact = int(np.trace(confusion))
    within_one = exact + int(np.trace(confusion, 1) + np.trace(confusion, -1))
    return AgreementStats(exact_rate=exact / n, within_one_rate=within_one / n,
                          confusion=tuple(map(tuple, confusion.tolist())), n=n)


@dataclass(frozen=True)
class SegmentAlignment:
    """One report row: correlations and error distributions for a segment."""

    market: str | None
    segment: str
    kendall: float | None
    spearman: float | None
    errors: ErrorDistribution
    paired_errors: ErrorDistribution | None
    n: int


@dataclass(frozen=True)
class AlignmentReport:
    segments: tuple[SegmentAlignment, ...]
    excluded: tuple[tuple[str, int], ...]
    k_depth: int


def alignment_report(dataset: EvalDataset, by_market: bool = False) -> AlignmentReport:
    """Overall + per-popularity-segment alignment rows (per market if asked).

    Every record must carry reference labels for its control arm (and for
    the treatment arm when present). Segments with fewer than 2 queries are
    listed as excluded.
    """
    records = dataset.records
    for rec in records:
        if rec.control_reference is None:
            raise MissingReferenceLabels(
                f"record {rec.query_id!r} has no reference labels for its control arm")
        if rec.treatment is not None and rec.treatment_reference is None:
            raise MissingReferenceLabels(
                f"record {rec.query_id!r} has no reference labels for its treatment arm")
    if not records:
        raise EmptyInput("alignment_report requires a non-empty dataset")

    # a record without a treatment page has NaN deltas: its segment is not paired
    machine, reference, m_delta, r_delta = (
        np.array(metrics.arm_scores(dataset, arm), dtype=float)
        for arm in ("control", "control_reference", "treatment", "treatment_reference"))
    m_delta -= machine
    r_delta -= reference
    segs = {seg: code for code, seg in enumerate(PopularitySegment)}
    seg_of = np.fromiter((segs[rec.stratum.popularity] for rec in records), dtype=np.int8)
    if by_market:
        # coded from the Python strings: a numpy string drops trailing NULs ("US\x00")
        markets = {market: code for code, market in enumerate(sorted({r.market for r in records}))}
        market_of = np.fromiter((markets[rec.market] for rec in records), dtype=np.int32)
        pools = [(market, market_of == code) for market, code in markets.items()]
    else:
        pools = [(None, np.ones(len(records), dtype=bool))]

    segments: list[SegmentAlignment] = []
    excluded: list[tuple[str, int]] = []
    for market, pool in pools:
        groups = [(OVERALL, pool)] + [(seg.value, pool & (seg_of == code))
                                      for seg, code in segs.items()]
        for name, rows in groups:
            n = int(np.count_nonzero(rows))
            if n < 2:
                if n:
                    excluded.append((name if market is None else f"{market}/{name}", n))
                continue
            m, r = machine[rows], reference[rows]
            try:
                tau, rho = kendall_tau(m, r), spearman_rho(m, r)
            except AllTied:
                tau = rho = None
            dm = m_delta[rows]
            paired = None if np.isnan(dm).any() else error_distribution(dm, r_delta[rows])
            segments.append(SegmentAlignment(market=market, segment=name, kendall=tau,
                                             spearman=rho, errors=error_distribution(m, r),
                                             paired_errors=paired, n=n))
    return AlignmentReport(segments=tuple(segments), excluded=tuple(excluded),
                           k_depth=dataset.k_depth)
