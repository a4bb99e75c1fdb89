"""Seeded synthetic experiment generation.

Produces stratified query populations with known per-position label
distributions, applies treatment effects as coupled label shifts, and
corrupts true labels through a row-stochastic confusion matrix standing in
for a machine labeler. Every generator is a pure function of (inputs, seed):
substreams are keyed by (seed, purpose, stratum, query index), so any
parallel partitioning by stratum reproduces the sequential output.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._rng import substream
from .core import EvalDataset, QueryRecord, RankedPage, StratumKey
from .errors import BadMatrix, BadSpec, InfeasibleTargets
from .metrics import _discounts
from .sampling import _largest_remainder, check_weights

_PROB_TOL = 1e-9


@dataclass(frozen=True)
class LabelProfile:
    """Per-position label distribution for one stratum.

    Two forms:
      * kind="categorical": ``probs`` is a 5-vector applied at every rank,
        or one 5-vector per rank (positions past the last repeat it).
      * kind="curve": expected label mean_top at rank 1 decaying by ``decay``
        per rank (clamped to [1, 5]), realized as the two-point distribution
        on the neighboring integer labels that matches the expectation.
    """

    kind: str
    probs: tuple = ()
    mean_top: float = 0.0
    decay: float = 0.0

    def __post_init__(self):
        if self.kind == "categorical":
            rows = self._rows()
            for row in rows:
                if len(row) != 5 or any(p < 0 for p in row):
                    raise BadSpec(f"categorical profile rows must be 5 non-negative probs, got {row}")
                if abs(sum(row) - 1.0) > _PROB_TOL:
                    raise BadSpec(f"categorical profile row must sum to 1, got {sum(row)!r}")
        elif self.kind == "curve":
            if not 1.0 <= self.mean_top <= 5.0:
                raise BadSpec(f"curve mean_top must be in [1, 5], got {self.mean_top}")
        else:
            raise BadSpec(f"unknown profile kind {self.kind!r}")

    def _rows(self) -> tuple[tuple[float, ...], ...]:
        if self.probs and isinstance(self.probs[0], (tuple, list)):
            return tuple(tuple(float(p) for p in row) for row in self.probs)
        return (tuple(float(p) for p in self.probs),)

    def pmf(self, rank: int) -> np.ndarray:
        """Distribution over labels 1..5 at a 1-based rank."""
        if self.kind == "categorical":
            rows = self._rows()
            return np.array(rows[min(rank - 1, len(rows) - 1)])
        m = min(5.0, max(1.0, self.mean_top - self.decay * (rank - 1)))
        lo = int(math.floor(m))
        out = np.zeros(5)
        if lo >= 5:
            out[4] = 1.0
        else:
            w_hi = m - lo
            out[lo - 1] = 1.0 - w_hi
            out[lo] = w_hi
        return out

    def pmf_matrix(self, k_depth: int) -> np.ndarray:
        """(k_depth, 5) matrix of per-rank distributions."""
        return np.stack([self.pmf(k) for k in range(1, k_depth + 1)])


def shift_pmf(pmf: np.ndarray, delta: float) -> np.ndarray:
    """Distribution of clamp(L + delta) for a fractional label shift.

    delta = f + frac applies an integer shift of f with probability 1-frac
    and f+1 with probability frac, clamping into [1, 5]. Raises the expected
    label by delta except where clamping binds.
    """
    if delta == 0.0:
        return np.asarray(pmf, dtype=float)
    f = math.floor(delta)
    frac = delta - f
    out = np.zeros(5)
    for i in range(5):
        for step, w in ((f, 1.0 - frac), (f + 1, frac)):
            if w > 0.0:
                j = min(4, max(0, i + step))
                out[j] += pmf[i] * w
    return out


@dataclass(frozen=True)
class StratumProfile:
    key: StratumKey
    weight: float
    profile: LabelProfile


@dataclass(frozen=True)
class PopulationSpec:
    """Stratified synthetic population: strata plus a uniform query count."""

    strata: tuple[StratumProfile, ...]
    queries_per_stratum: int
    market: str = "US"

    def __post_init__(self):
        if not self.strata:
            raise BadSpec("population spec needs at least one stratum")
        if self.queries_per_stratum < 1:
            raise BadSpec(f"queries_per_stratum must be >= 1, got {self.queries_per_stratum}")
        keys = [s.key for s in self.strata]
        if len(set(keys)) != len(keys):
            raise BadSpec("duplicate stratum keys in population spec")
        try:
            check_weights(s.weight for s in self.strata)
        except Exception as err:
            raise BadSpec(str(err)) from err


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row-stochastic 5x5 matrix: row r is P(machine label | true label r+1)."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.rows) != 5 or any(len(r) != 5 for r in self.rows):
            raise BadMatrix("confusion matrix must be 5x5")
        for r, row in enumerate(self.rows):
            if any(p < 0 for p in row):
                raise BadMatrix(f"row {r + 1} has a negative entry")
            if abs(sum(row) - 1.0) > _PROB_TOL:
                raise BadMatrix(f"row {r + 1} must sum to 1, got {sum(row)!r}")

    def as_array(self) -> np.ndarray:
        return np.array(self.rows)

    @classmethod
    def identity(cls) -> "ConfusionMatrix":
        return cls(tuple(tuple(1.0 if i == j else 0.0 for j in range(5)) for i in range(5)))


@dataclass(frozen=True)
class EffectSpec:
    """Per-stratum additive shift in expected label quality (clamped)."""

    shifts: Mapping[StratumKey, float] = field(default_factory=dict)
    default: float = 0.0

    def shift_for(self, key: StratumKey) -> float:
        return self.shifts.get(key, self.default)

    @classmethod
    def null(cls) -> "EffectSpec":
        return cls()


def calibrate_confusion(exact_target: float, within_one_target: float) -> ConfusionMatrix:
    """Closed-form confusion matrix hitting agreement targets under a uniform prior.

    Each row puts ``exact_target`` on the diagonal and splits
    ``within_one_target - exact_target`` equally over adjacent labels (the
    single neighbor takes it all in the first and last rows); the remainder
    spreads uniformly over non-adjacent labels. Expected exact and
    within-one rates equal the targets exactly for any true-label prior.
    """
    if not 0.0 < exact_target <= within_one_target <= 1.0:
        raise InfeasibleTargets(
            f"need 0 < exact <= within_one <= 1, got ({exact_target}, {within_one_target})")
    d = exact_target
    a = within_one_target - exact_target
    r = 1.0 - within_one_target
    rows = []
    for i in range(5):
        row = [0.0] * 5
        row[i] = d
        adjacent = [j for j in (i - 1, i + 1) if 0 <= j < 5]
        for j in adjacent:
            row[j] += a / len(adjacent)
        far = [j for j in range(5) if abs(j - i) > 1]
        for j in far:
            row[j] += r / len(far)
        rows.append(tuple(row))
    return ConfusionMatrix(rows=tuple(rows))


def _stratum_true_pages(profile: LabelProfile, count: int, k_depth: int,
                        seed: int, key: StratumKey) -> np.ndarray:
    """(count, k_depth) matrix of control-arm labels, one substream per query."""
    pmfs = profile.pmf_matrix(k_depth)
    cdf = np.cumsum(pmfs, axis=1)
    cdf[:, -1] = 1.0
    pages = np.empty((count, k_depth), dtype=np.int64)
    for q in range(count):
        u = substream(seed, "pop", key, q).random(k_depth)
        pages[q] = (u[:, None] > cdf).sum(axis=1) + 1
    return pages


def _apply_effect(pages: np.ndarray, delta: float, seed: int, key: StratumKey) -> np.ndarray:
    """Coupled treatment labels: clamp(L + f [+1 w.p. frac]), marginally shift_pmf."""
    if delta == 0.0:
        return pages.copy()
    f = math.floor(delta)
    frac = delta - f
    out = np.empty_like(pages)
    for q in range(pages.shape[0]):
        u = substream(seed, "effect", key, q).random(pages.shape[1])
        step = f + (u < frac).astype(np.int64)
        out[q] = np.clip(pages[q] + step, 1, 5)
    return out


def _machine_labels(true_levels: np.ndarray, cdf_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Resample each label from its true label's confusion row at uniform u."""
    row_cdf = cdf_rows[true_levels - 1]
    return (u[..., None] > row_cdf).sum(axis=-1) + 1


def generate_population(spec: PopulationSpec, k_depth: int, seed: int) -> list[QueryRecord]:
    """True-labeled paired records; both arms identical (no effect applied yet)."""
    records: list[QueryRecord] = []
    for sp in spec.strata:
        pages = _stratum_true_pages(sp.profile, spec.queries_per_stratum, k_depth, seed, sp.key)
        for q in range(spec.queries_per_stratum):
            page = RankedPage.from_levels(pages[q])
            records.append(QueryRecord(
                query_id=f"{sp.key.interest}-{sp.key.popularity.value}-{q:06d}",
                market=spec.market, stratum=sp.key, control=page, treatment=page))
    return records


def apply_labeler(records: Sequence[QueryRecord], confusion: ConfusionMatrix,
                  seed: int, rho_shared: float = 0.0) -> list[QueryRecord]:
    """Corrupt true labels into machine labels; true labels move to reference.

    ``rho_shared`` in [0, 1] is the probability that a (query, position)
    reuses the same latent uniform for both arms, correlating labeler errors
    across arms (when true labels agree, the machine labels then agree too).
    """
    if not 0.0 <= rho_shared <= 1.0:
        raise BadMatrix(f"rho_shared must be in [0, 1], got {rho_shared}")
    cdf_rows = np.cumsum(confusion.as_array(), axis=1)
    cdf_rows[:, -1] = 1.0
    out = []
    for idx, rec in enumerate(records):
        rng = substream(seed, "labeler", rec.stratum, rec.query_id)
        k = len(rec.control)
        u_control = rng.random(k)
        control_levels = np.array(rec.control.levels)
        machine_control = _machine_labels(control_levels, cdf_rows, u_control)
        treatment = treatment_ref = None
        if rec.treatment is not None:
            share = rng.random(k) < rho_shared
            u_treatment = np.where(share, u_control, rng.random(k))
            treatment_levels = np.array(rec.treatment.levels)
            machine_treatment = _machine_labels(treatment_levels, cdf_rows, u_treatment)
            treatment = RankedPage.from_levels(machine_treatment)
            treatment_ref = rec.treatment
        out.append(QueryRecord(
            query_id=rec.query_id, market=rec.market, stratum=rec.stratum,
            control=RankedPage.from_levels(machine_control),
            treatment=treatment,
            control_reference=rec.control,
            treatment_reference=treatment_ref))
    return out


def run_synthetic_experiment(
    spec: PopulationSpec,
    effect: EffectSpec,
    confusion: ConfusionMatrix,
    k_depth: int,
    seed: int,
    rho_shared: float = 0.0,
    jobs: int = 1,
) -> EvalDataset:
    """Full paired experiment: population, effect, labeler, ready for the pipeline.

    Treatment pages are the control pages shifted by the stratum's effect
    (marginally, the shifted label distribution); both arms are labeled by
    the same confusion-matrix labeler. Byte-identical output for any
    ``jobs`` count because all randomness lives in keyed substreams.
    """
    def build_stratum(sp: StratumProfile) -> list[QueryRecord]:
        pages = _stratum_true_pages(sp.profile, spec.queries_per_stratum, k_depth, seed, sp.key)
        treated = _apply_effect(pages, effect.shift_for(sp.key), seed, sp.key)
        records = []
        for q in range(spec.queries_per_stratum):
            records.append(QueryRecord(
                query_id=f"{sp.key.interest}-{sp.key.popularity.value}-{q:06d}",
                market=spec.market, stratum=sp.key,
                control=RankedPage.from_levels(pages[q]),
                treatment=RankedPage.from_levels(treated[q])))
        return apply_labeler(records, confusion, seed, rho_shared)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(build_stratum, spec.strata))
    else:
        chunks = [build_stratum(sp) for sp in spec.strata]
    records = [rec for chunk in chunks for rec in chunk]
    return EvalDataset(records=tuple(records), k_depth=k_depth)


# -- analytic moments and vectorized sampling (oracle support) ----------------

def page_score_moments(pmfs: np.ndarray) -> tuple[float, float]:
    """Exact mean and variance of the page score for independent per-rank labels.

    pmfs is (K, 5). The score is linear in the per-rank labels, so
    mean = sum_k E[L_k] d_k / D and var = sum_k Var[L_k] d_k^2 / D^2 with
    d_k = 1/log2(1+k), D = 5 * sum_k d_k.
    """
    k = pmfs.shape[0]
    disc = np.array(_discounts(k))
    levels = np.arange(1, 6)
    means = pmfs @ levels
    second = pmfs @ (levels ** 2)
    variances = second - means ** 2
    denom = 5.0 * disc.sum()
    return (float((means * disc).sum() / denom),
            float((variances * disc ** 2).sum() / denom ** 2))


def stratum_score_moments(profile: LabelProfile, k_depth: int,
                          shift: float = 0.0) -> tuple[float, float]:
    """Mean/variance of the page score for one stratum, optionally shifted."""
    pmfs = profile.pmf_matrix(k_depth)
    if shift != 0.0:
        pmfs = np.stack([shift_pmf(row, shift) for row in pmfs])
    return page_score_moments(pmfs)


def sample_stratum_scores(profile: LabelProfile, count: int, k_depth: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Vectorized draw of ``count`` page scores from one stratum's profile."""
    pmfs = profile.pmf_matrix(k_depth)
    cdf = np.cumsum(pmfs, axis=1)
    cdf[:, -1] = 1.0
    u = rng.random((count, k_depth))
    levels = (u[:, :, None] > cdf[None, :, :]).sum(axis=2) + 1
    disc = np.array(_discounts(k_depth))
    return (levels @ disc) / (5.0 * disc.sum())


def draw_metric_samples(spec: PopulationSpec, n_total: int, k_depth: int,
                        seed: int, design: str = "stratified") -> dict[StratumKey, np.ndarray]:
    """Per-stratum page-score samples under a stratified or SRS design.

    "stratified" splits ``n_total`` by largest-remainder proportional
    allocation; "srs" draws stratum counts from the multinomial over weights
    (simple random sampling from the infinite mixture population).
    """
    keys = [sp.key for sp in spec.strata]
    weights = [sp.weight for sp in spec.strata]
    if design == "stratified":
        counts = _largest_remainder([n_total * w for w in weights], keys, n_total)
    elif design == "srs":
        counts = substream(seed, "counts", design).multinomial(n_total, weights).tolist()
    else:
        raise BadSpec(f"unknown design {design!r}")
    out = {}
    for sp, count in zip(spec.strata, counts):
        rng = substream(seed, "scores", design, sp.key)
        out[sp.key] = sample_stratum_scores(sp.profile, count, k_depth, rng)
    return out
