"""Seeded synthetic experiment generation.

Produces stratified query populations with known per-position label
distributions, applies treatment effects as coupled label shifts, and
corrupts true labels through a row-stochastic confusion matrix standing in
for a machine labeler. Every generator is a pure function of (inputs, seed):
substreams are keyed by (seed, purpose, stratum), and each stratum's draws
come out as one row-major block per purpose, row q for query q. Runs are
prefix-stable per stratum: the first n queries of a stratum are the same for
any ``queries_per_stratum`` >= n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Mapping, Sequence

from ._lazy import np
from ._rng import substream
from .core import DEFAULT_K_DEPTH, EvalDataset, QueryRecord, StratumKey, check_unique_strata
from .errors import BadMatrix, BadSpec, InfeasibleTargets, WeightMismatch
from .sampling import WEIGHT_TOL, check_weights

# largest simulated page depth and stratum size; work and memory grow with
# their product, and a size past either is a BadSpec before anything is drawn
MAX_K_DEPTH = 1000
MAX_QUERIES_PER_STRATUM = 10 ** 6


def check_k_depth(k_depth: int) -> None:
    if not 1 <= k_depth <= MAX_K_DEPTH:
        raise BadSpec(f"k_depth must be in [1, {MAX_K_DEPTH}], got {k_depth}")


def _check_distribution(row: Sequence[float], error: type, what: str) -> None:
    """Raise ``error`` unless ``row`` holds 5 non-negative probabilities summing to 1."""
    if len(row) != 5 or not all(p >= 0 for p in row):
        raise error(f"{what} must be 5 non-negative probabilities, got {list(row)}")
    total = reduce(add, row, 0)
    if not abs(total - 1.0) <= WEIGHT_TOL:
        raise error(f"{what} must sum to 1, got {total!r}")


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
            for row in self._rows():
                _check_distribution(row, BadSpec, "categorical profile row")
        elif self.kind == "curve":
            if not 1.0 <= self.mean_top <= 5.0:
                raise BadSpec(f"curve mean_top must be in [1, 5], got {self.mean_top}")
            if not math.isfinite(self.decay):
                raise BadSpec(f"curve decay must be finite, got {self.decay}")
        else:
            raise BadSpec(f"unknown profile kind {self.kind!r}")

    def _rows(self) -> tuple[tuple[float, ...], ...]:
        if self.probs and isinstance(self.probs[0], (tuple, list)):
            return tuple(tuple(float(p) for p in row) for row in self.probs)
        return (tuple(float(p) for p in self.probs),)

    def pmf_matrix(self, k_depth: int) -> np.ndarray:
        """(k_depth, 5) matrix: row r is the distribution over labels 1..5 at rank r+1."""
        check_k_depth(k_depth)
        ranks = np.arange(k_depth)
        if self.kind == "categorical":
            rows = np.array(self._rows())
            return rows[np.minimum(ranks, len(rows) - 1)]
        m = np.clip(self.mean_top - self.decay * ranks, 1.0, 5.0)
        lo = np.floor(m).astype(np.int64)
        w_hi = m - lo
        out = np.zeros((k_depth, 5))
        # upper label first: where m is 5 both writes hit label 5, and 1 - 0 wins
        out[ranks, np.minimum(lo, 4)] = w_hi
        out[ranks, lo - 1] = 1.0 - w_hi
        return out


@dataclass(frozen=True)
class StratumProfile:
    key: StratumKey
    weight: float
    profile: LabelProfile

    def __post_init__(self):
        if not 0.0 < self.weight <= 1.0:
            raise BadSpec(f"stratum {self.key} weight must be in (0, 1], got {self.weight}")


@dataclass(frozen=True)
class PopulationSpec:
    """Stratified synthetic population: strata, a uniform query count and the page depth."""

    strata: tuple[StratumProfile, ...]
    queries_per_stratum: int
    market: str = "US"
    k_depth: int = DEFAULT_K_DEPTH

    def __post_init__(self):
        if not self.strata:
            raise BadSpec("population spec needs at least one stratum")
        if not 1 <= self.queries_per_stratum <= MAX_QUERIES_PER_STRATUM:
            raise BadSpec(f"queries_per_stratum must be in [1, {MAX_QUERIES_PER_STRATUM}], "
                          f"got {self.queries_per_stratum}")
        check_unique_strata([s.key for s in self.strata], "population spec")
        try:
            check_weights(s.weight for s in self.strata)
        except WeightMismatch as err:
            raise BadSpec(str(err)) from err
        check_k_depth(self.k_depth)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row-stochastic 5x5 matrix: row r is P(machine label | true label r+1)."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.rows) != 5:
            raise BadMatrix(f"confusion matrix must have 5 rows, got {len(self.rows)}")
        for r, row in enumerate(self.rows):
            _check_distribution(row, BadMatrix, f"confusion row {r + 1}")

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

    def __post_init__(self):
        for value in (self.default, *self.shifts.values()):
            if not math.isfinite(value):
                raise BadSpec(f"effect shifts must be finite, got {value}")

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


def _cdf(pmf_rows: np.ndarray) -> np.ndarray:
    """Row-wise CDFs over labels 1..5, the last column pinned to 1."""
    cdf = np.cumsum(pmf_rows, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def _inverse_cdf(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """The label each uniform ``u`` draws from its CDF row, as uint8."""
    return (u[..., None] > cdf).sum(axis=-1, dtype=np.uint8) + 1


def _apply_effect(pages: np.ndarray, delta: float, seed: int, key: StratumKey) -> np.ndarray:
    """Coupled treatment labels clamp(L + f [+1 w.p. frac]) with f = floor(delta),
    frac = delta - f: each label rises by delta in expectation unless clamped to [1, 5]."""
    if delta == 0.0:
        return pages.copy()
    # past +-4 every label clamps to 5 (or 1) either way; this keeps f small
    delta = min(4.0, max(-4.0, delta))
    f = math.floor(delta)
    frac = delta - f
    u = substream(seed, "effect", key).random(pages.shape)
    return np.clip(pages + f + (u < frac), 1, 5)


def _machine_arms(control: np.ndarray, treatment: np.ndarray, u: np.ndarray,
                  cdf_rows: np.ndarray, rho_shared: float) -> tuple[np.ndarray, np.ndarray]:
    """Machine labels for both arms from uniforms ``u[..., i, :]``.

    i = 0 labels control, i = 1 is the share flag, i = 2 labels treatment
    unless the flag reuses the control uniform. Each label is resampled from
    its true label's confusion row.
    """
    u_control = u[..., 0, :]
    u_treatment = np.where(u[..., 1, :] < rho_shared, u_control, u[..., 2, :])
    return (_inverse_cdf(u_control, cdf_rows[control - 1]),
            _inverse_cdf(u_treatment, cdf_rows[treatment - 1]))


def _labeler_cdf(confusion: ConfusionMatrix, rho_shared: float) -> np.ndarray:
    """Row-wise CDFs of the confusion matrix, once ``rho_shared`` is checked."""
    if not 0.0 <= rho_shared <= 1.0:
        raise BadMatrix(f"rho_shared must be in [0, 1], got {rho_shared}")
    return _cdf(confusion.as_array())


def _rows(block: np.ndarray) -> list[bytes]:
    """Each row of a label block as a page: bytes, one label a byte."""
    data, width = block.astype(np.uint8).tobytes(), block.shape[1]
    return [data[lo:lo + width] for lo in range(0, len(data), width)]


def _query_id(key: StratumKey, q: int) -> str:
    return f"{key.interest}-{key.popularity.value}-{q:06d}"


def apply_labeler(records: Sequence[QueryRecord], confusion: ConfusionMatrix,
                  seed: int, rho_shared: float = 0.0) -> list[QueryRecord]:
    """Corrupt true labels into machine labels; true labels move to reference.

    ``rho_shared`` in [0, 1] is the probability that a (query, position)
    reuses the same latent uniform for both arms, correlating labeler errors
    across arms (when true labels agree, the machine labels then agree too).
    Each record takes a ``(3, k)`` uniform block, in record order, from its
    stratum's labeler substream: the rows ``run_synthetic_experiment`` draws
    for the same stratum, so both give the same labels for the same pages.
    """
    cdf_rows = _labeler_cdf(confusion, rho_shared)
    rngs: dict[StratumKey, np.random.Generator] = {}
    out = []
    for rec in records:
        if rec.stratum not in rngs:
            rngs[rec.stratum] = substream(seed, "labeler", rec.stratum)
        u = rngs[rec.stratum].random((3, len(rec.control)))
        control = np.frombuffer(rec.control, np.uint8)
        treatment = control if rec.treatment is None else np.frombuffer(rec.treatment, np.uint8)
        machine_control, machine_treatment = map(bytes, _machine_arms(
            control, treatment, u, cdf_rows, rho_shared))
        out.append(QueryRecord(
            rec.query_id, rec.market, rec.stratum, machine_control,
            None if rec.treatment is None else machine_treatment, rec.control, rec.treatment))
    return out


def run_synthetic_experiment(
    spec: PopulationSpec,
    effect: EffectSpec,
    confusion: ConfusionMatrix,
    seed: int,
    rho_shared: float = 0.0,
) -> EvalDataset:
    """Full paired experiment: population, effect, labeler, ready for the pipeline.

    Treatment pages are the control pages shifted by the stratum's effect
    (marginally, the shifted label distribution); both arms are labeled by
    the same confusion-matrix labeler. Each stratum is drawn whole: one
    block per purpose from its ("pop" | "effect" | "labeler", stratum)
    substream, row q for query q, ``spec.k_depth`` labels a page. A shift
    for a stratum the spec lacks is a BadSpec.
    """
    unknown = set(effect.shifts).difference(sp.key for sp in spec.strata)
    if unknown:
        raise BadSpec(f"effect shifts name strata the spec lacks: {sorted(map(str, unknown))}")
    cdf_rows = _labeler_cdf(confusion, rho_shared)
    count, k_depth = spec.queries_per_stratum, spec.k_depth
    records: list[QueryRecord] = []
    for sp in spec.strata:
        u = substream(seed, "pop", sp.key).random((count, k_depth))
        # wider than uint8, as _apply_effect may add a negative shift
        pages = _inverse_cdf(u, _cdf(sp.profile.pmf_matrix(k_depth))).astype(int)
        treated = _apply_effect(pages, effect.shift_for(sp.key), seed, sp.key)
        u = substream(seed, "labeler", sp.key).random((count, 3, k_depth))
        machine_control, machine_treatment = _machine_arms(pages, treated, u, cdf_rows, rho_shared)
        # record q's pages, in QueryRecord's field order, are row q of each block
        rows = zip(*map(_rows, (machine_control, machine_treatment, pages, treated)))
        for q, arms in enumerate(rows):
            records.append(QueryRecord(_query_id(sp.key, q), spec.market, sp.key, *arms))
    return EvalDataset(records=tuple(records), k_depth=k_depth)
