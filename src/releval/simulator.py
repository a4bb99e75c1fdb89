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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import reduce
from operator import add

from ._lazy import np
from ._rng import check_seed, substream
from .core import (DEFAULT_K_DEPTH, EvalDataset, QueryRecord, StratumKey, check_instance,
                   check_integer, check_name, check_number, check_pages, check_unique_strata,
                   is_number, shown, store_numbers)
from .errors import BadMatrix, BadSpec, InfeasibleTargets, LengthMismatch, WeightMismatch
from .sampling import WEIGHT_TOL, check_weights

# largest simulated page depth and stratum size; work and memory grow with
# their product, and a size past either is a BadSpec before anything is drawn
MAX_K_DEPTH = 1000
MAX_QUERIES_PER_STRATUM = 10 ** 6


def check_k_depth(k_depth: int) -> None:
    if not 1 <= check_integer(k_depth, "k_depth") <= MAX_K_DEPTH:
        raise BadSpec(f"k_depth must be in [1, {MAX_K_DEPTH}], got {shown(k_depth)}")


def _length(value) -> int | None:
    """``len(value)``, or None for a value that has none (a 0-d array has ``__len__``)."""
    try:
        return len(value)
    except TypeError:
        return None


def _check_distribution(row: Sequence[float], error: type, what: str) -> tuple[float, ...]:
    """``row`` as floats; ``error`` unless it holds 5 non-negative numbers summing to 1."""
    size = _length(row)
    if size is None:
        raise error(f"{what} must be 5 non-negative probabilities, got {shown(row)}")
    if size != 5 or not all(is_number(p) and p >= 0 for p in row):
        raise error(f"{what} must be 5 non-negative probabilities, got {shown(list(row))}")
    try:
        total = reduce(add, row, 0)
    except OverflowError:  # a float beside an int past the float range: far from 1
        total = math.inf
    # less the int 1, an int total of any size compares exactly; less 1.0 it could overflow
    if not abs(total - 1) <= WEIGHT_TOL:
        raise error(f"{what} must sum to 1, got {shown(total)}")
    return tuple(map(float, row))


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
        store_numbers(self, "mean_top", "decay")
        if self.kind == "categorical":
            probs = self.probs if isinstance(self.probs, (tuple, list)) else ()
            nested = bool(probs) and isinstance(probs[0], (tuple, list))
            rows = tuple(_check_distribution(row, BadSpec, "categorical profile row")
                         for row in (probs if nested else (self.probs,)))
            object.__setattr__(self, "probs", rows if nested else rows[0])
        elif self.kind == "curve":
            if not 1.0 <= self.mean_top <= 5.0:
                raise BadSpec(f"curve mean_top must be in [1, 5], got {self.mean_top}")
            if not math.isfinite(self.decay):
                raise BadSpec(f"curve decay must be finite, got {self.decay}")
        else:
            raise BadSpec(f"unknown profile kind {self.kind!r}")

    def pmf_matrix(self, k_depth: int) -> np.ndarray:
        """(k_depth, 5) matrix: row r is the distribution over labels 1..5 at rank r+1."""
        check_k_depth(k_depth)
        ranks = np.arange(k_depth)
        if self.kind == "categorical":
            rows = np.array(self.probs).reshape(-1, 5)  # one row a rank, or one for every rank
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
        check_instance(self.key, StratumKey, "stratum key")
        store_numbers(self, "weight")
        if not 0.0 < self.weight <= 1.0:
            raise BadSpec(f"stratum {self.key} weight must be in (0, 1], got {self.weight}")
        check_instance(self.profile, LabelProfile, "profile")


@dataclass(frozen=True)
class PopulationSpec:
    """Stratified synthetic population: strata, a uniform query count and the page depth."""

    strata: tuple[StratumProfile, ...]
    queries_per_stratum: int
    market: str = "US"
    k_depth: int = DEFAULT_K_DEPTH

    def __post_init__(self):
        if not check_instance(self.strata, tuple, "strata"):
            raise BadSpec("population spec needs at least one stratum")
        for stratum in self.strata:
            check_instance(stratum, StratumProfile, "stratum")
        queries = check_integer(self.queries_per_stratum, "queries_per_stratum")
        if not 1 <= queries <= MAX_QUERIES_PER_STRATUM:
            raise BadSpec(f"queries_per_stratum must be in [1, {MAX_QUERIES_PER_STRATUM}], "
                          f"got {shown(queries)}")
        check_name(self.market, "market")
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
        count = _length(self.rows)
        if count is None:
            raise BadMatrix(
                f"confusion matrix must be a sequence of 5 rows, got {shown(self.rows)}")
        if count != 5:
            raise BadMatrix(f"confusion matrix must have 5 rows, got {count}")
        object.__setattr__(self, "rows", tuple(_check_distribution(
            row, BadMatrix, f"confusion row {r + 1}") for r, row in enumerate(self.rows)))

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
        if not isinstance(self.shifts, Mapping):
            raise BadSpec(f"effect shifts must map strata to numbers, got {shown(self.shifts)}")
        object.__setattr__(self, "shifts", {key: check_number(shift, "shift")
                                            for key, shift in self.shifts.items()})
        store_numbers(self, "default")
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
    exact_target = check_number(exact_target, "exact")
    within_one_target = check_number(within_one_target, "within_one")
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
    if not 0.0 <= check_number(rho_shared, "rho_shared") <= 1.0:
        raise BadMatrix(f"rho_shared must be in [0, 1], got {rho_shared}")
    return _cdf(confusion.as_array())


def _rows(block: np.ndarray) -> list[bytes]:
    """Each row of a label block as a page: bytes, one label a byte."""
    data, width = block.astype(np.uint8).tobytes(), block.shape[1]
    return [data[lo:lo + width] for lo in range(0, len(data), width)]


def apply_labeler(records: Sequence[QueryRecord], confusion: ConfusionMatrix,
                  seed: int, rho_shared: float = 0.0) -> list[QueryRecord]:
    """Corrupt true labels into machine labels; true labels move to reference.

    ``rho_shared`` in [0, 1] is the probability that a (query, position)
    reuses the same latent uniform for both arms, correlating labeler errors
    across arms (when true labels agree, the machine labels then agree too).
    Each record takes a ``(3, k)`` uniform block, in record order, from its
    stratum's labeler substream: the rows ``run_synthetic_experiment`` draws
    for the same stratum, so both give the same labels for the same pages.
    Each page passes ``check_pages`` first. The seed is checked as
    ``_rng.substream`` checks it, also when there are no records to draw for.
    """
    cdf_rows = _labeler_cdf(confusion, rho_shared)
    check_seed(seed)
    rngs: dict[StratumKey, np.random.Generator] = {}
    out = []
    for rec in records:
        control = np.frombuffer(check_pages((rec.control,), "control"), np.uint8)
        treatment = control if rec.treatment is None else np.frombuffer(
            check_pages((rec.treatment,), "treatment"), np.uint8)
        if len(treatment) != len(control):  # both arms read one (3, k) uniform block
            raise LengthMismatch(f"record {rec.query_id!r}: treatment page of {len(treatment)} "
                                 f"labels, control page of {len(control)}")
        if rec.stratum not in rngs:
            rngs[rec.stratum] = substream(seed, "labeler", rec.stratum)
        u = rngs[rec.stratum].random((3, len(control)))
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
        prefix = f"{sp.key.interest}-{sp.key.popularity.value}-"
        for q, arms in enumerate(rows):
            records.append(QueryRecord(f"{prefix}{q:06d}", spec.market, sp.key, *arms))
    return EvalDataset(records=tuple(records), k_depth=k_depth)
