import dataclasses
import math

import numpy as np
import pytest

from releval import simulator
from releval._rng import substream
from releval.errors import BadMatrix, BadSpec, InfeasibleTargets, LengthMismatch, OutOfDomain
from releval.metrics import sdcg_at_k
from releval.sampling import StratumSpec, decompose_variance
from releval.simulator import (
    ConfusionMatrix,
    EffectSpec,
    LabelProfile,
    PopulationSpec,
    StratumProfile,
    apply_labeler,
    calibrate_confusion,
    run_synthetic_experiment,
)

from conftest import shift_pmf, sk, stratum_score_moments


def point_mass(level):
    probs = [0.0] * 5
    probs[level - 1] = 1.0
    return LabelProfile(kind="categorical", probs=tuple(probs))


def true_population(spec, seed):
    """The true pages run_synthetic_experiment draws: its reference arms under a
    null effect, as paired records with identical arms and no references."""
    ds = run_synthetic_experiment(spec, EffectSpec.null(), ConfusionMatrix.identity(), seed)
    return [dataclasses.replace(rec, control=rec.control_reference,
                                treatment=rec.treatment_reference,
                                control_reference=None, treatment_reference=None)
            for rec in ds.records]


def two_strata_spec(profile_a, profile_b, count=50, wa=0.5, k_depth=25):
    return PopulationSpec(
        strata=(StratumProfile(sk("a"), wa, profile_a),
                StratumProfile(sk("b"), 1.0 - wa, profile_b)),
        queries_per_stratum=count, k_depth=k_depth)


class TestLabelProfile:
    def test_categorical_validation(self):
        with pytest.raises(BadSpec):
            LabelProfile(kind="categorical", probs=(0.5, 0.5, 0.5, 0.0, 0.0))
        with pytest.raises(BadSpec):
            LabelProfile(kind="categorical", probs=(0.5, 0.5, -0.2, 0.2, 0.0))
        with pytest.raises(BadSpec):
            LabelProfile(kind="weird")

    def test_curve_two_point_matches_mean(self):
        prof = LabelProfile(kind="curve", mean_top=4.3, decay=0.5)
        for rank, pmf in enumerate(prof.pmf_matrix(9), start=1):
            expect = float(pmf @ np.arange(1, 6))
            target = min(5.0, max(1.0, 4.3 - 0.5 * (rank - 1)))
            assert expect == pytest.approx(target, abs=1e-12)

    def test_per_position_rows(self):
        prof = LabelProfile(kind="categorical",
                            probs=((1, 0, 0, 0, 0), (0, 0, 0, 0, 1)))
        pmfs = prof.pmf_matrix(7)
        assert pmfs[0][0] == 1.0
        assert pmfs[1][4] == 1.0
        assert pmfs[6][4] == 1.0  # repeats the last row


# a row of numbers that sum to 1 once float() coerces them, a row that is
# not a sequence, and one whose int is too large for a float: never accepted
NOT_NUMBERS = {
    "str": ("0.1", "0.2", "0.4", "0.2", "0.1"),
    "bool": (True, False, False, False, False),
    "mixed": (0.1, 0.2, "0.4", 0.2, 0.1),
    "bool-entry": (0.0, 0.0, 0.0, 0.0, True),
    "int": 1,
    "float": 0.3,
    "huge-int": (10 ** 400, 0, 0, 0, 0),
    "huge-int-beside-float": (10 ** 400, 0.5, 0, 0, 0),
}


@pytest.mark.parametrize("row", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_a_probability_row_that_is_not_numbers_is_its_error(row):
    huge = (NOT_NUMBERS["huge-int"], NOT_NUMBERS["huge-int-beside-float"])
    what = "must sum to 1" if row in huge else "must be 5 non-negative"
    with pytest.raises(BadSpec, match=f"categorical profile row {what}"):
        LabelProfile(kind="categorical", probs=row)
    with pytest.raises(BadSpec, match=f"categorical profile row {what}"):
        LabelProfile(kind="categorical", probs=((0.2,) * 5, row))
    identity = ConfusionMatrix.identity().rows
    with pytest.raises(BadMatrix, match=f"^confusion row 3 {what}"):
        ConfusionMatrix(rows=(*identity[:2], row, *identity[3:]))


# an int past Python's 4,300-digit limit for printing one
TOO_LONG = 10 ** 5000


@pytest.mark.parametrize("row, message", [
    ((TOO_LONG, 0, 0, 0, 0), "must sum to 1, got <int too long to print>"),
    ((TOO_LONG, -1, 0, 0, 0), "must be 5 non-negative probabilities, got <list too long to print>"),
    (TOO_LONG, "must be 5 non-negative probabilities, got <int too long to print>"),
    (np.array(0.3), "must be 5 non-negative probabilities, got array(0.3)"),
], ids=["total", "entry", "bare", "0-d-array"])
def test_a_row_that_cannot_be_printed_or_sized_is_its_error(row, message):
    with pytest.raises(BadSpec) as err:
        LabelProfile(kind="categorical", probs=row)
    assert str(err.value) == f"categorical profile row {message}"
    identity = ConfusionMatrix.identity().rows
    with pytest.raises(BadMatrix) as err:
        ConfusionMatrix(rows=(*identity[:2], row, *identity[3:]))
    assert str(err.value) == f"confusion row 3 {message}"


@pytest.mark.parametrize("rows, shown", [
    (5, "5"), (None, "None"), (np.array(5), "array(5)"), (TOO_LONG, "<int too long to print>"),
], ids=["int", "None", "0-d-array", "too-long"])
def test_confusion_rows_that_are_not_a_sequence_are_bad_matrix(rows, shown):
    with pytest.raises(BadMatrix) as err:
        ConfusionMatrix(rows=rows)
    assert str(err.value) == f"confusion matrix must be a sequence of 5 rows, got {shown}"


CURVE = LabelProfile(kind="curve", mean_top=3.0)


def _simulate(seed=1, rho_shared=0.0):
    spec = PopulationSpec((StratumProfile(sk("a"), 1.0, CURVE),), 2)
    return run_synthetic_experiment(spec, EffectSpec.null(), ConfusionMatrix.identity(),
                                    seed, rho_shared)


# each spec type checks its own fields: from the Python API as from a file,
# a value of the wrong type is a BadSpec, never coerced or a bare Python error
@pytest.mark.parametrize("build, message", [
    (lambda: EffectSpec(shifts=5), "effect shifts must map strata to numbers, got 5"),
    (lambda: EffectSpec(default="a"), "default must be a number, got 'a'"),
    (lambda: EffectSpec(default=10 ** 5000), "default is out of range, got <int too long to print>"),
    (lambda: EffectSpec(shifts={sk("a"): True}), "shift must be a number, got True"),
    (lambda: calibrate_confusion("a", 1), "exact must be a number, got 'a'"),
    (lambda: calibrate_confusion(0.7, None), "within_one must be a number, got None"),
    (lambda: PopulationSpec((StratumProfile(sk("a"), 1.0, CURVE),), 2.0),
     "queries_per_stratum must be an integer, got 2.0"),
    (lambda: PopulationSpec((StratumProfile(sk("a"), 1.0, CURVE),), 2, k_depth=2.5),
     "k_depth must be an integer, got 2.5"),
    (lambda: PopulationSpec((StratumProfile(sk("a"), 1.0, CURVE),), 2, market=5),
     "market must be a string, got 5"),
    (lambda: PopulationSpec((StratumProfile(sk("a"), 1.0, CURVE),), 2, market="U\ud800"),
     "market must be UTF-8 text, got 'U\\ud800'"),
    (lambda: StratumProfile(sk("a"), True, CURVE), "weight must be a number, got True"),
    (lambda: StratumProfile(sk("a"), None, CURVE), "weight must be a number, got None"),
    (lambda: LabelProfile(kind="curve", mean_top=True), "mean_top must be a number, got True"),
    (lambda: LabelProfile(kind="curve", mean_top="a"), "mean_top must be a number, got 'a'"),
    (lambda: LabelProfile(kind="curve", mean_top=3, decay=10 ** 5000),
     "decay is out of range, got <int too long to print>"),
    (lambda: _simulate(seed="x"), "seed must be an integer, got 'x'"),
    (lambda: _simulate(seed=True), "seed must be an integer, got True"),
    (lambda: _simulate(rho_shared="a"), "rho_shared must be a number, got 'a'"),
    (lambda: _simulate(rho_shared=None), "rho_shared must be a number, got None"),
], ids=["shifts-int", "default-str", "default-too-large", "shift-bool", "exact-str",
        "within-one-none", "queries-float", "k-depth-float", "market-int", "market-not-text",
        "weight-bool", "weight-none", "mean-top-bool", "mean-top-str", "decay-too-large",
        "seed-str", "seed-bool", "rho-shared-str", "rho-shared-none"])
def test_a_spec_value_of_the_wrong_type_is_bad_spec(build, message):
    with pytest.raises(BadSpec) as err:
        build()
    assert str(err.value) == message


# a field that holds another spec type, or a tuple of them, takes nothing else
@pytest.mark.parametrize("build, message", [
    (lambda: PopulationSpec(strata=5, queries_per_stratum=2), "strata must be a tuple, got 5"),
    (lambda: PopulationSpec(strata=(1,), queries_per_stratum=2),
     "stratum must be a StratumProfile, got 1"),
    (lambda: StratumProfile("a/head", 1.0, CURVE),
     "stratum key must be a StratumKey, got 'a/head'"),
    (lambda: StratumSpec(None, 1.0), "stratum key must be a StratumKey, got None"),
    (lambda: StratumProfile(sk("a"), 1.0, 5), "profile must be a LabelProfile, got 5"),
], ids=["strata-int", "stratum-int", "profile-key-str", "design-key-none", "profile-int"])
def test_a_spec_field_of_another_structure_is_bad_spec(build, message):
    with pytest.raises(BadSpec) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("seed, error, message", [
    ("x", BadSpec, "seed must be an integer, got 'x'"),
    (True, BadSpec, "seed must be an integer, got True"),
    (-1, OutOfDomain, "seed must be in [0, 2**32), got -1"),
], ids=["str", "bool", "negative"])
def test_apply_labeler_checks_its_seed_with_no_records(seed, error, message):
    # no record draws a substream, which checked the seed on its own
    with pytest.raises(error) as err:
        apply_labeler([], ConfusionMatrix.identity(), seed=seed)
    assert str(err.value) == message


def test_spec_numbers_are_stored_as_floats():
    # as a spec file's loader stored them: a number is kept as a float
    effect = EffectSpec(shifts={sk("a"): 1}, default=0)
    profile = LabelProfile(kind="categorical", probs=[[0, 1, 0, 0, 0], [1, 0, 0, 0, 0]])
    matrix = ConfusionMatrix(rows=[[int(i == j) for j in range(5)] for i in range(5)])
    assert (effect.shifts, effect.default) == ({sk("a"): 1.0}, 0.0)
    assert profile.probs == ((0.0, 1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0))
    assert matrix.rows == ConfusionMatrix.identity().rows
    values = [effect.default, *effect.shifts.values(), *profile.probs[0], *matrix.rows[0]]
    assert {type(v) for v in values} == {float}


class TestShiftPmf:
    def test_zero_shift_is_identity(self):
        pmf = np.array([0.1, 0.2, 0.3, 0.2, 0.2])
        assert np.allclose(shift_pmf(pmf, 0.0), pmf)

    def test_integer_shift(self):
        pmf = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        assert np.allclose(shift_pmf(pmf, 2.0), [0, 0, 0, 1, 0])

    def test_fractional_shift_raises_mean_exactly_when_unclamped(self):
        pmf = np.array([0.0, 0.5, 0.5, 0.0, 0.0])
        for delta in (0.25, 0.5, 1.2, -0.7):
            shifted = shift_pmf(pmf, delta)
            assert shifted.sum() == pytest.approx(1.0, abs=1e-12)
            mean = float(shifted @ np.arange(1, 6))
            assert mean == pytest.approx(2.5 + delta, abs=1e-12)

    def test_clamping_keeps_distribution_valid(self):
        pmf = np.array([0.2, 0.2, 0.2, 0.2, 0.2])
        shifted = shift_pmf(pmf, 3.7)
        assert shifted.sum() == pytest.approx(1.0, abs=1e-12)
        assert (shifted >= 0).all()
        assert shifted[4] > 0.9


class TestGeneratePopulation:
    def test_point_mass_top_profile(self):
        spec = two_strata_spec(point_mass(5), point_mass(5), count=10, k_depth=4)
        records = true_population(spec, seed=1)
        assert len(records) == 20
        for rec in records:
            assert rec.control == bytes((5, 5, 5, 5))
            assert rec.treatment == rec.control
            assert sdcg_at_k(rec.control, 4) == pytest.approx(1.0)

    def test_two_point_masses_variance_decomposition(self):
        spec = two_strata_spec(point_mass(1), point_mass(5), count=30, k_depth=3)
        records = true_population(spec, seed=2)
        values = [(rec.stratum, sdcg_at_k(rec.control, 3)) for rec in records]
        vd = decompose_variance(values)
        assert vd.within == pytest.approx(0.0, abs=1e-15)
        assert vd.between == pytest.approx(0.16, abs=1e-12)

    def test_same_seed_identical(self):
        prof = LabelProfile(kind="curve", mean_top=4.0, decay=0.2)
        spec = two_strata_spec(prof, prof, count=15, k_depth=5)
        assert true_population(spec, seed=9) == true_population(spec, seed=9)
        assert true_population(spec, seed=9) != true_population(spec, seed=10)

    def test_bad_spec(self):
        with pytest.raises(BadSpec):
            PopulationSpec(strata=(StratumProfile(sk("a"), 0.7, point_mass(3)),
                                   StratumProfile(sk("b"), 0.7, point_mass(3))),
                           queries_per_stratum=5)

    def test_spec_holds_its_depth(self):
        strata = (StratumProfile(sk("a"), 1.0, point_mass(3)),)
        assert PopulationSpec(strata=strata, queries_per_stratum=5).k_depth == 25
        for k_depth in (0, 1001):
            with pytest.raises(BadSpec) as err:
                PopulationSpec(strata=strata, queries_per_stratum=5, k_depth=k_depth)
            assert str(err.value) == f"k_depth must be in [1, 1000], got {k_depth}"

    def test_empirical_moments_match_analytic(self):
        probs = (0.1, 0.2, 0.3, 0.25, 0.15)
        prof = LabelProfile(kind="categorical", probs=probs)
        records = true_population(two_strata_spec(prof, prof, count=10_000, k_depth=8), seed=77)
        scores = np.array([sdcg_at_k(rec.control, 8) for rec in records])
        mean, var = stratum_score_moments(probs, k_depth=8)
        mc_se_mean = math.sqrt(var / len(scores))
        assert abs(scores.mean() - mean) < 3 * mc_se_mean
        # variance of the sample variance ~ 2 var^2 / n for near-normal scores;
        # allow a generous 5x band
        assert abs(scores.var(ddof=1) - var) < 5 * var * math.sqrt(2.0 / len(scores))


class TestConfusionMatrix:
    def test_row_stochastic_enforced(self):
        with pytest.raises(BadMatrix):
            ConfusionMatrix(rows=tuple(tuple([0.3] * 5) for _ in range(5)))
        rows = [[0.0] * 5 for _ in range(5)]
        for i in range(5):
            rows[i][i] = 1.0
        rows[0][1] = -0.1
        rows[0][0] = 1.1
        with pytest.raises(BadMatrix):
            ConfusionMatrix(rows=tuple(tuple(r) for r in rows))

    def test_calibrate_identity(self):
        assert calibrate_confusion(1.0, 1.0) == ConfusionMatrix.identity()

    def test_calibrate_published_targets(self):
        cm = calibrate_confusion(0.737, 0.917)
        arr = cm.as_array()
        assert np.allclose(arr.sum(axis=1), 1.0)
        assert np.allclose(np.diag(arr), 0.737)
        # expected rates under any prior (rows are identical in structure)
        exact = float(np.diag(arr).mean())
        within = float(np.mean([arr[i, max(0, i - 1):i + 2].sum() for i in range(5)]))
        assert exact == pytest.approx(0.737, abs=1e-12)
        assert within == pytest.approx(0.917, abs=1e-12)

    def test_calibrate_no_adjacent_mass(self):
        cm = calibrate_confusion(0.2, 0.2)
        arr = cm.as_array()
        assert np.allclose(np.diag(arr), 0.2)
        assert arr[2, 1] == 0.0 and arr[2, 3] == 0.0
        assert arr[2, 0] == pytest.approx(0.4)
        assert arr[2, 4] == pytest.approx(0.4)

    def test_infeasible_targets(self):
        with pytest.raises(InfeasibleTargets):
            calibrate_confusion(0.9, 0.5)
        with pytest.raises(InfeasibleTargets):
            calibrate_confusion(0.0, 0.5)


class TestApplyLabeler:
    def base_records(self, count=40, k=6, seed=3):
        prof = LabelProfile(kind="categorical", probs=(0.2, 0.2, 0.2, 0.2, 0.2))
        return true_population(two_strata_spec(prof, prof, count=count, k_depth=k), seed)

    def test_identity_matrix_keeps_labels(self):
        records = self.base_records()
        labeled = apply_labeler(records, ConfusionMatrix.identity(), seed=5)
        for before, after in zip(records, labeled):
            assert after.control == before.control
            assert after.control_reference == before.control
            assert after.treatment_reference == before.treatment

    def test_uniform_rows_exact_rate(self):
        uniform = ConfusionMatrix(rows=tuple(tuple([0.2] * 5) for _ in range(5)))
        records = self.base_records(count=500, k=10)
        labeled = apply_labeler(records, uniform, seed=6)
        machine = np.frombuffer(b"".join(rec.control for rec in labeled), np.uint8)
        truth = np.frombuffer(b"".join(rec.control_reference for rec in labeled), np.uint8)
        n = len(machine)
        rate = float((machine == truth).mean())
        assert abs(rate - 0.2) < 3 * math.sqrt(0.2 * 0.8 / n)

    def test_marginal_distribution_converges(self):
        cm = calibrate_confusion(0.6, 0.9)
        prof = LabelProfile(kind="categorical", probs=(0.1, 0.15, 0.3, 0.25, 0.2))
        records = true_population(two_strata_spec(prof, prof, count=800, k_depth=10), seed=8)
        labeled = apply_labeler(records, cm, seed=9)
        machine = np.frombuffer(b"".join(rec.control for rec in labeled), np.uint8)
        empirical = np.bincount(machine, minlength=6)[1:] / len(machine)
        expected = np.array(prof.probs) @ cm.as_array()
        assert np.abs(empirical - expected).max() < 0.01

    def test_arms_of_another_length_are_length_mismatch(self):
        # not a numpy broadcast error: both arms read one record's uniform block
        records = self.base_records(count=2)
        records[1] = dataclasses.replace(records[1], treatment=records[1].treatment[:-1])
        with pytest.raises(LengthMismatch, match="treatment page of 5 labels, control page of 6"):
            apply_labeler(records, ConfusionMatrix.identity(), seed=4)

    def test_determinism(self):
        records = self.base_records()
        cm = calibrate_confusion(0.737, 0.917)
        assert apply_labeler(records, cm, seed=4) == apply_labeler(records, cm, seed=4)
        assert apply_labeler(records, cm, seed=4) != apply_labeler(records, cm, seed=5)


class TestRunSyntheticExperiment:
    def test_null_experiment_near_zero(self):
        prof = LabelProfile(kind="curve", mean_top=4.0, decay=0.1)
        spec = two_strata_spec(prof, prof, count=400, k_depth=10)
        ds = run_synthetic_experiment(spec, EffectSpec.null(),
                                      ConfusionMatrix.identity(), seed=21)
        deltas = [sdcg_at_k(r.treatment, 10) - sdcg_at_k(r.control, 10)
                  for r in ds.records]
        # zero effect with coupled arms: deltas are exactly zero
        assert max(abs(d) for d in deltas) == 0.0

    def test_uniform_effect_matches_analytic_shift(self):
        prof = LabelProfile(kind="categorical", probs=(0.15, 0.25, 0.3, 0.2, 0.1))
        spec = two_strata_spec(prof, prof, count=1000, k_depth=6)
        effect = EffectSpec(shifts={}, default=1.0)
        ds = run_synthetic_experiment(spec, effect, ConfusionMatrix.identity(), seed=22)
        deltas = np.array([
            sdcg_at_k(r.treatment, 6) - sdcg_at_k(r.control, 6)
            for r in ds.records])
        mean_c, _ = stratum_score_moments(prof.probs, 6)
        mean_t, _ = stratum_score_moments(prof.probs, 6, shift=1.0)
        expected = mean_t - mean_c
        assert abs(deltas.mean() - expected) < 3 * deltas.std(ddof=1) / math.sqrt(len(deltas))

    def test_huge_shift_clamps_every_label(self):
        spec = two_strata_spec(point_mass(2), point_mass(4), count=5, k_depth=3)
        for shift, level in ((1e300, 5), (-1e300, 1), (4.5, 5), (-4.5, 1)):
            ds = run_synthetic_experiment(spec, EffectSpec(default=shift),
                                          ConfusionMatrix.identity(), seed=23)
            assert {rec.treatment_reference for rec in ds.records} == {bytes((level,) * 3)}

    def test_pages_are_bytes(self):
        spec = two_strata_spec(point_mass(2), LabelProfile(kind="curve", mean_top=4.0, decay=0.3),
                               count=4, k_depth=5)
        ds = run_synthetic_experiment(spec, EffectSpec(default=0.5), calibrate_confusion(0.6, 0.85),
                                      seed=3)
        labeled = apply_labeler(true_population(spec, seed=3), ConfusionMatrix.identity(),
                                seed=3)
        for rec in (*ds.records, *labeled):
            for labels in (rec.control, rec.treatment, rec.control_reference,
                           rec.treatment_reference):
                assert type(labels) is bytes and len(labels) == 5
                assert set(labels) <= {1, 2, 3, 4, 5}

    def test_same_seed_identical(self):
        prof = LabelProfile(kind="curve", mean_top=3.8, decay=0.15)
        spec = two_strata_spec(prof, point_mass(3), count=60, k_depth=8)
        cm = calibrate_confusion(0.737, 0.917)
        effect = EffectSpec(shifts={sk("a"): 0.4}, default=0.0)
        one = run_synthetic_experiment(spec, effect, cm, seed=31, rho_shared=0.5)
        two = run_synthetic_experiment(spec, effect, cm, seed=31, rho_shared=0.5)
        assert one == two

    def test_one_substream_per_stratum_and_purpose(self, monkeypatch):
        scopes = []

        def counting(seed, *scope):
            scopes.append(scope)
            return substream(seed, *scope)

        monkeypatch.setattr(simulator, "substream", counting)
        prof = LabelProfile(kind="curve", mean_top=3.8, decay=0.15)
        run_synthetic_experiment(two_strata_spec(prof, prof, count=40, k_depth=8),
                                 EffectSpec(default=0.3), calibrate_confusion(0.737, 0.917),
                                 seed=34)
        assert sorted(scopes) == sorted((purpose, key) for purpose in ("pop", "effect", "labeler")
                                        for key in (sk("a"), sk("b")))

    def test_first_queries_of_a_stratum_are_prefix_stable(self):
        prof = LabelProfile(kind="curve", mean_top=3.8, decay=0.15)
        cm = calibrate_confusion(0.737, 0.917)
        effect = EffectSpec(shifts={sk("a"): 0.4}, default=-0.3)
        small, large = (
            run_synthetic_experiment(two_strata_spec(prof, point_mass(3), count=count, k_depth=8),
                                     effect, cm, seed=32, rho_shared=0.5)
            for count in (7, 30))
        by_stratum = {}
        for rec in large.records:
            by_stratum.setdefault(rec.stratum, []).append(rec)
        expected = [rec for recs in by_stratum.values() for rec in recs[:7]]
        assert list(small.records) == expected

    def test_apply_labeler_matches_whole_stratum_draws(self):
        prof = LabelProfile(kind="categorical", probs=(0.1, 0.2, 0.3, 0.25, 0.15))
        spec = two_strata_spec(prof, LabelProfile(kind="curve", mean_top=4.1, decay=0.2),
                               count=25, k_depth=9)
        cm = calibrate_confusion(0.6, 0.85)
        # an integer shift is deterministic: treatment is clamp(L + shift)
        shifts = {sk("a"): 1.0, sk("b"): -2.0}
        population = [
            dataclasses.replace(rec, treatment=bytes(
                min(5, max(1, label + int(shifts[rec.stratum]))) for label in rec.control))
            for rec in true_population(spec, seed=33)]
        labeled = apply_labeler(population, cm, seed=33, rho_shared=0.4)
        ds = run_synthetic_experiment(spec, EffectSpec(shifts=shifts), cm, seed=33,
                                      rho_shared=0.4)
        assert tuple(labeled) == ds.records

    def test_rho_shared_tightens_paired_errors(self):
        prof = LabelProfile(kind="curve", mean_top=4.2, decay=0.1)
        spec = two_strata_spec(prof, prof, count=150, k_depth=8)
        cm = calibrate_confusion(0.737, 0.917)
        ds = run_synthetic_experiment(spec, EffectSpec.null(), cm, seed=41, rho_shared=0.8)
        single, paired = [], []
        for rec in ds.records:
            m_c = sdcg_at_k(rec.control, 8)
            r_c = sdcg_at_k(rec.control_reference, 8)
            m_t = sdcg_at_k(rec.treatment, 8)
            r_t = sdcg_at_k(rec.treatment_reference, 8)
            single.append(m_c - r_c)
            paired.append((m_t - m_c) - (r_t - r_c))
        assert np.std(paired) < np.std(single)
