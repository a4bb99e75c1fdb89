import tracemalloc

import numpy as np
import pytest

from releval.alignment import (
    _discordant,
    alignment_report,
    error_distribution,
    kendall_tau,
    label_agreement,
    spearman_rho,
)
from releval.core import EvalDataset, PopularitySegment
from releval.errors import (
    AllTied,
    BadLabelValue,
    EmptyInput,
    EmptyPage,
    LengthMismatch,
    MissingReferenceLabels,
    OutOfDomain,
    TooFewSamples,
)
from releval.metrics import sdcg_at_k

from conftest import (
    brute_inversions,
    brute_kendall_tau,
    brute_spearman_rho,
    page,
    record,
    sk,
)


class TestKendallTau:
    def test_perfect_concordance(self):
        x = [1.0, 2.0, 5.0, 9.0]
        assert kendall_tau(x, x) == pytest.approx(1.0)

    def test_perfect_discordance(self):
        x = [1.0, 2.0, 5.0, 9.0]
        assert kendall_tau(x, x[::-1]) == pytest.approx(-1.0)

    def test_small_example(self):
        assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1.0 / 3.0)

    def test_matches_brute_force_with_ties(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 120))
            # coarse rounding forces plenty of ties
            x = np.round(rng.normal(size=n), 1)
            y = np.round(0.5 * x + rng.normal(size=n), 1)
            if len(np.unique(x)) < 2 or len(np.unique(y)) < 2:
                continue
            assert kendall_tau(x, y) == pytest.approx(brute_kendall_tau(x, y), abs=1e-12)

    def test_all_tied_is_an_error(self):
        with pytest.raises(AllTied):
            kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_checks(self):
        with pytest.raises(LengthMismatch):
            kendall_tau([1, 2], [1, 2, 3])
        with pytest.raises(TooFewSamples):
            kendall_tau([1], [2])

    def test_invariant_under_monotone_transform(self, rng):
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        assert kendall_tau(np.exp(x), y ** 3) == pytest.approx(kendall_tau(x, y), abs=1e-12)

    def test_symmetry_and_negation(self, rng):
        x = list(rng.permutation(30).astype(float))
        y = list(rng.permutation(30).astype(float))
        assert kendall_tau(x, y) == pytest.approx(kendall_tau(y, x), abs=1e-12)
        assert kendall_tau(x, [-v for v in y]) == pytest.approx(-kendall_tau(x, y), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 31, 33, 100, 129, 257, 300])
    def test_discordant_counts_every_inversion(self, rng, n):
        arrays = [rng.permutation(n), rng.integers(0, max(n // 4, 1), size=n),
                  rng.integers(0, 2, size=n), rng.integers(0, int(rng.integers(1, n + 1)), size=n),
                  np.zeros(n, dtype=np.intp), np.arange(n)]
        for a in arrays:
            assert _discordant(a) == brute_inversions(a)
        assert _discordant(np.arange(n)[::-1]) == n * (n - 1) // 2

    def test_infinities_are_ordered(self):
        x = [-np.inf, 0.0, 1.0, np.inf]
        assert kendall_tau(x, [1, 2, 3, 4]) == 1.0
        assert kendall_tau(x, [4, 3, 2, 1]) == -1.0
        assert spearman_rho(x, [1, 2, 3, 4]) == 1.0


class TestSpearmanRho:
    def test_identity_and_reversal(self):
        assert spearman_rho([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
        assert spearman_rho([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_small_example(self):
        assert spearman_rho([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_matches_midrank_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 120))
            x = np.round(rng.normal(size=n), 1)
            y = np.round(rng.normal(size=n), 1)
            if len(np.unique(x)) < 2 or len(np.unique(y)) < 2:
                continue
            assert spearman_rho(x, y) == pytest.approx(brute_spearman_rho(x, y), abs=1e-12)

    def test_monotone_invariance_and_negation(self, rng):
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        assert spearman_rho(np.exp(x), y) == pytest.approx(spearman_rho(x, y), abs=1e-12)
        assert spearman_rho(x, -y) == pytest.approx(-spearman_rho(x, y), abs=1e-12)

    def test_all_tied(self):
        with pytest.raises(AllTied):
            spearman_rho([2.0, 2.0], [1.0, 3.0])


class TestErrorDistribution:
    def test_zero_errors(self):
        d = error_distribution([0.5, 0.6], [0.5, 0.6])
        assert d.mean == d.p10 == d.median == d.p90 == 0.0

    def test_interpolated_percentiles(self):
        d = error_distribution([-0.04, -0.02, 0.0, 0.01, 0.05], [0.0] * 5)
        assert d.mean == pytest.approx(0.0, abs=1e-15)
        assert d.median == pytest.approx(0.0)
        assert d.p10 == pytest.approx(-0.032)
        assert d.p90 == pytest.approx(0.034)

    def test_single_element(self):
        d = error_distribution([0.52], [0.5])
        assert d.mean == d.p10 == d.median == d.p90 == pytest.approx(0.02)
        assert d.n == 1

    def test_mean_identity(self, rng):
        m = rng.uniform(0.2, 1.0, size=37)
        r = rng.uniform(0.2, 1.0, size=37)
        d = error_distribution(m, r)
        assert d.mean == pytest.approx(float(m.mean() - r.mean()), abs=1e-12)
        assert d.p10 <= d.median <= d.p90

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            error_distribution([0.1], [0.1, 0.2])
        with pytest.raises(EmptyInput):
            error_distribution([], [])


@pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("fn, first, second", [
    (kendall_tau, "x", "y"), (spearman_rho, "x", "y"),
    (error_distribution, "machine_scores", "reference_scores"),
], ids=["kendall_tau", "spearman_rho", "error_distribution"])
def test_nan_is_out_of_domain(fn, first, second, at):
    # NaN has no rank: wherever it sits, the argument holding it is named
    values = [0.3, 0.1, 0.4, 0.15, 0.5]
    with_nan = values[:at] + [float("nan")] + values[at + 1:]
    with pytest.raises(OutOfDomain, match=f"^{first} must not contain NaN"):
        fn(with_nan, values)
    with pytest.raises(OutOfDomain, match=f"^{second} must not contain NaN"):
        fn(values, with_nan)


@pytest.mark.parametrize("inf", [float("inf"), -float("inf")], ids=["inf", "-inf"])
def test_error_distribution_rejects_infinite_scores(inf):
    # an infinite error has no percentile (inf against a finite value
    # interpolates to NaN) and inf - inf is NaN; rank statistics keep ±inf
    with pytest.raises(OutOfDomain, match=f"^machine_scores must be finite, got {inf}$"):
        error_distribution([inf, 0.5], [0.0, 0.5])
    with pytest.raises(OutOfDomain, match=f"^reference_scores must be finite, got {inf}$"):
        error_distribution([0.0, 0.5], [inf, 0.5])
    with pytest.raises(OutOfDomain, match="^machine_scores must be finite"):
        error_distribution([inf, 0.5], [inf, 0.5])


class TestLabelAgreement:
    def test_identical(self):
        stats = label_agreement([5, 4, 3], [5, 4, 3])
        assert stats.exact_rate == 1.0
        assert stats.within_one_rate == 1.0
        assert stats.confusion[4][4] == 1 and stats.confusion[3][3] == 1

    def test_maximal_disagreement(self):
        stats = label_agreement([1, 1], [5, 5])
        assert stats.exact_rate == 0.0
        assert stats.within_one_rate == 0.0

    def test_partial(self):
        stats = label_agreement([5, 4, 2], [5, 5, 5])
        assert stats.exact_rate == pytest.approx(1.0 / 3.0)
        assert stats.within_one_rate == pytest.approx(2.0 / 3.0)
        # confusion rows are reference labels
        assert stats.confusion[4][4] == 1
        assert stats.confusion[4][3] == 1
        assert stats.confusion[4][1] == 1

    def test_row_sums_match_reference_counts(self, rng):
        ref = list(rng.integers(1, 6, size=200))
        mach = list(rng.integers(1, 6, size=200))
        stats = label_agreement(mach, ref)
        for level in range(1, 6):
            assert sum(stats.confusion[level - 1]) == ref.count(level)
        trace = sum(stats.confusion[i][i] for i in range(5))
        assert stats.exact_rate == pytest.approx(trace / 200)

    def test_errors(self):
        with pytest.raises(EmptyInput):
            label_agreement([], [])
        with pytest.raises(LengthMismatch):
            label_agreement([1], [1, 2])

    @pytest.mark.parametrize("machine, reference", [
        ([0, 3], [0, 3]), ([6], [6]), ([3, -1], [3, 3]), ([4, 2], [4, 7]),
    ])
    def test_label_outside_levels_is_bad_label_value(self, machine, reference):
        with pytest.raises(BadLabelValue):
            label_agreement(machine, reference)

    @pytest.mark.parametrize("machine, reference", [
        ([2.5, 4], [2, 4]), ([True, 4], [1, 4]), ([2, 4], [2, "4"]), ([3], [None]),
        (np.array([2.5, 4.0]), [2, 4]), ([3, 3], np.array([True, True])),
    ])
    def test_label_that_is_not_an_integer_is_bad_label_value(self, machine, reference):
        # never truncated or cast: 2.5 is not label 2, True is not label 1
        with pytest.raises(BadLabelValue, match="must be an integer"):
            label_agreement(machine, reference)

    def test_integer_arrays_and_scalars_are_labels(self):
        expected = label_agreement([5, 4, 2], [5, 5, 5])
        assert label_agreement(np.array([5, 4, 2]), np.array([5, 5, 5], dtype=np.uint8)) == expected
        assert label_agreement([np.int64(5), np.int32(4), 2], [5, 5, 5]) == expected

    @pytest.mark.parametrize("label", [10**30, -10**30, 2**63, 128])
    def test_oversized_integer_is_bad_label_value(self, label):
        # checked before numpy sees it: no OverflowError, no wrap into 1..5
        with pytest.raises(BadLabelValue, match=f"in \\[1, 5\\], got {label}$"):
            label_agreement([label], [1])
        with pytest.raises(BadLabelValue, match=f"got {label}$"):
            label_agreement([1, 2], [2, label])

    def test_integer_arrays_of_any_width_agree_with_lists(self, rng):
        machine = rng.integers(1, 6, size=300)
        reference = rng.integers(1, 6, size=300)
        expected = label_agreement(machine.tolist(), reference.tolist())
        assert label_agreement(machine.astype(np.uint64), reference.astype(np.int8)) == expected
        assert label_agreement(reference.astype(np.int8), machine.astype(np.uint64)) == \
            label_agreement(reference.tolist(), machine.tolist())

    def test_out_of_range_wide_array_is_not_wrapped(self):
        # 257 is 1 as int8: the range is checked in the array's own dtype
        with pytest.raises(BadLabelValue, match="got 257"):
            label_agreement(np.array([257, 3], dtype=np.uint64), [1, 3])

    @pytest.mark.parametrize("machine, reference, shape", [
        (np.ones((2, 3), int), np.ones((2, 3), int), r"\(2, 3\)"),
        (np.ones((2, 2), int), np.ones(2, int), r"\(2, 2\)"),
        (np.ones(2, int), np.ones((2, 2), np.uint8), r"\(2, 2\)"),
    ])
    def test_label_array_that_is_not_1d_is_bad_label_value(self, machine, reference, shape):
        # neither flattened nor broadcast: one label per position
        with pytest.raises(BadLabelValue, match=f"1-D.*{shape}"):
            label_agreement(machine, reference)

    def test_uint8_pairs_are_counted_with_no_wide_copy(self):
        # the CLI's uint8 labels are neither copied nor widened: an int8 copy of
        # each and an intp copy of the 2*10^6 pair cells would peak near 21 MiB
        gen = np.random.default_rng(5)
        machine = gen.integers(1, 6, size=2_000_000, dtype=np.uint8)
        reference = gen.integers(1, 6, size=2_000_000, dtype=np.uint8)
        tracemalloc.start()
        try:
            stats = label_agreement(machine, reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
        assert stats == label_agreement(machine.tolist(), reference.tolist())

    def test_range_check_and_cells_make_no_temporary_masks(self):
        # the range test reads min and max, and the cells are built in place: a
        # mask per array or a temporary per step would take 5 MB each here
        n = 5_000_000
        gen = np.random.default_rng(6)
        machine = gen.integers(1, 6, size=n, dtype=np.uint8)
        reference = gen.integers(1, 6, size=n, dtype=np.uint8)
        tracemalloc.start()
        try:
            stats = label_agreement(machine, reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, peak
        expected = sum(np.bincount(5 * reference[lo:lo + 10**6].astype(np.int64)
                                   + machine[lo:lo + 10**6] - 6, minlength=25)
                       for lo in range(0, n, 10**6)).reshape(5, 5)
        assert stats.confusion == tuple(map(tuple, expected.tolist()))
        assert stats.n == n
        assert stats.exact_rate == int(np.trace(expected)) / n

    def test_rates_are_read_off_the_confusion(self, rng):
        machine = rng.integers(1, 6, size=500)
        reference = np.clip(machine + rng.integers(-2, 3, size=500), 1, 5)
        stats = label_agreement(machine, reference)
        assert stats.exact_rate == float((machine == reference).mean())
        assert stats.within_one_rate == float((np.abs(machine - reference) <= 1).mean())
        assert sum(map(sum, stats.confusion)) == stats.n == 500


def dual_record(qid, machine_c, ref_c, machine_t=None, ref_t=None,
                popularity="head", market="US"):
    return record(qid, page(*machine_c),
                  page(*machine_t) if machine_t else None,
                  stratum=sk("art", popularity), market=market,
                  control_reference=page(*ref_c),
                  treatment_reference=page(*ref_t) if ref_t else None)


class TestAlignmentReport:
    def test_identical_sources(self, rng):
        records = []
        for i in range(8):
            levels = list(rng.integers(1, 6, size=5))
            records.append(dual_record(f"q{i}", levels, levels,
                                       popularity=["head", "torso"][i % 2]))
        ds = EvalDataset(records=tuple(records), k_depth=5)
        report = alignment_report(ds)
        overall = report.segments[0]
        assert overall.segment == "overall"
        assert overall.kendall == pytest.approx(1.0)
        assert overall.spearman == pytest.approx(1.0)
        assert overall.errors.mean == 0.0
        assert overall.errors.p90 == 0.0

    def test_report_has_expected_segment_rows(self, rng):
        records = []
        i = 0
        for seg in PopularitySegment:
            for _ in range(3):
                machine = list(rng.integers(1, 6, size=4))
                ref = list(rng.integers(1, 6, size=4))
                records.append(dual_record(f"q{i}", machine, ref, popularity=seg.value))
                i += 1
        report = alignment_report(EvalDataset(records=tuple(records), k_depth=4))
        names = [row.segment for row in report.segments]
        assert names == ["overall", "head", "torso", "tail", "single"]
        for row in report.segments:
            assert row.n >= 2

    def test_per_market_rows(self, rng):
        records = []
        for i, market in enumerate(["US", "FR", "US", "FR", "US", "FR"]):
            machine = list(rng.integers(1, 6, size=4))
            ref = list(rng.integers(1, 6, size=4))
            records.append(dual_record(f"q{i}", machine, ref, market=market))
        report = alignment_report(EvalDataset(records=tuple(records), k_depth=4),
                                  by_market=True)
        assert {row.market for row in report.segments} == {"US", "FR"}

    def test_small_segments_excluded(self, rng):
        records = [dual_record("q0", [3, 3], [3, 4], popularity="head"),
                   dual_record("q1", [3, 2], [3, 3], popularity="head"),
                   dual_record("q2", [1, 2], [2, 2], popularity="tail")]
        report = alignment_report(EvalDataset(records=tuple(records), k_depth=2))
        assert ("tail", 1) in report.excluded
        assert all(row.segment != "tail" for row in report.segments)

    def test_shared_offset_cancels_in_paired_errors(self, rng):
        # machine pages identical across arms, likewise reference pages:
        # per-query offsets are equal in both arms, so delta errors vanish
        records = []
        for i in range(6):
            machine = list(rng.integers(1, 6, size=4))
            ref = list(rng.integers(1, 6, size=4))
            records.append(dual_record(f"q{i}", machine, ref, machine, ref))
        report = alignment_report(EvalDataset(records=tuple(records), k_depth=4))
        overall = report.segments[0]
        assert overall.paired_errors is not None
        assert overall.paired_errors.mean == 0.0
        assert overall.paired_errors.p10 == overall.paired_errors.p90 == 0.0

    def test_paired_errors_only_for_fully_paired_segments(self):
        records = [dual_record(f"h{i}", [3, i % 5 + 1], [4, 2], [4, 4], [3, 5]) for i in range(3)]
        records += [dual_record(f"t{i}", [2, i % 5 + 1], [2, 3], [5, 1], [4, 1], popularity="tail")
                    for i in range(2)]
        records.append(dual_record("t-single-arm", [1, 5], [2, 4], popularity="tail"))
        rows = {row.segment: row for row in
                alignment_report(EvalDataset(records=tuple(records), k_depth=2)).segments}
        assert rows["overall"].paired_errors is None
        assert rows["tail"].paired_errors is None
        assert rows["head"].paired_errors is not None
        assert rows["head"].paired_errors.n == rows["head"].errors.n == 3

    def test_markets_differing_in_a_trailing_nul_stay_apart(self, rng):
        records = [dual_record(f"q{i}", list(rng.integers(1, 6, size=3)),
                               list(rng.integers(1, 6, size=3)), market=market)
                   for i, market in enumerate(["US", "US\x00", "US", "US\x00", "US"])]
        report = alignment_report(EvalDataset(records=tuple(records), k_depth=3),
                                  by_market=True)
        overall = [(row.market, row.n) for row in report.segments if row.segment == "overall"]
        assert overall == [("US", 3), ("US\x00", 2)]

    def test_empty_treatment_page_is_empty_page(self):
        # every arm is scored once for the whole dataset, paired segment or not
        records = [dual_record("q0", [3, 4], [3, 3]), dual_record("q1", [2, 4], [3, 5]),
                   record("q2", page(3, 3), page(), control_reference=page(4, 4),
                          treatment_reference=page())]
        with pytest.raises(EmptyPage):
            alignment_report(EvalDataset(records=tuple(records), k_depth=2))

    def test_missing_reference_rejected(self):
        rec = record("q0", page(3, 3))
        with pytest.raises(MissingReferenceLabels):
            alignment_report(EvalDataset(records=(rec,), k_depth=2))
