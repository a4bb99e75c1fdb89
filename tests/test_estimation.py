import math

import numpy as np
import pytest

from releval.core import EvalDataset, PopularitySegment
from releval.errors import (
    NoSegments,
    OutOfDomain,
    TooFewSamples,
    TooFewSamplesInStratum,
    WeightMismatch,
)
from releval.estimation import (
    group_deltas,
    segment_effects,
    srs_estimate,
    stratified_estimate,
    stratified_variance,
)
from releval.metrics import paired_deltas

from conftest import page, record, sk


class TestSrsEstimate:
    def test_all_zero_deltas(self):
        est = srs_estimate([0.0, 0.0, 0.0])
        assert est.mean == 0.0
        assert est.std_error == 0.0
        assert est.p_value == 1.0
        assert est.degenerate

    def test_symmetric_pair(self):
        est = srs_estimate([0.1, -0.1])
        assert est.mean == pytest.approx(0.0, abs=1e-15)
        assert est.std_error == pytest.approx(0.1)
        assert est.p_value == pytest.approx(1.0)

    def test_constant_nonzero_deltas(self):
        est = srs_estimate([0.02] * 100)
        assert est.mean == pytest.approx(0.02)
        assert est.std_error == 0.0
        assert est.ci_low == est.ci_high == est.mean
        assert est.p_value == 0.0
        assert est.degenerate

    def test_interval_brackets_mean(self, rng):
        deltas = list(rng.normal(0.01, 0.05, size=50))
        est = srs_estimate(deltas, alpha=0.05)
        assert est.ci_low <= est.mean <= est.ci_high
        assert 0.0 <= est.p_value <= 1.0

    def test_t_interval_matches_hand_computation(self):
        # n=4, deltas with mean 0.5 and s=sqrt(1/3); t_{0.975,3}=3.182446...
        est = srs_estimate([0.0, 0.0, 1.0, 1.0], alpha=0.05)
        se = math.sqrt(1.0 / 3.0) / 2.0
        assert est.std_error == pytest.approx(se, rel=1e-12)
        assert est.ci_high - est.mean == pytest.approx(3.182446305284263 * se, rel=1e-9)

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            srs_estimate([0.1])

    def test_sign_equivariance(self, rng):
        deltas = list(rng.normal(0.02, 0.1, size=30))
        fwd = srs_estimate(deltas)
        neg = srs_estimate([-d for d in deltas])
        assert neg.mean == -fwd.mean
        assert neg.std_error == fwd.std_error
        assert neg.p_value == fwd.p_value

    def test_scale_equivariance(self, rng):
        deltas = list(rng.normal(0.02, 0.1, size=30))
        base = srs_estimate(deltas)
        scaled = srs_estimate([4.0 * d for d in deltas])
        assert scaled.mean == pytest.approx(4.0 * base.mean, rel=1e-12)
        assert scaled.std_error == pytest.approx(4.0 * base.std_error, rel=1e-12)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-9)


class TestStratifiedEstimate:
    def test_constant_strata(self):
        est = stratified_estimate({sk("a"): [1.0, 1.0], sk("b"): [3.0, 3.0]},
                                  {sk("a"): 0.5, sk("b"): 0.5})
        assert est.mean == pytest.approx(2.0)
        assert est.std_error == 0.0
        assert est.degenerate

    def test_hand_computed_se(self):
        est = stratified_estimate({sk("a"): [0.0, 2.0], sk("b"): [4.0, 6.0]},
                                  {sk("a"): 0.5, sk("b"): 0.5})
        assert est.mean == pytest.approx(3.0)
        assert est.std_error == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_single_stratum_collapses_to_srs(self, rng):
        deltas = list(rng.normal(0.01, 0.05, size=40))
        strat = stratified_estimate({sk("only"): deltas}, {sk("only"): 1.0})
        srs = srs_estimate(deltas)
        assert strat.mean == pytest.approx(srs.mean, rel=1e-12)
        assert strat.std_error == pytest.approx(srs.std_error, rel=1e-12)
        # interval uses z rather than t, so it is narrower
        assert strat.ci_high - strat.ci_low < srs.ci_high - srs.ci_low

    def test_weight_mismatch(self):
        with pytest.raises(WeightMismatch):
            stratified_estimate({sk("a"): [1, 2]}, {sk("b"): 1.0})
        with pytest.raises(WeightMismatch):
            stratified_estimate({sk("a"): [1, 2], sk("b"): [1, 2]},
                                {sk("a"): 0.5, sk("b"): 0.6})

    def test_small_stratum_rejected(self):
        with pytest.raises(TooFewSamplesInStratum):
            stratified_estimate({sk("a"): [1.0], sk("b"): [1.0, 2.0]},
                                {sk("a"): 0.5, sk("b"): 0.5})

    def test_stratified_beats_srs_when_means_differ(self, rng):
        # population with distinct stratum means, proportional allocation
        for _ in range(20):
            a = list(rng.normal(0.0, 1.0, size=100))
            b = list(rng.normal(3.0, 1.0, size=100))
            strat = stratified_estimate({sk("a"): a, sk("b"): b},
                                        {sk("a"): 0.5, sk("b"): 0.5})
            srs = srs_estimate(a + b)
            assert strat.std_error < srs.std_error


class TestStratifiedVariance:
    def test_hand_computed_two_strata(self):
        # 0.25^2 * 2 / 2 + 0.75^2 * 1 / 3 = 0.0625 + 0.1875, each term exact
        var = stratified_variance({sk("a"): [0.0, 2.0], sk("b"): [1.0, 2.0, 3.0]},
                                  {sk("a"): 0.25, sk("b"): 0.75})
        assert var == 0.25

    def test_a_one_query_stratum_is_rejected(self):
        with pytest.raises(TooFewSamplesInStratum, match=r"stratum b/head has n=1"):
            stratified_variance({sk("a"): [1.0, 2.0], sk("b"): [1.0]},
                                {sk("a"): 0.5, sk("b"): 0.5})


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, float("nan")])
def test_alpha_outside_unit_interval_is_out_of_domain(alpha):
    # both estimators, also on constant inputs, where no quantile is needed
    for deltas in ([0.1, 0.3, 0.2], [0.2, 0.2, 0.2]):
        with pytest.raises(OutOfDomain, match=r"alpha must be in \(0, 1\)"):
            srs_estimate(deltas, alpha)
        with pytest.raises(OutOfDomain, match=r"alpha must be in \(0, 1\)"):
            stratified_estimate({sk("a"): deltas}, {sk("a"): 1.0}, alpha)


def paired_dataset(groups, k_depth=1):
    """groups: {stratum: list of (control_level, treatment_level)}."""
    records = []
    for stratum, pairs in groups.items():
        for i, (c, t) in enumerate(pairs):
            records.append(record(f"{stratum}-{i}", page(c), page(t),
                                  stratum=stratum))
    return EvalDataset(records=tuple(records), k_depth=k_depth)


@pytest.mark.parametrize("grouping, expected", [
    ("interest", [("b", [0, 2]), ("a", [1, 3])]),
    ("popularity", [(PopularitySegment.TAIL, [0, 3]), (PopularitySegment.HEAD, [1, 2])]),
    ("stratum", [(sk("b", "tail"), [0]), (sk("a", "head"), [1]),
                 (sk("b", "head"), [2]), (sk("a", "tail"), [3])]),
])
def test_group_deltas_keeps_first_seen_and_record_order(grouping, expected):
    strata = [sk("b", "tail"), sk("a", "head"), sk("b", "head"), sk("a", "tail")]
    ds = EvalDataset(records=tuple(
        record(f"q{i}", page(c), page(t), stratum=s)
        for i, (s, c, t) in enumerate(zip(strata, (3, 2, 5, 1), (4, 2, 3, 5)))), k_depth=1)
    deltas = paired_deltas(ds)
    assert list(group_deltas(ds, grouping).items()) == [
        (segment, [deltas[i] for i in rows]) for segment, rows in expected]


class TestSegmentEffects:
    def test_all_null_segments_none_rejected(self):
        groups = {sk("a", seg.value): [(3, 3)] * 4 for seg in PopularitySegment}
        analysis = segment_effects(paired_dataset(groups), grouping="popularity")
        assert len(analysis.effects) == 4
        assert not any(e.bh_rejected for e in analysis.effects)
        assert all(e.adjusted_p >= e.estimate.p_value for e in analysis.effects)

    def test_segments_sorted_and_excluded_reported(self):
        groups = {
            sk("a", "head"): [(3, 4)] * 5,
            sk("a", "tail"): [(3, 3)],  # too small: excluded
            sk("a", "torso"): [(2, 2)] * 3,
        }
        analysis = segment_effects(paired_dataset(groups), grouping="popularity")
        names = [e.segment for e in analysis.effects]
        assert names == sorted(names, key=lambda s: s.value)
        assert analysis.excluded == ((PopularitySegment.TAIL, 1),)

    def test_grouping_by_interest_and_stratum(self):
        groups = {
            sk("beauty", "head"): [(3, 4), (3, 4)],
            sk("art", "tail"): [(2, 2), (2, 2)],
        }
        ds = paired_dataset(groups)
        by_interest = segment_effects(ds, grouping="interest")
        assert [e.segment for e in by_interest.effects] == ["art", "beauty"]
        by_stratum = segment_effects(ds, grouping="stratum")
        assert [e.segment for e in by_stratum.effects] == sorted(groups)

    def test_bh_applied_across_segments(self, rng):
        # strong effect in two segments, pure noise elsewhere
        groups = {
            sk("a", "head"): [(1, 5)] * 10 + [(1, 4)] * 2,
            sk("a", "torso"): [(5, 1)] * 10 + [(4, 1)] * 2,
            sk("a", "tail"): [(3, 3)] * 10 + [(3, 4), (4, 3)],
        }
        analysis = segment_effects(paired_dataset(groups), grouping="popularity", q=0.05)
        by_name = {e.segment.value: e for e in analysis.effects}
        assert by_name["head"].bh_rejected
        assert by_name["torso"].bh_rejected
        assert not by_name["tail"].bh_rejected

    def test_no_segments(self):
        groups = {sk("a", "head"): [(3, 3)]}
        with pytest.raises(NoSegments):
            segment_effects(paired_dataset(groups))

    @pytest.mark.parametrize("groups", [{}, {sk("a", "head"): [(3, 4)] * 3}],
                             ids=["empty", "paired"])
    def test_unknown_grouping_is_out_of_domain(self, groups):
        # checked before any delta, so an empty dataset is not NoSegments
        with pytest.raises(OutOfDomain, match="unknown grouping 'market'"):
            segment_effects(paired_dataset(groups), grouping="market")
