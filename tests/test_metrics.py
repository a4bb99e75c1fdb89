import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from releval import metrics
from releval.alignment import alignment_report
from releval.core import EvalDataset
from releval.errors import BadLabelValue, EmptyPage, MissingArm, OutOfDomain
from releval.metrics import arm_scores, paired_delta, paired_deltas, sdcg_at_k
from releval.simulator import ConfusionMatrix, apply_labeler

from conftest import page, record

# frozen from arbitrary-precision evaluation of the score formula
SDCG_L5_L1_AT_2 = 0.6905177542123668


def test_all_top_labels_score_one():
    for k in (1, 2, 5, 25):
        assert sdcg_at_k(page(*([5] * 30)), k) == pytest.approx(1.0, abs=1e-12)


def test_all_bottom_labels_score_point_two():
    for k in (1, 3, 25):
        assert sdcg_at_k(page(*([1] * 30)), k) == pytest.approx(0.2, abs=1e-12)


def test_two_result_anchor():
    assert sdcg_at_k(page(5, 1), 2) == pytest.approx(SDCG_L5_L1_AT_2, abs=1e-6)


def test_single_result_ratio():
    assert sdcg_at_k(page(3), 1) == pytest.approx(0.6, abs=1e-12)


def test_short_page_truncates():
    # the short-page flag is the metric command's: tests/test_cli.py TestMetric
    assert sdcg_at_k(page(5, 1), 25) == sdcg_at_k(page(5, 1), 2)
    assert sdcg_at_k(page(5, 1), 25) == pytest.approx(SDCG_L5_L1_AT_2, abs=1e-12)


def test_empty_page_rejected():
    with pytest.raises(EmptyPage):
        sdcg_at_k(page(), 25)


def test_depth_below_one_is_out_of_domain():
    for k in (0, -1):
        with pytest.raises(OutOfDomain):
            sdcg_at_k(page(3), k)


def test_entries_beyond_k_never_affect_score(rng):
    for _ in range(100):
        k = int(rng.integers(1, 10))
        levels = list(rng.integers(1, 6, size=k + int(rng.integers(1, 10))))
        base = sdcg_at_k(page(*levels), k)
        tail_changed = levels[:k] + list(rng.integers(1, 6, size=len(levels) - k))
        assert sdcg_at_k(page(*tail_changed), k) == base


def test_raising_any_label_strictly_increases(rng):
    for _ in range(300):
        k = int(rng.integers(1, 12))
        levels = list(rng.integers(1, 5, size=k))  # leave headroom to raise
        i = int(rng.integers(0, k))
        raised = list(levels)
        raised[i] += 1
        assert sdcg_at_k(page(*raised), k) > sdcg_at_k(page(*levels), k)


def test_swapping_higher_label_earlier_strictly_increases(rng):
    for _ in range(300):
        k = int(rng.integers(2, 12))
        levels = list(rng.integers(1, 6, size=k))
        i, j = sorted(rng.choice(k, size=2, replace=False))
        if levels[i] == levels[j]:
            levels[j] = levels[i] % 5 + 1
        lo_first = list(levels)
        lo_first[i], lo_first[j] = min(levels[i], levels[j]), max(levels[i], levels[j])
        hi_first = list(levels)
        hi_first[i], hi_first[j] = max(levels[i], levels[j]), min(levels[i], levels[j])
        assert sdcg_at_k(page(*hi_first), k) > sdcg_at_k(page(*lo_first), k)


def test_accumulation_insensitivity():
    levels = [((i * 7) % 5) + 1 for i in range(500)]
    forward = sdcg_at_k(page(*levels), 500)
    disc = [1.0 / math.log2(1.0 + k) for k in range(1, 501)]
    reverse_num = sum(lab * d for lab, d in zip(reversed(levels), reversed(disc)))
    reverse = reverse_num / (5.0 * sum(reversed(disc)))
    assert forward == pytest.approx(reverse, rel=1e-12)


def test_paired_delta_examples():
    same = record("q", page(4, 3), page(4, 3))
    assert paired_delta(same, 2) == 0.0
    extremes = record("q", page(1, 1, 1), page(5, 5, 5))
    assert paired_delta(extremes, 3) == pytest.approx(0.8, abs=1e-12)
    mixed = record("q", page(1, 1), page(5, 1))
    assert paired_delta(mixed, 2) == pytest.approx(SDCG_L5_L1_AT_2 - 0.2, abs=1e-6)


def test_paired_delta_antisymmetry(rng):
    for _ in range(100):
        k = int(rng.integers(1, 8))
        a = page(*rng.integers(1, 6, size=k).tolist())
        b = page(*rng.integers(1, 6, size=k).tolist())
        fwd = paired_delta(record("q", a, b), k)
        rev = paired_delta(record("q", b, a), k)
        assert fwd == -rev


def test_paired_delta_requires_both_arms():
    with pytest.raises(MissingArm):
        paired_delta(record("q", page(5)), 1)


def test_delta_range():
    worst = paired_delta(record("q", page(5, 5), page(1, 1)), 2)
    assert worst == pytest.approx(-0.8, abs=1e-12)
    best = paired_delta(record("q", page(1, 1), page(5, 5)), 2)
    assert best == pytest.approx(0.8, abs=1e-12)


def test_score_equals_plain_loop_bit_for_bit(rng):
    # the score's sums run left to right from the first rank, one rounding an
    # addition, as the loops here do, on every CPython: the score does not use
    # sum(), whose float sum is compensated from 3.12 (see test_float_sums.py)
    for _ in range(300):
        levels = rng.integers(1, 6, size=int(rng.integers(1, 40))).tolist()
        k = int(rng.integers(1, 40))
        k_eff = min(k, len(levels))
        num = den = 0.0
        for rank, level in enumerate(levels[:k_eff], start=1):
            disc = 1.0 / math.log2(1.0 + rank)
            num += level * disc
            den += disc
        assert sdcg_at_k(page(*levels), k) == num / (5 * den)


def _dataset(k_depth=3):
    return EvalDataset(records=(
        record("q0", page(5, 4, 3), page(4, 4, 4)),
        record("q1", page(1, 2), page(2, 2), control_reference=page(1, 1)),
        record("q2", page(3), None),
    ), k_depth=k_depth)


def test_arm_scores_score_each_page_once(monkeypatch):
    # counts the pages each arm sends through the batch kernel
    calls = []
    kernel = metrics._slice_scores

    def counting(labels, lengths, k_depth):
        calls.extend(lengths)
        return kernel(labels, lengths, k_depth)

    monkeypatch.setattr(metrics, "_slice_scores", counting)
    ds = _dataset()
    control = arm_scores(ds, "control")
    assert control == [sdcg_at_k(rec.control, 3) for rec in ds.records]
    assert arm_scores(ds, "control") is control
    assert arm_scores(ds, "treatment")[2] is None
    assert arm_scores(ds, "control_reference") == [None, sdcg_at_k(page(1, 1), 3), None]
    arm_scores(ds, "treatment")
    assert len(calls) == 3 + 2 + 1
    # the memo is no part of the dataset's value
    assert ds == _dataset() and repr(ds) == repr(_dataset())


def test_arm_scores_name_the_record_with_an_empty_page():
    ds = EvalDataset(records=(record("q0", page(3), page(4)), record("q1", page(2), b""),
                              record("q2", page(5), b"")), k_depth=3)
    assert arm_scores(ds, "control") == [0.6, 0.4, 1.0]
    with pytest.raises(EmptyPage) as exc:
        arm_scores(ds, "treatment")
    assert (exc.value.query_id, exc.value.field) == ("q1", "treatment")


def _ragged_dataset(n: int) -> EvalDataset:
    # pages of 1 to 9 labels; every third record has no treatment, every
    # second no control reference
    levels = np.random.default_rng(17).integers(1, 6, size=(n, 9)).astype(np.uint8)
    return EvalDataset(records=tuple(
        record(f"q{i}", levels[i, :1 + i % 9].tobytes(),
               None if i % 3 == 0 else levels[i, ::-1][:1 + i % 7].tobytes(),
               control_reference=None if i % 2 else levels[i, 1:].tobytes())
        for i in range(n)), k_depth=5)


@pytest.mark.parametrize("size", [1, 7, metrics.SCORE_SLICE])
def test_arm_scores_are_the_same_for_any_slice_size(monkeypatch, size):
    arms = ("control", "treatment", "control_reference", "treatment_reference")
    ds = _ragged_dataset(50)
    expected = {arm: [None if (p := getattr(rec, arm)) is None else sdcg_at_k(p, 5)
                      for rec in ds.records] for arm in arms}
    monkeypatch.setattr(metrics, "SCORE_SLICE", size)
    assert {arm: arm_scores(ds, arm) for arm in arms} == expected
    records = list(ds.records)
    for i in (20, 33):
        records[i] = dataclasses.replace(records[i], treatment=b"")
    with pytest.raises(EmptyPage) as exc:
        arm_scores(EvalDataset(records=tuple(records), k_depth=5), "treatment")
    assert (exc.value.query_id, exc.value.field) == ("q20", "treatment")


def _long_ragged_records(n: int) -> tuple:
    # pages of 1 to 39 labels; every fourth record has no treatment and none
    # has reference labels, so those arms are missing pages or all missing
    gen = np.random.default_rng(23)
    levels = gen.integers(1, 6, size=(n, 2, 39)).astype(np.uint8)
    sizes = gen.integers(1, 40, size=(n, 2))
    return tuple(record(f"q{i}", levels[i, 0, :sizes[i, 0]].tobytes(),
                        None if i % 4 == 0 else levels[i, 1, :sizes[i, 1]].tobytes())
                 for i in range(n))


@pytest.mark.parametrize("size", [1, 7, metrics.SCORE_SLICE])
@pytest.mark.parametrize("k_depth", [1, 3, 25, 40])
def test_batch_scores_have_the_bits_of_sdcg_at_k(monkeypatch, k_depth, size):
    # the block is summed by np.cumsum, in order, as sdcg_at_k adds: == on
    # each float; at K = 40 every page is shorter than K, at K = 1 one label counts
    records = _long_ragged_records(300)
    monkeypatch.setattr(metrics, "SCORE_SLICE", size)
    ds = EvalDataset(records=records, k_depth=k_depth)
    for arm in ("control", "treatment", "treatment_reference"):
        assert arm_scores(ds, arm) == [None if (p := getattr(rec, arm)) is None
                                       else sdcg_at_k(p, k_depth) for rec in records]


def _arm_scores_peak_above_result(n: int) -> int:
    ds = EvalDataset(records=tuple(record(f"q{i}", page(*[3] * 25)) for i in range(n)),
                     k_depth=25)
    tracemalloc.start()
    try:
        scores = arm_scores(ds, "control")
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scores) == n
    return peak - current


def test_arm_scores_memory_above_the_result_does_not_grow_with_the_pages():
    # the pages are checked one slice at a time: checking an arm whole held
    # about 90 bytes a page beyond the scores, 5 MiB more at 8e4 than at 2e4
    small, large = map(_arm_scores_peak_above_result, (20_000, 80_000))
    assert large < small + 64 * 1024


@pytest.mark.parametrize("bad", [b"\x09\x09", [5, 5], b"\x00\x05", b"\x09"],
                         ids=["nines", "list", "zero", "nine"])
@pytest.mark.parametrize("arm", ["control", "treatment"])
@pytest.mark.parametrize("entry", [
    lambda ds: arm_scores(ds, "control") + arm_scores(ds, "treatment"),
    paired_deltas, alignment_report,
    lambda ds: apply_labeler(ds.records, ConfusionMatrix.identity(), seed=1),
], ids=["arm_scores", "paired_deltas", "alignment_report", "apply_labeler"])
def test_a_hand_built_page_is_checked_before_it_is_used(entry, arm, bad):
    # a hand-built page skips the parser: b"\x09\x09" once scored 1.8 and
    # [5, 5] 1.0, outside [0.2, 1.0], and the labeler indexed past its matrix
    records = [record(f"q{i}", page(3, 4), page(4, 4), control_reference=page(3, 3),
                      treatment_reference=page(4, 5)) for i in range(3)]
    records[1] = dataclasses.replace(records[1], **{arm: bad})
    with pytest.raises(BadLabelValue, match=f"^{arm} label"):
        entry(EvalDataset(records=tuple(records), k_depth=3))


def test_paired_deltas_match_paired_delta_and_name_first_unpaired():
    ds = EvalDataset(records=_dataset().records[:2], k_depth=3)
    assert paired_deltas(ds) == [paired_delta(rec, 3) for rec in ds.records]
    with pytest.raises(MissingArm) as exc:
        paired_deltas(_dataset())
    assert exc.value.query_id == "q2"
