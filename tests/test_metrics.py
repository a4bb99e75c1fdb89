import math

import numpy as np
import pytest

from releval import metrics
from releval.core import EvalDataset
from releval.errors import EmptyPage, MissingArm, OutOfDomain
from releval.metrics import arm_scores, paired_delta, paired_deltas, sdcg_at_k

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
    calls = []
    monkeypatch.setattr(metrics, "sdcg_at_k",
                        lambda page, k: calls.append(page) or sdcg_at_k(page, k))
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


def test_paired_deltas_match_paired_delta_and_name_first_unpaired():
    ds = EvalDataset(records=_dataset().records[:2], k_depth=3)
    assert paired_deltas(ds) == [paired_delta(rec, 3) for rec in ds.records]
    with pytest.raises(MissingArm) as exc:
        paired_deltas(_dataset())
    assert exc.value.query_id == "q2"
