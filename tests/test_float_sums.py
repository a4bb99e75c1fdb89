"""Report floats do not depend on how the interpreter's sum() adds floats.

CPython 3.12 made sum() of floats compensated (Neumaier), so a float that
reached a report through sum() would change its last bit between 3.11 and
3.12. Every such sum adds left to right instead. These tests put a stand-in
for 3.12's sum() into each releval module and check that no score, estimate,
allocation or golden report moves.
"""

import importlib
import math
import random
from functools import reduce
from operator import add
from pathlib import Path

import pytest

import releval
from releval.estimation import stratified_estimate
from releval.metrics import sdcg_at_k
from releval.sampling import StratumSpec, allocate

import test_golden
from conftest import sk

MODULES = sorted(p.stem for p in Path(releval.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


def compensated_sum(iterable, start=0):
    """sum() as CPython 3.12 and 3.13 compute it: floats are added with a
    Neumaier compensation term, ints in a float sum without one."""
    total, comp = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total = total + x
    return total + comp if comp and math.isfinite(comp) else total


@pytest.fixture
def compensated(monkeypatch):
    """Installs ``compensated_sum`` as the module-global sum of every releval module."""
    def install():
        for name in MODULES:
            monkeypatch.setattr(importlib.import_module(f"releval.{name}"), "sum",
                                compensated_sum, raising=False)
    return install


def test_stand_in_rounds_unlike_a_left_to_right_sum():
    # without this the tests below could pass with a stand-in that changes nothing
    assert reduce(add, [0.1] * 10) == 0.9999999999999999
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1, 2]) == 3 and type(compensated_sum([1, 2])) is int


def _pages(n):
    rnd = random.Random(11)
    return [bytes(rnd.randint(1, 5) for _ in range(rnd.randint(1, 40))) for _ in range(n)]


def test_page_scores_do_not_move(compensated):
    pages = _pages(500)
    before = [sdcg_at_k(p, k) for p in pages for k in (3, 10, 25)]
    compensated()
    assert [sdcg_at_k(p, k) for p in pages for k in (3, 10, 25)] == before


def _design(rnd, n):
    raw = [rnd.random() for _ in range(n)]
    weights = [w / reduce(add, raw) for w in raw[:-1]]
    weights.append(1.0 - reduce(add, weights, 0.0))
    return [StratumSpec(sk(f"s{i}"), w, sigma=rnd.uniform(0.01, 0.4))
            for i, w in enumerate(weights)]


def test_estimates_and_allocations_do_not_move(compensated):
    rnd = random.Random(3)
    cases = []
    for _ in range(200):
        strata = _design(rnd, rnd.randint(2, 12))
        deltas = {s.key: [rnd.gauss(0.01, 0.2) for _ in range(rnd.randint(2, 9))]
                  for s in strata}
        weights = {s.key: s.weight for s in strata}
        cases.append((strata, deltas, weights, rnd.randint(100, 10 ** 6)))

    def results():
        return [(stratified_estimate(deltas, weights),
                 allocate(strata, budget), allocate(strata, budget, mode="proportional"))
                for strata, deltas, weights, budget in cases]

    before = results()
    compensated()
    assert results() == before


@pytest.mark.parametrize("name", test_golden.GOLDEN)
def test_golden_reports_do_not_move(tmp_path, monkeypatch, compensated, name):
    compensated()
    test_golden.test_report_bytes_are_pinned(tmp_path, monkeypatch, name)
