import numpy as np
import pytest

from releval.errors import BadPValue, EmptyInput
from releval.fdr import benjamini_hochberg

from conftest import brute_bh_rejections


def test_worked_four_value_example():
    result = benjamini_hochberg([0.005, 0.01, 0.03, 0.04], q=0.05)
    assert result.rejected == (True, True, True, True)
    assert result.k_star == 4


def test_all_null_pvalues():
    result = benjamini_hochberg([1.0, 1.0, 1.0], q=0.1)
    assert result.rejected == (False, False, False)
    assert result.adjusted_p == (1.0, 1.0, 1.0)
    assert result.k_star == 0


def test_mixed_example():
    result = benjamini_hochberg([0.01, 0.9], q=0.05)
    assert result.rejected == (True, False)


def test_errors():
    with pytest.raises(EmptyInput):
        benjamini_hochberg([], q=0.05)
    with pytest.raises(BadPValue):
        benjamini_hochberg([0.5, 1.2], q=0.05)
    with pytest.raises(BadPValue):
        benjamini_hochberg([0.5], q=0.0)
    with pytest.raises(BadPValue, match="^q must be in"):
        benjamini_hochberg([0.5], q="a")


def test_dual_definition_equivalence(rng):
    for _ in range(500):
        m = int(rng.integers(1, 60))
        p = list(np.round(rng.uniform(size=m), int(rng.integers(1, 6))))
        q = float(rng.uniform(0.01, 0.3))
        result = benjamini_hochberg(p, q)
        assert list(result.rejected) == brute_bh_rejections(p, q)
        assert list(result.rejected) == [adj <= q for adj in result.adjusted_p]


def test_adjusted_p_is_the_step_up_dual_bit_for_bit(rng):
    # min(1, min over j >= i of m * p_(j) / j), on ties, zeros and ones
    for _ in range(300):
        m = int(rng.integers(1, 30))
        pool = rng.choice([0.0, 1.0, 0.001, 0.02, 0.04, float(rng.uniform())], size=m)
        p = [float(x) for x in np.where(rng.uniform(size=m) < 0.5, pool, rng.uniform(size=m))]
        result = benjamini_hochberg(p, q=0.05)
        order = sorted(range(m), key=lambda i: (p[i], i))
        for pos, i in enumerate(order, start=1):
            dual = min(1.0, min(m * p[order[j - 1]] / j for j in range(pos, m + 1)))
            assert result.adjusted_p[i] == dual


def test_permutation_equivariance(rng):
    p = list(rng.uniform(size=12))
    q = 0.1
    base = benjamini_hochberg(p, q)
    for _ in range(20):
        perm = rng.permutation(12)
        permuted = benjamini_hochberg([p[i] for i in perm], q)
        assert list(permuted.rejected) == [base.rejected[i] for i in perm]
        assert np.allclose(permuted.adjusted_p, [base.adjusted_p[i] for i in perm])


def test_lowering_a_pvalue_never_shrinks_rejections(rng):
    for _ in range(100):
        m = int(rng.integers(2, 20))
        p = list(rng.uniform(size=m))
        q = 0.1
        before = set(i for i, r in enumerate(benjamini_hochberg(p, q).rejected) if r)
        i = int(rng.integers(0, m))
        lowered = list(p)
        lowered[i] = float(rng.uniform(0, p[i]))
        after = set(i for i, r in enumerate(benjamini_hochberg(lowered, q).rejected) if r)
        assert before <= after


def test_ties_get_identical_treatment():
    p = [0.02, 0.02, 0.5, 0.02]
    result = benjamini_hochberg(p, q=0.05)
    tied = [0, 1, 3]
    assert len({result.adjusted_p[i] for i in tied}) == 1
    assert len({result.rejected[i] for i in tied}) == 1


def test_adjusted_monotone_in_sorted_order(rng):
    p = list(rng.uniform(size=25))
    result = benjamini_hochberg(p, q=0.05)
    order = sorted(range(25), key=lambda i: (p[i], i))
    adj_sorted = [result.adjusted_p[i] for i in order]
    assert all(a <= b for a, b in zip(adj_sorted, adj_sorted[1:]))
    assert all(result.adjusted_p[i] >= p[i] for i in range(25))


@pytest.mark.parametrize("p", [True, "a", None, [0.5], 1.2, float("nan")])
def test_a_p_value_is_a_number_in_the_unit_interval(p):
    # a bool is not a p-value, and a str is not compared
    with pytest.raises(BadPValue) as exc:
        benjamini_hochberg([0.5, p])
    assert str(exc.value) == f"p-value must be a number in [0, 1], got {p!r}"
