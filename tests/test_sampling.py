import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from releval.errors import BadSpec, BudgetTooSmall, EmptyInput, MissingSigma, OutOfDomain
from releval.sampling import StratumSpec, allocate, decompose_variance

from conftest import pooled_population_variance, sk


def spread(values_by_key):
    return [(key, v) for key, vals in values_by_key.items() for v in vals]


class TestDecomposeVariance:
    def test_constant_strata(self):
        vd = decompose_variance(spread({sk("a"): [0, 0], sk("b"): [1, 1]}))
        assert vd.within == 0.0
        assert vd.between == pytest.approx(0.25)
        assert vd.total == pytest.approx(0.25)

    def test_two_strata_example(self):
        vd = decompose_variance(spread({sk("a"): [0, 2], sk("b"): [4, 6]}))
        assert vd.within == pytest.approx(1.0)
        assert vd.between == pytest.approx(4.0)
        assert vd.total == pytest.approx(5.0)

    def test_single_stratum_between_zero(self, rng):
        vals = list(rng.normal(size=20))
        vd = decompose_variance([(sk("only"), v) for v in vals])
        assert vd.between == pytest.approx(0.0, abs=1e-15)
        assert vd.within == pytest.approx(vd.total)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            decompose_variance([])

    def test_identity_on_random_populations(self, rng):
        for _ in range(200):
            n_strata = int(rng.integers(2, 8))
            values = []
            for s in range(n_strata):
                count = int(rng.integers(2, 30))
                center = rng.normal(scale=3)
                values.extend((sk(f"s{s}"), float(v))
                              for v in rng.normal(loc=center, size=count))
            vd = decompose_variance(values)
            pooled = pooled_population_variance([v for _, v in values])
            assert vd.total == pytest.approx(vd.within + vd.between, rel=1e-10)
            assert vd.total == pytest.approx(pooled, rel=1e-9)


@pytest.mark.parametrize("fields, message", [
    (("a",), "weight must be a number, got 'a'"),
    ((True,), "weight must be a number, got True"),
    ((1.0, "0.2"), "sigma must be a number, got '0.2'"),
    ((1.0, None, 10 ** 5000), "mu is out of range, got <int too long to print>"),
], ids=["weight-str", "weight-bool", "sigma-str", "mu-too-large"])
def test_a_stratum_value_of_the_wrong_type_is_bad_spec(fields, message):
    with pytest.raises(BadSpec) as err:
        StratumSpec(sk("a"), *fields)
    assert str(err.value) == message


@pytest.mark.parametrize("budget, minimum, message", [
    ("8", 2, "budget must be an integer, got '8'"),
    (2.5, 2, "budget must be an integer, got 2.5"),
    (True, 0, "budget must be an integer, got True"),
    (8, "2", "min_per_stratum must be an integer, got '2'"),
], ids=["budget-str", "budget-float", "budget-bool", "minimum-str"])
def test_an_allocation_count_of_the_wrong_type_is_bad_spec(budget, minimum, message):
    with pytest.raises(BadSpec) as err:
        allocate([StratumSpec(sk("a"), 1.0)], budget, "proportional", minimum)
    assert str(err.value) == message


def test_stratum_numbers_are_stored_as_floats():
    spec = StratumSpec(sk("a"), 1, sigma=0, mu=1)
    assert [type(v) for v in (spec.weight, spec.sigma, spec.mu)] == [float] * 3


class TestAllocate:
    def test_neyman_two_strata_closed_form(self):
        strata = [StratumSpec(sk("a"), 0.5, sigma=1.0), StratumSpec(sk("b"), 0.5, sigma=3.0)]
        alloc = allocate(strata, 8, mode="neyman")
        assert alloc.per_stratum == {sk("a"): 2, sk("b"): 6}
        assert not alloc.fallback_proportional

    def test_equal_sigmas_match_proportional(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            w = rng.dirichlet(np.ones(n))
            strata = [StratumSpec(sk(f"s{i}"), float(w[i]), sigma=0.7) for i in range(n)]
            budget = int(rng.integers(2 * n, 100))
            ney = allocate(strata, budget, mode="neyman")
            prop = allocate(strata, budget, mode="proportional")
            assert ney.per_stratum == prop.per_stratum

    def test_largest_remainder_tie_break(self):
        strata = [StratumSpec(sk(c), 1 / 3) for c in "abc"]
        alloc = allocate(strata, 10, mode="proportional")
        assert alloc.per_stratum == {sk("a"): 4, sk("b"): 3, sk("c"): 3}

    def test_budget_is_always_exact(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 10))
            w = rng.dirichlet(np.ones(n))
            sig = rng.uniform(0, 5, size=n)
            strata = [StratumSpec(sk(f"s{i}"), float(w[i]), sigma=float(sig[i]))
                      for i in range(n)]
            budget = int(rng.integers(2 * n, 500))
            alloc = allocate(strata, budget, mode="neyman")
            assert sum(alloc.per_stratum.values()) == budget
            assert all(c >= 2 for c in alloc.per_stratum.values())

    # float targets lose units past about 2^52, so a large budget may be refused
    @given(parts=st.lists(st.tuples(st.integers(1, 100), st.floats(0, 10)),
                          min_size=1, max_size=6),
           budget=st.integers(4, 80).flatmap(lambda bits: st.integers(2 ** bits, 2 ** (bits + 1))),
           mode=st.sampled_from(["neyman", "proportional"]))
    def test_allocation_sums_to_the_budget_or_is_refused(self, parts, budget, mode):
        total = sum(w for w, _ in parts)
        strata = [StratumSpec(sk(f"s{i}"), w / total, sigma=sigma)
                  for i, (w, sigma) in enumerate(parts)]
        try:
            alloc = allocate(strata, budget, mode=mode)
        except OutOfDomain:
            assert budget > 2 ** 40
        else:
            assert sum(alloc.per_stratum.values()) == budget

    def test_min_per_stratum_raise_and_reallocate(self):
        strata = [StratumSpec(sk("tiny"), 0.01, sigma=0.01),
                  StratumSpec(sk("big"), 0.99, sigma=1.0)]
        alloc = allocate(strata, 100, mode="neyman", min_per_stratum=5)
        assert alloc.per_stratum[sk("tiny")] == 5
        assert alloc.per_stratum[sk("big")] == 95

    def test_pinning_cascades(self):
        # targets 3, 5.1, 21.9 pin the first; then 4.72, 20.28 of 25 pin the second
        strata = [StratumSpec(sk(c), w) for c, w in zip("abc", (0.1, 0.17, 0.73))]
        alloc = allocate(strata, 30, mode="proportional", min_per_stratum=5)
        assert alloc.per_stratum == {sk("a"): 5, sk("b"): 5, sk("c"): 20}

    def test_all_sigmas_zero_falls_back_to_proportional(self):
        strata = [StratumSpec(sk("a"), 0.25, sigma=0.0), StratumSpec(sk("b"), 0.75, sigma=0.0)]
        alloc = allocate(strata, 8, mode="neyman")
        assert alloc.fallback_proportional
        assert alloc.per_stratum == allocate(strata, 8, mode="proportional").per_stratum

    def test_errors(self):
        strata = [StratumSpec(sk("a"), 0.5, sigma=1.0), StratumSpec(sk("b"), 0.5)]
        with pytest.raises(MissingSigma):
            allocate(strata, 10, mode="neyman")
        with pytest.raises(BudgetTooSmall):
            allocate(strata, 3, mode="proportional")
        with pytest.raises(OutOfDomain, match="unknown allocation mode 'optimal'"):
            allocate(strata, 10, mode="optimal")

    def test_neyman_counts_round_real_targets(self, rng):
        # without pinning, every count is the floor or ceiling of the
        # real-valued optimal-share target
        checked = 0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            w = rng.dirichlet(np.ones(n))
            sig = rng.uniform(0.2, 4, size=n)
            strata = [StratumSpec(sk(f"s{i}"), float(w[i]), sigma=float(sig[i]))
                      for i in range(n)]
            budget = int(rng.integers(max(40, 4 * n), 400))
            shares = w * sig
            targets = budget * shares / shares.sum()
            if targets.min() < 2.0:
                continue
            counts = allocate(strata, budget, mode="neyman").per_stratum
            for s, target in zip(strata, targets):
                assert abs(counts[s.key] - target) < 1.0
            checked += 1
        assert checked >= 20

