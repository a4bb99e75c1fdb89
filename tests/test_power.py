import math

import pytest

from releval.errors import NonPositiveMean, OutOfDomain
from releval.power import PowerConfig, mde, normal_cdf, normal_quantile, required_n

# frozen from the Table-style example: mu=0.8, sigma=0.184, n=2000, defaults
MDE_SRS_EXAMPLE = 0.020376597801082172
REQUIRED_N_EXAMPLE = 132866


def bisect_quantile(p, lo=-40.0, hi=40.0):
    """Oracle: bisection on the erfc-based CDF."""
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_anchors(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert normal_quantile(0.8) == pytest.approx(0.841621, abs=1e-6)

    def test_against_bisection_oracle(self):
        # the CDF loses precision near 1, so the oracle resolves upper-tail
        # quantiles through the exact reflection q(p) = -q(1 - p)
        ps = [1e-12, 1e-9, 1e-6, 1e-3, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975,
              0.99, 0.999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]
        for p in ps:
            oracle = bisect_quantile(p) if p <= 0.5 else -bisect_quantile(1.0 - p)
            assert normal_quantile(p) == pytest.approx(oracle, abs=1e-9)

    def test_antisymmetry(self, rng):
        for p in rng.uniform(1e-10, 1 - 1e-10, size=500):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=1e-9)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5, float("nan")):
            with pytest.raises(OutOfDomain):
                normal_quantile(bad)


class TestMde:
    def test_zero_sigma_means_zero_mde(self):
        assert mde(0.8, 0.0, 100) == 0.0

    def test_srs_example(self):
        assert mde(0.8, 0.184, 2000) == pytest.approx(MDE_SRS_EXAMPLE, abs=1e-5)

    def test_quadrupling_n_halves_mde_exactly(self, rng):
        for _ in range(200):
            mu = float(rng.uniform(0.2, 1.0))
            sigma = float(rng.uniform(0.001, 0.5))
            n = int(rng.integers(1, 10_000))
            assert mde(mu, sigma, 4 * n) == mde(mu, sigma, n) / 2.0

    def test_monotonicity(self):
        base = mde(0.8, 0.1, 1000)
        assert mde(0.8, 0.1, 2000) < base
        assert mde(0.9, 0.1, 1000) < base
        assert mde(0.8, 0.2, 1000) > base

    def test_nonpositive_mean(self):
        with pytest.raises(NonPositiveMean):
            mde(0.0, 0.1, 10)
        with pytest.raises(NonPositiveMean):
            mde(-1.0, 0.1, 10)


class TestRequiredN:
    def test_fixed_point(self):
        target = mde(0.8, 0.184, 1000)
        assert required_n(0.8, 0.184, target) == 1000

    def test_quarter_percent_example(self):
        assert abs(required_n(0.8, 0.184, 0.0025) - REQUIRED_N_EXAMPLE) <= 1

    def test_halving_target_quadruples_n(self):
        n1 = required_n(0.8, 0.184, 0.005)
        n2 = required_n(0.8, 0.184, 0.0025)
        assert abs(n2 - 4 * n1) <= 4  # +/-1 on each ceiling

    def test_roundtrip_with_mde(self, rng):
        for _ in range(300):
            mu = float(rng.uniform(0.2, 1.0))
            sigma = float(rng.uniform(0.01, 0.5))
            n = int(rng.integers(2, 50_000))
            assert required_n(mu, sigma, mde(mu, sigma, n)) == n

    def test_custom_config(self):
        cfg = PowerConfig(alpha=0.01, power=0.9)
        assert required_n(0.8, 0.1, 0.01, cfg) > required_n(0.8, 0.1, 0.01)


def test_power_config_defaults():
    cfg = PowerConfig()
    assert cfg.alpha == 0.05
    assert cfg.power == 0.8
    with pytest.raises(OutOfDomain):
        PowerConfig(alpha=1.0)
    with pytest.raises(OutOfDomain):
        PowerConfig(power=0.0)
    with pytest.raises(OutOfDomain, match="^alpha must be in"):
        PowerConfig(alpha="a")


@pytest.mark.parametrize("args, message", [
    ((0.5, 0.1, True), "n must be an integer, got True"),
    ((0.5, 0.1, 2.5), "n must be an integer, got 2.5"),
    ((0.5, 0.1, "x"), "n must be an integer, got 'x'"),
    (("a", 0.1, 10), "mu_hat must be a number, got 'a'"),
    ((True, 0.1, 10), "mu_hat must be a number, got True"),
    ((0.5, None, 10), "sigma_hat must be a number, got None"),
    ((10 ** 400, 0.1, 10), f"mu_hat is out of range, got {10 ** 400}"),
])
def test_mde_takes_numbers_and_an_integer_n(args, message):
    # never a bool, a str or a float as n, and never converted
    with pytest.raises(OutOfDomain) as exc:
        mde(*args)
    assert str(exc.value) == message
