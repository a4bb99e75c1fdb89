"""Metric sensitivity: minimum detectable effect and required sample size.

MDE = (z_{1-alpha/2} + z_power) * sqrt(2 * sigma^2 / n) / mu, returned as a
relative lift fraction (0.02 means a 2% lift is detectable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import check_alpha, check_instance, check_integer, check_number
from .errors import NonPositiveMean, OutOfDomain

# largest n up to which every integer is a distinct float
_EXACT_N = 2 ** 53


@dataclass(frozen=True)
class PowerConfig:
    """Significance level and statistical power (standard defaults)."""

    alpha: float = 0.05
    power: float = 0.8

    def __post_init__(self):
        check_alpha(self.alpha)
        if not 0.0 < check_number(self.power, "power", OutOfDomain) < 1.0:
            raise OutOfDomain(f"power must be in (0, 1), got {self.power}")


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc (accurate in both tails)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (the standard library's AS241)."""
    if not 0.0 < check_number(p, "quantile argument", OutOfDomain) < 1.0:
        raise OutOfDomain(f"quantile argument must be in (0, 1), got {p}")
    # imported on first use: statistics loads fractions and decimal too
    from statistics import NormalDist
    return NormalDist().inv_cdf(p)


def _check_finite(**values: float) -> None:
    # each value a number, never a bool, within the float range and finite
    for name, value in values.items():
        if not math.isfinite(check_number(value, name, OutOfDomain)):
            raise OutOfDomain(f"{name} must be finite, got {value}")


def mde(mu_hat: float, sigma_hat: float, n: int, cfg: PowerConfig = PowerConfig()) -> float:
    """Smallest relative lift detectable at the configured alpha and power."""
    check_instance(cfg, PowerConfig, "cfg")
    _check_finite(mu_hat=mu_hat, sigma_hat=sigma_hat)
    if mu_hat <= 0:
        raise NonPositiveMean(f"mu_hat must be > 0, got {mu_hat}")
    if sigma_hat < 0:
        raise OutOfDomain(f"sigma_hat must be >= 0, got {sigma_hat}")
    if check_integer(n, "n", OutOfDomain) < 1:
        raise OutOfDomain(f"n must be >= 1, got {n}")
    z = normal_quantile(1.0 - cfg.alpha / 2.0) + normal_quantile(cfg.power)
    try:
        value = z * math.sqrt(2.0 * sigma_hat * sigma_hat / n) / mu_hat
    except OverflowError as err:  # n beyond the float range
        raise OutOfDomain(f"n is too large, got {n}") from err
    _check_finite(mde=value)
    return value


def required_n(mu_hat: float, sigma_hat: float, target_mde: float,
               cfg: PowerConfig = PowerConfig()) -> int:
    """Smallest integer n whose MDE is at or below ``target_mde``.

    Ceil of the closed-form inverse, then adjusted by direct evaluation so
    the result is exact despite rounding in the closed form.
    """
    check_instance(cfg, PowerConfig, "cfg")
    _check_finite(mu_hat=mu_hat, sigma_hat=sigma_hat, target_mde=target_mde)
    if mu_hat <= 0:
        raise NonPositiveMean(f"mu_hat must be > 0, got {mu_hat}")
    if sigma_hat <= 0 or target_mde <= 0:
        raise OutOfDomain("sigma_hat and target_mde must be > 0")
    z = normal_quantile(1.0 - cfg.alpha / 2.0) + normal_quantile(cfg.power)
    try:
        n = max(1, math.ceil(2.0 * (sigma_hat * z / (mu_hat * target_mde)) ** 2))
    except (OverflowError, ZeroDivisionError) as err:
        raise OutOfDomain(f"required n is beyond the float range for target_mde={target_mde}, "
                          f"mu_hat={mu_hat}, sigma_hat={sigma_hat}") from err
    # above 2**53 neighbouring n are one float and the steps would never end
    if n > _EXACT_N:
        return n
    while n > 1 and mde(mu_hat, sigma_hat, n - 1, cfg) <= target_mde:
        n -= 1
    while mde(mu_hat, sigma_hat, n, cfg) > target_mde:
        n += 1
    return n
