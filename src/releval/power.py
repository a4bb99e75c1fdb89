"""Metric sensitivity: minimum detectable effect and required sample size.

MDE = (z_{1-alpha/2} + z_power) * sqrt(2 * sigma^2 / n) / mu, returned as a
relative lift fraction (0.02 means a 2% lift is detectable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPositiveMean, OutOfDomain

# Acklam's rational approximation to the standard normal quantile
# (|relative error| < 1.15e-9 before refinement).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425
# largest n up to which every integer is a distinct float
_EXACT_N = 2 ** 53


@dataclass(frozen=True)
class PowerConfig:
    """Significance level and statistical power (standard defaults)."""

    alpha: float = 0.05
    power: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise OutOfDomain(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.power < 1.0:
            raise OutOfDomain(f"power must be in (0, 1), got {self.power}")


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc (accurate in both tails)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _acklam(p: float) -> float:
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    if p > 1.0 - _P_LOW:
        return -_acklam(1.0 - p)
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, |error| <= 1e-9 across (1e-12, 1-1e-12).

    Rational approximation refined by one Halley step on the CDF. The upper
    tail goes through the exact reflection q(p) = -q(1 - p) (1 - p is exact
    for p >= 0.5), since the CDF loses precision near 1.
    """
    if not 0.0 < p < 1.0:
        raise OutOfDomain(f"quantile argument must be in (0, 1), got {p}")
    if p > 0.5:
        return -normal_quantile(1.0 - p)
    x = _acklam(p)
    # Halley refinement: e = Phi(x) - p, u = e / phi(x)
    e = normal_cdf(x) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise OutOfDomain(f"{name} must be finite, got {value}")


def mde(mu_hat: float, sigma_hat: float, n: int, cfg: PowerConfig = PowerConfig()) -> float:
    """Smallest relative lift detectable at the configured alpha and power."""
    _check_finite(mu_hat=mu_hat, sigma_hat=sigma_hat)
    if mu_hat <= 0:
        raise NonPositiveMean(f"mu_hat must be > 0, got {mu_hat}")
    if sigma_hat < 0:
        raise OutOfDomain(f"sigma_hat must be >= 0, got {sigma_hat}")
    if n < 1:
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
