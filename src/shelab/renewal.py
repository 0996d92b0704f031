"""Calibration roots of the renewal densities behind the sharp lambda^4
growth constants.

Continuous case: g(t) = b e^{-pi mu^2 b^2 t} (1 - e^{-2 n^2 pi^2 t}) / sqrt(t)
with b = lambda^2 J0^2 / sqrt(32 pi) integrates to one iff
h(mu) = b / sqrt(mu^2 b^2 + 2 n^2 pi) - (1/mu - 1) vanishes.

Discrete case: g~(r) = b~ e^{-pi mu^2 b~^2 r tau} (1 - e^{-4 n^2 pi^2 r tau})
tau / sqrt(r tau) with b~ = lambda^2 J0^2 / (8 sqrt(pi)); the mass condition
uses the series S(a) = sum_{r>=1} e^{-a r} / sqrt(r) = Li_{1/2}(e^{-a}),
evaluated exactly through mpmath's polylogarithm (the tests cross-check it
against a truncated summation with a certified geometric tail bound).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import integrate
from scipy.optimize import brentq

__all__ = [
    "RenewalRoot",
    "GateViolation",
    "continuous_mu",
    "discrete_mu",
    "sqrt_exp_series",
]


class GateViolation(ValueError):
    """The coupled step-size gate of the sharp-order regime fails."""


@dataclass(frozen=True)
class RenewalRoot:
    mu: float
    b_or_btilde: float
    mass_error: float
    lower_bound_ok: bool
    implied_rate: float   # pi mu^2 b^2: exponential growth constant
    kind: str             # "continuous" | "discrete"


def _check_monotone(fn, lo: float, hi: float, samples: int = 64) -> bool:
    xs = np.linspace(lo, hi, samples)
    ys = np.array([fn(x) for x in xs])
    d = np.diff(ys)
    return bool(np.all(d >= 0.0) or np.all(d <= 0.0))


def _limit_root(b: float, c: float, check_monotone: bool = False):
    """Root on (0, 1) of h(mu) = b / sqrt(mu^2 b^2 + c) - (1/mu - 1); returns
    (mu, h)."""
    def h(mu: float) -> float:
        return b / math.sqrt(mu * mu * b * b + c) - (1.0 / mu - 1.0)

    lo = 1e-12
    while h(lo) >= 0.0:
        lo /= 2.0
    if check_monotone:
        assert _check_monotone(h, max(lo, 1e-6), 1.0 - 1e-12), "h not monotone on bracket"
    return brentq(h, lo, 1.0 - 1e-12, xtol=1e-13), h


def continuous_mu(lam: float, j0: float, n: int, zeta: float | None = None) -> RenewalRoot:
    """Root of the continuous mass equation on (0, 1).

    The lower bound mu >= 8 pi zeta / (J0^2 + 8 pi zeta) is checked with the
    supplied zeta, defaulting to the largest admissible one, n / lambda^2.
    """
    if not (lam > 0.0 and j0 > 0.0 and n > 0):
        raise ValueError("continuous_mu needs lambda, J0, n > 0")
    b = lam ** 2 * j0 ** 2 / math.sqrt(32.0 * math.pi)
    two_n2_pi = 2.0 * n * n * math.pi
    mu, _ = _limit_root(b, two_n2_pi, check_monotone=True)
    rate = math.pi * mu * mu * b * b

    def g(s: float) -> float:  # t = s^2 kills the 1/sqrt(t) endpoint
        t = s * s
        return 2.0 * s * b * math.exp(-rate * t) * (-math.expm1(-two_n2_pi * math.pi * t)) / math.sqrt(t)

    upper = math.sqrt(60.0 / rate)
    mass, quad_err = integrate.quad(g, 0.0, upper, limit=400)
    tail = b / rate * math.exp(-rate * upper ** 2) / upper  # int_T^inf b e^{-rate t}/sqrt(t) dt bound
    mass_error = abs(mass - 1.0) + abs(quad_err) + tail
    zeta_used = n / lam ** 2 if zeta is None else zeta
    bound = 8.0 * math.pi * zeta_used / (j0 ** 2 + 8.0 * math.pi * zeta_used)
    return RenewalRoot(mu=mu, b_or_btilde=b, mass_error=mass_error,
                       lower_bound_ok=mu >= bound - 1e-12, implied_rate=rate,
                       kind="continuous")


def sqrt_exp_series(a: float) -> float:
    """S(a) = sum_{r>=1} e^{-a r} / sqrt(r) = Li_{1/2}(e^{-a}), exact."""
    if not a > 0.0:
        raise ValueError("series needs a > 0")
    with mpmath.workdps(30):
        return float(mpmath.polylog(mpmath.mpf("0.5"), mpmath.e ** (-mpmath.mpf(a))))


def discrete_mu_tau_limit(lam: float, j0: float, n: int, zeta: float) -> RenewalRoot:
    """tau -> 0 limit of the discrete mass equation: the root of
    b~ / sqrt(mu^2 b~^2 + 4 n^2 pi) - (1/mu - 1).

    This is the "continuous" target the discrete roots converge to as the
    time step is refined; it differs from the continuous-case root because
    the discrete density is built from a coarser kernel lower bound
    (b~ = lambda^2 J0^2 / (8 sqrt(pi)) and 4 n^2 pi instead of
    b = lambda^2 J0^2 / sqrt(32 pi) and 2 n^2 pi).
    """
    if not (lam > 0.0 and j0 > 0.0 and n > 0):
        raise ValueError("needs lambda, J0, n > 0")
    btilde = lam ** 2 * j0 ** 2 / (8.0 * math.sqrt(math.pi))
    mu, h0 = _limit_root(btilde, 4.0 * n * n * math.pi)
    eps = 16.0 * math.pi * zeta / (j0 ** 2 + 32.0 * math.pi * zeta)
    rate = math.pi * mu * mu * btilde * btilde
    return RenewalRoot(mu=mu, b_or_btilde=btilde, mass_error=abs(h0(mu)) * btilde,
                       lower_bound_ok=mu >= eps - 1e-12, implied_rate=rate,
                       kind="discrete-limit")


def discrete_mu(lam: float, j0: float, n: int, tau: float, zeta: float) -> RenewalRoot:
    """Root of the discrete mass equation on (eps, 1) with
    eps = 16 pi zeta / (J0^2 + 32 pi zeta); requires the sharp-regime gate."""
    gate = j0 ** 4 * n * n * tau / (16.0 * math.pi * zeta ** 2) + 16.0 * math.pi * n * n * tau
    if not gate < 1.0:
        raise GateViolation(
            f"step-size gate fails: J0^4 n^2 tau/(16 pi zeta^2) + 16 pi n^2 tau = {gate:.4g} >= 1")
    if n < zeta * lam ** 2:
        raise GateViolation(f"n = {n} below zeta*lambda^2 = {zeta * lam ** 2:.4g}")
    btilde = lam ** 2 * j0 ** 2 / (8.0 * math.sqrt(math.pi))
    four_n2_pi2 = 4.0 * n * n * math.pi ** 2

    def h(mu: float) -> float:
        a1 = math.pi * mu * mu * btilde * btilde * tau
        a2 = a1 + four_n2_pi2 * tau
        return math.sqrt(tau) * (sqrt_exp_series(a1) - sqrt_exp_series(a2)) - 1.0 / btilde

    eps = 16.0 * math.pi * zeta / (j0 ** 2 + 32.0 * math.pi * zeta)
    assert _check_monotone(h, eps, 1.0), "h~ not monotone on bracket"
    mu = brentq(h, eps, 1.0, xtol=1e-13)

    a1 = math.pi * mu * mu * btilde * btilde * tau
    a2 = a1 + four_n2_pi2 * tau
    mass = btilde * math.sqrt(tau) * (sqrt_exp_series(a1) - sqrt_exp_series(a2))
    rate = math.pi * mu * mu * btilde * btilde
    return RenewalRoot(mu=mu, b_or_btilde=btilde, mass_error=abs(mass - 1.0),
                       lower_bound_ok=mu >= eps - 1e-12, implied_rate=rate,
                       kind="discrete")
