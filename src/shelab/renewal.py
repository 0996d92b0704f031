"""Calibration roots of the renewal densities behind the sharp lambda^4
growth constants.

Continuous case: g(t) = b e^{-pi mu^2 b^2 t} (1 - e^{-2 n^2 pi^2 t}) / sqrt(t)
with b = lambda^2 J0^2 / sqrt(32 pi) integrates to one iff
h(mu) = b / sqrt(mu^2 b^2 + c) - (1/mu - 1) vanishes, c = 2 n^2 pi.

Discrete case: g~(r) = b~ e^{-pi mu^2 b~^2 r tau} (1 - e^{-4 n^2 pi^2 r tau})
tau / sqrt(r tau) with b~ = lambda^2 J0^2 / (8 sqrt(pi)) has mass one iff
h~(mu) = sqrt(tau) (S(a1) - S(a1 + 4 n^2 pi^2 tau)) - 1/b~ vanishes, where
a1 = pi mu^2 b~^2 tau and S(a) = sum_{r>=1} e^{-a r} / sqrt(r) = Li_{1/2}(e^{-a})
is evaluated exactly through mpmath's polylogarithm (the tests cross-check it
against a truncated summation with a certified geometric tail bound).

Both mass functions are strictly monotone in mu, so the sign change at the
bracket ends that Brent's method checks means exactly one root.  For any
b, c > 0, h'(mu) = 1/mu^2 - b^3 mu / (mu^2 b^2 + c)^{3/2} > 0 because
(mu^2 b^2 + c)^{3/2} > mu^3 b^3.  S''(a) = sum_r r^{3/2} e^{-a r} > 0, so S'
increases and S(a1) - S(a1 + 4 n^2 pi^2 tau) falls strictly as a1 grows;
a1 grows strictly with mu, so h~ falls strictly.  The tests scan both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from scipy import integrate
from scipy.optimize import brentq

from .stability import sharp_gate

__all__ = ["RenewalRoot", "GateViolation", "continuous_mu", "discrete_mu", "sqrt_exp_series"]


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


def _limit_root(b: float, c: float):
    """Root on (0, 1) of the strictly increasing h(mu) = b / sqrt(mu^2 b^2 + c)
    - (1/mu - 1); returns (mu, h)."""
    def h(mu: float) -> float:
        return b / math.sqrt(mu * mu * b * b + c) - (1.0 / mu - 1.0)

    lo = 1e-12
    while h(lo) >= 0.0:
        lo /= 2.0
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
    mu, _ = _limit_root(b, two_n2_pi)
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
    eps = 16 pi zeta / (J0^2 + 32 pi zeta); requires the sharp-regime gate.

    The mass of g~ is b~ (h~(mu) + 1/b~), so its error at the root is
    |b~ h~(mu)|."""
    violations = sharp_gate(n, tau, j0, lam, zeta)[1]
    if violations:
        raise GateViolation("; ".join(violations))
    btilde = lam ** 2 * j0 ** 2 / (8.0 * math.sqrt(math.pi))
    four_n2_pi2 = 4.0 * n * n * math.pi ** 2

    def h(mu: float) -> float:
        a1 = math.pi * mu * mu * btilde * btilde * tau
        a2 = a1 + four_n2_pi2 * tau
        return math.sqrt(tau) * (sqrt_exp_series(a1) - sqrt_exp_series(a2)) - 1.0 / btilde

    eps = 16.0 * math.pi * zeta / (j0 ** 2 + 32.0 * math.pi * zeta)
    mu = brentq(h, eps, 1.0, xtol=1e-13)
    rate = math.pi * mu * mu * btilde * btilde
    return RenewalRoot(mu=mu, b_or_btilde=btilde, mass_error=abs(h(mu)) * btilde,
                       lower_bound_ok=mu >= eps - 1e-12, implied_rate=rate,
                       kind="discrete")
