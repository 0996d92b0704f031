"""Calibration roots of the renewal densities behind the sharp lambda^4
growth constants.

Continuous case: g(t) = b e^{-pi mu^2 b^2 t} (1 - e^{-2 n^2 pi^2 t}) / sqrt(t)
with b = lambda^2 J0^2 / sqrt(32 pi) has mass 1/mu - b / sqrt(mu^2 b^2 + c)
= 1 - h(mu), c = 2 n^2 pi, in closed form by int_0^inf e^{-a t} t^{-1/2} dt
= sqrt(pi / a); h(mu) = b / sqrt(mu^2 b^2 + c) - (1/mu - 1).

Discrete case: g~(r) = b~ e^{-pi mu^2 b~^2 r tau} (1 - e^{-4 n^2 pi^2 r tau})
tau / sqrt(r tau) with b~ = lambda^2 J0^2 / (8 sqrt(pi)) has mass one iff
h~(mu) = sqrt(tau) (S(a1) - S(a1 + 4 n^2 pi^2 tau)) - 1/b~ vanishes, where
a1 = pi mu^2 b~^2 tau and S(a) = sum_{r>=1} e^{-a r} / sqrt(r) = Li_{1/2}(e^{-a}).

S is evaluated in float through two dual series that cross over at a = 1:
- for a < 1, the expansion about a = 0 (DLMF 25.12.12),
  S(a) = sqrt(pi / a) + sum_{k>=0} zeta(1/2 - k) (-a)^k / k!, which
  converges for a < 2 pi.  It is truncated after 40 terms; since
  |zeta(1/2 - k)| / k! ~ 2 / (sqrt(k) (2 pi)^{k+1/2}), the neglected tail is
  below 1e-31 relative at a = 1 and smaller below it;
- for a >= 1, the direct sum over r <= R = ceil(40 / a), whose tail
  e^{-a(R+1)} / (sqrt(R+1) (1 - e^{-a})) is below 2 e^{-40} S(a), about
  1e-17 relative.
The tests pin both branches against mpmath's polylogarithm and against a
truncated summation with a certified geometric tail bound.

Both mass functions are strictly monotone in mu, so the sign change at the
bracket ends that Brent's method (`_brentq`, scipy's brentq.c ported line
for line: the same floats) checks means exactly one root.  For any b, c > 0,
h'(mu) = 1/mu^2 - b^3 mu / (mu^2 b^2 + c)^{3/2} > 0 because (mu^2 b^2 +
c)^{3/2} > mu^3 b^3.  S''(a) = sum_r r^{3/2} e^{-a r} > 0, so S' increases
and S(a1) - S(a1 + 4 n^2 pi^2 tau) falls strictly as a1 grows; a1 grows
strictly with mu, so h~ falls strictly.  The tests scan both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

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


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of f on [xa, xb] by Brent's method with rtol = 4 eps: scipy's
    brentq.c step for step.  Raises ValueError when f(xa) and f(xb) share a
    sign and RuntimeError after scipy's default 100 iterations, as it does."""
    rtol = 4.0 * math.ulp(1.0)
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                short = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
            except ZeroDivisionError:  # C's step is then inf or nan: not short
                pass
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is {xcur}")


def _check_inputs(where: str, inputs) -> None:
    """Refuse an input (name, value, power) <= 0, one of power 2 or 4 whose
    square is 0 or inf, or one of power 4 whose fourth power is inf: b, b~
    and the sharp gate take these powers."""
    for name, value, power in inputs:
        if not value > 0:
            raise ValueError(f"{where}: {name} must be > 0, got {value!r}")
        square = float(value) * float(value)
        if power > 1 and not 0.0 < square < math.inf:
            raise ValueError(f"{where}: {name} = {value!r} has the square {square!r}")
        if power > 2 and not square * square < math.inf:
            raise ValueError(f"{where}: {name} = {value!r} has the fourth power inf")


def continuous_mu(lam: float, j0: float, n: int, zeta: float | None = None) -> RenewalRoot:
    """Root of the continuous mass equation on (0, 1), mass error |h(mu)|.

    The lower bound mu >= 8 pi zeta / (J0^2 + 8 pi zeta) is checked with the
    supplied zeta > 0, defaulting to the largest admissible one, n / lambda^2.
    """
    _check_inputs("continuous_mu", [("lambda", lam, 2), ("j0", j0, 2), ("n", n, 2)]
                  + ([] if zeta is None else [("zeta", zeta, 1)]))
    b = lam ** 2 * j0 ** 2 / math.sqrt(32.0 * math.pi)
    c = 2.0 * n * n * math.pi

    def h(mu: float) -> float:  # strictly increasing on (0, 1)
        return b / math.sqrt(mu * mu * b * b + c) - (1.0 / mu - 1.0)

    lo = 1e-12
    while h(lo) >= 0.0:
        lo /= 2.0
    mu = _brentq(h, lo, 1.0 - 1e-12, xtol=1e-13)
    zeta_used = n / lam ** 2 if zeta is None else zeta
    bound = 8.0 * math.pi * zeta_used / (j0 ** 2 + 8.0 * math.pi * zeta_used)
    return RenewalRoot(mu=mu, b_or_btilde=b, mass_error=abs(h(mu)),
                       lower_bound_ok=mu >= bound - 1e-12,
                       implied_rate=math.pi * mu * mu * b * b, kind="continuous")


def _small_a_coefficients(terms: int) -> np.ndarray:
    """zeta(1/2 - k) (-1)^k / k! for k < terms: S(a) - sqrt(pi / a) in powers of a."""
    k = np.arange(terms)
    return special.zeta(0.5 - k) * (-1.0) ** k / special.factorial(k)


_SERIES_TERMS = 40
_SMALL_A_COEFF = _small_a_coefficients(_SERIES_TERMS)


def sqrt_exp_series(a: float) -> float:
    """S(a) = sum_{r>=1} e^{-a r} / sqrt(r) = Li_{1/2}(e^{-a}), in float to
    a few ulp (module docstring: both branches and their truncation)."""
    if not a > 0.0:
        raise ValueError("series needs a > 0")
    if a < 1.0:
        return math.sqrt(math.pi / a) + float(np.polynomial.polynomial.polyval(a, _SMALL_A_COEFF))
    r = np.arange(1.0, math.ceil(_SERIES_TERMS / a) + 1.0)
    return float(np.sum(np.exp(-a * r) / np.sqrt(r)))


def discrete_mu(lam: float, j0: float, n: int, tau: float, zeta: float) -> RenewalRoot:
    """Root of the discrete mass equation on (eps, 1) with
    eps = 16 pi zeta / (J0^2 + 32 pi zeta); requires lambda, J0, n, tau and
    zeta > 0 and the sharp-regime gate.

    The mass of g~ is b~ (h~(mu) + 1/b~), so its error at the root is
    |b~ h~(mu)|."""
    _check_inputs("discrete_mu", [("lambda", lam, 2), ("j0", j0, 4), ("n", n, 2),
                                  ("tau", tau, 1), ("zeta", zeta, 2)])
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
    mu = _brentq(h, eps, 1.0, xtol=1e-13)
    rate = math.pi * mu * mu * btilde * btilde
    return RenewalRoot(mu=mu, b_or_btilde=btilde, mass_error=abs(h(mu)) * btilde,
                       lower_bound_ok=mu >= eps - 1e-12, implied_rate=rate,
                       kind="discrete")
