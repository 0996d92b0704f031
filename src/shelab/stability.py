"""Step-size admissibility regimes, contraction margins, and the times
after which the discrete Green functions are uniformly >= 1/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (AmplificationFactors, full_green_grid, semi_green_grid,
                      spectral_basis)
from .model import ModelSpec

__all__ = [
    "StabilityReport",
    "PositivityTime",
    "check_stability",
    "positivity_time_semi",
    "positivity_time_full",
    "check_sharp_regime",
    "sharp_gate",
]

REGIME_EXPLICIT = "explicit-like"       # theta < 1/2, coupled n^2 tau bound
REGIME_CRANK_NICOLSON = "crank-nicolson"  # theta = 1/2
REGIME_IMPLICIT = "implicit-like"       # theta > 1/2, unconditional


@dataclass(frozen=True)
class StabilityReport:
    regime: str
    satisfied: bool
    epsilon: float        # two-sided margin: max_j |r1 r2| = 1 - epsilon
    regime_epsilon: float  # regime-formula margin for the -1 side
    binding_mode: int

    def __bool__(self) -> bool:
        return self.satisfied


@dataclass(frozen=True)
class PositivityTime:
    t_star: float
    certified_on: int   # number of certificate samples past t_star
    sufficient_time: float


def check_stability(n: int, tau: float, theta: float) -> StabilityReport:
    """Classify (n, tau, theta) into the three step-size regimes.

    theta > 1/2 is unconditional with the explicit margin
    min{(2 theta - 1)/(2 theta), 1/2}; theta = 1/2 is admissible for every
    n^2 tau; theta < 1/2 needs r = n^2 tau < 1/(2 - 4 theta).  The reported
    `epsilon` is always tightened to the exact two-sided contraction margin
    of the mode factors.
    """
    if n < 3 or not (0.0 < tau < 1.0) or not (0.0 <= theta <= 1.0):
        raise ValueError(f"check_stability needs n>=3, 0<tau<1, theta in [0,1]; "
                         f"got n={n}, tau={tau}, theta={theta}")
    coupling = n * n * tau
    if theta > 0.5:
        regime = REGIME_IMPLICIT
        satisfied = True
        regime_eps = min((2.0 * theta - 1.0) / (2.0 * theta), 0.5)
    elif theta == 0.5:
        regime = REGIME_CRANK_NICOLSON
        satisfied = True
        regime_eps = min(1.0 / (coupling + 0.5), 0.5)
    else:
        regime = REGIME_EXPLICIT
        satisfied = coupling < 1.0 / (2.0 - 4.0 * theta)
        regime_eps = 2.0 - 4.0 * coupling / (1.0 + 4.0 * theta * coupling) if satisfied else 0.0
    factors = AmplificationFactors(spectral_basis(n), tau, theta)
    eps_tight, binding = factors.contraction_margin()
    if not satisfied:
        eps_tight = min(eps_tight, 0.0)
    return StabilityReport(regime=regime, satisfied=satisfied, epsilon=eps_tight,
                           regime_epsilon=regime_eps, binding_mode=binding)


def _certify_suffix(grid_min, times, threshold=0.5):
    """Smallest sampled time from which all later samples stay >= threshold.
    Returns (index, count of certifying samples) or (None, 0)."""
    ok = np.asarray(grid_min) >= threshold
    suffix_ok = np.flip(np.logical_and.accumulate(np.flip(ok)))
    idx = np.argmax(suffix_ok) if suffix_ok.any() else None
    if idx is None or not suffix_ok[idx]:
        return None, 0
    return int(idx), int(len(times) - idx)


def positivity_time_semi(n: int) -> PositivityTime:
    """Certified time t(n) with min over grid pairs of G^n(t, q/n, l/n) >= 1/2.

    The sufficient proof bound (n-1) e^{lam_1 t} <= 1/2 seeds the search;
    the reported time is the smaller one certified by a suffix of direct
    grid minima on a dense sample grid up to the sufficient time (beyond
    which the analytic envelope takes over).
    """
    basis = spectral_basis(n)
    lam1 = basis.eigenvalues[1]
    t_suff = math.log(2.0 * (n - 1)) / (-lam1)
    times = np.linspace(t_suff / 400, t_suff * 1.001, 400)
    mins = np.array([semi_green_grid(t, basis).min() for t in times])
    idx, count = _certify_suffix(mins, times)
    if idx is None:
        return PositivityTime(t_star=t_suff, certified_on=0, sufficient_time=t_suff)
    return PositivityTime(t_star=float(times[idx]), certified_on=count,
                          sufficient_time=t_suff)


def positivity_time_full(n: int, tau: float, theta: float) -> PositivityTime:
    """Certified time t(n,tau) = m* tau with G1 >= 1/2 at grid points.

    Seeds with the geometric proof bound 2 [n/2] (1-eps')^m <= 1/2 where
    eps' = min{eps, 1 - r1_1 r2_1}, then shrinks m* over the certificate
    suffix of direct grid minima.
    """
    report = check_stability(n, tau, theta)
    if not report.satisfied:
        raise ValueError("positivity time undefined: stability regime violated")
    basis = spectral_basis(n)
    factors = AmplificationFactors(basis, tau, theta)
    eps_prime = min(report.regime_epsilon, 1.0 - factors.r12[1])
    if eps_prime <= 0.0:
        raise ValueError("degenerate contraction margin; tau too small to resolve")
    half = n // 2
    target = 0.5 / (2.0 * half)
    m_suff = max(1, int(math.ceil(math.log(target) / math.log(1.0 - eps_prime))))
    mins = np.array([full_green_grid(m * tau, "G1", factors).min()
                     for m in range(1, m_suff + 2)])
    idx, count = _certify_suffix(mins, np.arange(1, m_suff + 2))
    if idx is None:
        return PositivityTime(t_star=m_suff * tau, certified_on=0,
                              sufficient_time=m_suff * tau)
    return PositivityTime(t_star=(idx + 1) * tau, certified_on=count,
                          sufficient_time=m_suff * tau)


def sharp_gate(n: int, tau: float, j0: float, lam: float, zeta: float) -> tuple[float, list]:
    """Gate for the sharp lambda^4 growth order of the fully discrete scheme:
    J0^4 n^2 tau / (16 pi zeta^2) + 16 pi n^2 tau < 1 and n >= zeta lambda^2.
    Returns the step-size sum, which is linear in tau, and the violated
    conditions (empty when the gate holds)."""
    gate = n * n * tau * (j0 ** 4 / (16.0 * math.pi * zeta ** 2) + 16.0 * math.pi)
    violations = []
    if not gate < 1.0:
        violations.append("step-size gate fails: J0^4 n^2 tau/(16 pi zeta^2) + "
                          f"16 pi n^2 tau = {gate:.4g} >= 1")
    if n < zeta * lam ** 2:
        violations.append(f"n = {n} below zeta*lambda^2 = {zeta * lam ** 2:.4g}")
    return gate, violations


def check_sharp_regime(n: int, tau: float, model: ModelSpec, zeta: float) -> bool:
    """Whether (n, tau) passes :func:`sharp_gate` for this model."""
    return not sharp_gate(n, tau, model.sigma.lower_ratio, model.lam, zeta)[1]
