"""The times after which the discrete Green functions are uniformly >= 1/2,
and the step-size gate of the sharp lambda^4 growth order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (AmplificationFactors, full_green_grid, semi_green_grid,
                      spectral_basis)
from .model import GridSpec, SchemeSpec, validate_run_config

__all__ = [
    "PositivityTime",
    "positivity_time_semi",
    "positivity_time_full",
    "sharp_gate",
]

# Entries of one block of kernel grid values (steps x n) in
# positivity_time_full: 1 MiB of float64 at a time.
GRID_BUDGET = 2 ** 17


@dataclass(frozen=True)
class PositivityTime:
    t_star: float
    certified_on: int   # number of certificate samples past t_star
    sufficient_time: float


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
    mins = semi_green_grid(times, basis).min(axis=1)
    idx, count = _certify_suffix(mins, times)
    if idx is None:
        return PositivityTime(t_star=t_suff, certified_on=0, sufficient_time=t_suff)
    return PositivityTime(t_star=float(times[idx]), certified_on=count,
                          sufficient_time=t_suff)


def positivity_time_full(n: int, tau: float, theta: float) -> PositivityTime:
    """Certified time t(n,tau) = m* tau with G1 >= 1/2 at grid points.

    Seeds with the geometric proof bound 2 [n/2] (1-eps)^m <= 1/2, where
    1 - eps = max_j |r1_j r2_j| is the exact two-sided contraction margin,
    then shrinks m* over the certificate suffix of direct grid minima,
    evaluated in blocks of steps of at most GRID_BUDGET grid values.
    """
    validate_run_config(GridSpec(n), SchemeSpec(tau=tau, theta=theta),
                        "positivity time undefined")
    factors = AmplificationFactors(spectral_basis(n), tau, theta)
    eps = factors.contraction_margin()[0]
    if eps <= 0.0:
        raise ValueError("degenerate contraction margin; tau too small to resolve")
    half = n // 2
    target = 0.5 / (2.0 * half)
    rate = 1.0 - eps  # 0 when every nonconstant mode dies in one step (n = 3)
    m_suff = max(1, math.ceil(math.log(target) / math.log(rate))) if rate > 0.0 else 1
    steps = np.arange(1, m_suff + 2)
    block = max(1, GRID_BUDGET // n)
    mins = np.concatenate([full_green_grid(steps[k:k + block] * tau, "G1", factors).min(axis=1)
                           for k in range(0, len(steps), block)])
    idx, count = _certify_suffix(mins, steps)
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
