"""The times after which the discrete Green functions are uniformly >= 1/2,
and the step-size gate of the sharp lambda^4 growth order.
"""
from __future__ import annotations

import math

import numpy as np

from .kernels import (AmplificationFactors, full_green_grid, semi_green_grid,
                      spectral_basis)
from .model import GridSpec, SchemeSpec, validate_run_config

__all__ = [
    "positivity_time_semi",
    "positivity_time_full",
    "sharp_gate",
]

# Entries of one window of kernel grid values (steps x n) in
# positivity_time_full: at most 1 MiB of float64 at a time.
GRID_BUDGET = 2 ** 17


def _after_last_failure(times, grid_min):
    """The sample after the last one whose grid minimum is below 1/2, or
    the first sample when none is; times may hold one sample more."""
    bad = np.flatnonzero(grid_min < 0.5)
    return float(times[bad[-1] + 1]) if bad.size else float(times[0])


def positivity_time_semi(n: int) -> float:
    """Certified time t(n) with min over grid pairs of G^n(t, q/n, l/n) >= 1/2:
    of 400 samples up to just past the proof bound (n-1) e^{lam_1 t} <= 1/2,
    past which the analytic envelope holds, the first after which every
    sampled grid minimum stays >= 1/2."""
    basis = spectral_basis(n)
    t_suff = math.log(2.0 * (n - 1)) / (-basis.eigenvalues[1])
    times = np.linspace(t_suff / 400, t_suff * 1.001, 400)
    return _after_last_failure(times, semi_green_grid(times, basis).min(axis=1))


def _tail_steps(b: np.ndarray) -> int:
    """Smallest m >= 1 with sum(b ** m) <= 1/2, for 0 <= b < 1: doubling,
    then integer bisection on the strictly decreasing sum."""
    lo, hi = 0, 1  # S(lo) > 1/2 (or lo = 0) and S(hi) <= 1/2
    while np.sum(b ** hi) > 0.5:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if np.sum(b ** mid) <= 0.5 else (mid, hi)
    return hi


def positivity_time_full(n: int, tau: float, theta: float) -> float:
    """Certified time t(n,tau) = m* tau with G1 >= 1/2 at grid points.

    G1 = sum_j (r1_j r2_j)^m cos(2 pi j d / n) >= 1 - S(m), and the exact
    tail S(m) = sum_{j != 0} |r1_j r2_j|^m decreases strictly, so every step
    from the smallest m_tail with S(m_tail) <= 1/2 on is certified.  Grid
    minima are scanned back from m_tail in windows (one step, doubling up
    to GRID_BUDGET values) to the last step below 1/2; m* is the step after
    it, or 1 when no step fails."""
    validate_run_config(GridSpec(n), SchemeSpec(tau=tau, theta=theta),
                        "positivity time undefined")
    factors = AmplificationFactors(spectral_basis(n), tau, theta)
    b = np.abs(factors.r12[1:])
    if b.max() >= 1.0:
        raise ValueError("degenerate contraction margin; tau too small to resolve")
    hi, width, cap = _tail_steps(b), 1, max(1, GRID_BUDGET // n)
    while hi >= 1:
        steps = np.arange(max(1, hi - width + 1), hi + 2)  # step hi + 1 is certified
        mins = full_green_grid(steps[:-1] * tau, "G1", factors).min(axis=1)
        if mins.min() < 0.5:
            return _after_last_failure(steps * tau, mins)
        hi, width = int(steps[0]) - 1, min(2 * width, cap)
    return tau


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
