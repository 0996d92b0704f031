"""The times after which the discrete Green functions are uniformly >= 1/2,
and the step-size gate of the sharp lambda^4 growth order.
"""
from __future__ import annotations

import math

import numpy as np

from .kernels import (BLOCK_ENTRIES, AmplificationFactors, full_green_grid, semi_green,
                      semi_green_grid, spectral_basis)
from .model import GridSpec, SchemeSpec, validate_run_config

__all__ = [
    "positivity_time_semi",
    "positivity_time_full",
    "sharp_gate",
]

# Longest exact tail, in steps, that positivity_time_full accepts.  The sweep's
# rule needs 1.2e7 at n = 1800; theta = 0 with n^2 tau just below 1/2 ~3e15.
STEP_BUDGET = 10 ** 10


def _after_last_failure(times, grid_min):
    """The sample after the last one whose grid minimum is below 1/2, or
    the first sample when none is; times may hold one sample more."""
    bad = np.flatnonzero(grid_min < 0.5)
    return float(times[bad[-1] + 1]) if bad.size else float(times[0])


def positivity_time_semi(n: int) -> float:
    """Certified time t(n) with min over grid pairs of G^n(t, q/n, l/n) >= 1/2.

    e^{t Delta_n} is a Markov semigroup, so every grid minimum of G^n is
    nondecreasing in t, (P_{t+s})_{ij} = sum_k (P_s)_{ik} (P_t)_{kj} >=
    min_k (P_t)_{kj}, and t* is the one root of min_d G^n(t, d) = 1/2 on
    (0, t_suff], t_suff the proof bound (n-1) e^{lam_1 t} <= 1/2.  Brent's
    root may sit a hair below the crossing, so t* moves up by the solve's
    tolerance until every grid pair, evaluated by semi_green, reads >= 1/2."""
    from .renewal import _brentq  # renewal imports this module

    basis = spectral_basis(n)
    t_suff = math.log(2.0 * (n - 1)) / -float(basis.eigenvalues[1])
    xtol = 1e-12 * t_suff
    t_star = _brentq(lambda t: float(semi_green_grid(t, basis).min()) - 0.5, 0.0, t_suff, xtol)
    g = np.arange(n) / n
    while min(semi_green(t_star, x, g, basis).min() for x in g) < 0.5:
        t_star += xtol
    return t_star


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


def positivity_time_full(n: int, tau: float, theta: float, stepper: str = "theta") -> float:
    """Certified time t(n,tau) = m* tau with G1 >= 1/2 at grid points, for
    the scheme SchemeSpec(tau, theta, stepper).

    G1 = sum_j (r1_j r2_j)^m cos(2 pi j d / n) >= 1 - S(m), and the exact
    tail S(m) = sum_{j != 0} |r1_j r2_j|^m decreases strictly, so every step
    from the smallest m_tail with S(m_tail) <= 1/2 on is certified.  Grid
    minima are scanned back from m_tail in windows (one step, doubling up
    to BLOCK_ENTRIES values) to the last step below 1/2; m* is the step after
    it, or 1 when no step fails.  A step that does not contract, or a tail
    longer than STEP_BUDGET steps, raises ValueError."""
    scheme = SchemeSpec(tau=tau, theta=theta, stepper=stepper)
    validate_run_config(GridSpec(n), scheme, "positivity time undefined")
    factors = AmplificationFactors(spectral_basis(n), scheme).require_stable()
    b = np.abs(factors.r12[1:])
    if np.sum(b ** STEP_BUDGET) > 0.5:
        raise ValueError("positivity time undefined: the exact tail needs more than "
                         f"STEP_BUDGET = {STEP_BUDGET:.0e} steps")
    hi, width, cap = _tail_steps(b), 1, max(1, BLOCK_ENTRIES // n)
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
