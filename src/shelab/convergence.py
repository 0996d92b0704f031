"""Green-function error integrals and coupled-refinement strong error.

The double integrals int_0^inf int_0^1 |G - K|^2 dy dt (K the semi- or
fully discrete kernel) evaluate the y-integral exactly: K is piecewise
constant on grid cells, so each continuous mode integrates against each
discrete mode in closed form and the cross term collapses to an aliasing
series (fixed Gauss nodes would lose the kernel spike once t falls below
the squared node spacing; that per-cell quadrature survives as the
moderate-t oracle in the tests).  The time integral is composite
quadrature with the sqrt substitution t = s^2 absorbing the small-time
scale, plus a certified analytic tail bound beyond the split (never
ignored).  The strong-error study drives every ladder rung with one
shared Brownian sheet via noise coarsening and fits orders against the
finest rung.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import (AmplificationFactors, KernelEvalOptions, SpectralBasis,
                      heat_kernel_square_integral, spectral_basis)
from .model import GridSpec, InitialData, ModelSpec, SchemeSpec
from .moments import ols
from .noise import NoiseSeed, coarsen_array, normals_from_raw
from .solver import StepOperator
from .stability import check_stability

__all__ = [
    "QuadratureSpec",
    "ErrorCurve",
    "green_error_semi",
    "green_error_semi_pointwise",
    "green_error_full",
    "initial_data_error_full",
    "strong_error_study",
]

_KOPTS = KernelEvalOptions()


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite quadrature controls; `refined()` halves every step for the
    self-consistency check (reported integrals must move by < 1%)."""

    t_gauss: int = 8
    fine_panels: int = 20
    coarse_panels: int = 40
    t_split: float = 1.0
    resolve_cap: int = 4096

    def refined(self) -> "QuadratureSpec":
        return replace(self, t_gauss=2 * self.t_gauss, fine_panels=2 * self.fine_panels,
                       coarse_panels=2 * self.coarse_panels)


@dataclass
class ErrorCurve:
    resolutions: list
    errors: np.ndarray
    fitted_order: float
    ci: float
    mode: str = ""
    fit_mask: np.ndarray | None = None


def _gauss(points: int):
    x, w = np.polynomial.legendre.leggauss(points)
    return 0.5 * (x + 1.0), 0.5 * w  # mapped to [0,1]


def _mode_profile(basis: SpectralBasis, x: float) -> np.ndarray:
    j = np.arange(basis.n)
    return basis.phi_c_interp(j, x) + 1j * basis.phi_s_interp(j, x)


def _cross_term(t: float, x: float, basis: SpectralBasis, coeff: np.ndarray,
                en_profile: np.ndarray) -> float:
    """int_0^1 G(t,x,y) K(t,x,y) dy, exact: the cell-wise integral of each
    continuous mode against the piecewise-constant discrete mode collapses
    to a single aliasing sum over r = -j (mod n)."""
    n = basis.n
    r_max = int(math.ceil(math.sqrt(42.0 / (4.0 * math.pi ** 2 * t)))) + n
    r = np.arange(1.0, r_max + 1.0)
    jr = (-r.astype(int)) % n
    chat = n * (1.0 - np.exp(-2j * np.pi * r / n)) / (2j * np.pi * r)
    z = (np.exp(-4.0 * math.pi ** 2 * r * r * t) * coeff[jr]
         * np.exp(2j * np.pi * r * x) * en_profile[jr] * chat)
    return 1.0 + 2.0 * float(np.real(z).sum())


def _sq_diff_y_exact(t: float, x: float, basis: SpectralBasis, coeff: np.ndarray,
                     en_profile: np.ndarray) -> float:
    """Exact int_0^1 (G - K)^2 dy = G(2t,x,x) + sum coeff^2 |e^n|^2 - 2 cross."""
    gsq = heat_kernel_square_integral(t, _KOPTS)
    ksq = float(np.dot(coeff * coeff, np.abs(en_profile) ** 2))
    cross = _cross_term(t, x, basis, coeff, en_profile)
    return max(gsq + ksq - 2.0 * cross, 0.0)


def _tail_bound_semi(n: int, t1: float) -> float:
    """Certified bound on int_{t1}^inf int_0^1 (G - G^n)^2 dy dt via the
    sup-norm envelopes |G - 1| <= A e^{-a t}, |G^n - 1| <= B e^{-b t}."""
    a, b = 4.0 * math.pi ** 2, 16.0
    A = 2.0 / (1.0 - math.exp(-3.0 * a * t1))
    B = 2.0 / (1.0 - math.exp(-3.0 * b * t1))
    return (A * A * math.exp(-2 * a * t1) / (2 * a)
            + 2 * A * B * math.exp(-(a + b) * t1) / (a + b)
            + B * B * math.exp(-2 * b * t1) / (2 * b))


def _tail_bound_full(factors: AmplificationFactors, t1: float) -> float:
    """Certified bound for the fully discrete kernel: the G2 envelope is a
    geometric staircase sum_j |r1 r2|^{[t/tau]} r1_j."""
    a = 4.0 * math.pi ** 2
    A = 2.0 / (1.0 - math.exp(-3.0 * a * t1))
    rho = float(np.max(np.abs(factors.r12[1:])))
    s1 = float(np.sum(factors.r1[1:]))
    i1 = int(math.floor(t1 / factors.tau))
    log_geo = 2 * i1 * math.log(rho) if rho > 0 else -math.inf
    geo = factors.tau * math.exp(min(log_geo, 700.0)) / (1.0 - rho * rho) if rho < 1 else math.inf
    return 2.0 * A * A * math.exp(-2 * a * t1) / (2 * a) + 2.0 * s1 * s1 * geo


def _head_integral_smooth(d_of_t, n: int, quad: QuadratureSpec) -> float:
    """int_0^{t_split} D(t) dt with t = s^2; panels graded to resolve the
    1/n kernel scale near zero."""
    s_knots = np.concatenate([
        np.linspace(0.0, min(4.0 / n, math.sqrt(quad.t_split)), quad.fine_panels + 1),
        np.geomspace(min(4.0 / n, math.sqrt(quad.t_split)), math.sqrt(quad.t_split),
                     quad.coarse_panels + 1)[1:],
    ])
    xi, w = _gauss(quad.t_gauss)
    total = 0.0
    for lo, hi in zip(s_knots[:-1], s_knots[1:]):
        s = lo + (hi - lo) * xi
        vals = np.array([2.0 * sv * d_of_t(sv * sv) for sv in s])
        total += float((hi - lo) * np.dot(w, vals))
    return total


def green_error_semi(n: int, x: float = 0.0,
                     quad: QuadratureSpec = QuadratureSpec()) -> float:
    """int_0^inf int_0^1 |G(t,x,y) - G^n(t,x,y)|^2 dy dt, tail included."""
    basis = spectral_basis(n)
    prof = _mode_profile(basis, x)

    def d_of_t(t: float) -> float:
        if t <= 0.0:
            return 0.0
        return _sq_diff_y_exact(t, x, basis, np.exp(basis.eigenvalues * t), prof)

    return _head_integral_smooth(d_of_t, n, quad) + _tail_bound_semi(n, quad.t_split)


def green_error_semi_pointwise(n: int, t: float, x: float = 0.0) -> float:
    """int_0^1 |G(t,x,y) - G^n(t,x,y)|^2 dy at one time, the y-integral
    evaluated through the aliasing series."""
    basis = spectral_basis(n)
    return _sq_diff_y_exact(t, x, basis, np.exp(basis.eigenvalues * t),
                            _mode_profile(basis, x))


def green_error_full(n: int, tau: float, theta: float, x: float = 0.0,
                     quad: QuadratureSpec = QuadratureSpec()) -> float:
    """int_0^inf int_0^1 |G(t,x,y) - G2^{n,tau}(t,x,y)|^2 dy dt.

    When the staircase is resolvable ([t_split/tau] <= resolve_cap) the time
    quadrature places panels on every step interval; otherwise the smooth
    substitution is used and validated by the self-consistency check.
    """
    report = check_stability(n, tau, theta)
    if not report.satisfied:
        raise ValueError("step-size regime inadmissible: " + report.regime)
    basis = spectral_basis(n)
    factors = AmplificationFactors(basis, tau, theta)
    prof = _mode_profile(basis, x)

    def d_of_t(t: float) -> float:
        if t <= 0.0:
            return 0.0
        coeff = factors.r12 ** factors.step_power(t) * factors.r1
        return _sq_diff_y_exact(t, x, basis, coeff, prof)

    steps = int(math.ceil(quad.t_split / tau))
    if steps <= quad.resolve_cap:
        xi, w = _gauss(quad.t_gauss)
        total = 0.0
        # first interval in the sqrt variable (kernel-difference ~ t^{-1/2})
        s_hi = math.sqrt(min(tau, quad.t_split))
        for lo, hi in zip(np.linspace(0, s_hi, 9)[:-1], np.linspace(0, s_hi, 9)[1:]):
            s = lo + (hi - lo) * xi
            vals = np.array([2.0 * sv * d_of_t(sv * sv) for sv in s])
            total += float((hi - lo) * np.dot(w, vals))
        for i in range(1, steps):
            lo, hi = i * tau, min((i + 1) * tau, quad.t_split)
            if hi <= lo:
                break
            tt = lo + (hi - lo) * xi
            vals = np.array([d_of_t(tv) for tv in tt])
            total += float((hi - lo) * np.dot(w, vals))
        head = total
    else:
        head = _head_integral_smooth(d_of_t, n, quad)
    return head + _tail_bound_full(factors, quad.t_split)


def initial_data_error_full(n: int, tau: float, theta: float, u0: InitialData,
                            t: float, x: float = 0.0) -> float:
    """|int_0^1 (G^n - G1^{n,tau})(t,x,y) u0(kappa_n(y)) dy|^2, closed form:
    the y-integral collapses to the grid DFT of the initial samples."""
    basis = spectral_basis(n)
    factors = AmplificationFactors(basis, tau, theta)
    factors.require_stable()
    grid = GridSpec(n)
    g = u0.values(grid)
    c = np.fft.rfft(g) / n
    delta = np.exp(basis.eigenvalues * t) - factors.r12 ** factors.step_power(t)
    half = (n - 1) // 2
    j = np.arange(1, half + 1)
    acc = delta[0] * c[0].real
    if half >= 1:
        ex_c = basis.phi_c_interp(j, x)
        ex_s = basis.phi_s_interp(j, x)
        acc += 2.0 * np.sum(delta[1:half + 1]
                            * (ex_c * c[1:half + 1].real - ex_s * c[1:half + 1].imag))
    if n % 2 == 0:
        m = n // 2
        acc += delta[m] * basis.phi_c_interp(np.array([m]), x)[0] * c[m].real
    return float(acc) ** 2


def strong_error_study(ladder, model: ModelSpec, theta: float, T: float,
                       paths: int, seed: int, probe_x: float = 0.0,
                       batch_paths: int = 100, purpose: str = "strong",
                       fit_separation: float = 4.0) -> ErrorCurve:
    """Root-mean-square error at time T and a shared probe point for every
    ladder rung against the finest rung, all driven by one Brownian sheet.

    ladder: list of (n, tau) pairs ordered coarse -> fine; the last entry is
    the reference.  Every rung's (n, tau) must nest into the reference by
    integer (power-of-two) factors so the coarsened noise is bit-exactly
    consistent.  All rung errors are reported; only rungs separated from
    the reference by at least `fit_separation` in the refined coordinate
    enter the order fit (a too-close reference deflates the coupled error:
    with slow orders the errors of rung and reference stay comparable and
    positively correlated).
    """
    if len(ladder) < 3:
        raise ValueError("ladder needs at least two rungs plus the reference")
    n_f, tau_f = ladder[-1]
    rungs = ladder[:-1]
    factors = []
    for (n_r, tau_r) in ladder:
        sf, tf = n_f // n_r, round(tau_r / tau_f)
        if n_r * sf != n_f or abs(tf * tau_f - tau_r) > 1e-12 * tau_r:
            raise ValueError(f"rung ({n_r}, {tau_r}) does not nest into ({n_f}, {tau_f})")
        factors.append((sf, tf))
    m_f = int(round(T / tau_f))
    if abs(m_f * tau_f - T) > 1e-9:
        raise ValueError("T must be a multiple of the reference step")
    chunk = max(tf for _, tf in factors)
    if m_f % chunk:
        raise ValueError("T must cover a whole number of coarsest steps")
    ops, probes = [], []
    for (n_r, tau_r) in ladder:
        scheme = SchemeSpec(tau=tau_r, theta=theta)
        op = StepOperator(n_r, scheme, model)
        ops.append(op)
        idx = probe_x * n_r
        if abs(idx - round(idx)) > 1e-9:
            raise ValueError(f"probe {probe_x} is not a grid point of n={n_r}")
        probes.append(int(round(idx)) % n_r)
    sq_err = np.zeros(len(rungs))
    done = 0
    while done < paths:
        count = min(batch_paths, paths - done)
        gens = [NoiseSeed(seed, path=done + k, purpose=purpose).bit_generator()
                for k in range(count)]
        states = [np.tile(model.u0.values(GridSpec(nr)), (count, 1))
                  for (nr, _) in ladder]
        for start in range(0, m_f, chunk):
            xi = np.stack([normals_from_raw(g.random_raw(chunk * n_f)).reshape(chunk, n_f)
                           for g in gens])
            for r, (sf, tf) in enumerate(factors):
                rows = coarsen_array(xi, sf, tf) if (sf, tf) != (1, 1) else xi
                for s in range(chunk // tf):
                    states[r] = ops[r].apply(states[r], rows[:, s, :])
        ref = states[-1][:, probes[-1]]
        for r in range(len(rungs)):
            d = states[r][:, probes[r]] - ref
            sq_err[r] += float(np.dot(d, d))
        done += count
    errors = np.sqrt(sq_err / paths)
    ns = {n for n, _ in rungs}
    taus = {t for _, t in rungs}
    if len(taus) > 1 and len(ns) == 1:
        mode = "temporal"
        coords = np.array([t for _, t in rungs])
        mask = coords / tau_f >= fit_separation
        sign = 1.0
    elif len(ns) > 1 and len(taus) == 1:
        mode = "spatial"
        coords = np.array([float(n) for n, _ in rungs])
        mask = n_f / coords >= fit_separation
        sign = -1.0
    else:
        raise ValueError("ladder must refine exactly one of (n, tau)")
    if mask.sum() < 2:
        raise ValueError("fewer than two rungs are separated enough to fit an order")
    slope, ci, _, _ = ols(np.log(coords[mask]), np.log(errors[mask]))
    return ErrorCurve(resolutions=list(rungs), errors=errors,
                      fitted_order=sign * slope, ci=ci, mode=mode, fit_mask=mask)
