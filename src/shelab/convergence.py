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
ignored).  Each rule is one array of time nodes and weights, and the
y-integral is evaluated for many nodes together: consecutive nodes share
one aliasing table of at most ALIAS_BUDGET entries, so the few nodes near
t = 0 (thousands of aliasing terms each) go in small runs and the rest of
the rule in one call.  The one-node-per-call loop survives in the tests as
the oracle.  The strong-error study drives every ladder rung with one
shared Brownian sheet via noise coarsening (one halving tree shared by all
rungs) and fits orders against the finest rung.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import (AmplificationFactors, SpectralBasis,
                      heat_kernel_square_integral, spectral_basis)
from .model import GridSpec, ModelSpec, SchemeSpec, validate_run_config
from .moments import ols
# normals_from_raw is also bound here because perfbench's tracer test patches
# and restores it in this module's namespace.
from .noise import coarsen_ladder, normal_rows, normals_from_raw, path_streams  # noqa: F401
from .solver import BlowupError, StepOperator

__all__ = [
    "QuadratureSpec",
    "ErrorCurve",
    "green_error_semi",
    "green_error_full",
    "strong_error_study",
]

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


# Largest nodes x aliasing-terms table one evaluation of the y-integral
# builds (1 MiB per float table).
ALIAS_BUDGET = 2 ** 17


def _gauss(points: int):
    x, w = np.polynomial.legendre.leggauss(points)
    return 0.5 * (x + 1.0), 0.5 * w  # mapped to [0,1]


def _alias_terms(t: float, n: int) -> int:
    """Aliasing terms r = 1..r_max of the cross term at time t: the first
    dropped continuous mode is below exp(-42)."""
    return int(math.ceil(math.sqrt(42.0 / (4.0 * math.pi ** 2 * t)))) + n


def _cross_term(t: np.ndarray, x: float, basis: SpectralBasis, coeff: np.ndarray,
                en_profile: np.ndarray) -> np.ndarray:
    """int_0^1 G(t,x,y) K(t,x,y) dy for each time t with coefficient row
    coeff[i], exact: the cell-wise integral of each continuous mode against
    the piecewise-constant discrete mode collapses to a single aliasing sum
    over r = -j (mod n), truncated for the smallest t."""
    n = basis.n
    r = np.arange(1.0, _alias_terms(float(np.min(t)), n) + 1.0)
    jr = (-r.astype(int)) % n
    chat = n * (1.0 - np.exp(-2j * np.pi * r / n)) / (2j * np.pi * r)
    mode = np.real(np.exp(2j * np.pi * r * x) * en_profile[jr] * chat)
    decay = np.multiply.outer(t, -4.0 * math.pi ** 2 * r * r)
    np.exp(decay, out=decay)
    decay *= coeff[:, jr]
    return 1.0 + 2.0 * (decay @ mode)


def _sq_diff_y_exact(t: np.ndarray, x: float, basis: SpectralBasis, coeff: np.ndarray,
                     en_profile: np.ndarray) -> np.ndarray:
    """Exact int_0^1 (G - K)^2 dy = G(2t,x,x) + sum coeff^2 |e^n|^2 - 2 cross
    at each time t > 0, coeff holding one row of mode coefficients per time."""
    gsq = heat_kernel_square_integral(t)
    ksq = (coeff * coeff) @ (np.abs(en_profile) ** 2)
    cross = _cross_term(t, x, basis, coeff, en_profile)
    return np.maximum(gsq + ksq - 2.0 * cross, 0.0)


def _integrate(d_of_t, nodes: np.ndarray, weights: np.ndarray, n: int) -> float:
    """sum weights * D(nodes) for increasing nodes, D evaluated on runs of
    consecutive nodes whose aliasing table fits ALIAS_BUDGET."""
    vals = np.empty_like(nodes)
    k = 0
    while k < len(nodes):
        m = max(1, ALIAS_BUDGET // _alias_terms(float(nodes[k]), n))
        vals[k:k + m] = d_of_t(nodes[k:k + m])
        k += m
    return float(np.dot(weights, vals))


def _sqrt_rule(s_knots: np.ndarray, quad: QuadratureSpec):
    """Nodes t = s^2 and weights of composite Gauss in s on the panels
    between s_knots: int D dt = int 2 s D(s^2) ds."""
    xi, w = _gauss(quad.t_gauss)
    lo, hi = s_knots[:-1, None], s_knots[1:, None]
    s = lo + (hi - lo) * xi
    return (s * s).ravel(), ((hi - lo) * w * 2.0 * s).ravel()


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


def _smooth_rule(n: int, quad: QuadratureSpec):
    """Rule for int_0^{t_split} D(t) dt with t = s^2; panels graded to
    resolve the 1/n kernel scale near zero."""
    s_mid = min(4.0 / n, math.sqrt(quad.t_split))
    return _sqrt_rule(np.concatenate([
        np.linspace(0.0, s_mid, quad.fine_panels + 1),
        np.geomspace(s_mid, math.sqrt(quad.t_split), quad.coarse_panels + 1)[1:],
    ]), quad)


def _semi_d(n: int, x: float):
    """D(t) = int_0^1 |G - G^n|^2 dy as a function of an array of times."""
    basis = spectral_basis(n)
    prof = basis.modes(x)

    def d_of_t(t):
        return _sq_diff_y_exact(t, x, basis, np.exp(np.multiply.outer(t, basis.eigenvalues)), prof)

    return d_of_t


def green_error_semi(n: int, x: float = 0.0,
                     quad: QuadratureSpec = QuadratureSpec()) -> float:
    """int_0^inf int_0^1 |G(t,x,y) - G^n(t,x,y)|^2 dy dt, tail included."""
    head = _integrate(_semi_d(n, x), *_smooth_rule(n, quad), n)
    return head + _tail_bound_semi(n, quad.t_split)


def green_error_full(n: int, tau: float, theta: float, x: float = 0.0,
                     quad: QuadratureSpec = QuadratureSpec()) -> float:
    """int_0^inf int_0^1 |G(t,x,y) - G2^{n,tau}(t,x,y)|^2 dy dt.

    When the staircase is resolvable ([t_split/tau] <= resolve_cap) the time
    quadrature places panels on every step interval; otherwise the smooth
    substitution is used and validated by the self-consistency check.
    """
    validate_run_config(GridSpec(n), SchemeSpec(tau=tau, theta=theta),
                        "step-size regime inadmissible")
    basis = spectral_basis(n)
    factors = AmplificationFactors(basis, tau, theta)
    prof = basis.modes(x)

    def d_of_t(t):
        coeff = factors.r12 ** factors.step_power(t)[:, None] * factors.r1
        return _sq_diff_y_exact(t, x, basis, coeff, prof)

    steps = int(math.ceil(quad.t_split / tau))
    if steps <= quad.resolve_cap:
        # first interval in the sqrt variable (kernel-difference ~ t^{-1/2}),
        # then Gauss panels on every further step interval below t_split
        t0, w0 = _sqrt_rule(np.linspace(0.0, math.sqrt(min(tau, quad.t_split)), 9), quad)
        xi, w = _gauss(quad.t_gauss)
        lo = tau * np.arange(1, steps)
        hi = np.minimum(tau * np.arange(2, steps + 1), quad.t_split)
        lo, hi = lo[hi > lo, None], hi[hi > lo, None]
        nodes = np.concatenate([t0, (lo + (hi - lo) * xi).ravel()])
        weights = np.concatenate([w0, ((hi - lo) * w).ravel()])
    else:
        nodes, weights = _smooth_rule(n, quad)
    return _integrate(d_of_t, nodes, weights, n) + _tail_bound_full(factors, quad.t_split)


def strong_error_study(ladder, model: ModelSpec, theta: float, T: float,
                       paths: int, seed: int, probe_x: float = 0.0,
                       fit_separation: float = 4.0) -> ErrorCurve:
    """Root-mean-square error at time T and a shared probe point for every
    ladder rung against the finest rung, all driven by one Brownian sheet:
    path k reads the "strong" stream of (seed, k), in batches of 100 paths.

    ladder: list of (n, tau) pairs ordered coarse -> fine; the last entry is
    the reference.  Every rung's (n, tau) must nest into the reference by
    integer factors, not only powers of two: each chunk of fine noise is
    coarsened to every rung by noise.coarsen_ladder, which chains the
    power-of-two rungs through one halving tree and coarsens other factors
    straight from the fine block, so each rung's noise is bit-exactly
    coarsen_array of the fine noise.  All rung errors are reported; only
    rungs separated from the reference by at least `fit_separation` in the
    refined coordinate enter the order fit (a too-close reference deflates
    the coupled error: with slow orders the errors of rung and reference
    stay comparable and positively correlated).  Every rung must pass validate_run_config, and
    the ladder must refine one axis with at least two rungs to fit; both are
    checked before any noise is drawn (ValueError).  A blow-up is re-raised
    naming the rung's (n, tau) and its own step index.
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
        validate_run_config(GridSpec(n_r), scheme, f"invalid rung ({n_r}, {tau_r})")
        op = StepOperator(n_r, scheme, model)
        ops.append(op)
        idx = probe_x * n_r
        if abs(idx - round(idx)) > 1e-9:
            raise ValueError(f"probe {probe_x} is not a grid point of n={n_r}")
        probes.append(int(round(idx)) % n_r)
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
    sq_err = np.zeros(len(rungs))
    done = 0
    while done < paths:
        count = min(100, paths - done)
        gens = path_streams(seed, "strong", range(done, done + count))
        states = [np.tile(model.u0.values(GridSpec(nr)), (count, 1))
                  for (nr, _) in ladder]
        for start in range(0, m_f, chunk):
            xi = normal_rows(gens, chunk, n_f)
            for r, ((_, tf), rows) in enumerate(zip(factors, coarsen_ladder(xi, factors))):
                for s in range(chunk // tf):
                    try:
                        states[r] = ops[r].apply(states[r], rows[:, s, :])
                    except BlowupError as err:
                        raise BlowupError(start // tf + s + 1, err.magnitude,
                                          rung=ladder[r]) from None
        ref = states[-1][:, probes[-1]]
        for r in range(len(rungs)):
            d = states[r][:, probes[r]] - ref
            sq_err[r] += float(np.dot(d, d))
        done += count
    errors = np.sqrt(sq_err / paths)
    slope, ci, _, _ = ols(np.log(coords[mask]), np.log(errors[mask]))
    return ErrorCurve(resolutions=list(rungs), errors=errors,
                      fitted_order=sign * slope, ci=ci, mode=mode, fit_mask=mask)
