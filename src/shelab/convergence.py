"""Green-function error integrals and coupled-refinement strong error.

Every term of int_0^inf int_0^1 |G - G^n|^2 dy dt is exponential in t, so
the semi-discrete integral is a closed form, O(n).  The fully discrete
double integral evaluates the y-integral exactly: the kernel is piecewise
constant on grid cells, so each continuous mode integrates against each
discrete mode in closed form and the cross term collapses to an aliasing
series.  Its time integral is composite quadrature with the sqrt
substitution t = s^2 absorbing the small-time scale, plus a certified
analytic tail bound beyond the split (never ignored).  The rule is one
array of time nodes and weights, and the y-integral is evaluated for many
nodes together: consecutive nodes share one aliasing table of at most
kernels.BLOCK_ENTRIES entries, so the few nodes near t = 0 (thousands of
aliasing terms each) go in small runs and the rest of the rule in one
call.  The strong-error study drives every ladder rung with one shared
Brownian sheet via noise coarsening (one halving tree shared by all rungs)
and fits orders against the finest rung.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (BLOCK_ENTRIES, AmplificationFactors, SpectralBasis, _full_coeff, _gauss,
                      heat_kernel_square_integral, spectral_basis)
from .model import (GridSpec, ModelSpec, SchemeSpec, _floor_quantize,
                    validate_run_config)
from .moments import ols
# normals_from_raw is also bound here because perfbench's tracer test patches
# and restores it in this module's namespace.
from .noise import (coarsen_ladder, noise_reads, normal_rows,  # noqa: F401
                    normals_from_raw, path_streams)
from .solver import BlowupError, StepOperator

__all__ = [
    "ErrorCurve",
    "green_error_semi",
    "green_error_full",
    "strong_error_study",
]

@dataclass
class ErrorCurve:
    resolutions: list
    errors: np.ndarray
    fitted_order: float
    ci: float
    mode: str = ""
    fit_mask: np.ndarray | None = None


# green_error_full's rule: Gauss points per panel, the smooth branch's fine
# and coarse panels, the split before the certified tail, and the most step
# intervals the staircase branch resolves.
_T_GAUSS, _FINE_PANELS, _COARSE_PANELS = 8, 20, 40
_T_SPLIT, _RESOLVE_CAP = 1.0, 4096


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
    consecutive nodes whose aliasing table fits BLOCK_ENTRIES."""
    vals = np.empty_like(nodes)
    k = 0
    while k < len(nodes):
        m = max(1, BLOCK_ENTRIES // _alias_terms(float(nodes[k]), n))
        vals[k:k + m] = d_of_t(nodes[k:k + m])
        k += m
    return float(np.dot(weights, vals))


def _sqrt_rule(s_knots: np.ndarray):
    """Nodes t = s^2 and weights of composite Gauss in s on the panels
    between s_knots: int D dt = int 2 s D(s^2) ds."""
    xi, w = _gauss(_T_GAUSS)
    lo, hi = s_knots[:-1, None], s_knots[1:, None]
    s = lo + (hi - lo) * xi
    return (s * s).ravel(), ((hi - lo) * w * 2.0 * s).ravel()


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


def _smooth_rule(n: int):
    """Rule for int_0^{t_split} D(t) dt with t = s^2; panels graded to
    resolve the 1/n kernel scale near zero."""
    s_mid = min(4.0 / n, math.sqrt(_T_SPLIT))
    return _sqrt_rule(np.concatenate([
        np.linspace(0.0, s_mid, _FINE_PANELS + 1),
        np.geomspace(s_mid, math.sqrt(_T_SPLIT), _COARSE_PANELS + 1)[1:],
    ]))


def green_error_semi(n: int, x: float = 0.0) -> float:
    """int_0^inf int_0^1 |G(t,x,y) - G^n(t,x,y)|^2 dy dt, exact in O(n): with
    L_j = -lam_j, 1/24 + sum_{j!=0} |e^n_j(x)|^2 / (2 L_j) - 2 Re sum_{j!=0}
    e^n_j(x) T_j, T_j = sum_{k=-j mod n} e^{2 pi i k x} chat(k) / (4 pi^2 k^2 + L_j)
    the time-integrated aliasing sum.  For x = (k + f)/n, w = e^{2 pi i j/n}
    and a = sqrt(L_j), T_j = w^{-k} ((1 - w) sum_i w^i H((i + f)/n) + 1/L_j),
    where H(s) = (e^{a(s-1)} - e^{-as}) / (2 L_j (1 - e^{-a})) integrates the
    resolvent sum_k e^{2 pi i k s} / (4 pi^2 k^2 + L_j) on [0, 1); the i-sum is
    geometric and every exponential below is at most 1."""
    basis = spectral_basis(n)
    j, big_l = np.arange(1, n), -basis.eigenvalues[1:]
    e = basis.modes(x)[1:]
    k = int(_floor_quantize(x, n))
    f = max(n * x - k, 0.0)
    a = np.sqrt(big_l) / n
    w, r = np.exp(2j * np.pi * j / n), np.exp(-a)
    geo = (np.exp(-a * (1.0 - f)) / (w - r) - np.exp(-a * f) / (1.0 - w * r)) / (2.0 * big_l)
    alias = np.exp(-2j * np.pi * (j * k % n) / n) * ((1.0 - w) * geo + 1.0 / big_l)
    return (1.0 / 24.0 + float(np.sum((e.real ** 2 + e.imag ** 2) / (2.0 * big_l)))
            - 2.0 * float(np.sum(e * alias).real))


def green_error_full(n: int, tau: float, theta: float, x: float = 0.0) -> float:
    """int_0^inf int_0^1 |G(t,x,y) - G2^{n,tau}(t,x,y)|^2 dy dt.

    When the staircase is resolvable ([_T_SPLIT/tau] <= _RESOLVE_CAP) the time
    quadrature places panels on every step interval; otherwise the smooth
    substitution is used and validated by the self-consistency check.
    """
    scheme = SchemeSpec(tau=tau, theta=theta)
    validate_run_config(GridSpec(n), scheme, "step-size regime inadmissible")
    basis = spectral_basis(n)
    factors = AmplificationFactors(basis, scheme).require_stable()
    prof = basis.modes(x)

    def d_of_t(t):
        return _sq_diff_y_exact(t, x, basis, _full_coeff(t, "G2", factors), prof)

    steps = int(math.ceil(_T_SPLIT / tau))
    if steps <= _RESOLVE_CAP:
        # first interval in the sqrt variable (kernel-difference ~ t^{-1/2}),
        # then Gauss panels on every further step interval below t_split
        t0, w0 = _sqrt_rule(np.linspace(0.0, math.sqrt(min(tau, _T_SPLIT)), 9))
        xi, w = _gauss(_T_GAUSS)
        lo = tau * np.arange(1, steps)
        hi = np.minimum(tau * np.arange(2, steps + 1), _T_SPLIT)
        lo, hi = lo[hi > lo, None], hi[hi > lo, None]
        nodes = np.concatenate([t0, (lo + (hi - lo) * xi).ravel()])
        weights = np.concatenate([w0, ((hi - lo) * w).ravel()])
    else:
        nodes, weights = _smooth_rule(n)
    return _integrate(d_of_t, nodes, weights, n) + _tail_bound_full(factors, _T_SPLIT)


def strong_error_study(ladder, model: ModelSpec, theta: float, T: float,
                       paths: int, seed: int, fit_separation: float = 4.0) -> ErrorCurve:
    """Root-mean-square error at time T and x = 0 (grid index 0 of every
    rung) for every ladder rung against the finest rung, all driven by one
    Brownian sheet: path k reads the "strong" stream of (seed, k), in
    batches of 100 paths.

    ladder: list of (n, tau) pairs ordered coarse -> fine; the last entry is
    the reference.  Every rung's (n, tau) must nest into the reference by
    integer factors, not only powers of two: fine noise, read in whole chunks
    (lcm of the time factors) by noise.noise_reads, counting its coarse
    copies, one read alive at a time, is coarsened to every rung by
    noise.coarsen_ladder, which chains the power-of-two rungs through one
    halving tree and coarsens other factors straight from the fine block, so
    each rung's noise is bit-exactly coarsen_array of the fine noise.  The
    rungs advance one chunk at a time, so the earliest blow-up is the one
    reported.  All rung errors are reported; only rungs separated from the
    reference by at least `fit_separation` in the refined coordinate enter
    the order fit (a too-close reference deflates the coupled error: with
    slow orders the errors of rung and reference stay comparable and
    positively correlated).
    Every rung must pass validate_run_config, and the ladder must refine one
    axis with at least two rungs to fit; both are checked before any noise is
    drawn (ValueError), as are paths >= 1 and T > 0.  A blow-up is re-raised
    naming the rung's (n, tau) and its own step index.
    """
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    if not T > 0:
        raise ValueError(f"T must be > 0, got {T}")
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
    chunk = math.lcm(*(tf for _, tf in factors))  # a coarsest step when the factors nest
    if m_f % chunk:
        raise ValueError("T must cover a whole number of coarsest steps")
    ops = []
    for (n_r, tau_r) in ladder:
        scheme = SchemeSpec(tau=tau_r, theta=theta)
        validate_run_config(GridSpec(n_r), scheme, f"invalid rung ({n_r}, {tau_r})")
        ops.append(StepOperator(n_r, scheme, model))
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

    def advance(gens, states, read):
        """Read the fine steps `read` of every path, coarsen them to every
        rung and step the rungs one chunk at a time, rung by rung.  The noise
        is local, so it dies on return: a study holds one read."""
        coarse = coarsen_ladder(normal_rows(gens, len(read), n_f), factors)
        for step in range(0, len(read), chunk):
            for r, ((_, tf), block) in enumerate(zip(factors, coarse)):
                for s in range(step // tf, (step + chunk) // tf):
                    try:
                        states[r] = ops[r].apply(states[r], block[:, s, :])
                    except BlowupError as err:
                        raise BlowupError(read.start // tf + s + 1, err.magnitude,
                                          rung=ladder[r]) from None

    sq_err = np.zeros(len(rungs))
    for done in range(0, paths, 100):
        count = min(100, paths - done)
        # whole chunks per read; fine block and coarse copies in budget
        chunk_cells = count * sum((chunk // tf) * (n_f // sf) for sf, tf in factors)
        gens = path_streams(seed, "strong", range(done, done + count))
        states = [np.tile(model.u0.values(GridSpec(nr)), (count, 1))
                  for (nr, _) in ladder]
        for read in noise_reads(m_f, chunk_cells, chunk):
            advance(gens, states, read)
        ref = states[-1][:, 0]
        for r in range(len(rungs)):
            d = states[r][:, 0] - ref
            sq_err[r] += float(np.dot(d, d))
    errors = np.sqrt(sq_err / paths)
    if not np.all(errors[mask] > 0.0):  # the order fit takes log errors
        raise ValueError(f"errors {errors[mask].tolist()} of the fitted rungs are not all > 0: "
                         "the noise does not separate them from the reference")
    slope, ci, _, _ = ols(np.log(coords[mask]), np.log(errors[mask]))
    return ErrorCurve(resolutions=list(rungs), errors=errors,
                      fitted_order=sign * slope, ci=ci, mode=mode, fit_mask=mask)
