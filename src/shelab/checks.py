"""Inequality and identity suite for the Green-function lemmas.

Runs every displayed bound over the lattice {n} x {theta} x log-t grid:
conservation, square-integral identities against quadrature, the explicit
lower/upper envelopes of the square integrals, the refined grid-point
lower bounds, plus structural checks (eigenpairs against the stencil,
factor ordering, eigenvalue symmetry).

The fully discrete square-integral upper bound has no explicit constant in
closed form; the suite derives a certifiable one per lattice point from
the A1/A2 mode split: modes with r1 r2 >= 1/2 contribute at most
2 / sqrt(([t/tau]+1) tau) (via (1+w)^{2m} >= 2 m w and w_j >= 16 j^2 tau),
the contractive rest at most 4 K(eps) S sqrt(tau) / sqrt(([t/tau]+1) tau)
with K(eps) = sup_m (1-eps)^{2m} sqrt(m+1) and S = sum_{A2} r1_j^2.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .kernels import (AmplificationFactors, SpectralBasis,
                      full_green, full_green_square_integral, heat_kernel,
                      heat_kernel_square_integral, semi_green,
                      semi_green_square_integral)
from .solver import discrete_laplacian

__all__ = ["CheckResult", "lemma_suite", "DEFAULT_NS", "DEFAULT_THETAS"]

DEFAULT_NS = (3, 4, 8, 16, 64)
DEFAULT_THETAS = (0.0, 0.25, 0.5, 0.75, 1.0)
T_GRID = np.logspace(-4, 2, 25)


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_margin: float
    detail: str = ""

    def merge(self, margin: float, detail: str):
        if margin < self.worst_margin:
            self.worst_margin = margin
            self.detail = detail
        if margin < 0.0:
            self.passed = False

    def merge_all(self, margins, details):
        """merge() of every margin in order, in one step: the first smallest
        non-nan margin is kept with its detail."""
        margins = np.asarray(margins, dtype=float)
        i = int(np.argmin(np.where(np.isnan(margins), np.inf, margins)))
        self.merge(float(margins[i]), details[i])


def _result(name: str) -> CheckResult:
    return CheckResult(name=name, passed=True, worst_margin=float("inf"))


def _make_basis(n: int, eigenvalue_perturbation: float) -> SpectralBasis:
    basis = SpectralBasis(n)
    if eigenvalue_perturbation:
        basis.eigenvalues = basis.eigenvalues.copy()
        basis.eigenvalues[1] *= 1.0 + eigenvalue_perturbation
        basis.eigenvalues[n - 1] *= 1.0 + eigenvalue_perturbation
    return basis


def _y_nodes():
    """Nodes and per-panel weights of 8-point Gauss-Legendre on 256 panels of [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(8)
    nodes = (np.arange(256)[:, None] + 0.5 * (x + 1.0)[None, :]) / 256
    return nodes.ravel(), 0.5 * w / 256


def _y_quadrature(values, weights) -> float:
    return float(np.sum(values.reshape(-1, len(weights)) * weights))


def _sup_m_contraction(eps: float) -> float:
    """K(eps) = sup_{m>=0} (1-eps)^{2m} sqrt(m+1)."""
    if eps >= 1.0:
        return 1.0
    m_star = max(0.0, -0.25 / math.log(1.0 - eps) - 1.0)
    cand = {0, int(math.floor(m_star)), int(math.ceil(m_star))}
    return max((1.0 - eps) ** (2 * m) * math.sqrt(m + 1.0) for m in cand)


def _full_square_upper_constant(factors: AmplificationFactors) -> float:
    """Explicit constant for sum-square(G2) <= 1 + C / sqrt(([t/tau]+1) tau)."""
    half = factors.n // 2
    r12 = factors.r12[1:half + 1]
    r1 = factors.r1[1:half + 1]
    a2 = r12 < 0.5
    c = 2.0
    if np.any(a2):
        eps_hat = 1.0 - float(np.max(np.abs(r12[a2])))
        s = float(np.sum(r1[a2] ** 2))
        c += 4.0 * _sup_m_contraction(eps_hat) * s * math.sqrt(factors.tau)
    return c


def _check_lattice(ns, thetas) -> list[int]:
    """The grid sizes as ints; a lattice the suite cannot check raises
    ValueError whose message starts with the offending argument's name."""
    if len(ns) == 0:
        raise ValueError("ns must name at least one grid size")
    if len(thetas) == 0:
        raise ValueError("thetas must name at least one theta")
    bad = [n for n in ns if isinstance(n, bool) or not isinstance(n, numbers.Real)
           or not float(n).is_integer() or n < 3]
    if bad:
        raise ValueError(f"ns must be integers >= 3, got {bad}")
    bad = [th for th in thetas
           if isinstance(th, bool) or not isinstance(th, numbers.Real) or not 0.0 <= th <= 1.0]
    if bad:
        raise ValueError(f"thetas must lie in [0, 1], got {bad}")
    return [int(n) for n in ns]


def lemma_suite(ns=DEFAULT_NS, thetas=DEFAULT_THETAS,
                eigenvalue_perturbation: float = 0.0) -> list[CheckResult]:
    """Every check over the whole of T_GRID per lattice point; raises
    ValueError for an empty lattice, an n that is not an integer >= 3 or a
    theta outside [0, 1]."""
    ns = _check_lattice(ns, thetas)
    x_probe = 0.37
    t = T_GRID
    results = {name: _result(name) for name in (
        "continuous-conservation",
        "continuous-square-identity",
        "continuous-square-lower",
        "continuous-square-upper",
        "semi-conservation",
        "semi-square-identity",
        "semi-square-lower",
        "semi-square-upper",
        "semi-grid-lower-refined",
        "full-conservation",
        "full-square-identity",
        "full-square-lower",
        "full-square-upper-derived",
        "full-grid-lower-refined",
        "eigenpair-consistency",
        "factor-ordering",
        "eigenvalue-symmetry",
        "lattice-coverage",
        "mode-zero-conservation",
    )}
    evaluated = 0

    # --- continuous kernel (lattice-independent) ---------------------------
    # one time per call: a row of y-nodes per time keeps the tables small
    y, w = _y_nodes()
    mass, quad = np.empty_like(t), np.empty_like(t)
    for k, tk in enumerate(t):
        g = heat_kernel(tk, x_probe, y)
        mass[k], quad[k] = _y_quadrature(g, w), _y_quadrature(g ** 2, w)
    sq = heat_kernel_square_integral(t)
    at = [f"t={tk:g}" for tk in t]
    results["continuous-conservation"].merge_all(
        1e-12 - np.abs(mass - 1.0), [f"{a} mass={float(m)!r}" for a, m in zip(at, mass)])
    results["continuous-square-identity"].merge_all(
        1e-9 - np.abs(sq - quad),
        [f"{a} closed={float(c)!r} quad={float(q)!r}" for a, c, q in zip(at, sq, quad)])
    results["continuous-square-lower"].merge_all(sq - 1.0 / np.sqrt(8.0 * math.pi * t), at)
    upper = np.minimum(1.0 + np.sqrt(math.pi / (8.0 * t)), 1.0 / np.sqrt(t) + 1.0)
    results["continuous-square-upper"].merge_all(upper - sq, at)

    for n in ns:
        basis = _make_basis(n, eigenvalue_perturbation)
        cells = (np.arange(n) + 0.5) / n

        # eigenpairs against the second-difference stencil
        for j in (1, n // 2):
            mode = np.cos(2.0 * np.pi * j * np.arange(n) / n)
            resid = discrete_laplacian(mode) - basis.eigenvalues[j] * mode
            margin = 1e-10 * 4 * n * n - float(np.max(np.abs(resid)))
            results["eigenpair-consistency"].merge(margin, f"n={n} j={j}")
        sym = float(np.max(np.abs(basis.eigenvalues[1:] - basis.eigenvalues[:0:-1])))
        results["eigenvalue-symmetry"].merge(1e-9 * n * n - sym, f"n={n}")

        at = [f"n={n} t={tk:g}" for tk in t]
        vals = semi_green(t, x_probe, cells, basis)
        mass = vals.mean(axis=1)  # exact: kernel is cellwise constant in y
        results["semi-conservation"].merge_all(1e-12 - np.abs(mass - 1.0), at)
        sq = semi_green_square_integral(t, x_probe, basis)
        quad = (vals ** 2).mean(axis=1)
        results["semi-square-identity"].merge_all(1e-9 - np.abs(sq - quad), at)
        results["semi-square-lower"].merge_all(sq - 1.0, at)
        results["semi-square-upper"].merge_all(1.0 + np.sqrt(math.pi / (8.0 * t)) - sq, at)
        sq_grid = semi_green_square_integral(t, 0.0, basis)
        bound = -np.expm1(-2.0 * n * n * math.pi ** 2 * t) / np.sqrt(32.0 * math.pi * t)
        results["semi-grid-lower-refined"].merge_all(sq_grid - bound, at)

        for theta in thetas:
            tau = 0.4 / (n * n)
            factors = AmplificationFactors(basis, tau, theta)
            half = n // 2
            mags = np.abs(factors.r12[1:half + 1])
            results["factor-ordering"].merge(
                1e-12 - float(np.max(np.diff(factors.r12[1:half + 1])))
                if half > 1 else 1.0, f"n={n} theta={theta:g}")
            if np.max(mags) >= 1.0:
                continue  # inadmissible point: stability module's business
            evaluated += 1
            # mode-0 coefficients of the kernels are exactly one
            results["mode-zero-conservation"].merge(
                -abs(np.exp(basis.eigenvalues[0]) - 1.0)
                - abs(factors.r12[0] - 1.0) + 1e-14, f"n={n} theta={theta:g}")
            c_upper = _full_square_upper_constant(factors)

            at = [f"n={n} theta={theta:g} t={tk:g}" for tk in t]
            mass = full_green(t, x_probe, cells, "G1", factors).mean(axis=1)
            results["full-conservation"].merge_all(1e-12 - np.abs(mass - 1.0), at)
            sq = full_green_square_integral(t, x_probe, factors)
            quad = (full_green(t, x_probe, cells, "G2", factors) ** 2).mean(axis=1)
            results["full-square-identity"].merge_all(1e-9 - np.abs(sq - quad), at)
            results["full-square-lower"].merge_all(sq - 1.0, at)
            steps_plus = (factors.step_power(t) + 1) * tau
            results["full-square-upper-derived"].merge_all(
                1.0 + c_upper / np.sqrt(steps_plus) - sq, [f"{a} C={c_upper:.3g}" for a in at])

            # refined grid lower bound needs its own step-size restriction
            tau_r = 0.12 / (n * n)
            factors_r = AmplificationFactors(basis, tau_r, theta)
            if theta == 1.0 or n * n * tau_r < 1.0 / (8.0 * (1.0 - theta)):
                sq = full_green_square_integral(t, 0.0, factors_r)
                mt = (factors_r.step_power(t) + 1) * tau_r
                bound = -np.expm1(-4.0 * n * n * math.pi ** 2 * mt) \
                    / (8.0 * np.sqrt(math.pi * mt))
                results["full-grid-lower-refined"].merge_all(sq - bound, at)

    expected = len(ns) * len(thetas)
    results["lattice-coverage"].merge(
        float(evaluated - expected),
        f"{evaluated}/{expected} (n, theta) combinations admissible and checked")
    return list(results.values())
