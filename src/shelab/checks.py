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


def _result(name: str) -> CheckResult:
    return CheckResult(name=name, passed=True, worst_margin=float("inf"))


def _make_basis(n: int, eigenvalue_perturbation: float) -> SpectralBasis:
    basis = SpectralBasis(n)
    if eigenvalue_perturbation:
        basis.eigenvalues = basis.eigenvalues.copy()
        basis.eigenvalues[1] *= 1.0 + eigenvalue_perturbation
        basis.eigenvalues[n - 1] *= 1.0 + eigenvalue_perturbation
    return basis


def _y_quadrature(fn, panels: int = 256, order: int = 8) -> float:
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    nodes = (np.arange(panels)[:, None] + x[None, :]) / panels
    return float(np.sum(fn(nodes.ravel()).reshape(panels, order) * w) / panels)


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


def lemma_suite(ns=DEFAULT_NS, thetas=DEFAULT_THETAS,
                eigenvalue_perturbation: float = 0.0) -> list[CheckResult]:
    x_probe = 0.37
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
    for t in T_GRID:
        mass = _y_quadrature(lambda y: heat_kernel(t, x_probe, y))
        results["continuous-conservation"].merge(
            1e-12 - abs(mass - 1.0), f"t={t:g} mass={mass!r}")
        sq = heat_kernel_square_integral(t)
        quad = _y_quadrature(lambda y: heat_kernel(t, x_probe, y) ** 2)
        results["continuous-square-identity"].merge(
            1e-9 - abs(sq - quad), f"t={t:g} closed={sq!r} quad={quad!r}")
        results["continuous-square-lower"].merge(
            sq - 1.0 / math.sqrt(8.0 * math.pi * t), f"t={t:g}")
        upper = min(1.0 + math.sqrt(math.pi / (8.0 * t)), 1.0 / math.sqrt(t) + 1.0)
        results["continuous-square-upper"].merge(upper - sq, f"t={t:g}")

    for n in ns:
        basis = _make_basis(n, eigenvalue_perturbation)

        # eigenpairs against the second-difference stencil
        for j in (1, n // 2):
            mode = np.cos(2.0 * np.pi * j * np.arange(n) / n)
            resid = discrete_laplacian(mode) - basis.eigenvalues[j] * mode
            margin = 1e-10 * 4 * n * n - float(np.max(np.abs(resid)))
            results["eigenpair-consistency"].merge(margin, f"n={n} j={j}")
        sym = float(np.max(np.abs(basis.eigenvalues[1:] - basis.eigenvalues[:0:-1])))
        results["eigenvalue-symmetry"].merge(1e-9 * n * n - sym, f"n={n}")

        for t in T_GRID:
            cells = np.asarray(semi_green(t, x_probe, (np.arange(n) + 0.5) / n, basis))
            mass = float(cells.mean())  # exact: kernel is cellwise constant in y
            results["semi-conservation"].merge(1e-12 - abs(mass - 1.0), f"n={n} t={t:g}")
            sq = semi_green_square_integral(t, x_probe, basis)
            quad = float((cells ** 2).mean())
            results["semi-square-identity"].merge(
                1e-9 - abs(sq - quad), f"n={n} t={t:g}")
            results["semi-square-lower"].merge(sq - 1.0, f"n={n} t={t:g}")
            results["semi-square-upper"].merge(
                1.0 + math.sqrt(math.pi / (8.0 * t)) - sq, f"n={n} t={t:g}")
            sq_grid = semi_green_square_integral(t, 0.0, basis)
            bound = -math.expm1(-2.0 * n * n * math.pi ** 2 * t) / math.sqrt(32.0 * math.pi * t)
            results["semi-grid-lower-refined"].merge(sq_grid - bound, f"n={n} t={t:g}")

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
            for t in T_GRID:
                cells = np.asarray(full_green(t, x_probe, (np.arange(n) + 0.5) / n,
                                              "G1", factors))
                mass = float(cells.mean())
                results["full-conservation"].merge(
                    1e-12 - abs(mass - 1.0), f"n={n} theta={theta:g} t={t:g}")
                sq = full_green_square_integral(t, x_probe, factors)
                cells2 = np.asarray(full_green(t, x_probe, (np.arange(n) + 0.5) / n,
                                               "G2", factors))
                quad = float((cells2 ** 2).mean())
                results["full-square-identity"].merge(
                    1e-9 - abs(sq - quad), f"n={n} theta={theta:g} t={t:g}")
                results["full-square-lower"].merge(
                    sq - 1.0, f"n={n} theta={theta:g} t={t:g}")
                steps_plus = (factors.step_power(t) + 1) * tau
                results["full-square-upper-derived"].merge(
                    1.0 + c_upper / math.sqrt(steps_plus) - sq,
                    f"n={n} theta={theta:g} t={t:g} C={c_upper:.3g}")

            # refined grid lower bound needs its own step-size restriction
            tau_r = 0.12 / (n * n)
            factors_r = AmplificationFactors(basis, tau_r, theta)
            if theta == 1.0 or n * n * tau_r < 1.0 / (8.0 * (1.0 - theta)):
                for t in T_GRID:
                    sq = full_green_square_integral(t, 0.0, factors_r)
                    mt = (factors_r.step_power(t) + 1) * tau_r
                    bound = -math.expm1(-4.0 * n * n * math.pi ** 2 * mt) \
                        / (8.0 * math.sqrt(math.pi * mt))
                    results["full-grid-lower-refined"].merge(
                        sq - bound, f"n={n} theta={theta:g} t={t:g}")

    expected = len(ns) * len(thetas)
    results["lattice-coverage"].merge(
        float(evaluated - expected),
        f"{evaluated}/{expected} (n, theta) combinations admissible and checked")
    return list(results.values())
