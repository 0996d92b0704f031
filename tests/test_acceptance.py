"""Acceptance gate: one test per criterion, each printing a pass line.

Every tolerance is pinned here, not calibrated later.  Criterion 8 carries
the `slow` marker (coupled-noise Monte Carlo at 400 paths).
"""
import json
import math

import numpy as np
import pytest

from shelab.checks import lemma_suite
from shelab.cli import main
from shelab.convergence import green_error_full, green_error_semi, strong_error_study
from shelab.kernels import AmplificationFactors, full_green, semi_green, spectral_basis
from shelab.model import (GridSpec, InitialData, ModelSpec, SchemeSpec, SigmaSpec,
                          validate_run_config)
from shelab.moments import (exact_second_moment_recursion, fit_growth,
                            lambda_scaling_sweep, mc_moment, second_moment_series)
from shelab.renewal import continuous_mu, discrete_mu
from shelab.stability import positivity_time_full, positivity_time_semi

from conftest import discrete_mu_tau_limit

LATTICE_NS = (3, 4, 8, 16, 64)
LATTICE_THETAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def report(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_green_lemma_suite():
    """Conservation to 1e-12, square-integral identities vs quadrature to
    1e-9, and every displayed inequality over the full lattice."""
    results = lemma_suite(ns=LATTICE_NS, thetas=LATTICE_THETAS)
    failed = [r for r in results if not r.passed]
    assert not failed, [(r.name, r.detail) for r in failed]
    worst = min(results, key=lambda r: r.worst_margin)
    report("criterion 1 (green lemma suite)",
           f"{len(results)} checks, tightest margin {worst.worst_margin:.2e} "
           f"({worst.name})")


def test_criterion_2_positivity_certificates():
    """Discrete kernels >= 1/2 at the returned times, brute-forced over all
    n^2 grid pairs at t* and 2 t*."""
    certified = 0
    for n in LATTICE_NS:
        t_star = positivity_time_semi(n)
        basis = spectral_basis(n)
        g = np.arange(n) / n
        for mult in (1.0, 2.0):
            vals = np.asarray(semi_green(t_star * mult, g[:, None], g[None, :],
                                         basis))
            assert vals.shape == (n, n) and vals.min() >= 0.5
        certified += 1
    for n in LATTICE_NS:
        for theta in LATTICE_THETAS:
            tau = 0.4 / (n * n)
            try:
                validate_run_config(GridSpec(n), SchemeSpec(tau=tau, theta=theta))
            except ValueError:
                continue
            t_star = positivity_time_full(n, tau, theta)
            factors = AmplificationFactors(spectral_basis(n), tau, theta)
            g = np.arange(n) / n
            for mult in (1.0, 2.0):
                vals = np.asarray(full_green(t_star * mult, g[:, None],
                                             g[None, :], "G1", factors))
                assert vals.shape == (n, n) and vals.min() >= 0.5
            certified += 1
    assert certified == len(LATTICE_NS) * (1 + len(LATTICE_THETAS))  # n^2 tau = 0.4: all admissible
    report("criterion 2 (positivity certificates)",
           f"{certified} lattice points brute-force verified at t* and 2 t*")


def test_criterion_3_oracle_equivalence():
    """Monte Carlo second moment within 3 standard errors of the exact
    recursion at every recorded time (n=8, tau=1e-3, theta=1, lambda=1,
    sigma=id, 2e4 paths, T=0.1)."""
    grid, scheme = GridSpec(8), SchemeSpec(tau=1e-3, theta=1.0)
    model = ModelSpec(lam=1.0, sigma=SigmaSpec.linear(1.0),
                      u0=InitialData.constant(1.0))
    times = [i * 1e-3 for i in range(10, 101, 10)]
    series = mc_moment(grid, scheme, model, 2, 0, times, 20_000, seed=2024)
    mats = exact_second_moment_recursion(grid, scheme, model, 100, record_every=10)
    exact = dict(zip(mats.steps.tolist(), mats.matrices[:, 0, 0]))
    zs = []
    for t, v, e in zip(series.times, series.values, series.stderr):
        z = abs(v - exact[round(t / 1e-3)]) / e
        zs.append(z)
        assert z <= 3.0, f"t={t}: {z:.2f} standard errors"
    report("criterion 3 (oracle equivalence)",
           f"max |z| = {max(zs):.2f} over {len(zs)} recorded times, 20000 paths")


def test_criterion_4_intermittency_lower_bound():
    """Exact-recursion gamma_2 >= log(1 + lambda^2 tau)/tau, fit window past
    the certified positivity time, tolerance the fit confidence interval."""
    tau, theta = 1e-3, 1.0
    for n, lam in ((8, 1.0), (16, 2.0)):
        grid, scheme = GridSpec(n), SchemeSpec(tau=tau, theta=theta)
        model = ModelSpec(lam=lam, sigma=SigmaSpec.linear(1.0),
                          u0=InitialData.constant(1.0))
        t_pos = positivity_time_full(n, tau, theta)
        bound = math.log1p(lam ** 2 * tau) / tau
        horizon = t_pos + 4.0 / bound
        steps = int(math.ceil(horizon / tau))
        mats = exact_second_moment_recursion(grid, scheme, model, steps,
                                             record_every=max(1, steps // 1000))
        series = second_moment_series(mats, tau, probe="min")
        fit = fit_growth(series, window=(max(t_pos, 0.2 * horizon), horizon))
        assert fit.gamma >= bound - fit.ci_halfwidth, (n, lam, fit.gamma, bound)
        report("criterion 4 (intermittency lower bound)",
               f"n={n} lambda={lam}: gamma2={fit.gamma:.4f} >= {bound:.4f}")


def test_criterion_5_sharp_lambda4_law():
    """lambda sweep at zeta=2 with the Theorem-gate step sizes: log-log
    slope of gamma_2 vs lambda in [2.0, 4.5] and every gamma_2 above the
    printed constant 4 pi^2 zeta^2 lambda^4 / (1 + 32 pi zeta)^2."""
    zeta = 2.0
    result = lambda_scaling_sweep(zeta=zeta, lambdas=[1.0, 1.5, 2.0, 2.5], theta=1.0)
    for p in result.points:
        assert p.gate_ok and not p.flags, p
        assert p.gamma2 > 0.0
        printed = (4.0 * math.pi ** 2 * zeta ** 2 * p.lam ** 4
                   / (1.0 + 32.0 * math.pi * zeta) ** 2)
        assert p.gamma2 >= printed, (p.lam, p.gamma2, printed)
        log_bound = math.log1p(p.lam ** 2 * p.tau) / p.tau
        assert p.gamma2 >= log_bound - p.ci_halfwidth
    assert 2.0 <= result.slope <= 4.5, result.slope
    report("criterion 5 (sharp lambda^4 law)",
           f"slope {result.slope:.3f} in [2.0, 4.5]; "
           f"gamma2 = {[round(p.gamma2, 3) for p in result.points]}")


def test_criterion_6_renewal_roots():
    """Mass error < 1e-8, printed lower bounds respected, and monotone
    tau-refinement convergence of the discrete root (to its continuous-in-
    time limit; the residual offset to the continuous-case root is fixed by
    the two constructions' constants and is reported)."""
    lam, j0, n, zeta = 1.0, 1.0, 4, 1.0
    cont = continuous_mu(lam, j0, n, zeta=zeta)
    assert cont.mass_error < 1e-8
    assert cont.mu >= 8 * math.pi * zeta / (j0 ** 2 + 8 * math.pi * zeta)
    limit = discrete_mu_tau_limit(lam, j0, n)
    mus, gaps = [], []
    for k in range(5):
        root = discrete_mu(lam, j0, n, 1e-3 / 2 ** k, zeta)
        assert root.mass_error < 1e-8
        assert root.mu >= 16 * math.pi * zeta / (j0 ** 2 + 32 * math.pi * zeta)
        mus.append(root.mu)
        gaps.append(abs(root.mu - limit))
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
    diffs = [abs(a - b) for a, b in zip(mus, mus[1:])]
    assert all(b < a for a, b in zip(diffs, diffs[1:])), diffs
    report("criterion 6 (renewal roots)",
           f"continuous mu={cont.mu:.6f}, discrete mu -> {limit:.6f} "
           f"monotonically (offset {abs(limit - cont.mu):.2e}); mass errors < 1e-8")


def test_criterion_7_green_error_rates():
    """err(n)/err(2n) in [1.5, 2.6] for the semi-discrete error integral and
    quartering of the fully discrete integral per 16x tau-refinement."""
    errs = {n: green_error_semi(n) for n in (8, 16, 32, 64)}
    ratios = [errs[n] / errs[2 * n] for n in (8, 16, 32)]
    for r in ratios:
        assert 1.5 <= r <= 2.6, ratios
    taus = [2 ** -3, 2 ** -5, 2 ** -7, 2 ** -9]
    full = [green_error_full(64, tau, 1.0) for tau in taus]
    full_ratios = [a / b for a, b in zip(full[:-1], full[1:])]
    for r in full_ratios:
        assert 1.5 <= r <= 2.6, full_ratios
    report("criterion 7 (green error rates)",
           f"semi ratios {[round(r, 2) for r in ratios]}, "
           f"full tau-sweep ratios {[round(r, 2) for r in full_ratios]}")


@pytest.mark.slow
def test_criterion_8_strong_convergence():
    """Coupled-refinement orders at desk scale: temporal in [0.15, 0.35],
    spatial in [0.35, 0.65] (PAM, 400 paths, theta=1, T=0.5, frozen seed).
    The fit excludes rungs too close to the reference (8x temporal per the
    exact pair-moment analysis, the standard 4x minimum spatially)."""
    model = ModelSpec(lam=1.0, sigma=SigmaSpec.linear(1.0),
                      u0=InitialData.constant(1.0))
    temporal_ladder = [(64, 2 ** -8), (64, 2 ** -9), (64, 2 ** -10),
                       (64, 2 ** -11), (64, 2 ** -12), (64, 2 ** -14)]
    temporal = strong_error_study(temporal_ladder, model, theta=1.0, T=0.5,
                                  paths=400, seed=13, fit_separation=8)
    assert 0.15 <= temporal.fitted_order <= 0.35, temporal.fitted_order
    spatial_ladder = [(8, 2 ** -14), (16, 2 ** -14), (32, 2 ** -14), (64, 2 ** -14)]
    spatial = strong_error_study(spatial_ladder, model, theta=1.0, T=0.5,
                                 paths=400, seed=13, fit_separation=4)
    assert 0.35 <= spatial.fitted_order <= 0.65, spatial.fitted_order
    report("criterion 8 (strong convergence)",
           f"temporal order {temporal.fitted_order:.3f} in [0.15, 0.35], "
           f"spatial order {spatial.fitted_order:.3f} in [0.35, 0.65]")


def test_criterion_9_determinism(tmp_path):
    """Two runs of the same manifest produce byte-identical CSVs."""
    cfg = {
        "seed": 7,
        "grid": {"n": 8},
        "scheme": {"tau": 0.001, "theta": 1.0},
        "model": {"lambda": 1.0, "sigma": {"kind": "linear", "slope": 1.0},
                  "u0": {"kind": "constant", "value": 1.0}},
        "moments": {"mode": "mc", "p": 2, "probe": 0, "paths": 500,
                    "times": [0.01, 0.02, 0.03]},
        "renewal": {"lambda": 1.0, "j0": 1.0, "n": 4, "tau": 0.001,
                    "zeta": 1.0, "which": "both"},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for out in ("a", "b"):
        out_dir = tmp_path / out
        assert main(["moments", "--config", str(path), "--out-dir", str(out_dir)]) == 0
        assert main(["renewal", "--config", str(path), "--out-dir", str(out_dir)]) == 0
        blobs.append(((out_dir / "moments.csv").read_bytes(),
                      (out_dir / "renewal.csv").read_bytes()))
    assert blobs[0] == blobs[1]
    report("criterion 9 (determinism)", "byte-identical CSVs on rerun")
