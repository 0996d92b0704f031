import math

import numpy as np
import pytest

import shelab.stability
from shelab.kernels import (AmplificationFactors, full_green, full_green_grid, semi_green,
                            spectral_basis)
from shelab.model import GridSpec, SchemeSpec, validate_run_config
from shelab.stability import positivity_time_full, positivity_time_semi, sharp_gate


def positivity_per_step(n, tau, theta, m_suff):
    """(t*, certified samples) from one grid-minimum evaluation per step
    m = 1..m_suff+1 and the last step below 1/2."""
    factors = AmplificationFactors(spectral_basis(n), tau, theta)
    mins = np.array([full_green_grid(m * tau, "G1", factors).min()
                     for m in range(1, m_suff + 2)])
    bad = np.flatnonzero(mins < 0.5)
    first = int(bad[-1]) + 1 if len(bad) else 0
    if first == len(mins):
        return m_suff * tau, 0
    return (first + 1) * tau, len(mins) - first


def _sweep_scheme(zeta, lam):
    """(n, tau) of a lambda_scaling_sweep point with unit sigma slope."""
    n = max(3, math.ceil(zeta * lam ** 2))
    return n, 0.5 / sharp_gate(n, 1.0, 1.0, lam, zeta)[0]


def admitted(n, tau, theta):
    try:
        validate_run_config(GridSpec(n), SchemeSpec(tau=tau, theta=theta))
    except ValueError:
        return False
    return True


def old_proof_bound_steps(n, tau, theta):
    """The proof bound m of 2 [n/2] (1 - eps')^m <= 1/2 that seeded
    positivity_time_full before it used the exact two-sided margin, with
    eps' = min(regime-formula eps, 1 - r12_1)."""
    coupling = n * n * tau
    if theta > 0.5:
        regime_eps = min((2.0 * theta - 1.0) / (2.0 * theta), 0.5)
    elif theta == 0.5:
        regime_eps = min(1.0 / (coupling + 0.5), 0.5)
    else:
        regime_eps = 2.0 - 4.0 * coupling / (1.0 + 4.0 * theta * coupling)
    factors = AmplificationFactors(spectral_basis(n), tau, theta)
    eps_prime = min(regime_eps, 1.0 - factors.r12[1])
    return max(1, math.ceil(math.log(0.5 / (2 * (n // 2))) / math.log(1.0 - eps_prime)))


class TestCheckStability:
    # admissibility is validate_run_config's; the margin is the factors'

    def test_explicit_regime_example(self):
        assert admitted(4, 0.02, 0.0)   # n^2 tau = 0.32 < 1/2

    def test_implicit_regime_example(self):
        assert admitted(5, 0.37, 0.75)

    def test_crank_nicolson_example(self):
        assert admitted(10, 0.009, 0.5)  # n^2 tau = 0.9 admissible
        factors = AmplificationFactors(spectral_basis(10), 0.009, 0.5)
        assert factors.contraction_margin()[0] > 0.0

    def test_explicit_regime_violation(self):
        assert not admitted(10, 0.01, 0.0)

    def test_implicit_always_satisfied(self):
        for n in (3, 8, 64):
            for tau in (1e-4, 0.1, 0.9):
                for theta in (0.6, 0.75, 1.0):
                    assert admitted(n, tau, theta)

    @pytest.mark.parametrize("n,tau,theta", [(4, 0.02, 0.0), (8, 0.005, 0.25),
                                             (10, 0.009, 0.5), (16, 0.2, 0.75),
                                             (64, 0.001, 1.0)])
    def test_two_sided_margin_invariant(self, n, tau, theta):
        assert admitted(n, tau, theta)
        factors = AmplificationFactors(spectral_basis(n), tau, theta)
        eps = factors.contraction_margin()[0]
        half = n // 2
        assert eps > 0.0
        assert np.max(np.abs(factors.r12[1:half + 1])) <= 1.0 - eps + 1e-12


class TestPositivityTimes:
    def test_semi_sufficient_closed_form(self):
        pt = positivity_time_semi(3)
        assert pt.sufficient_time == pytest.approx(math.log(4.0) / 27.0, rel=1e-12)
        assert pt.t_star <= pt.sufficient_time

    @pytest.mark.parametrize("n", [3, 4, 8, 16])
    def test_semi_certificate_brute_force(self, n):
        pt = positivity_time_semi(n)
        basis = spectral_basis(n)
        g = np.arange(n) / n
        for mult in (1.0, 2.0):
            vals = np.asarray(semi_green(pt.t_star * mult, g[:, None], g[None, :], basis))
            assert vals.min() >= 0.5

    def test_semi_sufficient_time_monotone(self):
        # the proof-bound time grows with n (the certified one may not)
        suff = [positivity_time_semi(n).sufficient_time for n in (3, 4, 8, 16)]
        assert all(b > a for a, b in zip(suff, suff[1:]))

    @pytest.mark.parametrize("n,tau,theta", [(4, 0.01, 1.0), (8, 0.004, 0.0),
                                             (16, 0.003, 0.5)])
    def test_full_certificate_brute_force(self, n, tau, theta):
        pt = positivity_time_full(n, tau, theta)
        factors = AmplificationFactors(spectral_basis(n), tau, theta)
        g = np.arange(n) / n
        for mult in (1.0, 2.0):
            vals = np.asarray(full_green(pt.t_star * mult, g[:, None], g[None, :],
                                         "G1", factors))
            assert vals.min() >= 0.5

    @pytest.mark.parametrize("n,tau,theta", [
        (4, 0.01, 1.0), (8, 0.004, 0.0), (16, 0.003, 0.5), (4, 0.5, 1.0), (4, 0.02, 0.0),
        (8, 0.005, 0.25), (10, 0.009, 0.5), (16, 0.2, 0.75), (64, 0.001, 1.0),
        *[(*_sweep_scheme(2.0, lam), theta) for lam in (1.0, 1.5, 2.0, 2.5)
          for theta in (1.0, 0.5)],
        (*_sweep_scheme(2.0, 4.0), 1.0)])
    def test_full_matches_per_step_minima(self, monkeypatch, n, tau, theta):
        # the blocked grid minima certify the same time as one kernel
        # evaluation per step, with the default blocks and with blocks of
        # 7 steps, so that most certified steps lie past a block boundary
        pt = positivity_time_full(n, tau, theta)
        m_suff = round(pt.sufficient_time / tau)
        want = positivity_per_step(n, tau, theta, m_suff)
        assert (pt.t_star, pt.certified_on) == want
        monkeypatch.setattr(shelab.stability, "GRID_BUDGET", 7 * n)
        pt = positivity_time_full(n, tau, theta)
        assert (pt.t_star, pt.certified_on) == want

    @pytest.mark.parametrize("n,coupling,theta,old_steps,new_steps", [
        (5, 0.9, 0.25, 19, 10), (7, 0.9, 0.25, 23, 15), (4, 3.0, 0.75, 6, 2),
        (10, 3.0, 0.75, 8, 4)])
    def test_exact_margin_keeps_t_star(self, n, coupling, theta, old_steps, new_steps):
        # the exact margin is never below the old regime-formula eps', so the
        # proof bound shrinks; the certified time is the one a per-step scan
        # to the old bound finds
        tau = coupling / (n * n)
        assert old_proof_bound_steps(n, tau, theta) == old_steps
        pt = positivity_time_full(n, tau, theta)
        assert round(pt.sufficient_time / tau) == new_steps
        assert pt.t_star == positivity_per_step(n, tau, theta, old_steps)[0]

    def test_full_every_mode_dies_in_one_step(self):
        # n = 3, theta = 0, tau = -1/lam_1: r1 r2 = 0 on the one nonconstant
        # mode pair, so the exact margin is 1 and G1 = 1 from the first step
        tau = -1.0 / spectral_basis(3).eigenvalues[1]
        assert AmplificationFactors(spectral_basis(3), tau, 0.0).r12[1] == 0.0
        pt = positivity_time_full(3, tau, 0.0)
        assert (pt.t_star, pt.sufficient_time) == (tau, tau)
        assert pt.t_star == positivity_per_step(3, tau, 0.0, old_proof_bound_steps(3, tau, 0.0))[0]

    def test_full_strong_damping_short_time(self):
        # theta=1 with a large step contracts hard: t* within a few steps
        pt = positivity_time_full(4, 0.5, 1.0)
        assert pt.t_star <= 4 * 0.5

    def test_full_requires_stability(self):
        with pytest.raises(ValueError, match="^positivity time undefined: stability regime"):
            positivity_time_full(10, 0.01, 0.0)


class TestSharpRegime:
    # sharp_gate(n, tau, J0, lambda, zeta); J0 = 1 is sigma(x) = x

    def test_example_passes(self):
        # J0=1, zeta=1, n=4, tau=1e-4: gate ~ 0.08 < 1 and n = 4 >= lambda^2
        assert not sharp_gate(4, 1e-4, 1.0, 2.0, 1.0)[1]

    def test_small_grid_fails(self):
        assert sharp_gate(4, 1e-6, 1.0, 3.0, 1.0)[1]  # n < zeta lambda^2 = 9

    def test_coarse_time_step_fails_regardless(self):
        # n^2 tau >= 1/(16 pi): second summand alone reaches 1
        tau = 1.0 / (16.0 * math.pi * 16)
        assert sharp_gate(4, tau, 1.0, 2.0, 1.0)[1]
