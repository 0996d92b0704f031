import math

import numpy as np
import pytest
from scipy.linalg import circulant

from shelab.convergence import (QuadratureSpec, green_error_full,
                                green_error_semi, green_error_semi_pointwise,
                                initial_data_error_full, strong_error_study)
from shelab.kernels import (AmplificationFactors, full_green, heat_kernel, semi_green,
                            spectral_basis)
from shelab.model import InitialData, ModelSpec, SchemeSpec, SigmaSpec
from shelab.noise import NoiseSeed, coarsen_array, sample_block
from shelab.solver import BlowupError, StepOperator

from conftest import const_sigma


def _sq_diff_y_cells(t: float, x: float, n: int, y_gauss: int = 10) -> float:
    """int_0^1 (G(t,x,y) - G^n(t,x,y))^2 dy by per-cell Gauss quadrature,
    G^n being piecewise constant per cell.  Loses the kernel spike for t
    much smaller than the squared node spacing; the moderate-t oracle."""
    basis = spectral_basis(n)
    cell_values = np.asarray(semi_green(t, x, np.arange(n) / n, basis))
    xi, w = np.polynomial.legendre.leggauss(y_gauss)
    xi, w = 0.5 * (xi + 1.0), 0.5 * w  # mapped to [0,1]
    nodes = (np.arange(n)[:, None] + xi[None, :]) / n
    diff = heat_kernel(t, x, nodes) - cell_values[:, None]
    return float(np.sum(diff * diff * w[None, :]) / n)


class TestGreenErrorSemi:
    def test_exact_vs_cells_oracle(self):
        # the aliasing-series route must agree with per-cell Gauss quadrature
        # wherever the latter resolves the kernel
        for (n, t, x) in [(8, 0.01, 0.37), (16, 0.05, 0.2), (5, 0.002, 0.61)]:
            exact = green_error_semi_pointwise(n, t, x)
            cells = _sq_diff_y_cells(t, x, n)
            assert exact == pytest.approx(cells, abs=1e-9, rel=1e-7)

    def test_decay_ratio(self):
        e8, e16 = green_error_semi(8), green_error_semi(16)
        assert 1.5 <= e8 / e16 <= 2.6

    def test_quadrature_self_consistency(self):
        q = QuadratureSpec()
        a = green_error_semi(16, quad=q)
        b = green_error_semi(16, quad=q.refined())
        assert abs(a - b) / b < 0.01

    def test_monotone_in_n(self):
        errs = [green_error_semi(n) for n in (8, 16, 32)]
        assert errs[0] > errs[1] > errs[2] > 0.0

    def test_pointwise_trend_bounded(self):
        # scaled pointwise error value * n^{2a-1} t^a stays bounded (a = 3/4)
        a = 0.75
        scaled = [green_error_semi_pointwise(n, t, 0.37) * n ** (2 * a - 1) * t ** a
                  for n in (8, 16, 32, 64) for t in (1e-3, 1e-2, 1e-1)]
        assert max(scaled) < 0.15


class TestGreenErrorFull:
    def test_tau_quartering_ratio(self):
        q = QuadratureSpec()
        e1 = green_error_full(64, 2 ** -5, 1.0, quad=q)
        e2 = green_error_full(64, 2 ** -7, 1.0, quad=q)
        assert 1.5 <= e1 / e2 <= 2.6

    def test_gate_enforced(self):
        with pytest.raises(ValueError, match="inadmissible"):
            green_error_full(10, 0.01, 0.0)

    def test_resolved_vs_smooth_branch(self):
        # forcing the smooth substitution must agree with the staircase-
        # resolving branch once the staircase is fine
        tau = 2 ** -9
        resolved = green_error_full(16, tau, 1.0)
        smooth = green_error_full(16, tau, 1.0,
                                  quad=QuadratureSpec(resolve_cap=0))
        assert abs(resolved - smooth) / resolved < 0.02

    def test_small_tau_approaches_semi(self):
        semi = green_error_semi(16)
        full = green_error_full(16, 1e-6, 1.0)
        assert abs(full - semi) / semi < 0.01


class TestInitialDataErrorFull:
    def test_constant_data_exact_zero(self):
        u0 = InitialData.constant(2.0)
        assert initial_data_error_full(8, 1e-3, 1.0, u0, 0.05) == pytest.approx(
            0.0, abs=1e-26)

    def test_smooth_data_trend(self):
        # e(t) ([t/tau] tau)^a <= C tau^{a-1/2} at a = 1: the scaled maxima
        # must decay with tau at least like sqrt(tau)
        n = 16
        u0 = InitialData.grid_samples(
            (2 + np.cos(2 * np.pi * np.arange(n) / n)).tolist())
        qs = []
        for tau in (1e-2, 1e-2 / 16, 1e-2 / 256):
            ts = np.linspace(5 * tau, 0.5, 40)
            q = max(initial_data_error_full(n, tau, 1.0, u0, t)
                    * (int(t / tau) * tau) ** 1.0 for t in ts)
            qs.append(q / math.sqrt(tau))
        assert qs[0] < 2e-3
        assert qs[0] > qs[1] > qs[2]

    @pytest.mark.parametrize("n", [7, 8])
    def test_matches_cell_average_of_kernel_difference(self, n):
        # (G^n - G1) u0(kappa_n(.)) is cellwise constant in y, so its
        # integral is the mean over cell midpoints
        tau, theta, t, x = 0.01, 1.0, 0.05, 0.37
        g = 1.5 + np.sin(2 * np.pi * np.arange(n) / n) + 0.2 * np.arange(n) / n
        basis = spectral_basis(n)
        factors = AmplificationFactors(basis, tau, theta)
        cells = (np.arange(n) + 0.5) / n
        diff = semi_green(t, x, cells, basis) - full_green(t, x, cells, "G1", factors)
        expected = float(np.mean(diff * g)) ** 2
        got = initial_data_error_full(n, tau, theta, InitialData.grid_samples(g.tolist()), t, x)
        assert got == pytest.approx(expected, rel=1e-9)


class TestStrongErrorStudy:
    def test_ladder_validation(self, pam_model):
        with pytest.raises(ValueError, match="at least two rungs"):
            strong_error_study([(8, 0.25), (8, 0.125)], pam_model, 1.0, 0.5, 4, 0)
        with pytest.raises(ValueError, match="nest"):
            strong_error_study([(8, 0.25), (8, 0.15), (8, 0.1)], pam_model, 1.0, 0.4, 4, 0)
        with pytest.raises(ValueError, match="refine exactly one"):
            strong_error_study([(8, 2 ** -4), (16, 2 ** -5), (32, 2 ** -6)],
                               pam_model, 1.0, 0.5, 4, 0)

    def test_rungs_validated(self, pam_model):
        with pytest.raises(ValueError, match="theta out of range"):
            strong_error_study([(8, 2 ** -6), (8, 2 ** -7), (8, 2 ** -10)], pam_model,
                               1.5, 2 ** -4, 2, 0)
        with pytest.raises(ValueError, match="stability regime violated"):
            strong_error_study([(16, 2 ** -4), (16, 2 ** -5), (16, 2 ** -6)], pam_model,
                               0.0, 0.25, 2, 0)

    def test_blowup_names_rung_step(self):
        model = ModelSpec(lam=1e160, sigma=SigmaSpec.linear(1.0), u0=InitialData.constant(1.0))
        with pytest.raises(BlowupError, match="at step 1:") as err:
            strong_error_study([(8, 2 ** -6), (8, 2 ** -7), (8, 2 ** -8)], model,
                               1.0, 2 ** -4, 2, 0)
        assert err.value.step_index == 1

    def test_deterministic_temporal_orders(self):
        # classical theta-scheme orders with the noise off: ~1 for theta=1,
        # ~2 for theta=1/2
        n = 64
        u0 = InitialData.grid_samples(
            (2 + np.cos(2 * np.pi * np.arange(n) / n)).tolist())
        model = ModelSpec(lam=0.0, sigma=SigmaSpec.linear(1.0), u0=u0)
        ladder = [(n, 2 ** -9), (n, 2 ** -10), (n, 2 ** -11), (n, 2 ** -12),
                  (n, 2 ** -15)]
        implicit = strong_error_study(ladder, model, theta=1.0, T=0.25, paths=2,
                                      seed=1)
        assert 0.8 <= implicit.fitted_order <= 1.3
        crank = strong_error_study(ladder, model, theta=0.5, T=0.25, paths=2, seed=1)
        assert 1.8 <= crank.fitted_order <= 2.2

    def test_additive_coupling_matches_explicit_formula(self):
        # sigma const: the coarse solution equals the explicit linear
        # functional of the fine sheet (dense-matrix evaluation as oracle)
        n_f, tau_f, steps_f = 16, 2 ** -8, 32
        n_c, sf, tf = 8, 2, 2
        tau_c = tau_f * tf
        model = ModelSpec(lam=1.0, sigma=const_sigma(0.6), u0=InitialData.constant(1.0))
        fine = sample_block(NoiseSeed(21, path=0), steps_f, n_f)
        blk = coarsen_array(fine, sf, tf)
        op = StepOperator(n_c, SchemeSpec(tau=tau_c, theta=1.0), model)
        u = np.ones(n_c)
        for i in range(steps_f // tf):
            u = op.apply(u, blk[i])
        # oracle: u_m = u0 + sum_i B^{m-1-i} R1 a sigma xi_i (circulant powers)
        lam_h = spectral_basis(n_c).eigenvalues[: n_c // 2 + 1]
        r1 = circulant(np.fft.irfft(1.0 / (1.0 - tau_c * lam_h), n_c)).T
        b = r1  # theta=1: B = R1
        amp = model.lam * math.sqrt(n_c * tau_c) * 0.6
        m = steps_f // tf
        expected = np.ones(n_c)
        for i in range(m):
            expected = b @ expected + amp * (r1 @ blk[i])
        assert np.max(np.abs(u - expected)) < 1e-10

    def test_additive_mean_functional_shared_across_rungs(self):
        # all rungs see the same Brownian sheet: the spatial mean (an exact
        # linear functional of the sheet) must agree across rungs
        model = ModelSpec(lam=1.0, sigma=const_sigma(0.5), u0=InitialData.constant(1.0))
        n_f, tau_f, mf = 32, 2 ** -10, 64
        fine = sample_block(NoiseSeed(5, path=0), mf, n_f)
        means = []
        for (sfac, tfac) in [(1, 1), (2, 2), (4, 4)]:
            blk = coarsen_array(fine, sfac, tfac)
            op = StepOperator(n_f // sfac, SchemeSpec(tau=tau_f * tfac, theta=1.0),
                              model)
            u = np.ones(n_f // sfac)
            for i in range(mf // tfac):
                u = op.apply(u, blk[i])
            means.append(u.mean())
        assert np.max(np.abs(np.diff(means))) < 1e-12

    def test_fit_mask_separation(self, pam_model):
        ladder = [(8, 2 ** -10), (16, 2 ** -10), (32, 2 ** -10), (64, 2 ** -10)]
        curve = strong_error_study(ladder, pam_model, theta=1.0, T=2 ** -4,
                                   paths=8, seed=0, fit_separation=4)
        assert list(curve.fit_mask) == [True, True, False]
        assert len(curve.errors) == 3
