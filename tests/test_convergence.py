import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import circulant

import shelab.convergence
from shelab.convergence import (QuadratureSpec, _gauss, _semi_d, _tail_bound_full,
                                _tail_bound_semi, green_error_full, green_error_semi,
                                strong_error_study)
from shelab.kernels import (AmplificationFactors, full_green, heat_kernel,
                            heat_kernel_square_integral, semi_green, spectral_basis)
from shelab.model import GridSpec, InitialData, ModelSpec, SchemeSpec, SigmaSpec
from shelab.noise import NoiseSeed, coarsen_array, sample_block
from shelab.solver import BlowupError, StepOperator

from conftest import const_sigma


def initial_data_error_full(n: int, tau: float, theta: float, u0: InitialData,
                            t: float, x: float = 0.0) -> float:
    """|int_0^1 (G^n - G1^{n,tau})(t,x,y) u0(kappa_n(y)) dy|^2, closed form:
    the y-integral collapses to the grid DFT of the initial samples."""
    basis = spectral_basis(n)
    factors = AmplificationFactors(basis, tau, theta)
    factors.require_stable()
    c = np.fft.fft(u0.values(GridSpec(n))) / n
    delta = np.exp(basis.eigenvalues * t) - factors.r12 ** factors.step_power(t)
    return float(np.sum(delta * basis.modes(x) * c).real) ** 2


def green_error_semi_pointwise(n: int, t: float, x: float = 0.0) -> float:
    """int_0^1 |G(t,x,y) - G^n(t,x,y)|^2 dy at one time, the y-integral
    evaluated through the aliasing series of green_error_semi's integrand."""
    return float(_semi_d(n, x)(np.array([t], dtype=float))[0])


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


def _sq_diff_node(t: float, x: float, basis, coeff: np.ndarray, en_profile: np.ndarray) -> float:
    """int_0^1 (G - K)^2 dy at one time through the aliasing series, one
    node per call: G(2t,x,x) + sum coeff^2 |e^n|^2 - 2 cross."""
    n = basis.n
    r_max = int(math.ceil(math.sqrt(42.0 / (4.0 * math.pi ** 2 * t)))) + n
    r = np.arange(1.0, r_max + 1.0)
    jr = (-r.astype(int)) % n
    chat = n * (1.0 - np.exp(-2j * np.pi * r / n)) / (2j * np.pi * r)
    z = (np.exp(-4.0 * math.pi ** 2 * r * r * t) * coeff[jr]
         * np.exp(2j * np.pi * r * x) * en_profile[jr] * chat)
    cross = 1.0 + 2.0 * float(np.real(z).sum())
    ksq = float(np.dot(coeff * coeff, np.abs(en_profile) ** 2))
    return max(heat_kernel_square_integral(t) + ksq - 2.0 * cross, 0.0)


def _sqrt_panels_per_node(d_of_t, s_knots, quad) -> float:
    xi, w = _gauss(quad.t_gauss)
    total = 0.0
    for lo, hi in zip(s_knots[:-1], s_knots[1:]):
        s = lo + (hi - lo) * xi
        total += float((hi - lo) * np.dot(w, np.array([2.0 * sv * d_of_t(sv * sv) for sv in s])))
    return total


def _smooth_head_per_node(d_of_t, n, quad) -> float:
    s_mid = min(4.0 / n, math.sqrt(quad.t_split))
    return _sqrt_panels_per_node(d_of_t, np.concatenate([
        np.linspace(0.0, s_mid, quad.fine_panels + 1),
        np.geomspace(s_mid, math.sqrt(quad.t_split), quad.coarse_panels + 1)[1:]]), quad)


def green_error_semi_per_node(n, x=0.0, quad=QuadratureSpec()) -> float:
    """green_error_semi with the kernel difference evaluated one time node
    per call (the quadrature loop the array evaluation replaced)."""
    basis = spectral_basis(n)
    prof = basis.modes(x)

    def d_of_t(t):
        return _sq_diff_node(t, x, basis, np.exp(basis.eigenvalues * t), prof)

    return _smooth_head_per_node(d_of_t, n, quad) + _tail_bound_semi(n, quad.t_split)


def green_error_full_per_node(n, tau, theta, x=0.0, quad=QuadratureSpec()) -> float:
    """green_error_full, one time node per call."""
    basis = spectral_basis(n)
    factors = AmplificationFactors(basis, tau, theta)
    prof = basis.modes(x)

    def d_of_t(t):
        coeff = factors.r12 ** factors.step_power(t) * factors.r1
        return _sq_diff_node(t, x, basis, coeff, prof)

    steps = int(math.ceil(quad.t_split / tau))
    if steps > quad.resolve_cap:
        return _smooth_head_per_node(d_of_t, n, quad) + _tail_bound_full(factors, quad.t_split)
    total = _sqrt_panels_per_node(d_of_t, np.linspace(0, math.sqrt(min(tau, quad.t_split)), 9),
                                  quad)
    xi, w = _gauss(quad.t_gauss)
    for i in range(1, steps):
        lo, hi = i * tau, min((i + 1) * tau, quad.t_split)
        if hi <= lo:
            break
        total += float((hi - lo) * np.dot(w, np.array([d_of_t(tv) for tv in lo + (hi - lo) * xi])))
    return total + _tail_bound_full(factors, quad.t_split)


class TestArrayEvaluationAgainstPerNodeOracle:
    @pytest.mark.parametrize("n,tau,theta,x,quad", [
        (64, 2 ** -3, 1.0, 0.0, {}), (64, 2 ** -7, 1.0, 0.0, {}), (16, 2 ** -8, 0.5, 0.37, {}),
        (16, 0.003, 1.0, 0.0, {"t_split": 0.01}), (16, 2 ** -9, 1.0, 0.0, {"resolve_cap": 0}),
        (8, 1e-6, 0.75, 0.2, {})])
    def test_green_error_full(self, n, tau, theta, x, quad):
        # resolve_cap 0 and tau = 1e-6 take the smooth branch, the rest
        # resolve the staircase; tau = 0.003 cuts its last step interval at t_split
        quad = QuadratureSpec(**quad)
        got = green_error_full(n, tau, theta, x=x, quad=quad)
        assert got == pytest.approx(green_error_full_per_node(n, tau, theta, x, quad), rel=1e-12)

    @pytest.mark.parametrize("n,x", [(8, 0.0), (16, 0.37), (64, 0.0)])
    def test_green_error_semi(self, n, x):
        assert green_error_semi(n, x) == pytest.approx(green_error_semi_per_node(n, x), rel=1e-12)
        basis = spectral_basis(n)
        for t in (1e-6, 1e-3, 0.2):
            want = _sq_diff_node(t, x, basis, np.exp(basis.eigenvalues * t), basis.modes(x))
            assert green_error_semi_pointwise(n, t, x) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_peak_memory_bounded(self):
        # the aliasing tables are capped: the stacked first interval alone
        # took 7.4 MiB
        green_error_full(64, 2 ** -7, 1.0)
        tracemalloc.start()
        try:
            green_error_full(64, 2 ** -7, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


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

    @pytest.mark.parametrize("ladder, kwargs, message", [
        ([(8, 2 ** -4), (16, 2 ** -5), (32, 2 ** -6)], {}, "refine exactly one"),
        ([(8, 2 ** -6), (8, 2 ** -7), (8, 2 ** -8)], {}, "fewer than two rungs"),
        ([(8, 2 ** -10), (16, 2 ** -10), (32, 2 ** -10), (64, 2 ** -10)],
         {"fit_separation": 16}, "fewer than two rungs"),
        ([(8, 2 ** -6), (8, 2 ** -7), (8, 2 ** -10)], {"T": 2 ** -7},
         "whole number of coarsest steps"),
    ])
    def test_bad_ladder_rejected_before_noise(self, pam_model, monkeypatch, ladder, kwargs,
                                              message):
        def no_noise(*args):
            raise AssertionError("noise read before the ladder was checked")

        monkeypatch.setattr(shelab.convergence, "normal_rows", no_noise)
        kwargs = {"T": 0.5, **kwargs}
        with pytest.raises(ValueError, match=message):
            strong_error_study(ladder, pam_model, 1.0, paths=4, seed=0, **kwargs)

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
            strong_error_study([(8, 2 ** -6), (8, 2 ** -7), (8, 2 ** -9)], model,
                               1.0, 2 ** -4, 2, 0)
        assert err.value.step_index == 1
        assert err.value.rung == (8, 2 ** -6)
        assert "rung (n, tau) = (8, 0.015625)" in str(err.value)

    def test_blowup_reported_in_time_order(self, pam_model, monkeypatch):
        # a finer rung blows up at its step 3, the coarsest rung only at its
        # step 40: rungs advance through time together, one chunk of the
        # coarsest step at a time, so step 3 is the one reported
        blowup_step = {8: 40, 32: 3}

        class Failing(StepOperator):
            steps = 0

            def apply(self, u, xi):
                self.steps += 1
                if self.steps == blowup_step.get(self.n):
                    raise BlowupError(self.steps, 1e151)
                return super().apply(u, xi)

        monkeypatch.setattr(shelab.convergence, "StepOperator", Failing)
        ladder = [(8, 2 ** -10), (16, 2 ** -10), (32, 2 ** -10), (64, 2 ** -10)]
        with pytest.raises(BlowupError) as err:
            strong_error_study(ladder, pam_model, theta=1.0, T=2 ** -4, paths=2, seed=0)
        assert err.value.step_index == 3
        assert err.value.rung == (32, 2 ** -10)

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

    def test_non_power_of_two_ladder_matches_hand_stepped_oracle(self, pam_model):
        # time factors 6 and 3 are coarsened straight from the fine block;
        # the oracle reads each path's whole "strong" stream at once
        ladder = [(8, 6 * 2 ** -10), (8, 3 * 2 ** -10), (8, 2 ** -10)]
        paths, seed, m_f = 5, 3, 12
        curve = strong_error_study(ladder, pam_model, 0.75, m_f * 2 ** -10, paths, seed,
                                   fit_separation=2)
        fine = np.stack([sample_block(NoiseSeed(seed, path=k, purpose="strong"), m_f, 8)
                         for k in range(paths)])
        finals = []
        for n, tau in ladder:
            op = StepOperator(n, SchemeSpec(tau=tau, theta=0.75), pam_model)
            u = np.ones((paths, n))
            coarse = coarsen_array(fine, 1, round(tau * 2 ** 10))
            for s in range(coarse.shape[1]):
                u = op.apply(u, coarse[:, s, :])
            finals.append(u[:, 0])
        want = [math.sqrt(float(np.dot(u - finals[-1], u - finals[-1])) / paths)
                for u in finals[:-1]]
        assert list(curve.errors) == want
        assert list(curve.fit_mask) == [True, True]

    def test_fit_mask_separation(self, pam_model):
        ladder = [(8, 2 ** -10), (16, 2 ** -10), (32, 2 ** -10), (64, 2 ** -10)]
        curve = strong_error_study(ladder, pam_model, theta=1.0, T=2 ** -4,
                                   paths=8, seed=0, fit_separation=4)
        assert list(curve.fit_mask) == [True, True, False]
        assert len(curve.errors) == 3
