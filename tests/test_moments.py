import math

import numpy as np
import pytest

from shelab.model import GridSpec, InitialData, ModelSpec, SchemeSpec, SigmaSpec
from shelab.moments import (MomentSeries, exact_second_moment_recursion,
                            fit_growth, intermittency_report,
                            lambda_scaling_sweep, mc_moment,
                            second_moment_series)
from shelab.stability import positivity_time_full


def _jackknife_se(samples: np.ndarray) -> float:
    # delete-one jackknife of the mean reduces to the classical SE formula
    # that mc_moment reports
    n = len(samples)
    if n < 2:
        return float("nan")
    mean = samples.mean()
    return float(np.sqrt(np.sum((samples - mean) ** 2) / (n * (n - 1))))


def make(n, tau, theta, lam, slope=1.0, i0=1.0, stepper="theta"):
    return (GridSpec(n), SchemeSpec(tau=tau, theta=theta, stepper=stepper),
            ModelSpec(lam=lam, sigma=SigmaSpec.linear(slope),
                      u0=InitialData.constant(i0)))


class TestExactRecursion:
    def test_zero_noise_is_constant(self):
        grid, scheme, model = make(5, 0.01, 1.0, 0.0, i0=2.0)
        mats = exact_second_moment_recursion(grid, scheme, model, 30)
        for m in mats:
            assert np.allclose(m.matrix, 4.0 * np.ones((5, 5)), atol=1e-10)

    def test_one_step_hand_formula(self):
        # theta=0, u0 = I0, sigma = id: M1_jj = I0^2 (1 + lam^2 n tau)
        n, tau, lam, i0 = 8, 1e-3, 1.3, 0.7
        grid, scheme, model = make(n, tau, 0.0, lam, i0=i0)
        mats = exact_second_moment_recursion(grid, scheme, model, 1)
        assert np.allclose(mats[1].diagonal,
                           i0 ** 2 * (1.0 + lam ** 2 * n * tau), rtol=1e-12)

    def test_matrices_stay_symmetric_psd(self):
        grid, scheme, model = make(6, 1e-3, 1.0, 1.5)
        mats = exact_second_moment_recursion(grid, scheme, model, 400,
                                             record_every=100, check_every=50)
        for m in mats:
            m.check()

    def test_nonlinear_sigma_unsupported(self):
        sigma = SigmaSpec.table([(-1, -1), (0, 0), (2, 1)], lipschitz=1.0,
                                lower_ratio=0.0)
        model = ModelSpec(lam=1.0, sigma=sigma, u0=InitialData.constant(1.0))
        with pytest.raises(ValueError, match="linear sigma"):
            exact_second_moment_recursion(GridSpec(4), SchemeSpec(tau=0.01, theta=1.0),
                                          model, 1)

    def test_prop_lower_bound_growth_rate(self):
        # diagonal growth rate >= log(1 + lam^2 tau)/tau past the positivity time
        n, tau, theta, lam = 3, 0.01, 1.0, 1.0
        grid, scheme, model = make(n, tau, theta, lam)
        steps = 10_000
        mats = exact_second_moment_recursion(grid, scheme, model, steps, record_every=20)
        series = second_moment_series(mats, tau, probe="min")
        t_pos = positivity_time_full(n, tau, theta).t_star
        fit = fit_growth(series, window=(max(t_pos, 20.0), steps * tau))
        assert fit.gamma >= math.log1p(lam ** 2 * tau) / tau - fit.ci_halfwidth

    def test_reverse_gronwall_continuous_form(self):
        # y(t) >= a + b int_0^t y  ==>  y(t) >= e^{b(t-s)}(a + b int_0^s y)
        grid, scheme, model = make(4, 1e-3, 1.0, 1.0)
        mats = exact_second_moment_recursion(grid, scheme, model, 2000, record_every=1)
        y = np.array([m.diagonal.min() for m in mats])
        t = np.arange(len(y)) * scheme.tau
        alpha, beta = model.u0.i0 ** 2, model.lam ** 2 * model.sigma.lower_ratio ** 2
        integral = np.concatenate([[0.0], np.cumsum((y[1:] + y[:-1]) / 2.0)]) * scheme.tau
        premise = y >= alpha + beta * integral - 1e-9
        assert premise.all()
        k = len(y) // 4
        bound = math.exp(beta * (t[-1] - t[k])) * (alpha + beta * integral[k])
        assert y[-1] >= bound * (1.0 - 1e-9)

    def test_reverse_gronwall_discrete_form(self):
        # y_{N+l} >= (a + b sum_{k<N} y_k)(1+b)^l with b = lam^2 J0^2 tau
        grid, scheme, model = make(4, 1e-3, 1.0, 1.0)
        mats = exact_second_moment_recursion(grid, scheme, model, 3000, record_every=1)
        y = np.array([m.diagonal.min() for m in mats])
        alpha = model.u0.i0 ** 2
        beta = model.lam ** 2 * model.sigma.lower_ratio ** 2 * scheme.tau
        n_start = len(y) // 3
        base = alpha + beta * np.sum(y[:n_start])
        ls = np.arange(len(y) - n_start)
        assert np.all(y[n_start:] >= base * (1.0 + beta) ** ls * (1.0 - 1e-9))

    @pytest.mark.parametrize("stepper", ["theta", "exponential"])
    def test_against_dense_matrix_recursion(self, stepper):
        # clarity-route oracle: iterate the same recursion with explicit
        # circulant matrices instead of FFT-diagonal applications
        from scipy.linalg import circulant

        from shelab.kernels import spectral_basis
        n, tau, theta, lam, steps = 6, 2e-3, 0.75, 1.2, 50
        grid, scheme, model = make(n, tau, theta, lam, i0=0.9, stepper=stepper)
        half = spectral_basis(n).eigenvalues[: n // 2 + 1]
        if stepper == "theta":
            r1h, r2h = 1.0 / (1.0 - theta * tau * half), 1.0 + (1.0 - theta) * tau * half
        else:
            r1h, r2h = np.exp(tau * half), np.ones_like(half)
        r1 = circulant(np.fft.irfft(r1h, n)).T
        r2 = circulant(np.fft.irfft(r2h, n)).T
        b = r1 @ r2
        gain = lam ** 2 * n * tau
        m_dense = np.full((n, n), 0.81)
        for _ in range(steps):
            m_dense = b @ m_dense @ b.T + gain * r1 @ np.diag(np.diag(m_dense)) @ r1.T
        mats = exact_second_moment_recursion(grid, scheme, model, steps,
                                             record_every=steps)
        assert np.allclose(mats[-1].matrix, m_dense, rtol=1e-11, atol=1e-13)

    def test_exponential_stepper_recursion_agrees_at_small_tau(self):
        # the exponential integrator and the implicit scheme share moment
        # growth in the small-step limit
        n, lam, tau, steps = 6, 1.0, 1e-4, 4000
        diags = {}
        for stepper in ("theta", "exponential"):
            grid = GridSpec(n)
            scheme = SchemeSpec(tau=tau, theta=1.0, stepper=stepper)
            model = ModelSpec(lam=lam, sigma=SigmaSpec.linear(1.0),
                              u0=InitialData.constant(1.0))
            mats = exact_second_moment_recursion(grid, scheme, model, steps,
                                                 record_every=steps)
            diags[stepper] = mats[-1].diagonal[0]
        assert diags["exponential"] == pytest.approx(diags["theta"], rel=2e-3)

    def test_theta_consistency_of_growth_rate(self):
        # gamma_2 from theta=1 and theta=0 agree within 10% (both stable)
        n, tau, lam = 8, 1e-4, 1.0
        gammas = {}
        for theta in (1.0, 0.0):
            grid, scheme, model = make(n, tau, theta, lam)
            steps = 30_000
            mats = exact_second_moment_recursion(grid, scheme, model, steps,
                                                 record_every=50)
            series = second_moment_series(mats, tau, probe="min")
            t_pos = positivity_time_full(n, tau, theta).t_star
            fit = fit_growth(series, window=(max(t_pos, 0.6), steps * tau))
            gammas[theta] = fit.gamma
        assert abs(gammas[1.0] - gammas[0.0]) <= 0.1 * max(gammas.values())


class TestMcMoment:
    def test_zero_noise_matches_deterministic(self):
        grid, scheme, model = make(4, 0.01, 1.0, 0.0, i0=2.0)
        series = mc_moment(grid, scheme, model, 3, 0, [0.05, 0.1], 16, seed=0)
        assert np.allclose(series.values, 8.0, atol=1e-12)
        assert np.allclose(series.stderr, 0.0, atol=1e-12)

    def test_matches_exact_recursion(self):
        grid, scheme, model = make(8, 1e-3, 1.0, 1.0)
        times = [i * 1e-3 for i in range(10, 101, 10)]
        series = mc_moment(grid, scheme, model, 2, 0, times, 4000, seed=42)
        mats = exact_second_moment_recursion(grid, scheme, model, 100, record_every=10)
        exact = {m.time_index: m.diagonal[0] for m in mats}
        for t, v, e in zip(series.times, series.values, series.stderr):
            assert abs(v - exact[round(t / 1e-3)]) <= 3.0 * e

    def test_jensen_between_orders(self):
        grid, scheme, model = make(8, 1e-3, 1.0, 1.0)
        times = [0.02, 0.05, 0.08]
        s2, s4 = mc_moment(grid, scheme, model, [2, 4], 0, times, 500, seed=3)
        assert np.all(s4.values >= s2.values ** 2)

    def test_bad_inputs(self):
        grid, scheme, model = make(4, 0.01, 1.0, 1.0)
        with pytest.raises(ValueError, match="paths"):
            mc_moment(grid, scheme, model, 2, 0, [0.01], 1, seed=0)
        with pytest.raises(ValueError, match="aligned"):
            mc_moment(grid, scheme, model, 2, 0, [0.0153], 4, seed=0)

    def test_jackknife_identity_against_explicit(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(200) * 3.0 + 1.0
        n = len(x)
        loo = (x.sum() - x) / (n - 1)
        explicit = math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))
        assert _jackknife_se(x) == pytest.approx(explicit, rel=1e-12)

    def test_blowup_truncates_with_flag(self):
        grid = GridSpec(4)
        scheme = SchemeSpec(tau=0.1, theta=1.0)
        model = ModelSpec(lam=1e160, sigma=SigmaSpec.linear(1.0),
                          u0=InitialData.constant(1.0))
        series = mc_moment(grid, scheme, model, 2, 0, [0.0, 0.5], 4, seed=0)
        assert series.horizon_reached
        assert series.times[-1] < 0.5


class TestFitGrowth:
    def test_pure_exponential(self):
        t = np.linspace(0, 5, 40)
        series = MomentSeries(times=t, values=np.exp(3.0 * t), p=2, source={})
        fit = fit_growth(series, window=(0.0, 5.0))
        assert fit.gamma == pytest.approx(3.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_exponential(self):
        t = np.linspace(0, 5, 200)
        series = MomentSeries(times=t, values=np.exp(3.0 * t) * (1 + 0.01 * np.sin(t)),
                              p=2, source={})
        fit = fit_growth(series, window=(0.0, 5.0))
        assert 2.9 <= fit.gamma <= 3.1

    def test_window_requirements(self):
        t = np.linspace(0, 1, 10)
        series = MomentSeries(times=t, values=np.exp(t), p=2, source={})
        with pytest.raises(ValueError, match="5 points"):
            fit_growth(series, window=(0.9, 1.0))
        bad = MomentSeries(times=t, values=np.concatenate([[-1.0], np.exp(t[1:])]),
                           p=2, source={})
        with pytest.raises(ValueError, match="nonpositive"):
            fit_growth(bad, window=(0.0, 1.0))


class TestSweep:
    def test_small_sweep_rows_and_flags(self):
        result = lambda_scaling_sweep(zeta=1.0, lambdas=[1.0, 1.5], theta=1.0)
        assert len(result.points) == 2
        for p in result.points:
            assert p.gate_ok and not p.flags
            assert p.n >= 3 and p.gamma2 > 0.0
        assert np.isfinite(result.slope)

    def test_generator_lambdas_on_worker_pool(self):
        # the lambdas are consumed once, so an iterator yields every point
        listed = lambda_scaling_sweep(zeta=1.0, lambdas=[1.0, 1.5], theta=1.0)
        result = lambda_scaling_sweep(zeta=1.0, lambdas=(v for v in (1.0, 1.5)),
                                      theta=1.0, threads=2)
        assert [p.gamma2 for p in result.points] == [p.gamma2 for p in listed.points]
        assert result.slope == listed.slope

    def test_gamma2_exceeds_printed_lower_bound(self):
        result = lambda_scaling_sweep(zeta=1.0, lambdas=[1.0, 2.0], theta=1.0)
        for p in result.points:
            bound = math.log1p(p.lam ** 2 * p.tau) / p.tau
            assert p.gamma2 >= bound - p.ci_halfwidth

    def test_gamma2_consistency_corridor(self):
        # gamma_2 sits between the explicit step-size lower bound and the
        # lambda^4 p^3 envelope with the envelope constant calibrated from
        # the sweep itself (p = 2 gives the factor 8)
        result = lambda_scaling_sweep(zeta=1.0, lambdas=[1.0, 1.5, 2.0], theta=1.0)
        c_env = max(p.gamma2 / (p.lam ** 4 * 8.0) for p in result.points)
        for p in result.points:
            lower = math.log1p(p.lam ** 2 * p.tau) / p.tau - p.ci_halfwidth
            assert lower <= p.gamma2 <= c_env * p.lam ** 4 * 8.0 * (1 + 1e-12)


class TestIntermittencyReport:
    def test_p_list_validated(self, pam_model):
        with pytest.raises(ValueError, match="subset"):
            intermittency_report(GridSpec(4), SchemeSpec(tau=0.01, theta=1.0),
                                 pam_model, [2, 3], 10, 8, seed=0)

    def test_zero_noise_rates_vanish(self, quiet_model):
        rep = intermittency_report(GridSpec(4), SchemeSpec(tau=0.01, theta=1.0),
                                   quiet_model, [2, 4], 100, 8, seed=0)
        for fit in rep.fits.values():
            assert fit.gamma == pytest.approx(0.0, abs=1e-10)
        assert rep.all_finite and not rep.gamma2_positive

    def test_pam_moment_hierarchy(self, pam_model):
        # gamma_4 / 4 >= gamma_2 / 2 within confidence intervals
        rep = intermittency_report(GridSpec(8), SchemeSpec(tau=1e-3, theta=1.0),
                                   pam_model, [2, 4], 500, 100_000, seed=99)
        f2, f4 = rep.fits[2], rep.fits[4]
        assert f4.gamma / 4 >= f2.gamma / 2 - (f2.ci_halfwidth / 2 + f4.ci_halfwidth / 4)
        assert rep.gamma2_positive and rep.normalized_nondecreasing

    def test_gamma2_matches_exact_recursion(self, pam_model):
        grid, scheme = GridSpec(8), SchemeSpec(tau=1e-3, theta=1.0)
        rep = intermittency_report(grid, scheme, pam_model, [2], 500, 20_000, seed=5)
        mats = exact_second_moment_recursion(grid, scheme, pam_model, 500,
                                             record_every=5)
        series = second_moment_series(mats, scheme.tau, probe="min")
        fit = fit_growth(series, window=rep.window)
        # the regression CI understates slope uncertainty because residuals
        # across times share paths; bound the slope scatter by propagating
        # the endpoint standard errors of the Monte Carlo series instead
        mc = mc_moment(grid, scheme, pam_model, 2, "min",
                       [rep.window[0], rep.window[1]], 20_000, seed=5)
        rel = mc.stderr / mc.values
        slope_se = math.hypot(rel[0], rel[1]) / (rep.window[1] - rep.window[0])
        tol = 3.0 * (rep.fits[2].ci_halfwidth + slope_se)
        assert abs(rep.fits[2].gamma - fit.gamma) <= tol
