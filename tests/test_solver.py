import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import circulant

from shelab.kernels import AmplificationFactors, spectral_basis
from shelab.model import GridSpec, InitialData, ModelSpec, SchemeSpec, SigmaSpec
import shelab.noise
from shelab.noise import NOISE_CHUNK_CELLS, NoiseSeed, sample_block
from shelab.solver import (DENSE_MAX_N, BlowupError, StepOperator, discrete_laplacian,
                           simulate)

from conftest import const_sigma


class TestDiscreteLaplacian:
    def test_annihilates_constants(self):
        assert np.array_equal(discrete_laplacian(np.full(6, 3.7)), np.zeros(6))

    def test_eigenpair(self):
        n = 12
        mode = np.cos(2 * np.pi * np.arange(n) / n)
        lam1 = spectral_basis(n).eigenvalues[1]
        assert np.max(np.abs(discrete_laplacian(mode) - lam1 * mode)) < 1e-10 * n * n

    def test_hand_stencil(self):
        out = discrete_laplacian(np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(out, 16.0 * np.array([-2.0, 1.0, 0.0, 1.0]))


class TestThetaStep:
    def test_constant_invariant_without_noise(self, quiet_model):
        op = StepOperator(8, SchemeSpec(tau=0.01, theta=1.0), quiet_model)
        u = np.full(8, 2.0)
        for _ in range(20):
            u = op.apply(u, np.zeros(8))
        assert np.allclose(u, 2.0, atol=1e-13)

    def test_single_mode_decay(self, quiet_model):
        n, tau, theta, steps = 8, 1e-3, 0.75, 60
        op = StepOperator(n, SchemeSpec(tau=tau, theta=theta), quiet_model)
        factors = AmplificationFactors(spectral_basis(n), SchemeSpec(tau=tau, theta=theta))
        u0 = np.cos(2 * np.pi * np.arange(n) / n)
        u = u0.copy()
        for _ in range(steps):
            u = op.apply(u, np.zeros(n))
        expected = factors.r12[1] ** steps * u0
        assert np.max(np.abs(u - expected)) < 1e-10 * np.max(np.abs(expected))

    def test_mean_identity(self, pam_model):
        n, tau = 8, 1e-3
        op = StepOperator(n, SchemeSpec(tau=tau, theta=1.0), pam_model)
        rng = np.random.default_rng(0)
        u = 1.0 + 0.1 * rng.random(n)
        xi = rng.standard_normal(n)
        nxt = op.apply(u, xi)
        expected = u.mean() + pam_model.lam * math.sqrt(n * tau) / n * float(
            np.sum(pam_model.sigma(u) * xi))
        assert nxt.mean() == pytest.approx(expected, abs=1e-12)

    def test_fourier_round_trip(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(16)
        back = np.fft.irfft(np.fft.rfft(v), n=16)
        assert np.max(np.abs(back - v)) < 1e-12

    def test_stability_enforced(self, pam_model):
        with pytest.raises(ValueError, match="at mode j=5; the step is not contractive"):
            StepOperator(10, SchemeSpec(tau=0.01, theta=0.0), pam_model).apply(
                np.ones(10), np.zeros(10))


    @pytest.mark.parametrize("n,coupling", [(7, 0.51), (9, 0.505)])
    def test_paper_rule_enforced_where_the_step_contracts(self, pam_model, n, coupling):
        # on odd grids |r1 r2| < 1 off mode 0, but theta = 0 needs n^2 tau < 1/2
        scheme = SchemeSpec(tau=coupling / n ** 2, theta=0.0)
        assert np.abs(AmplificationFactors(spectral_basis(n), scheme).r12[1:]).max() < 1.0
        with pytest.raises(ValueError, match="stability regime violated"):
            StepOperator(n, scheme, pam_model)


def _rfft_step(n, tau, theta, stepper, lam, u, xi):
    # oracle: the mode factors act on the rfft coefficients (sigma(u) = u)
    lam_j = spectral_basis(n).eigenvalues[: n // 2 + 1]
    if stepper == "theta":
        r1, r2 = 1.0 / (1.0 - theta * tau * lam_j), 1.0 + (1.0 - theta) * tau * lam_j
    else:
        r1, r2 = np.exp(tau * lam_j), 1.0
    forcing = lam * math.sqrt(n * tau) * u * xi
    return np.fft.irfft(r1 * (r2 * np.fft.rfft(u) + np.fft.rfft(forcing)), n=n)


class TestDenseAndFftRoutes:
    def test_crossover_selects_route(self, pam_model):
        scheme = SchemeSpec(tau=1e-3, theta=1.0)
        assert StepOperator(DENSE_MAX_N, scheme, pam_model).dense
        assert not StepOperator(DENSE_MAX_N + 1, scheme, pam_model).dense

    @given(n=st.integers(min_value=3, max_value=2 * DENSE_MAX_N),
           theta=st.floats(min_value=0.5, max_value=1.0),
           tau=st.floats(min_value=1e-6, max_value=0.1),
           stepper=st.sampled_from(["theta", "exponential"]),
           batch=st.sampled_from([None, 1, 5]),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    @example(n=DENSE_MAX_N, theta=1.0, tau=1e-3, stepper="theta", batch=5, seed=1)
    @example(n=DENSE_MAX_N + 8, theta=1.0, tau=1e-3, stepper="theta", batch=5, seed=2)
    @example(n=DENSE_MAX_N, theta=0.5, tau=1e-3, stepper="exponential", batch=None, seed=3)
    @example(n=DENSE_MAX_N + 8, theta=0.5, tau=1e-3, stepper="exponential", batch=1, seed=4)
    def test_apply_matches_rfft_oracle(self, n, theta, tau, stepper, batch, seed):
        lam = 1.3
        model = ModelSpec(lam=lam, sigma=SigmaSpec.linear(1.0),
                          u0=InitialData.constant(1.0))
        op = StepOperator(n, SchemeSpec(tau=tau, theta=theta, stepper=stepper), model)
        rng = np.random.default_rng(seed)
        shape = (n,) if batch is None else (batch, n)
        u, xi = 1.0 + rng.standard_normal(shape), rng.standard_normal(shape)
        got = op.apply(u, xi)
        want = _rfft_step(n, tau, theta, stepper, lam, u, xi)
        assert got.shape == shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [6, DENSE_MAX_N + 8], ids=["dense", "fft"])
    @pytest.mark.parametrize("theta", [0.75, 1.0])
    @pytest.mark.parametrize("sigma", [SigmaSpec.linear(1.3), const_sigma(0.7)],
                             ids=["linear", "table"])
    def test_apply_leaves_inputs_unchanged(self, n, theta, sigma):
        model = ModelSpec(lam=1.3, sigma=sigma, u0=InitialData.constant(1.0))
        op = StepOperator(n, SchemeSpec(tau=1e-3, theta=theta), model)
        rng = np.random.default_rng(5)
        u = 1.0 + rng.standard_normal((4, n))
        noise = rng.standard_normal((4, 3, n))
        xi = noise[:, 1, :]  # a strided slice, as the Monte Carlo loops pass
        u_before, noise_before = u.copy(), noise.copy()
        out = op.apply(u, xi)
        assert np.array_equal(u, u_before)
        assert np.array_equal(noise, noise_before)
        assert np.array_equal(out, op.apply(u, np.ascontiguousarray(xi)))

    @pytest.mark.parametrize("n", [6, DENSE_MAX_N + 8], ids=["dense", "fft"])
    @pytest.mark.parametrize("theta", [0.75, 1.0])
    def test_overflowing_forcing_is_a_blowup_without_warning(self, n, theta):
        # lambda = 1e300 with slope 1e30 overflowed the forcing of u = 1:
        # "overflow encountered in multiply", a RuntimeWarning before the
        # blow-up; the real FFT turns the infinite forcing into nans
        model = ModelSpec(lam=1e300, sigma=SigmaSpec.linear(1e30), u0=InitialData.constant(1.0))
        op = StepOperator(n, SchemeSpec(tau=1e-3, theta=theta), model)
        with pytest.raises(BlowupError) as err:
            op.apply(np.ones((2, n)), np.ones((2, n)))
        magnitude = err.value.magnitude
        assert magnitude == math.inf if op.dense else math.isnan(magnitude)

    @pytest.mark.parametrize("n", [6, DENSE_MAX_N + 8], ids=["dense", "fft"])
    @pytest.mark.parametrize("theta", [0.75, 1.0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e151],
                             ids=["nan", "inf", "-inf", "below-limit"])
    def test_blowup_magnitude(self, pam_model, n, theta, bad):
        # one row constant at `bad`: R1 keeps constants, so with sigma(u) = u
        # and unit noise the step scales it by 1 + noise_amp; a row of infs
        # reports inf on both routes, though the real FFT turns it into nans
        op = StepOperator(n, SchemeSpec(tau=1e-3, theta=theta), pam_model)
        u = np.ones((3, n))
        u[1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(BlowupError) as err:
            op.apply(u, np.ones((3, n)))
        want = abs(bad) * (1.0 + op.noise_amp)
        if math.isnan(want):
            assert math.isnan(err.value.magnitude)
        else:
            assert err.value.magnitude == pytest.approx(want, rel=1e-12)
        assert err.value.step_index == -1


class TestExponentialIntegrator:
    def test_exact_mode_decay(self, quiet_model):
        n, tau, steps = 8, 0.01, 30
        op = StepOperator(n, SchemeSpec(tau=tau, theta=1.0, stepper="exponential"),
                          quiet_model)
        lam1 = spectral_basis(n).eigenvalues[1]
        u = np.cos(2 * np.pi * np.arange(n) / n)
        for _ in range(steps):
            u = op.apply(u, np.zeros(n))
        expected = math.exp(steps * tau * lam1) * np.cos(2 * np.pi * np.arange(n) / n)
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_constant_preserved(self, quiet_model):
        op = StepOperator(6, SchemeSpec(tau=0.05, theta=0.5, stepper="exponential"),
                          quiet_model)
        u = op.apply(np.full(6, 1.5), np.zeros(6))
        assert np.allclose(u, 1.5, atol=1e-14)

    def test_per_step_agreement_order_two(self):
        # one deterministic step: |R1 R2 - e^{tau lam}| = O(tau^2) for theta != 1/2
        n, theta = 8, 1.0
        lam1 = spectral_basis(n).eigenvalues[1]
        taus = np.array([1e-3 / 2 ** k for k in range(5)])
        errs = []
        for tau in taus:
            r = (1.0 + (1.0 - theta) * tau * lam1) / (1.0 - theta * tau * lam1)
            errs.append(abs(r - math.exp(tau * lam1)))
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)


class TestSimulate:
    def test_zero_steps_returns_initial(self, pam_model):
        states = simulate(GridSpec(4), SchemeSpec(tau=0.1, theta=1.0), pam_model,
                          NoiseSeed(0), record_indices=[0])
        assert np.array_equal(states[0], np.ones(4))

    def test_same_seed_identical(self, pam_model):
        grid, scheme = GridSpec(8), SchemeSpec(tau=1e-3, theta=1.0)
        a = simulate(grid, scheme, pam_model, NoiseSeed(9), range(0, 51, 10))
        b = simulate(grid, scheme, pam_model, NoiseSeed(9), range(0, 51, 10))
        assert np.array_equal(a, b)
        assert a.shape == b.shape == (6, 8)

    def test_chunked_noise_continues_the_stream(self, pam_model, monkeypatch):
        # chunks of at most 3 steps (3, 3, 2, 2) give the bits of one whole read
        grid, scheme, seed = GridSpec(8), SchemeSpec(tau=1e-3, theta=1.0), NoiseSeed(9)
        op = StepOperator(grid.n, scheme, pam_model)
        u, want = pam_model.u0.values(grid), []
        for i, xi in enumerate(sample_block(seed, 10, grid.n), start=1):
            u = op.apply(u, xi)
            if i in (3, 4, 10):
                want.append(u)
        monkeypatch.setattr(shelab.noise, "NOISE_CHUNK_CELLS", 3 * grid.n)
        assert np.array_equal(simulate(grid, scheme, pam_model, seed, [3, 4, 10]), want)

    def test_blowup_in_a_later_chunk_names_its_step(self, monkeypatch):
        # chunks of at most 3 steps: the step named is the one at which
        # stepping the whole block blows up
        grid, scheme, seed = GridSpec(4), SchemeSpec(tau=0.1, theta=1.0), NoiseSeed(2)
        model = ModelSpec(lam=1e30, sigma=SigmaSpec.linear(1.0), u0=InitialData.constant(1.0))
        op = StepOperator(grid.n, scheme, model)
        u, horizon = model.u0.values(grid), None
        for i, xi in enumerate(sample_block(seed, 20, grid.n), start=1):
            try:
                u = op.apply(u, xi)
            except BlowupError:
                horizon = i
                break
        assert horizon is not None and horizon > 3
        monkeypatch.setattr(shelab.noise, "NOISE_CHUNK_CELLS", 3 * grid.n)
        with pytest.raises(BlowupError) as err:
            simulate(grid, scheme, model, seed, [20])
        assert err.value.step_index == horizon

    def test_noise_held_in_one_chunk(self, pam_model):
        # 4096 steps at n = 1024 are four chunks of 8 MiB; one read of the
        # whole 32 MiB path with its raw words peaked near 96 MiB
        grid, scheme = GridSpec(1024), SchemeSpec(tau=1e-3, theta=1.0)
        assert 4096 * grid.n == 4 * NOISE_CHUNK_CELLS
        tracemalloc.start()
        try:
            simulate(grid, scheme, pam_model, NoiseSeed(9), [4096])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20

    def test_invalid_config_rejected(self, pam_model):
        with pytest.raises(ValueError, match="invalid run configuration"):
            simulate(GridSpec(2), SchemeSpec(tau=0.1, theta=1.0), pam_model,
                     NoiseSeed(0), [0, 1])

    def test_one_step_covariance(self):
        # smallest grid: covariance of one step from constant data is
        # lam^2 n tau sigma(I0)^2 R1 R1^T
        n, tau, theta, lam = 3, 0.01, 1.0, 0.8
        model = ModelSpec(lam=lam, sigma=SigmaSpec.linear(1.0),
                          u0=InitialData.constant(1.0))
        scheme = SchemeSpec(tau=tau, theta=theta)
        op = StepOperator(n, scheme, model)
        paths = 100_000
        xi = sample_block(NoiseSeed(123, purpose="cov"), paths, n)
        states = op.apply(np.ones((paths, n)), xi)
        centered = states - states.mean(axis=0)
        emp = centered.T @ centered / paths
        r1h = 1.0 / (1.0 - theta * tau * spectral_basis(n).eigenvalues[: n // 2 + 1])
        r1_mat = circulant(np.fft.irfft(r1h, n)).T
        expected = lam ** 2 * n * tau * r1_mat @ r1_mat.T
        rel = np.linalg.norm(emp - expected) / np.linalg.norm(expected)
        assert rel < 0.02

    def test_additive_linearity_in_noise(self):
        # sigma const: the map noise -> solution is affine with fixed point u0
        n, tau, steps = 8, 0.01, 12
        model = ModelSpec(lam=1.0, sigma=const_sigma(0.7), u0=InitialData.constant(1.0))
        op = StepOperator(n, SchemeSpec(tau=tau, theta=1.0), model)
        xa = sample_block(NoiseSeed(1, path=0), steps, n)
        xb = sample_block(NoiseSeed(1, path=1), steps, n)

        def run(xi):
            u = np.ones(n)
            for i in range(steps):
                u = op.apply(u, xi[i])
            return u

        combined = run(xa + xb)
        assert np.max(np.abs(run(xa) + run(xb) - np.ones(n) - combined)) < 1e-12

    def test_blowup_diagnostic(self):
        model = ModelSpec(lam=1e160, sigma=SigmaSpec.linear(1.0),
                          u0=InitialData.constant(1.0))
        with pytest.raises(BlowupError, match="blow-up horizon"):
            simulate(GridSpec(4), SchemeSpec(tau=0.1, theta=1.0), model,
                     NoiseSeed(2), [0, 5])

    def test_exponential_stepper_path(self, pam_model):
        # full pipeline with the exponential integrator; same noise stream
        # as the theta run, so trajectories differ only via the mode factors
        grid = GridSpec(8)
        exp_traj = simulate(grid, SchemeSpec(tau=1e-3, theta=1.0,
                                             stepper="exponential"),
                            pam_model, NoiseSeed(3), [50])
        theta_traj = simulate(grid, SchemeSpec(tau=1e-3, theta=1.0),
                              pam_model, NoiseSeed(3), [50])
        diff = np.abs(exp_traj - theta_traj).max()
        assert 0.0 < diff < 0.05
