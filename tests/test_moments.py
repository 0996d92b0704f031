import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from shelab.kernels import SpectralBasis
from shelab.model import GridSpec, InitialData, ModelSpec, SchemeSpec, SigmaSpec
from shelab.moments import (NOISE_CHUNK_CELLS, MomentSeries,
                            exact_second_moment_recursion, fit_growth,
                            intermittency_report, lambda_scaling_sweep,
                            mc_moment, second_moment_series)
from shelab.noise import NoiseSeed, sample_block
from shelab.solver import DENSE_MAX_N, BlowupError, StepOperator
from shelab.stability import positivity_time_full


def _jackknife_se(samples: np.ndarray) -> float:
    # delete-one jackknife of the mean reduces to the classical SE formula
    # that mc_moment reports
    n = len(samples)
    if n < 2:
        return float("nan")
    mean = samples.mean()
    return float(np.sqrt(np.sum((samples - mean) ** 2) / (n * (n - 1))))


def assert_symmetric_psd(m, tol: float = 1e-10):
    """M is symmetric and has no eigenvalue below -tol * trace(M)."""
    assert np.allclose(m, m.T, atol=1e-12 * max(1.0, np.abs(m).max()))
    floor = -tol * np.trace(m)
    w = np.linalg.eigvalsh((m + m.T) / 2.0)
    if w.min() < floor:
        raise AssertionError(f"moment matrix lost PSD: min eig {w.min():.3g}")


def diagonals(moments):
    """(records, n) diagonals of the recorded moment matrices."""
    return moments.matrices.diagonal(axis1=1, axis2=2)


def make(n, tau, theta, lam, slope=1.0, i0=1.0, stepper="theta"):
    return (GridSpec(n), SchemeSpec(tau=tau, theta=theta, stepper=stepper),
            ModelSpec(lam=lam, sigma=SigmaSpec.linear(slope),
                      u0=InitialData.constant(i0)))


def assert_matches_reference_loop(grid, scheme, model, steps, paths, record, orders=(2.0, 4.0),
                                  seed=11):
    """mc_moment at probe "min" equals, bit for bit, a loop that draws each
    path with sample_block, takes |u| per path and merges the batches'
    squared deviations pairwise (Chan et al.)."""
    batch = int(4e6 / (steps * grid.n))
    # the first batch reads its noise in several chunks
    assert batch * steps * grid.n > NOISE_CHUNK_CELLS
    got = mc_moment(grid, scheme, model, list(orders), "min",
                    [i * scheme.tau for i in record], paths, seed=seed)
    op = StepOperator(grid.n, scheme, model)
    s1 = np.zeros((len(record), len(orders)))
    m2 = np.zeros_like(s1)
    for start in range(0, paths, batch):
        count = min(batch, paths - start)
        xi = np.stack([sample_block(NoiseSeed(seed, path=start + k, purpose="mc"),
                                    steps, grid.n) for k in range(count)])
        states = np.tile(model.u0.values(grid), (count, 1))
        for i in range(steps + 1):
            if i:
                states = op.apply(states, xi[:, i - 1, :])
            if i in record:
                base = np.abs(states).min(axis=1)
                for k, q in enumerate(orders):
                    r, sample = record.index(i), base ** q
                    mean = np.sum(sample) / count
                    dev = np.sum((sample - mean) ** 2)
                    if start:
                        delta = mean - s1[r, k] / start
                        dev += delta * delta * start * count / (start + count)
                    s1[r, k] += np.sum(sample)
                    m2[r, k] += dev
    for k, series in enumerate(got):
        values = s1[:, k] / paths
        assert np.array_equal(series.values, values)
        assert np.array_equal(series.stderr, np.sqrt(m2[:, k] / (paths * (paths - 1))))


class TestExactRecursion:
    def test_zero_noise_is_constant(self):
        grid, scheme, model = make(5, 0.01, 1.0, 0.0, i0=2.0)
        mats = exact_second_moment_recursion(grid, scheme, model, 30)
        for m in mats.matrices:
            assert np.allclose(m, 4.0 * np.ones((5, 5)), atol=1e-10)

    def test_one_step_hand_formula(self):
        # theta=0, u0 = I0, sigma = id: M1_jj = I0^2 (1 + lam^2 n tau)
        n, tau, lam, i0 = 8, 1e-3, 1.3, 0.7
        grid, scheme, model = make(n, tau, 0.0, lam, i0=i0)
        mats = exact_second_moment_recursion(grid, scheme, model, 1)
        assert np.allclose(diagonals(mats)[1],
                           i0 ** 2 * (1.0 + lam ** 2 * n * tau), rtol=1e-12)

    def test_matrices_stay_symmetric_psd(self):
        grid, scheme, model = make(6, 1e-3, 1.0, 1.5)
        mats = exact_second_moment_recursion(grid, scheme, model, 400, record_every=50)
        for m in mats.matrices:
            assert_symmetric_psd(m)

    @pytest.mark.parametrize("steps,record_every,field", [(-3, 1, "steps"),
                                                          (5, 0, "record_every")])
    def test_bad_steps_and_record_every(self, steps, record_every, field):
        grid, scheme, model = make(8, 1e-3, 1.0, 1.0)
        with pytest.raises(ValueError, match=field):
            exact_second_moment_recursion(grid, scheme, model, steps,
                                          record_every=record_every)

    @pytest.mark.parametrize("steps,record_every", [(0, 1), (0, 4), (1, 1), (1, 3), (5, 9),
                                                    (10, 3), (12, 4)])
    @pytest.mark.parametrize("theta", [0.75, 1.0])
    @pytest.mark.parametrize("n", [6, DENSE_MAX_N + 8], ids=["dense", "fft"])
    @pytest.mark.parametrize("constant", [True, False], ids=["constant", "samples"])
    def test_recorded_steps_and_no_aliasing(self, constant, n, theta, steps, record_every):
        # the record rule (0, multiples of record_every, the last step) for
        # both routes, and records that share no memory: a record aliasing
        # another, or the working matrix, would change with later writes
        u0 = np.full(n, 0.9) if constant else 0.9 + 0.3 * np.cos(2 * np.pi * np.arange(n) / n)
        model = ModelSpec(lam=1.2, sigma=SigmaSpec.linear(1.0),
                          u0=InitialData.grid_samples(u0))
        grid, scheme = GridSpec(n), SchemeSpec(tau=2e-3, theta=theta)
        mats = exact_second_moment_recursion(grid, scheme, model, steps,
                                             record_every=record_every)
        assert mats.steps.tolist() == sorted({*range(0, steps + 1, record_every), steps})
        assert mats.matrices.shape == (len(mats.steps), n, n)
        for i, m in zip(mats.steps.tolist(), mats.matrices):
            last = exact_second_moment_recursion(grid, scheme, model, i,
                                                 record_every=max(1, i)).matrices[-1]
            assert np.max(np.abs(m - last)) <= 1e-12 * np.max(np.abs(last))
        before = mats.matrices.copy()
        for r in range(len(mats.steps)):
            mats.matrices[r] = np.nan
            others = np.arange(len(mats.steps)) != r
            assert np.array_equal(mats.matrices[others], before[others])
            mats.matrices[r] = before[r]

    @pytest.mark.parametrize("probe", [8, -1, 2.0, "max", True])
    def test_series_probe_validated(self, probe):
        grid, scheme, model = make(8, 1e-3, 1.0, 1.0)
        mats = exact_second_moment_recursion(grid, scheme, model, 2)
        with pytest.raises(ValueError, match="probe"):
            second_moment_series(mats, scheme.tau, probe=probe)
        assert second_moment_series(mats, scheme.tau, probe=np.int64(7)).values[0] == 1.0

    def test_nonlinear_sigma_unsupported(self):
        sigma = SigmaSpec.table([(-1, -1), (0, 0), (2, 1)])
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
        t_pos = positivity_time_full(n, tau, theta)
        fit = fit_growth(series, window=(max(t_pos, 20.0), steps * tau))
        assert fit.gamma >= math.log1p(lam ** 2 * tau) / tau - fit.ci_halfwidth

    def test_reverse_gronwall_continuous_form(self):
        # y(t) >= a + b int_0^t y  ==>  y(t) >= e^{b(t-s)}(a + b int_0^s y)
        grid, scheme, model = make(4, 1e-3, 1.0, 1.0)
        mats = exact_second_moment_recursion(grid, scheme, model, 2000, record_every=1)
        y = diagonals(mats).min(axis=1)
        t = np.arange(len(y)) * scheme.tau
        alpha, beta = 1.0, model.lam ** 2  # I0 = J0 = 1: u0 = 1, sigma(x) = x
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
        y = diagonals(mats).min(axis=1)
        alpha = 1.0  # I0 = J0 = 1: u0 = 1, sigma(x) = x
        beta = model.lam ** 2 * scheme.tau
        n_start = len(y) // 3
        base = alpha + beta * np.sum(y[:n_start])
        ls = np.arange(len(y) - n_start)
        assert np.all(y[n_start:] >= base * (1.0 + beta) ** ls * (1.0 - 1e-9))

    @pytest.mark.parametrize("stepper,theta,n,constant", [
        pytest.param(stepper, theta, n, constant, id=name + size + samples)
        for constant, samples, sizes in (
            (True, "", ((6, ""), (DENSE_MAX_N + 8, "-fft"))),
            (False, "-samples", ((6, ""), (DENSE_MAX_N + 8, "-fft"),
                                 (7, "-odd"), (DENSE_MAX_N + 9, "-fft-odd"))))
        for n, size in sizes
        for name, stepper, theta in (("theta", "theta", 0.75),
                                     ("exponential", "exponential", 0.75),
                                     ("theta1", "theta", 1.0))])
    def test_against_dense_matrix_recursion(self, stepper, theta, n, constant):
        # clarity-route oracle: iterate the same recursion with explicit
        # circulant matrices, even and odd n on both sides of the solver's
        # dense/FFT crossover; constant u0 takes the closed form, samples
        # the stepping loop.  R2 = I at theta = 1 and for the exponential
        # stepper at any theta.
        from scipy.linalg import circulant

        from shelab.kernels import spectral_basis
        tau, lam, steps = 2e-3, 1.2, 50
        grid, scheme, model = make(n, tau, theta, lam, i0=0.9, stepper=stepper)
        u0 = model.u0.values(grid)
        if not constant:
            u0 = u0 + 0.3 * np.sin(2 * np.pi * np.arange(n) / n)
            model = ModelSpec(lam=lam, sigma=model.sigma, u0=InitialData.grid_samples(u0))
        half = spectral_basis(n).eigenvalues[: n // 2 + 1]
        if stepper == "theta":
            r1h, r2h = 1.0 / (1.0 - theta * tau * half), 1.0 + (1.0 - theta) * tau * half
        else:
            r1h, r2h = np.exp(tau * half), np.ones_like(half)
        r1 = circulant(np.fft.irfft(r1h, n)).T
        r2 = circulant(np.fft.irfft(r2h, n)).T
        b = r1 @ r2
        gain = lam ** 2 * n * tau
        m_dense = np.outer(u0, u0)
        for _ in range(steps):
            m_dense = b @ m_dense @ b.T + gain * r1 @ np.diag(np.diag(m_dense)) @ r1.T
        mats = exact_second_moment_recursion(grid, scheme, model, steps,
                                             record_every=steps)
        assert np.allclose(mats.matrices[-1], m_dense, rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("constant,stepped", [(True, False), (False, True)],
                             ids=["constant", "samples"])
    def test_constant_data_skips_the_stepping_loop(self, monkeypatch, constant, stepped):
        # the stepping loop, and only it, builds Green matrices: circulant
        # calls with one coefficient row (the closed form passes a batch of
        # moment eigenvalue rows)
        calls = []

        def counting(self, coeff):
            if np.ndim(coeff) == 1:
                calls.append(1)
            return circulant(self, coeff)

        circulant = SpectralBasis.circulant
        monkeypatch.setattr(SpectralBasis, "circulant", counting)
        n = DENSE_MAX_N + 8
        u0 = np.full(n, 0.9) if constant else 0.9 + 0.3 * np.cos(2 * np.pi * np.arange(n) / n)
        model = ModelSpec(lam=1.2, sigma=SigmaSpec.linear(1.0),
                          u0=InitialData.grid_samples(u0))
        exact_second_moment_recursion(GridSpec(n), SchemeSpec(tau=2e-3, theta=0.75),
                                      model, 5)
        assert bool(calls) == stepped

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
            diags[stepper] = mats.matrices[-1, 0, 0]
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
            t_pos = positivity_time_full(n, tau, theta)
            fit = fit_growth(series, window=(max(t_pos, 0.6), steps * tau))
            gammas[theta] = fit.gamma
        assert abs(gammas[1.0] - gammas[0.0]) <= 0.1 * max(gammas.values())


def _mode_factors(n, tau, theta, stepper):
    lam = -4.0 * n * n * np.sin(np.arange(n) * np.pi / n) ** 2
    if stepper == "exponential":
        return np.exp(tau * lam), np.ones(n)
    return 1.0 / (1.0 - theta * tau * lam), 1.0 + (1.0 - theta) * tau * lam


@given(n=st.integers(min_value=3, max_value=DENSE_MAX_N + 40),
       theta=st.floats(min_value=0.0, max_value=1.0),
       tau=st.floats(min_value=1e-6, max_value=1e-2),
       lam=st.floats(min_value=0.0, max_value=3.0),
       slope=st.floats(min_value=-2.0, max_value=2.0),
       i0=st.floats(min_value=0.1, max_value=2.0),
       steps=st.integers(min_value=0, max_value=60),
       record_every=st.integers(min_value=1, max_value=25),
       stepper=st.sampled_from(["theta", "exponential"]))
@settings(max_examples=40, deadline=None)
def test_closed_form_matches_stepping(n, theta, tau, lam, slope, i0, steps, record_every,
                                      stepper):
    # constant u0: the closed form against stepping the recursion with
    # explicit circulant matrices built from the mode factors
    if stepper == "theta" and theta < 0.5:
        tau = min(tau, 0.95 / ((2.0 - 4.0 * theta) * n * n))  # inside the explicit bound
    grid, scheme, model = make(n, tau, theta, lam, slope=slope, i0=i0, stepper=stepper)
    mats = exact_second_moment_recursion(grid, scheme, model, steps, record_every=record_every)
    r1, r2 = _mode_factors(n, tau, theta, stepper)
    lag = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    g1, g2 = np.fft.ifft(r1 * r2).real[lag], np.fft.ifft(r1).real[lag]
    gain = lam ** 2 * n * tau * slope ** 2
    m = np.full((n, n), i0) * i0
    want = {0: m}
    for i in range(1, steps + 1):
        m = g1 @ m @ g1 + (g2 * (gain * np.diag(m))) @ g2
        want[i] = m
    record = sorted({*range(0, steps + 1, record_every), steps})
    assert mats.steps.tolist() == record
    assert np.array_equal(mats.matrices[0],
                          np.outer(model.u0.values(grid), model.u0.values(grid)))
    for i, mm in zip(mats.steps, mats.matrices):
        ref = want[i]
        assert np.max(np.abs(mm - ref)) <= 1e-11 * np.max(np.abs(ref))


def _renewal_gamma2(n, tau, theta, lam, slope=1.0):
    """gamma_2 = log(rho)/tau from the discrete renewal equation
    lam^2 tau c^2 sum_j r1_j^2 / (rho - b_j^2) = 1, b = r1 r2, solved for
    x = rho - 1 on (max b^2 - 1, oo) where the left side falls from oo."""
    r1, r2 = _mode_factors(n, tau, theta, "theta")
    b = r1 * r2
    gap = (1.0 - b) * (1.0 + b)  # 1 - b^2 without cancellation
    k = lam ** 2 * tau * slope ** 2

    def f(x):
        return k * np.sum(r1 * r1 / (x + gap)) - 1.0

    lo = -gap.min() + 1e-3 * k * r1[np.argmin(gap)] ** 2  # f(lo) >= 999
    hi = -gap.min() + 2.0 * k * np.sum(r1 * r1)  # f(hi) < 0
    x = brentq(f, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    return math.log1p(x) / tau


@pytest.mark.parametrize("n,theta,lam", [(8, 1.0, 1.0), (13, 0.5, 2.0), (16, 1.0, 2.0)])
def test_renewal_root_matches_exact_series_slope(n, theta, lam):
    # the series' fitted growth on [3, 6] is the renewal root's rate
    tau = 1e-3
    grid, scheme, model = make(n, tau, theta, lam)
    mats = exact_second_moment_recursion(grid, scheme, model, 6000, record_every=10)
    fit = fit_growth(second_moment_series(mats, tau, probe=0), window=(3.0, 6.0))
    root = _renewal_gamma2(n, tau, theta, lam)
    assert fit.gamma == pytest.approx(root, rel=1e-11)


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
        exact = dict(zip(mats.steps.tolist(), mats.matrices[:, 0, 0]))
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

    @pytest.mark.parametrize("probe", [8, -1, "max"])
    def test_probe_validated(self, probe):
        grid, scheme, model = make(8, 1e-3, 1.0, 1.0)
        with pytest.raises(ValueError, match="probe"):
            mc_moment(grid, scheme, model, 2, probe, [0.001], 4, seed=0)

    def test_stderr_two_pass_under_weak_noise(self):
        # the tally of squared deviations must not cancel when the moment is
        # dominated by its mean: compare with a two-pass std over the same paths
        grid, scheme, model = make(8, 1e-3, 1.0, 1e-7)
        paths, record = 200, [10, 20]
        got = mc_moment(grid, scheme, model, [2, 4], 0, [i * scheme.tau for i in record],
                        paths, seed=5)
        op = StepOperator(grid.n, scheme, model)
        xi = np.stack([sample_block(NoiseSeed(5, path=k, purpose="mc"), record[-1], grid.n)
                       for k in range(paths)])
        states = np.ones((paths, grid.n))
        probe = {}
        for i in range(1, record[-1] + 1):
            states = op.apply(states, xi[:, i - 1, :])
            if i in record:
                probe[i] = np.abs(states[:, 0])
        for series in got:
            want = [np.std(probe[i] ** series.p, ddof=1) / math.sqrt(paths) for i in record]
            assert np.all(np.asarray(want) > 0.0)
            assert np.allclose(series.stderr, want, rtol=1e-6, atol=0.0)

    def test_jackknife_identity_against_explicit(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(200) * 3.0 + 1.0
        n = len(x)
        loo = (x.sum() - x) / (n - 1)
        explicit = math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))
        assert _jackknife_se(x) == pytest.approx(explicit, rel=1e-12)

    def test_matches_reference_loop_over_batches(self):
        # every path reads its own "mc" stream whatever the batching; the
        # reference draws each path with sample_block and tallies per batch,
        # merging the batches' squared deviations pairwise (Chan et al.)
        grid, scheme, model = make(64, 1e-4, 1.0, 1.0)
        steps, paths = 1000, 130
        assert int(4e6 / (steps * grid.n)) < paths
        assert_matches_reference_loop(grid, scheme, model, steps, paths, [0, 300, 1000])

    def test_tall_batches_match_reference_loop(self):
        # batches of more paths than grid points, as in pam-hierarchy: the
        # grid minimum is taken across columns, the reference takes it per path
        grid, scheme, model = make(8, 1e-3, 1.0, 1.0)
        steps, paths = 400, 2600
        assert grid.n < int(4e6 / (steps * grid.n)) < paths
        assert_matches_reference_loop(grid, scheme, model, steps, paths, [0, 1, 250, 400])

    def test_blowup_in_later_chunk_matches_whole_block(self):
        # a path blows up at step 366 of 400, in the last of four 100-step
        # chunks: the series stops at the same record as stepping one
        # whole (paths, steps, n) block until the first blow-up
        grid, scheme, model = make(8, 1e-3, 1.0, 40.0)
        steps, paths, seed = 400, 1000, 5
        record = list(range(0, steps + 1, 10))
        rows = NOISE_CHUNK_CELLS // (paths * grid.n)
        got = mc_moment(grid, scheme, model, [1.0], "min",
                        [i * scheme.tau for i in record], paths, seed=seed)
        op = StepOperator(grid.n, scheme, model)
        xi = np.stack([sample_block(NoiseSeed(seed, path=k, purpose="mc"), steps, grid.n)
                       for k in range(paths)])
        states = np.tile(model.u0.values(grid), (paths, 1))
        bases, horizon = [], None
        for i in range(steps + 1):
            if i:
                try:
                    states = op.apply(states, xi[:, i - 1, :])
                except BlowupError:
                    horizon = i
                    break
            if i in record:
                bases.append(np.abs(states).min(axis=1))
        assert horizon is not None and rows < horizon - 1
        kept = np.array([i for i in record if i < horizon])
        for series in got:
            assert series.horizon_reached
            assert np.array_equal(series.times, kept * scheme.tau)
            assert np.array_equal(series.values,
                                  [np.sum(b ** series.p) / paths for b in bases])

    def test_noise_held_in_one_chunk(self):
        # pam-hierarchy's sizes: 4 chunks of 125 steps (7.6 MiB each) instead
        # of the whole (1000, 500, 8) block (30.5 MiB)
        grid, scheme, model = make(8, 1e-3, 1.0, 1.0)
        tracemalloc.start()
        try:
            mc_moment(grid, scheme, model, [2, 4], "min", [0.1, 0.5], 1000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20

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
        series = MomentSeries(times=t, values=np.exp(3.0 * t), p=2)
        fit = fit_growth(series, window=(0.0, 5.0))
        assert fit.gamma == pytest.approx(3.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_exponential(self):
        t = np.linspace(0, 5, 200)
        series = MomentSeries(times=t, values=np.exp(3.0 * t) * (1 + 0.01 * np.sin(t)),
                              p=2)
        fit = fit_growth(series, window=(0.0, 5.0))
        assert 2.9 <= fit.gamma <= 3.1

    def test_window_requirements(self):
        t = np.linspace(0, 1, 10)
        series = MomentSeries(times=t, values=np.exp(t), p=2)
        with pytest.raises(ValueError, match="5 points"):
            fit_growth(series, window=(0.9, 1.0))
        bad = MomentSeries(times=t, values=np.concatenate([[-1.0], np.exp(t[1:])]),
                           p=2)
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

    @pytest.mark.parametrize("lambdas,usable", [([1.0], "1 of 1"), ([], "0 of 0")])
    def test_fewer_than_two_points_rejected(self, lambdas, usable):
        with pytest.raises(ValueError, match=usable):
            lambda_scaling_sweep(zeta=1.0, lambdas=lambdas, theta=1.0)

    @pytest.mark.parametrize("key,value", [("zeta", 0.0), ("zeta", -2.0), ("zeta", math.nan),
                                           ("zeta", math.inf), ("sigma_slope", 0.0),
                                           ("sigma_slope", math.nan)])
    def test_bad_zeta_or_slope_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            lambda_scaling_sweep(lambdas=[1.0, 1.5], **{"zeta": 1.0, key: value})

    def test_all_points_flagged_rejected(self):
        # theta = 0 at n^2 tau ~ 2 violates the explicit stability bound
        with pytest.raises(ValueError, match="0 of 2.*stability violated"):
            lambda_scaling_sweep(zeta=1.0, lambdas=[1.0, 1.5], theta=0.0, gate_safety=100.0)

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
