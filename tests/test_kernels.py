import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shelab.kernels import (CROSSOVER_TIME, IMAGE_TERMS, SPECTRAL_TERMS,
                            AmplificationFactors, StabilityViolation,
                            full_green, full_green_grid,
                            full_green_square_integral, heat_kernel,
                            heat_kernel_square_integral, semi_green,
                            semi_green_grid, semi_green_square_integral,
                            spectral_basis)
from shelab.model import SchemeSpec
from shelab.solver import mode_factors


def quad_unit_interval(fn, panels=512, order=8):
    x, w = np.polynomial.legendre.leggauss(order)
    nodes = (np.arange(panels)[:, None] + 0.5 * (x + 1.0)[None, :]) / panels
    return float(np.sum(fn(nodes.ravel()).reshape(panels, order) * 0.5 * w) / panels)


def broadcast_spectral_sum(t, d, terms):
    """1 + 2 sum_j cos(2 pi j d) e^{-4 pi^2 j^2 t} through a times x points x
    modes tensor: the direct form the kernels' matrix product replaces."""
    j = np.arange(1, terms + 1)
    cos = np.cos(2.0 * np.pi * np.multiply.outer(np.asarray(d, dtype=float), j))
    t = np.asarray(t, dtype=float)
    t = t.reshape(t.shape + (1,) * cos.ndim)
    return 1.0 + 2.0 * (cos * np.exp(-4.0 * np.pi ** 2 * j ** 2 * t)).sum(axis=-1)


class TestSpectralBasis:
    @pytest.mark.parametrize("n", [3, 4, 8, 17, 64])
    def test_eigenvalue_invariants(self, n):
        lam = spectral_basis(n).eigenvalues
        assert lam[0] == 0.0
        assert np.allclose(lam[1:], lam[:0:-1], rtol=1e-12)
        assert np.all(lam >= -4.0 * n * n - 1e-9) and np.all(lam <= 0.0)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=3, max_value=32))
    @settings(max_examples=60)
    def test_interpolated_mode_bounded(self, x, n):
        basis = spectral_basis(n)
        assert np.all(basis.mode_abs2_interp(x) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_mode_unit_at_grid_points(self, n):
        basis = spectral_basis(n)
        for k in range(n):
            assert np.allclose(basis.mode_abs2_interp(k / n), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 7, 8])
    def test_circulant_has_the_mode_eigenvalues(self, n):
        # exactly symmetric, and each grid mode e_j is an eigenvector with
        # eigenvalue coeff_j
        basis = spectral_basis(n)
        coeff = 1.0 / (1.0 - 0.01 * basis.eigenvalues)  # even in j, like every mode factor
        mat = basis.circulant(coeff)
        assert np.array_equal(mat, mat.T)
        modes = basis._grid_modes(np.arange(n))  # modes[j, q] = e_j(q/n)
        assert np.allclose(modes @ mat, coeff[:, None] * modes, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("scheme", [SchemeSpec(tau=1e-3, theta=1.0),
                                        SchemeSpec(tau=1e-3, theta=1.0, stepper="exponential"),
                                        SchemeSpec(tau=2e-3, theta=0.5)],
                             ids=["theta", "exponential", "crank-nicolson"])
    def test_circulant_row_sums_conserve_mass(self, n, scheme):
        # every row of a Green matrix sums to its mode-0 factor r1_0 r2_0 = 1;
        # theta = 1/2 is the hard case: r1 r2 nears -1 at the top modes
        basis = spectral_basis(n)
        r1, r2 = mode_factors(basis, scheme)
        rows = basis.circulant(r1 * r2).sum(axis=1)
        assert np.max(np.abs(rows - 1.0)) <= 2e-15


class TestHeatKernel:
    def test_domain_error(self):
        with pytest.raises(ValueError):
            heat_kernel(0.0, 0.1, 0.2)
        with pytest.raises(ValueError):
            heat_kernel_square_integral(-1.0)

    def test_series_agree_at_crossover(self):
        from shelab.kernels import _heat_kernel_image, _heat_kernel_spectral
        t = CROSSOVER_TIME
        for d in (0.0, 0.13, 0.49):
            image = _heat_kernel_image(t, d, IMAGE_TERMS)
            spectral = _heat_kernel_spectral(t, d, SPECTRAL_TERMS)
            assert abs(image - spectral) < 1e-10

    @given(times=st.lists(st.floats(min_value=CROSSOVER_TIME, max_value=50.0),
                          min_size=1, max_size=6),
           d=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=9))
    @example(times=[CROSSOVER_TIME, 0.1, 1.0, 100.0], d=np.linspace(-1.0, 1.0, 2049).tolist())
    @settings(max_examples=40, deadline=None)
    def test_spectral_product_matches_broadcast_sum(self, times, d):
        from shelab.kernels import _heat_kernel_spectral
        t, d = np.array(times), np.array(d)
        got = _heat_kernel_spectral(t, d, SPECTRAL_TERMS)
        want = broadcast_spectral_sum(t, d, SPECTRAL_TERMS)
        assert got.shape == want.shape == (len(t), len(d))
        tol = 1e-14 * np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= tol)

    def test_against_brute_force_spectral(self):
        j = np.arange(1, 2001)
        brute = 1.0 + 2.0 * np.sum(np.exp(-4 * np.pi ** 2 * j ** 2 * 0.1))
        assert abs(heat_kernel(0.1, 0.3, 0.3) - brute) < 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40)
    def test_symmetry_and_translation(self, s):
        t, x, y = 0.07, 0.3, 0.8
        g = heat_kernel(t, x, y)
        assert heat_kernel(t, y, x) == pytest.approx(g, abs=1e-13)
        assert heat_kernel(t, (x + s) % 1.0, (y + s) % 1.0) == pytest.approx(g, abs=1e-10)

    @pytest.mark.parametrize("t", [1e-3, 0.04, 0.3, 5.0])
    def test_conservation_by_quadrature(self, t):
        mass = quad_unit_interval(lambda y: heat_kernel(t, 0.37, y))
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_square_integral_identities(self):
        # large time: only the constant mode survives
        assert heat_kernel_square_integral(50.0) == pytest.approx(1.0, abs=1e-15)
        # explicit lower bound at t = 0.01
        assert heat_kernel_square_integral(0.01) >= 1.0 / math.sqrt(0.08 * math.pi)
        # equals quadrature of the squared kernel
        for t in (0.003, 0.05, 0.7):
            quad = quad_unit_interval(lambda y: heat_kernel(t, 0.37, y) ** 2)
            assert heat_kernel_square_integral(t) == pytest.approx(quad, abs=1e-9)


@given(n=st.integers(min_value=3, max_value=40),
       t=st.floats(min_value=0.0, max_value=1.0),
       tau=st.floats(min_value=1e-4, max_value=0.5),
       theta=st.floats(min_value=0.5, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_grid_points_match_cosine_route(n, t, tau, theta):
    # interpolated complex modes at (q/n, l/n) against the inverse real
    # FFT of grid_values, for the semi- and fully discrete kernels
    basis = spectral_basis(n)
    factors = AmplificationFactors(basis, tau, theta)
    x = np.arange(n)[:, None] / n
    y = np.arange(n)[None, :] / n
    d = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    assert np.allclose(semi_green(t, x, y, basis), semi_green_grid(t, basis)[d],
                       rtol=0.0, atol=1e-12)
    for which in ("G1", "G2"):
        assert np.allclose(full_green(t, x, y, which, factors),
                           full_green_grid(t, which, factors)[d], rtol=0.0, atol=1e-12)


def _assert_stacks_scalar_calls(fn, times):
    # an array of times gives the stack of the scalar calls
    arr = fn(times)
    stack = np.stack([np.asarray(fn(float(t))) for t in times])
    assert arr.shape == stack.shape
    assert np.max(np.abs(arr - stack)) <= 1e-13 * np.max(np.abs(stack))


@given(n=st.integers(min_value=3, max_value=40),
       theta=st.sampled_from([0.5, 0.75, 1.0]),
       tau=st.floats(min_value=1e-4, max_value=0.05),
       k=st.integers(min_value=0, max_value=39),
       frac=st.sampled_from([0.0, 0.25, 0.61]),
       times=st.lists(st.floats(min_value=1e-5, max_value=20.0), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_time_array_equals_scalar_calls(n, theta, tau, k, frac, times):
    basis = spectral_basis(n)
    factors = AmplificationFactors(basis, tau, theta)
    x = ((k % n) + frac) / n  # a grid point when frac == 0
    y = np.array([0.0, 0.3, (k % n + 0.5) / n])
    # both sides of the image/spectral crossover in every example
    t = np.array(times + [0.5 * CROSSOVER_TIME, 2.0 * CROSSOVER_TIME])
    for fn in (lambda s: heat_kernel(s, x, y),
               heat_kernel_square_integral,
               lambda s: semi_green(s, x, y, basis),
               lambda s: semi_green_square_integral(s, x, basis),
               lambda s: semi_green_grid(s, basis),
               lambda s: full_green(s, x, y, "G1", factors),
               lambda s: full_green(s, x, y, "G2", factors),
               lambda s: full_green_square_integral(s, x, factors),
               lambda s: full_green_grid(s, "G1", factors),
               lambda s: full_green_grid(s, "G2", factors)):
        _assert_stacks_scalar_calls(fn, t)
    assert np.array_equal(factors.step_power(t), [factors.step_power(float(s)) for s in t])


def test_scalar_time_returns_float():
    basis = spectral_basis(5)
    factors = AmplificationFactors(basis, 0.01, 1.0)
    for value in (heat_kernel(0.1, 0.2, 0.3), heat_kernel_square_integral(0.1),
                  semi_green(0.1, 0.2, 0.3, basis), semi_green_square_integral(0.1, 0.2, basis),
                  full_green(0.1, 0.2, 0.3, "G2", factors),
                  full_green_square_integral(0.1, 0.2, factors)):
        assert type(value) is float
    assert type(factors.step_power(0.05)) is int
    assert factors.step_power(np.array([0.0, 0.05, 0.1])).tolist() == [0, 5, 10]
    with pytest.raises(ValueError):
        heat_kernel(np.array([0.1, 0.0]), 0.2, 0.3)
    with pytest.raises(ValueError):
        factors.step_power(np.array([0.1, -0.01]))


class TestSemiGreen:
    def test_cellwise_conservation_exact(self):
        basis = spectral_basis(5)
        for t in (0.0, 0.01, 1.0):
            cells = np.asarray(semi_green(t, 0.41, (np.arange(5) + 0.5) / 5, basis))
            assert cells.mean() == pytest.approx(1.0, abs=1e-13)

    def test_discrete_delta_at_zero_time(self):
        n = 6
        basis = spectral_basis(n)
        for q in range(n):
            for ell in range(n):
                expected = n if q == ell else 0.0
                assert semi_green(0.0, q / n, ell / n, basis) == pytest.approx(
                    expected, abs=1e-10)

    def test_n3_closed_form_value(self):
        basis = spectral_basis(3)
        # lam_1 = -4*9*sin^2(pi/3) = -27; value 1 + 2 exp(-0.27)
        assert semi_green(0.01, 0.0, 0.0, basis) == pytest.approx(
            1.0 + 2.0 * math.exp(-0.27), rel=1e-14)

    def test_real_via_complex_oracle(self):
        n, t = 7, 0.013
        basis = spectral_basis(n)
        rng = np.random.default_rng(1)
        for x, y in rng.random((5, 2)):
            j = np.arange(n)
            lam = basis.eigenvalues
            k0 = int(np.floor(n * x))
            frac = n * x - k0
            e_interp = (np.exp(2j * np.pi * j * (k0 % n) / n)
                        + frac * (np.exp(2j * np.pi * j * ((k0 + 1) % n) / n)
                                  - np.exp(2j * np.pi * j * (k0 % n) / n)))
            ky = int(np.floor(n * y)) % n
            z = np.sum(np.exp(lam * t) * e_interp * np.exp(-2j * np.pi * j * ky / n))
            assert abs(z.imag) < 1e-12
            assert semi_green(t, x, y, basis) == pytest.approx(z.real, abs=1e-12)

    def test_piecewise_structure(self):
        basis = spectral_basis(4)
        # piecewise constant in y on grid cells
        assert semi_green(0.02, 0.3, 0.26, basis) == semi_green(0.02, 0.3, 0.49, basis)
        # piecewise linear in x between grid points
        a, b = semi_green(0.02, 0.25, 0.6, basis), semi_green(0.02, 0.5, 0.6, basis)
        mid = semi_green(0.02, 0.375, 0.6, basis)
        assert mid == pytest.approx(0.5 * (a + b), abs=1e-12)

    def test_square_integral_values_and_bounds(self):
        basis = spectral_basis(3)
        assert semi_green_square_integral(0.01, 0.0, basis) == pytest.approx(
            1.0 + 2.0 * math.exp(-0.54), rel=1e-14)
        assert semi_green_square_integral(80.0, 0.3, basis) == pytest.approx(1.0, abs=1e-14)
        for n in (3, 8, 33):
            b = spectral_basis(n)
            for t in np.logspace(-4, 2, 15):
                val = semi_green_square_integral(t, 0.37, b)
                assert val >= 1.0
                assert val <= 1.0 + math.sqrt(math.pi / (8.0 * t)) + 1e-12

    def test_grid_point_refined_lower_bound(self):
        for n in (3, 4, 8, 16, 64):
            basis = spectral_basis(n)
            for t in np.logspace(-4, 2, 20):
                val = semi_green_square_integral(t, 0.0, basis)
                bound = -math.expm1(-2 * n * n * math.pi ** 2 * t) / math.sqrt(
                    32.0 * math.pi * t)
                assert val >= bound


class TestFullGreen:
    def test_conservation(self):
        basis = spectral_basis(4)
        factors = AmplificationFactors(basis, 0.01, 1.0)
        cells = np.asarray(full_green(0.05, 0.37, (np.arange(4) + 0.5) / 4, "G1", factors))
        assert cells.mean() == pytest.approx(1.0, abs=1e-13)

    def test_implicit_g2_modes_contract(self):
        basis = spectral_basis(8)
        factors = AmplificationFactors(basis, 0.05, 1.0)
        m = factors.step_power(0.4)
        per_mode = factors.r12 ** (m + 1)   # theta=1: r2 = 1, so (r1)^{m+1}
        assert np.all(per_mode[1:] > 0.0) and np.all(per_mode[1:] <= 1.0)

    def test_small_tau_limit_matches_semi(self):
        basis = spectral_basis(4)
        factors = AmplificationFactors(basis, 1e-6, 0.5)
        t, x, y = 0.01, 0.2, 0.7
        assert abs(full_green(t, x, y, "G1", factors) - semi_green(t, x, y, basis)) < 1e-6

    def test_stability_violation_diagnostic(self):
        basis = spectral_basis(10)
        factors = AmplificationFactors(basis, 0.01, 0.0)  # n^2 tau = 1
        with pytest.raises(StabilityViolation) as err:
            full_green(0.1, 0.1, 0.1, "G1", factors)
        assert err.value.mode >= 1

    def test_square_integral_cases(self):
        basis = spectral_basis(6)
        factors = AmplificationFactors(basis, 0.008, 1.0)
        # t=0: sum of r1_j^2 weights, at grid x equals sum r1^2 >= 1
        assert full_green_square_integral(0.0, 0.0, factors) == pytest.approx(
            float(np.sum(factors.r1 ** 2)), rel=1e-14)
        # theta=0: r1 = 1, value is sum (r2)^{2m}
        f0 = AmplificationFactors(spectral_basis(4), 0.02, 0.0)  # n^2 tau = 0.32
        m = f0.step_power(0.1)
        assert full_green_square_integral(0.1, 0.0, f0) == pytest.approx(
            float(np.sum(f0.r2 ** (2 * m))), rel=1e-14)

    def test_square_integral_vs_quadrature(self):
        n = 4
        basis = spectral_basis(n)
        factors = AmplificationFactors(basis, 0.01, 1.0)
        x, t = 0.37, 0.05
        cells = np.asarray(full_green(t, x, (np.arange(n) + 0.5) / n, "G2", factors))
        assert full_green_square_integral(t, x, factors) == pytest.approx(
            float((cells ** 2).mean()), abs=1e-10)


class TestAmplificationFactors:
    @pytest.mark.parametrize("n,tau,theta", [(8, 0.004, 0.0), (8, 0.01, 0.5),
                                             (16, 0.3, 0.75), (64, 0.001, 1.0)])
    def test_invariants(self, n, tau, theta):
        factors = AmplificationFactors(spectral_basis(n), tau, theta)
        assert factors.r1[0] == 1.0 and factors.r2[0] == 1.0
        assert np.all(factors.r1 > 0.0) and np.all(factors.r1 <= 1.0)
        eps, j = factors.contraction_margin()
        half = n // 2
        assert np.max(np.abs(factors.r12[1:half + 1])) <= 1.0 - eps + 1e-12

    def test_mode_ordering(self):
        # e^{2 lam_j t} decreasing in j up to n/2; signed r1 r2 decreasing
        n = 16
        basis = spectral_basis(n)
        decay = np.exp(2.0 * basis.eigenvalues[: n // 2 + 1] * 0.01)
        assert np.all(np.diff(decay) < 0.0)
        factors = AmplificationFactors(basis, 0.001, 0.25)
        assert np.all(np.diff(factors.r12[1: n // 2 + 1]) < 0.0)
