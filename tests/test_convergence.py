import math
import tracemalloc
from dataclasses import astuple, dataclass, replace

import numpy as np
import pytest
from scipy.linalg import circulant

import shelab.convergence
from shelab.convergence import (_gauss, _integrate, _sq_diff_y_exact, _tail_bound_full,
                                green_error_full, green_error_semi, strong_error_study)
from shelab.kernels import (AmplificationFactors, full_green, heat_kernel,
                            heat_kernel_square_integral, semi_green, spectral_basis)
from shelab.model import GridSpec, InitialData, ModelSpec, SchemeSpec, SigmaSpec, _floor_quantize
from shelab.noise import NOISE_CHUNK_CELLS, NoiseSeed, coarsen_array, sample_block
from shelab.solver import BlowupError, StepOperator

from conftest import const_sigma

RULE_CONSTANTS = ("_T_GAUSS", "_FINE_PANELS", "_COARSE_PANELS", "_T_SPLIT", "_RESOLVE_CAP")


@dataclass(frozen=True)
class QuadratureSpec:
    """green_error_full's composite rule, one field per module constant;
    `refined()` halves every step for the self-consistency checks."""

    t_gauss: int = 8
    fine_panels: int = 20
    coarse_panels: int = 40
    t_split: float = 1.0
    resolve_cap: int = 4096

    def refined(self, times: int = 1) -> "QuadratureSpec":
        f = 2 ** times
        return replace(self, t_gauss=f * self.t_gauss, fine_panels=f * self.fine_panels,
                       coarse_panels=f * self.coarse_panels)

    def install(self, monkeypatch) -> None:
        """Make this green_error_full's rule for the rest of the test."""
        for name, value in zip(RULE_CONSTANTS, astuple(self)):
            monkeypatch.setattr(shelab.convergence, name, value)


def initial_data_error_full(n: int, tau: float, theta: float, u0: InitialData,
                            t: float, x: float = 0.0) -> float:
    """|int_0^1 (G^n - G1^{n,tau})(t,x,y) u0(kappa_n(y)) dy|^2, closed form:
    the y-integral collapses to the grid DFT of the initial samples."""
    basis = spectral_basis(n)
    factors = AmplificationFactors(basis, SchemeSpec(tau=tau, theta=theta))
    factors.require_stable()
    c = np.fft.fft(u0.values(GridSpec(n))) / n
    delta = np.exp(basis.eigenvalues * t) - factors.r12 ** factors.step_power(t)
    return float(np.sum(delta * basis.modes(x) * c).real) ** 2


def _semi_d(n: int, x: float):
    """D(t) = int_0^1 |G - G^n|^2 dy for an array of times, through the
    aliasing series green_error_full's rule evaluates."""
    basis = spectral_basis(n)
    prof = basis.modes(x)

    def d_of_t(t):
        return _sq_diff_y_exact(t, x, basis, np.exp(np.multiply.outer(t, basis.eigenvalues)), prof)

    return d_of_t


def green_error_semi_pointwise(n: int, t: float, x: float = 0.0) -> float:
    """int_0^1 |G(t,x,y) - G^n(t,x,y)|^2 dy at one time, the y-integral
    evaluated through the aliasing series."""
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


def _tail_bound_semi(n: int, t1: float) -> float:
    """Certified bound on int_{t1}^inf int_0^1 (G - G^n)^2 dy dt via the
    sup-norm envelopes |G - 1| <= A e^{-a t}, |G^n - 1| <= B e^{-b t}."""
    a, b = 4.0 * math.pi ** 2, 16.0
    A = 2.0 / (1.0 - math.exp(-3.0 * a * t1))
    B = 2.0 / (1.0 - math.exp(-3.0 * b * t1))
    return (A * A * math.exp(-2 * a * t1) / (2 * a)
            + 2 * A * B * math.exp(-(a + b) * t1) / (a + b)
            + B * B * math.exp(-2 * b * t1) / (2 * b))


def _smooth_knots(n, quad) -> np.ndarray:
    """Knots in s = sqrt(t) of the smooth branch on [0, t_split], graded to
    resolve the 1/n kernel scale near zero."""
    s_mid = min(4.0 / n, math.sqrt(quad.t_split))
    return np.concatenate([np.linspace(0.0, s_mid, quad.fine_panels + 1),
                           np.geomspace(s_mid, math.sqrt(quad.t_split),
                                        quad.coarse_panels + 1)[1:]])


def _sqrt_panels_per_node(d_of_t, s_knots, quad) -> float:
    xi, w = _gauss(quad.t_gauss)
    total = 0.0
    for lo, hi in zip(s_knots[:-1], s_knots[1:]):
        s = lo + (hi - lo) * xi
        total += float((hi - lo) * np.dot(w, np.array([2.0 * sv * d_of_t(sv * sv) for sv in s])))
    return total


def green_error_semi_quadrature(n, x=0.0, quad=QuadratureSpec()) -> float:
    """The composite rule green_error_semi's closed form replaced: the smooth
    branch in s = sqrt(t), node arrays evaluated in runs, plus the tail bound."""
    s_knots = _smooth_knots(n, quad)
    xi, w = _gauss(quad.t_gauss)
    lo, hi = s_knots[:-1, None], s_knots[1:, None]
    s = lo + (hi - lo) * xi
    head = _integrate(_semi_d(n, x), (s * s).ravel(), ((hi - lo) * w * 2.0 * s).ravel(), n)
    return head + _tail_bound_semi(n, quad.t_split)


def green_error_semi_per_node(n, x=0.0, quad=QuadratureSpec()) -> float:
    """green_error_semi_quadrature with the kernel difference evaluated one
    time node per call."""
    basis = spectral_basis(n)
    prof = basis.modes(x)

    def d_of_t(t):
        return _sq_diff_node(t, x, basis, np.exp(basis.eigenvalues * t), prof)

    head = _sqrt_panels_per_node(d_of_t, _smooth_knots(n, quad), quad)
    return head + _tail_bound_semi(n, quad.t_split)


def green_error_full_per_node(n, tau, theta, x=0.0, quad=QuadratureSpec()) -> float:
    """green_error_full, one time node per call."""
    basis = spectral_basis(n)
    factors = AmplificationFactors(basis, SchemeSpec(tau=tau, theta=theta))
    prof = basis.modes(x)

    def d_of_t(t):
        coeff = factors.r12 ** factors.step_power(t) * factors.r1
        return _sq_diff_node(t, x, basis, coeff, prof)

    steps = int(math.ceil(quad.t_split / tau))
    if steps > quad.resolve_cap:
        return (_sqrt_panels_per_node(d_of_t, _smooth_knots(n, quad), quad)
                + _tail_bound_full(factors, quad.t_split))
    total = _sqrt_panels_per_node(d_of_t, np.linspace(0, math.sqrt(min(tau, quad.t_split)), 9),
                                  quad)
    xi, w = _gauss(quad.t_gauss)
    for i in range(1, steps):
        lo, hi = i * tau, min((i + 1) * tau, quad.t_split)
        if hi <= lo:
            break
        total += float((hi - lo) * np.dot(w, np.array([d_of_t(tv) for tv in lo + (hi - lo) * xi])))
    return total + _tail_bound_full(factors, quad.t_split)


def _chat(k: np.ndarray, n: int) -> np.ndarray:
    """n x the k-th Fourier coefficient of the indicator of [-1/n, 0): the
    y-integral of a continuous mode against a grid mode, zero at k = 0 mod n."""
    return n * (1.0 - np.exp(-2j * np.pi * (k % n) / n)) / (2j * np.pi * k)


def green_error_semi_alias_sum(n: int, x: float, terms_per_n: int = 20000) -> float:
    """green_error_semi by direct time-integrated aliasing sums: 1/24 +
    sum_{j!=0} |e^n_j|^2/(2 L_j) - 2 Re sum_{0<|k|<=K} e^{2 pi i k x} e^n_{-k}
    chat(k) / (4 pi^2 k^2 + L_{-k}), K = terms_per_n n, in chunks.  The
    truncation is below 1e-13 relative for n <= 64."""
    basis = spectral_basis(n)
    e, big_l = basis.modes(x), -basis.eigenvalues
    cross = 0.0
    for start in range(1, terms_per_n * n + 1, 2 ** 18):
        half = np.arange(start, min(start + 2 ** 18, terms_per_n * n + 1))
        k = np.concatenate([half, -half])
        j = -k % n
        z = (np.exp(2j * np.pi * (k * x % 1.0)) * e[j] * _chat(k, n)
             / (4.0 * math.pi ** 2 * k.astype(float) ** 2 + big_l[j]))
        cross += float(z.sum().real)
    return 1.0 / 24.0 + float(np.sum(np.abs(e[1:]) ** 2 / (2.0 * big_l[1:]))) - 2.0 * cross


def green_error_full_exact(n: int, tau: float, theta: float, x: float = 0.0) -> float:
    """green_error_full's integral in closed form.  With b = r1 r2, the squared
    term is tau sum_{j!=0} r1^2 |e^n_j|^2 / (1 - b^2); the cross term's time
    integral int e^{-at} b^[t/tau] dt (a = 4 pi^2 k^2) is 1/a minus
    (1 - b) e^{-a tau} / (a (1 - b e^{-a tau})).  The 1/a part sums to the
    L = 0 cells B3({s})/6 of green_error_semi's telescoped form, one DFT; the
    rest dies like e^{-a tau}, so k <= sqrt(45/(4 pi^2 tau)) + n is exact to
    roundoff."""
    basis = spectral_basis(n)
    factors = AmplificationFactors(basis, SchemeSpec(tau=tau, theta=theta))
    e, r1, b = basis.modes(x)[1:], factors.r1[1:], factors.r12[1:]
    squared = tau * float(np.sum(r1 ** 2 * np.abs(e) ** 2 / (1.0 - b ** 2)))
    k0 = int(_floor_quantize(x, n))
    u = (np.arange(n) + max(n * x - k0, 0.0)) / n
    j = np.arange(1, n)
    cells = n * np.fft.ifft((u ** 3 - 1.5 * u ** 2 + 0.5 * u) / 6.0)[1:]
    t0 = np.exp(-2j * np.pi * (j * k0 % n) / n) * (1.0 - np.exp(2j * np.pi * j / n)) * cells
    k_max = math.ceil(math.sqrt(45.0 / (4.0 * math.pi ** 2 * tau))) + n
    half = np.arange(1, k_max + 1)
    k = np.concatenate([half, -half])
    jk = -k % n - 1  # index into the j != 0 arrays; k = 0 mod n has chat = 0
    a = 4.0 * math.pi ** 2 * k.astype(float) ** 2
    decay = np.exp(-a * tau)
    rest = (np.exp(2j * np.pi * (k * x % 1.0)) * e[jk] * _chat(k, n) * r1[jk] * (1.0 - b[jk])
            * decay / (a * (1.0 - b[jk] * decay)))
    return (1.0 / 24.0 + squared - 2.0 * float(np.sum(e * r1 * t0).real)
            + 2.0 * float(rest.sum().real))


def test_rule_spec_mirrors_module_constants():
    assert astuple(QuadratureSpec()) == tuple(getattr(shelab.convergence, name)
                                              for name in RULE_CONSTANTS)


def test_gauss_rule_cached_read_only():
    xi, w = _gauss(8)
    assert _gauss(8)[0] is xi and _gauss(8)[1] is w
    assert np.array_equal(xi, 0.5 * (np.polynomial.legendre.leggauss(8)[0] + 1.0))
    for a in (xi, w):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0


class TestArrayEvaluationAgainstPerNodeOracle:
    @pytest.mark.parametrize("n,tau,theta,x,quad", [
        (64, 2 ** -3, 1.0, 0.0, {}), (64, 2 ** -7, 1.0, 0.0, {}), (16, 2 ** -8, 0.5, 0.37, {}),
        (16, 0.003, 1.0, 0.0, {"t_split": 0.01}), (16, 2 ** -9, 1.0, 0.0, {"resolve_cap": 0}),
        (8, 1e-6, 0.75, 0.2, {})])
    def test_green_error_full(self, monkeypatch, n, tau, theta, x, quad):
        # resolve_cap 0 and tau = 1e-6 take the smooth branch, the rest
        # resolve the staircase; tau = 0.003 cuts its last step interval at t_split
        quad = QuadratureSpec(**quad)
        quad.install(monkeypatch)
        got = green_error_full(n, tau, theta, x=x)
        assert got == pytest.approx(green_error_full_per_node(n, tau, theta, x, quad), rel=1e-12)

    @pytest.mark.parametrize("n,x", [(8, 0.0), (16, 0.37), (64, 0.0)])
    def test_green_error_semi(self, n, x):
        assert green_error_semi_quadrature(n, x) == pytest.approx(
            green_error_semi_per_node(n, x), rel=1e-12)
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

    @pytest.mark.parametrize("n", [3, 8, 16, 64])
    @pytest.mark.parametrize("x", [0.0, 0.37, 0.61])
    def test_matches_direct_alias_sums(self, n, x):
        assert green_error_semi(n, x) == pytest.approx(green_error_semi_alias_sum(n, x),
                                                       rel=1e-12)

    @pytest.mark.parametrize("n", [8, 16, 64])
    @pytest.mark.parametrize("x", [0.0, 0.37])
    def test_matches_thrice_refined_quadrature(self, n, x):
        # the default rule is off by 4.4e-10 at grid points and by up to
        # 3.4e-5 off the grid; three refinements converge to the closed form
        want = green_error_semi_quadrature(n, x, QuadratureSpec().refined(3))
        assert green_error_semi(n, x) == pytest.approx(want, rel=2e-12)

    def test_periodic_in_x(self):
        for n, x in [(8, 0.37), (16, 0.61), (64, 0.0)]:
            want = green_error_semi(n, x)
            assert green_error_semi(n, x + 1.0) == pytest.approx(want, rel=1e-13)
            assert green_error_semi(n, x - 1.0) == pytest.approx(want, rel=1e-13)

    def test_invariant_under_grid_shifts_at_large_n(self):
        # G and G^n are both invariant under x, y -> x + 1/n, y + 1/n; the
        # mode angles are reduced mod n, so a large shift costs no digits
        n = 1024
        want = green_error_semi(n, 0.37)
        for m in (1, 517, 1023):
            assert green_error_semi(n, 0.37 + m / n) == pytest.approx(want, rel=1e-12)

    def test_finite_at_large_n(self):
        # exp(a) would overflow once a = 2 n sin(pi j / n) passes 709
        e2048, e4096 = green_error_semi(2048), green_error_semi(4096)
        assert math.isfinite(e4096) and 0.0 < e4096 < e2048
        assert 1.5 <= e2048 / e4096 <= 2.6

    def test_peak_memory_is_linear_in_n(self):
        # the composite rule peaked at 16.3 MiB at n = 1024
        green_error_semi(1024)
        tracemalloc.start()
        try:
            green_error_semi(1024, 0.37)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_decay_ratio(self):
        e8, e16 = green_error_semi(8), green_error_semi(16)
        assert 1.5 <= e8 / e16 <= 2.6

    def test_quadrature_self_consistency(self):
        q = QuadratureSpec()
        a = green_error_semi_quadrature(16, quad=q)
        b = green_error_semi_quadrature(16, quad=q.refined())
        assert abs(a - b) / b < 0.01
        assert abs(a - green_error_semi(16)) < abs(a - b) + 1e-12

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
        e1 = green_error_full(64, 2 ** -5, 1.0)
        e2 = green_error_full(64, 2 ** -7, 1.0)
        assert 1.5 <= e1 / e2 <= 2.6

    def test_gate_enforced(self):
        with pytest.raises(ValueError, match="inadmissible"):
            green_error_full(10, 0.01, 0.0)

    def test_non_contractive_step_refused(self):
        # admitted, but r1 r2 rounds to 1 on the nonconstant modes: the
        # integral was inf
        with pytest.raises(ValueError, match=r"\|r1\*r2\| = 1 >= 1 at mode j=1"):
            green_error_full(3, 1e-18, 1.0)

    def test_resolved_vs_smooth_branch(self, monkeypatch):
        # forcing the smooth substitution must agree with the staircase-
        # resolving branch once the staircase is fine
        tau = 2 ** -9
        resolved = green_error_full(16, tau, 1.0)
        QuadratureSpec(resolve_cap=0).install(monkeypatch)
        smooth = green_error_full(16, tau, 1.0)
        assert abs(resolved - smooth) / resolved < 0.02

    def test_small_tau_approaches_semi(self):
        semi = green_error_semi(16)
        full = green_error_full(16, 1e-6, 1.0)
        assert abs(full - semi) / semi < 0.01

    EXACT_CASES = [(64, 2 ** -3, 1.0, 0.0), (64, 2 ** -5, 1.0, 0.0), (64, 2 ** -7, 1.0, 0.0),
                   (64, 2 ** -9, 1.0, 0.0), (16, 2 ** -8, 0.5, 0.37), (8, 0.01, 1.0, 0.37),
                   (8, 1e-6, 0.75, 0.2)]

    @pytest.mark.parametrize("n,tau,theta,x", EXACT_CASES)
    def test_default_rule_near_exact(self, n, tau, theta, x):
        # measured gaps: -2.8e-8 to -7.4e-7 on calibration's ladder, +9.3e-7
        # and -1.6e-6 off the grid; tau = 1e-6 takes the smooth branch
        want = green_error_full_exact(n, tau, theta, x)
        assert green_error_full(n, tau, theta, x) == pytest.approx(want, rel=2e-6)

    @pytest.mark.parametrize("n,tau,theta,x", EXACT_CASES[:5])
    def test_thrice_refined_rule_matches_exact(self, monkeypatch, n, tau, theta, x):
        want = green_error_full_exact(n, tau, theta, x)
        QuadratureSpec().refined(3).install(monkeypatch)
        assert green_error_full(n, tau, theta, x) == pytest.approx(want, rel=1e-11)

    def test_exact_values_on_calibrations_ladder(self):
        # what calibration's green_error.csv reads once the rule is exact
        got = [green_error_full_exact(64, tau, 1.0) for tau in (2 ** -3, 2 ** -5, 2 ** -7)]
        want = [0.03120607119772082, 0.01727241505299107, 0.008884046583618938]
        assert got == pytest.approx(want, rel=1e-13)


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
        factors = AmplificationFactors(basis, SchemeSpec(tau=tau, theta=theta))
        cells = (np.arange(n) + 0.5) / n
        diff = semi_green(t, x, cells, basis) - full_green(t, x, cells, "G1", factors)
        expected = float(np.mean(diff * g)) ** 2
        got = initial_data_error_full(n, tau, theta, InitialData.grid_samples(g.tolist()), t, x)
        assert got == pytest.approx(expected, rel=1e-9)


def hand_stepped_errors(ladder, model, m_f, paths, seed, theta=0.75):
    """RMS errors of a temporal ladder at n = 8 against its last rung, each
    rung stepped alone on coarsen_array of each path's whole "strong" stream."""
    fine = np.stack([sample_block(NoiseSeed(seed, path=k, purpose="strong"), m_f, 8)
                     for k in range(paths)])
    finals = []
    for n, tau in ladder:
        op = StepOperator(n, SchemeSpec(tau=tau, theta=theta), model)
        u = np.ones((paths, n))
        coarse = coarsen_array(fine, 1, round(tau * 2 ** 10))
        for s in range(coarse.shape[1]):
            u = op.apply(u, coarse[:, s, :])
        finals.append(u[:, 0])
    return [math.sqrt(float(np.dot(u - finals[-1], u - finals[-1])) / paths)
            for u in finals[:-1]]


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

    @pytest.mark.parametrize("kwargs, message", [
        ({"paths": 0}, "paths must be >= 1, got 0"),
        ({"T": 0.0}, "T must be > 0, got 0.0"),
        ({"T": -0.5}, "T must be > 0, got -0.5"),
    ])
    def test_empty_study_rejected_before_noise(self, pam_model, monkeypatch, kwargs, message):
        # paths = 0 divided 0 by 0 into NaN errors; T <= 0 gave zero errors
        def no_noise(*args):
            raise AssertionError("noise read before the study was checked")

        monkeypatch.setattr(shelab.convergence, "path_streams", no_noise)
        monkeypatch.setattr(shelab.convergence, "normal_rows", no_noise)
        kwargs = {"T": 0.5, "paths": 4, **kwargs}
        with pytest.raises(ValueError, match=message):
            strong_error_study([(8, 2 ** -6), (8, 2 ** -7), (8, 2 ** -10)], pam_model, 1.0,
                               seed=0, **kwargs)

    def test_zero_errors_refused(self, quiet_model):
        # without noise these rungs keep u0 = 1 exactly: log(0) in the order
        # fit warned, and the CLI wrote strong_error.csv before exiting 2 on
        # the plot's "math domain error"
        with pytest.raises(ValueError, match=r"^errors \[0.0, 0.0\] of the fitted rungs are not"):
            strong_error_study([(4, 0.125), (8, 0.125), (32, 0.125)], quiet_model, 1.0,
                               T=0.125, paths=2, seed=0)

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
        curve = strong_error_study(ladder, pam_model, 0.75, 12 * 2 ** -10, 5, 3,
                                   fit_separation=2)
        assert list(curve.errors) == hand_stepped_errors(ladder, pam_model, 12, 5, 3)
        assert list(curve.fit_mask) == [True, True]

    def test_unnested_time_factors_step_in_lcm_chunks(self, pam_model):
        # 8 does not divide 12: the rungs step together in chunks of 24
        ladder = [(8, 12 * 2 ** -10), (8, 8 * 2 ** -10), (8, 2 ** -10)]
        curve = strong_error_study(ladder, pam_model, 0.75, 24 * 2 ** -10, 5, 3,
                                   fit_separation=2)
        assert list(curve.errors) == hand_stepped_errors(ladder, pam_model, 24, 5, 3)

    @pytest.mark.parametrize("ladder, T, paths", [
        # temporal: time factors 16..2 step in chunks of 16; 80 fine rows
        # (3.9 MiB) and their coarse copies per read, 4 reads
        ([(64, 2.0 ** -k) for k in (8, 9, 10, 11, 12)], 320 * 2 ** -12, 100),
        # spatial: one fine step per chunk, 87 rows (4.2 MiB) per read
        ([(n, 2.0 ** -14) for n in (8, 16, 32, 64)], 2 ** -6, 200),
    ], ids=["temporal", "spatial"])
    def test_noise_held_in_one_read(self, pam_model, ladder, T, paths):
        # one read with its coarse copies is within NOISE_CHUNK_CELLS; the
        # study held the last read's fine block while the next was drawn
        # (12.2 and 12.5 MiB).  Slack: 1 MiB for the streams, states,
        # operators and stepping temporaries.
        tracemalloc.start()
        try:
            strong_error_study(ladder, pam_model, theta=1.0, T=T, paths=paths, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= NOISE_CHUNK_CELLS * 8 + 2 ** 20

    def test_fit_mask_separation(self, pam_model):
        ladder = [(8, 2 ** -10), (16, 2 ** -10), (32, 2 ** -10), (64, 2 ** -10)]
        curve = strong_error_study(ladder, pam_model, theta=1.0, T=2 ** -4,
                                   paths=8, seed=0, fit_separation=4)
        assert list(curve.fit_mask) == [True, True, False]
        assert len(curve.errors) == 3
