import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, optimize

from shelab import renewal
from shelab.renewal import GateViolation, continuous_mu, discrete_mu, sqrt_exp_series
from shelab.stability import sharp_gate

from conftest import discrete_mu_tau_limit


def sqrt_exp_series_truncated(a: float, tol: float = 1e-12,
                              chunk: int = 100_000, max_terms: int = 50_000_000) -> float:
    """Direct summation of S(a) = sum_{r>=1} e^{-a r} / sqrt(r) with the
    certified geometric tail bound e^{-a(R+1)} / (sqrt(R+1) (1 - e^{-a})) < tol;
    the independent route the polylogarithm is checked against."""
    total = 0.0
    r0 = 1
    while r0 <= max_terms:
        r = np.arange(r0, min(r0 + chunk, max_terms + 1), dtype=float)
        total += float(np.sum(np.exp(-a * r) / np.sqrt(r)))
        r0 += chunk
        tail = math.exp(-a * r0) / (math.sqrt(r0) * (-math.expm1(-a)))
        if tail < tol:
            return total
    raise RuntimeError(f"series did not certify below {tol} within {max_terms} terms")


def sqrt_exp_series_polylog(a: float) -> float:
    """S(a) = Li_{1/2}(e^{-a}) through mpmath's polylogarithm at 30 digits:
    the oracle for both float branches."""
    with mpmath.workdps(30):
        return float(mpmath.polylog(mpmath.mpf("0.5"), mpmath.exp(-mpmath.mpf(a))))


def continuous_mass_by_quadrature(root, n: int) -> tuple[float, float]:
    """Mass of the continuous density g at the root by adaptive quadrature:
    (mass, quadrature error estimate + tail bound).  The integral runs over
    t in [0, T], T = 60 / rate, with t = s^2 to remove the 1/sqrt(t)
    endpoint; the tail beyond T is below b e^{-rate T} / (rate sqrt(T)).
    The independent route the closed-form mass 1 - h(mu) is checked against."""
    b, rate = root.b_or_btilde, root.implied_rate
    two_n2_pi = 2.0 * n * n * math.pi

    def g(s: float) -> float:
        t = s * s
        return 2.0 * s * b * math.exp(-rate * t) * (-math.expm1(-two_n2_pi * math.pi * t)) / math.sqrt(t)

    upper = math.sqrt(60.0 / rate)
    mass, quad_err = integrate.quad(g, 0.0, upper, limit=400)
    tail = b / rate * math.exp(-rate * upper ** 2) / upper
    return mass, abs(quad_err) + tail


def scan_diffs(fn, lo: float, hi: float) -> np.ndarray:
    """Differences of fn between 64 evenly spaced points of [lo, hi]."""
    return np.diff([fn(x) for x in np.linspace(lo, hi, 64)])


@given(lam=st.floats(0.5, 3.0), j0=st.floats(0.5, 2.0), zeta=st.floats(0.25, 2.0),
       extra_n=st.integers(0, 8), gate_fraction=st.floats(1e-3, 0.5))
@settings(max_examples=10, deadline=None)
def test_mass_functions_strictly_monotone(lam, j0, zeta, extra_n, gate_fraction):
    """The uniqueness argument behind every Brent solve: on gate-admissible
    inputs (n >= zeta lambda^2, tau at most half the step-size limit) the
    discrete h~ falls strictly on (eps, 1), and the continuous and tau -> 0
    limit h rise strictly on (0, 1)."""
    n = math.ceil(zeta * lam ** 2) + extra_n
    tau = gate_fraction / sharp_gate(n, 1.0, j0, lam, zeta)[0]  # the gate sum is linear in tau
    assert not sharp_gate(n, tau, j0, lam, zeta)[1]
    btilde = lam ** 2 * j0 ** 2 / (8.0 * math.sqrt(math.pi))

    def h_tilde(mu):
        a1 = math.pi * mu * mu * btilde * btilde * tau
        a2 = a1 + 4.0 * n * n * math.pi ** 2 * tau
        return math.sqrt(tau) * (sqrt_exp_series(a1) - sqrt_exp_series(a2)) - 1.0 / btilde

    eps = 16.0 * math.pi * zeta / (j0 ** 2 + 32.0 * math.pi * zeta)
    assert np.all(scan_diffs(h_tilde, eps, 1.0) < 0.0)
    b = lam ** 2 * j0 ** 2 / math.sqrt(32.0 * math.pi)
    for bb, c in ((b, 2.0 * n * n * math.pi), (btilde, 4.0 * n * n * math.pi)):
        def h(mu, bb=bb, c=c):
            return bb / math.sqrt(mu * mu * bb * bb + c) - (1.0 / mu - 1.0)
        assert np.all(scan_diffs(h, 1e-6, 1.0 - 1e-12) > 0.0)


class TestContinuousRoot:
    def test_spot_value(self):
        root = continuous_mu(1.0, 1.0, 4)
        assert root.mu == pytest.approx(0.990151, abs=2e-6)
        assert root.b_or_btilde == pytest.approx(1.0 / math.sqrt(32 * math.pi), rel=1e-12)
        assert root.mass_error < 1e-8

    def test_large_grid_limit(self):
        # h(mu) -> 1 - 1/mu as n -> infinity, so the root approaches 1
        assert continuous_mu(1.0, 1.0, 10 ** 6).mu == pytest.approx(1.0, abs=1e-5)

    def test_lower_bound_across_regimes(self):
        for zeta in (0.5, 1.0, 2.0):
            for lam in (1.0, 2.0, 3.0):
                n = max(1, math.ceil(zeta * lam ** 2))
                root = continuous_mu(lam, 1.0, n, zeta=zeta)
                assert root.lower_bound_ok
                assert root.mu >= 8 * math.pi * zeta / (1 + 8 * math.pi * zeta) - 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            continuous_mu(0.0, 1.0, 4)

    @pytest.mark.parametrize("zeta", [0.0, -1.0])
    def test_nonpositive_zeta_refused(self, zeta):
        # zeta = 0 returned lower_bound_ok against the bound 0
        with pytest.raises(ValueError, match=f"^continuous_mu: zeta must be > 0, got {zeta!r}$"):
            continuous_mu(1.0, 1.0, 4, zeta=zeta)

    @pytest.mark.parametrize("lam,n,zeta", [(1.0, 4, None)] + [
        (lam, max(1, math.ceil(zeta * lam ** 2)), zeta)
        for zeta in (0.5, 1.0, 2.0) for lam in (1.0, 2.0, 3.0)])
    def test_closed_form_mass_matches_quadrature(self, lam, n, zeta):
        root = continuous_mu(lam, 1.0, n, zeta=zeta)
        mass, err = continuous_mass_by_quadrature(root, n)
        assert abs(mass - 1.0) + err < 1e-8
        # Brent stops with the root within xtol + 4 eps mu of mu, and
        # 0 < h' < 1 / mu^2, so |h(mu)| is bounded by their product
        assert root.mass_error <= (1e-13 + 4.0 * math.ulp(1.0) * root.mu) / root.mu ** 2


@pytest.mark.parametrize("root,name,value", [
    (continuous_mu, "lambda", 1e200), (continuous_mu, "j0", 1e200),
    (continuous_mu, "lambda", 1e-200), (discrete_mu, "lambda", 1e200),
    (discrete_mu, "j0", 1e200), (discrete_mu, "j0", 1e-200), (discrete_mu, "zeta", 1e-300),
    (discrete_mu, "zeta", 1e200), (continuous_mu, "n", 1e200), (discrete_mu, "n", 1e200)])
def test_input_whose_square_is_zero_or_inf_refused(root, name, value):
    # the squares in b, b~ and the sharp gate overflowed (OverflowError) or
    # underflowed to 0 (ZeroDivisionError, or no bracket for Brent)
    args = {"lambda": 1.0, "j0": 1.0, "n": 4, "tau": 1e-3, "zeta": 1.0, name: value}
    if root is continuous_mu:
        del args["tau"], args["zeta"]
    message = f"{root.__name__}: {name} = {value!r} has the square {value * value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        root(*args.values())


def test_input_whose_fourth_power_is_inf_refused():
    # the sharp gate takes j0 ** 4, which raised OverflowError
    with pytest.raises(ValueError, match=r"^discrete_mu: j0 = 1e\+150 has the fourth power inf$"):
        discrete_mu(1e30, 1e150, 8, 3.52, 7.8e-8)


class TestSeries:
    @pytest.mark.parametrize("a", [0.05, 0.5, 2.0])
    def test_truncated_matches_polylog(self, a):
        assert sqrt_exp_series_truncated(a) == pytest.approx(sqrt_exp_series(a),
                                                             abs=2e-12)

    # log-uniform over [1e-9, 60], which spans both branches (crossover a = 1)
    @given(st.floats(math.log(1e-9), math.log(60.0)).map(math.exp))
    @example(1e-9)
    @example(math.nextafter(1.0, 0.0))
    @example(1.0)
    @example(60.0)
    @settings(max_examples=200, deadline=None)
    def test_float_series_matches_polylog_oracle(self, a):
        oracle = sqrt_exp_series_polylog(a)
        assert abs(sqrt_exp_series(a) - oracle) <= 2e-15 * oracle

    @pytest.mark.parametrize("a", [0.0, -1e-9, -2.0, float("nan"), float("-inf")])
    def test_nonpositive_or_nan_exponent_raises(self, a):
        with pytest.raises(ValueError, match="a > 0"):
            sqrt_exp_series(a)

    def test_certified_truncation_refuses_tiny_exponent(self):
        with pytest.raises(RuntimeError):
            sqrt_exp_series_truncated(1e-9, max_terms=10_000)


class TestDiscreteRoot:
    @pytest.mark.parametrize("name,value", [("lambda", 0.0), ("j0", 0.0), ("n", 0),
                                            ("tau", -1e-3), ("zeta", -1.0), ("zeta", 0.0)])
    def test_nonpositive_input_refused(self, name, value):
        # lambda or j0 = 0 reached the series as "a > 0", tau < 0 a math
        # domain error, and zeta = -1 returned a root against a meaningless bound
        args = {"lambda": 1.0, "j0": 1.0, "n": 4, "tau": 1e-3, "zeta": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^discrete_mu: {name} must be > 0, got {value!r}$"):
            discrete_mu(*args.values())

    def test_gate_violations(self):
        with pytest.raises(GateViolation, match="gate"):
            discrete_mu(1.0, 1.0, 4, 0.1, 1.0)
        with pytest.raises(GateViolation, match="below"):
            discrete_mu(3.0, 1.0, 4, 1e-6, 1.0)

    def test_mass_and_bounds(self):
        root = discrete_mu(1.0, 1.0, 4, 1e-3, 1.0)
        assert root.mass_error < 1e-8
        eps = 16 * math.pi / (1 + 32 * math.pi)
        assert root.mu >= eps
        assert root.implied_rate >= 4 * math.pi ** 2 / (1 + 32 * math.pi) ** 2 - 1e-12

    def test_one_brent_solve_per_root(self, monkeypatch):
        calls = []

        def counted(a, series=renewal.sqrt_exp_series):
            calls.append(a)
            return series(a)

        monkeypatch.setattr(renewal, "sqrt_exp_series", counted)
        discrete_mu(1.0, 1.0, 4, 1e-3, 1.0)
        assert 0 < len(calls) <= 20

    @pytest.mark.parametrize("lam,n,tau", [(1.0, 4, 1e-3), (2.0, 5, 2e-4)])
    def test_mass_error_is_series_mass(self, lam, n, tau):
        root = discrete_mu(lam, 1.0, n, tau, 1.0)
        btilde = root.b_or_btilde
        a1 = math.pi * root.mu ** 2 * btilde ** 2 * tau
        a2 = a1 + 4.0 * n * n * math.pi ** 2 * tau
        mass = btilde * math.sqrt(tau) * (sqrt_exp_series(a1) - sqrt_exp_series(a2))
        assert abs(root.mass_error - abs(mass - 1.0)) <= 1e-12

    def test_sandwich_bounds_at_root(self):
        lam, j0, n, tau, zeta = 1.0, 1.0, 4, 1e-3, 1.0
        root = discrete_mu(lam, j0, n, tau, zeta)
        btilde = root.b_or_btilde
        a1 = math.pi * root.mu ** 2 * btilde ** 2 * tau
        s = math.sqrt(tau) * sqrt_exp_series(a1)
        assert 1.0 / (root.mu * btilde) - 2.0 * math.sqrt(tau) - 1e-12 <= s
        assert s <= 1.0 / (root.mu * btilde) + 1e-12

    def test_tau_refinement_converges_to_limit(self):
        lam, j0, n, zeta = 1.0, 1.0, 4, 1.0
        limit = discrete_mu_tau_limit(lam, j0, n)
        mus = [discrete_mu(lam, j0, n, 1e-3 / 2 ** k, zeta).mu for k in range(5)]
        gaps = [abs(m - limit) for m in mus]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        diffs = [abs(a - b) for a, b in zip(mus, mus[1:])]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_implied_rate_scales_like_lambda_fourth(self):
        zeta = 1.0
        rates = []
        for lam in (1.0, 2.0):
            n = max(3, math.ceil(zeta * lam ** 2))
            tau = 0.5 / (n * n * (1 / (16 * math.pi) + 16 * math.pi))
            rates.append(discrete_mu(lam, 1.0, n, tau, zeta).implied_rate)
        # rate = pi mu^2 btilde^2 with btilde ~ lam^2: ratio ~ 2^4 within mu drift
        assert rates[1] / rates[0] == pytest.approx(16.0, rel=0.1)


def same_root_as_scipy(f, a: float, b: float, xtol: float):
    """renewal._brentq and scipy.optimize.brentq on one bracket give the
    same float bit for bit, or both raise the same exception type."""
    try:
        want = optimize.brentq(f, a, b, xtol=xtol)
    except (ValueError, RuntimeError) as exc:
        with pytest.raises(type(exc)):
            renewal._brentq(f, a, b, xtol=xtol)
        return None
    got = renewal._brentq(f, a, b, xtol=xtol)
    assert got.hex() == float(want).hex(), (got, want)
    return got


class TestBrentPort:
    GATED = [(lam, j0, zeta, math.ceil(zeta * lam ** 2) + extra_n, fraction)
             for lam in (0.5, 1.0, 2.0, 3.0) for j0 in (0.5, 1.0, 2.0)
             for zeta in (0.5, 1.0, 2.0) for extra_n in (0, 3)
             for fraction in (1e-3, 0.1, 0.5)]

    def test_renewal_roots_match_scipy_on_gated_lattice(self):
        """Both mass functions over a (lambda, J0, zeta, n, tau) lattice that
        passes the sharp gate: the roots discrete_mu and continuous_mu
        return, and the tau -> 0 limit root, are scipy's floats."""
        for lam, j0, zeta, n, fraction in self.GATED:
            tau = fraction / sharp_gate(n, 1.0, j0, lam, zeta)[0]  # the gate sum is linear in tau
            assert not sharp_gate(n, tau, j0, lam, zeta)[1]
            btilde = lam ** 2 * j0 ** 2 / (8.0 * math.sqrt(math.pi))

            def h_tilde(mu):
                a1 = math.pi * mu * mu * btilde * btilde * tau
                a2 = a1 + 4.0 * n * n * math.pi ** 2 * tau
                return math.sqrt(tau) * (sqrt_exp_series(a1) - sqrt_exp_series(a2)) - 1.0 / btilde

            eps = 16.0 * math.pi * zeta / (j0 ** 2 + 32.0 * math.pi * zeta)
            want = same_root_as_scipy(h_tilde, eps, 1.0, 1e-13)
            assert discrete_mu(lam, j0, n, tau, zeta).mu.hex() == want.hex()
            b = lam ** 2 * j0 ** 2 / math.sqrt(32.0 * math.pi)
            limit_roots = []
            for bb, c in ((b, 2.0 * n * n * math.pi), (btilde, 4.0 * n * n * math.pi)):
                def h(mu, bb=bb, c=c):
                    return bb / math.sqrt(mu * mu * bb * bb + c) - (1.0 / mu - 1.0)
                lo = 1e-12
                while h(lo) >= 0.0:
                    lo /= 2.0
                limit_roots.append(same_root_as_scipy(h, lo, 1.0 - 1e-12, 1e-13))
            assert continuous_mu(lam, j0, n, zeta=zeta).mu.hex() == limit_roots[0].hex()
            assert discrete_mu_tau_limit(lam, j0, n) == limit_roots[1]

    @given(root=st.floats(-10.0, 10.0), a=st.floats(-20.0, 20.0), b=st.floats(-20.0, 20.0),
           power=st.sampled_from([1, 3, 5, 7, 9, 11, 13, 15]), slope=st.floats(0.0, 10.0),
           scale=st.sampled_from([1.0, -1.0, 1e-160, -1e-160]),
           shape=st.sampled_from(["power", "root"]),
           xtol=st.sampled_from([1e-300, 1e-13, 2e-12, 1e-6]))
    @example(root=1e-200, a=0.0, b=1.0, power=15, slope=0.0, scale=1.0, shape="power",
             xtol=1e-300)
    @settings(max_examples=300, deadline=None)
    def test_monotone_functions_match_scipy(self, root, a, b, power, slope, scale, shape, xtol):
        """Strictly monotone functions c ((x - r)^k + s (x - r)) and
        c (x - r)^{1/k}, k odd, s >= 0, on brackets that may or may not hold
        the root: the same float, ValueError or RuntimeError as scipy.  The
        odd roots keep rejecting the interpolation step; at |c| = 1e-160 the
        extrapolation's denominator underflows to zero."""
        if shape == "power":
            def f(x):
                return scale * ((x - root) ** power + slope * (x - root))
        else:
            def f(x):
                return scale * math.copysign(abs(x - root) ** (1.0 / power), x - root)
        same_root_as_scipy(f, a, b, xtol)

    @pytest.mark.parametrize("root", [0.3, -2.7, 1e-200])
    @pytest.mark.parametrize("xtol", [1e-300, 1e-13, 1e-6])
    def test_step_functions_match_scipy(self, root, xtol):
        """|f| ties at every step of a sign function, so these pin which end
        of the bracket the port keeps."""
        for a, b in ((-5.0, 5.0), (5.0, -5.0), (-1.0, 7.0)):
            same_root_as_scipy(lambda x: 1.0 if x > root else -1.0, a, b, xtol)

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            optimize.brentq(lambda x: x + 1.0, 0.0, 1.0, xtol=1e-13)
        with pytest.raises(ValueError, match="different signs"):
            renewal._brentq(lambda x: x + 1.0, 0.0, 1.0, xtol=1e-13)

    def test_exhausted_maxiter_raises(self):
        """A step at 1e-200 defeats every secant step, and bisection from
        [0, 1] needs about 660 halvings to reach xtol = 1e-300."""
        def step(x):
            return 1.0 if x > 1e-200 else -1.0

        with pytest.raises(RuntimeError, match="converge"):
            optimize.brentq(step, 0.0, 1.0, xtol=1e-300)
        with pytest.raises(RuntimeError, match="100 iterations"):
            renewal._brentq(step, 0.0, 1.0, xtol=1e-300)
