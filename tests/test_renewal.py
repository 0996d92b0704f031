import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shelab import renewal
from shelab.renewal import (GateViolation, continuous_mu, discrete_mu,
                            discrete_mu_tau_limit, sqrt_exp_series)
from shelab.stability import sharp_gate


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


class TestSeries:
    @pytest.mark.parametrize("a", [0.05, 0.5, 2.0])
    def test_truncated_matches_polylog(self, a):
        assert sqrt_exp_series_truncated(a) == pytest.approx(sqrt_exp_series(a),
                                                             abs=2e-12)

    def test_certified_truncation_refuses_tiny_exponent(self):
        with pytest.raises(RuntimeError):
            sqrt_exp_series_truncated(1e-9, max_terms=10_000)


class TestDiscreteRoot:
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
        limit = discrete_mu_tau_limit(lam, j0, n, zeta)
        mus = [discrete_mu(lam, j0, n, 1e-3 / 2 ** k, zeta).mu for k in range(5)]
        gaps = [abs(m - limit.mu) for m in mus]
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
