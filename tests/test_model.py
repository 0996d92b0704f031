import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shelab.cli import parse_grid, parse_model, parse_scheme
from shelab.model import (GridSpec, InitialData, ModelSpec, SchemeSpec, SigmaSpec,
                          _floor_quantize, _floor_steps, validate_run_config)


def config_to_dict(grid: GridSpec, scheme: SchemeSpec, model: ModelSpec,
                   seed: int = 0) -> dict:
    """Serialize a run configuration to the JSON schema; floats survive the
    round trip bit-exactly (json preserves doubles via repr)."""
    if model.sigma.kind == "linear":
        sigma = {"kind": "linear", "slope": model.sigma.slope}
    else:
        sigma = {"kind": "table", "points": [list(p) for p in model.sigma.points]}
    if model.u0.kind == "constant":
        u0 = {"kind": "constant", "value": model.u0.value}
    else:
        u0 = {"kind": "samples", "values": list(model.u0.samples)}
    return {
        "seed": seed,
        "grid": {"n": grid.n},
        "scheme": {"tau": scheme.tau, "theta": scheme.theta, "stepper": scheme.stepper},
        "model": {"lambda": model.lam, "sigma": sigma, "u0": u0},
    }


def kappa_n(y: float, n: int) -> float:
    """Grid-flooring map: largest grid point <= y."""
    return float(_floor_quantize(y, n)) / n


def kappa_tau(s: float, tau: float) -> float:
    """Time-flooring map: largest step boundary <= s."""
    return _floor_steps(s, tau) * tau


class TestGridSpec:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GridSpec(0)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=97))
    def test_kappa_idempotent(self, y, n):
        assert kappa_n(kappa_n(y, n), n) == kappa_n(y, n)

    @given(st.integers(min_value=0, max_value=96), st.integers(min_value=3, max_value=97))
    def test_kappa_fixes_grid_points(self, k, n):
        point = k / n
        assert kappa_n(point, n) == point

    def test_floor_quantize_below_grid_point(self):
        assert _floor_quantize(0.999, 3) == 2


class TestSchemeSpec:
    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            SchemeSpec(tau=0.0)

    @given(st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=1e-4, max_value=0.9))
    def test_kappa_tau_idempotent(self, s, tau):
        assert kappa_tau(kappa_tau(s, tau), tau) == kappa_tau(s, tau)

    def test_kappa_tau_floors(self):
        assert kappa_tau(0.6, 0.25) == 0.5
        assert _floor_steps(0.6, 0.25) == 2


class TestSigmaSpec:
    @given(st.floats(min_value=-10, max_value=10).filter(lambda x: abs(x) > 1e-8))
    def test_linear_ratio_exact(self, x):
        # the sampled ratio sigma(x)/x is |slope| exactly up to one
        # rounding of the multiply-divide round trip
        sigma = SigmaSpec.linear(2.5)
        assert sigma(x) / x == pytest.approx(2.5, rel=4e-16)

    def test_table_evaluation_and_extrapolation(self):
        sigma = SigmaSpec.table([(-1, -1), (0, 0), (2, 4)])
        assert sigma(0.5) == pytest.approx(1.0)
        assert sigma(3.0) == pytest.approx(6.0)   # extrapolated slope 2
        assert sigma(-2.0) == pytest.approx(-2.0)  # extrapolated slope 1
        ok = SigmaSpec.table([(-1, 0.5), (1, 0.5)])  # constant: flat extrapolation
        assert ok(3.0) == 0.5 and ok(-7.0) == 0.5


class TestInitialData:
    def test_constant_positive(self):
        with pytest.raises(ValueError):
            InitialData.constant(0.0)

    def test_samples_nonnegative(self):
        with pytest.raises(ValueError):
            InitialData.grid_samples([1.0, -0.1])
        data = InitialData.grid_samples([0.5, 2.0, 1.0])
        assert np.array_equal(data.values(GridSpec(3)), [0.5, 2.0, 1.0])

    @pytest.mark.parametrize("make", [lambda: InitialData.constant(math.inf),
                                      lambda: InitialData.grid_samples([1.0, math.nan, 1.0]),
                                      lambda: InitialData.grid_samples([1.0, math.inf])])
    def test_non_finite_rejected(self, make):
        with pytest.raises(ValueError, match="u0 must be finite"):
            make()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            InitialData.grid_samples([1.0, 2.0]).values(GridSpec(3))


def paper_rule_admits(n: int, tau: float, theta: float) -> bool:
    """The paper's step-size rule in exact rational arithmetic: theta < 1/2
    needs n^2 tau < 1/(2 - 4 theta); theta >= 1/2 is unconditional."""
    theta = Fraction(theta)
    return theta >= Fraction(1, 2) or n * n * Fraction(tau) * (2 - 4 * theta) < 1


class TestValidateRunConfig:
    def test_minimal_pass(self):
        # theta=1 has no coupled requirement for n, tau
        assert validate_run_config(GridSpec(3), SchemeSpec(tau=0.5, theta=1.0)) is None

    def test_small_grid_fails(self):
        with pytest.raises(ValueError, match="n < 3"):
            validate_run_config(GridSpec(2), SchemeSpec(tau=0.1, theta=1.0))

    def test_explicit_coupling_fails(self):
        # n^2 tau = 1 >= 1/(2 - 4*0) = 1/2
        with pytest.raises(ValueError, match="stability"):
            validate_run_config(GridSpec(10), SchemeSpec(tau=0.01, theta=0.0))

    def test_context_prefixes_the_message(self):
        with pytest.raises(ValueError, match=r"^rung \(10, 0.01\): stability regime violated"):
            validate_run_config(GridSpec(10), SchemeSpec(tau=0.01, theta=0.0),
                                "rung (10, 0.01)")

    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.49, 0.5, 0.75, 1.0])
    def test_raises_exactly_when_the_paper_rule_fails(self, theta):
        # n^2 tau just below and just above 1/(2 - 4 theta) (for theta >= 1/2,
        # around theta = 0's bound 1/2), and tau close to 1
        exact = 1 / (2 - 4 * Fraction(theta)) if theta < 0.5 else Fraction(1, 2)
        for n in range(3, 41):
            for coupling in (exact * (1 - Fraction(1, 10 ** 12)),
                             exact * (1 + Fraction(1, 10 ** 12)), Fraction(99, 100) * n * n):
                tau = float(coupling / (n * n))
                if tau >= 1.0:
                    continue  # theta = 0.49: the bound 25 needs n >= 6
                admitted = paper_rule_admits(n, tau, theta)
                if admitted:
                    validate_run_config(GridSpec(n), SchemeSpec(tau=tau, theta=theta))
                else:
                    with pytest.raises(ValueError, match="stability regime violated"):
                        validate_run_config(GridSpec(n), SchemeSpec(tau=tau, theta=theta))
                assert admitted == (theta >= 0.5 or coupling < exact)

    @given(n=st.integers(min_value=3, max_value=200),
           tau=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
           theta=st.floats(min_value=0.0, max_value=1.0))
    def test_exponential_stepper_never_raises(self, n, tau, theta):
        validate_run_config(GridSpec(n), SchemeSpec(tau=tau, theta=theta, stepper="exponential"))

    @pytest.mark.parametrize("n,tau,theta,named", [
        (2, 1.5, 0.0, ["n < 3", "tau out of range"]),
        (2, 0.1, 1.5, ["n < 3", "theta out of range"]),
        (5, 1.5, -0.5, ["tau out of range", "theta out of range"]),
        (2, 1.5, 2.0, ["n < 3", "tau out of range", "theta out of range"]),
    ])
    def test_every_violation_is_named(self, n, tau, theta, named):
        with pytest.raises(ValueError) as err:
            validate_run_config(GridSpec(n), SchemeSpec(tau=tau, theta=theta))
        message = str(err.value)
        assert message.startswith("invalid run configuration: ")
        assert message.count("; ") == len(named) - 1
        assert all(v in message for v in named)


class TestConfigRoundTrip:
    def test_json_round_trip_bit_exact(self):
        grid = GridSpec(7)
        scheme = SchemeSpec(tau=0.1 + 2 ** -37, theta=1 / 3, stepper="exponential")
        model = ModelSpec(lam=0.1 + 0.2,  # deliberately non-representable sum
                          sigma=SigmaSpec.table([(-1.5, -0.7), (0.0, 0.0), (2.0, 1.1)]),
                          u0=InitialData.grid_samples([0.1, math.pi, 2.5, 0.3, 1.0, 1.0, 7e-13]))
        cfg = config_to_dict(grid, scheme, model, seed=9)
        decoded = json.loads(json.dumps(cfg))
        grid2, scheme2, model2 = parse_grid(decoded), parse_scheme(decoded), parse_model(decoded)
        assert grid2 == grid
        assert scheme2 == scheme
        assert model2 == model
