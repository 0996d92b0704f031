import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shelab.cli import config_to_dict, parse_grid, parse_model, parse_scheme
from shelab.model import (GridSpec, InitialData, ModelSpec, SchemeSpec, SigmaSpec,
                          validate_run_config)


class TestGridSpec:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GridSpec(0)

    def test_points(self):
        assert np.allclose(GridSpec(4).points, [0.0, 0.25, 0.5, 0.75])

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=97))
    def test_kappa_idempotent(self, y, n):
        grid = GridSpec(n)
        assert grid.kappa(grid.kappa(y)) == grid.kappa(y)

    @given(st.integers(min_value=0, max_value=96), st.integers(min_value=3, max_value=97))
    def test_kappa_fixes_grid_points(self, k, n):
        grid = GridSpec(n)
        point = k / n
        assert grid.kappa(point) == point

    def test_cell_index_wraps(self):
        grid = GridSpec(3)
        assert grid.cell_index(1.0) == 0
        assert grid.cell_index(0.999) == 2


class TestSchemeSpec:
    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            SchemeSpec(tau=0.0)

    @given(st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=1e-4, max_value=0.9))
    def test_kappa_tau_idempotent(self, s, tau):
        scheme = SchemeSpec(tau=tau)
        assert scheme.kappa(scheme.kappa(s)) == scheme.kappa(s)

    def test_kappa_tau_floors(self):
        scheme = SchemeSpec(tau=0.25)
        assert scheme.kappa(0.6) == 0.5
        assert scheme.step_index(0.6) == 2


class TestSigmaSpec:
    @given(st.floats(min_value=-10, max_value=10).filter(lambda x: abs(x) > 1e-8))
    def test_linear_ratio_exact(self, x):
        # the declared J0 equals |slope| exactly; the sampled ratio is exact
        # up to one rounding of the multiply-divide round trip
        sigma = SigmaSpec.linear(2.5)
        assert sigma(x) / x == pytest.approx(2.5, rel=4e-16)
        assert sigma.lower_ratio == 2.5 and sigma.lipschitz == 2.5

    def test_table_slope_validation(self):
        with pytest.raises(ValueError, match="lipschitz"):
            SigmaSpec.table([(-1, -2), (1, 2)], lipschitz=1.0, lower_ratio=1.0)

    def test_table_lower_ratio_validation(self):
        # sigma(x) = x has J0 = 1; declaring more must fail
        with pytest.raises(ValueError, match="lower_ratio"):
            SigmaSpec.table([(-1, -1), (1, 1)], lipschitz=1.0, lower_ratio=2.0)

    def test_constant_table_needs_zero_j0(self):
        with pytest.raises(ValueError, match="lower_ratio"):
            SigmaSpec.table([(-1, 0.5), (1, 0.5)], lipschitz=0.0, lower_ratio=0.1)
        ok = SigmaSpec.table([(-1, 0.5), (1, 0.5)], lipschitz=0.0, lower_ratio=0.0)
        assert ok(3.0) == 0.5 and ok(-7.0) == 0.5

    def test_zero_crossing_forces_zero_j0(self):
        # sigma crosses zero at x=0.5, so inf |sigma/x| = 0
        with pytest.raises(ValueError, match="lower_ratio"):
            SigmaSpec.table([(0, 1), (1, -1)], lipschitz=2.0, lower_ratio=0.5)

    def test_table_evaluation_and_extrapolation(self):
        sigma = SigmaSpec.table([(-1, -1), (0, 0), (2, 4)],
                                lipschitz=2.0, lower_ratio=1.0)
        assert sigma(0.5) == pytest.approx(1.0)
        assert sigma(3.0) == pytest.approx(6.0)   # extrapolated slope 2
        assert sigma(-2.0) == pytest.approx(-2.0)  # extrapolated slope 1


class TestInitialData:
    def test_constant_positive(self):
        with pytest.raises(ValueError):
            InitialData.constant(0.0)

    def test_samples_nonnegative(self):
        with pytest.raises(ValueError):
            InitialData.grid_samples([1.0, -0.1])
        data = InitialData.grid_samples([0.5, 2.0, 1.0])
        assert data.i0 == 0.5
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


class TestValidateRunConfig:
    def test_minimal_pass(self):
        # theta=1 has no coupled requirement for n, tau
        report = validate_run_config(GridSpec(3), SchemeSpec(tau=0.5, theta=1.0))
        assert report.passed and not report.violations

    def test_small_grid_fails(self):
        report = validate_run_config(GridSpec(2), SchemeSpec(tau=0.1, theta=1.0))
        assert not report.passed
        assert any("n < 3" in v for v in report.violations)

    def test_explicit_coupling_fails(self):
        # n^2 tau = 1 >= 1/(2 - 4*0) = 1/2
        report = validate_run_config(GridSpec(10), SchemeSpec(tau=0.01, theta=0.0))
        assert not report.passed
        assert any("stability" in v for v in report.violations)


class TestConfigRoundTrip:
    def test_json_round_trip_bit_exact(self):
        grid = GridSpec(7)
        scheme = SchemeSpec(tau=0.1 + 2 ** -37, theta=1 / 3, stepper="exponential")
        model = ModelSpec(lam=0.1 + 0.2,  # deliberately non-representable sum
                          sigma=SigmaSpec.table([(-1.5, -0.7), (0.0, 0.0), (2.0, 1.1)],
                                                lipschitz=0.55, lower_ratio=0.0),
                          u0=InitialData.grid_samples([0.1, math.pi, 2.5, 0.3, 1.0, 1.0, 7e-13]))
        cfg = config_to_dict(grid, scheme, model, seed=9)
        decoded = json.loads(json.dumps(cfg))
        grid2, scheme2, model2 = parse_grid(decoded), parse_scheme(decoded), parse_model(decoded)
        assert grid2 == grid
        assert scheme2 == scheme
        assert model2 == model
