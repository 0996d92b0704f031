import pytest

from shelab.model import InitialData, ModelSpec, SigmaSpec


@pytest.fixture
def pam_model():
    """Linear sigma (slope 1) with constant unit initial data."""
    return ModelSpec(lam=1.0, sigma=SigmaSpec.linear(1.0), u0=InitialData.constant(1.0))


@pytest.fixture
def quiet_model():
    """Noise switched off: deterministic heat equation oracle."""
    return ModelSpec(lam=0.0, sigma=SigmaSpec.linear(1.0), u0=InitialData.constant(1.0))


def const_sigma(c: float) -> SigmaSpec:
    """sigma == c everywhere (additive-noise degenerate case, J0 = 0)."""
    return SigmaSpec.table([(-1.0, c), (1.0, c)])
