import math

import pytest
from scipy.optimize import brentq

from shelab import checks
from shelab.kernels import SpectralBasis
from shelab.model import InitialData, ModelSpec, SigmaSpec


@pytest.fixture
def pam_model():
    """Linear sigma (slope 1) with constant unit initial data."""
    return ModelSpec(lam=1.0, sigma=SigmaSpec.linear(1.0), u0=InitialData.constant(1.0))


@pytest.fixture
def quiet_model():
    """Noise switched off: deterministic heat equation oracle."""
    return ModelSpec(lam=0.0, sigma=SigmaSpec.linear(1.0), u0=InitialData.constant(1.0))


def perturb_eigenvalues(monkeypatch, perturbation: float) -> None:
    """Make the lemma suite see the eigenvalues 1 and n - 1 of every grid
    scaled by 1 + perturbation: a fault its eigenpair check must catch."""
    def perturbed(n: int) -> SpectralBasis:
        basis = SpectralBasis(n)
        basis.eigenvalues[[1, n - 1]] *= 1.0 + perturbation
        return basis

    monkeypatch.setattr(checks, "spectral_basis", perturbed)


def const_sigma(c: float) -> SigmaSpec:
    """sigma == c everywhere (additive-noise degenerate case, J0 = 0)."""
    return SigmaSpec.table([(-1.0, c), (1.0, c)])


def discrete_mu_tau_limit(lam: float, j0: float, n: int) -> float:
    """tau -> 0 limit of the discrete renewal root: the root on (0, 1) of
    b~ / sqrt(mu^2 b~^2 + 4 n^2 pi) - (1/mu - 1), b~ = lambda^2 J0^2 / (8 sqrt(pi)),
    solved by scipy's brentq.

    This is the "continuous" target the discrete roots converge to as the
    time step is refined; it differs from the continuous-case root because
    the discrete density is built from a coarser kernel lower bound
    (b~ and 4 n^2 pi instead of b = lambda^2 J0^2 / sqrt(32 pi) and 2 n^2 pi).
    """
    btilde = lam ** 2 * j0 ** 2 / (8.0 * math.sqrt(math.pi))
    c = 4.0 * n * n * math.pi

    def h(mu: float) -> float:
        return btilde / math.sqrt(mu * mu * btilde * btilde + c) - (1.0 / mu - 1.0)

    lo = 1e-12
    while h(lo) >= 0.0:
        lo /= 2.0
    return brentq(h, lo, 1.0 - 1e-12, xtol=1e-13)
