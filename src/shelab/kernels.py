"""Periodic heat kernels: continuous, spatially semi-discrete and fully
discrete, plus their closed-form square integrals.

The discrete kernels are mode sums over one complex interpolated mode,
sum_j c_j e^n_j(x) conj(e_j(kappa_n(y))); at grid points, Green matrices
included, one inverse real FFT of the even mode coefficients.  The
continuous kernel is evaluated through two dual series (a Gaussian image
sum for small times, a spectral sum for large times) that overlap far
below machine precision at the crossover.  A call evaluates all of its
spectral-branch times as one matrix product, a (times x modes) decay
table times the (modes x points) cosine table, and its image-branch times
one row of points each, so no times x points x terms tensor is built.

Time broadcasting: every kernel and square integral below takes a scalar
time or a 1-D array of times.  An array adds a leading time axis to the
output, shape (len(t),) + the broadcast shape of the space arguments; a
scalar returns exactly what a single call returns (a float for scalar
space arguments).  Discrete step counts [t/tau] are floored elementwise
by `AmplificationFactors.step_power`.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import _floor_quantize, _floor_steps

__all__ = [
    "SpectralBasis",
    "spectral_basis",
    "AmplificationFactors",
    "StabilityViolation",
    "heat_kernel",
    "heat_kernel_square_integral",
    "semi_green",
    "semi_green_square_integral",
    "semi_green_grid",
    "full_green",
    "full_green_square_integral",
    "full_green_grid",
]


class StabilityViolation(RuntimeError):
    """Raised when a fully discrete kernel is requested for mode factors
    that are not uniformly contractive (|R1*R2| >= 1 for some mode j>=1)."""

    def __init__(self, mode: int, value: float):
        self.mode = mode
        self.value = value
        super().__init__(
            f"amplification |R1*R2| = {value:.6g} >= 1 at mode j={mode}; "
            "the step-size regime is inadmissible")


# Truncation of the continuous kernel's two dual series.  Both tails stay far
# below 1e-16 at the crossover t* = 0.05: the image tail
# exp(-(M-1)^2/(4 t*)) / sqrt(4 pi t*) needs M >= 4 and the spectral tail
# exp(-4 pi^2 J^2 t*) needs J >= 5; the choices are deliberately generous.
IMAGE_TERMS = 6
SPECTRAL_TERMS = 64
CROSSOVER_TIME = 0.05


class SpectralBasis:
    """Eigenstructure of the periodic n-point second-difference operator.

    Eigenvalues lam_j = -4 n^2 sin^2(j pi / n); complex modes e_j(x) =
    exp(2 pi i j x), evaluated at grid points and through their
    piecewise-linear grid interpolants e^n_j.
    """

    def __init__(self, n: int):
        if n < 3:
            raise ValueError(f"spectral basis needs n >= 3, got {n}")
        self.n = int(n)
        j = np.arange(self.n)
        self.eigenvalues = -4.0 * n * n * np.sin(j * np.pi / n) ** 2
        self.eigenvalues[0] = 0.0

    def _grid_modes(self, k):
        """e_j(k/n) for j = 0..n-1 at integer grid indices k."""
        j = np.arange(self.n)
        return np.exp(2j * np.pi * np.multiply.outer(j, k % self.n) / self.n)

    def modes(self, x):
        """e^n_j(x) for j = 0..n-1, shape (n,) + x.shape: the piecewise-linear
        interpolant of exp(2 pi i j .) between grid points."""
        x = np.asarray(x, dtype=float)
        k = _floor_quantize(x, self.n)
        # a point snapped up to the grid point k/n has n x just below k
        frac = np.maximum(self.n * x - k, 0.0)
        e0, e1 = self._grid_modes(k), self._grid_modes(k + 1)
        return e0 + frac * (e1 - e0)

    def mode_abs2_interp(self, x):
        """|e^n_j(x)|^2 for all modes j=0..n-1; equals 1 at grid points."""
        m = self.modes(x)
        return m.real ** 2 + m.imag ** 2

    def assemble(self, coeff: np.ndarray, x, y):
        """Re sum_j coeff[..., j] e^n_j(x) conj(e_j(kappa_n(y))); leading axes
        of coeff (one row per time) lead the output."""
        xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        ey = self._grid_modes(_floor_quantize(yb, self.n))
        return np.tensordot(coeff, self.modes(xb) * ey.conj(), axes=(-1, 0)).real

    def _even_rows(self, coeff: np.ndarray) -> np.ndarray:
        """irfft rows of coefficients even in j, made exactly even in d."""
        rows = np.fft.irfft(coeff[..., :self.n // 2 + 1], self.n)
        return (rows + rows[..., -np.arange(self.n) % self.n]) / 2.0

    def grid_values(self, coeff: np.ndarray) -> np.ndarray:
        """Kernel values at grid points as a function of q-l (translation
        invariant there): g[..., d] = sum_j coeff[..., j] exp(2 pi i j d / n)
        for coeff even in j, one inverse real FFT per row."""
        return self.n * self._even_rows(coeff)

    def circulant(self, coeff: np.ndarray) -> np.ndarray:
        """The symmetric n x n Green matrix with Fourier eigenvalues coeff
        (even in j): entry (q, l) = grid_values(coeff)[(q - l) mod n] / n;
        a leading batch axis of coeff gives a stack of matrices."""
        d = np.arange(self.n)
        return np.take(self._even_rows(coeff), d[None, :] - d[:, None], axis=-1, mode="wrap")


@lru_cache(maxsize=128)
def _cached_basis(n: int) -> SpectralBasis:
    return SpectralBasis(n)


def spectral_basis(n: int) -> SpectralBasis:
    return _cached_basis(int(n))


class AmplificationFactors:
    """Per-mode one-step factors of the theta scheme.

    r1_j = (1 - theta tau lam_j)^-1, r2_j = 1 + (1-theta) tau lam_j and
    their product r12_j.
    """

    def __init__(self, basis: SpectralBasis, tau: float, theta: float):
        if not tau > 0.0:
            raise ValueError("tau must be positive")
        self.basis = basis
        self.tau = float(tau)
        self.theta = float(theta)
        lam = basis.eigenvalues
        self.r1 = 1.0 / (1.0 - theta * tau * lam)
        self.r2 = 1.0 + (1.0 - theta) * tau * lam
        self.r12 = self.r1 * self.r2

    @property
    def n(self) -> int:
        return self.basis.n

    def contraction_margin(self) -> tuple[float, int]:
        """(epsilon, binding mode): max_{1<=j<=n/2} |r1 r2| = 1 - epsilon."""
        half = self.n // 2
        mags = np.abs(self.r12[1:half + 1])
        j = int(np.argmax(mags)) + 1
        return 1.0 - float(mags[j - 1]), j

    def require_stable(self):
        eps, j = self.contraction_margin()
        if eps <= 0.0:
            raise StabilityViolation(j, 1.0 - eps)

    def step_power(self, t):
        """[t/tau] elementwise: an int for scalar t, an int array otherwise."""
        _require_nonnegative(t)
        return _floor_steps(t, self.tau)


# ---------------------------------------------------------------------------
# continuous kernel
# ---------------------------------------------------------------------------

def _heat_kernel_image(t, d, terms: int):
    """Image sum, one row of points per time, so the (points x images)
    table is the only large temporary."""
    t = np.asarray(t, dtype=float)
    m = np.arange(-terms, terms + 1, dtype=float)
    z2 = np.subtract.outer(np.asarray(d, dtype=float), m) ** 2
    out = np.empty((t.size,) + z2.shape[:-1])
    for k, tk in enumerate(t.ravel()):
        out[k] = np.exp(z2 / (-4.0 * tk)).sum(axis=-1) / np.sqrt(4.0 * np.pi * tk)
    return out.reshape(t.shape + z2.shape[:-1])


def _heat_kernel_spectral(t, d, terms: int):
    """Spectral sum for all times as one product of the (times x modes)
    decay table with the (modes x points) cosine table."""
    t, d = np.asarray(t, dtype=float), np.asarray(d, dtype=float)
    j = np.arange(1, terms + 1)
    cos = np.multiply.outer(2.0 * np.pi * j, d.ravel())
    np.cos(cos, out=cos)
    decay = np.exp(np.multiply.outer(t, -4.0 * np.pi ** 2 * j ** 2))
    return (1.0 + 2.0 * (decay @ cos)).reshape(t.shape + d.shape)


def _result(out):
    """A 0-d result is a float (scalar time and space arguments)."""
    return float(out) if np.ndim(out) == 0 else out


def _require_nonnegative(t):
    if np.any(np.asarray(t) < 0.0):
        raise ValueError("time must be nonnegative")


def heat_kernel(t, x, y):
    """Continuous periodic heat kernel G(t,x,y)."""
    times = np.asarray(t, dtype=float)
    if not np.all(times > 0.0):
        raise ValueError(f"heat kernel needs t > 0, got {t}")
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    times = np.atleast_1d(times)
    out = np.empty(times.shape + d.shape)
    small = times < CROSSOVER_TIME
    if small.any():
        out[small] = _heat_kernel_image(times[small], d, IMAGE_TERMS)
    if not small.all():
        out[~small] = _heat_kernel_spectral(times[~small], d, SPECTRAL_TERMS)
    return _result(out[0] if np.ndim(t) == 0 else out)


def heat_kernel_square_integral(t):
    """int_0^1 G(t,x,y)^2 dy = G(2t,x,x), independent of x."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise ValueError(f"square integral needs t > 0, got {t}")
    return heat_kernel(2.0 * t, 0.0, 0.0)


# ---------------------------------------------------------------------------
# semi-discrete kernel
# ---------------------------------------------------------------------------

def semi_green(t, x, y, basis: SpectralBasis):
    """Spatially semi-discrete Green function: piecewise linear in x,
    piecewise constant in y on grid cells."""
    _require_nonnegative(t)
    coeff = np.exp(np.multiply.outer(t, basis.eigenvalues))
    return _result(basis.assemble(coeff, x, y))


def semi_green_square_integral(t, x, basis: SpectralBasis):
    """int_0^1 (G^n(t,x,y))^2 dy = sum_j e^{2 lam_j t} |e^n_j(x)|^2."""
    _require_nonnegative(t)
    coeff = np.exp(np.multiply.outer(t, 2.0 * basis.eigenvalues))
    return _result(np.tensordot(coeff, basis.mode_abs2_interp(x), axes=(-1, 0)))


def semi_green_grid(t, basis: SpectralBasis) -> np.ndarray:
    """Grid-point values as a vector over d = (q-l) mod n, one row per time
    for an array of times."""
    _require_nonnegative(t)
    return basis.grid_values(np.exp(np.multiply.outer(t, basis.eigenvalues)))


# ---------------------------------------------------------------------------
# fully discrete kernels
# ---------------------------------------------------------------------------

def _power_rows(base: np.ndarray, power):
    """base ** power, one row per entry of an array of step counts."""
    return base ** (power if np.ndim(power) == 0 else np.expand_dims(power, -1))


def _full_coeff(t, which: str, factors: AmplificationFactors) -> np.ndarray:
    factors.require_stable()
    coeff = _power_rows(factors.r12, factors.step_power(t))
    if which == "G2":
        coeff = coeff * factors.r1
    elif which != "G1":
        raise ValueError(f"unknown fully discrete kernel {which!r}")
    return coeff


def full_green(t, x, y, which: str, factors: AmplificationFactors):
    """Fully discrete Green function G1 (propagator) or G2 (noise kernel);
    piecewise constant in t on [i tau, (i+1) tau)."""
    return _result(factors.basis.assemble(_full_coeff(t, which, factors), x, y))


def full_green_square_integral(t, x, factors: AmplificationFactors):
    """int_0^1 (G2(t,x,y))^2 dy = sum_j (r1 r2)_j^{2[t/tau]} r1_j^2 |e^n_j(x)|^2."""
    factors.require_stable()
    coeff = _power_rows(factors.r12, 2 * factors.step_power(t)) * factors.r1 ** 2
    out = np.tensordot(coeff, factors.basis.mode_abs2_interp(x), axes=(-1, 0))
    return _result(out)


def full_green_grid(t, which: str, factors: AmplificationFactors) -> np.ndarray:
    """Grid-point values of G1/G2 as a vector over d = (q-l) mod n, one row
    per time for an array of times."""
    return factors.basis.grid_values(_full_coeff(t, which, factors))
