"""Time stepping for the fully discrete scheme on the periodic grid.

One step of the theta scheme is

    u_{i+1} = G1 u_i + G2 (lambda sqrt(n tau) sigma(u_i) * xi_i)

where G1 = R1 R2 and G2 = R1 are the one-step discrete Green functions at
grid points: symmetric circulants with eigenvalues r1 r2 and r1, where
R1 = (1 - theta tau D_n)^{-1} and R2 = 1 + (1-theta) tau D_n.  The
exponential-integrator variant replaces R1 by exp(tau lam_j) and R2 by the
identity.  For n <= DENSE_MAX_N both operators are precomputed as dense
n x n matrices and applied by matrix products; above that size they act
mode-wise on the real-FFT coefficients, which is then the faster route.
States are monitored for the intentional exponential growth of the
intermittent regimes and abort with a blow-up diagnostic rather than
overflowing silently.

The time-continuous semi-discretization (finite differences in space only)
is realized numerically as the exponential integrator with a reference
step far below the step under study ("semi-discrete reference").
"""
from __future__ import annotations

import numpy as np

from .kernels import AmplificationFactors, spectral_basis
from .model import GridSpec, ModelSpec, SchemeSpec, validate_run_config
from .noise import NoiseSeed, sample_block

__all__ = [
    "DENSE_MAX_N",
    "BlowupError",
    "StepOperator",
    "discrete_laplacian",
    "simulate",
]

BLOWUP_LIMIT = 1e150
# Largest n stepped with dense Green matrices.  In single-threaded timings
# of one apply (batches of 100 and 1000) and one exact-recursion step the
# dense products beat the rfft round trips in every case up to n = 96; the
# batch-100 apply turns in favour of the FFT between n = 128 and 160, and
# at n = 1024 the FFT is 1.6-6x faster (table in CHANGES.md).
DENSE_MAX_N = 96


class BlowupError(RuntimeError):
    """Moment blow-up horizon reached: |u| exceeded the monitor limit."""

    def __init__(self, step_index: int, magnitude: float):
        self.step_index = step_index
        self.magnitude = magnitude
        super().__init__(
            f"moment blow-up horizon reached at step {step_index}: "
            f"|u| = {magnitude:.3g} exceeds {BLOWUP_LIMIT:.0e}")


def discrete_laplacian(values: np.ndarray, n: int | None = None) -> np.ndarray:
    """Periodic second difference times n^2; annihilates constants exactly."""
    v = np.asarray(values, dtype=float)
    n = v.shape[-1] if n is None else n
    return n * n * (np.roll(v, -1, axis=-1) - 2.0 * v + np.roll(v, 1, axis=-1))


class StepOperator:
    """Precomputed one-step operators for repeated stepping on one (n, tau, theta).

    For n <= DENSE_MAX_N (`dense`), `b` and `r1` are the symmetric n x n
    Green matrices with eigenvalues r1 r2 and r1; otherwise `r1h` and `r2h`
    are the rfft half-spectrum mode factors.
    """

    def __init__(self, n: int, scheme: SchemeSpec, model: ModelSpec):
        self.n = int(n)
        self.scheme = scheme
        self.model = model
        basis = spectral_basis(self.n)
        if scheme.stepper == "theta":
            factors = AmplificationFactors(basis, scheme.tau, scheme.theta)
            factors.require_stable()
            r1, r2 = factors.r1, factors.r2
        else:
            r1 = np.exp(scheme.tau * basis.eigenvalues)
            r2 = np.ones(self.n)
        self.dense = self.n <= DENSE_MAX_N
        if self.dense:
            q = np.arange(self.n)
            shift = (q[:, None] - q[None, :]) % self.n
            self.b = basis.grid_values(r1 * r2)[shift] / self.n
            self.r1 = basis.grid_values(r1)[shift] / self.n
        else:
            half = self.n // 2 + 1  # rfft half-spectrum
            self.r1h, self.r2h = r1[:half], r2[:half]
        self.noise_amp = model.lam * np.sqrt(self.n * scheme.tau)

    def apply(self, u: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """One step for a single state (n,) or a batch (..., n)."""
        forcing = self.noise_amp * self.model.sigma(u) * xi
        if self.dense:  # both matrices are symmetric: rows times matrix
            out = u @ self.b + forcing @ self.r1
        else:
            u_hat = np.fft.rfft(u, axis=-1)
            out = np.fft.irfft(self.r1h * (self.r2h * u_hat + np.fft.rfft(forcing, axis=-1)),
                               n=self.n, axis=-1)
        peak = np.max(np.abs(out))
        if not np.isfinite(peak) or peak > BLOWUP_LIMIT:
            raise BlowupError(-1, float(peak))
        return out


def simulate(grid: GridSpec, scheme: SchemeSpec, model: ModelSpec, seed: NoiseSeed,
             record_indices) -> np.ndarray:
    """Run one path and return the states at the requested time indices
    (index 0 when none are given) as rows of a (k, n) array, in increasing
    time order.

    Deterministic given (seed, stream); raises BlowupError with the reached
    horizon when the state exceeds the growth monitor.
    """
    report = validate_run_config(grid, scheme)
    if not report:
        raise ValueError("invalid run configuration: " + "; ".join(report.violations))
    record = sorted(set(int(i) for i in record_indices)) or [0]
    if record[0] < 0:
        raise ValueError("record indices must be nonnegative")
    op = StepOperator(grid.n, scheme, model)
    u = model.u0.values(grid)
    want = set(record)
    states = [u] if 0 in want else []
    if record[-1] > 0:
        xi = sample_block(seed, record[-1], grid.n)
        for i in range(record[-1]):
            try:
                u = op.apply(u, xi[i])
            except BlowupError as err:
                raise BlowupError(i + 1, err.magnitude) from None
            if i + 1 in want:
                states.append(u)
    return np.stack(states)
