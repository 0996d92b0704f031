"""Time stepping for the fully discrete scheme on the periodic grid.

The implicit part of the theta step is solved exactly by diagonalizing the
circulant second-difference operator with the real FFT: one step is

    u_{i+1} = R1 (R2 u_i + lambda sqrt(n tau) sigma(u_i) * xi_i)

with R1 = (1 - theta tau D_n)^{-1} and R2 = 1 + (1-theta) tau D_n acting
mode-wise on the rfft coefficients.  The exponential-integrator variant
replaces R1 by exp(tau lam_j) and R2 by the identity.  States are
monitored for the intentional exponential growth of the intermittent
regimes and abort with a blow-up diagnostic rather than overflowing
silently.

The time-continuous semi-discretization (finite differences in space only)
is realized numerically as the exponential integrator with a reference
step far below the step under study ("semi-discrete reference").
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import AmplificationFactors, spectral_basis
from .model import GridSpec, ModelSpec, SchemeSpec, validate_run_config
from .noise import NoiseSeed, sample_block

__all__ = [
    "BlowupError",
    "Field",
    "Trajectory",
    "StepOperator",
    "discrete_laplacian",
    "simulate",
]

BLOWUP_LIMIT = 1e150


class BlowupError(RuntimeError):
    """Moment blow-up horizon reached: |u| exceeded the monitor limit."""

    def __init__(self, step_index: int, magnitude: float):
        self.step_index = step_index
        self.magnitude = magnitude
        super().__init__(
            f"moment blow-up horizon reached at step {step_index}: "
            f"|u| = {magnitude:.3g} exceeds {BLOWUP_LIMIT:.0e}")


@dataclass
class Field:
    """Length-n state vector on the spatial grid at time index i."""

    values: np.ndarray
    time_index: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("field values must be one-dimensional")
        if not np.all(np.isfinite(self.values)):
            raise BlowupError(self.time_index, float(np.max(np.abs(self.values))))

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass
class Trajectory:
    """Recorded snapshots of one path; indices are strictly increasing."""

    tau: float
    indices: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)

    def append(self, f: Field):
        if self.indices and f.time_index <= self.indices[-1]:
            raise ValueError("snapshot indices must be strictly increasing")
        self.indices.append(f.time_index)
        self.snapshots.append(f)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self.indices) * self.tau

    @property
    def values(self) -> np.ndarray:
        return np.stack([f.values for f in self.snapshots])


def discrete_laplacian(values: np.ndarray, n: int | None = None) -> np.ndarray:
    """Periodic second difference times n^2; annihilates constants exactly."""
    v = np.asarray(values, dtype=float)
    n = v.shape[-1] if n is None else n
    return n * n * (np.roll(v, -1, axis=-1) - 2.0 * v + np.roll(v, 1, axis=-1))


class StepOperator:
    """Precomputed mode factors for repeated stepping on one (n, tau, theta)."""

    def __init__(self, n: int, scheme: SchemeSpec, model: ModelSpec):
        self.n = int(n)
        self.scheme = scheme
        self.model = model
        basis = spectral_basis(self.n)
        half = self.n // 2 + 1  # rfft half-spectrum
        if scheme.stepper == "theta":
            factors = AmplificationFactors(basis, scheme.tau, scheme.theta)
            factors.require_stable()
            self.r1h, self.r2h = factors.r1[:half], factors.r2[:half]
        else:
            self.r1h = np.exp(scheme.tau * basis.eigenvalues[:half])
            self.r2h = np.ones(half)
        self.noise_amp = model.lam * np.sqrt(self.n * scheme.tau)

    def apply(self, u: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """One step for a single state (n,) or a batch (..., n)."""
        u_hat = np.fft.rfft(u, axis=-1)
        forcing = np.fft.rfft(self.noise_amp * self.model.sigma(u) * xi, axis=-1)
        out = np.fft.irfft(self.r1h * (self.r2h * u_hat + forcing), n=self.n, axis=-1)
        peak = np.max(np.abs(out))
        if not np.isfinite(peak) or peak > BLOWUP_LIMIT:
            raise BlowupError(-1, float(peak))
        return out


def simulate(grid: GridSpec, scheme: SchemeSpec, model: ModelSpec, seed: NoiseSeed,
             record_indices) -> Trajectory:
    """Run one path, recording the requested time indices.

    Deterministic given (seed, stream); raises BlowupError with the reached
    horizon when the state exceeds the growth monitor.
    """
    report = validate_run_config(grid, scheme, model)
    if not report:
        raise ValueError("invalid run configuration: " + "; ".join(report.violations))
    record = sorted(set(int(i) for i in record_indices))
    if record and record[0] < 0:
        raise ValueError("record indices must be nonnegative")
    steps = record[-1] if record else 0
    op = StepOperator(grid.n, scheme, model)
    u = model.u0.values(grid)
    traj = Trajectory(tau=scheme.tau)
    want = set(record) if record else {0}
    if 0 in want:
        traj.append(Field(values=u.copy(), time_index=0))
    if steps > 0:
        xi = sample_block(seed, steps, grid.n, tau=scheme.tau).xi
        for i in range(steps):
            try:
                u = op.apply(u, xi[i])
            except BlowupError as err:
                raise BlowupError(i + 1, err.magnitude) from None
            if (i + 1) in want:
                traj.append(Field(values=u.copy(), time_index=i + 1))
    return traj
