"""Time stepping for the fully discrete scheme on the periodic grid.

One step of the theta scheme is

    u_{i+1} = G1 u_i + G2 (lambda sqrt(n tau) sigma(u_i) * xi_i)

where G1 = R1 R2 and G2 = R1 are the one-step discrete Green functions at
grid points: symmetric circulants with eigenvalues r1 r2 and r1, where
R1 = (1 - theta tau D_n)^{-1} and R2 = 1 + (1-theta) tau D_n.  The
exponential-integrator variant replaces R1 by exp(tau lam_j) and R2 by the
identity.  Where R2 = I (theta = 1 and the exponential stepper) a step is
one application of R1 to u_i plus the forcing.  For n <= DENSE_MAX_N the
operators are precomputed as dense n x n matrices and applied by matrix
products; above that size they act mode-wise on the real-FFT coefficients,
which is then the faster route.  States are monitored for the intentional
exponential growth of the intermittent regimes and abort with a blow-up
diagnostic rather than overflowing silently.

The time-continuous semi-discretization (finite differences in space only)
is realized numerically as the exponential integrator with a reference
step far below the step under study ("semi-discrete reference").
"""
from __future__ import annotations

from itertools import chain

import numpy as np

from .kernels import AmplificationFactors, spectral_basis
from .model import GridSpec, ModelSpec, SchemeSpec, validate_run_config
from .noise import NoiseSeed, noise_reads, normal_rows

__all__ = [
    "DENSE_MAX_N",
    "BlowupError",
    "StepOperator",
    "discrete_laplacian",
    "simulate",
]

BLOWUP_LIMIT = 1e150
# Largest n stepped with dense Green matrices.  In single-threaded timings
# of one apply (theta = 1 and 0.75, batches of 100 and 1000) the dense
# products beat the rfft round trips in every case up to n = 96; at
# n = 128 the theta = 0.75 batch-100 apply ties, and from n = 160 the
# batch-100 apply favours the FFT (tables in CHANGES.md).
DENSE_MAX_N = 96


class BlowupError(RuntimeError):
    """Moment blow-up horizon reached: |u| exceeded the monitor limit.  On
    a ladder, `rung` is the (n, tau) whose own step `step_index` blew up."""

    def __init__(self, step_index: int, magnitude: float, rung: tuple | None = None):
        self.step_index = step_index
        self.magnitude = magnitude
        self.rung = rung
        where = "" if rung is None else f" on rung (n, tau) = ({rung[0]}, {rung[1]!r})"
        super().__init__(
            f"moment blow-up horizon reached at step {step_index}: "
            f"|u| = {magnitude:.3g} exceeds {BLOWUP_LIMIT:.0e}{where}")


def discrete_laplacian(values: np.ndarray) -> np.ndarray:
    """Periodic second difference times n^2; annihilates constants exactly."""
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    return n * n * (np.roll(v, -1, axis=-1) - 2.0 * v + np.roll(v, 1, axis=-1))


class StepOperator:
    """Precomputed one-step operators for repeated stepping on one (n, tau, theta).

    For n <= DENSE_MAX_N (`dense`), `r1` is the symmetric n x n Green
    matrix with eigenvalues r1 and `b` the one with eigenvalues r1 r2;
    otherwise `r1h` and `r2h` are the rfft half-spectrum mode factors.
    `r2_is_one` is set when every r2 is exactly 1 (theta = 1 and the
    exponential stepper); `b` and `r2h` are then None and a step applies
    R1 once, to u plus the forcing.
    """

    def __init__(self, n: int, scheme: SchemeSpec, model: ModelSpec):
        self.n = int(n)
        self.model = model
        basis = spectral_basis(self.n)
        factors = AmplificationFactors(basis, scheme).require_stable()
        validate_run_config(GridSpec(self.n), scheme)  # the paper's rule, stricter on odd n
        self.r2_is_one = bool(np.all(factors.r2 == 1.0))
        self.dense = self.n <= DENSE_MAX_N
        if self.dense:
            self.r1 = basis.circulant(factors.r1)
            self.b = None if self.r2_is_one else basis.circulant(factors.r12)
        else:
            half = self.n // 2 + 1  # rfft half-spectrum
            self.r1h = factors.r1[:half]
            self.r2h = None if self.r2_is_one else factors.r2[:half]
        self.noise_amp = model.lam * np.sqrt(self.n * scheme.tau)

    @np.errstate(over="ignore", invalid="ignore")  # the blow-up monitor reports inf and nan
    def apply(self, u: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """One step for a single state (n,) or a batch (..., n); u and xi
        are left unchanged."""
        forcing = self.model.sigma(u)  # a new array (SigmaSpec.__call__), built up in place
        forcing *= self.noise_amp
        forcing *= xi
        # the Green matrices are symmetric: rows times matrix
        if self.r2_is_one:
            forcing += u
            if self.dense:
                out = forcing @ self.r1
            else:
                out = np.fft.irfft(self.r1h * np.fft.rfft(forcing, axis=-1), n=self.n, axis=-1)
        elif self.dense:
            out = u @ self.b + forcing @ self.r1
        else:
            u_hat = np.fft.rfft(u, axis=-1)
            out = np.fft.irfft(self.r1h * (self.r2h * u_hat + np.fft.rfft(forcing, axis=-1)),
                               n=self.n, axis=-1)
        hi, lo = out.max(), out.min()
        if not (hi <= BLOWUP_LIMIT and lo >= -BLOWUP_LIMIT):  # false on nan
            magnitude = float(max(hi, -lo))  # largest |u|, or nan
            if np.isnan(magnitude) and np.isinf(u).any() and not np.isnan(u).any():
                magnitude = np.inf  # the real FFT turns a state's infs into nans
            raise BlowupError(-1, magnitude)
        return out

    def walk(self, u: np.ndarray, gens, steps: int):
        """Yield the states after each of `steps` steps from u, a state (n,)
        for one generator or a batch (paths, n), one path per generator.
        Each path's stream is read in the chunks of noise.noise_reads, one
        chunk alive at a time; a blow-up raises BlowupError naming its step."""
        for read in noise_reads(steps, len(gens) * self.n):
            xi = normal_rows(gens, len(read), self.n)
            for k, i in enumerate(read):
                try:
                    u = self.apply(u, xi[:, k].reshape(u.shape))
                except BlowupError as err:
                    raise BlowupError(i + 1, err.magnitude) from None
                yield u
            del xi  # hold one chunk at a time


def simulate(grid: GridSpec, scheme: SchemeSpec, model: ModelSpec, seed: NoiseSeed,
             record_indices) -> np.ndarray:
    """Run one path and return the states at the requested time indices
    (index 0 when none are given) as rows of a (k, n) array, in increasing
    time order.

    Deterministic given (seed, stream); raises BlowupError with the reached
    horizon when the state exceeds the growth monitor.  The path is stepped
    by StepOperator.walk, which reads its noise in chunks, and only the
    requested states are kept.
    """
    validate_run_config(grid, scheme)
    record = sorted(set(int(i) for i in record_indices)) or [0]
    if record[0] < 0:
        raise ValueError("record indices must be nonnegative")
    u = model.u0.values(grid)
    walk = StepOperator(grid.n, scheme, model).walk(u, [seed.bit_generator()], record[-1])
    want = set(record)
    return np.stack([s for i, s in enumerate(chain([u], walk)) if i in want])
