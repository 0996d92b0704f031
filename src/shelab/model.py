"""Configuration types for the periodic stochastic heat equation lab.

All types are immutable after construction and validate their own basic
sanity; the combination rules (grid size, step-size coupling) live in
:func:`validate_run_config`, which raises naming every violated rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GridSpec",
    "SchemeSpec",
    "SigmaSpec",
    "InitialData",
    "ModelSpec",
    "validate_run_config",
]


def _floor_quantize(value, step_count: int) -> np.ndarray:
    """Elementwise integer k with k <= value*step_count < k+1, robust to the
    float round-trip k/step_count -> k (so the grid-flooring map is
    idempotent).  The one implementation of kappa_n."""
    value = np.asarray(value, dtype=float)
    k = np.floor(value * step_count).astype(int)
    # value may be exactly the float (k+1)/step_count whose product
    # rounded just below the integer k+1; prefer the grid point then.
    return np.where((k + 1) / step_count == value, k + 1, k)


def _floor_steps(value, step: float):
    """Elementwise integer k with k <= value/step < k+1, robust to the float
    round-trip k*step -> k (so the time-flooring map is idempotent); an int
    for a scalar value.  The one time-flooring rule."""
    k = np.floor(np.divide(value, step))
    k += (k + 1.0) * step == value
    return int(k) if k.ndim == 0 else k.astype(int)


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic partition of [0,1) into n cells, x_j = j/n."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n (the grid size) must be a positive integer, got {self.n!r}")


@dataclass(frozen=True)
class SchemeSpec:
    """Time discretization: step tau, blending parameter theta, stepper."""

    tau: float
    theta: float = 1.0
    stepper: str = "theta"  # "theta" | "exponential"

    def __post_init__(self):
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError(f"tau (the time step) must be positive and finite, got {self.tau!r}")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.stepper not in ("theta", "exponential"):
            raise ValueError(f"unknown stepper {self.stepper!r}")


@dataclass(frozen=True)
class SigmaSpec:
    """Diffusion coefficient: linear, or a table of samples.

    kind "linear": sigma(x) = slope*x.
    kind "table": piecewise-linear interpolation of (x, y) samples with
    strictly increasing x, extrapolated with the terminal slopes.
    """

    kind: str
    slope: float = 0.0
    points: tuple = ()

    @staticmethod
    def linear(slope: float) -> "SigmaSpec":
        return SigmaSpec(kind="linear", slope=float(slope))

    @staticmethod
    def table(points: Sequence[tuple]) -> "SigmaSpec":
        return SigmaSpec(kind="table", points=tuple((float(x), float(y)) for x, y in points))

    def __post_init__(self):
        if self.kind == "linear":
            return
        if self.kind != "table":
            raise ValueError(f"unknown sigma kind {self.kind!r}")
        if len(self.points) < 2:
            raise ValueError("points (the sigma table) must hold at least two samples")
        if np.any(np.diff([p[0] for p in self.points]) <= 0):
            raise ValueError("points (the sigma table) must have strictly increasing x")

    def __call__(self, x):
        """sigma(x) as a new float array, never a view of x: callers such as
        `solver.StepOperator.apply` build on the result in place."""
        if self.kind == "linear":
            return self.slope * np.asarray(x, dtype=float)
        xs = np.array([p[0] for p in self.points])
        ys = np.array([p[1] for p in self.points])
        x = np.asarray(x, dtype=float)
        out = np.interp(x, xs, ys)
        s_lo = (ys[1] - ys[0]) / (xs[1] - xs[0])
        s_hi = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        out = np.where(x < xs[0], ys[0] + s_lo * (x - xs[0]), out)
        out = np.where(x > xs[-1], ys[-1] + s_hi * (x - xs[-1]), out)
        return out

    @property
    def is_linear(self) -> bool:
        return self.kind == "linear"


@dataclass(frozen=True)
class InitialData:
    """Nonnegative deterministic initial state, constant or grid samples."""

    kind: str
    value: float = 0.0
    samples: tuple = ()

    @staticmethod
    def constant(value: float) -> "InitialData":
        if not value > 0.0:
            raise ValueError(f"value (the constant u0) must be positive, got {value!r}")
        return InitialData(kind="constant", value=float(value))

    @staticmethod
    def grid_samples(samples: Sequence[float]) -> "InitialData":
        arr = tuple(float(s) for s in samples)
        if any(s < 0.0 for s in arr):
            raise ValueError("values (the initial samples u0) must be nonnegative")
        return InitialData(kind="samples", samples=arr)

    def __post_init__(self):
        if self.kind not in ("constant", "samples"):
            raise ValueError(f"unknown initial data kind {self.kind!r}")
        if not all(math.isfinite(v) for v in (self.value, *self.samples)):
            raise ValueError("initial data u0 must be finite")

    def values(self, grid: GridSpec) -> np.ndarray:
        if self.kind == "constant":
            return np.full(grid.n, self.value)
        if len(self.samples) != grid.n:
            raise ValueError("values (the initial samples u0) must be one per grid point: "
                             f"{grid.n} expected, got {len(self.samples)}")
        return np.array(self.samples, dtype=float)


@dataclass(frozen=True)
class ModelSpec:
    """Noise level, diffusion coefficient and initial data of the equation."""

    lam: float
    sigma: SigmaSpec
    u0: InitialData

    def __post_init__(self):
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lambda (the noise level) must be nonnegative, got {self.lam!r}")


def validate_run_config(grid: GridSpec, scheme: SchemeSpec,
                        context: str = "invalid run configuration") -> None:
    """The one admissibility check of a run: raise
    ValueError("<context>: <violations>") naming every violated assumption,
    not only the first: grid size, time-step range and theta range, then the
    paper's step-size rule.  The theta scheme with theta < 1/2 needs
    n^2 tau < 1/(2 - 4 theta); theta >= 1/2 and the exponential stepper are
    unconditional.
    """
    violations = []
    if grid.n < 3:
        violations.append(f"n < 3: grid size {grid.n} below the minimum partition count")
    if not (0.0 < scheme.tau < 1.0):
        violations.append(f"tau out of range (0,1): {scheme.tau}")
    if not (0.0 <= scheme.theta <= 1.0):
        violations.append(f"theta out of range [0,1]: {scheme.theta}")
    coupling = grid.n * grid.n * scheme.tau
    if (not violations and scheme.stepper == "theta" and scheme.theta < 0.5
            and not coupling < 1.0 / (2.0 - 4.0 * scheme.theta)):
        violations.append(
            f"stability regime violated: n^2*tau={coupling:g} inadmissible for "
            f"theta={scheme.theta:g} (theta < 1/2 needs n^2*tau < 1/(2 - 4 theta))")
    if violations:
        raise ValueError(f"{context}: " + "; ".join(violations))
