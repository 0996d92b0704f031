"""Configuration types for the periodic stochastic heat equation lab.

All types are immutable after construction and validate their own basic
sanity; the combination rules (grid size, step-size coupling) live in
:func:`validate_run_config` so that out-of-range combinations can be
*reported* rather than rejected at construction time.
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
    "ValidationReport",
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
            raise ValueError(f"grid size must be a positive integer, got {self.n!r}")

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def x(self, j: int) -> float:
        return (j % self.n) / self.n

    def kappa(self, y: float) -> float:
        """Grid-flooring map: largest grid point <= y."""
        return float(_floor_quantize(y, self.n)) / self.n

    def cell_index(self, y: float) -> int:
        """Index of the cell containing y, wrapped periodically."""
        return int(_floor_quantize(y, self.n)) % self.n


@dataclass(frozen=True)
class SchemeSpec:
    """Time discretization: step tau, blending parameter theta, stepper."""

    tau: float
    theta: float = 1.0
    stepper: str = "theta"  # "theta" | "exponential"

    def __post_init__(self):
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError(f"time step must be positive and finite, got {self.tau!r}")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.stepper not in ("theta", "exponential"):
            raise ValueError(f"unknown stepper {self.stepper!r}")

    def t(self, i: int) -> float:
        return i * self.tau

    def kappa(self, s: float) -> float:
        """Time-flooring map: largest step boundary <= s."""
        return _floor_steps(s, self.tau) * self.tau

    def step_index(self, s: float) -> int:
        return _floor_steps(s, self.tau)


@dataclass(frozen=True)
class SigmaSpec:
    """Diffusion coefficient restricted to shapes whose Lipschitz constant
    and lower ratio inf_{x!=0} |sigma(x)/x| are verifiable.

    kind "linear": sigma(x) = slope*x, with lipschitz == lower_ratio == |slope|.
    kind "table": piecewise-linear interpolation of sorted (x, y) samples,
    extrapolated with the terminal slopes; the declared constants must bound
    the table (checked at construction).
    """

    kind: str
    slope: float = 0.0
    points: tuple = ()
    lipschitz: float = 0.0
    lower_ratio: float = 0.0

    @staticmethod
    def linear(slope: float) -> "SigmaSpec":
        c = abs(float(slope))
        return SigmaSpec(kind="linear", slope=float(slope), lipschitz=c, lower_ratio=c)

    @staticmethod
    def table(points: Sequence[tuple], lipschitz: float, lower_ratio: float) -> "SigmaSpec":
        pts = tuple((float(x), float(y)) for x, y in points)
        return SigmaSpec(kind="table", points=pts, lipschitz=float(lipschitz),
                         lower_ratio=float(lower_ratio))

    def __post_init__(self):
        if self.kind == "linear":
            c = abs(self.slope)
            if not math.isclose(self.lipschitz, c) or not math.isclose(self.lower_ratio, c):
                raise ValueError("linear sigma must declare lipschitz == lower_ratio == |slope|")
            return
        if self.kind != "table":
            raise ValueError(f"unknown sigma kind {self.kind!r}")
        if len(self.points) < 2:
            raise ValueError("table sigma needs at least two samples")
        xs = np.array([p[0] for p in self.points])
        ys = np.array([p[1] for p in self.points])
        if np.any(np.diff(xs) <= 0):
            raise ValueError("table sample abscissae must be strictly increasing")
        slopes = np.diff(ys) / np.diff(xs)
        max_slope = float(np.max(np.abs(slopes)))
        if self.lipschitz < max_slope * (1 - 1e-12):
            raise ValueError(
                f"declared lipschitz {self.lipschitz} below table slope {max_slope}")
        j0 = self._table_inf_ratio(xs, ys, slopes)
        if self.lower_ratio > j0 + 1e-12 * max(1.0, j0):
            raise ValueError(
                f"declared lower_ratio {self.lower_ratio} above table infimum {j0}")

    @staticmethod
    def _table_inf_ratio(xs, ys, slopes) -> float:
        # |sigma(x)/x| on a segment is monotone, so the infimum over the
        # whole line is attained at a sample point, a terminal slope
        # (x -> +-inf), the slope at 0 when sigma(0)=0, or a zero crossing.
        candidates = [abs(y / x) for x, y in zip(xs, ys) if x != 0.0]
        candidates += [abs(slopes[0]), abs(slopes[-1])]
        s0 = float(np.interp(0.0, xs, ys)) if xs[0] <= 0.0 <= xs[-1] else None
        for i in range(len(slopes)):
            y0, y1 = ys[i], ys[i + 1]
            if y0 == 0.0 and xs[i] != 0.0:
                candidates.append(0.0)
            if y0 * y1 < 0.0:
                x_cross = xs[i] - y0 / slopes[i]
                if x_cross != 0.0:
                    candidates.append(0.0)
        if s0 is not None and s0 == 0.0:
            k = int(np.searchsorted(xs, 0.0, side="right")) - 1
            k = min(max(k, 0), len(slopes) - 1)
            candidates.append(abs(slopes[k]))
        if ys[-1] == 0.0 and xs[-1] != 0.0:
            candidates.append(0.0)
        return min(candidates)

    def __call__(self, x):
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
            raise ValueError("constant initial data u0 must be positive")
        return InitialData(kind="constant", value=float(value))

    @staticmethod
    def grid_samples(samples: Sequence[float]) -> "InitialData":
        arr = tuple(float(s) for s in samples)
        if any(s < 0.0 for s in arr):
            raise ValueError("initial samples u0 must be nonnegative")
        return InitialData(kind="samples", samples=arr)

    def __post_init__(self):
        if self.kind not in ("constant", "samples"):
            raise ValueError(f"unknown initial data kind {self.kind!r}")
        if not all(math.isfinite(v) for v in (self.value, *self.samples)):
            raise ValueError("initial data u0 must be finite")

    @property
    def i0(self) -> float:
        if self.kind == "constant":
            return self.value
        return min(self.samples) if self.samples else 0.0

    def values(self, grid: GridSpec) -> np.ndarray:
        if self.kind == "constant":
            return np.full(grid.n, self.value)
        if len(self.samples) != grid.n:
            raise ValueError(
                f"initial samples have length {len(self.samples)}, grid has {grid.n}")
        return np.array(self.samples, dtype=float)


@dataclass(frozen=True)
class ModelSpec:
    """Noise level, diffusion coefficient and initial data of the equation."""

    lam: float
    sigma: SigmaSpec
    u0: InitialData

    def __post_init__(self):
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"noise level must be nonnegative, got {self.lam!r}")


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple = ()

    def __bool__(self) -> bool:
        return self.passed


def validate_run_config(grid: GridSpec, scheme: SchemeSpec) -> ValidationReport:
    """Aggregate admissibility check for a run.

    Collects every violated assumption instead of stopping at the first:
    grid size, time-step range and the per-theta stability regime.
    """
    from .stability import check_stability

    violations = []
    if grid.n < 3:
        violations.append(f"n < 3: grid size {grid.n} below the minimum partition count")
    if not (0.0 < scheme.tau < 1.0):
        violations.append(f"tau out of range (0,1): {scheme.tau}")
    if not (0.0 <= scheme.theta <= 1.0):
        violations.append(f"theta out of range [0,1]: {scheme.theta}")
    if not violations and scheme.stepper == "theta":
        report = check_stability(grid.n, scheme.tau, scheme.theta)
        if not report.satisfied:
            violations.append(
                f"stability regime violated: n^2*tau={grid.n ** 2 * scheme.tau:g} "
                f"inadmissible for theta={scheme.theta:g} ({report.regime})")
    return ValidationReport(passed=not violations, violations=tuple(violations))
