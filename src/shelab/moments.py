"""Second-moment computations and moment-growth fitting.

For linear sigma the second moments of the scheme obey a closed
deterministic recursion: with B = R1 R2 (circulant) and noise covariance
lambda^2 n tau per cell,

    M_{i+1} = B M_i B^T + lambda^2 n tau c^2 * R1 diag(M_i)_{jj} R1^T,

which this module iterates exactly with the operators of
`solver.StepOperator`: for n <= DENSE_MAX_N as products with the dense
symmetric Green matrices B and R1, above that crossover by real FFT along
each matrix axis (B and R1 act diagonally on the Fourier modes) in the
two-pass form M_{i+1} = R1 (R2 M_i R2 + D_i) R1, the circulants commuting;
the R2 passes are skipped where R2 = I (theta = 1, exponential stepper).
Nonlinear sigma falls back to Monte Carlo.  Growth rates
are reported as tail-window regression slopes with confidence intervals --
a limsup is not computable, a documented estimator is.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .model import (GridSpec, InitialData, ModelSpec, SchemeSpec, SigmaSpec,
                    validate_run_config)
from .noise import NoiseSeed, normal_rows
from .solver import BlowupError, StepOperator
from .stability import (check_sharp_regime, check_stability, positivity_time_full,
                        sharp_gate)

__all__ = [
    "MomentMatrix",
    "MomentSeries",
    "GrowthFit",
    "SweepPoint",
    "SweepResult",
    "exact_second_moment_recursion",
    "second_moment_series",
    "mc_moment",
    "ols",
    "pmap",
    "fit_growth",
    "lambda_scaling_sweep",
    "intermittency_report",
]


@dataclass
class MomentMatrix:
    """Symmetric PSD matrix M_{jk} = E[u_j u_k] at one time index."""

    matrix: np.ndarray
    time_index: int

    def check(self, tol: float = 1e-10):
        m = self.matrix
        assert np.allclose(m, m.T, atol=1e-12 * max(1.0, np.abs(m).max()))
        floor = -tol * np.trace(m)
        w = np.linalg.eigvalsh((m + m.T) / 2.0)
        if w.min() < floor:
            raise AssertionError(f"moment matrix lost PSD: min eig {w.min():.3g}")

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.matrix)


@dataclass
class MomentSeries:
    """E|u(t, probe)|^p over time, exact or estimated."""

    times: np.ndarray
    values: np.ndarray
    p: float
    source: dict
    stderr: np.ndarray | None = None
    horizon_reached: bool = False


@dataclass(frozen=True)
class GrowthFit:
    gamma: float
    window: tuple
    r_squared: float
    ci_halfwidth: float
    stderr: float
    npoints: int


def _circulant_apply(half_factors: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """Multiply a symmetric circulant (given by rfft factors) along one axis."""
    spec = np.fft.rfft(mat, axis=axis)
    shape = [1, 1]
    shape[axis] = len(half_factors)
    return np.fft.irfft(spec * half_factors.reshape(shape), n=mat.shape[axis], axis=axis)


def exact_second_moment_recursion(grid: GridSpec, scheme: SchemeSpec, model: ModelSpec,
                                  steps: int, record_every: int = 1) -> list[MomentMatrix]:
    """Exact (up to roundoff) second-moment matrices for linear sigma."""
    if not model.sigma.is_linear:
        raise ValueError("exact recursion supports linear sigma only; use Monte Carlo")
    report = validate_run_config(grid, scheme)
    if not report:
        raise ValueError("invalid run configuration: " + "; ".join(report.violations))
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    op = StepOperator(grid.n, scheme, model)
    r2_is_one = not op.dense and bool(np.all(op.r2h == 1.0))
    gain = model.lam ** 2 * grid.n * scheme.tau * model.sigma.slope ** 2
    u0 = model.u0.values(grid)
    m = np.outer(u0, u0)
    out = [MomentMatrix(matrix=m.copy(), time_index=0)]
    for i in range(1, steps + 1):
        # noise feeds on the pre-step moments
        if op.dense:
            m = op.b @ m @ op.b + (op.r1 * (gain * np.diag(m))) @ op.r1
        else:
            d = gain * np.diag(m)
            if not r2_is_one:
                m = _circulant_apply(op.r2h, _circulant_apply(op.r2h, m, 0), 1)
            m.flat[::grid.n + 1] += d  # m is a fresh array: recorded matrices are copies
            m = _circulant_apply(op.r1h, _circulant_apply(op.r1h, m, 0), 1)
        m = (m + m.T) / 2.0
        if i % record_every == 0 or i == steps:
            out.append(MomentMatrix(matrix=m.copy(), time_index=i))
    return out


def _probe_index(probe, n: int) -> int | None:
    """None for the grid infimum ("min"), else the grid index probe in [0, n)."""
    if isinstance(probe, str) and probe == "min":
        return None
    if (isinstance(probe, bool) or not isinstance(probe, (int, np.integer))
            or not 0 <= probe < n):
        raise ValueError(f"probe must be 'min' or a grid index in [0, {n}), got {probe!r}")
    return int(probe)


def second_moment_series(matrices, tau: float, probe="min") -> MomentSeries:
    """Diagonal of the recursion as a moment series at a probe point or the
    grid infimum (min over grid points, matching the lower-bound theorems)."""
    index = _probe_index(probe, matrices[0].matrix.shape[0])
    times = np.array([m.time_index for m in matrices]) * tau
    if index is None:
        values = np.array([m.diagonal.min() for m in matrices])
    else:
        values = np.array([m.diagonal[index] for m in matrices])
    return MomentSeries(times=times, values=values, p=2.0, source={"kind": "exact"})


def _snap_indices(times, tau: float) -> list[int]:
    out = []
    for t in times:
        i = int(round(t / tau))
        if abs(i * tau - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"time {t} is not aligned to the step grid tau={tau}")
        out.append(i)
    return out


def mc_moment(grid: GridSpec, scheme: SchemeSpec, model: ModelSpec, p, probe,
              times, paths: int, seed: int) -> MomentSeries | list[MomentSeries]:
    """Monte Carlo estimate of E|u(t, probe)|^p with jackknife standard errors.

    `p` may be a single order or a list (shared paths); `probe` is a grid
    index or "min".  Path k reads the "mc" stream of (seed, k); paths run in
    batches of about 4e6 noise cells.  The standard errors come from each
    batch's sum of squared deviations, merged across batches by the pairwise
    update of Chan, Golub and LeVeque, so weak noise does not cancel them
    away.  On blow-up the series is truncated at the last record before the
    horizon and flagged.
    """
    p_list = [float(q) for q in (p if isinstance(p, (list, tuple)) else [p])]
    if any(q < 1 for q in p_list):
        raise ValueError("moment order must be >= 1")
    if paths < 2:
        raise ValueError("need at least 2 paths")
    report = validate_run_config(grid, scheme)
    if not report:
        raise ValueError("invalid run configuration: " + "; ".join(report.violations))
    index = _probe_index(probe, grid.n)
    if len(times) == 0 or min(times) < 0:
        raise ValueError(f"times must be a non-empty list of times >= 0, got {list(times)}")
    record = _snap_indices(times, scheme.tau)
    steps = max(record)
    record_set = sorted(set(record))
    pos = {i: k for k, i in enumerate(record_set)}
    op = StepOperator(grid.n, scheme, model)
    batch_paths = max(1, min(paths, int(4e6 / max(1, steps * grid.n))))
    s1 = np.zeros((len(record_set), len(p_list)))  # sums
    m2 = np.zeros_like(s1)  # sums of squared deviations from the mean
    counts = np.zeros(len(record_set))
    horizon = steps + 1

    def probe(states):
        return np.abs(states).min(axis=1) if index is None else np.abs(states[:, index])

    def tally(base, rows):
        """Fold one batch's |u| at the probe (records x paths) into the
        sums, merging each record's squared deviations pairwise."""
        na, nb = counts[rows], base.shape[1]
        seen = na > 0
        for k, q in enumerate(p_list):
            sample = base ** q
            total = sample.sum(axis=1)
            mean = total / nb
            sample -= mean[:, None]
            sample *= sample
            dev = sample.sum(axis=1)
            delta = mean[seen] - s1[rows[seen], k] / na[seen]
            dev[seen] += delta * delta * na[seen] * nb / (na[seen] + nb)
            s1[rows, k] += total
            m2[rows, k] += dev
        counts[rows] += nb

    start = 0
    while start < paths:
        count = min(batch_paths, paths - start)
        xi = normal_rows([NoiseSeed(seed, path=start + k, purpose="mc").bit_generator()
                          for k in range(count)], steps, grid.n)
        states = np.tile(model.u0.values(grid), (count, 1))
        recorded = [0] if 0 in pos else []
        bases = [probe(states)] if recorded else []
        for i in range(min(steps, horizon - 1)):
            try:
                states = op.apply(states, xi[:, i, :])
            except BlowupError:
                horizon = min(horizon, i + 1)
                break
            if (i + 1) in pos:
                recorded.append(i + 1)
                bases.append(probe(states))
        del xi
        if recorded:
            tally(np.stack(bases), np.array([pos[i] for i in recorded]))
        start += count
    kept = [i for i in record_set if i < horizon and counts[pos[i]] == paths]
    truncated = len(kept) < len(record_set)
    results = []
    for k, q in enumerate(p_list):
        vals = np.array([s1[pos[i], k] / paths for i in kept])
        errs = np.sqrt(np.array([m2[pos[i], k] for i in kept]) / (paths * (paths - 1)))
        good = np.isfinite(vals)
        if not good.all():  # per-sample overflow at high p: truncate there
            stop = int(np.argmin(good))
            vals, errs = vals[:stop], errs[:stop]
            times_kept = np.array(kept[:stop]) * scheme.tau
            truncated = True
        else:
            times_kept = np.array(kept) * scheme.tau
        results.append(MomentSeries(
            times=times_kept, values=vals, p=q, stderr=errs,
            horizon_reached=truncated,
            source={"kind": "mc", "paths": paths, "seed": seed, "purpose": "mc"}))
    return results if isinstance(p, (list, tuple)) else results[0]


def ols(x, y) -> tuple[float, float, float, float]:
    """Least-squares slope of y on x: (slope, 95% t half-width, standard
    error, R^2); the half-width and error are nan below three points."""
    xm = x - x.mean()
    sxx = float(np.dot(xm, xm))
    slope = float(np.dot(xm, y) / sxx)
    resid = y - (y.mean() + slope * xm)
    ssr = float(np.dot(resid, resid))
    sst = float(np.dot(y - y.mean(), y - y.mean()))
    dof = len(x) - 2
    se = math.sqrt(ssr / dof / sxx) if dof > 0 else float("nan")
    ci = float(stats.t.ppf(0.975, dof) * se) if dof > 0 else float("nan")
    r2 = 1.0 - ssr / sst if sst > 0 else 1.0
    return slope, ci, se, r2


def pmap(fn, items, threads: int) -> list:
    """Map preserving input order (deterministic aggregation) on a worker
    pool when threads > 1; items are listed once, so iterators work."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def fit_growth(series: MomentSeries, window: tuple | None = None) -> GrowthFit:
    """Least-squares slope of log(values) against time on the fit window."""
    t = np.asarray(series.times, dtype=float)
    v = np.asarray(series.values, dtype=float)
    if window is None:
        window = (0.2 * t[-1], t[-1])
    ta, tb = window
    mask = (t >= ta) & (t <= tb)
    if mask.sum() < 5:
        raise ValueError(f"need >= 5 points in the fit window, got {int(mask.sum())}")
    if np.any(v[mask] <= 0.0):
        raise ValueError("nonpositive values in the fit window")
    slope, ci, se, r2 = ols(t[mask], np.log(v[mask]))
    return GrowthFit(gamma=slope, window=(float(ta), float(tb)), r_squared=r2,
                     ci_halfwidth=ci, stderr=se, npoints=int(mask.sum()))


@dataclass
class SweepPoint:
    lam: float
    n: int
    tau: float
    gamma2: float
    ci_halfwidth: float
    r_squared: float
    gate_ok: bool
    flags: tuple = ()


@dataclass
class SweepResult:
    points: list
    slope: float
    slope_ci: float
    zeta: float

    def rows(self):
        for p in self.points:
            yield (p.lam, p.n, p.tau, p.gamma2, p.ci_halfwidth, p.gate_ok)


def _sweep_point(zeta: float, lam: float, theta: float, sigma_slope: float,
                 i0: float, gate_safety: float) -> SweepPoint:
    j0 = abs(sigma_slope)
    n = max(3, int(math.ceil(zeta * lam ** 2)))
    tau = gate_safety / sharp_gate(n, 1.0, j0, lam, zeta)[0]  # the sum is linear in tau
    scheme = SchemeSpec(tau=tau, theta=theta)
    model = ModelSpec(lam=lam, sigma=SigmaSpec.linear(sigma_slope),
                      u0=InitialData.constant(i0))
    grid = GridSpec(n)
    flags = []
    gate_ok = check_sharp_regime(n, tau, model, zeta)
    if not gate_ok:
        flags.append("sharp-regime gate violated")
    if not check_stability(n, tau, theta).satisfied:
        flags.append("stability violated")
        return SweepPoint(lam, n, tau, float("nan"), float("nan"),
                          float("nan"), gate_ok, tuple(flags))
    t_pos = positivity_time_full(n, tau, theta).t_star
    gamma_guess = math.log1p(lam ** 2 * j0 ** 2 * tau) / tau
    horizon = t_pos + 3.0 / gamma_guess  # three e-folds past the positivity time
    steps = int(math.ceil(horizon / tau))
    record_every = max(1, steps // 2000)
    mats = exact_second_moment_recursion(grid, scheme, model, steps,
                                         record_every=record_every)
    series = second_moment_series(mats, tau, probe="min")
    window = (max(t_pos, 0.2 * horizon), horizon)
    fit = fit_growth(series, window)
    return SweepPoint(lam, n, tau, fit.gamma, fit.ci_halfwidth,
                      fit.r_squared, gate_ok, tuple(flags))


def lambda_scaling_sweep(zeta: float, lambdas, theta: float = 1.0,
                         sigma_slope: float = 1.0, i0: float = 1.0,
                         gate_safety: float = 0.5, threads: int = 1) -> SweepResult:
    """Fitted gamma_2 against lambda with n = max(3, ceil(zeta lambda^2)) and
    tau chosen to pass the sharp-regime gate; regime violations are flagged
    per point, and fewer than two finite gamma_2 raise ValueError.  Points
    run on a worker pool when threads > 1; results aggregate in input order."""
    def point(lam):
        return _sweep_point(zeta, lam, theta, sigma_slope, i0, gate_safety)

    points = pmap(point, lambdas, threads)
    good = [p for p in points if np.isfinite(p.gamma2)]
    if len(good) < 2:
        raise ValueError(f"the lambda^4 fit needs two points with finite gamma_2, got "
                         f"{len(good)} of {len(points)}; flags: {[p.flags for p in points]}")
    slope, ci, _, _ = ols(np.log([p.lam for p in good]), np.log([p.gamma2 for p in good]))
    return SweepResult(points=points, slope=slope, slope_ci=ci, zeta=zeta)


@dataclass
class IntermittencyReport:
    fits: dict            # p -> GrowthFit
    gamma2_positive: bool
    all_finite: bool
    normalized_nondecreasing: bool
    horizon_flag: bool
    window: tuple


def intermittency_report(grid: GridSpec, scheme: SchemeSpec, model: ModelSpec,
                         p_list, horizon_steps: int, paths: int, seed: int) -> IntermittencyReport:
    """Per-p Lyapunov estimates with the weak-intermittency checks:
    gamma_2 > 0, gamma_p finite over the horizon, and p -> gamma_p / p
    nondecreasing within confidence intervals."""
    allowed = {2, 4, 6}
    if not set(int(p) for p in p_list) <= allowed:
        raise ValueError(f"p_list must be a subset of {sorted(allowed)}")
    p_list = sorted(set(int(p) for p in p_list))
    times = [i * scheme.tau for i in range(0, horizon_steps + 1,
                                           max(1, horizon_steps // 200))]
    series = mc_moment(grid, scheme, model, list(p_list), "min", times, paths, seed)
    horizon_flag = any(s.horizon_reached for s in series)
    t_end = min(s.times[-1] for s in series)
    try:
        t_pos = positivity_time_full(grid.n, scheme.tau, scheme.theta).t_star
    except ValueError:
        t_pos = 0.0
    window = (max(t_pos, 0.2 * t_end), t_end)
    fits = {}
    for s in series:
        fits[int(s.p)] = fit_growth(s, window)
    gammas = {p: fits[p] for p in p_list}
    g2 = gammas.get(2)
    gamma2_positive = bool(g2 and g2.gamma - g2.ci_halfwidth > 0.0)
    all_finite = all(np.isfinite(f.gamma) for f in fits.values())
    ok = True
    for lo, hi in zip(p_list[:-1], p_list[1:]):
        a, b = gammas[lo], gammas[hi]
        slack = a.ci_halfwidth / lo + b.ci_halfwidth / hi
        if b.gamma / hi < a.gamma / lo - slack:
            ok = False
    return IntermittencyReport(fits=fits, gamma2_positive=gamma2_positive,
                               all_finite=all_finite, normalized_nondecreasing=ok,
                               horizon_flag=horizon_flag, window=window)
