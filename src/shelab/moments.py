"""Second-moment computations and moment-growth fitting.

For linear sigma the second moments of the scheme obey a closed
deterministic recursion: with B = R1 R2 (circulant) and noise covariance
lambda^2 n tau per cell,

    M_{i+1} = B M_i B^T + lambda^2 n tau c^2 * R1 diag(M_i)_{jj} R1^T.

The matrices recorded at steps 0, k * record_every and the last step come
back as one (records, n, n) array beside the int array of those steps
(`MomentMatrices`).  For constant u0 every M_i is circulant, its Fourier
eigenvalues evolve by mu_{i+1} = A mu_i with
A = diag(b^2) + lambda^2 tau c^2 r1^2 1^T, and all recorded matrices come
in closed form from one eigendecomposition of the symmetric conjugate
diag(r1)^{-1} A diag(r1).  Other initial data step the recursion as
M_{i+1} = B M_i B + R1 D_i R1, D_i the noise diagonal, with the dense
symmetric Green matrices B and R1 built from the same mode factors
(`SpectralBasis.circulant`) for every n, theta and stepper.  Nonlinear
sigma falls back to Monte Carlo.  Growth rates are reported as
tail-window regression slopes with Student-t confidence intervals (the
quantile from scipy.special.stdtrit) -- a limsup is not computable, a
documented estimator is.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .model import (GridSpec, InitialData, ModelSpec, SchemeSpec, SigmaSpec,
                    validate_run_config)
from .noise import normal_rows, path_streams
from .kernels import spectral_basis
from .solver import BlowupError, StepOperator, mode_factors
from .stability import positivity_time_full, sharp_gate

__all__ = [
    "MomentMatrices",
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

# Noise cells (float64) that one mc_moment batch holds at a time: 8 MiB.
NOISE_CHUNK_CELLS = 2 ** 20


@dataclass(frozen=True)
class MomentMatrices:
    """Second-moment matrices M_{jk} = E[u_j u_k]: matrices[r] (symmetric
    PSD, one (records, n, n) array) at the step index steps[r]."""

    steps: np.ndarray
    matrices: np.ndarray


@dataclass
class MomentSeries:
    """E|u(t, probe)|^p over time, exact or estimated."""

    times: np.ndarray
    values: np.ndarray
    p: float
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


def _constant_data_moments(r1: np.ndarray, b: np.ndarray, gain: float, i0: float,
                           steps: np.ndarray) -> np.ndarray:
    """The (records, n, n) moment matrices at the step indices for u0 = i0.

    Every M_k is circulant; its eigenvalues mu_k = A^k mu_0 with
    A = diag(b^2) + (gain/n) r1^2 1^T.  diag(r1) (r1 > 0) conjugates A to
    the symmetric S = diag(b^2) + (gain/n) r1 r1^T = V diag(w) V^T, so
    mu_k = r1 (V (w^k * V^T (mu_0 / r1))) with mu_0 = n i0^2 e_0.
    """
    n = len(r1)
    w, v = np.linalg.eigh(np.diag(b * b) + (gain / n) * np.outer(r1, r1))
    z = v[0] * (n * i0 * i0 / r1[0])
    return spectral_basis(n).circulant((np.power(w, steps[:, None]) * z) @ v.T * r1)


def exact_second_moment_recursion(grid: GridSpec, scheme: SchemeSpec, model: ModelSpec,
                                  steps: int, record_every: int = 1) -> MomentMatrices:
    """Exact (up to roundoff) second-moment matrices for linear sigma at
    steps 0, k * record_every and `steps`; for constant u0 in closed form."""
    if not model.sigma.is_linear:
        raise ValueError("exact recursion supports linear sigma only; use Monte Carlo")
    validate_run_config(grid, scheme)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    gain = model.lam ** 2 * grid.n * scheme.tau * model.sigma.slope ** 2
    u0 = model.u0.values(grid)
    record = np.unique(np.append(np.arange(0, steps + 1, record_every), steps))
    basis = spectral_basis(grid.n)
    r1, r2 = mode_factors(basis, scheme)
    if np.all(u0 == u0[0]):
        out = _constant_data_moments(r1, r1 * r2, gain, float(u0[0]), record)
        out[0] = np.outer(u0, u0)
        return MomentMatrices(steps=record, matrices=out)
    out = np.empty((len(record), grid.n, grid.n))
    b, g = basis.circulant(r1 * r2), basis.circulant(r1)  # R1 R2 and R1
    m = np.outer(u0, u0)
    out[0] = m
    r = 1
    for i in range(1, steps + 1):
        # noise feeds on the pre-step moments
        m = b @ m @ b + (g * (gain * np.diag(m))) @ g
        m = (m + m.T) / 2.0
        if i == record[r]:
            out[r] = m
            r += 1
    return MomentMatrices(steps=record, matrices=out)


def _probe_index(probe, n: int) -> int | None:
    """None for the grid infimum ("min"), else the grid index probe in [0, n)."""
    if isinstance(probe, str) and probe == "min":
        return None
    if (isinstance(probe, bool) or not isinstance(probe, (int, np.integer))
            or not 0 <= probe < n):
        raise ValueError(f"probe must be 'min' or a grid index in [0, {n}), got {probe!r}")
    return int(probe)


def second_moment_series(moments: MomentMatrices, tau: float, probe="min") -> MomentSeries:
    """Diagonal of the recursion as a moment series at a probe point or the
    grid infimum (min over grid points, matching the lower-bound theorems)."""
    index = _probe_index(probe, moments.matrices.shape[1])
    diagonals = moments.matrices.diagonal(axis1=1, axis2=2)
    values = diagonals.min(axis=1) if index is None else diagonals[:, index].copy()
    return MomentSeries(times=moments.steps * tau, values=values, p=2.0)


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
    index or "min".  Path k reads the "mc" stream of (seed, k), keyed with
    its batch by one `path_streams` call.  Paths run in batches of about 4e6
    noise cells, a rule that fixes only the order in which batches merge: a
    batch holds at most NOISE_CHUNK_CELLS noise cells, read in the fewest
    even chunks of whole steps.  The standard errors come from each batch's
    sum of squared deviations, merged across batches by the pairwise update
    of Chan, Golub and LeVeque, so weak noise does not cancel them away.  On
    blow-up the series is truncated at the last record before the horizon
    and flagged.
    """
    p_list = [float(q) for q in (p if isinstance(p, (list, tuple)) else [p])]
    if any(q < 1 for q in p_list):
        raise ValueError("moment order must be >= 1")
    if paths < 2:
        raise ValueError("need at least 2 paths")
    validate_run_config(grid, scheme)
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
        if index is not None:
            return np.abs(states[:, index])
        # grid minimum taken across columns: contiguous rows of paths
        # instead of one short reduction per path
        cols = states.T.copy()
        np.abs(cols, out=cols)
        return cols.min(axis=0)

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
        gens = path_streams(seed, "mc", range(start, start + count))
        states = np.tile(model.u0.values(grid), (count, 1))
        recorded = [0] if 0 in pos else []
        bases = [probe(states)] if recorded else []
        limit = min(steps, horizon - 1)
        cap = max(1, NOISE_CHUNK_CELLS // (count * grid.n))
        rows = -(-limit // max(1, -(-limit // cap)))  # fewest even chunks of <= cap rows
        xi = None
        for i in range(limit):
            if i % rows == 0:
                del xi  # hold one chunk at a time
                xi = normal_rows(gens, min(rows, limit - i), grid.n)
            try:
                states = op.apply(states, xi[:, i % rows, :])
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
        results.append(MomentSeries(times=times_kept, values=vals, p=q, stderr=errs,
                                    horizon_reached=truncated))
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
    ci = float(special.stdtrit(dof, 0.975) * se) if dof > 0 else float("nan")
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
                 gate_safety: float) -> SweepPoint:
    j0 = abs(sigma_slope)
    n = max(3, int(math.ceil(zeta * lam ** 2)))
    tau = gate_safety / sharp_gate(n, 1.0, j0, lam, zeta)[0]  # the sum is linear in tau
    scheme = SchemeSpec(tau=tau, theta=theta)
    model = ModelSpec(lam=lam, sigma=SigmaSpec.linear(sigma_slope),
                      u0=InitialData.constant(1.0))
    grid = GridSpec(n)
    flags = []
    gate_ok = not sharp_gate(n, tau, j0, lam, zeta)[1]
    if not gate_ok:
        flags.append("sharp-regime gate violated")
    try:
        validate_run_config(grid, scheme)
    except ValueError as err:
        if "stability regime violated" not in str(err):
            raise  # a theta or tau out of range is an error, not a flagged point
        flags.append("stability violated")
        return SweepPoint(lam, n, tau, float("nan"), float("nan"), gate_ok, tuple(flags))
    t_pos = positivity_time_full(n, tau, theta)
    gamma_guess = math.log1p(lam ** 2 * j0 ** 2 * tau) / tau
    horizon = t_pos + 3.0 / gamma_guess  # three e-folds past the positivity time
    steps = int(math.ceil(horizon / tau))
    record_every = max(1, steps // 2000)
    moments = exact_second_moment_recursion(grid, scheme, model, steps,
                                            record_every=record_every)
    series = second_moment_series(moments, tau, probe="min")
    window = (max(t_pos, 0.2 * horizon), horizon)
    fit = fit_growth(series, window)
    return SweepPoint(lam, n, tau, fit.gamma, fit.ci_halfwidth, gate_ok, tuple(flags))


def lambda_scaling_sweep(zeta: float, lambdas, theta: float = 1.0,
                         sigma_slope: float = 1.0, gate_safety: float = 0.5,
                         threads: int = 1) -> SweepResult:
    """Fitted gamma_2 against lambda with n = max(3, ceil(zeta lambda^2)) and
    tau chosen to pass the sharp-regime gate; regime violations are flagged
    per point, and fewer than two finite gamma_2 raise ValueError.  Points
    run on a worker pool when threads > 1; results aggregate in input order.
    zeta must be finite and positive, sigma_slope finite and nonzero.  u0 = 1:
    a constant u0 scales every moment matrix by u0^2 and leaves gamma_2."""
    if not (math.isfinite(zeta) and zeta > 0.0):
        raise ValueError(f"zeta must be finite and > 0, got {zeta!r}")
    if not (math.isfinite(sigma_slope) and sigma_slope != 0.0):
        raise ValueError(f"sigma_slope must be finite and nonzero, got {sigma_slope!r}")

    def point(lam):
        return _sweep_point(zeta, lam, theta, sigma_slope, gate_safety)

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
        t_pos = positivity_time_full(grid.n, scheme.tau, scheme.theta)
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
