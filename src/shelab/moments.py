"""Second-moment computations and moment-growth fitting.

For linear sigma the second moments of the scheme obey a closed
deterministic recursion: with B = R1 R2 (circulant) and noise covariance
lambda^2 n tau per cell,

    M_{i+1} = B M_i B^T + lambda^2 n tau c^2 * R1 diag(M_i)_{jj} R1^T.

Callers read E u_q^2 only, so the diagonals at steps 0, k * record_every
and the last step come back as one (records, n) array beside the int array
of those steps (`MomentDiagonals`).  For constant u0 every M_i is
circulant, its Fourier eigenvalues evolve by mu_{i+1} = A mu_i with
A = diag(b^2) + lambda^2 tau c^2 r1^2 1^T, and all recorded diagonals come
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
from itertools import chain

import numpy as np
from scipy import special

from .model import (GridSpec, InitialData, ModelSpec, SchemeSpec, SigmaSpec,
                    validate_run_config)
from .noise import path_streams
from .kernels import TABLE_BYTES, AmplificationFactors, spectral_basis
from .solver import BlowupError, StepOperator
from .stability import positivity_time_full, sharp_gate

__all__ = [
    "MomentDiagonals",
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

@dataclass(frozen=True)
class MomentDiagonals:
    """Second moments E[u_q^2], the diagonal of M_{jk} = E[u_j u_k]:
    diagonals[r] (one (records, n) array) at the step index steps[r]."""

    steps: np.ndarray
    diagonals: np.ndarray


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
    """The (records, n) moment diagonals at the step indices for u0 = i0.

    Every M_k is circulant; its eigenvalues mu_k = A^k mu_0 with
    A = diag(b^2) + (gain/n) r1^2 1^T.  diag(r1) (r1 > 0) conjugates A to
    the symmetric S = diag(b^2) + (gain/n) r1 r1^T = V diag(w) V^T, so
    mu_k = r1 (V (w^k * V^T (mu_0 / r1))) with mu_0 = n i0^2 e_0.
    """
    n = len(r1)
    w, v = np.linalg.eigh(np.diag(b * b) + (gain / n) * np.outer(r1, r1))
    z = v[0] * (n * i0 * i0 / r1[0])
    return spectral_basis(n).circulant_diagonal((np.power(w, steps[:, None]) * z) @ v.T * r1)


@np.errstate(over="ignore", invalid="ignore")  # second_moment_series cuts inf and nan
def exact_second_moment_recursion(grid: GridSpec, scheme: SchemeSpec, model: ModelSpec,
                                  steps: int, record_every: int = 1) -> MomentDiagonals:
    """Exact (up to roundoff) second moments E u_q^2 for linear sigma at
    steps 0, k * record_every and `steps` (inf or nan past the float range);
    for constant u0 in closed form.  An n whose n x n table of 16 n^2 bytes
    exceeds TABLE_BYTES is refused before any array is built."""
    if not model.sigma.is_linear:
        raise ValueError("exact recursion supports linear sigma only; use Monte Carlo")
    validate_run_config(grid, scheme)
    if 16 * grid.n * grid.n > TABLE_BYTES:
        raise ValueError(f"n must be <= 4096, its n x n table of 16 n^2 bytes within "
                         f"TABLE_BYTES = {TABLE_BYTES}, got {grid.n}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    gain = model.lam ** 2 * grid.n * scheme.tau * model.sigma.slope ** 2
    u0 = model.u0.values(grid)
    record = np.unique(np.append(np.arange(0, steps + 1, record_every), steps))
    basis = spectral_basis(grid.n)
    factors = AmplificationFactors(basis, scheme).require_stable()
    if np.all(u0 == u0[0]):
        out = _constant_data_moments(factors.r1, factors.r12, gain, float(u0[0]), record)
    else:
        out = np.empty((len(record), grid.n))
        b, g = basis.circulant(factors.r12), basis.circulant(factors.r1)  # R1 R2 and R1
        m = np.outer(u0, u0)
        r = 1
        for i in range(1, steps + 1):
            # noise feeds on the pre-step moments
            m = b @ m @ b + (g * (gain * np.diag(m))) @ g
            m = (m + m.T) / 2.0
            if i == record[r]:
                out[r] = np.diag(m)
                r += 1
    out[0] = u0 * u0
    return MomentDiagonals(steps=record, diagonals=out)


def _probe_index(probe, n: int) -> int | None:
    """None for the grid infimum ("min"), else the grid index probe in [0, n)."""
    if isinstance(probe, str) and probe == "min":
        return None
    if (isinstance(probe, bool) or not isinstance(probe, (int, np.integer))
            or not 0 <= probe < n):
        raise ValueError(f"probe must be 'min' or a grid index in [0, {n}), got {probe!r}")
    return int(probe)


def second_moment_series(moments: MomentDiagonals, tau: float, probe="min") -> MomentSeries:
    """The recursion's moments as a series at a probe point or the grid
    infimum (min over grid points, matching the lower-bound theorems), cut
    before its first value past the float range and then horizon_reached."""
    diagonals = moments.diagonals
    index = _probe_index(probe, diagonals.shape[1])
    values = diagonals.min(axis=1) if index is None else diagonals[:, index].copy()
    finite = np.isfinite(values)
    stop = len(values) if finite.all() else int(np.argmin(finite))
    return MomentSeries(times=moments.steps[:stop] * tau, values=values[:stop], p=2.0,
                        horizon_reached=stop < len(values))


def _snap_indices(times, tau: float) -> list[int]:
    out = []
    for t in times:
        if not abs(t) < 2.0 ** 53 * tau:  # past 2^53 steps t / tau names no single step
            raise ValueError(f"times must lie within 2^53 steps of tau={tau}, got {t}")
        i = int(round(t / tau))
        if abs(i * tau - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"times must be aligned to the step grid tau={tau}, got {t}")
        out.append(i)
    return out


def mc_moment(grid: GridSpec, scheme: SchemeSpec, model: ModelSpec, p, probe,
              times, paths: int, seed: int) -> MomentSeries | list[MomentSeries]:
    """Monte Carlo estimate of E|u(t, probe)|^p with jackknife standard errors.

    `p` may be a single order or a list (shared paths); `probe` is a grid
    index or "min".  Path k reads the "mc" stream of (seed, k), keyed with
    its batch by one `path_streams` call.  Paths run in batches of about 4e6
    noise cells, a rule that fixes only the order in which batches merge.  A
    batch steps through StepOperator.walk, which holds one chunk of its
    noise at a time, and each record is tallied as soon as it is reached.
    The standard errors come from each batch's sum of squared deviations,
    merged across batches by the pairwise update of Chan, Golub and LeVeque,
    so weak noise does not cancel them away.  On blow-up each order's series
    is truncated at the last record that every path reached and whose value
    and standard error are finite (a high power of |u| near the horizon
    overflows), and flagged; when no record was reached by every path, the
    blow-up is raised.
    """
    p_list = [float(q) for q in (p if isinstance(p, (list, tuple)) else [p])]
    if any(q < 1 for q in p_list):
        raise ValueError(f"p (the moment order) must be >= 1, got {p!r}")
    if paths < 2:
        raise ValueError(f"paths must be >= 2, got {paths}")
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

    def tally(i, states):
        """Fold |u| at the probe over a batch's paths at record i into the
        sums, merging the record's squared deviations pairwise."""
        # the grid minimum is taken across columns, contiguous rows of
        # paths, instead of by one short reduction per path
        base = (np.abs(states[:, index]) if index is not None
                else np.abs(states.T, order="C").min(axis=0))
        r, na, nb = pos[i], counts[pos[i]], len(base)
        # near the horizon a high power overflows to inf or nan, cut below
        with np.errstate(over="ignore", invalid="ignore"):
            for k, q in enumerate(p_list):
                sample = base ** q
                total = sample.sum()
                mean = total / nb
                sample -= mean
                sample *= sample
                dev = sample.sum()
                if na > 0:
                    delta = mean - s1[r, k] / na
                    dev += delta * delta * na * nb / (na + nb)
                s1[r, k] += total
                m2[r, k] += dev
        counts[r] += nb

    for start in range(0, paths, batch_paths):
        count = min(batch_paths, paths - start)
        gens = path_streams(seed, "mc", range(start, start + count))
        states = np.tile(model.u0.values(grid), (count, 1))
        try:
            for i, states in enumerate(chain([states], op.walk(states, gens, steps))):
                if i in pos:
                    tally(i, states)
        except BlowupError as err:
            blowup, steps = err, err.step_index - 1  # later batches stop before it
    kept = int(np.sum(counts == paths))  # the records every path reached: a prefix
    if not kept:
        raise blowup
    results = []
    for k, q in enumerate(p_list):
        vals = s1[:kept, k] / paths
        errs = np.sqrt(m2[:kept, k] / (paths * (paths - 1)))
        good = np.isfinite(vals) & np.isfinite(errs)
        stop = kept if good.all() else int(np.argmin(good))
        results.append(MomentSeries(times=np.array(record_set[:stop]) * scheme.tau,
                                    values=vals[:stop], p=q, stderr=errs[:stop],
                                    horizon_reached=stop < len(record_set)))
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
        window = (0.2 * t[-1], t[-1]) if len(t) else (0.0, 0.0)
    ta, tb = window
    mask = (t >= ta) & (t <= tb)
    if mask.sum() < 5:
        raise ValueError(f"fit window [{ta:g}, {tb:g}]: need >= 5 points, got {int(mask.sum())}")
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


@dataclass
class SweepResult:
    points: list
    slope: float
    slope_ci: float
    zeta: float


# Most steps a sweep point may take to its positivity tail: positivity_time_full
# scans back from the tail, so its time grows with it.
SWEEP_STEPS = 10 ** 8


def _sweep_grid(zeta: float, lam: float, theta: float, j0: float) -> tuple[GridSpec, SchemeSpec]:
    """n = max(3, ceil(zeta lambda^2)) and tau at half the sharp gate (its sum
    is linear in tau), refused past SWEEP_STEPS steps to the positivity tail
    or past 2^62, the int64 step indices, to three e-folds of growth."""
    n = max(3, int(math.ceil(zeta * lam ** 2)))
    tau = 0.5 / sharp_gate(n, 1.0, j0, lam, zeta)[0]
    grid, scheme = GridSpec(n), SchemeSpec(tau=tau, theta=theta)
    validate_run_config(grid, scheme)
    tail = np.abs(AmplificationFactors(spectral_basis(n), scheme).r12[1:])
    if not (np.sum(tail ** SWEEP_STEPS) <= 0.5
            and 3.0 < 2.0 ** 62 * math.log1p(lam ** 2 * j0 ** 2 * scheme.tau)):
        raise ValueError(f"lambdas: lambda = {lam!r} needs more than SWEEP_STEPS = 1e8 steps "
                         "to its positivity tail or 2^62 to three e-folds; sigma_slope sets "
                         f"the step size and the growth with it, |sigma_slope| = {j0!r}")
    return grid, scheme


def _sweep_point(zeta: float, lam: float, theta: float, sigma_slope: float) -> SweepPoint:
    j0 = abs(sigma_slope)
    grid, scheme = _sweep_grid(zeta, lam, theta, j0)
    n, tau = grid.n, scheme.tau
    model = ModelSpec(lam=lam, sigma=SigmaSpec.linear(sigma_slope),
                      u0=InitialData.constant(1.0))
    gate_ok = not sharp_gate(n, tau, j0, lam, zeta)[1]
    t_pos = positivity_time_full(n, tau, theta)
    gamma_guess = math.log1p(lam ** 2 * j0 ** 2 * tau) / tau
    horizon = t_pos + 3.0 / gamma_guess  # three e-folds past the positivity time
    steps = int(math.ceil(horizon / tau))
    record_every = max(1, steps // 2000)
    moments = exact_second_moment_recursion(grid, scheme, model, steps,
                                            record_every=record_every)
    series = second_moment_series(moments, tau, probe="min")
    if series.horizon_reached:
        raise ValueError(f"lambdas: the second moment at lambda = {lam!r} leaves the float range "
                         f"after t = {series.times[-1]:.6g}, before its horizon {horizon:.6g}")
    window = (max(t_pos, 0.2 * horizon), horizon)
    fit = fit_growth(series, window)
    if not fit.gamma > 0.0:  # the lambda^4 fit takes log gamma_2
        raise ValueError(f"lambdas: the second moment at lambda = {lam!r} does not grow in "
                         f"floating point (fitted gamma_2 = {fit.gamma!r})")
    return SweepPoint(lam, n, tau, fit.gamma, fit.ci_halfwidth, gate_ok)


def lambda_scaling_sweep(zeta: float, lambdas, theta: float = 1.0,
                         sigma_slope: float = 1.0, threads: int = 1) -> SweepResult:
    """Fitted gamma_2 against lambda with n = max(3, ceil(zeta lambda^2)) and
    tau at half the sharp-regime gate, so every point lies inside the gate
    (gate_ok) and, with n^2 tau < 1/(32 pi) < 1/2, inside the theta < 1/2
    stability bound.  Points run on a worker pool when threads > 1; results
    aggregate in input order.  zeta > 0 with zeta^2 in (0, inf), sigma_slope
    nonzero with sigma_slope^4 finite (the gate takes these powers) and two
    or more distinct lambdas, each > 0 with n's table of 16 n^2 bytes in
    TABLE_BYTES and within the step budgets of _sweep_grid, are checked
    before any point runs; a point whose moments leave the float range, or
    whose fitted gamma_2 is not positive, is refused.  u0 = 1: a constant u0
    scales every moment by u0^2 and leaves gamma_2."""
    if not (zeta > 0.0 and 0.0 < zeta * zeta < math.inf):
        raise ValueError(f"zeta must be > 0 with zeta^2 in (0, inf), got {zeta!r}")
    if not (sigma_slope != 0.0 and math.isfinite(math.prod([sigma_slope] * 4))):
        raise ValueError(f"sigma_slope must be nonzero, sigma_slope^4 finite, got {sigma_slope!r}")
    lambdas = list(lambdas)
    bad = [lam for lam in lambdas
           if not (lam > 0.0 and math.prod([4.0, zeta, lam, lam] * 2) <= TABLE_BYTES)]
    if bad:
        raise ValueError("lambdas must be > 0 with the table of n = ceil(zeta*lambda^2), "
                         f"16 n^2 bytes, within TABLE_BYTES = {TABLE_BYTES}, got {bad}")
    if len(set(lambdas)) < 2:  # repeats are one point of the fit
        raise ValueError(f"lambdas: the lambda^4 fit needs two points, got {len(set(lambdas))}")
    for lam in lambdas:
        _sweep_grid(zeta, lam, theta, abs(sigma_slope))

    def point(lam):
        return _sweep_point(zeta, lam, theta, sigma_slope)

    points = pmap(point, lambdas, threads)
    slope, ci, _, _ = ols(np.log([p.lam for p in points]), np.log([p.gamma2 for p in points]))
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
    if not set(p_list) <= allowed:  # 2.0 == 2 is in it; 2.5 is not
        raise ValueError(f"p_list must be a subset of {sorted(allowed)}, got {list(p_list)}")
    p_list = sorted(set(int(p) for p in p_list))
    t_pos = positivity_time_full(grid.n, scheme.tau, scheme.theta, scheme.stepper)
    times = [i * scheme.tau for i in range(0, horizon_steps + 1,
                                           max(1, horizon_steps // 200))]
    series = mc_moment(grid, scheme, model, list(p_list), "min", times, paths, seed)
    horizon_flag = any(s.horizon_reached for s in series)
    t_end = min(s.times[-1] for s in series)
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
