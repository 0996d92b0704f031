"""The three benchmark workloads: inputs from a seed, one op, its checks.

Every op of a run repeats the same inputs, and shelab's results are
deterministic, so the first (warm-up) op gets the full correctness check
and every timed op must reproduce its result bit for bit.  The sizes are
the paper's studies cut down so that one op takes 0.5 to 2.5 seconds on
2 CPUs; README.md gives the reasons for each cut.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np

# Ops call shelab through module attributes so that a traced op reaches
# the wrappers spans.Tracer installs there.
from shelab import cli, convergence, moments
from shelab.model import GridSpec, InitialData, ModelSpec, SchemeSpec, SigmaSpec

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
    REFERENCE = json.load(fh)

PAM = ModelSpec(lam=1.0, sigma=SigmaSpec.linear(1.0), u0=InitialData.constant(1.0))
REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class Workload:
    """One op on inputs fixed by the seed; `collect` turns an op's return
    value into the result that is checked, after the op's timer stops."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def collect(self, raw):
        return raw

    def summary(self, result) -> dict:
        """What the result says, for seed-to-seed comparison of runs."""
        return {}

    @staticmethod
    def cell_steps(profile) -> int:
        """Grid cells x time steps x paths advanced by one op."""
        return profile.counts["solver.cell_steps"]


class StrongLadder(Workload):
    """Criterion-8 temporal ladder: one long Philox stream per path,
    coarsening to 5 rungs, StepOperator.apply at n = 64 on 100 paths."""

    name = "strong-ladder"
    LADDER = [(64, 2.0 ** -k) for k in (8, 9, 10, 11, 12)] + [(64, 2.0 ** -14)]
    T = 2.0 ** -5
    PATHS = 100
    # Fitted temporal order at T = 1/32, 100 paths: seeds 1000-1199 gave
    # mean 0.347, sd 0.042, range [0.258, 0.495]; the band is 6 sd each side.
    ORDER_BAND = (0.10, 0.60)
    PROBE_SEED, PROBE_PATHS = 13, 4

    def _study(self, paths: int, seed: int):
        return convergence.strong_error_study(self.LADDER, PAM, theta=1.0, T=self.T, paths=paths,
                                              seed=seed, fit_separation=8)

    def op(self):
        return self._study(self.PATHS, self.seed)

    def summary(self, curve) -> dict:
        return {"fitted_order": curve.fitted_order, "errors": curve.errors.tolist()}

    def fingerprint(self, curve):
        return (curve.errors.tobytes(), curve.fitted_order, curve.ci, curve.mode,
                curve.fit_mask.tobytes())

    def check(self, curve) -> list[str]:
        fails = []
        if not (np.all(np.isfinite(curve.errors)) and np.all(curve.errors > 0.0)):
            fails.append(f"strong errors not finite and positive: {curve.errors.tolist()}")
        if curve.mode != "temporal":
            fails.append(f"ladder mode {curve.mode!r} is not temporal")
        lo, hi = self.ORDER_BAND
        if not lo <= curve.fitted_order <= hi:
            fails.append(f"fitted order {curve.fitted_order:.4f} outside [{lo}, {hi}]")
        probe = self._study(self.PROBE_PATHS, self.PROBE_SEED).errors
        want = REFERENCE["strong_probe_errors"]
        if len(probe) != len(want) or not all(map(_close, probe, want)):
            fails.append(f"probe RMS errors {probe.tolist()} differ from reference {want}")
        return fails


class PamHierarchy(Workload):
    """p = 2, 4 intermittency report: a SeedSequence+Philox stream per path,
    ndtri normals, StepOperator.apply at n = 8 on one batch of 1000 paths."""

    name = "pam-hierarchy"
    GRID, SCHEME = GridSpec(8), SchemeSpec(tau=1e-3, theta=1.0)
    P_LIST, STEPS, PATHS = [2, 4], 500, 1000

    def op(self):
        return moments.intermittency_report(self.GRID, self.SCHEME, PAM, self.P_LIST, self.STEPS,
                                            self.PATHS, self.seed)

    def summary(self, report) -> dict:
        return {f"gamma_{p}": f.gamma for p, f in sorted(report.fits.items())}

    def fingerprint(self, report):
        fits = tuple((p, f.gamma, f.window, f.r_squared, f.ci_halfwidth, f.stderr, f.npoints)
                     for p, f in sorted(report.fits.items()))
        return (fits, report.gamma2_positive, report.all_finite,
                report.normalized_nondecreasing, report.horizon_flag, report.window)

    def check(self, report) -> list[str]:
        fails = []
        if not report.all_finite:
            fails.append("a moment Lyapunov estimate is not finite")
        if not report.gamma2_positive:
            fails.append(f"gamma_2 not positive: {report.fits[2]}")
        # the rule of tests/test_moments.py::test_gamma2_matches_exact_recursion
        mats = moments.exact_second_moment_recursion(self.GRID, self.SCHEME, PAM, self.STEPS,
                                                     record_every=5)
        series = moments.second_moment_series(mats, self.SCHEME.tau, probe="min")
        exact = moments.fit_growth(series, window=report.window)
        mc = moments.mc_moment(self.GRID, self.SCHEME, PAM, 2, "min", list(report.window),
                               self.PATHS, seed=self.seed)
        rel = mc.stderr / mc.values
        slope_se = math.hypot(rel[0], rel[1]) / (report.window[1] - report.window[0])
        tol = 3.0 * (report.fits[2].ci_halfwidth + slope_se)
        if not abs(report.fits[2].gamma - exact.gamma) <= tol:
            fails.append(f"MC gamma_2 {report.fits[2].gamma:.6f} vs exact {exact.gamma:.6f} "
                         f"differs by more than {tol:.3g}")
        return fails


class Calibration(Workload):
    """In-process CLI calls into a temp dir: the lambda sweep (exact
    recursion), a renewal root pair, green-full kernel-error integrals and
    the green-check suite.  No noise, no solver."""

    name = "calibration"
    ZETA = 2.0
    CALLS = [
        ("sweep", {"sweep": {"zeta": 2.0, "lambdas": [1.0, 1.5], "theta": 1.0}}),
        ("renewal", {"renewal": {"lambda": 1.0, "j0": 1.0, "n": 4, "tau": 1e-3,
                                 "zeta": 1.0, "which": "both"}}),
        ("convergence", {"convergence": {"kind": "green-full", "n": 64, "theta": 1.0,
                                         "taus": [2.0 ** -3, 2.0 ** -5, 2.0 ** -7]}}),
        ("green-check", {"green_check": {"ns": [3, 4, 8, 16], "thetas": [0.5, 1.0]}}),
    ]
    # Columns compared with the recorded reference.  Left out are roundoff
    # residuals (renewal mass errors, check margins, the near-zero CIs of
    # fits to the exact recursion) and the slope CI, undefined for 2 points.
    REFERENCE_COLUMNS = {
        "sweep.csv": ["lambda", "n", "tau", "gamma2"],
        "sweep_fit.csv": ["loglog_slope", "zeta"],
        "renewal.csv": ["lambda", "n", "tau", "mu", "implied_rate"],
        "green_error.csv": ["tau", "error"],
    }

    def op(self):
        out = tempfile.mkdtemp(dir=self.workdir)
        stdout = io.StringIO()
        codes = []
        with contextlib.redirect_stdout(stdout):
            for command, section in self.CALLS:
                config = os.path.join(out, f"{command}.json")
                with open(config, "w", encoding="utf-8") as fh:
                    json.dump({"seed": self.seed, **section}, fh)
                codes.append(cli.main([command, "--config", config, "--out-dir", out,
                                       "--threads", "1"]))
        return codes, out, stdout.getvalue()

    def collect(self, raw):
        codes, out, stdout = raw
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
        shutil.rmtree(out)
        return codes, files, stdout

    def fingerprint(self, result):
        return result

    @staticmethod
    def _table(blob: bytes) -> list[dict]:
        lines = [ln for ln in blob.decode().splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        return [dict(zip(header, ln.split(","))) for ln in lines[1:]]

    @classmethod
    def tables(cls, files: dict) -> dict:
        return {name: cls._table(blob) for name, blob in files.items() if name.endswith(".csv")}

    def check(self, result) -> list[str]:
        codes, files, stdout = result
        fails = []
        if codes != [0] * len(self.CALLS):
            fails.append(f"CLI exit codes {codes}")
        try:
            tables = self.tables(files)
            fails += self._criteria(tables, stdout)
            fails += self._against_reference(tables)
        except (KeyError, IndexError, ValueError) as err:
            fails.append(f"unreadable CLI output: {err!r}")
        return fails

    def _criteria(self, tables: dict, stdout: str) -> list[str]:
        fails = []
        # criterion 5: lambda^4 law on the sweep
        zeta = self.ZETA
        for row in tables["sweep.csv"]:
            lam, tau = float(row["lambda"]), float(row["tau"])
            gamma2, ci = float(row["gamma2"]), float(row["ci_halfwidth"])
            printed = 4.0 * math.pi ** 2 * zeta ** 2 * lam ** 4 / (1.0 + 32.0 * math.pi * zeta) ** 2
            if row["gate_ok"] != "True" or not gamma2 >= printed:
                fails.append(f"sweep point {row} fails the gate or gamma2 >= {printed:.4g}")
            if not gamma2 >= math.log1p(lam ** 2 * tau) / tau - ci:
                fails.append(f"sweep point {row} below log(1 + lambda^2 tau)/tau")
        slope = float(tables["sweep_fit.csv"][0]["loglog_slope"])
        if not 2.0 <= slope <= 4.5:
            fails.append(f"sweep log-log slope {slope} outside [2.0, 4.5]")
        # criterion 6: renewal mass errors and the printed lower bounds
        sec = dict(self.CALLS)["renewal"]["renewal"]
        z, j0 = sec["zeta"], sec["j0"]
        for row in tables["renewal.csv"]:
            mu, mass_error = float(row["mu"]), float(row["mass_error"])
            discrete = float(row["tau"]) > 0.0
            bound = (16.0 * math.pi * z / (j0 ** 2 + 32.0 * math.pi * z) if discrete
                     else 8.0 * math.pi * z / (j0 ** 2 + 8.0 * math.pi * z))
            if not (mass_error < 1e-8 and mu >= bound - 1e-12):
                fails.append(f"renewal root {row} fails mass error < 1e-8 or mu >= {bound:.6g}")
        # criterion 7: kernel-error decay per 4x tau refinement
        errs = [float(r["error"]) for r in tables["green_error.csv"]]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        if not (len(ratios) == 2 and all(1.5 <= r <= 2.6 for r in ratios)):
            fails.append(f"green-full decay ratios {ratios} outside [1.5, 2.6]")
        # criterion 1: every lemma check passes
        checks = tables["green_check.csv"]
        failed = [r["check"] for r in checks if r["passed"] != "1"]
        if failed or not checks or f"{len(checks)}/{len(checks)} checks passed" not in stdout:
            fails.append(f"green-check failures: {failed}")
        return fails

    def _against_reference(self, tables: dict) -> list[str]:
        fails = []
        for name, columns in self.REFERENCE_COLUMNS.items():
            got = [[float(row[c]) for c in columns] for row in tables[name]]
            want = REFERENCE["calibration"][name]
            if len(got) != len(want) or not all(
                    _close(a, b) for g, w in zip(got, want) for a, b in zip(g, w)):
                fails.append(f"{name} values {got} differ from reference {want}")
        return fails

    @staticmethod
    def cell_steps(profile) -> int:
        # no grid paths here: count the exact recursion's n cells x steps
        return profile.extra_counts["moments.recursion_cell_steps"]


WORKLOADS = {w.name: w for w in (StrongLadder, PamHierarchy, Calibration)}
