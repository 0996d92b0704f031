"""Batch front door: JSON run configs in, provenance-stamped CSV/SVG out.

Exit codes: 0 success, 1 check-suite failure, 2 configuration or
validation error, 3 numeric blow-up (horizon report on stderr).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .checks import DEFAULT_NS, DEFAULT_THETAS, lemma_suite
from .convergence import green_error_full, green_error_semi, strong_error_study
from .model import GridSpec, InitialData, ModelSpec, SchemeSpec, SigmaSpec
from .moments import (exact_second_moment_recursion, fit_growth,
                      lambda_scaling_sweep, mc_moment, pmap, second_moment_series)
from .noise import NoiseSeed
from .output import RunManifest, svg_plot, write_csv
from .renewal import continuous_mu, discrete_mu
from .solver import BlowupError, simulate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3


class ConfigError(ValueError):
    pass


def _threads(args) -> int:
    if args.threads:
        return args.threads
    return int(os.environ.get("SHELAB_THREADS", "1"))


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot load config {path}: {err}") from None


def _require(cfg: dict, path: str):
    """Value at a dotted key path ("renewal.tau"); a missing key is a ConfigError."""
    for key in path.split("."):
        if not isinstance(cfg, dict) or key not in cfg:
            raise ConfigError(f"config is missing the required key '{path}'")
        cfg = cfg[key]
    return cfg


def parse_grid(cfg: dict) -> GridSpec:
    return GridSpec(int(_require(cfg, "grid.n")))


def parse_scheme(cfg: dict) -> SchemeSpec:
    s = _require(cfg, "scheme")
    return SchemeSpec(tau=float(_require(cfg, "scheme.tau")), theta=float(s.get("theta", 1.0)),
                      stepper=s.get("stepper", "theta"))


def parse_sigma(cfg: dict) -> SigmaSpec:
    s = cfg["model"].get("sigma", {})
    if s.get("kind", "linear") == "linear":
        return SigmaSpec.linear(float(s.get("slope", 1.0)))
    return SigmaSpec.table([tuple(p) for p in _require(cfg, "model.sigma.points")])


def parse_model(cfg: dict) -> ModelSpec:
    m = _require(cfg, "model")
    u0 = m.get("u0", {"kind": "constant", "value": 1.0})
    if u0.get("kind", "constant") == "constant":
        init = InitialData.constant(float(u0.get("value", 1.0)))
    else:
        init = InitialData.grid_samples([float(v) for v in _require(cfg, "model.u0.values")])
    return ModelSpec(lam=float(m.get("lambda", 1.0)),
                     sigma=parse_sigma(cfg),
                     u0=init)


def _manifest(cfg: dict) -> RunManifest:
    return RunManifest(config=cfg, seed=int(cfg.get("seed", 0)))


def _out(args, name: str) -> str:
    return os.path.join(args.out_dir, name)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_green_check(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    section = cfg.get("green_check", {})
    lattice = {"ns": section.get("ns", DEFAULT_NS),
               "thetas": section.get("thetas", DEFAULT_THETAS)}
    for key, values in lattice.items():
        if not isinstance(values, (list, tuple)):
            raise ConfigError(f"green_check.{key} must be a list, got {values!r}")
    pert = 1e-3 if args.inject_fault else 0.0
    try:
        results = lemma_suite(**lattice, eigenvalue_perturbation=pert)
    except ValueError as err:  # a bad lattice; the message starts with its key
        raise ConfigError(f"green_check.{err}") from None
    failed = [r for r in results if not r.passed]
    if args.json:
        payload = [{"name": r.name, "passed": r.passed,
                    "worst_margin": r.worst_margin, "detail": r.detail}
                   for r in results]
        print(json.dumps({"passed": not failed, "checks": payload}, indent=2))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "ok  " if r.passed else "FAIL"
            print(f"{status} {r.name:<{width}} margin={r.worst_margin:.3e} {r.detail}")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if args.out_dir:
        manifest = _manifest(cfg)
        write_csv(_out(args, "green_check.csv"),
                  ["check", "passed", "worst_margin", "detail"],
                  [(r.name, int(r.passed), r.worst_margin, r.detail.replace(",", ";"))
                   for r in results], manifest)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    grid, scheme, model = parse_grid(cfg), parse_scheme(cfg), parse_model(cfg)
    sec = _require(cfg, "simulate")
    if "record_indices" in sec:
        record = sorted({int(i) for i in sec["record_indices"]}) or [0]
    else:
        steps = int(_require(cfg, "simulate.steps"))
        every = int(sec.get("record_every", 1))
        if steps < 0:
            raise ConfigError(f"simulate.steps must be >= 0, got {steps}")
        if every < 1:
            raise ConfigError(f"simulate.record_every must be >= 1, got {every}")
        record = list(range(0, steps + 1, every))
        if record[-1] != steps:
            record.append(steps)
    seed = NoiseSeed(int(cfg.get("seed", 0)), path=int(sec.get("path", 0)))
    states = simulate(grid, scheme, model, seed, record)
    manifest = _manifest(cfg)
    cols = ["t"] + [f"x_{j}" for j in range(grid.n)]
    rows = [(scheme.t(i), *map(float, u)) for i, u in zip(record, states)]
    write_csv(_out(args, "trajectory.csv"), cols, rows, manifest)
    return EXIT_OK


def cmd_moments(args) -> int:
    cfg = _load_config(args.config)
    grid, scheme, model = parse_grid(cfg), parse_scheme(cfg), parse_model(cfg)
    sec = _require(cfg, "moments")
    mode = sec.get("mode", "exact")
    manifest = _manifest(cfg)
    if mode == "exact":
        steps = int(_require(cfg, "moments.steps"))
        every = int(sec.get("record_every", 1))
        moments = exact_second_moment_recursion(grid, scheme, model, steps,
                                                record_every=every)
        series = second_moment_series(moments, scheme.tau, probe=sec.get("probe", "min"))
        rows = [(float(t), float(v), 0.0) for t, v in zip(series.times, series.values)]
    elif mode == "mc":
        times = [float(t) for t in _require(cfg, "moments.times")]
        series = mc_moment(grid, scheme, model, float(sec.get("p", 2)),
                           sec.get("probe", 0), times, int(_require(cfg, "moments.paths")),
                           int(cfg.get("seed", 0)))
        rows = [(float(t), float(v), float(e))
                for t, v, e in zip(series.times, series.values, series.stderr)]
        if series.horizon_reached and not rows:
            raise BlowupError(0, float("inf"))
        if series.horizon_reached:
            print(f"warning: blow-up horizon reached at t={float(series.times[-1])!r}; "
                  "series truncated", file=sys.stderr)
    else:
        raise ConfigError(f"unknown moments mode {mode!r}")
    write_csv(_out(args, "moments.csv"), ["t", "moment", "stderr"], rows, manifest)
    if sec.get("fit"):
        fit = fit_growth(series, tuple(sec["fit"]) if isinstance(sec["fit"], list) else None)
        write_csv(_out(args, "moments_fit.csv"),
                  ["gamma", "ci_halfwidth", "r_squared", "window_lo", "window_hi"],
                  [(fit.gamma, fit.ci_halfwidth, fit.r_squared, *fit.window)], manifest)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    sec = _require(cfg, "sweep")
    lambdas = [float(v) for v in sec.get("lambdas", [])]
    if len(lambdas) < 2:
        raise ConfigError("sweep needs at least two 'lambdas' to fit the lambda^4 law")
    try:
        result = lambda_scaling_sweep(zeta=float(sec.get("zeta", 1.0)), lambdas=lambdas,
                                      theta=float(sec.get("theta", 1.0)),
                                      sigma_slope=float(sec.get("sigma_slope", 1.0)),
                                      gate_safety=float(sec.get("gate_safety", 0.5)),
                                      threads=_threads(args))
    except ValueError as err:  # a bad zeta or slope names its key first
        if str(err).startswith(("zeta ", "sigma_slope ")):
            raise ConfigError(f"sweep.{err}") from None
        raise
    manifest = _manifest(cfg)
    write_csv(_out(args, "sweep.csv"),
              ["lambda", "n", "tau", "gamma2", "ci_halfwidth", "gate_ok"],
              list(result.rows()), manifest)
    write_csv(_out(args, "sweep_fit.csv"), ["loglog_slope", "slope_ci", "zeta"],
              [(result.slope, result.slope_ci, result.zeta)], manifest)
    good = [p for p in result.points if np.isfinite(p.gamma2)]
    svg_plot(_out(args, "sweep.svg"),
             [("gamma2(lambda)", [p.lam for p in good], [p.gamma2 for p in good])],
             manifest, title="second-moment growth rate vs noise level",
             logx=True, logy=True,
             annotation=f"slope={result.slope:.3f} +/- {result.slope_ci:.3f}")
    return EXIT_OK


def cmd_renewal(args) -> int:
    cfg = _load_config(args.config)
    sec = _require(cfg, "renewal")
    which = sec.get("which", "both")
    if which not in ("continuous", "discrete", "both"):
        raise ConfigError(f"renewal.which must be continuous, discrete or both, got {which!r}")
    lam = float(_require(cfg, "renewal.lambda"))
    j0 = float(sec.get("j0", 1.0))
    n = int(_require(cfg, "renewal.n"))
    rows = []
    if which in ("continuous", "both"):
        root = continuous_mu(lam, j0, n, zeta=sec.get("zeta"))
        rows.append((lam, n, 0.0, root.mu, root.mass_error, root.implied_rate))
    if which in ("discrete", "both"):
        tau = float(_require(cfg, "renewal.tau"))
        zeta = float(_require(cfg, "renewal.zeta"))
        root = discrete_mu(lam, j0, n, tau, zeta)
        rows.append((lam, n, tau, root.mu, root.mass_error, root.implied_rate))
    manifest = _manifest(cfg)
    write_csv(_out(args, "renewal.csv"),
              ["lambda", "n", "tau", "mu", "mass_error", "implied_rate"],
              rows, manifest)
    return EXIT_OK


def cmd_convergence(args) -> int:
    cfg = _load_config(args.config)
    sec = _require(cfg, "convergence")
    kind = sec.get("kind", "strong")
    manifest = _manifest(cfg)
    threads = _threads(args)
    if kind == "green-semi":
        ns = [int(v) for v in sec.get("ns", [8, 16, 32, 64])]
        if not ns:
            raise ConfigError("convergence.ns must list at least one grid size")
        errs = pmap(lambda n: green_error_semi(n, x=float(sec.get("x", 0.0))),
                    ns, threads)
        rows = [(n, e, 0.0) for n, e in zip(ns, errs)]
        write_csv(_out(args, "green_error.csv"), ["n", "error", "stderr"], rows, manifest)
        svg_plot(_out(args, "green_error.svg"),
                 [("semi", [float(n) for n in ns], errs)], manifest,
                 title="kernel error integral vs n", logx=True, logy=True)
        return EXIT_OK
    if kind == "green-full":
        n = int(sec.get("n", 64))
        theta = float(sec.get("theta", 1.0))
        taus = [float(v) for v in _require(cfg, "convergence.taus")]
        if not taus:
            raise ConfigError("convergence.taus must list at least one time step")
        errs = pmap(lambda tau: green_error_full(n, tau, theta,
                                                 x=float(sec.get("x", 0.0))),
                    taus, threads)
        rows = [(tau, e, 0.0) for tau, e in zip(taus, errs)]
        write_csv(_out(args, "green_error.csv"), ["tau", "error", "stderr"], rows, manifest)
        svg_plot(_out(args, "green_error.svg"), [("full", taus, errs)], manifest,
                 title="kernel error integral vs tau", logx=True, logy=True)
        return EXIT_OK
    if kind == "strong":
        model = parse_model(cfg)
        ladder = [(int(n), float(t)) for n, t in _require(cfg, "convergence.ladder")]
        curve = strong_error_study(ladder, model, theta=float(sec.get("theta", 1.0)),
                                   T=float(_require(cfg, "convergence.T")),
                                   paths=int(_require(cfg, "convergence.paths")),
                                   seed=int(cfg.get("seed", 0)),
                                   probe_x=float(sec.get("probe_x", 0.0)))
        rows = [(n, tau, float(e), 0.0)
                for (n, tau), e in zip(curve.resolutions, curve.errors)]
        write_csv(_out(args, "strong_error.csv"), ["n", "tau", "error", "stderr"],
                  rows, manifest)
        xs = [tau for _, tau in curve.resolutions] if curve.mode == "temporal" \
            else [float(n) for n, _ in curve.resolutions]
        svg_plot(_out(args, "strong_error.svg"),
                 [(curve.mode, xs, list(curve.errors))], manifest,
                 title=f"strong error ({curve.mode})", logx=True, logy=True,
                 annotation=f"order={curve.fitted_order:.3f} +/- {curve.ci:.3f}")
        return EXIT_OK
    raise ConfigError(f"unknown convergence kind {kind!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shelab",
        description="stochastic heat equation lab: batch experiments to CSV/SVG")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        p.add_argument("--config", required=needs_config,
                       help="JSON run configuration")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=0,
                       help="worker threads (default: SHELAB_THREADS or 1)")

    p = sub.add_parser("green-check", help="run the Green-function lemma suite")
    common(p, needs_config=False)
    p.set_defaults(out_dir=None)  # table goes to stdout unless a dir is named
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb an eigenvalue; the suite must fail")
    p.set_defaults(fn=cmd_green_check)
    for name, fn in (("simulate", cmd_simulate), ("moments", cmd_moments),
                     ("sweep", cmd_sweep), ("renewal", cmd_renewal),
                     ("convergence", cmd_convergence)):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        common(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        print("usage: see README for the JSON schema", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowupError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
