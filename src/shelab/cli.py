"""Batch front door: JSON run configs in, provenance-stamped CSV/SVG out.

Exit codes: 0 success, 1 check-suite failure, 2 configuration or
validation error, 3 numeric blow-up (horizon report on stderr), 4 internal
numerical failure (an escaping MemoryError, ArithmeticError or
RuntimeError, one line on stderr).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import suppress
from dataclasses import asdict, astuple
from functools import cache
from types import UnionType
from typing import Literal, Union, get_args, get_origin

from . import __version__
from .checks import DEFAULT_NS, DEFAULT_THETAS, lemma_suite
from .convergence import green_error_full, green_error_semi, strong_error_study
from .model import GridSpec, InitialData, ModelSpec, SchemeSpec, SigmaSpec
from .moments import (exact_second_moment_recursion, fit_growth,
                      lambda_scaling_sweep, mc_moment, pmap, second_moment_series)
from .noise import NoiseSeed
from .output import manifest_line, svg_plot, write_csv
from .renewal import continuous_mu, discrete_mu
from .solver import BlowupError, simulate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    pass


class _Config(dict):
    """A loaded config that remembers the dotted key of every value read
    from it by the key's last name, so that a library refusal whose clause
    opens with that name ("n < 3", "zeta must be ...") names its key."""

    def __init__(self):
        super().__init__()
        self.read = {}


def _thread_count(text: str, least: int = 0) -> int:
    """A thread count of at least `least` (--threads: 0 means the default)."""
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text!r}")
    return value


def _threads(args) -> int:
    if args.threads:
        return args.threads
    try:
        return _thread_count(os.environ.get("SHELAB_THREADS", "1"), least=1)
    except argparse.ArgumentTypeError as err:
        raise ConfigError(f"SHELAB_THREADS {err}") from None


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot load config {path}: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object, got {cfg!r}")
    return cfg


_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               dict: "a JSON object"}


def _describe(kind) -> str:
    """The words for `kind` in a refusal message."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Literal:
        return "one of " + ", ".join(map(repr, args))
    if origin is list:
        return f"a list, each item {_describe(args[0])}"
    if origin is tuple:
        return f"a list [{', '.join(map(_describe, args))}]"
    return " or ".join(map(_describe, args)) if args else _KIND_NAMES[kind]


def _convert(value, kind):
    """`value` read as `kind`; a value of another kind raises TypeError."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind is float and number and math.isfinite(value):
        return float(value)
    if kind in (bool, dict) and isinstance(value, kind):
        return value
    origin, args = get_origin(kind), get_args(kind)
    if origin is Literal and isinstance(value, str) and value in args:
        return value
    if origin is list and isinstance(value, list):
        return [_convert(item, args[0]) for item in value]
    if origin is tuple and isinstance(value, list) and len(value) == len(args):
        return tuple(map(_convert, value, args))
    if origin in (Union, UnionType):  # the first kind that reads the value
        for option in args:
            with suppress(TypeError, OverflowError):
                return _convert(value, option)
    raise TypeError(kind)


def _get(cfg: dict, key: str, kind, default=..., least=None):
    """The value at a dotted key ("renewal.tau") read as `kind`: int, float,
    bool, dict (a JSON object), Literal[...] (one of those strings), list[K],
    tuple[K1, K2] (a list of that length), or a union of these.  A missing
    key gives `default`; without one it is a ConfigError, and so is a value
    of another kind, a number below `least` or a list shorter than `least`
    (1 or 2).  A bool is not a number, NaN and +-Infinity are refused, and an
    integral float such as 8.0 reads as the int 8.  `cfg` is never written
    but for a `_Config`'s `read`, where the key of each value present is noted."""
    head, _, name = key.rpartition(".")
    section = _get(cfg, head, dict, {}) if head else cfg
    if name not in section:
        if default is ...:
            raise ConfigError(f"config is missing the required key '{key}'")
        return default
    value = section[name]
    if isinstance(cfg, _Config) and kind is not dict:  # a section's name opens no refusal
        cfg.read[name] = key
    try:
        read = _convert(value, kind)
    except (TypeError, OverflowError):
        raise ConfigError(f"config key '{key}' must be {_describe(kind)}, "
                          f"got {value!r}") from None
    if least is not None and (len(read) if isinstance(read, list) else read) < least:
        wanted = (f"list at least {('one value', 'two values')[least - 1]}"
                  if isinstance(read, list) else f"be >= {least}")
        raise ConfigError(f"config key '{key}' must {wanted}, got {value!r}")
    return read


def parse_grid(cfg: dict) -> GridSpec:
    return GridSpec(_get(cfg, "grid.n", int))


def parse_scheme(cfg: dict) -> SchemeSpec:
    return SchemeSpec(tau=_get(cfg, "scheme.tau", float),
                      theta=_get(cfg, "scheme.theta", float, 1.0),
                      stepper=_get(cfg, "scheme.stepper", Literal["theta", "exponential"],
                                   "theta"))


def parse_model(cfg: dict) -> ModelSpec:
    _get(cfg, "model", dict)  # required, although each of its keys has a default
    if _get(cfg, "model.sigma.kind", Literal["linear", "table"], "linear") == "linear":
        sigma = SigmaSpec.linear(_get(cfg, "model.sigma.slope", float, 1.0))
    else:
        sigma = SigmaSpec.table(_get(cfg, "model.sigma.points", list[tuple[float, float]]))
    if _get(cfg, "model.u0.kind", Literal["constant", "samples"], "constant") == "constant":
        u0 = InitialData.constant(_get(cfg, "model.u0.value", float, 1.0))
    else:
        u0 = InitialData.grid_samples(_get(cfg, "model.u0.values", list[float]))
    return ModelSpec(lam=_get(cfg, "model.lambda", float, 1.0), sigma=sigma, u0=u0)


# ---------------------------------------------------------------------------
# subcommands: (exit code, {file name: CSV (columns, rows) or SVG (label,
# xs, ys, title, annotation)}), which main stamps and writes
# ---------------------------------------------------------------------------

def cmd_green_check(args, cfg: dict) -> tuple[int, dict]:
    ns = _get(cfg, "green_check.ns", list[int], DEFAULT_NS)
    thetas = _get(cfg, "green_check.thetas", list[float], DEFAULT_THETAS)
    results = lemma_suite(ns, thetas)
    failed = [r for r in results if not r.passed]
    if args.json:
        print(json.dumps({"passed": not failed, "checks": list(map(asdict, results))}, indent=2))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "ok  " if r.passed else "FAIL"
            print(f"{status} {r.name:<{width}} margin={r.worst_margin:.3e} {r.detail}")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    rows = [(r.name, int(r.passed), r.worst_margin, r.detail.replace(",", ";")) for r in results]
    return (EXIT_CHECK_FAILED if failed else EXIT_OK,
            {"green_check.csv": (["check", "passed", "worst_margin", "detail"], rows)})


def cmd_simulate(args, cfg: dict) -> tuple[int, dict]:
    grid, scheme, model = parse_grid(cfg), parse_scheme(cfg), parse_model(cfg)
    record = _get(cfg, "simulate.record_indices", list[int], None)
    if record is None:
        steps = _get(cfg, "simulate.steps", int, least=0)
        record = [*range(0, steps, _get(cfg, "simulate.record_every", int, 1, least=1)), steps]
    record = sorted(set(record)) or [0]
    seed = NoiseSeed(_get(cfg, "seed", int, 0), path=_get(cfg, "simulate.path", int, 0))
    states = simulate(grid, scheme, model, seed, record)
    cols = ["t"] + [f"x_{j}" for j in range(grid.n)]
    rows = [(i * scheme.tau, *map(float, u)) for i, u in zip(record, states)]
    return EXIT_OK, {"trajectory.csv": (cols, rows)}


def cmd_moments(args, cfg: dict) -> tuple[int, dict]:
    grid, scheme, model = parse_grid(cfg), parse_scheme(cfg), parse_model(cfg)
    exact = _get(cfg, "moments.mode", Literal["exact", "mc"], "exact") == "exact"
    probe = _get(cfg, "moments.probe", Literal["min"] | int, "min" if exact else 0)
    window = _get(cfg, "moments.fit", bool | tuple[float, float], False)
    if exact:
        moments = exact_second_moment_recursion(
            grid, scheme, model, _get(cfg, "moments.steps", int),
            record_every=_get(cfg, "moments.record_every", int, 1))
        series = second_moment_series(moments, scheme.tau, probe=probe)
        rows = [(float(t), float(v), 0.0) for t, v in zip(series.times, series.values)]
    else:
        series = mc_moment(grid, scheme, model, _get(cfg, "moments.p", float, 2.0), probe,
                           _get(cfg, "moments.times", list[float]),
                           _get(cfg, "moments.paths", int), _get(cfg, "seed", int, 0))
        rows = [(float(t), float(v), float(e))
                for t, v, e in zip(series.times, series.values, series.stderr)]
    if series.horizon_reached:  # a moment may overflow at the first record
        at = f"t={float(series.times[-1])!r}" if rows else "the first record"
        print(f"warning: blow-up horizon reached at {at}; series truncated", file=sys.stderr)
    artifacts = {"moments.csv": (["t", "moment", "stderr"], rows)}
    if window:  # true fits the default window, [lo, hi] that window
        fit = fit_growth(series, None if window is True else window)
        artifacts["moments_fit.csv"] = (
            ["gamma", "ci_halfwidth", "r_squared", "window_lo", "window_hi"],
            [(fit.gamma, fit.ci_halfwidth, fit.r_squared, *fit.window)])
    return EXIT_OK, artifacts


def cmd_sweep(args, cfg: dict) -> tuple[int, dict]:
    result = lambda_scaling_sweep(zeta=_get(cfg, "sweep.zeta", float, 1.0),
                                  lambdas=_get(cfg, "sweep.lambdas", list[float], least=2),
                                  theta=_get(cfg, "sweep.theta", float, 1.0),
                                  sigma_slope=_get(cfg, "sweep.sigma_slope", float, 1.0),
                                  threads=_threads(args))
    return EXIT_OK, {
        "sweep.csv": (["lambda", "n", "tau", "gamma2", "ci_halfwidth", "gate_ok"],
                      list(map(astuple, result.points))),
        "sweep_fit.csv": (["loglog_slope", "slope_ci", "zeta"],
                          [(result.slope, result.slope_ci, result.zeta)]),
        "sweep.svg": ("gamma2(lambda)", [p.lam for p in result.points],
                      [p.gamma2 for p in result.points],
                      "second-moment growth rate vs noise level",
                      f"slope={result.slope:.3f} +/- {result.slope_ci:.3f}")}


def cmd_renewal(args, cfg: dict) -> tuple[int, dict]:
    which = _get(cfg, "renewal.which", Literal["continuous", "discrete", "both"], "both")
    lam, j0, n = (_get(cfg, "renewal.lambda", float), _get(cfg, "renewal.j0", float, 1.0),
                  _get(cfg, "renewal.n", int))
    rows = []
    if which != "discrete":
        root = continuous_mu(lam, j0, n, zeta=_get(cfg, "renewal.zeta", float, None))
        rows.append((lam, n, 0.0, root.mu, root.mass_error, root.implied_rate))
    if which != "continuous":
        tau = _get(cfg, "renewal.tau", float)
        root = discrete_mu(lam, j0, n, tau, _get(cfg, "renewal.zeta", float))
        rows.append((lam, n, tau, root.mu, root.mass_error, root.implied_rate))
    return EXIT_OK, {"renewal.csv": (["lambda", "n", "tau", "mu", "mass_error", "implied_rate"],
                                     rows)}


def cmd_convergence(args, cfg: dict) -> tuple[int, dict]:
    kind = _get(cfg, "convergence.kind", Literal["green-semi", "green-full", "strong"],
                "strong")
    threads = _threads(args)
    if kind != "strong":
        x = _get(cfg, "convergence.x", float, 0.0)
        if kind == "green-semi":
            var, xs = "n", _get(cfg, "convergence.ns", list[int], [8, 16, 32, 64], least=1)
            errs = pmap(lambda n: green_error_semi(n, x=x), xs, threads)
        else:
            n = _get(cfg, "convergence.n", int, 64)
            theta = _get(cfg, "convergence.theta", float, 1.0)
            var, xs = "tau", _get(cfg, "convergence.taus", list[float], least=1)
            errs = pmap(lambda tau: green_error_full(n, tau, theta, x=x), xs, threads)
        return EXIT_OK, {
            "green_error.csv": ([var, "error", "stderr"], [(v, e, 0.0) for v, e in zip(xs, errs)]),
            "green_error.svg": (kind.removeprefix("green-"), xs, errs,
                                f"kernel error integral vs {var}", "")}
    model = parse_model(cfg)
    curve = strong_error_study(_get(cfg, "convergence.ladder", list[tuple[int, float]]), model,
                               theta=_get(cfg, "convergence.theta", float, 1.0),
                               T=_get(cfg, "convergence.T", float),
                               paths=_get(cfg, "convergence.paths", int),
                               seed=_get(cfg, "seed", int, 0))
    rows = [(n, tau, float(e), 0.0) for (n, tau), e in zip(curve.resolutions, curve.errors)]
    xs = [tau for _, tau in curve.resolutions] if curve.mode == "temporal" \
        else [float(n) for n, _ in curve.resolutions]
    return EXIT_OK, {
        "strong_error.csv": (["n", "tau", "error", "stderr"], rows),
        "strong_error.svg": (curve.mode, xs, curve.errors, f"strong error ({curve.mode})",
                             f"order={curve.fitted_order:.3f} +/- {curve.ci:.3f}")}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; each parse_args call
    returns a new Namespace."""
    parser = argparse.ArgumentParser(
        prog="shelab",
        description="stochastic heat equation lab: batch experiments to CSV/SVG")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        p.add_argument("--config", required=needs_config,
                       help="JSON run configuration")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--threads", type=_thread_count, default=0,
                       help="worker threads (default: SHELAB_THREADS or 1)")

    p = sub.add_parser("green-check", help="run the Green-function lemma suite")
    common(p, needs_config=False)
    p.set_defaults(fn=cmd_green_check, out_dir=None)  # table to stdout unless a dir is named
    p.add_argument("--json", action="store_true", help="machine-readable output")
    for name, fn in (("simulate", cmd_simulate), ("moments", cmd_moments),
                     ("sweep", cmd_sweep), ("renewal", cmd_renewal),
                     ("convergence", cmd_convergence)):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        common(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _Config()
    try:
        cfg.update(_load_config(args.config) if args.config else {})
        code, artifacts = args.fn(args, cfg)
        if args.out_dir:  # green-check writes only to a named directory
            manifest = manifest_line(cfg, _get(cfg, "seed", int, 0))
            for name, table in artifacts.items():
                path = os.path.join(args.out_dir, name)
                if name.endswith(".svg"):
                    label, xs, ys, title, annotation = table
                    svg_plot(path, label, xs, ys, manifest, title, annotation)
                else:
                    write_csv(path, *table, manifest)
        return code
    except ValueError as err:  # the reader's refusal (ConfigError) or the library's
        # a clause of the message ("n < 3: ...", "; zeta must be ...") that
        # opens with the last name of a key read names that key
        openers = {clause.split(" ", 1)[0] for clause in re.split(r"[:;] ", str(err))}
        keys = [key for name, key in cfg.read.items() if name in openers]
        if keys:
            err = f"config key{'s' * (len(keys) > 1)} {', '.join(map(repr, keys))}: {err}"
        elif not isinstance(err, ConfigError):
            print(f"invalid configuration: {err}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"config error: {err}", file=sys.stderr)
        print("usage: see README for the JSON schema", file=sys.stderr)
        return EXIT_CONFIG
    except BlowupError as err:  # a RuntimeError, so caught before the next clause
        print(f"blow-up: {err}", file=sys.stderr)
        return EXIT_BLOWUP
    except (MemoryError, ArithmeticError, RuntimeError) as err:
        print(f"internal numerical failure: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
