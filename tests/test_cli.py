import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import shelab
from shelab import cli
from shelab.cli import build_parser, main
from shelab.output import manifest_line
from shelab.solver import BlowupError

from conftest import perturb_eigenvalues

BASE_CONFIG = {
    "seed": 42,
    "grid": {"n": 8},
    "scheme": {"tau": 0.001, "theta": 1.0},
    "model": {"lambda": 1.0, "sigma": {"kind": "linear", "slope": 1.0},
              "u0": {"kind": "constant", "value": 1.0}},
}


def write_config(tmp_path, extra, name="run.json"):
    cfg = dict(BASE_CONFIG)
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# manifest: ")
    return lines


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, {"simulate": {"steps": 40, "record_every": 10}})
        for out in ("a", "b"):
            assert main(["simulate", "--config", cfg,
                         "--out-dir", str(tmp_path / out)]) == 0
        a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert a == b

    def test_csv_layout(self, tmp_path):
        cfg = write_config(tmp_path, {"simulate": {"steps": 10, "record_every": 5}})
        main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)])
        lines = read_csv(tmp_path / "trajectory.csv")
        assert lines[1] == "t," + ",".join(f"x_{j}" for j in range(8))
        assert lines[2].startswith("0.0,1.0,")
        # float cells round-trip through repr
        cell = lines[-1].split(",")[1]
        assert repr(float(cell)) == cell

    def test_record_indices_rows_in_time_order(self, tmp_path):
        cfg = write_config(tmp_path, {"simulate": {"record_indices": [7, 0, 3, 3]}})
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        lines = read_csv(tmp_path / "trajectory.csv")
        assert [line.split(",")[0] for line in lines[2:]] == ["0.0", "0.003", "0.007"]

    @pytest.mark.parametrize("u0", [{"kind": "constant", "value": float("inf")},
                                    {"kind": "samples", "values": [1.0, float("nan")] * 4}])
    def test_non_finite_u0_exit_2(self, tmp_path, capsys, u0):
        model = dict(BASE_CONFIG["model"], u0=u0)
        cfg = write_config(tmp_path, {"model": model, "simulate": {"steps": 5}})
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "u0" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,message", [
        ({"seed": -1, "simulate": {"steps": 5}}, "seed must be a non-negative integer, got -1"),
        ({"simulate": {"steps": 5, "path": -3}}, "path must be a non-negative integer, got -3"),
    ])
    def test_negative_seed_or_path_named_exit_2(self, tmp_path, capsys, extra, message):
        cfg = write_config(tmp_path, extra)
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("section,field", [
        ({"steps": -1}, "simulate.steps"),
        ({"steps": 5, "record_every": 0}, "simulate.record_every"),
    ])
    def test_bad_simulate_fields_exit_2(self, tmp_path, capsys, section, field):
        cfg = write_config(tmp_path, {"simulate": section})
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_table_sigma_ignores_old_constant_keys(self, tmp_path):
        # configs written when a table sigma declared its Lipschitz and
        # lower-ratio constants still load; the keys change nothing
        table = {"kind": "table", "points": [[-1.0, -0.5], [0.0, 0.1], [2.0, 1.3]]}
        old = dict(table, lipschitz=0.6, lower_ratio=0.0)
        rows = []
        for name, sigma in (("new", table), ("old", old)):
            model = dict(BASE_CONFIG["model"], sigma=sigma)
            cfg = write_config(tmp_path, {"model": model,
                                          "simulate": {"steps": 20, "record_every": 5}},
                               name=f"{name}.json")
            assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / name)]) == 0
            rows.append(read_csv(tmp_path / name / "trajectory.csv")[1:])
        assert rows[0] == rows[1] and len(rows[0]) == 6

    def test_manifest_header_fields(self, tmp_path):
        cfg = write_config(tmp_path, {"simulate": {"steps": 5}})
        main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)])
        header = read_csv(tmp_path / "trajectory.csv")[0]
        assert "seed=42" in header and "generator=" in header and "version=" in header


class TestMoments:
    def test_exact_mode(self, tmp_path):
        cfg = write_config(tmp_path, {"moments": {"mode": "exact", "steps": 50,
                                                  "record_every": 10, "probe": "min"}})
        assert main(["moments", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        lines = read_csv(tmp_path / "moments.csv")
        assert lines[1] == "t,moment,stderr"
        assert len(lines) == 2 + 6

    def test_mc_mode_blowup_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"lambda": 1e160, "sigma": {"kind": "linear", "slope": 1.0},
                      "u0": {"kind": "constant", "value": 1.0}},
            "scheme": {"tau": 0.1, "theta": 1.0},
            "moments": {"mode": "mc", "p": 2, "probe": 0,
                        "times": [0.1], "paths": 4}})
        # truncation below the first record leaves nothing: blow-up exit
        assert main(["moments", "--config", cfg, "--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("section,field", [
        ({"mode": "exact", "steps": 5, "probe": 8}, "probe"),
        ({"mode": "exact", "steps": 5, "probe": -1}, "probe"),
        ({"mode": "mc", "probe": 8, "times": [0.001], "paths": 4}, "probe"),
        ({"mode": "mc", "probe": -1, "times": [0.001], "paths": 4}, "probe"),
        ({"mode": "exact", "steps": 5, "record_every": 0}, "record_every"),
        ({"mode": "exact", "steps": -3}, "steps"),
        ({"mode": "mc", "probe": 0, "times": [-0.002, 0.001], "paths": 4}, "times"),
        ({"mode": "mc", "probe": 0, "times": [], "paths": 4}, "times"),
    ])
    def test_bad_moments_fields_exit_2(self, tmp_path, capsys, section, field):
        cfg = write_config(tmp_path, {"moments": section})
        assert main(["moments", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "moments.csv").exists()

    def test_truncation_warning_prints_plain_time(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"lambda": 1e160, "sigma": {"kind": "linear", "slope": 1.0},
                      "u0": {"kind": "constant", "value": 1.0}},
            "scheme": {"tau": 0.1, "theta": 1.0},
            "moments": {"mode": "mc", "p": 2, "probe": 0,
                        "times": [0.0, 0.1], "paths": 4}})
        assert main(["moments", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "horizon reached at t=0.0;" in err and "np." not in err

    def test_moment_overflow_at_first_record_warns(self, tmp_path, capsys):
        # |u0|^4 = 1e400 overflows before any step: no row is kept, and no
        # blow-up step is made up
        cfg = write_config(tmp_path, {**_model(u0={"kind": "constant", "value": 1e100}),
                                      "moments": {"mode": "mc", "p": 4, "times": [0, 0.001],
                                                  "paths": 10}})
        assert main(["moments", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        assert "horizon reached at the first record;" in capsys.readouterr().err
        assert read_csv(tmp_path / "moments.csv")[1:] == ["t,moment,stderr"]

    @pytest.mark.parametrize("times,code", [([k * 0.01 for k in range(41)], 0),
                                            ([0.39, 0.4], 3)])
    def test_mc_mode_near_horizon(self, tmp_path, capsys, times, code):
        # a path first passes the limit at step 366: the p = 4 series keeps
        # only finite rows, and with no record before it the run names that step
        cfg = write_config(tmp_path, {"seed": 5, **_model(**{"lambda": 40.0}), "moments": {
            "mode": "mc", "p": 4, "probe": "min", "times": times, "paths": 1000}})
        assert main(["moments", "--config", cfg, "--out-dir", str(tmp_path)]) == code
        err = capsys.readouterr().err
        if code:
            assert "at step 366: |u| = 1.37e+150" in err
            assert not (tmp_path / "moments.csv").exists()
        else:
            rows = [line.split(",") for line in read_csv(tmp_path / "moments.csv")[2:]]
            assert rows and np.isfinite(np.array(rows, dtype=float)).all()

    @pytest.mark.parametrize("u0,lam,at,rows", [(1e200, 1.0, "the first record", 0),
                                                (1e150, 30.0, "t=0.01;", 11)])
    def test_exact_mode_past_float_range_warns(self, tmp_path, capsys, u0, lam, at, rows):
        # inf at t = 0 and nan after it were written with exit 0; the exact
        # series now stops at its last finite record, as the Monte Carlo one does
        cfg = write_config(tmp_path, {
            "grid": {"n": 5}, **_model(**{"lambda": lam}, u0={"kind": "constant", "value": u0}),
            "moments": {"mode": "exact", "steps": 40}})
        assert main(["moments", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        assert f"horizon reached at {at}" in capsys.readouterr().err
        table = [line.split(",") for line in read_csv(tmp_path / "moments.csv")[2:]]
        assert len(table) == rows and np.isfinite(np.array(table, dtype=float)).all()

    def test_non_contractive_step_exit_2(self, tmp_path, capsys):
        # admitted, but r1 r2 rounds to 1 on the nonconstant modes
        cfg = write_config(tmp_path, {"grid": {"n": 3},
                                      "scheme": {"tau": 1e-18, "theta": 1.0},
                                      "moments": {"mode": "exact", "steps": 5}})
        assert main(["moments", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "|r1*r2| = 1 >= 1 at mode j=1" in capsys.readouterr().err
        assert not (tmp_path / "moments.csv").exists()

    def test_config_error_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {})
        assert main(["moments", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert main(["moments", "--config", str(tmp_path / "missing.json"),
                     "--out-dir", str(tmp_path)]) == 2


    @pytest.mark.parametrize("fit,window", [(True, (0.01, 0.05)), ([0.02, 0.04], (0.02, 0.04)),
                                            (False, None)])
    def test_fit_window(self, tmp_path, fit, window):
        # true fits the default window [0.2 t_last, t_last]
        cfg = write_config(tmp_path, {"moments": {"mode": "exact", "steps": 50, "fit": fit}})
        assert main(["moments", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        if window is None:
            assert not (tmp_path / "moments_fit.csv").exists()
            return
        lines = read_csv(tmp_path / "moments_fit.csv")
        assert lines[1] == "gamma,ci_halfwidth,r_squared,window_lo,window_hi"
        gamma, _, _, lo, hi = map(float, lines[2].split(","))
        assert (lo, hi) == pytest.approx(window, rel=1e-12)
        t, moment = np.loadtxt(tmp_path / "moments.csv", delimiter=",", skiprows=2,
                               usecols=(0, 1), unpack=True)
        inside = (t >= lo) & (t <= hi)
        assert gamma == pytest.approx(np.polyfit(t[inside], np.log(moment[inside]), 1)[0],
                                      rel=1e-9)


class TestSweep:
    def test_table_fit_and_plot(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": {"zeta": 1.0, "lambdas": [1.0, 1.5],
                                                "theta": 1.0}})
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        table = read_csv(tmp_path / "sweep.csv")
        assert table[1] == "lambda,n,tau,gamma2,ci_halfwidth,gate_ok"
        assert len(table) == 4
        fit = read_csv(tmp_path / "sweep_fit.csv")
        assert fit[1].startswith("loglog_slope")
        svg = (tmp_path / "sweep.svg").read_text()
        assert svg.startswith("<svg") and "manifest" in svg

    def test_empty_lambdas_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sweep": {"lambdas": []}})
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "usage" in capsys.readouterr().err

    def test_single_lambda_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sweep": {"lambdas": [1.0]}})
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "usage" in err and "two" in err
        assert not (tmp_path / "sweep.csv").exists()


    @pytest.mark.parametrize("key,value", [("zeta", 0.0), ("zeta", -1.0),
                                           ("zeta", float("nan")), ("zeta", float("inf")),
                                           ("sigma_slope", 0.0),
                                           ("sigma_slope", float("inf"))])
    def test_bad_zeta_or_slope_exit_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {"sweep": {"lambdas": [1.0, 1.5], key: value}})
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"sweep.{key}" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


    def test_lambda_16_under_3_gb_address_space(self, tmp_path):
        # the (2004, 512, 512) recorded matrices asked for 3.91 GiB: exit 1
        # with an _ArrayMemoryError; the diagonals peak near 100 MiB
        cfg = write_config(tmp_path, {"sweep": {"zeta": 2.0, "lambdas": [1.0, 16.0]}})
        code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 * 10 ** 9,) * 2); "
                "from shelab.cli import main; sys.exit(main(sys.argv[1:]))")
        # one BLAS thread: each thread reserves its own buffers and stack
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shelab.__file__)),
               "OPENBLAS_NUM_THREADS": "1"}
        run = subprocess.run([sys.executable, "-c", code, "sweep", "--config", cfg, "--out-dir",
                              str(tmp_path)], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        gammas = [float(line.split(",")[3]) for line in read_csv(tmp_path / "sweep.csv")[2:]]
        assert len(gammas) == 2 and all(map(math.isfinite, gammas))


class TestRenewal:
    def test_rows_match_module(self, tmp_path):
        from shelab.renewal import continuous_mu
        cfg = write_config(tmp_path, {"renewal": {"lambda": 1.0, "j0": 1.0, "n": 4,
                                                  "tau": 0.001, "zeta": 1.0,
                                                  "which": "both"}})
        assert main(["renewal", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        lines = read_csv(tmp_path / "renewal.csv")
        assert lines[1] == "lambda,n,tau,mu,mass_error,implied_rate"
        mu = float(lines[2].split(",")[3])
        assert mu == pytest.approx(continuous_mu(1.0, 1.0, 4).mu, rel=1e-12)

    def test_unknown_which_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"renewal": {"lambda": 1.0, "n": 4, "tau": 0.001,
                                                  "zeta": 1.0, "which": "discret"}})
        assert main(["renewal", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert all(word in err for word in ("renewal.which", "continuous", "discrete",
                                             "both", "discret'"))
        assert not (tmp_path / "renewal.csv").exists()


@pytest.mark.parametrize("command,extra,key", [
    ("simulate", {"grid": {}, "simulate": {"steps": 1}}, "grid.n"),
    ("simulate", {"scheme": {"theta": 1.0}, "simulate": {"steps": 1}}, "scheme.tau"),
    ("simulate", {"simulate": {"record_every": 2}}, "simulate.steps"),
    ("simulate", {"model": {"u0": {"kind": "samples"}}, "simulate": {"steps": 1}},
     "model.u0.values"),
    ("simulate", {"model": {"sigma": {"kind": "table"}}, "simulate": {"steps": 1}},
     "model.sigma.points"),
    ("moments", {"moments": {"mode": "exact"}}, "moments.steps"),
    ("moments", {"moments": {"mode": "mc", "paths": 4}}, "moments.times"),
    ("moments", {"moments": {"mode": "mc", "times": [0.001]}}, "moments.paths"),
    ("renewal", {"renewal": {"n": 4}}, "renewal.lambda"),
    ("renewal", {"renewal": {"lambda": 1.0}}, "renewal.n"),
    ("renewal", {"renewal": {"lambda": 1.0, "n": 4, "zeta": 1.0, "which": "discrete"}},
     "renewal.tau"),
    ("renewal", {"renewal": {"lambda": 1.0, "n": 4, "tau": 0.001, "which": "discrete"}},
     "renewal.zeta"),
    ("convergence", {"convergence": {"kind": "green-full"}}, "convergence.taus"),
    ("convergence", {"convergence": {"kind": "strong", "T": 0.0625, "paths": 2}},
     "convergence.ladder"),
    ("convergence", {"convergence": {"kind": "strong", "paths": 2,
                                     "ladder": [[8, 0.015625], [8, 0.0078125]]}},
     "convergence.T"),
    ("convergence", {"convergence": {"kind": "strong", "T": 0.0625,
                                     "ladder": [[8, 0.015625], [8, 0.0078125]]}},
     "convergence.paths"),
])
def test_missing_required_key_exit_2(tmp_path, capsys, command, extra, key):
    cfg = write_config(tmp_path, extra)
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def _model(**parts):
    return {"model": dict(BASE_CONFIG["model"], **parts)}


@pytest.mark.parametrize("command,extra,key", [
    ("simulate", {"grid": {"n": 8.9}, "simulate": {"steps": 5}}, "grid.n"),
    ("simulate", {"simulate": {"steps": 10.7}}, "simulate.steps"),
    ("simulate", {"seed": 1.7, "simulate": {"steps": 5}}, "seed"),
    ("simulate", {"grid": {"n": True}, "simulate": {"steps": 5}}, "grid.n"),
    ("simulate", {"simulate": {"steps": [5]}}, "simulate.steps"),
    ("simulate", {"grid": {"n": "x"}, "simulate": {"steps": 5}}, "grid.n"),
    ("sweep", {"sweep": {"lambdas": "12"}}, "sweep.lambdas"),
    ("simulate", {"simulate": {"record_indices": "53"}}, "simulate.record_indices"),
    ("simulate", {"grid": {"n": 4}, "simulate": {"steps": 5},
                  **_model(u0={"kind": "samples", "values": "1234"})}, "model.u0.values"),
    ("simulate", {"simulate": {"steps": 5},
                  **_model(sigma={"kind": "quadratic", "points": [[0, 0], [1, 1]]})},
     "model.sigma.kind"),
    ("simulate", {"simulate": {"steps": 5},
                  **_model(u0={"kind": "gaussian", "values": [1.0] * 8})}, "model.u0.kind"),
    ("moments", {"moments": {"mode": "exact", "steps": 50, "fit": ["a", "b"]}}, "moments.fit"),
    ("simulate", {"simulate": {"steps": 5}, **_model(sigma={"kind": "table", "points": [1, 2]})},
     "model.sigma.points"),
    ("renewal", {"renewal": {"lambda": 1.0, "n": 4, "zeta": "1", "which": "continuous"}},
     "renewal.zeta"),
    ("renewal", {"renewal": {"lambda": 1.0, "n": 4.7, "which": "continuous"}}, "renewal.n"),
    ("moments", {"moments": {"mode": "mc", "times": [0.001], "paths": 10.9}}, "moments.paths"),
    ("simulate", {"scheme": {"tau": 0.001, "theta": "1"}, "simulate": {"steps": 5}},
     "scheme.theta"),
    ("simulate", {"scheme": {"tau": float("nan")}, "simulate": {"steps": 5}}, "scheme.tau"),
    ("simulate", {"simulate": {"steps": 5}, **_model(**{"lambda": float("inf")})},
     "model.lambda"),
    ("simulate", {"scheme": {"tau": 0.001, "stepper": "euler"}, "simulate": {"steps": 5}},
     "scheme.stepper"),
    ("moments", {"moments": {"mode": "exakt", "steps": 5}}, "moments.mode"),
    ("convergence", {"convergence": {"kind": "weak"}}, "convergence.kind"),
    ("convergence", {"convergence": {"kind": "strong", "T": 0.0625, "paths": 2,
                                     "ladder": [[8.5, 0.015625], [8, 0.0078125]]}},
     "convergence.ladder"),
])
def test_mistyped_value_exit_2_naming_key(tmp_path, capsys, command, extra, key):
    cfg = write_config(tmp_path, extra)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command,extra,key", [
    ("renewal", {"renewal": {"lambda": 1.0, "n": 0, "which": "continuous"}}, "renewal.n"),
    ("moments", {"moments": {"mode": "exact", "steps": 30, "fit": [0.02, 0.021]}},
     "moments.fit"),
    ("simulate", {"grid": {"n": 2}, "simulate": {"steps": 5}}, "grid.n"),
    ("simulate", {"scheme": {"tau": 0.001, "theta": 1.5}, "simulate": {"steps": 5}},
     "scheme.theta"),
    ("moments", {"moments": {"mode": "mc", "times": [0.001], "paths": 1}}, "moments.paths"),
    ("moments", {"moments": {"mode": "mc", "times": [0.001], "paths": 4, "p": 0.5}},
     "moments.p"),
    ("moments", {"moments": {"mode": "mc", "times": [0.0015], "paths": 4}}, "moments.times"),
    ("simulate", {"grid": {"n": 0}, "simulate": {"steps": 5}}, "grid.n"),
    ("simulate", {"scheme": {"tau": 0.0}, "simulate": {"steps": 5}}, "scheme.tau"),
    ("simulate", {"simulate": {"steps": 5}, **_model(**{"lambda": -1.0})}, "model.lambda"),
    ("simulate", {"simulate": {"steps": 5}, **_model(u0={"kind": "constant", "value": -1.0})},
     "model.u0.value"),
    ("simulate", {"simulate": {"steps": 5}, **_model(u0={"kind": "samples", "values": [1.0] * 3})},
     "model.u0.values"),
    ("simulate", {"simulate": {"steps": 5},
                  **_model(u0={"kind": "samples", "values": [1.0] * 7 + [-1.0]})},
     "model.u0.values"),
    ("simulate", {"simulate": {"steps": 5}, **_model(sigma={"kind": "table", "points": [[0, 1]]})},
     "model.sigma.points"),
    ("simulate", {"simulate": {"steps": 5},
                  **_model(sigma={"kind": "table", "points": [[1, 1], [0, 0]]})},
     "model.sigma.points"),
    # the sweep ended in a ZeroDivisionError and an OverflowError traceback
    ("sweep", {"sweep": {"lambdas": [0.0, 1.0]}}, "sweep.lambdas"),
    ("sweep", {"sweep": {"lambdas": [1.0, 1e200]}}, "sweep.lambdas"),
    ("sweep", {"sweep": {"lambdas": [-1.0, 1.0]}}, "sweep.lambdas"),
    *[("renewal", {"renewal": {"lambda": 1.0, "j0": 1.0, "n": 4, "tau": 1e-3, "zeta": 1.0,
                               "which": "discrete", key: value}}, f"renewal.{key}")
      for key, value in (("lambda", 0.0), ("j0", 0.0), ("n", 0), ("tau", -1e-3),
                         ("zeta", -1.0))],
    # continuous zeta <= 0 wrote a row; the others ended in an OverflowError or
    # a ZeroDivisionError traceback with exit 1
    *[("renewal", {"renewal": {"lambda": 1.0, "j0": 1.0, "n": 4, "tau": 1e-3, "zeta": 1.0,
                               "which": which, key: value}}, f"renewal.{key}")
      for which, key, value in (("continuous", "zeta", -1.0), ("continuous", "zeta", 0.0),
                                ("continuous", "lambda", 1e200), ("discrete", "lambda", 1e200),
                                ("both", "lambda", 1e200), ("continuous", "j0", 1e200),
                                ("discrete", "zeta", 1e-300))],
    ("sweep", {"sweep": {"zeta": 1e-300, "lambdas": [1.0, 1.5]}}, "sweep.zeta"),
    ("sweep", {"sweep": {"lambdas": [1.0, 1e100]}}, "sweep.lambdas"),
    ("sweep", {"sweep": {"lambdas": [1.0, 1.5], "sigma_slope": 1e100}}, "sweep.sigma_slope"),
    # an OverflowError traceback at j0 ** 4 and at n * n in the sharp gate
    ("renewal", {"renewal": {"which": "discrete", "lambda": 1e30, "j0": 1e150, "n": 8,
                             "zeta": 7.8e-8, "tau": 3.52}}, "renewal.j0"),
    ("renewal", {"renewal": {"which": "discrete", "lambda": 1.0, "n": 1e200, "zeta": 1.0,
                             "tau": 1e-3}}, "renewal.n"),
    # a ZeroDivisionError, a TypeError from a 2.6e22-step record array, a
    # positivity scan of a 4.7e9-step tail, and gamma_2 = nan written with exit 0
    ("sweep", {"sweep": {"zeta": 1.435, "lambdas": [3, 2, 2, 2], "theta": 0.75,
                         "sigma_slope": 1e-300}}, "sweep.sigma_slope"),
    ("sweep", {"sweep": {"zeta": 6.96e-6, "lambdas": [0.5, 5.6e-4], "theta": 1.0 - 1e-16,
                         "sigma_slope": 5.79e-7}}, "sweep.lambdas"),
    ("sweep", {"sweep": {"zeta": 2.0, "lambdas": [1.0, 0.5, 2.8e-8], "theta": 0.25,
                         "sigma_slope": 1000.0}}, "sweep.lambdas"),
    ("sweep", {"sweep": {"zeta": 0.5, "lambdas": [3, 3, 2], "theta": 1e-300,
                         "sigma_slope": 51.65}}, "sweep.lambdas"),
    # numpy asked for 149 GiB (n = 2e10) and for 74.5 GiB (an n x n table)
    ("sweep", {"sweep": {"zeta": 2.0, "lambdas": [1.0, 1e5]}}, "sweep.lambdas"),
    ("green-check", {"green_check": {"ns": [100000]}}, "green_check.ns"),
    # fitting a series cut before its first record raised IndexError
    *[("moments", {**_model(u0={"kind": "constant", "value": u0}),
                   "moments": {**mode, "fit": True}}, "moments.fit")
      for u0, mode in ((1e200, {"mode": "exact", "steps": 20}),
                       (1e100, {"mode": "mc", "p": 4, "times": [0, 0.001], "paths": 10}))],
    # numpy asked for 18.6 GiB, the n x n eigh input of the exact moments
    ("moments", {"grid": {"n": 50000}, "moments": {"mode": "exact", "steps": 5}}, "grid.n"),
    # found by tests/test_cli_schema.py: a 1e303-step Monte Carlo walk, an
    # invalid int cast of n x, and a log-log fit over one distinct lambda or
    # of gamma_2 = 0 (nan or inf written, then exit 2 with the CSVs on disk)
    ("moments", {"moments": {"mode": "mc", "times": [1e300], "paths": 4}}, "moments.times"),
    ("convergence", {"convergence": {"kind": "green-semi", "ns": [8], "x": 1e30}},
     "convergence.x"),
    ("convergence", {"convergence": {"kind": "green-full", "n": 8, "taus": [1e-3], "x": 1e300}},
     "convergence.x"),
    ("sweep", {"sweep": {"lambdas": [2.0, 2.0]}}, "sweep.lambdas"),
    ("sweep", {"sweep": {"zeta": 1.0, "lambdas": [1.0, 2.8e-8]}}, "sweep.lambdas"),
])
def test_library_range_refusal_exit_2_naming_key(tmp_path, capsys, command, extra, key):
    # the range stays the library's; the CLI names the key whose value it refused
    cfg = write_config(tmp_path, extra)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


class TestInternalNumericalFailure:
    @pytest.mark.parametrize("error", [
        MemoryError("Unable to allocate 7.45 GiB"), ZeroDivisionError("float division by zero"),
        OverflowError("int too large to convert to float"), FloatingPointError("overflow"),
        RuntimeError("failed to converge after 100 iterations")])
    def test_escaping_error_exit_4_in_one_line(self, tmp_path, capsys, monkeypatch, error):
        # these ended in a traceback with exit 1, the code of a failed green-check
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "simulate", fail)
        cfg = write_config(tmp_path, {"simulate": {"steps": 5}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == (f"internal numerical failure: {type(error).__name__}: "
                                f"{error}\n")
        assert captured.out == "" and not out.exists()

    def test_blowup_keeps_exit_3(self, tmp_path, capsys, monkeypatch):
        # BlowupError is a RuntimeError; it is caught first
        def blow_up(*args, **kwargs):
            raise BlowupError(7, 2e150)

        monkeypatch.setattr(cli, "simulate", blow_up)
        cfg = write_config(tmp_path, {"simulate": {"steps": 5}})
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("blow-up: moment blow-up horizon reached at "
                                                  "step 7")

    @pytest.mark.parametrize("command,extra", [
        ("simulate", {"grid": {"n": 1e9}, "simulate": {"steps": 5}}),
        ("convergence", {"convergence": {"kind": "green-semi", "ns": [1e9]}})])
    def test_huge_grid_under_3_gb_address_space_exit_4(self, tmp_path, command, extra):
        # numpy asks for 7.45 GiB (one n-vector): an _ArrayMemoryError traceback
        # with exit 1; run in a child process whose address space is capped
        cfg = write_config(tmp_path, extra)
        code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 * 10 ** 9,) * 2); "
                "from shelab.cli import main; sys.exit(main(sys.argv[1:]))")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shelab.__file__)),
               "OPENBLAS_NUM_THREADS": "1"}
        out = tmp_path / "out"
        run = subprocess.run([sys.executable, "-c", code, command, "--config", cfg, "--out-dir",
                              str(out)], env=env, capture_output=True, text=True)
        assert run.returncode == 4, run.stderr
        assert run.stderr.startswith("internal numerical failure: MemoryError: Unable to allocate")
        assert "Traceback" not in run.stderr and not out.exists()


@pytest.mark.parametrize("command,extra,files", [
    ("green-check", {"green_check": {"ns": [3, 4], "thetas": [1.0]}}, {"green_check.csv"}),
    ("simulate", {"simulate": {"steps": 5}}, {"trajectory.csv"}),
    ("moments", {"moments": {"steps": 50, "fit": True}}, {"moments.csv", "moments_fit.csv"}),
    ("moments", {"moments": {"mode": "mc", "times": [0.0, 0.002], "paths": 4}}, {"moments.csv"}),
    ("sweep", {"sweep": {"zeta": 1.0, "lambdas": [1.0, 1.5]}},
     {"sweep.csv", "sweep_fit.csv", "sweep.svg"}),
    ("renewal", {"renewal": {"lambda": 1.0, "n": 4, "tau": 1e-3, "zeta": 1.0}}, {"renewal.csv"}),
    ("convergence", {"convergence": {"kind": "green-semi", "ns": [8, 16]}},
     {"green_error.csv", "green_error.svg"}),
    ("convergence", {"convergence": {"kind": "strong", "T": 0.0625, "paths": 4,
                                     "ladder": [[8, 2.0 ** -6], [8, 2.0 ** -7], [8, 2.0 ** -12]]}},
     {"strong_error.csv", "strong_error.svg"}),
])
def test_each_command_writes_its_files_under_one_manifest(tmp_path, monkeypatch, command, extra,
                                                          files):
    cfg = write_config(tmp_path, extra)
    monkeypatch.chdir(tmp_path)
    if command == "green-check":  # without --out-dir the table goes to stdout only
        assert main([command, "--config", cfg]) == 0
        assert os.listdir(tmp_path) == ["run.json"]
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 0
    assert set(os.listdir(out)) == files
    manifest = manifest_line(json.loads((tmp_path / "run.json").read_text()), 42)
    for name in files:
        first, second = (out / name).read_text().splitlines()[:2]
        if name.endswith(".svg"):
            assert second == f"<!-- {manifest[2:]} -->"
        else:
            assert first == manifest


def test_integral_float_reads_as_int_and_config_is_not_written(tmp_path, monkeypatch):
    loaded = []
    load = cli._load_config
    monkeypatch.setattr(cli, "_load_config", lambda path: loaded.append(load(path)) or loaded[-1])
    lines = {}
    for name, n in (("int", 8), ("float", 8.0)):
        cfg = write_config(tmp_path, {"grid": {"n": n},
                                      "simulate": {"steps": 10, "record_every": 5}},
                           name=f"{name}.json")
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / name)]) == 0
        assert json.dumps(loaded[-1]) == (tmp_path / f"{name}.json").read_text()
        lines[name] = read_csv(tmp_path / name / "trajectory.csv")
    assert lines["int"][1:] == lines["float"][1:]
    # the manifest hashes the raw config, so only the hash differs
    int_header, float_header = lines["int"][0].split(), lines["float"][0].split()
    assert int_header[2] != float_header[2] and int_header[3:] == float_header[3:]


class TestGreenCheck:
    def test_json_output_passes(self, capsys):
        cfg_free = main(["green-check", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert cfg_free == 0
        assert out["passed"] is True
        assert any(c["name"] == "full-grid-lower-refined" for c in out["checks"])

    def test_fault_injection_exit_1(self, capsys, monkeypatch):
        perturb_eigenvalues(monkeypatch, 1e-3)
        rc = main(["green-check"])
        assert rc == 1
        assert "eigenpair-consistency" in capsys.readouterr().out

    @pytest.mark.parametrize("section,key", [
        ({"ns": [8.5]}, "green_check.ns"), ({"ns": []}, "green_check.ns"),
        ({"ns": 8}, "green_check.ns"), ({"thetas": [1.5]}, "green_check.thetas"),
        ({"thetas": []}, "green_check.thetas"),
    ])
    def test_unusable_lattice_exit_2(self, tmp_path, capsys, section, key):
        cfg = write_config(tmp_path, {"green_check": section})
        assert main(["green-check", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert key in captured.err
        assert "checks passed" not in captured.out
        assert not any(tmp_path.glob("*.csv"))


class TestConvergenceCommand:
    def test_green_semi_outputs(self, tmp_path):
        cfg = write_config(tmp_path, {"convergence": {"kind": "green-semi",
                                                      "ns": [8, 16]}})
        assert main(["convergence", "--config", cfg, "--out-dir", str(tmp_path),
                     "--threads", "2"]) == 0
        lines = read_csv(tmp_path / "green_error.csv")
        assert lines[1] == "n,error,stderr"
        e8, e16 = float(lines[2].split(",")[1]), float(lines[3].split(",")[1])
        assert 1.5 <= e8 / e16 <= 2.6
        assert (tmp_path / "green_error.svg").exists()

    @pytest.mark.parametrize("section,key", [
        ({"kind": "green-semi", "ns": []}, "convergence.ns"),
        ({"kind": "green-full", "taus": []}, "convergence.taus"),
    ])
    def test_empty_green_lists_exit_2(self, tmp_path, capsys, section, key):
        cfg = write_config(tmp_path, {"convergence": section})
        assert main(["convergence", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err
        assert not any(tmp_path.glob("green_error.*"))

    def test_strong_kind_writes_curve(self, tmp_path):
        cfg = write_config(tmp_path, {"convergence": {
            "kind": "strong", "theta": 1.0, "T": 0.0625, "paths": 8,
            "ladder": [[8, 0.0009765625], [8, 0.00048828125],
                       [8, 0.000244140625], [8, 6.103515625e-05]]}})
        assert main(["convergence", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        lines = read_csv(tmp_path / "strong_error.csv")
        assert lines[1] == "n,tau,error,stderr"
        assert len(lines) == 2 + 3

    def test_green_full_non_contractive_step_exit_2(self, tmp_path, capsys):
        # the row 1e-18,inf,0.0 was written with exit 0
        cfg = write_config(tmp_path, {"convergence": {"kind": "green-full", "n": 3,
                                                      "theta": 1.0, "taus": [1e-18]}})
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out-dir", str(out)]) == 2
        assert "|r1*r2| = 1 >= 1 at mode j=1" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_strong_unstable_rung_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"convergence": {
            "kind": "strong", "theta": 0.0, "T": 0.25, "paths": 2,
            "ladder": [[16, 0.0625], [16, 0.03125], [16, 0.015625]]}})
        assert main(["convergence", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "stability regime violated" in capsys.readouterr().err

    @pytest.mark.parametrize("study, message", [
        ({"paths": 0, "T": 0.0625}, "paths must be >= 1"),
        ({"paths": 2, "T": 0.0}, "T must be > 0"),
        ({"paths": 2, "T": -0.0625}, "T must be > 0"),
    ])
    def test_strong_empty_study_exit_2(self, tmp_path, capsys, study, message):
        # paths = 0 exited 0 with a CSV of nan; T <= 0 wrote a CSV of zeros
        cfg = write_config(tmp_path, {"convergence": {
            "kind": "strong", "theta": 1.0, **study,
            "ladder": [[8, 0.015625], [8, 0.0078125], [8, 0.001953125]]}})
        assert main(["convergence", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.glob("strong_error.*"))

    def test_strong_blowup_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {"lambda": 1e160}, "convergence": {
            "kind": "strong", "theta": 1.0, "T": 0.0625, "paths": 2,
            "ladder": [[8, 0.015625], [8, 0.0078125], [8, 0.001953125]]}})
        assert main(["convergence", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "at step 1:" in err
        assert "rung (n, tau) = (8, 0.015625)" in err


@pytest.mark.parametrize("command,extra", [
    ("simulate", {"simulate": {"steps": 5}}),
    ("moments", {"moments": {"mode": "exact", "steps": 5}}),
])
@pytest.mark.parametrize("model,key", [
    (3, "model"), ({"u0": 5}, "model.u0"), ({"sigma": "x"}, "model.sigma"),
])
def test_section_not_an_object_exit_2(tmp_path, capsys, command, extra, model, key):
    cfg = write_config(tmp_path, dict(extra, model=model))
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert f"config key '{key}' must be a JSON object" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_config_not_an_object_exit_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


class TestThreads:
    SWEEP = {"sweep": {"zeta": 2.0, "lambdas": [1.0, 1.5]}}

    @pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
    def test_bad_environment_count_named_exit_2(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("SHELAB_THREADS", value)
        cfg = write_config(tmp_path, self.SWEEP)
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"SHELAB_THREADS must be an integer >= 1, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("value", ["-4", "x"])
    def test_bad_option_named_exit_2(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, self.SWEEP)
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--config", cfg, "--out-dir", str(tmp_path), "--threads", value])
        assert exit_info.value.code == 2
        assert (f"argument --threads: must be an integer >= 0, got {value!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "sweep.csv").exists()

    def test_zero_option_means_the_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SHELAB_THREADS", "2")
        cfg = write_config(tmp_path, self.SWEEP)
        for out, threads in (("zero", "0"), ("one", "1")):
            assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / out),
                         "--threads", threads]) == 0
        assert ((tmp_path / "zero" / "sweep.csv").read_bytes()
                == (tmp_path / "one" / "sweep.csv").read_bytes())


class TestOneParserPerProcess:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()
        first = build_parser().parse_args(["simulate", "--config", "a.json"])
        second = build_parser().parse_args(["simulate", "--config", "a.json"])
        assert first is not second and vars(first) == vars(second)

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {"green_check": {"ns": [3, 4], "thetas": [1.0]},
                                      "simulate": {"steps": 10, "record_every": 5}})
        # green-check defaults to no output directory; simulate, run next
        # without --out-dir, must still write to "."
        calls = [["green-check", "--config", cfg], ["simulate", "--config", cfg],
                 ["green-check", "--config", cfg, "--out-dir", "."],
                 ["renewal", "--config", cfg]]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shelab.__file__))}
        fresh, inproc = tmp_path / "fresh", tmp_path / "inproc"
        fresh.mkdir()
        inproc.mkdir()
        fresh_codes = [subprocess.run([sys.executable, "-m", "shelab.cli", *argv], cwd=fresh,
                                      env=env, capture_output=True).returncode
                       for argv in calls]
        monkeypatch.chdir(inproc)
        assert [main(argv) for argv in calls] == fresh_codes == [0, 0, 0, 2]
        files = sorted(p.name for p in fresh.iterdir())
        assert files == ["green_check.csv", "trajectory.csv"]
        assert sorted(p.name for p in inproc.iterdir()) == files
        for name in files:
            assert (inproc / name).read_bytes() == (fresh / name).read_bytes()
