import json

import numpy as np
import pytest

from shelab.cli import main

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

    def test_config_error_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {})
        assert main(["moments", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert main(["moments", "--config", str(tmp_path / "missing.json"),
                     "--out-dir", str(tmp_path)]) == 2


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


class TestGreenCheck:
    def test_json_output_passes(self, capsys):
        cfg_free = main(["green-check", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert cfg_free == 0
        assert out["passed"] is True
        assert any(c["name"] == "full-grid-lower-refined" for c in out["checks"])

    def test_fault_injection_exit_1(self, capsys):
        rc = main(["green-check", "--inject-fault"])
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

    def test_strong_unstable_rung_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"convergence": {
            "kind": "strong", "theta": 0.0, "T": 0.25, "paths": 2,
            "ladder": [[16, 0.0625], [16, 0.03125], [16, 0.015625]]}})
        assert main(["convergence", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "stability regime violated" in capsys.readouterr().err

    def test_strong_blowup_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {"lambda": 1e160}, "convergence": {
            "kind": "strong", "theta": 1.0, "T": 0.0625, "paths": 2,
            "ladder": [[8, 0.015625], [8, 0.0078125], [8, 0.001953125]]}})
        assert main(["convergence", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "at step 1:" in err
        assert "rung (n, tau) = (8, 0.015625)" in err
