"""Tests of the benchmark itself:  python3 -m pytest perfbench

Tracing must not change what it measures: a traced op returns the
bit-identical result of an untraced one, and the exact counts repeat
between two traced runs at one seed.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from shelab import noise, solver  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_traced_op_is_bit_identical_and_counts_repeat(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, str(tmp_path))
    plain = workload.fingerprint(workload.collect(workload.op()))
    profiles = []
    for _ in range(2):
        raw, profile = spans.Tracer().run_op(workload.op)
        assert workload.fingerprint(workload.collect(raw)) == plain
        profiles.append(profile)
    assert profiles[0].counts == profiles[1].counts
    assert profiles[0].extra_counts == profiles[1].extra_counts
    assert workload.cell_steps(profiles[0]) > 0


def test_uninstall_restores_every_name():
    before = (noise.normals_from_raw, solver.StepOperator.__dict__["apply"],
              sys.modules["shelab.convergence"].normals_from_raw)
    tracer = spans.Tracer()
    tracer.install()
    assert sys.modules["shelab.convergence"].normals_from_raw is not before[2]
    tracer.uninstall()
    after = (noise.normals_from_raw, solver.StepOperator.__dict__["apply"],
             sys.modules["shelab.convergence"].normals_from_raw)
    assert after == before


def test_self_times_partition_the_op(tmp_path):
    workload = workloads.WORKLOADS["pam-hierarchy"](3, str(tmp_path))
    _, profile = spans.Tracer().run_op(workload.op)
    assert sum(profile.self_s.values()) == pytest.approx(profile.op_s, rel=1e-9)
    assert min(profile.self_s.values()) >= 0.0


def test_tail_has_ten_samples_above():
    t = run.tail([float(v) for v in range(20, 0, -1)])
    assert (t["value"], t["percentile"], t["n"]) == (10.0, 50.0, 20)


def _traced_run(name: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_between_traced_runs(name):
    first, second = _traced_run(name, 7), _traced_run(name, 7)
    assert first["correct"] and second["correct"]
    for key in spans.COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "calibration",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
