"""shelab benchmark: run one workload at one seed, check it, print metrics.

    python3 perfbench/run.py --workload strong-ladder --seed 1 --seconds 30 --trace 0

Closed loop, one process, one op in flight, single-threaded: BLAS/OpenMP
pools and shelab's --threads are pinned to 1.  A run sets up (median of
three fresh imports), runs one traced warm-up op that is fully checked and
gives the exact per-op counts, then repeats the op for --seconds, checking
after each timer stops that the result is bit-identical to the warm-up's.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced ops and prints the per-layer metrics, with the tracing overhead as
the difference of the two medians.  Human-readable lines come first; the
last stdout line is one JSON object.  A stamped result file (and, when
traced, the spans) go to .perfbench/ at the checkout root.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "NUMEXPR_NUM_THREADS": "1", "SHELAB_THREADS": "1"}
SETUP_SAMPLES = 3
TAIL_BEYOND = 10        # op_s_tail: highest percentile with this many samples above it
MIN_TIMED_OPS = TAIL_BEYOND + 1
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "cell_steps_per_s": "1/s",
                    "peak_rss_mib": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["strong-ladder", "pam-hierarchy", "calibration"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="measure one set-up in this fresh interpreter and exit")
    return parser.parse_args(argv)


def setup(args, workdir):
    """Import shelab and build the workload's inputs; return (seconds, workload)."""
    t0 = time.perf_counter()
    import spans
    for module in spans.MODULES:
        importlib.import_module(module)
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    return time.perf_counter() - t0, workload


def setup_in_fresh_interpreter(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def git_sha() -> str:
    # only the checkout's own .git: git would otherwise search parent directories
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(args) -> dict:
    import mpmath
    import numpy
    import scipy
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "thread_pins": THREAD_PINS,
            "workload": args.workload, "seed": args.seed, "run_seconds": args.seconds,
            "trace": args.trace, "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def quartiles(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"p25": q1, "p50": statistics.median(values), "p75": q3, "n": len(values)}


def tail(values) -> dict:
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / len(ordered),
            "n": len(ordered), "beyond": TAIL_BEYOND}


class Loop:
    """Closed-loop op runner: every op is checked after its timer stops."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops = 0
        self.reference = None
        self.counts = None
        self.summary = {}

    def _fail(self, message: str):
        self.failed_ops += 1
        if len(self.failures) < 20:
            self.failures.append(message)
        print(f"op failed: {message}", file=sys.stderr)

    def warm_up(self):
        """Traced, untimed first op: fills caches, gives the exact per-op
        counts and gets the full correctness check."""
        self.attempted += 1
        try:
            raw, profile = self.tracer.run_op(self.workload.op)
            result = self.workload.collect(raw)
            fails = self.workload.check(result)
        except Exception:
            self._fail(traceback.format_exc())
            return None
        if fails:
            self._fail("; ".join(fails))
            return None
        self.reference = self.workload.fingerprint(result)
        self.counts = profile.counts
        self.summary = self.workload.summary(result)
        return profile

    def one(self, traced: bool):
        """One timed op; returns (seconds, profile or None), or None on failure."""
        self.attempted += 1
        try:
            if traced:
                raw, profile = self.tracer.run_op(self.workload.op)
                seconds = profile.op_s
            else:
                t0 = time.perf_counter()
                raw = self.workload.op()
                seconds = time.perf_counter() - t0
                profile = None
            same = self.workload.fingerprint(self.workload.collect(raw)) == self.reference
        except Exception:
            self._fail(traceback.format_exc())
            return None
        if not same:
            self._fail("result differs from the checked warm-up result")
            return None
        if profile is not None and profile.counts != self.counts:
            self._fail(f"per-op counts {profile.counts} differ from warm-up {self.counts}")
            return None
        return seconds, profile


def run(args) -> int:
    workdir = os.path.join(OUT, "work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    setup_s, workload = setup(args, workdir)
    setups = [setup_s] + [setup_in_fresh_interpreter(args) for _ in range(SETUP_SAMPLES - 1)]
    import spans
    tracer = spans.Tracer()
    loop = Loop(workload, tracer)
    warm = loop.warm_up()
    untraced, profiles = [], []
    need_untraced, need_traced = (3, 3) if args.trace else (MIN_TIMED_OPS, 0)
    if warm is not None:
        deadline = time.perf_counter() + args.seconds
        k = 0
        while (time.perf_counter() < deadline or len(untraced) < need_untraced
               or len(profiles) < need_traced):
            traced = bool(args.trace) and k % 2 == 1
            k += 1
            done = loop.one(traced)
            if done is None:
                if loop.failed_ops >= 3:
                    break
                continue
            seconds, profile = done
            if traced:
                profiles.append(profile)
            else:
                untraced.append(seconds)
    correct = warm is not None and loop.failed_ops == 0
    record = {"stamp": stamp(args), "correct": correct, "attempted": loop.attempted,
              "failed": loop.failed_ops, "failed_ratio": loop.failed_ops / loop.attempted,
              "failures": loop.failures, "result_summary": loop.summary,
              "setup_samples_s": setups, "op_samples_s": untraced}
    metrics = {}
    if correct and not args.trace:
        op = quartiles(untraced)
        op_tail = tail(untraced)
        values = {"setup_s": statistics.median(setups), "op_s": op["p50"],
                  "cell_steps_per_s": workload.cell_steps(warm) / op["p50"],
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        record.update(op_s=op, op_s_tail=op_tail, cell_steps_per_op=workload.cell_steps(warm))
    elif correct:
        layers = spans.layer_metrics(profiles)
        traced_s = statistics.median(p.op_s for p in profiles)
        untraced_s = statistics.median(untraced)
        layers.update({"bench.op_traced_s": traced_s, "bench.op_untraced_s": untraced_s,
                       "bench.trace_overhead_s": traced_s - untraced_s,
                       "bench.unattributed_s": statistics.median(p.self_s["op"]
                                                                 for p in profiles)})
        units = {**spans.PER_LAYER_UNITS, "bench.op_traced_s": "s", "bench.op_untraced_s": "s",
                 "bench.trace_overhead_s": "s", "bench.unattributed_s": "s"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        record.update(traced_ops=len(profiles), untraced_ops=len(untraced),
                      functions=spans.function_breakdown(profiles),
                      extra_counts=warm.extra_counts)
    record["metrics"] = metrics
    write_outputs(args, record, tracer if args.trace else None)
    report(args, record)
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed_ops, "metrics": metrics}))
    return 0 if correct else 1


def write_outputs(args, record, tracer):
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", base + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        with open(os.path.join(OUT, "spans", base + ".json"), "w", encoding="utf-8") as fh:
            json.dump({"stamp": record["stamp"], **tracer.dump()}, fh, separators=(",", ":"))


def report(args, record):
    s = record["stamp"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} sha={s['git_sha']} "
          f"python={s['python']} numpy={s['numpy']} scipy={s['scipy']} mpmath={s['mpmath']} "
          f"nproc={s['nproc']} pins=1")
    print(f"failed_ratio {record['failed_ratio']:.6g} ratio "
          f"({record['failed']}/{record['attempted']} ops)")
    for failure in record["failures"]:
        print(f"# failure: {failure.strip().splitlines()[-1]}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if "op_s" in record:
        op, t = record["op_s"], record["op_s_tail"]
        # printed, not gated: bursts on shared CPUs spread it beyond any allowed bound
        print(f"op_s_tail {t['value']:.6g} s (p{t['percentile']:.1f} of {t['n']} ops, "
              f"{t['beyond']} above)")
        print(f"# op_s quartiles {op['p25']:.4f} / {op['p50']:.4f} / {op['p75']:.4f} s "
              f"over {op['n']} ops")
    if "functions" in record:
        m = record["metrics"]
        traced = m["bench.op_traced_s"]["value"]
        print(f"# no layer waits: one process, no queues; self time per op "
              f"(median of {record['traced_ops']} traced ops, share of traced op):")
        for name, f in sorted(record["functions"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"#   {name:<40} {f['self_s']:.4f} s {100 * f['self_s'] / traced:5.1f} % "
                  f"{f['calls']:.0f} calls")
        total = sum(f["self_s"] for f in record["functions"].values())
        print(f"# self times sum to {total:.4f} s; traced op {traced:.4f} s vs untraced "
              f"{m['bench.op_untraced_s']['value']:.4f} s: tracing overhead "
              f"{m['bench.trace_overhead_s']['value']:.4f} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "shelab", "__init__.py")):
        print(f"shelab sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before numpy is imported
    sys.path[:0] = [SRC, HERE]
    if args.setup_probe:
        seconds, _ = setup(args, workdir=None)
        print(json.dumps({"setup_s": seconds}))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
