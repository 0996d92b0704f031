import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MODULES = ["model", "kernels", "stability", "noise", "solver", "moments",
           "renewal", "convergence", "checks", "output", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_public_exports_resolve(name):
    mod = importlib.import_module(f"shelab.{name}")
    for symbol in getattr(mod, "__all__", []):
        assert hasattr(mod, symbol), f"shelab.{name} exports missing {symbol}"


def test_version_matches_manifest_stamp():
    import shelab
    from shelab.output import RunManifest

    manifest = RunManifest(config={}, seed=0)
    assert shelab.__version__ in manifest.header_line()


def test_import_leaves_mpmath_precision_alone():
    # a fresh interpreter: importing every shelab module keeps mp.dps as found
    code = ("import importlib, mpmath; before = mpmath.mp.dps; "
            f"[importlib.import_module('shelab.' + m) for m in {MODULES!r}]; "
            "print(before, mpmath.mp.dps)")
    import shelab
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shelab.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout.split()
    assert out[0] == out[1]


def test_benchmark_targets_resolve():
    # the benchmark tracer wraps these names; a rename must not pass silently
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, cls, _ in spans.TARGETS:
        owner = importlib.import_module(module)
        holder = getattr(owner, cls) if cls else owner
        assert callable(getattr(holder, attr, None)), f"{module}.{cls or ''}.{attr} is gone"
