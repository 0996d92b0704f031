import ast
import importlib
import importlib.util
import os
import re
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
    from shelab.output import manifest_line

    assert shelab.__version__ in manifest_line({}, 0)


def fresh_import_all(after: str, before: str = "") -> list[str]:
    """Run `before`, import every shelab module and print `after`, all in a
    fresh interpreter; returns the printed words."""
    code = (f"import importlib, sys; {before}"
            f"[importlib.import_module('shelab.' + m) for m in {MODULES!r}]; "
            f"print({after})")
    import shelab
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shelab.__file__))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout.split()


def test_import_leaves_mpmath_precision_alone():
    # a fresh interpreter: importing every shelab module keeps mp.dps as found
    out = fresh_import_all("dps, mpmath.mp.dps", before="import mpmath; dps = mpmath.mp.dps; ")
    assert out[0] == out[1]


def test_import_does_not_load_mpmath():
    # mpmath is a test-only oracle: no shelab module may pull it in
    assert fresh_import_all("'mpmath' in sys.modules") == ["False"]


def test_import_loads_scipy_special_only():
    # shelab needs scipy.special alone; stats, optimize and integrate cost
    # most of a cold start and must stay out of the import graph
    subpackages = ("scipy.special", "scipy.stats", "scipy.optimize", "scipy.integrate", "scipy.linalg")
    out = fresh_import_all("sys.modules['scipy'].__version__, "
                           f"*[m in sys.modules for m in {subpackages!r}]")
    loaded = dict(zip(subpackages, out[1:]))
    assert loaded["scipy.special"] == "True"
    assert [loaded[m] for m in subpackages[1:4]] == ["False"] * 3
    if out[0] == "1.17.1":  # scipy.special's own imports vary between releases
        assert loaded["scipy.linalg"] == "False"


def _top_level_imports(path: str) -> set[str]:
    """First components of the absolute imports in one source file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_imports_declared():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements}
    src = os.path.join(ROOT, "src", "shelab")
    imported = set()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            imported |= _top_level_imports(os.path.join(src, name))
    third_party = {m for m in imported
                   if m not in sys.stdlib_module_names and m not in ("__future__", "shelab")}
    assert third_party, "the scan found no third-party imports"
    assert third_party <= declared, f"undeclared runtime imports: {third_party - declared}"


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
