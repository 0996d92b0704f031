import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shelab.checks import CheckResult, lemma_suite
from shelab.kernels import heat_kernel

from conftest import perturb_eigenvalues


def test_reduced_lattice_passes():
    results = lemma_suite(ns=(3, 4, 8), thetas=(0.0, 0.5, 1.0))
    failed = [r.name for r in results if not r.passed]
    assert not failed, failed


def test_fault_injection_names_failing_check(monkeypatch):
    perturb_eigenvalues(monkeypatch, 1e-3)
    results = lemma_suite(ns=(8,), thetas=(1.0,))
    failed = {r.name for r in results if not r.passed}
    assert "eigenpair-consistency" in failed


# Verdicts of the per-time evaluation the array evaluation replaced.
SUITE_CHECKS = [
    "continuous-conservation", "continuous-square-identity", "continuous-square-lower",
    "continuous-square-upper", "semi-conservation", "semi-square-identity",
    "semi-square-lower", "semi-square-upper", "semi-grid-lower-refined",
    "full-conservation", "full-square-identity", "full-square-lower",
    "full-square-upper-derived", "full-grid-lower-refined", "eigenpair-consistency",
    "factor-ordering", "eigenvalue-symmetry", "lattice-coverage", "mode-zero-conservation",
]


@pytest.mark.parametrize("perturbation,failing", [(0.0, set()),
                                                  (1e-3, {"eigenpair-consistency"})])
def test_default_lattice_verdicts(monkeypatch, perturbation, failing):
    if perturbation:
        perturb_eigenvalues(monkeypatch, perturbation)
    results = lemma_suite()
    assert [r.name for r in results] == SUITE_CHECKS
    assert {r.name: r.passed for r in results} == {c: c not in failing for c in SUITE_CHECKS}


@given(st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 0.5, float("nan")]),
                          st.floats(min_value=-2.0, max_value=2.0)), min_size=1, max_size=12),
       st.sampled_from([float("inf"), 0.25, -0.5]))
@settings(max_examples=80, deadline=None)
def test_merge_all_equals_merge_in_order(margins, start):
    details = [f"t{i}" for i in range(len(margins))]
    one = CheckResult("c", True, start, "start")
    many = CheckResult("c", True, start, "start")
    for m, d in zip(margins, details):
        one.merge(m, d)
    many.merge_all(np.array(margins), details)
    assert (many.passed, many.detail) == (one.passed, one.detail)
    assert np.array_equal([many.worst_margin], [one.worst_margin], equal_nan=True)
    if any(math.isnan(m) for m in margins):
        first = details[[math.isnan(m) for m in margins].index(True)]
        assert not many.passed
        assert math.isnan(many.worst_margin)
        assert many.detail == f"{first} margin=nan"


def test_nan_kernel_fails_conservation(monkeypatch):
    # a kernel that returns nan at one time must not pass the suite
    from shelab import checks

    def nan_at_one_time(t, x, y):
        g = heat_kernel(t, x, y)
        g[7] = np.nan
        return g

    monkeypatch.setattr(checks, "heat_kernel", nan_at_one_time)
    results = {r.name: r for r in lemma_suite(ns=(4,), thetas=(1.0,))}
    failed = {name for name, r in results.items() if not r.passed}
    assert failed == {"continuous-conservation", "continuous-square-identity"}
    conservation = results["continuous-conservation"]
    assert math.isnan(conservation.worst_margin)
    assert conservation.detail.startswith(f"t={checks.T_GRID[7]:g} ")
    assert conservation.detail.endswith("margin=nan")


@pytest.mark.parametrize("kwargs,name", [
    ({"ns": ()}, "ns"), ({"thetas": ()}, "thetas"), ({"ns": (8.5,)}, "ns"),
    ({"ns": (2,)}, "ns"), ({"ns": (True,)}, "ns"), ({"thetas": (1.5,)}, "thetas"),
    ({"thetas": (-0.1,)}, "thetas"), ({"thetas": (float("nan"),)}, "thetas"),
])
def test_unusable_lattice_rejected(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        lemma_suite(**kwargs)


def test_integral_float_sizes_accepted():
    as_float = lemma_suite(ns=(8.0,), thetas=(1,))
    as_int = lemma_suite(ns=(8,), thetas=(1.0,))
    assert [(r.passed, r.worst_margin, r.detail) for r in as_float] \
        == [(r.passed, r.worst_margin, r.detail) for r in as_int]


def test_peak_memory_bounded():
    # one y-row per time: stacking all 25 times took 15.7 MiB
    lattice = {"ns": (3, 4, 8, 16), "thetas": (0.5, 1.0)}
    lemma_suite(**lattice)
    tracemalloc.start()
    try:
        lemma_suite(**lattice)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
