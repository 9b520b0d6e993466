"""The benchmark's tracer reads library internals; this keeps them in place.

``bench/tracer.py`` wraps entry points such as ``_PowerFamily.oracle`` and
reads the family attributes ``m``, ``_grid``, ``indices`` and ``patterns``;
``bench/workloads.py`` clears the library's caches by name.  Only traced
benchmark runs exercise that code, so a rename would otherwise go unseen.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from tensornorm._colgen import SolverOptions
from tensornorm.norm_solver import l1, norm_pisp
from tensornorm.tensor_core import power

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not BENCH.is_dir(), reason="needs a source checkout with bench/")
def test_tracer_wraps_and_counts_a_grid_solve(monkeypatch):
    tracer_mod, workloads = _load("tracer", monkeypatch), _load("workloads", monkeypatch)
    tracer = tracer_mod.Tracer(workloads.MODULES)
    tracer.install()
    try:
        assert not tracer.untouched()
        nb = norm_pisp(power((0.2, 0.3, 0.5), 3), l1(3), SolverOptions(max_rounds=2))
    finally:
        tracer.uninstall()
    assert tracer.untouched()
    workloads.clear_caches()
    count = tracer.count
    assert count["colgen.solves"] == 1 and count["colgen.rounds"] == nb.iterations
    assert count["lp.calls"] == count["oracle.calls"] == nb.iterations == 2
    # on_power_oracle counted the m = 3 pricing grid: points x monomials x patterns
    assert count["oracle.grid_madds"] == count["oracle.calls"] * 2145 * 10
    assert tracer.time["oracle_grid"] > 0 and "oracle_exact" not in tracer.time
