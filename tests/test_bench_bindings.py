"""The benchmark's tracer wraps package entry points by name.

bench/tracing.py lists each (owner, attribute) it replaces during a
traced round.  A binding the package drops, such as bounds.spanning_set
or qspplin.matrix_rank, which those modules keep only for the tracer,
would fail only the traced benchmark run; here it fails the suite.  So
would a change to the one LP the benchmark builds itself,
bench/workloads.py's WARMUP_LP.
"""

import sys
import types
from pathlib import Path

import pytest

from quadlin import lpsolve

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    """bench/<name>.py as a module, run from its source: nothing is
    written under bench/ and nothing is installed."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


def test_every_traced_entry_point_resolves():
    tracing = _bench_module("tracing")
    missing = [f"{owner}.{attr}"
               for owner, attr, _ in tracing.ENTRY_POINTS
               if not callable(getattr(tracing._resolve(owner), attr, None))]
    assert not missing


def test_the_warmup_lp_solves_in_both_modes(monkeypatch):
    # workloads.py imports its sibling modules by their bare names
    for name in ("instances", "oracle"):
        monkeypatch.setitem(sys.modules, name, _bench_module(name))
    workloads = _bench_module("workloads")
    for mode in ("exact", "float"):
        res = lpsolve.solve_lp(workloads.WARMUP_LP, mode=mode)
        assert (res.status, res.value, res.mode) == (lpsolve.OPTIMAL, 1, mode)
    # every program is a minimum: a max must be restated, not solved
    with pytest.raises(ValueError, match="negated objective"):
        lpsolve.linear_program("max", (1, 2), (((1, 1), lpsolve.GE, 1),))
