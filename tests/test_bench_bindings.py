"""The benchmark's tracer wraps package entry points by name.

bench/tracing.py lists each (owner, attribute) it replaces during a
traced round.  A binding the package drops, such as bounds.spanning_set
or qspplin.matrix_rank, which those modules keep only for the tracer,
would fail only the traced benchmark run; here it fails the suite.
"""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    """bench/tracing.py as a module, run from its source: nothing is
    written under bench/ and nothing is installed."""
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


def test_every_traced_entry_point_resolves():
    tracing = _tracing()
    missing = [f"{owner}.{attr}"
               for owner, attr, _ in tracing.ENTRY_POINTS
               if not callable(getattr(tracing._resolve(owner), attr, None))]
    assert not missing
