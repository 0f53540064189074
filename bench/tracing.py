"""In-memory span recording around the package's public entry points.

Spans are recorded from outside the package: each entry point is replaced,
for the duration of a traced round, by a wrapper bound under the same name
in the module that calls it.  A span is (name, start, end, parent); a
layer's self time is its span durations minus the time its child spans
cover.  Counts (LP sizes, pivots, certificate bit-lengths, spanning-set
sizes) are taken from the wrapped calls' arguments and results, where the
work happens.
"""

from __future__ import annotations

import time
from fractions import Fraction

# (module, attribute, span name).  Bindings are listed where the caller
# looks them up: bounds.py calls solve_lp, spanning_set, qspp_to_bqp and
# brute_force_opt through its own globals, qspplin.py does the same for the
# graph and exactnum helpers, and lpsolve.solve_lp calls verify_solution
# through lpsolve's globals.  The benchmark itself calls every entry point
# through its module attribute, so the same wrappers see those calls too.
ENTRY_POINTS = (
    ("quadlin.cli", "parse_instance", "cli.parse_instance"),
    ("quadlin.bounds", "qspp_to_bqp", "model.qspp_to_bqp"),
    ("quadlin.bounds", "brute_force_opt", "model.brute_force_opt"),
    ("quadlin.model", "brute_force_opt", "model.brute_force_opt"),
    ("quadlin.qspplin", "prune_to_corridor", "graph.prune_to_corridor"),
    ("quadlin.qspplin", "null_space_basis", "exactnum.null_space_basis"),
    ("quadlin.qspplin", "matrix_rank", "exactnum.matrix_rank"),
    ("quadlin.bounds", "solve_lp", "lpsolve.solve_lp"),
    ("quadlin.lpsolve", "verify_solution", "lpsolve.verify_solution"),
    ("quadlin.bounds", "spanning_set", "qspplin.spanning_set"),
    ("quadlin.qspplin", "spanning_set", "qspplin.spanning_set"),
    ("quadlin.qspplin", "linearize_qspp", "qspplin.linearize_qspp"),
    ("quadlin.qspplin.SpanningSet", "contains", "qspplin.contains"),
    ("quadlin.bounds", "gl_bound", "bounds.gl_bound"),
    ("quadlin.bounds", "ggl_bound", "bounds.ggl_bound"),
    ("quadlin.bounds", "lbb_prime", "bounds.lbb_prime"),
    ("quadlin.bounds", "rlt1", "bounds.rlt1"),
    ("quadlin.bounds", "lbb_star", "bounds.lbb_star"),
    ("quadlin.bounds", "verify_report", "bounds.verify_report"),
    ("quadlin.bounds", "verify_chain", "bounds.verify_chain"),
)

ROOT = "bench"      # the round itself; its self time is the benchmark's own
COUNTING = "trace"  # taking counts from results, part of the tracing cost

_COUNTED = ("lpsolve.solve_lp", "qspplin.spanning_set")

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in ENTRY_POINTS))

def _bits(v) -> int:
    if isinstance(v, Fraction):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    return 0


def _resolve(path: str):
    import importlib
    parts = path.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            continue
        for attr in parts[k:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


class Tracer:
    """Span and counter recorder for one traced round."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self._stack = []
        self._saved = []
        self.lp_calls = 0
        self.pivots = 0
        self.max_rows = 0
        self.max_cols = 0
        self.cert_bits = 0
        self.dimension = 0
        self.members_built = 0
        self.members_used = 0

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- counters ---------------------------------------------------------

    def _count(self, name, args, result):
        if name == "lpsolve.solve_lp":
            lp = args[0]
            self.lp_calls += 1
            self.pivots += result.pivots
            self.max_rows = max(self.max_rows, lp.nrows)
            self.max_cols = max(self.max_cols, lp.nvars)
            if result.mode == "exact" and result.x is not None:
                self.cert_bits = max(
                    self.cert_bits,
                    max(map(_bits, result.x), default=0),
                    max(map(_bits, result.duals or ()), default=0))
        elif name == "qspplin.spanning_set":
            self.dimension += result.dimension
            self.members_built += len(result.members)
            self.members_used += sum(1 for q, _ in result.members
                                     if q.is_symmetric())

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if name in _COUNTED:
                idx = tracer.open(COUNTING)
                tracer._count(name, args, result)
                tracer.close(idx)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner_path, attr, name in ENTRY_POINTS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        """Per span name: (self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            s, c = out.get(name, (0.0, 0))
            out[name] = (s + (end - start) - child[k], c + 1)
        return out

    def counts(self) -> dict:
        ratio = (self.members_used / self.members_built
                 if self.members_built else 0.0)
        return {
            "lpsolve.solve_lp.calls": self.lp_calls,
            "lpsolve.pivots": self.pivots,
            "lpsolve.max_rows": self.max_rows,
            "lpsolve.max_cols": self.max_cols,
            "lpsolve.cert_bits": self.cert_bits,
            "qspplin.spanning_set.dimension": self.dimension,
            "bounds.lbb_star.members_used_ratio": ratio,
        }
