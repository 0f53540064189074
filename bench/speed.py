"""A fixed reference computation that tracks how fast the machine runs now.

On a shared host the same work runs up to twice as slow for stretches of
seconds to minutes, whatever the program does.  A ``Clock`` times the
reference every PERIOD_S seconds of a round and at every operation
boundary, and scales the wall time between two samples by REFERENCE_S over
their mean, so that end-to-end times read as if the reference had run at a
fixed speed.  The reference mixes the two kinds of work the package does
-- Fraction elimination, as in the exact simplex and its certificate, and
numpy row updates, as in the float tableau -- and uses no code from the
package, so a change to the package cannot move it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np

# Nominal reference time.  Scaled times are seconds on a machine where the
# reference takes this long; on a shared 2-vCPU x86-64 VM (Python 3.11,
# numpy 2.4) it took 0.015 to 0.027 s, depending on the host's load.
REFERENCE_S = 0.02
# how often a clock samples the reference inside a long operation
PERIOD_S = 0.2

_N = 14
_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, (i + 2 * j) % 4 + 1)
            for j in range(_N)] for i in range(_N)]
_TABLEAU = np.random.default_rng(0).uniform(1.0, 2.0, (128, 256))


def _eliminate():
    rows = [row[:] for row in _MATRIX]
    for c in range(_N):
        pivot = next((r for r in range(c, _N) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = 1 / rows[c][c]
        for r in range(_N):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return rows


def _pivot_rows():
    tab = _TABLEAU.copy()
    for r in range(128):
        col = int(np.argmax(np.abs(tab[r])))
        tab[r] /= tab[r, col]
        colvals = tab[:, col].copy()
        colvals[r] = 0.0
        tab -= np.outer(colvals, tab[r])
    return tab


def reference() -> float:
    """Run the reference once; returns its wall time in seconds."""
    t = time.perf_counter()
    _eliminate()
    _pivot_rows()
    return time.perf_counter() - t


class Clock:
    """Wall time of a round, raw and at the reference speed, excluding the
    reference samples themselves.

    Inside ``with clock:`` an interval timer makes ``tick`` run every
    PERIOD_S seconds; callers also ``tick`` at every operation boundary.
    Each tick times the reference and adds the wall time since the last
    tick to ``raw``, and to ``scaled`` times REFERENCE_S over the mean of
    the reference times at its two ends.  A timer signal arriving during a
    tick is dropped.
    """

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self.refs = []
        self._busy = True
        self._last = self._sample()
        self._start = time.perf_counter()
        self._busy = False
        self._old_handler = None

    def _sample(self):
        ref = reference()
        self.refs.append(ref)
        return ref

    def tick(self, *_signal_args):
        if self._busy:
            return
        self._busy = True
        segment = time.perf_counter() - self._start
        ref = self._sample()
        self.raw += segment
        self.scaled += segment * 2 * REFERENCE_S / (self._last + ref)
        self._last = ref
        self._start = time.perf_counter()
        self._busy = False

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

