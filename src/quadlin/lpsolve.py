"""Linear programming: one two-phase primal simplex over two arithmetics.

The simplex is written once (``_Tableau``): Dantzig pricing that switches
to Bland's rule after a long run of degenerate pivots, phase 1, driving
basic artificials out of the basis, phase 2, and one read-back of x, the
value and the duals.  The two arithmetics supply only pricing, the ratio
test, the elimination step and a few cell tests.  Exact mode keeps the
tableau as one integer matrix plus a positive common denominator and
pivots fraction-free: the update
``T'[i] = (T[i]*T[r][c] - T[r]*T[i][c]) // d`` divides exactly (every entry
is a minor of the starting integer matrix), so no rationals appear inside
the hot loop and every optimal result is certified by a full KKT check
before it is returned.  The code around the simplex works on integer
numerators too: a LinearProgram takes each row once, on first use, to
integer numerators over the lcm of its denominators (int_rows);
preparation maps those onto the standard-form columns and rescales them
only where the right-hand side needs it, the read-back builds
one Fraction per value and dual, and the KKT check evaluates every row
and every reduced cost as an integer dot product, one Fraction per row
and per column.  Every certificate check (point_violations,
dual_violations, verify_solution) is exact, for float results too: a
float is read at its exact binary value, and a float result passes
within an absolute FLOAT_CHECK_TOL (1e-7), an exact one with none.
with_rhs gives a program new right-hand sides and shares everything
else, the part of the standard form that does not depend on them
included, so a program solved for many right-hand sides is validated and
laid out once.  Float mode runs on a numpy tableau with fixed tolerances
and raises NumericalBreakdown instead of returning garbage when the
arithmetic degrades.

Every variable is x >= 0 or free, the two kinds quadlin's programs use.
A free variable is split into a difference of two nonnegative ones;
callers only ever see the original variable space, with one dual value
per original row.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

import numpy as np

from quadlin.exactnum import (ZERO, NonFiniteError, common_denominator, rat,
                              rat_from, vdot)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)

MODE_ENV_VAR = "QUADLIN_MODE"
EXACT_SIZE_LIMIT = 260      # beyond this many rows or vars, auto picks float

# every check of a float result: an absolute tolerance, the exact 1/10**7
FLOAT_CHECK_TOL = Fraction(1, 10 ** 7)

_FEAS_TOL = 1e-7            # float mode: feasibility / phase-1 acceptance
_PIVOT_TOL = 1e-9           # float mode: smallest usable pivot / cost entry
_PIVOT_HARD_CAP = 200_000   # exact mode safety net (Bland terminates first)
_FLOAT_PIVOT_CAP = 50_000


class LpError(RuntimeError):
    """Internal solver failure (certificate mismatch, pivot cap)."""


class NumericalBreakdown(LpError):
    """Float mode lost too much precision to continue."""


@dataclass(frozen=True)
class LinearProgram:
    """min or max objective . x subject to rows, each variable x >= 0 or
    free.

    rows: tuple of (coeffs, relation, rhs), relation in {"<=", "=", ">="}.
    bounds: per variable (0, None) for x >= 0 or (None, None) for a free
    one; any other pair raises ValueError.
    All numeric data is exact (Fraction); float mode converts internally.
    """

    sense: str
    objective: tuple
    rows: tuple
    bounds: tuple

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be min or max, got {self.sense!r}")
        obj = tuple(rat(v) for v in self.objective)
        object.__setattr__(self, "objective", obj)
        n = len(obj)
        rows = []
        for coeffs, rel, rhs in self.rows:
            coeffs = tuple(rat(v) for v in coeffs)
            if len(coeffs) != n:
                raise ValueError("row length mismatch")
            if rel not in _RELATIONS:
                raise ValueError(f"bad relation {rel!r}")
            rows.append((coeffs, rel, rat(rhs)))
        object.__setattr__(self, "rows", tuple(rows))
        bnds = []
        for lo, hi in self.bounds:
            if hi is not None or (lo is not None and rat(lo) != 0):
                raise ValueError("a variable must be x >= 0, (0, None), or "
                                 f"free, (None, None), got ({lo!r}, {hi!r})")
            bnds.append((None if lo is None else ZERO, None))
        if len(bnds) != n:
            raise ValueError("bounds length mismatch")
        object.__setattr__(self, "bounds", tuple(bnds))

    def with_rhs(self, rhs) -> "LinearProgram":
        """This program with the right-hand sides rhs, one per row.

        Only the new values are validated (exact, and one per row); the
        coefficients, int_rows, int_columns and the standard-form layout,
        which does not depend on the right-hand sides, are shared with
        this program, so preparing the new one works out only each row's
        scale, sign, relation and right-hand side numerator.
        """
        rhs = tuple(rat(v) for v in rhs)
        if len(rhs) != self.nrows:
            raise ValueError("rhs length mismatch")
        new = object.__new__(LinearProgram)
        rows = tuple((coeffs, rel, b)
                     for (coeffs, rel, _), b in zip(self.rows, rhs))
        for name, value in (("sense", self.sense),
                            ("objective", self.objective), ("rows", rows),
                            ("bounds", self.bounds),
                            ("int_rows", self.int_rows),
                            ("int_columns", self.int_columns),
                            ("_layout", self._layout)):
            object.__setattr__(new, name, value)
        return new

    @property
    def nvars(self) -> int:
        return len(self.objective)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @cached_property
    def int_rows(self) -> tuple:
        """Per row, (integer numerators of its coefficients, their lcm k),
        worked out on first use and kept; not part of equality or hashing.
        Preparation and every certificate check read it."""
        return tuple((tuple(nums), k) for nums, k in
                     (common_denominator(coeffs) for coeffs, _, _ in self.rows))

    @cached_property
    def int_columns(self) -> tuple:
        """int_rows' numerators by variable, one tuple per column, worked
        out on first use and kept; the reduced costs read them."""
        return tuple(zip(*(nums for nums, _ in self.int_rows))) \
            or ((),) * self.nvars

    @cached_property
    def _layout(self) -> "_Layout":
        """The standard-form layout (_standard_layout), worked out on
        first use and kept; with_rhs shares it."""
        return _standard_layout(self)


def linear_program(sense, objective, rows, bounds=None) -> LinearProgram:
    """Convenience constructor; default bounds are x >= 0."""
    objective = tuple(objective)
    if bounds is None:
        bounds = tuple((ZERO, None) for _ in objective)
    return LinearProgram(sense=sense, objective=objective,
                         rows=tuple(rows), bounds=tuple(bounds))


@dataclass(frozen=True)
class LpResult:
    status: str
    value: object = None        # Fraction (exact) or float
    x: tuple = None
    duals: tuple = None         # one per original row
    mode: str = "exact"
    pivots: int = 0


# ---------------------------------------------------------------------------
# standard-form preparation (shared by both modes)

_FLIPPED = {LE: GE, GE: LE, EQ: EQ}


class _Layout:
    """The part of a program's standard form that does not depend on its
    right-hand sides: the columns (per variable its column and, if it is
    free, the column of its negative part), per user row its integer
    numerators on the columns with their lcm k, and the objective's
    numerators and scale."""

    __slots__ = ("ncols", "col_meta", "lines", "obj_int", "obj_scale",
                 "sense_sign")


def _standard_layout(lp: LinearProgram) -> _Layout:
    lay = _Layout()
    lay.sense_sign = 1 if lp.sense == "min" else -1

    col_meta = []
    ncols = 0
    for lo, _ in lp.bounds:
        col_meta.append((ncols, ncols + 1 if lo is None else None))
        ncols += 1 if lo is not None else 2
    lay.ncols = ncols
    lay.col_meta = col_meta

    def to_cols(nums, sign):
        """Integer user coefficients, times sign, on the columns: the one
        on x_j lands on its column, or with opposite signs on the two
        columns of its split."""
        line = [0] * ncols
        for (pos, neg), v in zip(col_meta, nums):
            if v:
                line[pos] = sign * v
                if neg is not None:
                    line[neg] = -sign * v
        return line

    # without a split column, the int_rows numerators are the lines
    split = ncols != lp.nvars
    lay.lines = [(to_cols(nums, 1) if split else nums, k)
                 for nums, k in lp.int_rows]
    nums, lay.obj_scale = common_denominator(lp.objective)
    lay.obj_int = to_cols(nums, lay.sense_sign)
    return lay


class _Prepared:
    __slots__ = ("ncols", "col_meta", "rows_int", "rels", "row_scale",
                 "obj_int", "obj_scale", "sense_sign")


def _prepare(lp: LinearProgram) -> _Prepared:
    """The integer standard form the simplex starts from: lp's layout,
    and per row only what its right-hand side decides.  The row goes
    over lcm(k, the rhs's denominator) and is negated if the rhs is
    negative, so that every right-hand side is nonnegative."""
    lay = lp._layout
    p = _Prepared()
    for name in ("ncols", "col_meta", "obj_int", "obj_scale", "sense_sign"):
        setattr(p, name, getattr(lay, name))
    p.rows_int, p.rels, p.row_scale = [], [], []
    for (_, rel, rhs), (line, k) in zip(lp.rows, lay.lines):
        scale = lcm(k, rhs.denominator)
        b = rhs.numerator * (scale // rhs.denominator)
        sign = -1 if b < 0 else 1
        f = sign * (scale // k)
        row = list(line) if f == 1 else [v * f for v in line]
        row.append(sign * b)
        p.rows_int.append(row)
        p.rels.append(rel if sign > 0 else _FLIPPED[rel])
        p.row_scale.append(sign * scale)
    return p


def _requested_mode(mode: str):
    """The explicit mode, else the one QUADLIN_MODE names, else None."""
    if mode in ("exact", "float"):
        return mode
    if mode != "auto":
        raise ValueError(f"mode must be auto, exact or float, got {mode!r}")
    env = os.environ.get(MODE_ENV_VAR, "").strip().lower()
    if env in ("exact", "float"):
        return env
    if env:
        raise ValueError(
            f"{MODE_ENV_VAR} must be 'exact' or 'float', got {env!r}")
    return None


def _resolve_mode(mode: str, nrows: int, nvars: int) -> str:
    """Requested mode, else float past EXACT_SIZE_LIMIT rows or vars."""
    requested = _requested_mode(mode)
    if requested is not None:
        return requested
    return "float" if max(nrows, nvars) > EXACT_SIZE_LIMIT else "exact"


# ---------------------------------------------------------------------------
# the simplex, once for both arithmetics

class _Tableau:
    """Two-phase primal simplex over a tableau whose arithmetic the
    subclass supplies.

    Structural columns come first, then one slack per inequality row, then
    one artificial per >= or = row, then the right-hand side; the starting
    basis takes each row's slack if the row is <=, else its artificial.
    Below the constraint rows sit the phase-2 and the phase-1 cost rows.

    Pricing is Dantzig's rule until more than max(40, rows) degenerate
    pivots in a row, then Bland's rule for the rest of the phase; ratio
    ties go to the row whose basic column has the smallest index.
    Subclasses give the mode, the number type (num), the error class and
    the arithmetic: _entering, _leaving, _degenerate, _eliminate,
    _first_usable, _infeasible, _cell (k * T[i][j] / den) and _pivot_cap.
    """

    error = LpError
    # read-back of an x >= 0 variable and of the value: float mode adds
    # 0.0, which turns a -0.0 into 0.0
    _unsigned_zero = staticmethod(lambda v: v)

    def __init__(self, prep: _Prepared):
        nrows = len(prep.rows_int)
        slack_col = {}
        art_col = {}
        col = prep.ncols
        for i, rel in enumerate(prep.rels):
            if rel in (LE, GE):
                slack_col[i] = col
                col += 1
        for i, rel in enumerate(prep.rels):
            if rel in (GE, EQ):
                art_col[i] = col
                col += 1
        self.rhs = col
        self.basis = [slack_col[i] if rel == LE else art_col[i]
                      for i, rel in enumerate(prep.rels)]
        self.prep = prep
        self.nrows = nrows
        self.slack_col = slack_col
        self.art_col = art_col
        self.art_set = frozenset(art_col.values())
        self.z2_idx = nrows
        self.z1_idx = nrows + 1
        self.pivots = 0

    def _int_rows(self):
        """Yield the constraint rows and the phase-2 cost row as int lists."""
        prep = self.prep
        ncols, width = prep.ncols, self.rhs + 1
        for i, row in enumerate(prep.rows_int):
            line = [0] * width
            line[:ncols] = row[:ncols]
            line[self.rhs] = row[ncols]
            if i in self.slack_col:
                line[self.slack_col[i]] = 1 if prep.rels[i] == LE else -1
            if i in self.art_col:
                line[self.art_col[i]] = 1
            yield line
        z2 = [0] * width
        z2[:ncols] = prep.obj_int
        yield z2

    def _pivot(self, r, c):
        self._eliminate(r, c)
        self.basis[r] = c
        self.pivots += 1
        if self.pivots > self._pivot_cap():
            raise self.error(f"pivot cap exceeded in {self.mode} mode")

    def _phase(self, cost_idx):
        bland = False
        degen_run = 0
        stall_limit = max(40, self.nrows)
        while True:
            enter = self._entering(cost_idx, bland)
            if enter is None:
                return OPTIMAL
            leave = self._leaving(enter)
            if leave is None:
                return UNBOUNDED
            if self._degenerate(leave):
                degen_run += 1
                if degen_run > stall_limit:
                    bland = True
            else:
                degen_run = 0
            self._pivot(leave, enter)

    def solve(self) -> LpResult:
        if self.art_col:
            if self._phase(self.z1_idx) != OPTIMAL:
                raise self.error(
                    f"phase 1 reported unbounded in {self.mode} mode")
            if self._infeasible():
                return LpResult(INFEASIBLE, mode=self.mode, pivots=self.pivots)
            for i in range(self.nrows):  # drive out basic artificials
                if self.basis[i] in self.art_set:
                    enter = self._first_usable(i)
                    if enter is not None:  # else the row was redundant
                        self._pivot(i, enter)
        if self._phase(self.z2_idx) == UNBOUNDED:
            return LpResult(UNBOUNDED, mode=self.mode, pivots=self.pivots)

        prep, num, rhs = self.prep, self.num, self.rhs
        vals = [num(0)] * prep.ncols
        for i, b in enumerate(self.basis):
            if b < prep.ncols:
                vals[b] = self._cell(i, rhs)
        x = tuple(self._unsigned_zero(vals[pos]) if neg is None
                  else vals[pos] - vals[neg] for pos, neg in prep.col_meta)
        # the cost row holds minus the reduced costs and minus the value
        sign = -prep.sense_sign
        value = self._unsigned_zero(
            self._cell(self.z2_idx, rhs, sign, prep.obj_scale))
        duals = tuple(
            self._cell(self.z2_idx, self.art_col.get(i, self.slack_col.get(i)),
                       sign * prep.row_scale[i], prep.obj_scale)
            for i in range(self.nrows))
        return LpResult(OPTIMAL, value, x, duals, self.mode, self.pivots)


class _ExactTableau(_Tableau):
    """Integer tableau over one positive common denominator d; the
    fraction-free update divides exactly (every entry is a minor of the
    starting integer matrix)."""

    mode = "exact"
    num = staticmethod(rat)

    def __init__(self, prep: _Prepared):
        super().__init__(prep)
        tab = list(self._int_rows())
        z1 = [0] * (self.rhs + 1)
        for ac in self.art_col.values():
            z1[ac] = 1
        for i in self.art_col:
            z1 = [a - b for a, b in zip(z1, tab[i])]
        tab.append(z1)
        self.tab = tab
        self.d = 1

    def _pivot_cap(self):
        return _PIVOT_HARD_CAP

    def _cell(self, i, j, k=1, den=1):
        return Fraction(k * self.tab[i][j], den * self.d)

    def _entering(self, cost_idx, bland):
        zrow, art = self.tab[cost_idx], self.art_set
        enter = None
        best = 0
        for j in range(self.rhs):
            if j not in art and zrow[j] < best:
                if bland:
                    return j
                best = zrow[j]
                enter = j
        return enter

    def _leaving(self, enter):
        tab, rhs = self.tab, self.rhs
        leave = None
        for i in range(self.nrows):
            t = tab[i][enter]
            if t > 0:
                if leave is None:
                    leave = i
                else:
                    lhs = tab[i][rhs] * tab[leave][enter]
                    rhs_ = tab[leave][rhs] * t
                    if lhs < rhs_ or (lhs == rhs_
                                      and self.basis[i] < self.basis[leave]):
                        leave = i
        return leave

    def _degenerate(self, r):
        return self.tab[r][self.rhs] == 0

    def _first_usable(self, r):
        row = self.tab[r]
        return next((j for j in range(self.rhs)
                     if j not in self.art_set and row[j] != 0), None)

    def _infeasible(self):
        return self.tab[self.z1_idx][self.rhs] != 0

    def _eliminate(self, r, c):
        """T'[i] = (T[i]*T[r][c] - T[r]*T[i][c]) // d; a negative pivot
        first negates its row, which keeps the new denominator positive."""
        tab, d = self.tab, self.d
        if tab[r][c] < 0:
            tab[r] = [-v for v in tab[r]]
        prow = tab[r]
        piv = prow[c]
        for i, row in enumerate(tab):
            if i == r:
                continue
            f = row[c]
            if f:
                tab[i] = [(v * piv - pv * f) // d for v, pv in zip(row, prow)]
            elif piv != d:
                tab[i] = [(v * piv) // d for v in row]
        self.d = piv


class _FloatTableau(_Tableau):
    """numpy tableau with fixed tolerances; NumericalBreakdown instead of
    a result once the arithmetic degrades."""

    mode = "float"
    num = float
    error = NumericalBreakdown
    _unsigned_zero = staticmethod(lambda v: v + 0.0)

    def __init__(self, prep: _Prepared):
        super().__init__(prep)
        width = self.rhs + 1
        tab = np.zeros((self.nrows + 2, width))
        for i, line in enumerate(self._int_rows()):
            tab[i] = line
        z1 = np.zeros(width)
        for ac in self.art_col.values():
            z1[ac] = 1.0
        for i in self.art_col:
            z1 -= tab[i]
        tab[self.nrows + 1] = z1
        self.tab = tab
        self.art_mask = np.zeros(width, dtype=bool)
        self.art_mask[list(self.art_set)] = True
        self.art_mask[self.rhs] = True
        self.feas_tol = _FEAS_TOL * max(
            1.0, max((abs(tab[i, self.rhs]) for i in range(self.nrows)),
                     default=1.0))

    def _pivot_cap(self):
        return _FLOAT_PIVOT_CAP

    def _cell(self, i, j, k=1, den=1):
        return float(k) * float(self.tab[i, j]) / den

    def _entering(self, cost_idx, bland):
        zrow = self.tab[cost_idx]
        cand = np.where(~self.art_mask & (zrow < -_PIVOT_TOL))[0]
        if cand.size == 0:
            return None
        return int(cand[0]) if bland else int(cand[np.argmin(zrow[cand])])

    def _leaving(self, enter):
        tab = self.tab
        colv = tab[:self.nrows, enter]
        pos = np.where(colv > _PIVOT_TOL)[0]
        if pos.size == 0:
            return None
        ratios = tab[pos, self.rhs] / colv[pos]
        best = ratios.min()
        ties = pos[np.where(ratios <= best + _PIVOT_TOL * (1 + abs(best)))[0]]
        return int(min(ties, key=lambda i: self.basis[i]))

    def _degenerate(self, r):
        return self.tab[r, self.rhs] <= _PIVOT_TOL

    def _first_usable(self, r):
        row = self.tab[r, :self.rhs]
        cand = np.where(~self.art_mask[:self.rhs]
                        & (np.abs(row) > _PIVOT_TOL))[0]
        return int(cand[0]) if cand.size else None

    def _infeasible(self):
        return -self.tab[self.z1_idx, self.rhs] > self.feas_tol

    def _eliminate(self, r, c):
        tab = self.tab
        piv = tab[r, c]
        if abs(piv) < _PIVOT_TOL:
            raise NumericalBreakdown("pivot element too small")
        tab[r] = tab[r] / piv
        colvals = tab[:, c].copy()
        colvals[r] = 0.0
        tab -= np.outer(colvals, tab[r])
        tab[:, c] = 0.0
        tab[r, c] = 1.0


# ---------------------------------------------------------------------------
# public entry points

def solve_lp(lp: LinearProgram, mode: str = "auto") -> LpResult:
    """Solve the program; exact results are KKT-certified before returning."""
    mode = _resolve_mode(mode, lp.nrows, lp.nvars)
    tableau = _ExactTableau if mode == "exact" else _FloatTableau
    result = tableau(_prepare(lp)).solve()
    if mode == "exact" and result.status == OPTIMAL:
        ok, messages = verify_solution(lp, result)
        if not ok:
            raise LpError("exact optimum failed its own certificate: "
                          + "; ".join(messages))
    return result


def _row_gaps(lp: LinearProgram, x) -> list:
    """a_i . x - b_i for every row i, with x exact: x over one common
    denominator, each row an integer dot product with its int_rows
    numerators, one Fraction per row."""
    xs, dx = common_denominator(x)
    gaps = []
    for (nums, k), (_, _, rhs) in zip(lp.int_rows, lp.rows):
        q = rhs.denominator
        gaps.append(Fraction(sum(map(mul, nums, xs)) * q
                             - rhs.numerator * k * dx, k * dx * q))
    return gaps


def _reduced_costs(lp: LinearProgram, y) -> list:
    """c_j - (A^T y)_j for every column j, with y exact: each y_i / k_i
    (k_i row i's lcm) over one common denominator, each column an integer
    dot product (int_columns), one Fraction per column."""
    dens = [v.denominator * k for v, (_, k) in zip(y, lp.int_rows)]
    dy = lcm(*set(dens))
    ys = [v.numerator * (dy // d) for v, d in zip(y, dens)]
    return [Fraction(c.numerator * dy - sum(map(mul, col, ys)) * c.denominator,
                     c.denominator * dy)
            for c, col in zip(lp.objective, lp.int_columns)]


def point_violations(lp: LinearProgram, x, value, tol=0, gaps=None) -> list:
    """Why x is not a point of lp with objective value: each x >= 0
    variable below 0, each row off its relation and an objective other
    than value, by more than the absolute tol (0, or FLOAT_CHECK_TOL for
    a float result).  x and value are read as exact rationals, a float
    at its exact binary value (exactnum.rat_from, which raises
    NonFiniteError on NaN or an infinity); gaps are x's row gaps
    (_row_gaps) if the caller has them already."""
    if len(x) != lp.nvars:
        return ["certificate has the wrong number of variables"]
    x = [rat_from(v) for v in x]
    ntol = -tol
    msgs = []
    for j, ((lo, _), v) in enumerate(zip(lp.bounds, x)):
        if lo is not None and v < 0 and (not tol or -v > tol):
            msgs.append(f"x[{j}] below lower bound")
    if gaps is None:
        gaps = _row_gaps(lp, x)
    msgs += [f"row {i} violated ({rel})"
             for i, ((_, rel, _), s) in enumerate(zip(lp.rows, gaps))
             if (rel != GE and s > tol) or (rel != LE and s < ntol)]
    if abs(vdot(lp.objective, x) - rat_from(value)) > tol:
        msgs.append("objective value mismatch")
    return msgs


def dual_violations(lp: LinearProgram, y, value, tol=0) -> list:
    """Why y does not certify value as a lower bound of lp, which must be
    min c.x over equality rows Ax = b and x >= 0: each column j with
    (A^T y)_j > c_j, and b.y other than value, by more than the absolute
    tol.  y and value are read as exact rationals, as in
    point_violations."""
    if len(y) != lp.nrows:
        return ["certificate has the wrong number of duals"]
    y = [rat_from(v) for v in y]
    msgs = [f"duals violate column {j}"
            for j, r in enumerate(_reduced_costs(lp, y))
            if r < 0 and (not tol or -r > tol)]
    if abs(vdot([b for _, _, b in lp.rows], y) - rat_from(value)) > tol:
        msgs.append("dual objective does not match the certificate")
    return msgs


def verify_solution(lp: LinearProgram, result: LpResult):
    """Full KKT check of an optimal result against the original program.

    Every check is exact: x, the duals and the value are read as exact
    rationals, floats at their exact binary values, and must hold with
    zero tolerance for an exact result, within FLOAT_CHECK_TOL (1e-7)
    for a float one; a NaN or an infinity fails.  Returns (ok,
    messages); together the conditions (primal feasibility and the
    objective, from point_violations, then dual signs, complementary
    slackness, and reduced costs: of the optimal sign on an x >= 0
    variable at 0, zero on every other variable, x >= 0 or free) certify
    optimality.  Row gaps and reduced costs are integer sums (_row_gaps,
    _reduced_costs).
    """
    if result.status != OPTIMAL:
        raise ValueError("only optimal results carry a certificate")
    tol = 0 if result.mode == "exact" else FLOAT_CHECK_TOL
    if len(result.x) != lp.nvars or len(result.duals) != lp.nrows:
        return False, ("certificate has wrong dimensions",)
    try:
        x = [rat_from(v) for v in result.x]
        y = [rat_from(v) for v in result.duals]
        value = rat_from(result.value)
    except NonFiniteError:
        return False, ("certificate has a non-finite value",)

    slacks = _row_gaps(lp, x)
    msgs = point_violations(lp, x, value, tol, slacks)

    def exceeds(a, b):
        """a > b by more than tol, which grows with 1 + |a - b|."""
        return a > b and (not tol or a - b > tol * (1 + a - b))

    minimizing = lp.sense == "min"
    ntol = -tol
    for i, (_, rel, _) in enumerate(lp.rows):
        yi, s = y[i], slacks[i]
        if rel == LE and (yi > tol if minimizing else yi < ntol):
            msgs.append(f"dual sign wrong on row {i} (<=)")
        if rel == GE and (yi < ntol if minimizing else yi > tol):
            msgs.append(f"dual sign wrong on row {i} (>=)")
        if yi and s and (not tol or abs(yi * s) > tol * (1 + abs(yi))):
            msgs.append(f"complementary slackness fails on row {i}")

    for j, ((lo, _), r, v) in enumerate(zip(lp.bounds,
                                            _reduced_costs(lp, y), x)):
        if lo is not None and (v == 0 or tol and abs(v) <= tol):
            if exceeds(0, r) if minimizing else exceeds(r, 0):
                msgs.append(f"reduced cost sign wrong at lower bound x[{j}]")
        elif exceeds(r, 0) or exceeds(0, r):
            msgs.append(f"reduced cost nonzero on interior variable x[{j}]")

    return not msgs, tuple(msgs)
