"""Linear programming: one two-phase primal simplex over two arithmetics.

The simplex is written once (``_Tableau``): Dantzig pricing that switches
to Bland's rule after a long run of degenerate pivots, phase 1, driving
basic artificials out of the basis, phase 2, one read-back of x, the
value and the duals, and every sign test, each against the mode's
tolerance (0 in exact mode).  The tableau is built from the
LinearProgram in one step: the column layout and the starting basis are
laid out once, the rows' nonzeros are scattered into one numpy array of
zeros in the mode's arithmetic, and each arithmetic supplies only the
ratio test, the elimination step and the read of a cell.  Exact mode
writes each row's integer numerators over lcm(k, the rhs's denominator),
keeps the tableau as one numpy int64 array over a positive common
denominator d and pivots fraction-free (Bareiss): every entry is a minor
of the starting integer matrix, so each division is exact and no
rational appears in the loop.  Before an update could leave int64 the
array moves to Python ints and the same code goes on; the ratio test and
the read-back work in Python ints throughout.  Every exact optimum is
certified before it is returned, by weak duality (verify_solution): x is
a point of the program (point_violations), the duals y are feasible for
its dual (dual_violations), and both reach the value.  Float mode starts
from the LP's own coefficients, correctly rounded (a row is negated
where its rhs is negative), so its fixed tolerances act at the LP's own
scale; as in exact mode, a pivot subtracts its row only from the rows
with a nonzero in its column.  It raises NumericalBreakdown instead of
returning garbage when the arithmetic degrades, and its optima are not
checked here: only a replay (verify_solution, bounds.verify_report)
checks one, within FLOAT_CHECK_TOL (1e-7).

A LinearProgram stores each row sparse: its nonzero coefficients as
(index, value) pairs, indices ascending (linear_program takes dense rows
and keeps only their nonzeros).  It takes each row once, on first use,
to integer numerators over the lcm of its denominators (int_rows, by
column int_columns), and its objective alike (int_objective); the
tableau and the checks read only those nonzeros, and the checks
evaluate every row and reduced cost as an integer dot product and test
its sign on the numerator.  Every check is exact, for float results
too: a float is read at its exact binary value, and a float result
passes within an absolute FLOAT_CHECK_TOL, an exact one with none.
with_rhs gives a program new right-hand sides and shares everything
else, so a program solved for many right-hand sides is validated and
taken to integers once.

Every program is a minimum over x >= 0, the one kind quadlin builds: a
maximum is minus the minimum of the negated objective, and a free
variable is the difference of two nonnegative ones, which the caller
splits.  A result has one dual value per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from quadlin.exactnum import (ZERO, NonFiniteError, common_denominator, rat,
                              rat_from, vdot)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)

EXACT_SIZE_LIMIT = 260      # beyond this many rows or vars, auto picks float

# every check of a float result: an absolute tolerance, the exact 1/10**7
FLOAT_CHECK_TOL = Fraction(1, 10 ** 7)

_FEAS_TOL = 1e-7            # float mode: feasibility / phase-1 acceptance
_PIVOT_TOL = 1e-9           # float mode: smallest usable pivot / cost entry
_PIVOT_HARD_CAP = 200_000   # exact mode safety net (Bland terminates first)
_INT64_SAFE = 2 ** 31       # exact mode: int64 while max|T| stays below
_FLOAT_PIVOT_CAP = 50_000


class LpError(RuntimeError):
    """Internal solver failure (certificate mismatch, pivot cap)."""


class NumericalBreakdown(LpError):
    """Float mode lost too much precision to continue."""


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x subject to rows, over x >= 0.

    objective: one coefficient per variable.  rows: tuple of (coeffs,
    relation, rhs), relation in {"<=", "=", ">="}, coeffs the row's
    nonzero coefficients as (index, value) pairs, indices ascending and
    in range(nvars); an unsorted, repeated or out-of-range index or a
    zero value is a ValueError.  linear_program takes dense rows.
    All numeric data is exact (Fraction); float mode converts internally.
    """

    objective: tuple
    rows: tuple

    def __post_init__(self):
        obj = tuple(rat(v) for v in self.objective)
        object.__setattr__(self, "objective", obj)
        n = len(obj)
        rows = []
        for coeffs, rel, rhs in self.rows:
            if rel not in _RELATIONS:
                raise ValueError(f"bad relation {rel!r}")
            rows.append((_checked_pairs(coeffs, n), rel, rat(rhs)))
        object.__setattr__(self, "rows", tuple(rows))

    def with_rhs(self, rhs) -> "LinearProgram":
        """This program with the right-hand sides rhs, one per row.

        Only the new values are validated (exact, and one per row); the
        coefficients and their integer forms (int_rows, int_columns,
        int_objective), which do not depend on the right-hand sides, are
        shared with this program, so building its tableau works out only
        each row's scale, sign, relation and right-hand side numerator.
        """
        rhs = tuple(rat(v) for v in rhs)
        if len(rhs) != self.nrows:
            raise ValueError("rhs length mismatch")
        new = object.__new__(LinearProgram)
        rows = tuple((coeffs, rel, b)
                     for (coeffs, rel, _), b in zip(self.rows, rhs))
        for name, value in (("objective", self.objective), ("rows", rows),
                            ("int_rows", self.int_rows),
                            ("int_columns", self.int_columns),
                            ("int_objective", self.int_objective)):
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
        """Per row, ((index, integer numerator) pairs of its nonzero
        coefficients, their lcm k), worked out on first use and kept; not
        part of equality or hashing.  The tableau and every certificate
        check read it."""
        out = []
        for coeffs, _, _ in self.rows:
            nums, k = common_denominator(v for _, v in coeffs)
            out.append((tuple(zip((j for j, _ in coeffs), nums)), k))
        return tuple(out)

    @cached_property
    def int_columns(self) -> tuple:
        """int_rows by variable: per column, its (row, integer numerator)
        pairs, rows ascending, worked out on first use and kept; the
        reduced costs read them."""
        columns = [[] for _ in range(self.nvars)]
        for i, (pairs, _) in enumerate(self.int_rows):
            for j, v in pairs:
                columns[j].append((i, v))
        return tuple(map(tuple, columns))

    @cached_property
    def int_objective(self) -> tuple:
        """(integer numerators of the objective, their lcm), worked out on
        first use and kept; the tableau reads it."""
        return common_denominator(self.objective)


def _checked_pairs(coeffs, n: int) -> tuple:
    """coeffs as (index, Fraction) pairs, checked: int indices ascending
    in range(n), nonzero values."""
    pairs, last = [], -1
    for j, v in coeffs:
        v = rat(v)
        if not (isinstance(j, int) and last < j < n) or not v:
            raise ValueError(
                f"bad coefficient pair {(j, v)!r}: indices ascend in "
                f"range({n}) and values are nonzero")
        pairs.append((j, v))
        last = j
    return tuple(pairs)


def nonzero_pairs(values) -> tuple:
    """The nonzero entries of a dense row, as (index, value) pairs: a
    LinearProgram row's coefficients."""
    return tuple((j, v) for j, v in enumerate(values) if v)


def linear_program(sense, objective, rows, bounds=None) -> LinearProgram:
    """min objective . x subject to rows, over x >= 0, checked: sense must
    be "min" and no bounds may be given.  rows are (coeffs, relation,
    rhs) with coeffs dense, one per variable; the LinearProgram keeps
    their nonzeros.  A maximum is minus the minimum of the negated
    objective; a free variable x is x+ - x- over two nonnegative
    variables."""
    if sense != "min":
        raise ValueError(f"every program is a minimum, got {sense!r}: "
                         "minimize the negated objective instead")
    if bounds is not None:
        raise ValueError("every variable is x >= 0: split a free variable "
                         "x into x+ - x-")
    objective = tuple(objective)
    sparse = []
    for coeffs, rel, rhs in rows:
        coeffs = [rat(v) for v in coeffs]
        if len(coeffs) != len(objective):
            raise ValueError("row length mismatch")
        sparse.append((nonzero_pairs(coeffs), rel, rhs))
    return LinearProgram(objective, tuple(sparse))


@dataclass(frozen=True)
class LpResult:
    status: str
    value: object = None        # Fraction (exact) or float
    x: tuple = None
    duals: tuple = None         # one per original row
    mode: str = "exact"
    pivots: int = 0


def _resolve_mode(mode: str, nrows: int, nvars: int) -> str:
    """exact or float as given; auto is float past EXACT_SIZE_LIMIT rows
    or vars, else exact."""
    if mode in ("exact", "float"):
        return mode
    if mode != "auto":
        raise ValueError(f"mode must be auto, exact or float, got {mode!r}")
    return "float" if max(nrows, nvars) > EXACT_SIZE_LIMIT else "exact"


# ---------------------------------------------------------------------------
# the simplex, once for both arithmetics

_FLIPPED = {LE: GE, GE: LE, EQ: EQ}


class _Tableau:
    """Two-phase primal simplex over a tableau whose arithmetic the
    subclass supplies.

    _Tableau(lp) lays the tableau out once for both modes and hands the
    mode's _build the integer rows' nonzeros: row i is lp's integer row
    (int_rows) over s_i = lcm(its k, its rhs's denominator), negated,
    with "<=" and ">=" swapped, where its rhs is negative, so that every
    right-hand side is nonnegative, and its scale is that sign times s_i;
    the objective row is int_objective over its lcm.  _build scatters
    them into one array of zeros in the mode's arithmetic, adds the
    phase-1 cost row and sets the row_scale and obj_scale that the
    read-back divides by.  Structural columns come first, then one slack
    per inequality row, then one artificial per >= or = row, then the
    right-hand side; the starting basis takes each row's slack if the
    row is <=, else its artificial.  Below the constraint rows sit the
    phase-2 and the phase-1 cost rows.

    Pricing is Dantzig's rule until more than max(40, rows) degenerate
    pivots in a row, then Bland's rule for the rest of the phase; ratio
    ties go to the row whose basic column has the smallest index.  Every
    sign test is written here once, against the mode's tol (cost and
    cell entries) and feas_tol (the phase-1 value), both 0 in exact mode.
    Subclasses give the mode, the number type (num), the error class,
    the tolerances and the arithmetic: _build, _leaving, _eliminate,
    _cell (k * T[i][j] / den) and _pivot_cap.
    """

    error = LpError
    tol = feas_tol = 0
    # read-back of x and of the value: float mode adds 0.0, which turns a
    # -0.0 into 0.0
    _unsigned_zero = staticmethod(lambda v: v)

    def __init__(self, lp: LinearProgram):
        n = self.ncols = lp.nvars
        rows = []
        for (_, rel, rhs), (pairs, k) in zip(lp.rows, lp.int_rows):
            s = lcm(k, rhs.denominator)
            b = rhs.numerator * (s // rhs.denominator)
            if b < 0:
                s, b, rel = -s, -b, _FLIPPED[rel]
            rows.append((pairs if s == k
                         else [(j, v * (s // k)) for j, v in pairs],
                         b, s, rel))
        rels = [rel for *_, rel in rows]
        slacks = [i for i, rel in enumerate(rels) if rel != EQ]
        arts = [i for i, rel in enumerate(rels) if rel != LE]
        self.slack_col = {i: n + j for j, i in enumerate(slacks)}
        self.art_start = n + len(slacks)
        self.art_col = {i: self.art_start + j for j, i in enumerate(arts)}
        self.rhs = self.art_start + len(arts)
        self.nrows = len(rows)
        # each row's own column: its artificial, else its slack
        self.own = [self.art_col.get(i, self.slack_col.get(i))
                    for i in range(self.nrows)]
        self.basis = list(self.own)
        self.z2_idx = self.nrows
        self.z1_idx = self.nrows + 1
        self.pivots = 0
        # the nonzeros of the constraint rows and the objective row, by
        # row: (row, column, integer) triples
        at, cols, vals = [], [], []
        for i, (pairs, b, _, rel) in enumerate(rows):
            line = list(pairs)
            if rel != EQ:
                line.append((self.slack_col[i], 1 if rel == LE else -1))
            if rel != LE:
                line.append((self.art_col[i], 1))
            if b:
                line.append((self.rhs, b))
            at += [i] * len(line)
            for j, v in line:
                cols.append(j)
                vals.append(v)
        obj, obj_scale = lp.int_objective
        for j, v in enumerate(obj):
            if v:
                at.append(self.z2_idx)
                cols.append(j)
                vals.append(v)
        self._build((at, cols, vals), [s for _, _, s, _ in rows], obj_scale)

    def _entering(self, cost_idx, bland):
        """The entering column: among the cost entries below -tol, the
        first under Bland's rule, else the first of the smallest (the
        row's first smallest entry, if it is below -tol)."""
        zrow = self.tab[cost_idx, :self.art_start]
        if not zrow.size:
            return None
        j = int((zrow < -self.tol).argmax() if bland else zrow.argmin())
        return j if zrow.item(j) < -self.tol else None

    def _degenerate(self, r):
        return self.tab.item(r, self.rhs) <= self.tol

    def _first_usable(self, r):
        """The first column before the artificials whose entry in row r
        exceeds tol in magnitude, else None."""
        row = self.tab[r]
        return next((j for j in row[:self.art_start].nonzero()[0].tolist()
                     if abs(row.item(j)) > self.tol), None)

    def _infeasible(self):
        return -self.tab.item(self.z1_idx, self.rhs) > self.feas_tol

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
                if self.basis[i] >= self.art_start:
                    enter = self._first_usable(i)
                    if enter is not None:  # else the row was redundant
                        self._pivot(i, enter)
        if self._phase(self.z2_idx) == UNBOUNDED:
            return LpResult(UNBOUNDED, mode=self.mode, pivots=self.pivots)

        rhs = self.rhs
        vals = [self.num(0)] * self.ncols
        for i, b in enumerate(self.basis):
            if b < self.ncols:
                vals[b] = self._cell(i, rhs)
        x = tuple(map(self._unsigned_zero, vals))
        # the cost row holds minus the reduced costs and minus the value
        value = self._unsigned_zero(
            self._cell(self.z2_idx, rhs, -1, self.obj_scale))
        duals = tuple(self._cell(self.z2_idx, c, -s, self.obj_scale)
                      for c, s in zip(self.own, self.row_scale))
        return LpResult(OPTIMAL, value, x, duals, self.mode, self.pivots)


class _ExactTableau(_Tableau):
    """Bareiss tableau: a numpy int64 array over one positive common
    denominator d, every entry a minor of the starting integer matrix.
    int64 wraps silently, so where an entry does not fit or an update
    could overflow (_fits), the array moves to Python ints (dtype object)
    and the same code goes on."""

    mode = "exact"
    num = staticmethod(rat)

    def _build(self, nonzeros, row_scale, obj_scale):
        at, cols, vals = nonzeros
        try:
            vals = np.array(vals, dtype=np.int64)
        except OverflowError:
            vals = np.array(vals, dtype=object)
        tab = np.zeros((self.nrows + 2, self.rhs + 1), dtype=vals.dtype)
        tab[at, cols] = vals
        if tab.dtype != object and not _fits(tab):
            tab = tab.astype(object)
        tab[-1] = -tab.take(list(self.art_col), 0).sum(0)
        tab[-1, self.art_start:self.rhs] = 1
        self.tab, self.d = tab, 1
        self.row_scale, self.obj_scale = row_scale, obj_scale

    def _pivot_cap(self):
        return _PIVOT_HARD_CAP

    def _cell(self, i, j, k=1, den=1):
        return Fraction(k * self.tab.item(i, j), den * self.d)

    def _leaving(self, enter):
        col = self.tab[:self.nrows, enter]
        cand = (col > 0).nonzero()[0]
        if not cand.size:
            return None
        ts, bs = col[cand].tolist(), self.tab[cand, self.rhs].tolist()
        basis, cand = self.basis, cand.tolist()
        leave, t, b = cand[0], ts[0], bs[0]
        for i, ti, bi in zip(cand, ts, bs):
            lhs, rhs = bi * t, b * ti
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave, t, b = i, ti, bi
        return leave

    def _eliminate(self, r, c):
        """With piv = |T[r][c]| and p = T[r] signed so that p[c] = piv:
        T'[r] = p, T'[i] = (T[i]*piv - T[i][c]*p) // d where T[i][c] != 0,
        else T[i]*piv // d (if piv != d).  The rows it multiplies, every
        row if piv != d, must _fit first."""
        tab, d = self.tab, self.d
        rows = tab[:, c].nonzero()[0]
        sub = tab.take(rows, 0)
        piv = abs(tab.item(r, c))
        if tab.dtype != object and not _fits(sub if piv == d else tab):
            self.tab = tab.astype(object)
            return self._eliminate(r, c)
        prow = tab[r].copy() if tab.item(r, c) > 0 else -tab[r]
        fp = sub[:, c, None] * prow
        if piv != 1:
            sub *= piv
        sub -= fp
        if d != 1:
            sub //= d
        if piv != d:
            tab *= piv
            tab //= d
        tab[rows] = sub
        tab[r] = prow
        self.d = piv


def _fits(tab) -> bool:
    """max|T| < 2**31: no update, 2 * max|T|**2 at most, leaves int64."""
    return -_INT64_SAFE < tab.min() and tab.max() < _INT64_SAFE


class _FloatTableau(_Tableau):
    """numpy tableau with fixed tolerances; NumericalBreakdown instead of
    a result once the arithmetic degrades."""

    mode = "float"
    num = float
    error = NumericalBreakdown
    tol = _PIVOT_TOL
    _unsigned_zero = staticmethod(lambda v: v + 0.0)

    def _build(self, nonzeros, row_scale, obj_scale):
        """The LP's own coefficients, correctly rounded: a row over a scale
        s other than +-1, and the objective over obj_scale, is divided by
        |s| back to lp's values (sign-flipped where its rhs is negative),
        so the read-back divides by no scale; slacks and artificials stay
        +-1."""
        at, cols, vals = nonzeros
        n, rhs = self.ncols, self.rhs
        scale = [*map(abs, row_scale), obj_scale]
        tab = np.zeros((self.nrows + 2, rhs + 1))
        tab[at, cols] = [v / scale[i] if (j < n or j == rhs) and scale[i] != 1
                         else v for i, j, v in zip(at, cols, vals)]
        z1 = tab[-1]
        z1[self.art_start:rhs] = 1.0
        for i in self.art_col:
            z1 -= tab[i]
        self.tab = tab
        self.feas_tol = _FEAS_TOL * max([1.0, *tab[:self.nrows, rhs].tolist()])
        self.row_scale = [1 if s > 0 else -1 for s in row_scale]
        self.obj_scale = 1

    def _pivot_cap(self):
        return _FLOAT_PIVOT_CAP

    def _cell(self, i, j, k=1, den=1):
        return float(k) * float(self.tab[i, j]) / den

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

    def _eliminate(self, r, c):
        tab = self.tab
        piv = tab[r, c]
        if abs(piv) < _PIVOT_TOL:
            raise NumericalBreakdown("pivot element too small")
        tab[r] = tab[r] / piv
        rows = tab[:, c].nonzero()[0]
        rows = rows[rows != r]
        tab[rows] -= np.outer(tab[rows, c], tab[r])
        tab[:, c] = 0.0
        tab[r, c] = 1.0


# ---------------------------------------------------------------------------
# public entry points

def solve_lp(lp: LinearProgram, mode: str = "auto") -> LpResult:
    """Solve the program; an exact optimum is certified by weak duality
    (verify_solution) before it is returned."""
    mode = _resolve_mode(mode, lp.nrows, lp.nvars)
    tableau = _ExactTableau if mode == "exact" else _FloatTableau
    result = tableau(lp).solve()
    if mode == "exact" and result.status == OPTIMAL:
        ok, messages = verify_solution(lp, result)
        if not ok:
            raise LpError("exact optimum failed its own certificate: "
                          + "; ".join(messages))
    return result


def _ratio(n: int, d: int) -> Fraction:
    """n / d, building no Fraction for n = 0: at an optimum every tight
    row's gap and every basic or split column's reduced cost is 0."""
    return Fraction(n, d) if n else ZERO


def _row_gaps(lp: LinearProgram, x) -> list:
    """a_i . x - b_i for every row i, with x exact: x over one common
    denominator, each row an integer dot product over its int_rows
    nonzeros, one Fraction per nonzero gap."""
    xs, dx = common_denominator(x)
    gaps = []
    for (pairs, k), (_, _, rhs) in zip(lp.int_rows, lp.rows):
        q = rhs.denominator
        gaps.append(_ratio(sum(v * xs[j] for j, v in pairs) * q
                           - rhs.numerator * k * dx, k * dx * q))
    return gaps


def _reduced_costs(lp: LinearProgram, y) -> list:
    """c_j - (A^T y)_j for every column j, with y exact: each y_i / k_i
    (k_i row i's lcm) and c over one common denominator (int_objective),
    each column an integer dot product over its int_columns nonzeros,
    one Fraction per nonzero reduced cost."""
    dens = [v.denominator * k for v, (_, k) in zip(y, lp.int_rows)]
    dy = lcm(*set(dens))
    ys = [v.numerator * (dy // d) for v, d in zip(y, dens)]
    cs, kc = lp.int_objective
    return [_ratio(c * dy - sum(v * ys[i] for i, v in col) * kc, kc * dy)
            for c, col in zip(cs, lp.int_columns)]


def _beyond(v, tol, below=True, above=True) -> bool:
    """v < -tol (if below) or v > tol (if above), for a Fraction v and an
    absolute tol >= 0: a sign test on v's numerator, then, only for a
    nonzero tol, one comparison."""
    n = v.numerator
    return (below and n < 0 or above and n > 0) and (not tol or abs(v) > tol)


def point_violations(lp: LinearProgram, x, value, tol=0) -> list:
    """Why x is not a point of lp with objective value: each variable
    below 0, each row off its relation and an objective other than
    value, by more than the absolute tol (0, or FLOAT_CHECK_TOL for a
    float result).  x and value are read as exact rationals, a float
    at its exact binary value (exactnum.rat_from, which raises
    NonFiniteError on NaN or an infinity)."""
    if len(x) != lp.nvars:
        return ["certificate has the wrong number of variables"]
    x = [rat_from(v) for v in x]
    msgs = [f"x[{j}] below lower bound" for j, v in enumerate(x)
            if _beyond(v, tol, above=False)]
    msgs += [f"row {i} violated ({rel})"
             for i, ((_, rel, _), s) in enumerate(zip(lp.rows,
                                                      _row_gaps(lp, x)))
             if _beyond(s, tol, below=rel != LE, above=rel != GE)]
    if _beyond(vdot(lp.objective, x) - rat_from(value), tol):
        msgs.append("objective value mismatch")
    return msgs


def dual_violations(lp: LinearProgram, y, value, tol=0) -> list:
    """Why y does not certify value as a lower bound of lp, min c.x over
    its rows and x >= 0: each dual of the wrong sign (y_i > 0 on a <=
    row, y_i < 0 on a >= row; an = row's is free), each column j with
    (A^T y)_j > c_j, and b.y other than value, by more than the
    absolute tol.  y and value are read as exact rationals, as in
    point_violations."""
    if len(y) != lp.nrows:
        return ["certificate has the wrong number of duals"]
    y = [rat_from(v) for v in y]
    msgs = [f"dual sign wrong on row {i} ({rel})"
            for i, ((_, rel, _), v) in enumerate(zip(lp.rows, y))
            if _beyond(v, tol, below=rel == GE, above=rel == LE)]
    msgs += [f"duals violate column {j}"
             for j, r in enumerate(_reduced_costs(lp, y))
             if _beyond(r, tol, above=False)]
    if _beyond(vdot([b for _, _, b in lp.rows], y) - rat_from(value), tol):
        msgs.append("dual objective does not match the certificate")
    return msgs


def verify_solution(lp: LinearProgram, result: LpResult):
    """Weak-duality certificate of an optimal result: returns (ok,
    messages).

    x must be a point of lp with objective value (point_violations) and
    the duals must certify value as a lower bound (dual_violations).
    Then c.x = b.y, and as c.x - b.y = r.x + y.(Ax - b), with r the
    reduced costs, is a sum of nonnegative terms at a feasible x and y,
    zero exactly under complementary slackness, both are optimal.  Every
    check is exact: x, the duals and the value are read as exact
    rationals, floats at their exact binary values, and must hold with
    zero tolerance for an exact result, within FLOAT_CHECK_TOL (1e-7)
    for a float one; a NaN or an infinity fails.
    """
    if result.status != OPTIMAL:
        raise ValueError("only optimal results carry a certificate")
    tol = 0 if result.mode == "exact" else FLOAT_CHECK_TOL
    try:
        msgs = (point_violations(lp, result.x, result.value, tol)
                + dual_violations(lp, result.duals, result.value, tol))
    except NonFiniteError:
        return False, ("certificate has a non-finite value",)
    return not msgs, tuple(msgs)
