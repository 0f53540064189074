"""Linear programming: two-phase primal simplex, exact or floating point.

Exact mode keeps the tableau as one integer matrix plus a positive common
denominator and pivots fraction-free: the update
``T'[i] = (T[i]*T[r][c] - T[r]*T[i][c]) // d`` divides exactly (every entry
is a minor of the starting integer matrix), so no rationals appear inside
the hot loop and every optimal result is certified by a full KKT check
before it is returned.  Float mode runs the same algorithm on a numpy
tableau with fixed tolerances and raises NumericalBreakdown instead of
returning garbage when the arithmetic degrades.

Variables carry individual bounds.  Free variables are split into a
difference of two nonnegative ones, finite lower bounds are shifted to
zero, and finite upper bounds become internal rows; callers only ever see
the original variable space, with one dual value per original row.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from quadlin.exactnum import ZERO, rat

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)

MODE_ENV_VAR = "QUADLIN_MODE"
EXACT_SIZE_LIMIT = 260      # beyond this many rows or vars, auto picks float

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
    """min or max objective . x subject to rows and per-variable bounds.

    rows: tuple of (coeffs, relation, rhs), relation in {"<=", "=", ">="}.
    bounds: per variable (lower, upper); None means unbounded on that side.
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
            lo = None if lo is None else rat(lo)
            hi = None if hi is None else rat(hi)
            bnds.append((lo, hi))
        if len(bnds) != n:
            raise ValueError("bounds length mismatch")
        object.__setattr__(self, "bounds", tuple(bnds))

    @property
    def nvars(self) -> int:
        return len(self.objective)

    @property
    def nrows(self) -> int:
        return len(self.rows)


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

class _Prepared:
    __slots__ = ("ncols", "col_meta", "rows_int", "rels", "row_scale",
                 "n_user", "obj_int", "obj_scale", "obj_const",
                 "sense_sign", "bound_infeasible")


def _lcm(a, b):
    return a * b // gcd(a, b)


def _prepare(lp: LinearProgram) -> _Prepared:
    p = _Prepared()
    p.sense_sign = 1 if lp.sense == "min" else -1
    p.bound_infeasible = False

    col_meta = []
    ncols = 0
    extra = []  # (sparse coeffs, rhs) rows for finite upper bounds, all "<="
    shift = [ZERO] * lp.nvars
    for j, (lo, hi) in enumerate(lp.bounds):
        if lo is None:
            cp, cn = ncols, ncols + 1
            ncols += 2
            col_meta.append(("split", cp, cn))
            if hi is not None:
                extra.append(({cp: 1, cn: -1}, hi))
        else:
            c = ncols
            ncols += 1
            col_meta.append(("shift", c, lo))
            shift[j] = lo
            if hi is not None:
                if hi < lo:
                    p.bound_infeasible = True
                extra.append(({c: 1}, hi - lo))
    p.ncols = ncols
    p.col_meta = col_meta

    def to_cols(coeffs):
        dense = [ZERO] * ncols
        for j, a in enumerate(coeffs):
            if a == 0:
                continue
            meta = col_meta[j]
            if meta[0] == "shift":
                dense[meta[1]] += a
            else:
                dense[meta[1]] += a
                dense[meta[2]] -= a
        return dense

    rows_int = []
    rels = []
    row_scale = []

    def add_row(dense, rel, rhs):
        sign = 1
        if rhs < 0:
            dense = [-a for a in dense]
            rhs = -rhs
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            sign = -1
        k = 1
        for v in dense + [rhs]:
            k = _lcm(k, v.denominator)
        rows_int.append([int(v * k) for v in dense] + [int(rhs * k)])
        rels.append(rel)
        row_scale.append(Fraction(sign * k))

    for coeffs, rel, rhs in lp.rows:
        dense = to_cols(coeffs)
        shifted_rhs = rhs - sum(a * s for a, s in zip(coeffs, shift) if s)
        add_row(dense, rel, shifted_rhs)
    p.n_user = len(lp.rows)
    for sparse, rhs in extra:
        dense = [ZERO] * ncols
        for c, a in sparse.items():
            dense[c] = rat(a)
        add_row(dense, LE, rhs)

    p.rows_int = rows_int
    p.rels = rels
    p.row_scale = row_scale

    obj = [ZERO] * ncols
    const = ZERO
    for j, cj in enumerate(lp.objective):
        if cj == 0:
            continue
        meta = col_meta[j]
        if meta[0] == "shift":
            obj[meta[1]] += p.sense_sign * cj
            const += cj * meta[2]
        else:
            obj[meta[1]] += p.sense_sign * cj
            obj[meta[2]] -= p.sense_sign * cj
    scale = 1
    for v in obj:
        scale = _lcm(scale, v.denominator)
    p.obj_int = [int(v * scale) for v in obj]
    p.obj_scale = scale
    p.obj_const = const
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
# exact simplex

def _pivot_int(tab, d, r, c):
    """Fraction-free pivot; returns the new denominator (sign of T[r][c])."""
    prow = tab[r]
    piv = prow[c]
    for i in range(len(tab)):
        if i == r:
            continue
        row = tab[i]
        f = row[c]
        if f:
            tab[i] = [(v * piv - pv * f) // d for v, pv in zip(row, prow)]
        elif piv != d:
            tab[i] = [(v * piv) // d for v in row]
    return piv


def _negate_tableau(tab, d):
    for i, row in enumerate(tab):
        tab[i] = [-v for v in row]
    return -d


class _Tableau:
    """Column layout and starting basis shared by both tableaus.

    Structural columns come first, then one slack per inequality row, then
    one artificial per >= or = row, then the right-hand side; the starting
    basis takes each row's slack if the row is <=, else its artificial.
    Below the constraint rows sit the phase-2 and the phase-1 cost rows.
    """

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
        self.nrows = nrows
        self.slack_col = slack_col
        self.art_col = art_col
        self.z2_idx = nrows
        self.z1_idx = nrows + 1
        self.pivots = 0

    def _int_rows(self, prep: _Prepared):
        """Yield the constraint rows and the phase-2 cost row as int lists."""
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


class _ExactTableau(_Tableau):
    def __init__(self, prep: _Prepared):
        super().__init__(prep)
        tab = list(self._int_rows(prep))
        z1 = [0] * (self.rhs + 1)
        for ac in self.art_col.values():
            z1[ac] = 1
        for i in self.art_col:
            z1 = [a - b for a, b in zip(z1, tab[i])]
        tab.append(z1)
        self.tab = tab
        self.d = 1
        self.art_set = frozenset(self.art_col.values())

    def _phase(self, cost_idx):
        tab, rhs = self.tab, self.rhs
        bland = False
        degen_run = 0
        stall_limit = max(40, self.nrows)
        while True:
            zrow = tab[cost_idx]
            enter = None
            if bland:
                for j in range(rhs):
                    if j not in self.art_set and zrow[j] < 0:
                        enter = j
                        break
            else:
                best = 0
                for j in range(rhs):
                    if j not in self.art_set and zrow[j] < best:
                        best = zrow[j]
                        enter = j
            if enter is None:
                return OPTIMAL
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
            if leave is None:
                return UNBOUNDED
            if tab[leave][rhs] == 0:
                degen_run += 1
                if degen_run > stall_limit:
                    bland = True
            else:
                degen_run = 0
            self.d = _pivot_int(tab, self.d, leave, enter)
            self.basis[leave] = enter
            self.pivots += 1
            if self.pivots > _PIVOT_HARD_CAP:
                raise LpError("pivot cap exceeded in exact mode")

    def drive_out_artificials(self):
        for i in range(self.nrows):
            if self.basis[i] not in self.art_set:
                continue
            row = self.tab[i]
            enter = next((j for j in range(self.rhs)
                          if j not in self.art_set and row[j] != 0), None)
            if enter is None:
                continue  # all-zero row: the constraint was redundant
            self.d = _pivot_int(self.tab, self.d, i, enter)
            if self.d < 0:
                self.d = _negate_tableau(self.tab, self.d)
            self.basis[i] = enter
            self.pivots += 1


def _solve_exact(lp: LinearProgram, prep: _Prepared):
    t = _ExactTableau(prep)
    if t.art_col:
        status = t._phase(t.z1_idx)
        if status != OPTIMAL:
            raise LpError("phase 1 cannot be unbounded")
        if t.tab[t.z1_idx][t.rhs] != 0:  # value = -cell/d stayed positive
            return INFEASIBLE, None, None, None, t.pivots
        t.drive_out_artificials()
    status = t._phase(t.z2_idx)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None, None, t.pivots

    d = t.d
    vals = [ZERO] * prep.ncols
    for i in range(t.nrows):
        b = t.basis[i]
        if b < prep.ncols:
            vals[b] = Fraction(t.tab[i][t.rhs], d)
    x = []
    for meta in prep.col_meta:
        if meta[0] == "shift":
            x.append(vals[meta[1]] + meta[2])
        else:
            x.append(vals[meta[1]] - vals[meta[2]])

    zrow = t.tab[t.z2_idx]
    v_scaled = Fraction(-zrow[t.rhs], d)
    value = prep.sense_sign * v_scaled / prep.obj_scale + prep.obj_const

    duals = []
    for i in range(prep.n_user):
        col = t.art_col.get(i, t.slack_col.get(i))
        y_int = Fraction(-zrow[col], d)
        duals.append(prep.sense_sign * prep.row_scale[i] * y_int
                     / prep.obj_scale)
    return OPTIMAL, value, tuple(x), tuple(duals), t.pivots


# ---------------------------------------------------------------------------
# float simplex

class _FloatTableau(_Tableau):
    def __init__(self, prep: _Prepared):
        super().__init__(prep)
        width = self.rhs + 1
        tab = np.zeros((self.nrows + 2, width))
        for i, line in enumerate(self._int_rows(prep)):
            tab[i] = line
        z1 = np.zeros(width)
        for ac in self.art_col.values():
            z1[ac] = 1.0
        for i in self.art_col:
            z1 -= tab[i]
        tab[self.nrows + 1] = z1
        self.tab = tab
        self.art_mask = np.zeros(width, dtype=bool)
        self.art_mask[list(self.art_col.values())] = True
        self.art_mask[self.rhs] = True

    def _pivot(self, r, c):
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
        self.basis[r] = c
        self.pivots += 1
        if self.pivots > _FLOAT_PIVOT_CAP:
            raise NumericalBreakdown("pivot cap exceeded in float mode")

    def _phase(self, cost_idx):
        tab, rhs = self.tab, self.rhs
        bland = False
        degen_run = 0
        stall_limit = max(40, self.nrows)
        while True:
            zrow = tab[cost_idx]
            cand = np.where(~self.art_mask & (zrow < -_PIVOT_TOL))[0]
            if cand.size == 0:
                return OPTIMAL
            enter = int(cand[0]) if bland else int(cand[np.argmin(zrow[cand])])
            colv = tab[:self.nrows, enter]
            pos = np.where(colv > _PIVOT_TOL)[0]
            if pos.size == 0:
                return UNBOUNDED
            ratios = tab[pos, rhs] / colv[pos]
            best = ratios.min()
            ties = pos[np.where(ratios <= best + _PIVOT_TOL * (1 + abs(best)))[0]]
            leave = int(min(ties, key=lambda i: self.basis[i]))
            if tab[leave, rhs] <= _PIVOT_TOL:
                degen_run += 1
                if degen_run > stall_limit:
                    bland = True
            else:
                degen_run = 0
            self._pivot(leave, enter)

    def drive_out_artificials(self):
        for i in range(self.nrows):
            if not self.art_mask[self.basis[i]]:
                continue
            row = self.tab[i]
            cand = np.where(~self.art_mask[:self.rhs]
                            & (np.abs(row[:self.rhs]) > _PIVOT_TOL))[0]
            if cand.size == 0:
                continue
            self._pivot(i, int(cand[0]))


def _solve_float(lp: LinearProgram, prep: _Prepared):
    t = _FloatTableau(prep)
    feas_tol = _FEAS_TOL * max(
        1.0, max((abs(t.tab[i, t.rhs]) for i in range(t.nrows)), default=1.0))
    if t.art_col:
        status = t._phase(t.z1_idx)
        if status != OPTIMAL:
            raise NumericalBreakdown("phase 1 reported unbounded")
        if -t.tab[t.z1_idx, t.rhs] > feas_tol:
            return INFEASIBLE, None, None, None, t.pivots
        t.drive_out_artificials()
    status = t._phase(t.z2_idx)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None, None, t.pivots

    vals = np.zeros(prep.ncols)
    for i in range(t.nrows):
        b = t.basis[i]
        if b < prep.ncols:
            vals[b] = t.tab[i, t.rhs]
    x = []
    for meta in prep.col_meta:
        if meta[0] == "shift":
            x.append(float(vals[meta[1]]) + float(meta[2]))
        else:
            x.append(float(vals[meta[1]]) - float(vals[meta[2]]))

    zrow = t.tab[t.z2_idx]
    value = (prep.sense_sign * (-float(zrow[t.rhs])) / prep.obj_scale
             + float(prep.obj_const))
    duals = []
    for i in range(prep.n_user):
        col = t.art_col.get(i, t.slack_col.get(i))
        y_int = -float(zrow[col])
        duals.append(prep.sense_sign * float(prep.row_scale[i]) * y_int
                     / prep.obj_scale)
    return OPTIMAL, value, tuple(x), tuple(duals), t.pivots


# ---------------------------------------------------------------------------
# public entry points

def solve_lp(lp: LinearProgram, mode: str = "auto") -> LpResult:
    """Solve the program; exact results are KKT-certified before returning."""
    mode = _resolve_mode(mode, lp.nrows, lp.nvars)
    prep = _prepare(lp)
    if prep.bound_infeasible:
        return LpResult(status=INFEASIBLE, mode=mode)
    if mode == "exact":
        status, value, x, duals, pivots = _solve_exact(lp, prep)
    else:
        status, value, x, duals, pivots = _solve_float(lp, prep)
    result = LpResult(status=status, value=value, x=x, duals=duals,
                      mode=mode, pivots=pivots)
    if mode == "exact" and status == OPTIMAL:
        ok, messages = verify_solution(lp, result)
        if not ok:
            raise LpError("exact optimum failed its own certificate: "
                          + "; ".join(messages))
    return result


def verify_solution(lp: LinearProgram, result: LpResult, tol=None):
    """Full KKT check of an optimal result against the original program.

    Exact results are checked with zero tolerance, float results within
    tol (default 1e-7).  Returns (ok, messages); together the conditions
    (primal feasibility, dual signs, complementary slackness, reduced
    costs consistent with active bounds) certify optimality.
    """
    if result.status != OPTIMAL:
        raise ValueError("only optimal results carry a certificate")
    exact = result.mode == "exact"
    if tol is None:
        tol = 0 if exact else _FEAS_TOL
    if exact:
        x = [rat(v) for v in result.x]
        y = [rat(v) for v in result.duals]
        conv = rat
    else:
        x = [float(v) for v in result.x]
        y = [float(v) for v in result.duals]
        conv = float
    msgs = []
    n = lp.nvars
    if len(x) != n or len(y) != lp.nrows:
        return False, ("certificate has wrong dimensions",)

    for j, (lo, hi) in enumerate(lp.bounds):
        if lo is not None and x[j] < conv(lo) - tol:
            msgs.append(f"x[{j}] below lower bound")
        if hi is not None and x[j] > conv(hi) + tol:
            msgs.append(f"x[{j}] above upper bound")

    slacks = []
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        s = sum(conv(a) * v for a, v in zip(coeffs, x)) - conv(rhs)
        slacks.append(s)
        if rel == LE and s > tol:
            msgs.append(f"row {i} violated (<=)")
        elif rel == GE and s < -tol:
            msgs.append(f"row {i} violated (>=)")
        elif rel == EQ and abs(s) > tol:
            msgs.append(f"row {i} violated (=)")

    obj = sum(conv(c) * v for c, v in zip(lp.objective, x))
    if abs(obj - conv(result.value)) > tol:
        msgs.append("objective value mismatch")

    minimizing = lp.sense == "min"
    for i, (_, rel, _) in enumerate(lp.rows):
        yi = y[i]
        if rel == LE and (yi > tol if minimizing else yi < -tol):
            msgs.append(f"dual sign wrong on row {i} (<=)")
        if rel == GE and (yi < -tol if minimizing else yi > tol):
            msgs.append(f"dual sign wrong on row {i} (>=)")
        scale = 1 + abs(yi)
        if abs(yi * slacks[i]) > tol * scale:
            msgs.append(f"complementary slackness fails on row {i}")

    for j in range(n):
        r = conv(lp.objective[j]) - sum(
            conv(lp.rows[i][0][j]) * y[i] for i in range(lp.nrows))
        lo, hi = lp.bounds[j]
        at_lo = lo is not None and abs(x[j] - conv(lo)) <= tol
        at_hi = hi is not None and abs(x[j] - conv(hi)) <= tol
        scale = 1 + abs(r)
        if at_lo and at_hi:
            continue  # fixed variable: any reduced cost is fine
        if at_lo:
            if (r < -tol * scale) if minimizing else (r > tol * scale):
                msgs.append(f"reduced cost sign wrong at lower bound x[{j}]")
        elif at_hi:
            if (r > tol * scale) if minimizing else (r < -tol * scale):
                msgs.append(f"reduced cost sign wrong at upper bound x[{j}]")
        elif abs(r) > tol * scale:
            msgs.append(f"reduced cost nonzero on interior variable x[{j}]")

    return not msgs, tuple(msgs)
