"""Independent cross-check oracles used by the test suite.

Everything here is written from first principles (enumeration, determinants,
Fourier-style eliminations) and deliberately avoids the production code paths
it is used to check.  The exceptions say which part they check:
ListTableau and DenseFloatTableau share the simplex loop and check only
its arithmetic, fraction_fold_ggl shares the fits and checks only
ggl's integer fold, and the fraction_* weak-duality checks share the
LP's integer rows and check only the integer reading of x, y and the
value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

import numpy as np

from quadlin import lpsolve
from quadlin.exactnum import NonFiniteError, common_denominator, rat_from, vdot


# ---------------------------------------------------------------------------
# exact determinants / rank via minors

def det_exact(rows) -> Fraction:
    """Determinant by plain fraction Gaussian elimination with row swaps."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    sign = 1
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            sign = -sign
        piv = a[c][c]
        det *= piv
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] / piv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return sign * det


def minor_rank(rows) -> int:
    """Largest k such that some k-by-k minor has nonzero determinant."""
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    for k in range(min(nr, nc), 0, -1):
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det_exact(sub) != 0:
                    return k
    return 0


# ---------------------------------------------------------------------------
# rational linear systems

def system_solvable(rows, rhs) -> bool:
    """Is A x = b consistent?  Checked via rank(A) == rank([A|b])."""
    rows = [list(r) for r in rows]
    aug = [r + [b] for r, b in zip(rows, rhs)]
    return _elim_rank(rows) == _elim_rank(aug)


def _elim_rank(rows) -> int:
    a = [[Fraction(v) for v in row] for row in rows]
    if not a:
        return 0
    nc = len(a[0])
    rank = 0
    for c in range(nc):
        pr = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[rank], a[pr] = a[pr], a[rank]
        piv = a[rank][c]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c] / piv
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == len(a):
            break
    return rank


def in_row_span(rows, candidate) -> bool:
    rows = [list(r) for r in rows]
    return _elim_rank(rows) == _elim_rank(rows + [list(candidate)])


# ---------------------------------------------------------------------------
# brute-force LP oracle (vertex + extreme-ray enumeration)
#
# Restricted to LPs whose variables all carry finite lower bounds, so the
# feasible region is pointed and every nonempty region has a vertex.

LP_OPTIMAL = "optimal"
LP_INFEASIBLE = "infeasible"
LP_UNBOUNDED = "unbounded"


def _solve_square(rows, rhs):
    n = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(b)]
         for row, b in zip(rows, rhs)]
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            return None
        a[c], a[pr] = a[pr], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [a[i][n] for i in range(n)]


def lp_oracle(sense, objective, constraints, lower_bounds):
    """Exact status/value for a tiny LP by enumerating vertices and rays.

    ``constraints`` is a list of (coeffs, relation, rhs) with relation in
    {"<=", "=", ">="}; every variable must have a finite lower bound.
    Returns (status, value) with value None unless optimal.
    """
    n = len(objective)
    if any(lb is None for lb in lower_bounds):
        raise ValueError("oracle needs finite lower bounds on all variables")
    objective = [Fraction(v) for v in objective]

    # every constraint (and bound) as a >= row: coeffs . x >= rhs
    ge_rows = []
    for coeffs, rel, rhs in constraints:
        coeffs = [Fraction(v) for v in coeffs]
        rhs = Fraction(rhs)
        if rel in ("<=", "="):
            ge_rows.append(([-v for v in coeffs], -rhs))
        if rel in (">=", "="):
            ge_rows.append((list(coeffs), rhs))
    for j, lb in enumerate(lower_bounds):
        row = [Fraction(0)] * n
        row[j] = Fraction(1)
        ge_rows.append((row, Fraction(lb)))

    def feasible(x):
        return all(sum(c * v for c, v in zip(row, x)) >= rhs
                   for row, rhs in ge_rows)

    # vertices: basic solutions of n active rows
    vertices = []
    for active in combinations(range(len(ge_rows)), n):
        sol = _solve_square([ge_rows[i][0] for i in active],
                            [ge_rows[i][1] for i in active])
        if sol is not None and feasible(sol):
            vertices.append(sol)
    if not vertices:
        return LP_INFEASIBLE, None

    # extreme rays: vertices of the normalized recession cone.  All
    # variables are lower bounded, so recession directions satisfy d >= 0
    # and sum(d) = 1 normalizes every ray.
    ray_rows = [(row, Fraction(0)) for row, _ in ge_rows]
    sum_row = [Fraction(1)] * n

    def ray_feasible(d):
        return (all(sum(c * v for c, v in zip(row, d)) >= 0
                    for row, _ in ray_rows)
                and sum(d) == 1)

    if sense not in ("min", "max"):
        raise ValueError(sense)
    sign = 1 if sense == "min" else -1
    for active in combinations(range(len(ray_rows)), n - 1):
        rows = [ray_rows[i][0] for i in active] + [sum_row]
        rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
        d = _solve_square(rows, rhs)
        if d is not None and ray_feasible(d):
            if sign * sum(c * v for c, v in zip(objective, d)) < 0:
                return LP_UNBOUNDED, None

    values = [sum(c * v for c, v in zip(objective, x)) for x in vertices]
    best = min(values) if sense == "min" else max(values)
    return LP_OPTIMAL, best


# ---------------------------------------------------------------------------
# linearization certificates in the paper's own inequalities

def _st_paths(g) -> list:
    """Every s-t path of the DAG g, as a list of arc labels, by
    depth-first enumeration."""
    out = []

    def walk(v, arcs):
        if v == g.target:
            out.append(arcs)
            return
        for label in g.out_arcs[v]:
            walk(g.arcs[label][1], arcs + [label])

    walk(g.source, [])
    return out


def structural_zeros(bqp) -> set:
    """The ordered cells (i, j), i != j, where x_i x_j = 0 on every
    feasible point by the instance's structure alone: two arcs on no
    common s-t path, found by enumerating the paths, or two QAP
    placements (facility i at location j is x[i*n + j]) in one row or
    one column.  A raw instance has none.  On a corridor DAG, where
    every arc lies on an s-t path, these are exactly the pairs that
    neither arc's head reaches the other's tail."""
    kind = bqp.structure[0] if bqp.structure else None
    m = bqp.m
    if kind == "qspp":
        together = {(i, j) for path in _st_paths(bqp.structure[1])
                    for i in path for j in path}
        return {(i, j) for i in range(m) for j in range(m)
                if i != j and (i, j) not in together}
    if kind == "qap":
        n = bqp.structure[1]
        return {(i, j) for i in range(m) for j in range(m) if i != j
                and (i // n == j // n or i % n == j % n)}
    return set()


def linearization_violations(bqp, report) -> list:
    """Where an exact lbb certificate breaks the paper's inequalities.

    With Q's target T = sym(Q), or the raw Q for lbb_generic, and the
    certificate's y, Y, z, alpha and members (Q_t, c_t) -- Y and z zero
    when absent -- checks, in plain Fraction loops:
      B^T y <= 2 Y^T b + z + linear + sum(alpha_t c_t), column by column;
      B^T Y + Y^T B + Diag(z) + sum(alpha_t Q_t) <= T on every ordered
      cell (i, j) but the instance's structural zeros (structural_zeros),
      where x_i x_j = 0 on every feasible point; lbb_generic's check
      skips no cell;
      b . y == report.value.
    """
    B = [[Fraction(v) for v in bqp.B.row(r)] for r in range(bqp.B.rows)]
    b = [Fraction(v) for v in bqp.b]
    q = [[Fraction(v) for v in bqp.Q.row(i)] for i in range(bqp.m)]
    lin = [Fraction(v) for v in bqp.linear]
    n, m = len(B), len(q)
    cert = report.certificate
    y = [Fraction(v) for v in cert["y"]]
    Y = [[Fraction(v) for v in row] for row in cert.get("Y", [[0] * m] * n)]
    z = [Fraction(v) for v in cert.get("z", [0] * m)]
    alpha = [Fraction(v) for v in cert.get("alpha", ())]
    members = [([[Fraction(v) for v in row] for row in qt],
                [Fraction(v) for v in ct])
               for qt, ct in cert.get("members", ())]
    raw = report.name == "lbb_generic"
    skip = set() if raw else structural_zeros(bqp)
    msgs = []
    for j in range(m):
        lhs = sum(B[r][j] * y[r] for r in range(n))
        rhs = (2 * sum(Y[r][j] * b[r] for r in range(n)) + z[j] + lin[j]
               + sum(a * ct[j] for a, (_, ct) in zip(alpha, members)))
        if lhs > rhs:
            msgs.append(f"linear part exceeded at column {j}")
    for i in range(m):
        for j in range(m):
            if (i, j) in skip:
                continue
            lhs = sum(B[r][i] * Y[r][j] + Y[r][i] * B[r][j]
                      for r in range(n))
            lhs += z[i] if i == j else 0
            lhs += sum(a * qt[i][j] for a, (qt, _) in zip(alpha, members))
            target = q[i][j] if raw else (q[i][j] + q[j][i]) / 2
            if lhs > target:
                msgs.append(f"matrix part exceeds Q at ({i}, {j})")
    if sum(bv * yv for bv, yv in zip(b, y)) != report.value:
        msgs.append("b . y differs from the value")
    return msgs


# ---------------------------------------------------------------------------
# standard form of a linear program, in plain Fraction arithmetic

def dense_rows(lp) -> tuple:
    """lp's rows with dense coefficients: (coeffs, relation, rhs), coeffs
    one Fraction per variable, read off the sparse (index, value)
    pairs."""
    out = []
    for pairs, rel, rhs in lp.rows:
        coeffs = [Fraction(0)] * lp.nvars
        for j, v in pairs:
            coeffs[j] = v
        out.append((tuple(coeffs), rel, rhs))
    return tuple(out)


def standard_form(lp) -> dict:
    """The integer standard form lpsolve's simplex starts from.

    Every variable is x >= 0 and keeps its one column.  Each row is taken
    to Fraction columns, negated if its right-hand side is negative
    (which flips "<=" and ">="), and scaled by the lcm k of its
    denominators: row_scale is that sign times k.  The objective, a
    minimum's, is scaled the same way by obj_scale.
    """
    out = {"rows_int": [], "rels": [], "row_scale": []}
    for coeffs, rel, rhs in dense_rows(lp):
        row = [Fraction(v) for v in coeffs]
        rhs = Fraction(rhs)
        sign = 1
        if rhs < 0:
            row, rhs, sign = [-a for a in row], -rhs, -1
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        k = lcm(*(v.denominator for v in row), rhs.denominator)
        out["rows_int"].append([int(v * k) for v in row] + [int(rhs * k)])
        out["rels"].append(rel)
        out["row_scale"].append(Fraction(sign * k))
    obj = [Fraction(c) for c in lp.objective]
    k = lcm(*(v.denominator for v in obj))
    out["obj_scale"] = k
    out["obj_int"] = [int(v * k) for v in obj]
    return out


# ---------------------------------------------------------------------------
# the exact simplex on lists of Python ints

class ListTableau(lpsolve._Tableau):
    """lpsolve's exact tableau as it was written first: a list of Python
    int lists over one positive common denominator d, every row rebuilt
    on each pivot.  It shares lpsolve's simplex loop and keeps the same
    rules (Dantzig pricing, the first index of the minimum; Bland's rule,
    the first negative entry; ratio ties to the smallest basis index), so
    a solve takes the same pivots: it checks only the arithmetic of
    lpsolve's int64 array and its switch to Python ints."""

    mode = "exact"
    num = Fraction

    def _build(self, nonzeros, row_scale, obj_scale):
        rows = [[0] * (self.rhs + 1) for _ in range(self.nrows + 1)]
        for i, j, v in zip(*nonzeros):
            rows[i][j] = v
        z1 = [0] * (self.rhs + 1)
        for ac in self.art_col.values():
            z1[ac] = 1
        for i in self.art_col:
            z1 = [a - b for a, b in zip(z1, rows[i])]
        self.tab = [*rows, z1]
        self.d = 1
        self.row_scale, self.obj_scale = row_scale, obj_scale

    def _pivot_cap(self):
        return lpsolve._PIVOT_HARD_CAP

    def _cell(self, i, j, k=1, den=1):
        return Fraction(k * self.tab[i][j], den * self.d)

    def _entering(self, cost_idx, bland):
        zrow = self.tab[cost_idx]
        enter = None
        best = 0
        for j in range(self.art_start):
            if zrow[j] < best:
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
        return next((j for j in range(self.art_start) if row[j] != 0), None)

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


# ---------------------------------------------------------------------------
# the float simplex with a full outer-product update

class DenseFloatTableau(lpsolve._FloatTableau):
    """lpsolve's float tableau as it was written first: each pivot
    subtracts the outer product of the pivot column and the pivot row
    from the whole array, rows with a zero in the pivot column included.
    Such a row changes at most in the sign of a zero, so every result
    compares equal to lpsolve's: it checks only that lpsolve's update of
    the pivot column's nonzero rows alone leaves the same numbers."""

    def _eliminate(self, r, c):
        tab = self.tab
        piv = tab[r, c]
        if abs(piv) < lpsolve._PIVOT_TOL:
            raise lpsolve.NumericalBreakdown("pivot element too small")
        tab[r] = tab[r] / piv
        colvals = tab[:, c].copy()
        colvals[r] = 0.0
        tab -= np.outer(colvals, tab[r])
        tab[:, c] = 0.0
        tab[r, c] = 1.0


# ---------------------------------------------------------------------------
# LP optimality, condition by condition

def kkt_violations(lp, x, y, value) -> list:
    """The KKT conditions of an optimum x with duals y and objective
    value of lp, min c.x over its rows and x >= 0, each written out and
    checked exactly: x >= 0, every row, c.x = value, the dual signs
    (y_i <= 0 on a <= row, y_i >= 0 on a >= row), complementary slackness
    y_i (a_i.x - b_i) = 0, and the reduced costs r = c - A^T y, r_j >= 0
    where x_j = 0 and r_j = 0 elsewhere.  [] when they all hold; unlike
    weak duality, b.y is never compared with the value."""
    x = [Fraction(v) for v in x]
    y = [Fraction(v) for v in y]
    rows = dense_rows(lp)
    msgs = [f"x[{j}] below lower bound" for j, v in enumerate(x) if v < 0]
    gaps = [sum(a * v for a, v in zip(coeffs, x)) - rhs
            for coeffs, _, rhs in rows]
    for i, ((_, rel, _), s) in enumerate(zip(rows, gaps)):
        if (rel != ">=" and s > 0) or (rel != "<=" and s < 0):
            msgs.append(f"row {i} violated ({rel})")
    if sum(c * v for c, v in zip(lp.objective, x)) != Fraction(value):
        msgs.append("objective value mismatch")
    for i, ((_, rel, _), s, yi) in enumerate(zip(rows, gaps, y)):
        if (rel == "<=" and yi > 0) or (rel == ">=" and yi < 0):
            msgs.append(f"dual sign wrong on row {i} ({rel})")
        if yi * s != 0:
            msgs.append(f"complementary slackness fails on row {i}")
    for j, (c, v) in enumerate(zip(lp.objective, x)):
        r = c - sum(coeffs[j] * yi for (coeffs, _, _), yi in zip(rows, y))
        if v == 0 and r < 0:
            msgs.append(f"reduced cost sign wrong at lower bound x[{j}]")
        elif v != 0 and r != 0:
            msgs.append(f"reduced cost nonzero on interior variable x[{j}]")
    return msgs


# ---------------------------------------------------------------------------
# the weak-duality checks with a Fraction per entry

def _ratio(n: int, d: int) -> Fraction:
    return Fraction(n, d) if n else Fraction(0)


def row_gaps(lp, x) -> list:
    """a_i . x - b_i for every row i, with x exact, one Fraction per
    nonzero gap."""
    xs, dx = common_denominator(x)
    gaps = []
    for (pairs, k), (_, _, rhs) in zip(lp.int_rows, lp.rows):
        q = rhs.denominator
        gaps.append(_ratio(sum(v * xs[j] for j, v in pairs) * q
                           - rhs.numerator * k * dx, k * dx * q))
    return gaps


def _reduced_costs(lp, y) -> list:
    dens = [v.denominator * k for v, (_, k) in zip(y, lp.int_rows)]
    dy = lcm(*set(dens))
    ys = [v.numerator * (dy // d) for v, d in zip(y, dens)]
    cs, kc = lp.int_objective
    return [_ratio(c * dy - sum(v * ys[i] for i, v in col) * kc, kc * dy)
            for c, col in zip(cs, lp.int_columns)]


def _beyond(v, tol, below=True, above=True) -> bool:
    n = v.numerator
    return (below and n < 0 or above and n > 0) and (not tol or abs(v) > tol)


def fraction_point_violations(lp, x, value, tol=0) -> list:
    """lpsolve.point_violations as it was with a Fraction for every
    entry of x, every nonzero row gap and the value."""
    if len(x) != lp.nvars:
        return ["certificate has the wrong number of variables"]
    x = [rat_from(v) for v in x]
    msgs = [f"x[{j}] below lower bound" for j, v in enumerate(x)
            if _beyond(v, tol, above=False)]
    msgs += [f"row {i} violated ({rel})"
             for i, ((_, rel, _), s) in enumerate(zip(lp.rows,
                                                      row_gaps(lp, x)))
             if _beyond(s, tol, below=rel != lpsolve.LE,
                        above=rel != lpsolve.GE)]
    if _beyond(vdot(lp.objective, x) - rat_from(value), tol):
        msgs.append("objective value mismatch")
    return msgs


def fraction_dual_violations(lp, y, value, tol=0) -> list:
    """lpsolve.dual_violations as it was with a Fraction for every dual,
    every nonzero reduced cost and the value."""
    if len(y) != lp.nrows:
        return ["certificate has the wrong number of duals"]
    y = [rat_from(v) for v in y]
    msgs = [f"dual sign wrong on row {i} ({rel})"
            for i, ((_, rel, _), v) in enumerate(zip(lp.rows, y))
            if _beyond(v, tol, below=rel == lpsolve.GE,
                       above=rel == lpsolve.LE)]
    msgs += [f"duals violate column {j}"
             for j, r in enumerate(_reduced_costs(lp, y))
             if _beyond(r, tol, above=False)]
    if _beyond(vdot([b for _, _, b in lp.rows], y) - rat_from(value), tol):
        msgs.append("dual objective does not match the certificate")
    return msgs


def fraction_verify_solution(lp, result) -> tuple:
    """lpsolve.verify_solution over the Fraction checks."""
    tol = 0 if result.mode == "exact" else lpsolve.FLOAT_CHECK_TOL
    try:
        msgs = (fraction_point_violations(lp, result.x, result.value, tol)
                + fraction_dual_violations(lp, result.duals, result.value,
                                           tol))
    except NonFiniteError:
        return False, ("certificate has a non-finite value",)
    return not msgs, tuple(msgs)


def fraction_lbb_duals(cert, alpha=()) -> tuple:
    """The lifting LP's duals of an lbb, gl or ggl certificate, in row
    order, as bounds.verify_report built them with Fractions: y, alpha,
    2 Y and -z, Y and z read exactly before they are scaled."""
    return (*cert["y"], *alpha,
            *(2 * rat_from(v) for row in cert.get("Y", ()) for v in row),
            *(-rat_from(v) for v in cert.get("z", ())))


# ---------------------------------------------------------------------------
# ggl's rounds with a Fraction residual

def fraction_fold_ggl(inst, strategy, max_iter, mode) -> tuple:
    """(value, trace, certificate, pivots) of ggl_bound's rounds with the
    residual, the fitted linear parts and the summed fits held as
    Fractions, entry by entry, as they were before the fold moved to
    integers: each fit's x is reported in the mode's arithmetic (floats
    rounded one by one in float mode), its row gaps are worked out from
    that x at its exact value, and the summed fits are added in the
    mode's arithmetic.  The fits themselves are bounds' DAG programs or
    simplex solves, unchecked, and every column is fitted afresh each
    round."""
    from quadlin import bounds, combinatorial
    from quadlin.graph import shortest_paths
    from quadlin.lpsolve import OPTIMAL, solve_lp

    def report(nums, den):
        if mode == "exact":
            return [Fraction(v, den) for v in nums]
        return [v / den for v in nums]

    def common(values):
        den = lcm(*(v.denominator for v in values))
        return [int(v * den) for v in values], den

    def solved(lp):
        res = solve_lp(lp, mode=mode)
        assert res.status == OPTIMAL, res.status
        return res

    bqp = bounds._bqp(inst)
    n, m = bqp.B.rows, bqp.m
    mode = bounds._bound_mode(bqp, mode, max(m, n), n + 1)
    g = bounds._qspp_graph(bqp)
    programs = bounds._fitting_programs(bqp)

    def fit(k, rhs):  # (x = (y, z), cbar, pivots)
        if g is None:
            res = solved(programs[k].with_rhs(rhs))
            x = res.x
            return ([a - b for a, b in zip(x[::2], x[1::2])], -res.value,
                    res.pivots)
        cost, den = common(rhs)
        y, z, _ = combinatorial.dag_fit(g, cost, k)
        cbar = y[g.source] - y[g.target] + z
        *x, cbar = report([*y, z, cbar], den)
        return x, cbar, 0

    def minimum(costs):  # (value, duals, pivots)
        if g is None:
            res = solved(bounds._polytope_lp(bqp, costs))
            return res.value, res.duals, res.pivots
        nums, den = common(costs)
        dist, _ = shortest_paths(g, nums, g.source)
        pi = [0 if d is None else d for d in dist]
        *duals, value = report([-p for p in pi] + [dist[g.target]], den)
        return value, tuple(duals), 0

    def gaps(k, rhs, x):  # B[:, i].y + [i == k] z - rhs[i], exactly
        x = [Fraction(v) for v in x]
        return [sum((bqp.B.at(r, i) * x[r] for r in range(n)), Fraction(0))
                + (x[n] if i == k else 0) - rhs[i] for i in range(m)]

    half = Fraction(1, 2)
    columns = [bqp.Q.column(k) for k in range(m)]
    c_total = [Fraction(0)] * m
    fitted = [[Fraction(0)] * (n + 1) for _ in range(m)]
    trace, pivots = [], 0
    for it in range(max_iter):
        if it:
            gs = [gaps(k, rhs, x) for k, (rhs, (x, _, _))
                  in enumerate(zip(columns, fits))]
            cols = [[-v for v in col] for col in gs]
            if strategy != bounds.SkewStrategy.NONE:
                w = half if strategy == bounds.SkewStrategy.SYMMETRIZE \
                    else 1
                for i in range(m):
                    for j in range(i + 1, m):
                        cols[j][i] = -w * (gs[j][i] + gs[i][j])
                        cols[i][j] = cols[j][i] if w == half else 0
            columns = [tuple(col) for col in cols]
        fits = [fit(k, rhs) for k, rhs in enumerate(columns)]
        c_total = [a + Fraction(c) for a, (_, c, _) in zip(c_total, fits)]
        fitted = [[a + v for a, v in zip(acc, x)]
                  for acc, (x, _, _) in zip(fitted, fits)]
        value, duals, piv = minimum(
            [a + v for a, v in zip(c_total, bqp.linear)])
        trace.append(value)
        pivots += sum(p for _, _, p in fits) + piv
        if all(Fraction(c) == 0 if mode == "exact" else abs(float(c)) <= 1e-9
               for _, c, _ in fits):
            break
    certificate = {
        "y": duals,
        "Y": tuple(tuple(acc[r] / 2 for acc in fitted) for r in range(n)),
        "z": tuple(acc[n] for acc in fitted)}
    return value, tuple(trace), certificate, pivots
