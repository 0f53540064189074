"""Independent cross-check oracles used by the test suite.

Everything here is written from first principles (enumeration, determinants,
Fourier-style eliminations) and deliberately avoids the production code paths
it is used to check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm


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

def standard_form(lp) -> dict:
    """The integer standard form lpsolve's simplex starts from.

    Every variable is x >= 0 and keeps its one column.  Each row is taken
    to Fraction columns, negated if its right-hand side is negative
    (which flips "<=" and ">="), and scaled by the lcm k of its
    denominators: row_scale is that sign times k.  The objective, a
    minimum's, is scaled the same way by obj_scale.
    """
    out = {"rows_int": [], "rels": [], "row_scale": []}
    for coeffs, rel, rhs in lp.rows:
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
    msgs = [f"x[{j}] below lower bound" for j, v in enumerate(x) if v < 0]
    gaps = [sum(a * v for a, v in zip(coeffs, x)) - rhs
            for coeffs, _, rhs in lp.rows]
    for i, ((_, rel, _), s) in enumerate(zip(lp.rows, gaps)):
        if (rel != ">=" and s > 0) or (rel != "<=" and s < 0):
            msgs.append(f"row {i} violated ({rel})")
    if sum(c * v for c, v in zip(lp.objective, x)) != Fraction(value):
        msgs.append("objective value mismatch")
    for i, ((_, rel, _), s, yi) in enumerate(zip(lp.rows, gaps, y)):
        if (rel == "<=" and yi > 0) or (rel == ">=" and yi < 0):
            msgs.append(f"dual sign wrong on row {i} ({rel})")
        if yi * s != 0:
            msgs.append(f"complementary slackness fails on row {i}")
    for j, (c, v) in enumerate(zip(lp.objective, x)):
        r = c - sum(coeffs[j] * yi for (coeffs, _, _), yi in zip(lp.rows, y))
        if v == 0 and r < 0:
            msgs.append(f"reduced cost sign wrong at lower bound x[{j}]")
        elif v != 0 and r != 0:
            msgs.append(f"reduced cost nonzero on interior variable x[{j}]")
    return msgs


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
