"""Lower-bound ladder for binary quadratic programs over Bx = b, x >= 0.

Five bounds, ordered v_gl <= v_ggl <= v_lbb_prime == v_rlt1 <= v_lbb_star
<= optimum (the equality is LP duality, and both are read off one LP; the
last step needs an integral polytope and, for lbb_star, a spanning family
of linearizable matrices):

  gl          per-column dual fitting: the best Qbar = B^T Ybar + Diag(zbar)
              below Q elementwise, column by column; bound is the cheapest
              polytope point under the fitted linear costs.
  ggl         iterated gl: subtract the fitted part, optionally shuffle the
              residual with a skew matrix (which never changes x^T R x),
              accumulate the linear parts, repeat.  gl is its first round.
  lbb_prime   one LP over (y, Y, z): max b.y subject to dual feasibility
              and B^T Y + Y^T B + Diag(z) elementwise below sym(Q).
  rlt1        level-1 reformulation-linearization: lift to pair variables
              X with BX = b x^T, diag(X) = x, X >= 0.  Exact LP dual of
              lbb_prime, whose certificate is read off rlt1's duals.
  lbb_star    family bound: pick A = sum(lam_i Q_i) elementwise below
              sym(Q) from a family of linearizable matrices and use its
              linearization; with a spanning family this dominates
              lbb_prime on integral polytopes, and on a corridor DAG
              it equals it.

rlt1, lbb_prime, lbb_star and lbb_generic solve one lifting LP
(_rlt1_lp): min <Q, X> + linear . x over the lifted polytope, plus one
row <Q_t, X> = c_t . x per linearizable member (Q_t, c_t) of a family.
On a structured instance it has no pair variable for a structural zero,
two arcs on no common path or two placements in one row or column of an
assignment, since X is 0 there at every feasible point.
Its dual is the linearization LP (max b.y such that Q minus a combination
of linearizable matrices is elementwise nonnegative), so each lbb bound
reads its linearization certificate off the duals.  lbb_prime uses the
sum matrices B^T Y + Y^T B + Diag(z) alone, lbb_star adds a family, both
against sym(Q); lbb_generic uses a family alone against the raw Q.
Given a family, lbb_star first decides, in exact integers, which
member rows the member-less lifting LP already implies
(_unimplied_members): those get no row and weight 0, and with none left
it takes the solve rlt1 and lbb_prime share.  Every member of a
generator family is implied, and on a corridor DAG so is every
linearizable member: the lifting LP's equality rows cut out the affine
hull of the lifted path points, proved on every corridor DAG on at most
5 vertices (see lbb_star).  So the canonical lbb_star (family=None) is
lbb_prime's solve; it builds no spanning set and runs no rank test.

gl and ggl solve one fitting program per column k: max b.y + z over
free (y, z) subject to B^T y + e_k z <= Q[:, k].  Its row gaps at the
fit are Qbar[:, k] - Q[:, k], so the residual is minus the row gaps,
worked out from B's sparse integer columns (_fit_gaps).  The rounds
run in integers in both modes: the residual is one integer matrix over
one denominator, each fit is read at its exact value, and Fractions
(or, in float mode, correctly rounded floats) are made only for the
report.
On a structured instance no LP is built.  On a shortest-path instance
B is the DAG's flow rows, program k is the dual of "cheapest s-t path
through arc k" and the polytope LP a shortest path, both solved by DAG
dynamic programs.  On a QAP program k is the dual of "cheapest
assignment with placement k fixed" and the polytope LP an assignment,
both solved by the Hungarian method: the Gilmore-Lawler bound.  Each
solver (quadlin.combinatorial) hands over integer duals and the 0/1
point they price, and one weak-duality check against B itself
(_weak_duality) certifies both before use.  Only a
generic BQP takes a simplex solve of each, the program stated as a
minimum over x >= 0, as every quadlin LP is: min -(b.y + z) over the
split y = y+ - y-, z = z+ - z- (_fitting_programs).  A program whose
column is the one it was last fitted for is not fitted again: its
result and row gaps are kept from that round, since the same program
gives the same answer.  As the paper proves, gl and ggl are
linearization bounds: with Ybar and zbar the fits summed over every
round, (y, Ybar / 2, zbar) is an lbb_prime certificate of their value,
y the last round's polytope duals, and it is the certificate they carry.

Every report carries enough certificate data for verify_report to confirm
the bound from first principles without re-running the solver: it
rebuilds the lifting LP (for rlt1, lbb_prime, gl and ggl alike) and
evaluates its rows at the certificate's point, or its columns at the
certificate's duals; a family bound's weighted members are first
confirmed linearizable, as the bound itself confirms them before it
reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from quadlin.exactnum import (
    ONE,
    ZERO,
    NonFiniteError,
    RationalMatrix,
    common_denominator,
    int_echelon,
    int_reduce,
    rat,
    rat_from,
    vdot,
)
from quadlin.combinatorial import (
    assignment_fit,
    assignment_minimum,
    dag_fit,
    dag_minimum,
)
from quadlin.graph import (
    Dag,
    GraphError,
    PathExplosion,
    forbidden_pairs,
    is_corridor,
    reachable_from,
    reaches,
)
from quadlin.lpsolve import (
    EQ,
    FLOAT_CHECK_TOL,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpError,
    LpResult,
    _requested_mode,
    _resolve_mode,
    dual_violations,
    point_violations,
    solve_lp,
)
from quadlin.model import (
    BqpInstance,
    EnumerationTooLarge,
    FloatTaggedError,
    QsppInstance,
    brute_force_opt,
    is_linearization,
    qspp_to_bqp,
    quadratic_value,
)
from quadlin.qspplin import (
    equivalent_cost_vectors,
    linearize_qspp,
    spanning_set,  # unused here; bench/tracing.py wraps this binding by name
)


_HALF = Fraction(1, 2)

# the most rounds ggl_bound runs: exact SYMMETRIZE rarely stops before
# max_iter, and each round adds about a bit to every residual integer;
# 10,000 such rounds took 6.4 s on tournament n = 5 and 17.5 s on n = 7
# (Python 3.11, one core)
MAX_ITER = 10_000


class BoundComputationError(RuntimeError):
    """A bound's internal LP did not come back optimal."""


class ChainViolation(AssertionError):
    """The computed bound values contradict the proven ordering."""


class SkewStrategy(enum.Enum):
    """How ggl reshuffles the residual R with a skew matrix each round.

    Adding skew S never changes x^T R x, so any choice is sound; it only
    redirects where the remaining weight sits for the next fitting round.
    """

    NONE = "none"
    UPPER_TRIANGULAR = "upper_triangular"
    SYMMETRIZE = "symmetrize"


@dataclass(frozen=True)
class BoundReport:
    name: str
    value: object                  # Fraction (exact) or float
    mode: str
    relaxation_only: bool          # polytope not certified integral
    certificate: dict
    trace: tuple = ()              # ggl: bound value after each iteration
    pivots: int = 0                # summed over every LP of every round;
                                   # a kept fitting solve counts again,
                                   # a DAG or assignment fit or minimum
                                   # counts 0;
                                   # lbb_star: the solve it used, shared
                                   # with lbb_prime when no row is left
    canonical_family: bool = False  # lbb_star over its graph's whole
                                    # linearizable family (family=None)


def _bqp(inst) -> BqpInstance:
    if isinstance(inst, QsppInstance):
        return qspp_to_bqp(inst)
    if isinstance(inst, BqpInstance):
        return inst
    raise TypeError(f"expected a problem instance, got {type(inst).__name__}")


def _bound_mode(bqp: BqpInstance, mode: str, nrows: int, nvars: int) -> str:
    """lpsolve's mode rule, with float-tagged data read as float unless
    exact mode is requested, which is refused."""
    if not bqp.float_tagged:
        return _resolve_mode(mode, nrows, nvars)
    if _requested_mode(mode) == "exact":
        raise FloatTaggedError(
            "instance carries float data; exact mode refused")
    return "float"


def _structural_sparsity(bqp: BqpInstance) -> frozenset:
    """Pairs (i, j), i < j, that the instance's structure proves never
    both 1: arcs on no common path (``("qspp", g)``), or two placements
    in one row or one column of the permutation matrix (``("qap", n)``).
    A raw bqp instance has none."""
    kind = bqp.structure[0] if bqp.structure else None
    if kind == "qspp":
        return forbidden_pairs(bqp.structure[1])
    if kind == "qap":
        n = bqp.structure[1]
        return frozenset(
            (i * n + j, k * n + el)
            for i in range(n) for j in range(n)
            for k in range(n) for el in range(n)
            if i * n + j < k * n + el and (i == k or j == el))
    return frozenset()


def _solve(lp, mode, what):
    res = solve_lp(lp, mode=mode)
    if res.status != OPTIMAL:
        raise BoundComputationError(f"{what}: LP is {res.status}")
    return res


def _polytope_lp(bqp: BqpInstance, costs) -> LinearProgram:
    """min costs . x over Bx = b, x >= 0."""
    rows = [(bqp.B.row(i), EQ, bqp.b[i]) for i in range(bqp.B.rows)]
    return LinearProgram(tuple(costs), tuple(rows))


def _split(values) -> tuple:
    """Each v as (v, -v): coefficients on a free variable's split."""
    return tuple(chain.from_iterable((v, -v) for v in values))


def _fitting_programs(bqp: BqpInstance) -> list:
    """The m column-fitting programs with right-hand sides 0.  Program k
    is max b.y + z over free (y, z) subject to B^T y + e_k z <= 0,
    stated as min -(b.y + z) over the nonnegative split
    (y_0+, y_0-, ..., z+, z-), y = y+ - y-, each row coefficient v as
    (v, -v); its value is -cbar[k].  Row i is one of two tuples, with
    z's coefficient 1 or 0, shared by every program."""
    obj = _split(-v for v in (*bqp.b, ONE))
    rows = [[(_split((*bqp.B.column(i), e)), LE, ZERO) for e in (ZERO, ONE)]
            for i in range(bqp.m)]
    return [LinearProgram(obj, tuple(r[i == k] for i, r in enumerate(rows)))
            for k in range(bqp.m)]


def _sparse_columns(B: RationalMatrix) -> tuple:
    """(entries, K): B over the lcm K of its denominators, its nonzero
    entries B[r, i] in the form _fit_gaps reads, three lists: (i, r)
    where the numerator is 1, (i, r) where it is -1, and
    (i, r, numerator) for the rest.  A network or an assignment matrix
    has only the first two, which need no product."""
    nums, K = common_denominator(B.entries)
    entries = ([], [], [])
    for r in range(B.rows):
        for i in range(B.cols):
            v = nums[r * B.cols + i]
            if v in (1, -1):
                entries[v < 0].append((i, r))
            elif v:
                entries[2].append((i, r, v))
    return entries, K


def _fit_gaps(bcols, k: int, rhs, x) -> list:
    """Fitting program k's row gaps B[:, i].y + [i == k] z - rhs[i] at
    x = (y, z), for every column i of B, given as _sparse_columns'
    (entries, K): rhs and x integers over one denominator d, the gaps
    integers over K d, each a sum over B's nonzero entries.  With k = -1
    x is y alone, and the gaps are the polytope LP's dual row gaps
    under the costs rhs.  A structured fit's weak-duality check works
    them out (_weak_duality), and the fit keeps those."""
    (plus, minus, other), K = bcols
    acc = [-v for v in rhs] if K == 1 else [-K * v for v in rhs]
    if k >= 0:
        acc[k] += K * x[-1]
    for i, r in plus:
        acc[i] += x[r]
    for i, r in minus:
        acc[i] -= x[r]
    for i, r, v in other:
        acc[i] += v * x[r]
    return acc


class _Fit(NamedTuple):
    """Column k's fit: x = (y_k, z_k) and its value cbar[k] as integers
    over d, for the column rhs, integers over den, that it was fitted
    for, and program k's row gaps there as (integers, denominator)."""
    rhs: tuple
    den: int
    x: tuple
    cbar: int
    d: int
    gaps: tuple
    pivots: int = 0


def _fit_columns(fit, columns, den, last) -> list:
    """Per column k of the current matrix, integers over den, its _Fit:
    fit(k, rhs, den), the best (y_k, z_k), max b.y_k + z_k with
    B^T y_k + e_k z_k <= rhs / den, or last[k], column k's fit from the
    round before (None in the first), if that was fitted for the same
    column: it keeps its fit and gaps, since the same program gives the
    same answer and its check already passed."""
    return [old if old and (old.rhs == rhs if old.den == den else all(
        a * den == b * old.den for a, b in zip(old.rhs, rhs)))
        else fit(k, rhs, den)
        for k, (rhs, old) in enumerate(zip(columns, last))]


def _quotient(num: int, den: int, mode: str):
    """num / den as a Fraction or, in float mode, the float nearest it
    (int true division rounds correctly)."""
    return Fraction(num, den) if mode == "exact" else num / den


# ---------------------------------------------------------------------------
# gl and ggl on a structured instance: a shortest-path DAG's or a QAP's
# fitting programs and polytope LP are solved in integers by
# quadlin.combinatorial, which hands over integer duals and the 0/1 point
# they price, and each answer is certified by weak duality before use

def _qspp_graph(bqp: BqpInstance):
    """The DAG of an instance with shortest-path structure, else None."""
    if bqp.structure and bqp.structure[0] == "qspp":
        return bqp.structure[1]
    return None


class _IntSystem(NamedTuple):
    """Bx = b in integers, with B over the lcm K of its denominators and
    b over its own, bden: B as _sparse_columns' (entries, K), the b
    numerators, bden, and per column i its nonzero entries as
    (row, numerator times bden) pairs, so that B x = b at a 0/1 point
    when the pairs of its columns sum, row by row, to target, K times
    the b numerators."""
    bcols: tuple
    b: tuple
    bden: int
    columns: dict
    target: list


def _int_system(bqp: BqpInstance) -> _IntSystem:
    B, m = bqp.B, bqp.m
    nums, K = common_denominator(B.entries)
    b, bden = common_denominator(bqp.b)
    columns = {i: [(r, nums[r * m + i] * bden) for r in range(B.rows)
                   if nums[r * m + i]] for i in range(m)}
    return _IntSystem(_sparse_columns(B), tuple(b), bden, columns,
                      [K * v for v in b])


def _weak_duality(system: _IntSystem, k: int, rhs, x, point):
    """(value, gaps) for x = (y, z) in fitting program k (k = -1, x = y:
    for y in the polytope LP's dual under the costs rhs), checked in
    integers, rhs and x over one denominator d.  The row gaps
    B[:, i].y + [i == k] z - rhs[i] (_fit_gaps, over K d) must all be
    <= 0, and point, the columns where a 0/1 vector is 1, must satisfy
    Bx = b, hold k if k >= 0 and cost value = b.y + z, over d; by weak
    duality that makes both optimal.  Raises LpError otherwise."""
    gaps = _fit_gaps(system.bcols, k, rhs, x)
    if max(gaps, default=0) > 0:
        bad = next(i for i, v in enumerate(gaps) if v > 0)
        raise LpError(f"certificate duals violate column {bad}")
    cols, columns = set(point), system.columns
    lhs, value = [0] * len(system.b), 0
    for i in cols:
        if i not in columns:
            raise LpError(f"certificate point has no column {i}")
        value += rhs[i]
        for r, v in columns[i]:
            lhs[r] += v
    if lhs != system.target or (k >= 0 and k not in cols):
        raise LpError("certificate point is not a 0/1 point of Bx = b"
                      + (f" through column {k}" if k >= 0 else ""))
    z = x[-1] if k >= 0 else 0
    if value * system.bden != sum(map(mul, system.b, x)) + system.bden * z:
        raise LpError("certificate point does not match the duals")
    return value, gaps


def _certified_fit(system: _IntSystem, solve, k: int, rhs,
                   den: int) -> _Fit:
    """Column k's fit from solve(rhs, k) -> (y, z, point), checked by
    _weak_duality, over den itself, with the row gaps the check worked
    out; 0 pivots."""
    y, z, point = solve(rhs, k)
    x = (*y, z)
    cbar, gaps = _weak_duality(system, k, rhs, x, point)
    return _Fit(rhs, den, x, cbar, den, (gaps, system.bcols[1] * den))


def _certified_minimum(system: _IntSystem, solve, costs, den: int,
                       mode: str) -> LpResult:
    """The polytope LP's optimum under the integer costs over den from
    solve(costs) -> (y, point), checked by _weak_duality, with duals y;
    the point itself is not reported."""
    y, point = solve(costs)
    value, _ = _weak_duality(system, -1, costs, y, point)
    return LpResult(OPTIMAL, _quotient(value, den, mode),
                    duals=tuple(_quotient(v, den, mode) for v in y),
                    mode=mode)


def _require_st_arcs(g: Dag) -> None:
    """Raise the simplex's error for the first arc on no s-t path: no
    path uses it, so its fitting program is unbounded; and, with no arc
    left to fit, for an s that does not reach t: the polytope LP is
    infeasible.  Past this check every vertex with an arc lies on an s-t
    path."""
    from_s, to_t = reachable_from(g, g.source), reaches(g, g.target)
    for k, (u, v) in enumerate(g.arcs):
        if u not in from_s or v not in to_t:
            raise BoundComputationError(
                f"column {k} fitting program: LP is {UNBOUNDED}")
    if g.target not in from_s:
        raise BoundComputationError(
            f"feasible-set minimum: LP is {INFEASIBLE}")


def _combinatorial_solvers(bqp: BqpInstance):
    """(fit, minimum) for gl and ggl on a structured instance: fit(rhs,
    k) -> (y, z, point) solves fitting program k, minimum(costs) ->
    (y, point) the polytope LP, both in integers and unchecked (see
    _certified_fit and _certified_minimum); None for a generic BQP."""
    kind = bqp.structure[0] if bqp.structure else None
    if kind == "qspp":
        g = bqp.structure[1]
        _require_st_arcs(g)
        return partial(dag_fit, g), partial(dag_minimum, g)
    if kind == "qap":
        n = bqp.structure[1]
        return partial(assignment_fit, n), partial(assignment_minimum, n)
    return None


def _next_columns(gaps, strategy: SkewStrategy) -> tuple:
    """(columns, den): the columns, as tuples of integers over den, of the
    residual R = q - Qbar reshuffled per strategy: R itself, R with
    R_ij + R_ji above the diagonal and zeros below, or (R + R^T) / 2,
    whose sums are not halved but taken over twice the denominator.
    gaps[k] is fitting program k's row gaps at its fit (y_k, z_k), as
    (integers, denominator): row i is B[:, i].y_k + [i == k] z_k - q[i][k]
    = Qbar[i][k] - q[i][k], so column k of R is minus gaps[k].  The gaps
    are brought to the lcm of their denominators, and the columns and den
    are divided by their gcd."""
    den = lcm(*(d for _, d in gaps))
    g = [nums if d == den else [v * (den // d) for v in nums]
         for nums, d in gaps]
    if strategy == SkewStrategy.NONE:
        cols = [[-v for v in col] for col in g]
    else:
        mirror = strategy == SkewStrategy.SYMMETRIZE
        m = len(g)
        cols = [[0] * m for _ in range(m)]
        for i in range(m):
            cols[i][i] = -(2 if mirror else 1) * g[i][i]
            for j in range(i + 1, m):
                cols[j][i] = -(g[j][i] + g[i][j])
                if mirror:
                    cols[i][j] = cols[j][i]
        den *= 2 if mirror else 1
    common = gcd(den, *chain.from_iterable(cols))
    if common == 1:
        return [tuple(col) for col in cols], den
    return [tuple(v // common for v in col) for col in cols], den // common


def _fitting_rounds(inst, strategy: SkewStrategy, max_iter: int,
                    mode: str) -> BoundReport:
    """The rounds of ggl_bound, of which gl_bound is the first: each
    round fits the current matrix, moves its value into the linear term
    and solves the polytope LP under the accumulated costs; between
    rounds the residual is reshuffled per the strategy.  On a
    shortest-path instance the fits and the minimum are DAG dynamic
    programs, on a QAP Hungarian assignments (_combinatorial_solvers),
    each certified by _weak_duality and counted as 0 pivots; only a
    generic BQP takes simplex solves.

    Every round runs in integers, in either mode: the residual is one
    matrix of integers over one denominator, the fits' (y, z) and values
    are summed as integers over another, and a minimum's costs are those
    sums plus the linear term over the lcm of the two.  A simplex fit's
    right-hand sides are the residual's column as Fractions and its
    result is read exactly (a float at its exact binary value), which
    can move the residual to a larger denominator.  Fractions, or in
    float mode the nearest floats, are made only for the report: the
    trace, the value and the certificate.

    The certificate is lbb_prime's (y, Y, z): y the last minimum's duals,
    Y half the sum over rounds of the fits' y-parts, as n rows of m, and
    z the sum of their z-parts.  Each round's fitted matrix is
    B^T Ybar_r + Diag(zbar_r), no reshuffle changes the symmetric part of
    the residual, and the last residual is elementwise nonnegative, so
    B^T Y + Y^T B + Diag(z) stays below sym(Q); 2 Y^T b + z is the summed
    linear part the last minimum was taken under, and b.y its value."""
    if not 1 <= max_iter <= MAX_ITER:
        raise ValueError(f"max_iter must be between 1 and {MAX_ITER}")
    if not isinstance(strategy, SkewStrategy):
        raise ValueError(f"unknown strategy {strategy!r}")
    bqp = _bqp(inst)
    n, m = bqp.B.rows, bqp.m
    mode = _bound_mode(bqp, mode, max(m, n), n + 1)
    solvers = _combinatorial_solvers(bqp)
    if solvers is not None:
        system = _int_system(bqp)
        fit = partial(_certified_fit, system, solvers[0])
        minimum = partial(_certified_minimum, system, solvers[1], mode=mode)
    else:
        programs, bcols = _fitting_programs(bqp), _sparse_columns(bqp.B)

        def fit(k, rhs, den):  # read back as (y_k, z_k) and cbar[k]
            res = _solve(
                programs[k].with_rhs(Fraction(v, den) for v in rhs), mode,
                f"column {k} fitting program")
            x = res.x
            nums, dx = common_denominator(
                [rat_from(a - b) for a, b in zip(x[::2], x[1::2])]
                + [rat_from(-res.value)])
            d = lcm(dx, den)  # a multiple of den, so rhs scales to it
            *x, cbar = (v * (d // dx) for v in nums)
            gaps = _fit_gaps(bcols, k, [v * (d // den) for v in rhs], x)
            return _Fit(rhs, den, tuple(x), cbar, d, (gaps, bcols[1] * d),
                        res.pivots)

        def minimum(costs, den):
            return _solve(
                _polytope_lp(bqp, (Fraction(c, den) for c in costs)), mode,
                "feasible-set minimum")
    qnums, den = common_denominator(bqp.Q.entries)
    columns = [tuple(qnums[k::m]) for k in range(m)]
    lin, lin_den = common_denominator(bqp.linear)
    # per column, its fits' (y, z) and cbar summed, over acc_den
    fitted, acc_den = [[0] * (n + 2) for _ in range(m)], 1
    trace = []
    pivots = 0
    fits = [None] * m
    for it in range(max_iter):
        if it:  # the residual is minus the last fits' row gaps
            columns, den = _next_columns([f.gaps for f in fits], strategy)
        fits = _fit_columns(fit, columns, den, fits)
        step = lcm(acc_den, *(f.d for f in fits)) // acc_den
        acc_den *= step
        fitted = [[a * step + v * (acc_den // f.d)
                   for a, v in zip(acc, (*f.x, f.cbar))]
                  for acc, f in zip(fitted, fits)]
        cost_den = lcm(acc_den, lin_den)
        final = minimum(
            [acc[-1] * (cost_den // acc_den) + v * (cost_den // lin_den)
             for acc, v in zip(fitted, lin)], cost_den)
        trace.append(final.value)
        pivots += sum(f.pivots for f in fits) + final.pivots
        if not any(f.cbar for f in fits) if mode == "exact" \
                else all(abs(f.cbar / f.d) <= 1e-9 for f in fits):
            break
    return BoundReport(
        name="ggl", value=final.value, mode=mode,
        relaxation_only=not bqp.integral_polytope,
        certificate={
            "y": final.duals,
            "Y": tuple(tuple(_quotient(acc[r], 2 * acc_den, mode)
                             for acc in fitted) for r in range(n)),
            "z": tuple(_quotient(acc[n], acc_den, mode) for acc in fitted),
        },
        trace=tuple(trace), pivots=pivots)


def gl_bound(inst, mode: str = "auto") -> BoundReport:
    """One-shot column fitting bound: ggl's first round, with ggl's
    certificate, lbb_prime's (y, Y, z) for one round's fits."""
    return replace(_fitting_rounds(inst, SkewStrategy.NONE, 1, mode),
                   name="gl", trace=())


def ggl_bound(inst, strategy: SkewStrategy = SkewStrategy.NONE,
              max_iter: int = 50, mode: str = "auto") -> BoundReport:
    """Iterated column fitting.

    Each round fits the current matrix, moves its value into the linear
    term, and continues on the residual (reshuffled per the strategy).
    Stops after the round whose fitted linear part vanishes (exactly in
    exact mode, every entry within 1e-9 in float mode), or after
    max_iter rounds, at most MAX_ITER (ValueError above it or below 1).
    The trace holds the bound after each round and is nondecreasing: the
    residual of every round is elementwise nonnegative, so every fitted
    part after the first is nonnegative.  With SkewStrategy.NONE, ggl is
    gl: each column's fit is optimal, so its residual has minimum 0 over
    the polytope with x_k = 1, round 2 fits a zero linear part and the
    loop stops with gl's value.  Only the skew reshuffle moves ggl past
    gl.  In exact mode SYMMETRIZE usually runs all max_iter rounds: the
    halved residual shrinks but never reaches zero (on the pinned 10-arc
    corridor DAG of the tests, with DAG fits, the bound is
    -145/16 - 3/2^r after r >= 10 rounds: -9283/1024 after 10,
    -9502723/2^20 after 20, -10203467905761283/2^50 after 50), so
    max_iter bounds the work.  The
    rounds run in integers in both modes (_fitting_rounds), so a float
    report's trace is the exact one rounded, entry by entry, up to the
    round where its 1e-9 test stops it.  After the first round the value
    depends on which optimal fit each round takes: on a shortest-path
    instance that is combinatorial.dag_fit's potentials, on a QAP the
    Hungarian method's (combinatorial.assignment_fit), on a generic BQP
    the simplex's duals.
    A column that a round leaves unchanged is not fitted again: it keeps
    its last fit (96 of SYMMETRIZE's 450 programs on the generic copy,
    structure=None, of the tests' pinned QAP with n = 3), and pivots
    counts that solve's pivots in every round that uses it; a DAG or
    assignment fit counts 0, so gl and ggl on a structured instance
    report 0 pivots.  The certificate is lbb_prime's, read off the fits summed
    over every round (_fitting_rounds), so verify_report replays it
    against the lifting LP and no round is replayed.
    """
    return _fitting_rounds(inst, strategy, max_iter, mode)


def _sym_matrix(q: RationalMatrix) -> RationalMatrix:
    """(Q + Q^T) / 2; a symmetric matrix comes back as it is."""
    if q.is_symmetric():
        return q
    return (q + q.transpose()).scale(_HALF)


def _cellsums(q: RationalMatrix, pairs, ordered=False) -> list:
    """Per pair, the sum of q over the cells it covers: (i, j) and (j, i)
    for i < j unless ordered, else its one cell."""
    return [q.at(i, j) if ordered or i == j else q.at(i, j) + q.at(j, i)
            for i, j in pairs]


def _member_row(member, pairs, ordered=False) -> tuple:
    """The coefficients of <Q_t, X> - c_t . x for member (Q_t, c_t)."""
    q, c = member
    return tuple(-v for v in c) + tuple(_cellsums(q, pairs, ordered))


def _rlt1_lp(bqp: BqpInstance, members=(), ordered=False):
    """(LP, pairs) of the lifting LP behind rlt1 and the lbb bounds.

    Variables x (m), then one w_p >= 0 per pair p: the pairs i <= j that
    are not structural zeros of the instance (_structural_sparsity; a raw
    bqp has none), or every ordered pair when ordered (lbb_generic).  A
    pair costs the sum of Q over the cells it covers, (i, j) and (j, i)
    for i < j, else its one cell; with X_ij = w of the pair covering
    (i, j), minimize linear . x + <Q, X> subject to
      Bx = b                                        duals y
      sum_p cellsum(Q_t, p) w_p - c_t . x = 0       duals alpha_t
      (B X)_rj - b_r x_j = 0   (unless ordered)     duals 2 Y_rj
      x_j - w_jj = 0           (unless ordered)     duals -z_j
    in this order, with one row per member (Q_t, c_t).  The LP dual is
    the linearization LP, max b . y over the duals subject to
      B^T y <= 2 Y^T b + z + sum(alpha_t c_t) + linear
      B^T Y + Y^T B + Diag(z) + sum(alpha_t Q_t) <= Q
    on every cell a pair covers; unless ordered, Q is symmetrized and
    the (Y, z) terms are present.

    Leaving out the structural zeros keeps the optimum: with a w_p for
    every pair, each feasible point has w_p = 0 on them.  On a
    shortest-path DAG, column j of X is an s-t flow of value x_j that
    carries x_j = X_jj on arc j, so every path of its decomposition uses
    arc j, and X_kj = 0 for each arc k sharing no path with j.  On an
    assignment, the lifted row-sum row of row i at placement (i, l) reads
    sum_j X_(ij),(il) = x_il = X_(il),(il), so X_(ij),(il) = 0 for j != l;
    columns alike.  A dual certificate therefore dominates sym(Q) only
    off the structural zeros.  That is sound: x_i x_j = 0 at every
    feasible 0/1 point on such a pair, so its cells add nothing to
    x^T Q x whatever their sign, and x x^T is still a feasible X.  It
    holds because the zeros are read off the instance, here and in
    replay, never off a report.  A member row in the span of this LP's
    rows cuts nothing off, and lbb_star leaves it out
    (_unimplied_members); on a corridor DAG every linearizable member's
    row is in that span (lbb_star's lemma, checked on every corridor DAG
    on at most 5 vertices), so canonical lbb_star adds no row.
    """
    n, m = bqp.B.rows, bqp.m
    if ordered:
        pairs = [(i, j) for i in range(m) for j in range(m)]
    else:
        zero = _structural_sparsity(bqp)
        pairs = [(i, j) for i in range(m) for j in range(i, m)
                 if (i, j) not in zero]
    pidx = {p: m + k for k, p in enumerate(pairs)}
    nvars = m + len(pairs)
    obj = list(bqp.linear) + _cellsums(bqp.Q, pairs, ordered)
    rows = []
    for r in range(n):  # Bx = b
        coeffs = [ZERO] * nvars
        coeffs[:m] = bqp.B.row(r)
        rows.append((tuple(coeffs), EQ, bqp.b[r]))
    for member in members:  # <Q_t, X> - c_t . x = 0
        rows.append((_member_row(member, pairs, ordered), EQ, ZERO))
    for r in range(0 if ordered else n):  # (B X)_{r j} - b_r x_j = 0
        for j in range(m):
            coeffs = [ZERO] * nvars
            coeffs[j] = -bqp.b[r]
            for k in range(m):
                col = pidx.get((k, j) if k <= j else (j, k))
                if col is not None:
                    coeffs[col] += bqp.B.at(r, k)
            rows.append((tuple(coeffs), EQ, ZERO))
    for j in range(0 if ordered else m):  # x_j - w_jj = 0
        coeffs = [ZERO] * nvars
        coeffs[j] = ONE
        coeffs[pidx[(j, j)]] = -ONE
        rows.append((tuple(coeffs), EQ, ZERO))
    return LinearProgram(tuple(obj), tuple(rows)), tuple(pairs)


@lru_cache(maxsize=1)
def _lifting_lp(bqp: BqpInstance):
    """_rlt1_lp without members, kept for the last instance: rlt1 and
    lbb_prime solve the very same LP, callers ask for both in turn, and
    each replay rebuilds it."""
    return _rlt1_lp(bqp)


def _unimplied_members(bqp: BqpInstance, members) -> list:
    """The indices t of the symmetric members (Q_t, c_t) whose row
    <Q_t, X> - c_t . x = 0 the member-less lifting LP does not imply.

    The rows of _lifting_lp(bqp), right-hand sides appended, are taken
    to integers in int_echelon's form, pair columns first, which keeps
    the elimination short.  A member's row, right-hand side 0, that
    reduces to zero against that form holds at every feasible point, so
    leaving it out keeps the optimum."""
    lp, pairs = _lifting_lp(bqp)
    columns = [*range(bqp.m, lp.nvars), *range(bqp.m)]
    echelon = int_echelon(
        common_denominator([coeffs[j] for j in columns] + [rhs])[0]
        for coeffs, _, rhs in lp.rows)
    live = []
    for t, member in enumerate(members):
        row = _member_row(member, pairs)
        nums, _ = common_denominator([row[j] for j in columns] + [ZERO])
        if int_reduce(echelon, nums)[0] >= 0:
            live.append(t)
    return live


@lru_cache(maxsize=1)
def _solve_lifting_lp(bqp: BqpInstance, mode: str):
    """solve_lp on _lifting_lp(bqp), kept for the last instance and
    mode."""
    return solve_lp(_lifting_lp(bqp)[0], mode=mode)


def _lifted_lp(bqp: BqpInstance, name: str, members):
    """(lp, pairs, shared): _rlt1_lp as the report called name is solved
    and replayed against.  rlt1, lbb_prime, gl and ggl (members None)
    and an lbb_star with no member row share _lifting_lp (shared True);
    a family's LP has a row for every member given, and only
    lbb_generic's compares against the raw Q, over every ordered pair."""
    if members is None or not members and name == "lbb_star":
        return (*_lifting_lp(bqp), True)
    return (*_rlt1_lp(bqp, members, name == "lbb_generic"), False)


def _lifted_bound(bqp: BqpInstance, name: str, mode: str,
                  members=None) -> BoundReport:
    """Solve the lifting LP of the bound called name.  rlt1's certificate
    is its point and duals; the lbb bounds read theirs off the duals:
    y, Y (the lifted rows' duals halved, row r of Y from rows (r, *)),
    z (minus the diagonal rows' duals), alpha (the member rows' duals)
    and, for a family bound, the members those rows were solved for.

    The LP is _lifted_lp's, the one the report is replayed against; the
    cached _lifting_lp is solved through _solve_lifting_lp, which rlt1,
    lbb_prime and an lbb_star with no member row left share.  Given
    members, lbb_star solves only the rows that the member-less lifting
    LP does not imply (_unimplied_members).  The optimum is the same, and
    so is the value, exactly.  The certificate lists only the members
    solved: an implied member would carry weight 0, and a row of weight 0
    adds nothing to the replay.  Canonical lbb_star passes no member
    (lbb_star), so it carries none and replays as lbb_prime's.  Every
    member of weight alpha_t != 0 is confirmed linearizable as replay
    confirms it (_unconfirmed_members), else ValueError with replay's
    messages: an unconfirmed member's row can cut off feasible points,
    and the value with them.
    """
    live = _unimplied_members(bqp, members) if name == "lbb_star" \
        and members else range(len(members or ()))
    rows = None if members is None else [members[t] for t in live]
    lp, pairs, shared = _lifted_lp(bqp, name, rows)
    mode = _bound_mode(bqp, mode, lp.nrows, lp.nvars)
    res = _solve_lifting_lp(bqp, mode) if shared \
        else solve_lp(lp, mode=mode)
    if res.status != OPTIMAL:
        why = f"lifting LP is {res.status}"
        if res.status == UNBOUNDED:
            if members:  # its dual, the linearization LP, is empty
                why = ("no combination of the family's linearizable "
                       "matrices stays below Q")
            # such x_j leave their pairs free
            idle = [j for j in range(bqp.m) if not any(bqp.B.column(j))]
            if idle:
                why += f"; variables in no row of B: {idle}"
        raise BoundComputationError(f"{name}: {why}")
    n, m = bqp.B.rows, bqp.m
    u = res.duals
    if name == "rlt1":
        cert = {"x": res.x[:m], "pairs": pairs, "w": res.x[m:],
                "duals": u}
    else:
        k = n + len(live)  # the lifted rows start here
        cert = {"y": u[:n]}
        if name != "lbb_generic":
            cert["Y"] = tuple(
                tuple(v / 2 for v in u[k + r * m:k + (r + 1) * m])
                for r in range(n))
            cert["z"] = tuple(-v for v in u[k + n * m:])
        if members is not None:
            cert["alpha"] = tuple(u[n:k])
            cert["members"] = tuple((q.to_rows(), c) for q, c in rows)
            weighted = [t for t, a in enumerate(cert["alpha"]) if a]
            unconfirmed = weighted and _unconfirmed_members(
                bqp, [rows[t] for t in weighted], weighted)
            if unconfirmed:
                raise ValueError(f"{name}: " + "; ".join(unconfirmed))
    return BoundReport(
        name=name, value=res.value, mode=mode,
        relaxation_only=not bqp.integral_polytope,
        certificate=cert, pivots=res.pivots)


def lbb_prime(inst, mode: str = "auto") -> BoundReport:
    """Linearization bound over the sum matrices B^T Y + Y^T B + Diag(z).

    max b . y over free y (n), Y (n x m), z (m) subject to
      B^T y <= 2 Y^T b + z + linear
      (B^T Y + Y^T B + Diag(z))_ij <= sym(Q)_ij  for pairs i <= j that
      are not structural zeros (the left side is symmetric, so one row
      per unordered pair suffices).
    On a structural zero, x_i x_j = 0 at every feasible point, so
    leaving its cell undominated loses no soundness (see _rlt1_lp).
    This LP is the dual of rlt1's, so lbb_prime solves rlt1's LP and reads
    (y, Y, z) off its duals; the value is rlt1's by construction.
    """
    return _lifted_bound(_bqp(inst), "lbb_prime", mode)


def rlt1(inst, mode: str = "auto") -> BoundReport:
    """Level-1 lifting bound (Sherali & Adams' RLT); the LP dual of
    lbb_prime.

    Variables x (m) and one pair variable w_ij per unordered pair (i, j)
    that is not a structural zero (w_ii always present), all
    nonnegative; minimize <Q, X> + linear . x with X_ij = X_ji = w_ij,
    subject to
      Bx = b,  B X = b x^T (row by row),  diag(X) = x.
    Every feasible point of the LP with all pairs has w_ij = 0 on a
    structural zero, so the optimum is the same, and its duals dominate
    sym(Q) only off the structural zeros, where x_i x_j = 0 at every
    feasible point (see _rlt1_lp).
    """
    return _lifted_bound(_bqp(inst), "rlt1", mode)


def _family_members(family, m):
    if hasattr(family, "members"):  # LinearizableFamily or SpanningSet
        family = family.members
    members = []
    for q, c in family:
        if not isinstance(q, RationalMatrix):
            q = RationalMatrix.from_rows(q)
        if q.rows != m or q.cols != m or len(c) != m:
            raise ValueError("family member shape mismatch")
        members.append((q, tuple(rat(v) for v in c)))
    return members


def lbb_generic(inst, family, mode: str = "auto") -> BoundReport:
    """Family bound against the raw (unsymmetrized) matrix.

    max b.y over (y, alpha) with B^T y <= linear + sum(alpha_i c_i) and
    sum(alpha_i Q_i) <= Q elementwise.  Skew-symmetric additions to Q
    change this bound, because elementwise domination is not invariant
    under them; lbb_star removes that dependence by symmetrizing.  Solved
    as its dual: _rlt1_lp over every ordered pair, without the lifted
    rows, with one row per member.  A member the solve weights that is
    not confirmed linearizable raises ValueError (_lifted_bound).
    """
    bqp = _bqp(inst)
    return _lifted_bound(bqp, "lbb_generic", mode,
                         members=_family_members(family, bqp.m))


def lbb_star(inst, family=None, mode: str = "auto") -> BoundReport:
    """Augmented dual bound: lbb_prime's variables plus family weights.

    LP over (y, Y, z, alpha): max b.y subject to
      B^T y <= 2 Y^T b + z + sum(alpha_i c_i) + linear
      B^T Y + Y^T B + Diag(z) + sum(alpha_i Q_i) <= sym(Q) elementwise.

    Setting alpha = 0 recovers lbb_prime, so the value dominates it for
    any certified family; an empty family collapses to lbb_prime exactly.
    Solved as its dual: rlt1's LP plus one row per member whose row that
    LP does not already imply.  Members are symmetrized internally
    ((M + M^T)/2 carries the same linearization vector, skew parts being
    linearizable with the zero vector); that never changes the optimum
    and lets one pair variable per unordered pair suffice.  Like
    lbb_prime's, the certificate dominates sym(Q) only off the
    structural zeros (see _rlt1_lp).  A member row in the span of the
    lifting LP's rows holds at every feasible point, so it gets no row
    and the certificate leaves it out (a skew member's all-zero row is
    one, and so is every member of a LinearizableFamily.from_generators
    family, which are lbb_prime's own sum matrices).  A member the solve
    weights that is not confirmed linearizable raises ValueError
    (_lifted_bound).

    family=None asks for the canonical family, every linearizable matrix
    of the instance's graph; the instance must have shortest-path
    structure (ValueError) on a corridor graph (GraphError).  The report
    is flagged canonical_family, and it is lbb_prime's lifting solve:
    value, certificate and pivots, with no member, no spanning set built
    and no member tested.  On a corridor DAG that is lbb_star over the
    whole family, by this argument.  Let [A, b] be the equality rows of
    the member-less lifting LP (_lifting_lp) and p(x) = (x, w), with
    w_ij = x_i x_j on its pairs, the lifted point of an s-t path x; each
    has A p(x) = b.  Lemma: the solutions of A v = b are the affine hull
    of the lifted path points, rank [A, b] + rank {(p(x), 1)} = N + 1
    for N columns.  A linearizable (Q_t, c_t) has x^T Q_t x = c_t . x on
    every path, and x_i x_j = 0 there on every structural zero the LP
    leaves out, so its row, right-hand side 0, vanishes at every
    (p(x), 1); the rows of [A, -b] span every such row by the lemma, so
    the member row is implied and adds nothing.  The lemma, and with it
    lbb_star == lbb_prime for every linearizable family, is checked on
    every corridor DAG on at most 5 vertices and on every one on at most
    4 vertices with up to two parallel arcs per vertex pair
    (tests/test_lbb_star_theorem.py).  Soundness never rests on it: had
    the canonical family a live member, leaving it out would give
    lbb_prime's bound, weaker but valid, and it replays as lbb_prime's.
    """
    bqp = _bqp(inst)
    if family is not None:
        members = [(_sym_matrix(q), c)
                   for q, c in _family_members(family, bqp.m)]
        return _lifted_bound(bqp, "lbb_star", mode, members=members)
    graph = _qspp_graph(bqp)
    if graph is None:
        raise ValueError(
            "lbb_star needs an explicit family unless the instance "
            "has shortest-path structure")
    if not is_corridor(graph):
        raise GraphError("spanning sets need a corridor graph")
    return replace(_lifted_bound(bqp, "lbb_star", mode, members=[]),
                   canonical_family=True)


# ---------------------------------------------------------------------------
# chain checking and report verification

_CHAIN_GROUPS = (("gl",), ("ggl",), ("lbb_prime", "rlt1"), ("lbb_star",))


def verify_chain(reports, opt=None, tol=None):
    """Check the proven ordering among computed bounds.

    reports is an iterable of BoundReport (a mapping name -> value also
    works; a key "opt" inside it supplies the optimum).  Relations, over
    whatever is present: every gl <= every ggl <= lbb_prime == rlt1 <=
    every lbb_star, and, when opt is given, every value <= opt -- the
    soundness check covers names outside the chain (e.g. lbb_generic)
    too.  tol defaults to exact comparison unless a float value is
    involved, then 1e-6.  Raises ChainViolation naming the failing pair;
    returns the tuple of relations checked.
    """
    if hasattr(reports, "items"):
        entries = [(str(k), v) for k, v in reports.items()]
    else:
        entries = [(r.name, r.value) for r in reports]
    stripped = []
    for name, value in entries:
        if name == "opt" and opt is None:
            opt = value
        else:
            stripped.append((name, value))
    entries = stripped
    if tol is None:
        floaty = any(isinstance(v, float) for _, v in entries)
        floaty = floaty or isinstance(opt, float)
        tol = 1e-6 if floaty else 0
    groups = []
    for names in _CHAIN_GROUPS:
        groups.append([(n, v) for n, v in entries if n in names])
    checked = []
    present = [g for g in groups if g]
    for lo, hi in zip(present, present[1:]):
        for na, va in lo:
            for nb, vb in hi:
                if va > vb + tol:
                    raise ChainViolation(
                        f"{na} <= {nb} fails: {va!r} > {vb!r}")
        checked.append(f"{lo[0][0]} <= {hi[0][0]}")
    eq = groups[2]
    if len({n for n, _ in eq}) == 2:
        vals = [v for _, v in eq]
        if max(vals) - min(vals) > tol:
            raise ChainViolation(
                f"lbb_prime == rlt1 fails: {min(vals)!r} vs {max(vals)!r}")
        checked.append("lbb_prime == rlt1")
    if opt is not None:
        for name, value in entries:
            if value > opt + tol:
                raise ChainViolation(
                    f"{name} <= opt fails: {value!r} > {opt!r}")
        checked.append("all <= opt")
    return tuple(checked)


def optimum_report(inst, cap: int = 1_000_000) -> BoundReport:
    """Brute-force optimum packaged like a bound (name 'opt')."""
    bqp = _bqp(inst)
    value, argmin = brute_force_opt(bqp, cap=cap)
    return BoundReport(name="opt", value=value, mode="exact",
                       relaxation_only=False,
                       certificate={"argmin": argmin})


# the certificate keys each kind's replay reads; gl and ggl carry
# lbb_prime's certificate
_PRIME_KEYS = ("y", "Y", "z")
_CERT_KEYS = {"gl": _PRIME_KEYS, "ggl": _PRIME_KEYS, "opt": ("argmin",),
              "rlt1": ("x", "pairs", "w", "duals"),
              "lbb_prime": _PRIME_KEYS,
              "lbb_star": _PRIME_KEYS + ("alpha", "members"),
              "lbb_generic": ("y", "alpha", "members")}


_NUMBER = (int, Fraction, float)


def _leaves(obj):
    """The entries of obj, read through tuples, lists, dicts and
    matrices."""
    if isinstance(obj, dict):
        obj = tuple(obj.values())
    elif isinstance(obj, RationalMatrix):
        obj = obj.entries
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


def _holds_float(obj) -> bool:
    """Whether obj is a float or holds one (_leaves)."""
    return any(isinstance(v, float) for v in _leaves(obj))


def _unreadable(report: BoundReport, keys) -> list:
    """Why a report cannot be read: each certificate key must hold a
    tuple or list, and so must each row of Y and each of rlt1's pairs;
    every entry they hold, and the value, must be an int, a Fraction or
    a float."""
    cert, seq = report.certificate, (tuple, list)
    bad = [key for key in keys if not isinstance(cert[key], seq)]
    msgs = [f"certificate {key} is not a tuple or list" for key in bad] + [
        f"certificate {key} has an item that is not a tuple or list"
        for key in ("Y", "pairs") if key in keys and key not in bad
        and not all(isinstance(v, seq) for v in cert[key])]
    msgs += [f"certificate {key} holds an entry that is not a number"
             for key in keys
             if not all(isinstance(v, _NUMBER) for v in _leaves(cert[key]))]
    if not isinstance(report.value, _NUMBER):
        msgs.append("report value is not a number")
    return msgs


def _unattained(bqp: BqpInstance, x, value) -> list:
    """Why x is not a feasible 0/1 point of bqp at which
    x^T Q x + linear . x equals value exactly."""
    if len(x) != bqp.m or any(v not in (0, 1) for v in x):
        return [f"certificate argmin is not a 0/1 vector of length {bqp.m}"]
    x = [ONE if v else ZERO for v in x]
    msgs = [f"certificate argmin violates row {r} of Bx = b"
            for r in range(bqp.B.rows) if vdot(bqp.B.row(r), x) != bqp.b[r]]
    if quadratic_value(bqp.Q, x) + vdot(bqp.linear, x) != rat_from(value):
        msgs.append("certificate argmin does not attain the value")
    return msgs


def _unconfirmed_members(bqp: BqpInstance, members, labels) -> list:
    """Why the members (Q_t, c_t), labelled t, are not confirmed
    linearizable, x^T Q_t x == c_t . x on every feasible x: on a corridor
    DAG by the paper's test (linearize_qspp, then equivalent_cost_vectors
    against c_t), elsewhere by enumeration (is_linearization) under its
    cap, past which a member cannot be confirmed."""
    g = _qspp_graph(bqp)
    corridor = g is not None and is_corridor(g)
    msgs = []
    for t, (q, c) in zip(labels, members):
        if corridor:
            out = linearize_qspp(QsppInstance(g, q))
            ok = out.linearizable \
                and equivalent_cost_vectors(g, out.linearization, c)
        else:
            try:
                ok = is_linearization(bqp, q, c)
            except (EnumerationTooLarge, PathExplosion) as exc:
                msgs.append(f"member {t}'s linearizability cannot be "
                            f"confirmed: {exc}")
                continue
        if not ok:
            msgs.append(f"member {t} is not linearizable with its costs")
    return msgs


def verify_report(inst, report: BoundReport):
    """Re-derive the bound's validity from its certificate.

    Returns (ok, messages).  The LP a bound solved, min over Ax = b,
    x >= 0, is rebuilt from the instance: the certificate's duals must
    satisfy its columns and reach the value (lpsolve.dual_violations),
    which proves the value a lower bound, and for rlt1 the certificate's
    point must satisfy its rows and reach the value too
    (lpsolve.point_violations), which with the duals is the weak-duality
    certificate lpsolve.verify_solution checks.  An lbb certificate is
    turned back into the duals of the lifting LP it was read off; gl and
    ggl carry lbb_prime's certificate and are replayed as it is, against
    the member-less lifting LP.  Unless ordered (lbb_generic), that LP
    has no pair for the instance's structural zeros, so a certificate
    need dominate sym(Q) only off them: x_i x_j = 0 at every feasible
    point there (see _rlt1_lp).  The zeros are worked out from the
    instance, never read off the report.  A family bound's LP gets a row
    for each member of weight alpha_t != 0 only, and each such member
    must be confirmed linearizable (_unconfirmed_members); a member of
    weight 0 takes no part in the proof.  An opt report's argmin must be
    a 0/1 point with Bx = b at which x^T Q x + linear . x is the value,
    exactly: that confirms the value is attained, not that it is the
    least.  Every check is exact, a float read at its exact binary
    value: exact reports pass with zero tolerance, float reports within
    an absolute FLOAT_CHECK_TOL (1e-7), and a NaN or an infinity fails.
    So does an unknown kind or mode, a missing certificate key, an entry
    of the wrong shape (a vector that is not a tuple or list, a family
    member that is not an m x m matrix with m costs, alpha without one
    weight per member), a certificate entry or value that is not an int,
    a Fraction or a float, and an exact report holding a float.
    """
    cert = report.certificate
    keys = _CERT_KEYS.get(report.name)
    if keys is None:
        return False, (f"unknown report kind {report.name!r}",)
    if report.mode not in ("exact", "float"):
        return False, (f"unknown mode {report.mode!r}",)
    missing = [key for key in keys if key not in cert]
    if missing:
        return False, (f"certificate lacks {', '.join(missing)}",)
    malformed = _unreadable(report, keys)
    if malformed:
        return False, tuple(malformed)
    if "members" in keys and len(cert["alpha"]) != len(cert["members"]):
        return False, ("certificate alpha does not have one weight per "
                       "member",)
    if report.mode == "exact" and _holds_float((report.value, cert)):
        return False, ("an exact report holds a float",)
    bqp = _bqp(inst)
    m = bqp.m
    if report.name == "opt":  # attained; only enumeration shows least
        try:
            msgs = _unattained(bqp, cert["argmin"], report.value)
        except NonFiniteError:
            msgs = ["certificate has a non-finite value"]
        return not msgs, tuple(msgs)
    tol = 0 if report.mode == "exact" else FLOAT_CHECK_TOL
    msgs = []
    try:
        members, alpha = None, ()
        if "members" in keys:
            try:
                members = _family_members(cert["members"], m)
            except (TypeError, ValueError) as exc:
                return False, tuple(msgs + [
                    f"certificate members are not {m} x {m} exact "
                    f"matrices with {m} exact costs ({exc})"])
            if report.name == "lbb_star" \
                    and not all(q.is_symmetric() for q, _ in members):
                msgs.append("a family member is not symmetric")
            # a member row of weight 0 adds nothing to A^T y: only the
            # weighted members are confirmed and get their rows
            weighted = [t for t, a in enumerate(cert["alpha"])
                        if rat_from(a) != 0]
            members = [members[t] for t in weighted]
            alpha = [cert["alpha"][t] for t in weighted]
            msgs += _unconfirmed_members(bqp, members, weighted)
        lp, pairs, _ = _lifted_lp(bqp, report.name, members)
        if report.name == "rlt1":
            if tuple(map(tuple, cert["pairs"])) != pairs:
                msgs.append(
                    "certificate pairs differ from the program's pairs")
            msgs += point_violations(
                lp, tuple(cert["x"]) + tuple(cert["w"]), report.value, tol)
            duals = cert["duals"]
        else:  # the duals the linearization was read off, in row order
            duals = tuple(chain(
                cert["y"], alpha,
                (2 * rat_from(v) for row in cert.get("Y", ()) for v in row),
                (-rat_from(v) for v in cert.get("z", ()))))
        msgs += dual_violations(lp, duals, report.value, tol)
    except NonFiniteError:
        msgs.append("certificate has a non-finite value")

    return not msgs, tuple(msgs)
