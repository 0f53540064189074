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
              accumulate the linear parts, repeat.
  lbb_prime   one LP over (y, Y, z): max b.y subject to dual feasibility
              and B^T Y + Y^T B + Diag(z) elementwise below sym(Q).
  rlt1        level-1 reformulation-linearization: lift to pair variables
              X with BX = b x^T, diag(X) = x, X >= 0.  Exact LP dual of
              lbb_prime, whose certificate is read off rlt1's duals.
  lbb_star    family bound: pick A = sum(lam_i Q_i) elementwise below
              sym(Q) from a family of linearizable matrices and use its
              linearization; with a spanning family this dominates
              lbb_prime on integral polytopes.

rlt1, lbb_prime, lbb_star and lbb_generic solve one lifting LP
(_rlt1_lp): min <Q, X> + linear . x over the lifted polytope, plus one
row <Q_t, X> = c_t . x per linearizable member (Q_t, c_t) of a family.
Its dual is the linearization LP (max b.y such that Q minus a combination
of linearizable matrices is elementwise nonnegative), so each lbb bound
reads its linearization certificate off the duals.  lbb_prime uses the
sum matrices B^T Y + Y^T B + Diag(z) alone, lbb_star adds a family, both
against sym(Q); lbb_generic uses a family alone against the raw Q.

Every report carries enough certificate data for verify_report to confirm
the bound from first principles without re-running the solver: it
rebuilds the LP the bound solved and evaluates that LP's rows at the
certificate's point, and its columns at the certificate's duals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul

from quadlin.exactnum import (
    ONE,
    ZERO,
    RationalMatrix,
    common_denominator,
    rat,
    vdot,
)
from quadlin.graph import forbidden_pairs
from quadlin.lpsolve import (
    EQ,
    GE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    _dot,
    _reduced_costs,
    _requested_mode,
    _resolve_mode,
    _row_gaps,
    solve_lp,
)
from quadlin.model import (
    BqpInstance,
    FloatTaggedError,
    QsppInstance,
    brute_force_opt,
    qspp_to_bqp,
)
from quadlin.qspplin import SpanningSet, spanning_set


_HALF = Fraction(1, 2)


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
    pivots: int = 0
    sparsity: tuple = None
    canonical_family: bool = False  # lbb_star built from a spanning set


def _bqp(inst) -> BqpInstance:
    if isinstance(inst, QsppInstance):
        return qspp_to_bqp(inst)
    if isinstance(inst, BqpInstance):
        return inst
    raise TypeError(f"expected a problem instance, got {type(inst).__name__}")


def rat_from(v):
    """Fraction from exact data or from a float (exact binary value)."""
    if isinstance(v, float):
        return Fraction(v)
    return rat(v)


def _bound_mode(bqp: BqpInstance, mode: str, nrows: int, nvars: int) -> str:
    """lpsolve's mode rule, with float-tagged data read as float unless
    exact mode is requested, which is refused."""
    if not bqp.float_tagged:
        return _resolve_mode(mode, nrows, nvars)
    if _requested_mode(mode) == "exact":
        raise FloatTaggedError(
            "instance carries float data; exact mode refused")
    return "float"


def _structural_sparsity(inst) -> frozenset:
    """Pairs (i, j), i < j, that the instance's structure proves never
    both 1: arcs on no common path (``("qspp", g)``), or two placements
    in one row or one column of the permutation matrix (``("qap", n)``).
    """
    bqp = _bqp(inst)
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
    raise ValueError(
        "no structural sparsity is known for a raw bqp instance")


def _check_sparsity(sparsity, bqp: BqpInstance):
    """The pairs as (min, max); on a structured instance each must be one
    of its structural zeros, since dropping any other pair can lift the
    bound above the optimum."""
    if sparsity is None:
        return None
    known = _structural_sparsity(bqp) if bqp.structure else None
    out = set()
    for i, j in sparsity:
        i, j = int(i), int(j)
        if not (0 <= i < bqp.m and 0 <= j < bqp.m) or i == j:
            raise ValueError(f"bad sparsity pair ({i}, {j})")
        pair = (min(i, j), max(i, j))
        if known is not None and pair not in known:
            raise ValueError(
                f"sparsity pair {pair} is not a structural zero")
        out.add(pair)
    return frozenset(out)


def _solve(lp, mode, what):
    res = solve_lp(lp, mode=mode)
    if res.status != OPTIMAL:
        raise BoundComputationError(f"{what}: LP is {res.status}")
    return res


def _polytope_lp(bqp: BqpInstance, costs) -> LinearProgram:
    """min costs . x over Bx = b, x >= 0."""
    rows = [(bqp.B.row(i), EQ, bqp.b[i]) for i in range(bqp.B.rows)]
    return LinearProgram("min", tuple(costs), tuple(rows),
                         tuple((ZERO, None) for _ in range(bqp.m)))


def _fitting_programs(bqp: BqpInstance) -> list:
    """The m column-fitting programs of _fit_columns with right-hand
    sides 0: program k is max b.y + z over free (y, z) subject to
    B^T y + e_k z <= 0."""
    n, m = bqp.B.rows, bqp.m
    free = ((None, None),) * (n + 1)
    obj = tuple(bqp.b) + (ONE,)
    bcols = [bqp.B.column(i) for i in range(m)]
    return [LinearProgram("max", obj, tuple(
        (bcols[i] + (ONE if i == k else ZERO,), LE, ZERO) for i in range(m)),
        free) for k in range(m)]


def _fit_columns(programs, q: RationalMatrix, mode):
    """Best per-column (y_k, z_k): max b.y_k + z_k with
    B^T y_k + e_k z_k <= q[:, k].  programs are _fitting_programs, built
    once per bound; each round solves programs[k].with_rhs(q[:, k]), which
    shares their coefficients and standard-form layout, so only the new
    right-hand sides are validated and prepared.
    Returns (ybar columns, zbar, cbar, pivots).
    """
    n = programs[0].nvars - 1
    ycols = []
    zbar = []
    cbar = []
    pivots = 0
    for k, lp in enumerate(programs):
        res = _solve(lp.with_rhs(q.column(k)), mode,
                     f"column {k} fitting program")
        ycols.append(res.x[:n])
        zbar.append(res.x[n])
        cbar.append(res.value)
        pivots += res.pivots
    return ycols, zbar, cbar, pivots


def _fitted_matrix(bqp: BqpInstance, ycols, zbar) -> RationalMatrix:
    """Qbar = B^T Ybar + Diag(zbar) with Ybar's k-th column ycols[k].
    Each ycols[k] goes over one common denominator, so every cell is one
    integer dot product with B's column numerators and one Fraction."""
    m = bqp.m
    bcols = [common_denominator(bqp.B.column(i)) for i in range(m)]
    ys = [common_denominator([rat_from(v) for v in col]) for col in ycols]
    flat = [Fraction(sum(map(mul, bnums, ynums)), kb * dy)
            for bnums, kb in bcols for ynums, dy in ys]
    for k, z in enumerate(zbar):
        flat[k * m + k] += rat_from(z)
    return RationalMatrix(m, m, tuple(flat))


def gl_bound(inst, mode: str = "auto") -> BoundReport:
    """One-shot column fitting bound."""
    bqp = _bqp(inst)
    n, m = bqp.B.rows, bqp.m
    mode = _bound_mode(bqp, mode, max(m, n), n + 1)
    ycols, zbar, cbar, pivots = _fit_columns(_fitting_programs(bqp), bqp.Q,
                                             mode)
    costs = [rat_from(c) + l for c, l in zip(cbar, bqp.linear)]
    final = _solve(_polytope_lp(bqp, costs), mode, "feasible-set minimum")
    return BoundReport(
        name="gl", value=final.value, mode=mode,
        relaxation_only=not bqp.integral_polytope,
        certificate={
            "ybar_columns": tuple(tuple(v for v in col) for col in ycols),
            "zbar": tuple(zbar), "cbar": tuple(cbar),
            "x": final.x, "duals": final.duals,
        },
        pivots=pivots + final.pivots)


def _next_matrix(q: RationalMatrix, qbar: RationalMatrix,
                 strategy: SkewStrategy) -> RationalMatrix:
    """The residual R = q - qbar reshuffled per strategy: R itself, R with
    R_ij + R_ji above the diagonal and zeros below, or (R + R^T) / 2.
    Each folded entry is one exact sum of the four cells behind it."""
    if strategy == SkewStrategy.NONE:
        return q - qbar
    if strategy == SkewStrategy.UPPER_TRIANGULAR:
        w, mirror = (ONE, -ONE, ONE, -ONE), False
    elif strategy == SkewStrategy.SYMMETRIZE:
        w, mirror = (_HALF, -_HALF, _HALF, -_HALF), True
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    m = q.rows
    rows = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = q.at(i, i) - qbar.at(i, i)
        for j in range(i + 1, m):
            rows[i][j] = vdot(
                (q.at(i, j), qbar.at(i, j), q.at(j, i), qbar.at(j, i)), w)
            if mirror:
                rows[j][i] = rows[i][j]
    return RationalMatrix.from_rows(rows)


def ggl_bound(inst, strategy: SkewStrategy = SkewStrategy.NONE,
              max_iter: int = 50, tol=None,
              mode: str = "auto") -> BoundReport:
    """Iterated column fitting.

    Each round fits the current matrix, moves its value into the linear
    term, and continues on the residual (reshuffled per the strategy).
    Stops after the round whose fitted linear part vanishes (|entry| <=
    tol; by default exactly zero in exact mode, 1e-9 in float mode), or
    after max_iter rounds.  The trace holds the bound after each round
    and is nondecreasing: the residual of every round is elementwise
    nonnegative, so every fitted part after the first is nonnegative.
    In exact mode SYMMETRIZE usually runs all max_iter rounds: the halved
    residual shrinks but never reaches zero (on a 10-arc corridor DAG the
    bound is -5.5029 after 10 rounds and -5.5000029 after 20), so
    max_iter and tol bound the work.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    bqp = _bqp(inst)
    n, m = bqp.B.rows, bqp.m
    mode = _bound_mode(bqp, mode, max(m, n), n + 1)
    q_cur = bqp.Q
    c_total = [ZERO] * m
    trace = []
    iterations = []
    pivots = 0
    final = None
    programs = _fitting_programs(bqp)
    for _ in range(max_iter):
        ycols, zbar, cbar, piv = _fit_columns(programs, q_cur, mode)
        pivots += piv
        q_cur = _next_matrix(q_cur, _fitted_matrix(bqp, ycols, zbar),
                             strategy)
        c_total = [a + rat_from(c) for a, c in zip(c_total, cbar)]
        lp = _polytope_lp(bqp, [a + l for a, l in zip(c_total, bqp.linear)])
        final = _solve(lp, mode, "feasible-set minimum")
        trace.append(final.value)
        iterations.append({"ybar_columns": tuple(map(tuple, ycols)),
                           "zbar": tuple(zbar), "cbar": tuple(cbar)})
        pivots += final.pivots
        if tol is None:
            done = all(rat(c) == 0 for c in cbar) if mode == "exact" \
                else max(abs(float(c)) for c in cbar) <= 1e-9
        else:
            done = all(abs(c) <= tol for c in cbar)
        if done:
            break
    return BoundReport(
        name="ggl", value=final.value, mode=mode,
        relaxation_only=not bqp.integral_polytope,
        certificate={
            "strategy": strategy.value,
            "iterations": tuple(iterations),
            "c_total": tuple(c_total),
            "x": final.x, "duals": final.duals,
        },
        trace=tuple(trace), pivots=pivots)


def _sym_matrix(q: RationalMatrix) -> RationalMatrix:
    """(Q + Q^T) / 2; a symmetric matrix comes back as it is."""
    if q.is_symmetric():
        return q
    return (q + q.transpose()).scale(_HALF)


def _rlt1_lp(bqp: BqpInstance, sparsity, members=(), ordered=False):
    """(LP, pairs) of the lifting LP behind rlt1 and the lbb bounds.

    Variables x (m), then one w_p >= 0 per pair p: the pairs i <= j not in
    sparsity, or every ordered pair when ordered (lbb_generic).  A pair
    costs the sum of Q over the cells it covers, (i, j) and (j, i) for
    i < j, else its one cell; with X_ij = w of the pair covering (i, j),
    minimize linear . x + <Q, X> subject to
      Bx = b                                        duals y
      sum_p cellsum(Q_t, p) w_p - c_t . x = 0       duals alpha_t
      (B X)_rj - b_r x_j = 0   (unless ordered)     duals 2 Y_rj
      x_j - w_jj = 0           (unless ordered)     duals -z_j
    in this order, with one row per member (Q_t, c_t).  A member row is
    often implied by the lifted rows; listed first, it tends to keep a
    nonzero dual while the simplex leaves a lifted row redundant (dual
    0), so family weights show in the certificate.  The LP dual is the
    linearization LP, max b . y over the duals subject to
      B^T y <= 2 Y^T b + z + sum(alpha_t c_t) + linear
      B^T Y + Y^T B + Diag(z) + sum(alpha_t Q_t) <= Q
    on every cell a pair covers; unless ordered, Q is symmetrized and
    the (Y, z) terms are present.
    """
    n, m = bqp.B.rows, bqp.m
    if ordered:
        pairs = [(i, j) for i in range(m) for j in range(m)]
    else:
        pairs = [(i, j) for i in range(m) for j in range(i, m)
                 if not (sparsity and i != j and (i, j) in sparsity)]
    pidx = {p: m + k for k, p in enumerate(pairs)}
    nvars = m + len(pairs)

    def cellsums(q):
        return [q.at(i, j) if ordered or i == j else q.at(i, j) + q.at(j, i)
                for i, j in pairs]

    obj = list(bqp.linear) + cellsums(bqp.Q)
    rows = []
    for r in range(n):  # Bx = b
        coeffs = [ZERO] * nvars
        coeffs[:m] = bqp.B.row(r)
        rows.append((tuple(coeffs), EQ, bqp.b[r]))
    for q, c in members:  # <Q_t, X> - c_t . x = 0
        rows.append((tuple(-v for v in c) + tuple(cellsums(q)), EQ, ZERO))
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
    lp = LinearProgram("min", tuple(obj), tuple(rows),
                       tuple((ZERO, None) for _ in range(nvars)))
    return lp, pairs


def _lifted_lp(bqp: BqpInstance, name: str, members, sparsity):
    """_rlt1_lp as the bound called name solves it: only rlt1 and
    lbb_prime drop sparsity pairs, and only lbb_generic compares against
    the raw Q, over every ordered pair."""
    if name not in ("rlt1", "lbb_prime"):
        sparsity = None
    return _rlt1_lp(bqp, sparsity, members or (), name == "lbb_generic")


_last_lifted = {}  # at most one entry, (bqp, sparsity, mode) -> result


def _solve_lifted(lp: LinearProgram, bqp: BqpInstance, sparsity, mode: str):
    """solve_lp on the lifting LP of rlt1 or lbb_prime, which is made of
    bqp and sparsity alone, remembering the last one by those and the
    mode: the two bounds solve the very same LP, and callers ask for
    both in turn."""
    key = (bqp, sparsity, mode)
    res = _last_lifted.get(key)
    if res is None:
        res = solve_lp(lp, mode=mode)
        _last_lifted.clear()
        _last_lifted[key] = res
    return res


def _lifted_bound(bqp: BqpInstance, name: str, mode: str, members=None,
                  sparsity=None, canonical=False) -> BoundReport:
    """Solve the lifting LP of the bound called name.  rlt1's certificate
    is its point and duals; the lbb bounds read theirs off the duals:
    y, Y (the lifted rows' duals halved, row r of Y from rows (r, *)),
    z (minus the diagonal rows' duals), alpha (the member rows' duals)
    and, for a family bound, the members."""
    lp, pairs = _lifted_lp(bqp, name, members, sparsity)
    mode = _bound_mode(bqp, mode, lp.nrows, lp.nvars)
    if members is None:
        res = _solve_lifted(lp, bqp, sparsity, mode)
    else:  # member rows: a family's LP is not asked for twice
        res = solve_lp(lp, mode=mode)
    if res.status == UNBOUNDED:  # its dual, the linearization LP, is empty
        raise BoundComputationError(
            f"{name}: no combination of the family's linearizable "
            "matrices stays below Q")
    if res.status != OPTIMAL:
        raise BoundComputationError(f"{name}: lifting LP is {res.status}")
    n, m = bqp.B.rows, bqp.m
    u = res.duals
    if name == "rlt1":
        cert = {"x": res.x[:m], "pairs": tuple(pairs), "w": res.x[m:],
                "duals": u}
    else:
        k = n + len(members or ())  # the lifted rows start here
        cert = {"y": u[:n]}
        if name != "lbb_generic":
            cert["Y"] = tuple(
                tuple(v / 2 for v in u[k + r * m:k + (r + 1) * m])
                for r in range(n))
            cert["z"] = tuple(-v for v in u[k + n * m:])
        if members is not None:
            cert["alpha"] = u[n:k]
            cert["members"] = tuple((q.to_rows(), c) for q, c in members)
    return BoundReport(
        name=name, value=res.value, mode=mode,
        relaxation_only=not bqp.integral_polytope,
        certificate=cert, pivots=res.pivots,
        sparsity=tuple(sorted(sparsity)) if sparsity else None,
        canonical_family=canonical)


def lbb_prime(inst, sparsity=None, mode: str = "auto") -> BoundReport:
    """Linearization bound over the sum matrices B^T Y + Y^T B + Diag(z).

    max b . y over free y (n), Y (n x m), z (m) subject to
      B^T y <= 2 Y^T b + z + linear
      (B^T Y + Y^T B + Diag(z))_ij <= sym(Q)_ij  for pairs i <= j not in
      the sparsity set (the left side is symmetric, so one row per
      unordered pair suffices).
    This LP is the dual of rlt1's, so lbb_prime solves rlt1's LP and reads
    (y, Y, z) off its duals; the value is rlt1's by construction.
    """
    bqp = _bqp(inst)
    sparsity = _check_sparsity(sparsity, bqp)
    return _lifted_bound(bqp, "lbb_prime", mode, sparsity=sparsity)


def rlt1(inst, sparsity=None, mode: str = "auto") -> BoundReport:
    """Level-1 lifting bound (Sherali & Adams' RLT); the LP dual of
    lbb_prime.

    Variables x (m) and one pair variable w_ij per unordered pair (i, j)
    not excluded by sparsity (w_ii always present), all nonnegative;
    minimize <Q, X> + linear . x with X_ij = X_ji = w_ij, subject to
      Bx = b,  B X = b x^T (row by row),  diag(X) = x.
    """
    bqp = _bqp(inst)
    sparsity = _check_sparsity(sparsity, bqp)
    return _lifted_bound(bqp, "rlt1", mode, sparsity=sparsity)


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
    rows, with one row per member.
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
    Solved as its dual: rlt1's LP plus one row per member.  Members are
    symmetrized internally ((M + M^T)/2 carries the same linearization
    vector, skew parts being linearizable with the zero vector); that
    never changes the optimum and lets one pair variable per unordered
    pair suffice.  With family=None an instance carrying
    shortest-path structure gets its graph's spanning set and the report
    is flagged canonical; passing a SpanningSet directly also counts.
    """
    bqp = _bqp(inst)
    canonical = False
    if family is None:
        if isinstance(inst, QsppInstance):
            graph = inst.graph
        elif bqp.structure and bqp.structure[0] == "qspp":
            graph = bqp.structure[1]
        else:
            raise ValueError(
                "lbb_star needs an explicit family unless the instance "
                "has shortest-path structure")
        family = spanning_set(graph)
        canonical = True
    elif isinstance(family, SpanningSet):
        canonical = True
    members = []
    for q, c in _family_members(family, bqp.m):
        q = _sym_matrix(q)
        if any(q.entries) or any(c):  # skew members symmetrize away
            members.append((q, c))
    return _lifted_bound(bqp, "lbb_star", mode, members=members,
                         canonical=canonical)


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


def _row_violations(lp: LinearProgram, point, value, num, tol) -> list:
    """Why point is not a feasible point of lp with objective value:
    each row off its relation, each coordinate below its lower bound,
    and an objective other than value, all within the absolute tol."""
    if len(point) != lp.nvars:
        return ["certificate has the wrong number of variables"]
    v = [num(a) for a in point]
    msgs = []
    for k, ((_, rel, _), gap) in enumerate(zip(lp.rows,
                                               _row_gaps(lp, v, num))):
        if (rel != GE and gap > tol) or (rel != LE and gap < -tol):
            msgs.append(f"point violates row {k}")
    msgs += [f"point is below the lower bound of variable {j}"
             for j, (lo, _) in enumerate(lp.bounds)
             if lo is not None and v[j] < num(lo) - tol]
    if abs(_dot(lp.objective, v, num) - num(value)) > tol:
        msgs.append("objective does not match the certificate")
    return msgs


def _dual_violations(lp: LinearProgram, y, value, num, tol) -> list:
    """Why y does not certify value as a lower bound of lp, which must be
    min c.x over equality rows Ax = b and x >= 0: each column j with
    (A^T y)_j > c_j, and b.y other than value, within the absolute tol."""
    if len(y) != lp.nrows:
        return ["certificate has the wrong number of duals"]
    y = [num(v) for v in y]
    msgs = [f"duals violate column {j}"
            for j, r in enumerate(_reduced_costs(lp, y, num)) if r < -tol]
    rhs = [b for _, _, b in lp.rows]
    if abs(_dot(rhs, y, num) - num(value)) > tol:
        msgs.append("dual objective does not match the certificate")
    return msgs


def _fitting_shape(cert: dict, name: str, n: int, m: int) -> list:
    """Why a gl or ggl certificate cannot be replayed: a missing key, an
    unknown strategy, no round, or a round without m columns of n duals,
    m zbar and m cbar entries."""
    keys = ("x", "duals", "iterations") if name == "ggl" else ("x", "duals")
    missing = [key for key in keys if key not in cert]
    if missing:
        return [f"certificate lacks {', '.join(missing)}"]
    if cert.get("strategy", "none") not in {s.value for s in SkewStrategy}:
        return [f"unknown skew strategy {cert['strategy']!r}"]
    steps = cert["iterations"] if name == "ggl" else (cert,)
    if not steps:
        return ["certificate has no fitting round"]
    msgs = []
    for it, step in enumerate(steps):
        missing = [key for key in ("ybar_columns", "zbar", "cbar")
                   if key not in step]
        if missing:
            msgs.append(f"round {it}: certificate lacks {', '.join(missing)}")
            continue
        ycols = step["ybar_columns"]
        if len(ycols) != m or any(len(col) != n for col in ycols):
            msgs.append(f"round {it}: ybar_columns is not {m} columns "
                        f"of {n} duals")
        msgs += [f"round {it}: {key} does not have {m} entries"
                 for key in ("zbar", "cbar") if len(step[key]) != m]
    return msgs


def verify_report(inst, report: BoundReport, tol=None):
    """Re-derive the bound's validity from its certificate.

    Returns (ok, messages).  The LP a bound solved, min over Ax = b,
    x >= 0, is rebuilt from the instance: the certificate's duals must
    satisfy its columns and reach the value, and for gl, ggl and rlt1 so
    must the certificate's point satisfy its rows.  An lbb certificate
    is turned back into the duals of the lifting LP it was read off; gl
    and ggl also re-check each fitting round.  Exact reports
    are checked exactly, float reports within the absolute tol (default
    1e-7) on every row, column and value.  An lbb_prime or rlt1 report
    that drops pairs (``sparsity``) passes only if each pair is a
    structural zero of the instance, so never on an instance without a
    structure.
    """
    bqp = _bqp(inst)
    m = bqp.m
    exact = report.mode == "exact"
    if tol is None:
        tol = 0 if exact else 1e-7
    num = rat if exact else float
    msgs = []
    sparsity = {tuple(p) for p in report.sparsity or ()}
    if sparsity and report.name in ("lbb_prime", "rlt1"):
        # dropped pairs are trusted below, so each must be a proven zero
        if not bqp.structure:
            msgs.append("sparsity cannot be confirmed on an instance "
                        "without structure")
        else:
            stray = sparsity - _structural_sparsity(bqp)
            if stray:
                msgs.append(f"sparsity pairs {sorted(stray)} are not "
                            "structural zeros")

    if report.name in ("gl", "ggl"):
        cert = report.certificate
        shape = _fitting_shape(cert, report.name, bqp.B.rows, m)
        if shape:
            return False, tuple(msgs + shape)
        # gl is one round; the skew strategy only shapes later rounds
        steps = cert["iterations"] if report.name == "ggl" else (cert,)
        strategy = SkewStrategy(cert.get("strategy", "none"))
        q_cur = bqp.Q
        c_total = [ZERO] * m
        for it, step in enumerate(steps):
            ycols = step["ybar_columns"]
            zbar = step["zbar"]
            cbar = step["cbar"]
            qbar = _fitted_matrix(bqp, ycols, zbar)
            for c, (a, b) in enumerate(zip(qbar.entries, q_cur.entries)):
                a, b = num(a), num(b)
                if a > b + tol if tol else a > b:  # no Fraction for b + 0
                    msgs.append(
                        f"round {it}: fitted matrix exceeds the "
                        f"current matrix at ({c // m}, {c % m})")
            for k in range(m):
                want = _dot(bqp.b, [num(v) for v in ycols[k]], num) \
                    + num(zbar[k])
                if abs(num(cbar[k]) - want) > tol:
                    msgs.append(f"round {it}: cbar[{k}] inconsistent")
            c_total = [a + rat_from(c) for a, c in zip(c_total, cbar)]
            q_cur = _next_matrix(q_cur, qbar, strategy)
        # the bound's final LP; costs are Fraction sums, as in ggl_bound
        lp = _polytope_lp(bqp, [a + l for a, l in zip(c_total, bqp.linear)])
        msgs += _row_violations(lp, cert["x"], report.value, num, tol)
        msgs += _dual_violations(lp, cert["duals"], report.value, num, tol)

    elif report.name in ("rlt1", "lbb_prime", "lbb_star", "lbb_generic"):
        cert = report.certificate
        members = None
        if report.name in ("lbb_star", "lbb_generic"):
            members = _family_members(cert["members"], m)
            if report.name == "lbb_star" \
                    and not all(q.is_symmetric() for q, _ in members):
                msgs.append("a family member is not symmetric")
        lp, pairs = _lifted_lp(bqp, report.name, members, sparsity)
        if report.name == "rlt1":
            if [tuple(p) for p in cert["pairs"]] != pairs:
                msgs.append(
                    "certificate pairs differ from the program's pairs")
            msgs += _row_violations(lp, tuple(cert["x"]) + tuple(cert["w"]),
                                    report.value, num, tol)
            duals = cert["duals"]
        else:  # the duals the linearization was read off, in row order
            duals = tuple(chain(
                cert["y"], cert.get("alpha", ()),
                (2 * num(v) for row in cert.get("Y", ()) for v in row),
                (-num(v) for v in cert.get("z", ()))))
        msgs += _dual_violations(lp, duals, report.value, num, tol)

    elif report.name == "opt":
        pass  # nothing to re-derive beyond brute force itself

    else:
        msgs.append(f"unknown report kind {report.name!r}")

    return not msgs, tuple(msgs)
