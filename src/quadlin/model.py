"""Problem instances and encodings.

Two instance kinds:

* :class:`QsppInstance`: a corridor DAG plus an arc-interaction cost matrix;
  the feasible set is the source-target path incidence vectors.
* :class:`BqpInstance`: minimize ``x^T Q x + linear . x`` over binary ``x``
  with ``B x = b``.  Encoders from QSPP (flow conservation rows) and from
  QAP (assignment rows, one redundant row dropped) produce instances whose
  LP relaxation polytope is integral; ``structure`` remembers the encoding
  so enumeration can walk paths or permutations instead of all of {0,1}^m.

All data is exact (Fractions).  Instances parsed from files with decimal
entries are ``float_tagged`` and rejected by the exact-only operations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import factorial

from quadlin.exactnum import ONE, ZERO, RationalMatrix, rat, vdot
from quadlin.graph import PATH_CAP_DEFAULT, Dag, enumerate_st_paths


class EnumerationTooLarge(ValueError):
    """Feasible-set enumeration would exceed the cap."""


class NotSkewSymmetric(ValueError):
    """Reformulation shift matrix fails S^T == -S."""


class FloatTaggedError(ValueError):
    """Exact-only operation applied to a float-tagged instance."""


def _as_matrix(data) -> RationalMatrix:
    if isinstance(data, RationalMatrix):
        return data
    return RationalMatrix.from_rows(data)


@dataclass(frozen=True)
class QsppInstance:
    """Quadratic shortest path: graph + m-by-m arc interaction costs.

    A path pays ``Q[e][e]`` for each arc e it uses and ``Q[e][f] + Q[f][e]``
    for each unordered pair of distinct arcs on it, i.e. ``x^T Q x`` of its
    incidence vector.
    """

    graph: Dag
    Q: RationalMatrix
    float_tagged: bool = False

    def __post_init__(self):
        if self.Q.rows != self.graph.m or self.Q.cols != self.graph.m:
            raise ValueError("cost matrix shape does not match arc count")

    @property
    def m(self) -> int:
        return self.graph.m

    @cached_property
    def bqp(self) -> "BqpInstance":
        """The flow encoding (qspp_to_bqp), built on first use and kept:
        every bound and replay of this instance reads the one
        BqpInstance, so the lifting LP cached for it is found by
        identity.  Not part of equality or hashing; an instance made by
        dataclasses.replace builds its own.  qspp_to_bqp is looked up in
        quadlin.bounds, the module that reads the encoding, so a wrapper
        bound there (bench/tracing.py) sees the call."""
        from quadlin import bounds
        return bounds.qspp_to_bqp(self)


@dataclass(frozen=True)
class BqpInstance:
    """min x^T Q x + linear . x  over  {x binary : B x = b}."""

    B: RationalMatrix
    b: tuple
    Q: RationalMatrix
    linear: tuple = ()
    integral_polytope: bool = False
    structure: tuple = None
    float_tagged: bool = False

    def __post_init__(self):
        m = self.Q.rows
        if self.Q.cols != m or self.B.cols != m:
            raise ValueError("inconsistent dimensions")
        if len(self.b) != self.B.rows:
            raise ValueError("rhs length mismatch")
        object.__setattr__(self, "b", tuple(rat(v) for v in self.b))
        lin = self.linear or (ZERO,) * m
        if len(lin) != m:
            raise ValueError("linear term length mismatch")
        object.__setattr__(self, "linear", tuple(rat(v) for v in lin))

    @property
    def m(self) -> int:
        return self.Q.rows


def require_exact(inst) -> None:
    if inst.float_tagged:
        raise FloatTaggedError(
            "instance carries float data; exact operation refused")


# ---------------------------------------------------------------------------
# encoders

def qspp_to_bqp(inst: QsppInstance) -> BqpInstance:
    """Flow-conservation encoding; all n vertex rows are kept."""
    g = inst.graph
    rows = [[ZERO] * g.m for _ in range(g.n)]
    for label, (t, h) in enumerate(g.arcs):
        rows[t][label] += ONE
        rows[h][label] -= ONE
    b = [ZERO] * g.n
    b[g.source] += ONE
    b[g.target] -= ONE
    return BqpInstance(
        B=RationalMatrix.from_rows(rows), b=tuple(b), Q=inst.Q,
        integral_polytope=True, structure=("qspp", g),
        float_tagged=inst.float_tagged)


def qap_to_bqp(a, d) -> BqpInstance:
    """Quadratic assignment with flows ``a`` and distances ``d``.

    The permutation matrix is flattened row-major, x[i*n + j] = X[i][j],
    so the cost matrix is the Kronecker product of ``a`` and ``d`` and
    ``x^T Q x`` equals ``sum a[i][k] d[j][l] X[i][j] X[k][l]``.  The last
    column-sum row is redundant given the others and is dropped to keep B
    at full row rank.
    """
    a = _as_matrix(a)
    d = _as_matrix(d)
    n = a.rows
    if a.cols != n or d.rows != n or d.cols != n:
        raise ValueError("flow and distance matrices must be square, equal size")
    if n < 2:
        raise ValueError("need n >= 2")
    m = n * n
    q = [[ZERO] * m for _ in range(m)]
    for i in range(n):
        for k in range(n):
            aik = a.at(i, k)
            if aik == 0:
                continue
            for j in range(n):
                for el in range(n):
                    q[i * n + j][k * n + el] = aik * d.at(j, el)
    rows = []
    for i in range(n):  # each item placed exactly once
        row = [ZERO] * m
        for j in range(n):
            row[i * n + j] = ONE
        rows.append(row)
    for j in range(n - 1):  # each position filled exactly once; last dropped
        row = [ZERO] * m
        for i in range(n):
            row[i * n + j] = ONE
        rows.append(row)
    return BqpInstance(
        B=RationalMatrix.from_rows(rows), b=(ONE,) * (2 * n - 1),
        Q=RationalMatrix.from_rows(q), integral_polytope=True,
        structure=("qap", n))


# ---------------------------------------------------------------------------
# constructed linearizable matrices

def make_linearizable(inst: BqpInstance, y, z, symmetrize: bool = False):
    """A matrix that is linearizable over the instance's feasible set.

    Plain form: Q = B^T Y + Diag(z) with vector c = Y^T b + z.
    Symmetrized: Q = B^T Y + Y^T B + Diag(z) with c = 2 Y^T b + z.
    Returns (Q, c).
    """
    y = _as_matrix(y)
    z = tuple(rat(v) for v in z)
    m = inst.m
    if y.rows != inst.B.rows or y.cols != m or len(z) != m:
        raise ValueError("generator shape mismatch")
    bty = inst.B.transpose() @ y
    ytb = y.transpose().matvec(inst.b)
    dz = RationalMatrix.diagonal(z)
    if symmetrize:
        q = bty + bty.transpose() + dz
        c = tuple(2 * u + w for u, w in zip(ytb, z))
    else:
        q = bty + dz
        c = tuple(u + w for u, w in zip(ytb, z))
    return q, c


def weak_sum_matrix(a, z) -> RationalMatrix:
    """M[i][j] = a_i + a_j off the diagonal, M[i][i] = z_i."""
    a = [rat(v) for v in a]
    z = [rat(v) for v in z]
    if len(a) != len(z):
        raise ValueError("length mismatch")
    m = len(a)
    rows = [[(z[i] if i == j else a[i] + a[j]) for j in range(m)]
            for i in range(m)]
    return RationalMatrix.from_rows(rows)


def weak_sum_linearization(a, z, support_size) -> tuple:
    """Linearization of the weak sum matrix when e.x == support_size on K.

    c_i = 2 (support_size - 1) a_i + z_i.
    """
    k = rat(support_size)
    return tuple(2 * (k - 1) * rat(ai) + rat(zi) for ai, zi in zip(a, z))


# ---------------------------------------------------------------------------
# generators

def generate_tournament(n: int) -> QsppInstance:
    """Complete DAG on n vertices; arcs (i, j) for i < j in lexicographic
    order; interaction cost (j - i)^2 between arcs of equal span (the
    diagonal pair e = f included), 0 otherwise."""
    if n < 2:
        raise ValueError("need n >= 2")
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Dag(n, arcs, 0, n - 1)
    spans = [j - i for i, j in arcs]
    m = len(arcs)
    rows = [[ZERO] * m for _ in range(m)]
    for e in range(m):
        se = spans[e]
        w = Fraction(se * se)
        for f in range(m):
            if spans[f] == se:
                rows[e][f] = w
    return QsppInstance(graph=g, Q=RationalMatrix.from_rows(rows))


# ---------------------------------------------------------------------------
# enumeration, evaluation, optimality

def quadratic_value(q: RationalMatrix, x) -> Fraction:
    """x^T Q x for a 0/1 vector, summed over the support only."""
    support = [i for i, v in enumerate(x) if v]
    total = ZERO
    for i in support:
        row = q.row(i)
        for j in support:
            total += row[j]
    return total


def enumerate_feasible(inst, cap: int = PATH_CAP_DEFAULT) -> list:
    """All feasible binary vectors, deterministically ordered.

    QSPP-structured instances walk paths (PathExplosion beyond the cap),
    QAP-structured instances walk permutations, anything else scans
    {0,1}^m; the two latter raise EnumerationTooLarge past the cap.
    """
    structure = ("qspp", inst.graph) if isinstance(inst, QsppInstance) \
        else inst.structure
    if structure and structure[0] == "qspp":
        return [p.incidence(inst.m)
                for p in enumerate_st_paths(structure[1], cap=cap)]
    if structure and structure[0] == "qap":
        n = structure[1]
        if factorial(n) > cap:
            raise EnumerationTooLarge(f"{factorial(n)} permutations")
        out = []
        for perm in permutations(range(n)):
            x = [0] * (n * n)
            for i, j in enumerate(perm):
                x[i * n + j] = 1
            out.append(tuple(x))
        return out
    m = inst.m
    if 2 ** m > cap:
        raise EnumerationTooLarge(f"2^{m} binary vectors")
    out = []
    for bits in range(2 ** m):
        x = tuple((bits >> i) & 1 for i in range(m))
        if inst.B.matvec(x) == inst.b:
            out.append(x)
    return out


def brute_force_opt(inst, cap: int = PATH_CAP_DEFAULT):
    """Exact optimum (value, argmin) by feasible-set enumeration."""
    feasible = enumerate_feasible(inst, cap=cap)
    if not feasible:
        raise ValueError("empty feasible set")
    q = inst.Q
    linear = (ZERO,) * inst.m if isinstance(inst, QsppInstance) \
        else inst.linear
    best = None
    best_x = None
    for x in feasible:
        val = quadratic_value(q, x) + vdot(linear, x)
        if best is None or val < best:
            best = val
            best_x = x
    return best, best_x


def is_linearization(inst, q: RationalMatrix, c,
                     cap: int = PATH_CAP_DEFAULT) -> bool:
    """Does c . x == x^T Q x hold on every feasible x?  (Exact.)"""
    c = tuple(rat(v) for v in c)
    for x in enumerate_feasible(inst, cap=cap):
        if quadratic_value(q, x) != vdot(c, x):
            return False
    return True


# ---------------------------------------------------------------------------
# reformulation

def reformulate(inst: BqpInstance, s, d) -> BqpInstance:
    """Equivalent instance: Q + S + Diag(d) with linear term reduced by d.

    S must be skew-symmetric; the objective value of every binary feasible
    point is unchanged (x^T S x = 0 and x_i^2 = x_i).
    """
    require_exact(inst)
    s = _as_matrix(s)
    m = inst.m
    if s.rows != m or s.cols != m:
        raise ValueError("shift matrix shape mismatch")
    d = tuple(rat(v) for v in d)
    if len(d) != m:
        raise ValueError("diagonal shift length mismatch")
    if s.transpose() != -s:
        raise NotSkewSymmetric("S^T != -S")
    q = inst.Q + s + RationalMatrix.diagonal(d)
    linear = tuple(v - w for v, w in zip(inst.linear, d))
    return replace(inst, Q=q, linear=linear)


# ---------------------------------------------------------------------------
# linearizable families

@dataclass(frozen=True)
class LinearizableFamily:
    """Matrices Q_i with certified linearization vectors c_i.

    Construct through the classmethods so every member arrives verified:
    ``from_generators`` is linearizable by construction, ``verified``
    re-checks by enumeration.  (The spanning-set builder certifies its own
    members and uses the plain constructor.)
    """

    members: tuple  # of (RationalMatrix, tuple) pairs
    provenance: str = "unspecified"

    @property
    def size(self) -> int:
        return len(self.members)

    @staticmethod
    def from_generators(inst: BqpInstance, generators,
                        symmetrize: bool = True) -> "LinearizableFamily":
        members = tuple(make_linearizable(inst, y, z, symmetrize=symmetrize)
                        for y, z in generators)
        return LinearizableFamily(members, provenance="constructed")

    @staticmethod
    def verified(inst, members, cap: int = PATH_CAP_DEFAULT
                 ) -> "LinearizableFamily":
        members = tuple((_as_matrix(q), tuple(rat(v) for v in c))
                        for q, c in members)
        for q, c in members:
            if not is_linearization(inst, q, c, cap=cap):
                raise ValueError("family member is not linearizable")
        return LinearizableFamily(members, provenance="oracle")
