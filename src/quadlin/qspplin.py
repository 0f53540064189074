"""Exact linearizability machinery for quadratic shortest-path costs.

Setting: a corridor DAG (every vertex on some source-target path) and an
arc-interaction matrix Q.  Q is *linearizable* when some arc-cost vector c
satisfies c . x == x^T Q x for every source-target path incidence vector x.

The machinery works in *reduced form*: each transshipment vertex nominates
its smallest-label outgoing arc (non-basic); sweeping the vertices in
reverse topological order moves all weight off the non-basic arcs without
changing any path cost.  Every cost vector has exactly one equivalent
reduced vector, so equality of reduced vectors decides equivalence.

For each vertex v the corridor to v gets a *pseudo-linearization* p_v: the
unique reduced vector whose path costs agree with x^T Q x on the canonical
(critical) paths, one per basic arc.  Q is linearizable iff for every arc
e = (u, v) the pseudo-linearization p_v, pushed down to the corridor of u
(interaction with e folded into the arc costs) and reduced, reproduces p_u;
the first failing arc plus the two differing vectors form a refutation
witness that is independently checkable by path enumeration.

All of the above is linear in Q and only adds and subtracts pair sums, so
the spanning set is the decision's recursion (``_recursion``) run on the
pair coordinates q_ij + q_ji (i < j) instead of on numbers: each per-arc
residual becomes an integer row over those coordinates, and a null-space
basis of the rows yields symmetric members that, with the skew matrices
(implied, not listed), span the graph's zero-diagonal linearizable
matrices.  The same trick on unit arc coordinates gives the reduction
matrix.

Diagonal entries of Q are linear costs in disguise (x_e^2 == x_e) and are
normalized away on entry and folded back into the output vector; asymmetry
never matters because x^T Q x == x^T sym(Q) x identically.

Arithmetic: every map above only adds and subtracts the pair sums
q_ij + q_ji and the given costs, so each computation scales its inputs
once to integer numerators over one common denominator, runs on Python
ints, and builds a Fraction only for the values it returns.  Membership in
a spanning set reduces the query's pair sums against a forward
elimination of the members', kept on the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from quadlin.exactnum import (
    ONE,
    ZERO,
    RationalMatrix,
    common_denominator,
    int_echelon,
    int_reduce,
    matrix_rank,  # unused here; bench/tracing.py wraps this binding by name
    null_space_basis,
    rat,
)
from quadlin.graph import (
    Dag,
    GraphError,
    _critical_paths,
    basic_arc_order,
    is_corridor,
    prune_to_corridor,
)
from quadlin.model import QsppInstance, require_exact


# ---------------------------------------------------------------------------
# reduced form

def _sweep_order(g: Dag):
    """Transshipment vertices in reverse topological order, with the
    non-basic (smallest-label outgoing) arc of each."""
    order = []
    for v in reversed(g.topo_order):
        if v != g.source and v != g.target:
            order.append((v, min(g.out_arcs[v])))
    return order


def reduce_cost_vector(g: Dag, c) -> tuple:
    """The unique equivalent cost vector that vanishes on non-basic arcs.

    Equivalent means: same total cost on every source-target path.  Each
    sweep step subtracts the non-basic arc's value from all arcs leaving
    its tail vertex and adds it to all arcs entering that vertex; any path
    through the vertex uses exactly one of each, so path costs are kept.
    """
    if len(c) != g.m:
        raise ValueError("cost vector length mismatch")
    if not is_corridor(g):
        raise GraphError("reduced form needs a corridor graph")
    nums, den = common_denominator(rat(v) for v in c)
    _reduce_numerators(g, nums)
    return _over(nums, den)


def _reduce_numerators(g: Dag, vals: list) -> None:
    """reduce_cost_vector's sweep on a list of ints, in place."""
    for v, f in _sweep_order(g):
        cf = vals[f]
        if cf == 0:
            continue
        for e in g.out_arcs[v]:
            vals[e] -= cf
        for e in g.in_arcs[v]:
            vals[e] += cf


def _over(nums, den) -> tuple:
    return tuple(Fraction(x, den) for x in nums)


def reduction_matrix(g: Dag) -> RationalMatrix:
    """Matrix R with R c == reduce_cost_vector(g, c) for all c: the sweep
    run on the unit coordinates, so row e holds the coefficients of the
    reduced arc e."""
    if not is_corridor(g):
        raise GraphError("reduced form needs a corridor graph")
    rows = [_Lin({j: 1}) for j in range(g.m)]
    _reduce_numerators(g, rows)
    return RationalMatrix.from_rows(_dense(r, g.m) for r in rows)


class _Lin(dict):
    """An integer combination ``{coordinate: coefficient}`` with no zero
    coefficient.  It adds, subtracts and compares with 0 the way the ints
    of the integer cores do, so those cores run on it unchanged: on unit
    coordinates they give their maps' matrices.  Never mutated after it is
    built, so values may be shared."""

    __slots__ = ()

    def _plus(self, other, sign):
        out = _Lin(self)
        for k, x in (other.items() if other else ()):
            y = out.get(k, 0) + sign * x
            if y:
                out[k] = y
            else:
                del out[k]
        return out

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return _Lin()._plus(self, -1)._plus(other, 1)

    def __eq__(self, other):
        return dict.__eq__(self, other or {})

    def __ne__(self, other):
        return not self == other


def _dense(x, width: int) -> list:
    """An int 0 or a ``_Lin`` as a list of ``width`` coefficients."""
    row = [0] * width
    for k, c in (x.items() if x else ()):
        row[k] = c
    return row


def equivalent_cost_vectors(g: Dag, c1, c2) -> bool:
    """Same cost on every source-target path?  Decided via reduced forms."""
    return reduce_cost_vector(g, c1) == reduce_cost_vector(g, c2)


# ---------------------------------------------------------------------------
# pseudo-linearization

def pseudo_linearization(g: Dag, q: RationalMatrix) -> tuple:
    """The unique reduced vector matching x^T Q x on every critical path.

    Q must have zero diagonal.  The critical-path/basic-arc incidence
    matrix is unit lower triangular when both are ordered by (topological
    position of the tail vertex, arc label), so one forward substitution
    suffices.
    """
    if q.rows != g.m or q.cols != g.m:
        raise ValueError("cost matrix shape mismatch")
    if any(q.at(i, i) != 0 for i in range(g.m)):
        raise ValueError("cost matrix must have zero diagonal")
    s, _, den = _pair_sums(q)
    return _over(_pseudo_numerators(g, s, range(g.m)), den)


def _pair_sums(q: RationalMatrix):
    """``(s, diag, den)``: q_ij + q_ji == s[i][j] / den for i != j (s[i][i]
    is 0) and q_ii == diag[i] / den, with den the least common
    denominator of q's entries."""
    m = q.rows
    nums, den = common_denominator(q.entries)
    rows = [nums[i * m:(i + 1) * m] for i in range(m)]
    s = [[a + b for a, b in zip(row, col)]
         for row, col in zip(rows, zip(*rows))]
    diag = []
    for i in range(m):
        diag.append(rows[i][i])
        s[i][i] = 0
    return s, diag, den


def _pseudo_numerators(g: Dag, s, top) -> list:
    """Integer core of pseudo_linearization.

    ``s`` holds pair-sum numerators indexed by the labels ``top[a]`` of g's
    arcs; the result holds numerators over the same denominator.  Forward
    substitution: the path cost minus the values already fixed for the
    other basic arcs on the path (non-basic arcs stay 0).
    """
    out = [0] * g.m
    path = _critical_paths(g)[1]
    for e in basic_arc_order(g):
        arcs = path(e).arcs
        tops = [top[a] for a in arcs]
        cost = 0
        for k, a in enumerate(tops):
            row = s[a]
            for b in tops[k + 1:]:
                cost += row[b]
        out[e] = cost - sum(out[a] for a in arcs)
    return out


def critical_incidence_matrix(g: Dag) -> RationalMatrix:
    """Critical-path x basic-arc incidence in canonical order (for tests)."""
    basic = basic_arc_order(g)
    nb, path = _critical_paths(g)
    col = {e: k for k, e in enumerate(basic)}
    rows = []
    for e in basic:
        p = path(e)
        row = [ZERO] * len(basic)
        for a in p.arcs:
            if a not in nb:
                row[col[a]] = ONE
        rows.append(row)
    return RationalMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# pushing a cost vector across an arc into the target

def transform_te(parent: Dag, q: RationalMatrix, c, e: int,
                 child: Dag = None):
    """Fold arc e = (v, target) into the costs of the corridor to v.

    Given a cost vector c on the parent graph (target t) and the parent's
    symmetric zero-diagonal interaction matrix q, returns (child, vector)
    where child is the corridor to v and the vector assigns each child arc
    a its parent cost minus the pair interaction q[e][a] + q[a][e], plus
    c[e] on the arcs leaving the source (each s-v path uses exactly one).
    Appending e to any s-v path x then costs c . x + c[e] == x'^T q x' for
    the extended path x', which is what makes the recursion tick.
    """
    m = parent.m
    if len(c) != m:
        raise ValueError("cost vector length mismatch")
    v, head = parent.arcs[e]
    if head != parent.target:
        raise GraphError("arc must point at the target")
    if child is None:
        child = prune_to_corridor(parent, v)
    pair_e = [q.at(e, a) + q.at(a, e) for a in range(m)]
    nums, den = common_denominator([rat(x) for x in c] + pair_e)
    out = _push_numerators(child, nums[:m], nums[m:], e, range(m))
    return child, _over(out, den)


def _push_numerators(child: Dag, c, s_row, e: int, top) -> list:
    """Integer core of transform_te: ``c`` and ``s_row`` (the pair sums
    with e, indexed by ``top`` of the parent's labels) are numerators over
    one denominator, and so is the result."""
    out = []
    for a_local in range(child.m):
        a = child.parent_arc[a_local]
        val = c[a] - s_row[top[a]]
        if child.arcs[a_local][0] == child.source:
            val += c[e]
        out.append(val)
    return out


# ---------------------------------------------------------------------------
# the linearizability decision

@dataclass(frozen=True)
class Witness:
    """Refutation: at arc (tail->head), pushing the head corridor's
    pseudo-linearization down disagrees with the tail corridor's own."""

    arc: int
    tail: int
    head: int
    arc_labels: tuple   # tail-corridor arc labels in the parent graph
    expected: tuple     # pseudo-linearization of the tail corridor
    actual: tuple       # pushed-down, reduced vector from the head corridor


@dataclass(frozen=True)
class LinearizationOutcome:
    linearizable: bool
    linearization: tuple = None
    witness: Witness = None


def _recursion(g: Dag, s):
    """``(corridors, pseudo, pushed)``: the corridor to every vertex but the
    source and its pseudo-linearization numerators, and a generator of
    ``(arc, tail, head, actual)`` for every arc not leaving the source,
    where ``actual`` is the head corridor's pseudo-linearization pushed
    across the arc and reduced, to compare with ``pseudo[tail]``.

    ``s`` holds pair sums as in ``_pseudo_numerators``: ints give the
    decision, ``_Lin`` pair coordinates give the residual maps' rows.

    Each corridor is pruned once, from g.  For an arc (u, v) the head
    corridor pruned to u is ``corridors[u]``: g is a corridor, so every
    s-u path extends by the arc to an s-v path, and pruning keeps the
    parent's label order.  The head's pseudo-linearization is read on
    g's labels, which ``corridors[u]`` maps to.
    """
    corridors, pseudo = {}, {}
    for v in g.topo_order:
        if v != g.source:  # arcs out of the source are not checked
            cor = corridors[v] = prune_to_corridor(g, v)
            pseudo[v] = _pseudo_numerators(cor, s, cor.parent_arc)

    def pushed():
        for e, (u, v) in enumerate(g.arcs):
            if u == g.source:
                continue  # the corridor to the source has no arcs
            head = dict(zip(corridors[v].parent_arc, pseudo[v]))
            actual = _push_numerators(corridors[u], head, s[e], e,
                                      range(g.m))
            _reduce_numerators(corridors[u], actual)
            yield e, u, v, actual

    return corridors, pseudo, pushed()


def linearize_qspp(inst: QsppInstance) -> LinearizationOutcome:
    """Decide linearizability of the instance's cost matrix exactly.

    Linearizable: returns the unique reduced cost vector c with
    c . x == x^T Q x on every source-target path.  Not linearizable:
    returns a witness arc with the two disagreeing reduced vectors.

    Runs in O(n m^3) exact arithmetic; no path enumeration anywhere.
    """
    require_exact(inst)
    g = inst.graph
    if not is_corridor(g):
        raise GraphError("instance graph must be corridor-pruned")
    if g.source == g.target:
        return LinearizationOutcome(linearizable=True, linearization=())
    s, diag, den = _pair_sums(inst.Q)
    corridors, pseudo, pushed = _recursion(g, s)
    for e, u, v, actual in pushed:
        if actual != pseudo[u]:
            return LinearizationOutcome(
                linearizable=False,
                witness=Witness(
                    arc=e, tail=u, head=v,
                    arc_labels=corridors[u].parent_arc,
                    expected=_over(pseudo[u], den),
                    actual=_over(actual, den)))

    _reduce_numerators(g, diag)
    c = [a + b for a, b in zip(pseudo[g.target], diag)]
    return LinearizationOutcome(linearizable=True, linearization=_over(c, den))


# ---------------------------------------------------------------------------
# spanning sets
#
# Everything above is linear in Q.  Run over the coordinates
# s_ij = q_ij + q_ji (i < j) --- every map only ever reads those sums ---
# the decision's per-arc residuals become integer rows; Q is linearizable
# iff its s-coordinates lie in the common null space.  A null-space basis,
# lifted to symmetric matrices, spans the zero-diagonal linearizable
# matrices together with the skew ones, which are linearizable with the
# zero vector and so are implied, not listed.

@dataclass(frozen=True)
class SpanningSet:
    """Symmetric basis (Q_i, c_i) of the zero-diagonal linearizable
    matrices modulo the skew ones, which are implied; ``dimension`` also
    counts those m(m-1)/2 skew directions."""

    members: tuple
    dimension: int

    def contains(self, q: RationalMatrix) -> bool:
        """Is q in the span of the members and the skew matrices?

        Skew parts never matter, so only the pair sums q_ij + q_ji (i < j)
        are compared: the members' pair-sum rows, as integers, are
        forward-eliminated on the first query and kept on the instance;
        every query reduces only its own row against them.  Members all
        have zero diagonal, so anything with a nonzero diagonal entry is
        outside the span by definition.  Raises ValueError("shape
        mismatch") when q's size differs from the members'.
        """
        if self.members:
            size = self.members[0][0].rows
            if (q.rows, q.cols) != (size, size):
                raise ValueError("shape mismatch")
        coords, diag = _pair_coords(q)
        if any(diag):
            return False
        lead, _ = int_reduce(self._echelon, coords)
        return lead < 0

    @cached_property
    def _echelon(self) -> dict:
        return int_echelon(_pair_coords(qi)[0] for qi, _ in self.members)


def _pair_coords(q: RationalMatrix):
    """``(coords, diag)``: q's pair sums q_ij + q_ji (i < j), row by row,
    and its diagonal, as integers over one common denominator (membership
    only needs the direction)."""
    s, diag, _ = _pair_sums(q)
    return [x for i, row in enumerate(s) for x in row[i + 1:]], diag


def spanning_set(g: Dag) -> SpanningSet:
    """Spanning set of the zero-diagonal linearizable matrices for g.

    The members are a symmetric basis, each with the reduced linearization
    vector read off the target pseudo-linearization map; the skew
    directions are implied (linearizable with the zero vector) and only
    counted in ``dimension``.  ``linearize_qspp``'s recursion, run with
    each pair sum s_ij replaced by its unit coordinate, yields every
    per-arc residual as an integer row over the pair coordinates and the
    target's pseudo-linearization as integer rows over them.  Each
    null-space vector is scaled once to integer numerators over one common
    denominator, and its linearization vector is a sparse integer dot
    product with those target rows, turned into Fractions only at the end.
    """
    if not is_corridor(g):
        raise GraphError("spanning sets need a corridor graph")
    if g.source == g.target:
        return SpanningSet(members=(), dimension=0)
    m = g.m
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    width = len(pairs)
    s = [[0] * m for _ in range(m)]
    for k, (i, j) in enumerate(pairs):
        s[i][j] = s[j][i] = _Lin({k: 1})

    _, pseudo, pushed = _recursion(g, s)
    residuals = set()
    for _, u, _, actual in pushed:
        for a, b in zip(actual, pseudo[u]):
            if a != b:
                residuals.add(tuple(_dense(a - b, width)))

    p_t = [_dense(p, width) for p in pseudo[g.target]]
    if residuals:
        sym_basis = null_space_basis(RationalMatrix.from_rows(sorted(residuals)))
    else:
        sym_basis = [tuple(ONE if k == j else ZERO for k in range(width))
                     for j in range(width)]

    members = []
    for vec in sym_basis:
        nums, den = common_denominator(vec)
        support = [(k, x) for k, x in enumerate(nums) if x]
        flat = [ZERO] * (m * m)
        for k, _ in support:
            i, j = pairs[k]
            flat[i * m + j] = flat[j * m + i] = vec[k]
        # s-coordinates of this member are 2*vec = 2*nums/den
        c = tuple(Fraction(2 * sum(prow[k] * x for k, x in support), den)
                  for prow in p_t)
        members.append((RationalMatrix(m, m, tuple(flat)), c))
    return SpanningSet(members=tuple(members),
                       dimension=len(members) + width)
