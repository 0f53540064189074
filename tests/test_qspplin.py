import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlin import qspplin
from quadlin.exactnum import (
    RationalMatrix,
    matrix_rank,
    solve_lower_triangular,
    vadd,
    vscale,
)
from quadlin.graph import (
    Dag,
    GraphError,
    basic_arc_order,
    critical_path,
    enumerate_st_paths,
    non_basic_arcs,
    prune_to_corridor,
)
from quadlin.model import (
    FloatTaggedError,
    QsppInstance,
    generate_tournament,
    is_linearization,
    make_linearizable,
    qspp_to_bqp,
    quadratic_value,
    weak_sum_linearization,
    weak_sum_matrix,
)
from quadlin.qspplin import (
    SpanningSet,
    critical_incidence_matrix,
    equivalent_cost_vectors,
    linearize_qspp,
    pseudo_linearization,
    reduce_cost_vector,
    reduction_matrix,
    spanning_set,
    transform_te,
)

from helpers import (
    chain,
    diamond,
    diamond_chain,
    double_diamond,
    rand_rational,
    rand_rows,
    rand_symmetric_rows,
    random_corridor_dag,
)
import oracles
from oracles import system_solvable

F = Fraction


def zero_diag_rows(rng, m, symmetric=False, **kw):
    rows = (rand_symmetric_rows(rng, m, **kw) if symmetric
            else rand_rows(rng, m, m, **kw))
    for i in range(m):
        rows[i][i] = F(0)
    return rows


def exact_tuple(values):
    """Bit-equality of exact results: Fractions, compared by value."""
    assert all(type(v) is F for v in values)
    return tuple(values)


def path_cost(c, path):
    return sum(c[a] for a in path.arcs)


def oracle_linearizable(g, q):
    """Ground truth by brute force: some c matches x^T q x on all paths."""
    paths = enumerate_st_paths(g)
    rows = [list(p.incidence(g.m)) for p in paths]
    rhs = [quadratic_value(q, p.incidence(g.m)) for p in paths]
    return system_solvable(rows, rhs)


# ---------------------------------------------------------------------------
# reduced form

def test_reduce_diamond_closed_form():
    g = diamond()
    c = (F(5), F(-3), F(7, 2), F(2))
    assert reduce_cost_vector(g, c) == (F(5) + F(7, 2), F(-3) + F(2), 0, 0)


def test_reduce_preserves_path_costs():
    rng = random.Random(11)
    for _ in range(50):
        g = random_corridor_dag(rng)
        c = tuple(rand_rational(rng) for _ in range(g.m))
        r = reduce_cost_vector(g, c)
        for p in enumerate_st_paths(g):
            assert path_cost(r, p) == path_cost(c, p)
        for e in non_basic_arcs(g):
            assert r[e] == 0
        assert reduce_cost_vector(g, r) == r


def test_reduction_matrix_matches_sweep():
    rng = random.Random(12)
    for _ in range(20):
        g = random_corridor_dag(rng)
        mat = reduction_matrix(g)
        c = tuple(rand_rational(rng) for _ in range(g.m))
        assert mat.matvec(c) == reduce_cost_vector(g, c)


def test_equivalence_via_vertex_shift():
    rng = random.Random(13)
    for _ in range(30):
        g = random_corridor_dag(rng, n_min=4)
        c = [rand_rational(rng) for _ in range(g.m)]
        mids = [v for v in range(g.n) if v not in (g.source, g.target)]
        w = rng.choice(mids)
        delta = rand_rational(rng) + 1
        shifted = list(c)
        for e in g.out_arcs[w]:
            shifted[e] += delta
        for e in g.in_arcs[w]:
            shifted[e] -= delta
        assert equivalent_cost_vectors(g, c, shifted)
        bumped = list(c)
        bumped[rng.randrange(g.m)] += 1
        assert not equivalent_cost_vectors(g, c, bumped)


def test_reduce_rejects_bad_input():
    g = diamond()
    with pytest.raises(ValueError):
        reduce_cost_vector(g, (F(1),) * 3)
    not_corridor = Dag(4, [(0, 1), (1, 3), (2, 3)], 0, 3)
    with pytest.raises(GraphError):
        reduce_cost_vector(not_corridor, (F(0),) * 3)


# ---------------------------------------------------------------------------
# pseudo-linearization

def test_pseudo_diamond_closed_form():
    g = diamond()
    rows = [[F(0)] * 4 for _ in range(4)]
    rows[0][2] = F(3)
    rows[2][0] = F(1, 2)
    rows[1][3] = F(-2)
    p = pseudo_linearization(g, RationalMatrix.from_rows(rows))
    assert p == (F(7, 2), F(-2), 0, 0)


def test_pseudo_matches_critical_path_costs():
    rng = random.Random(21)
    for _ in range(40):
        g = random_corridor_dag(rng)
        q = RationalMatrix.from_rows(zero_diag_rows(rng, g.m))
        p = pseudo_linearization(g, q)
        from quadlin.graph import basic_arc_order, critical_path
        for e in basic_arc_order(g):
            cp = critical_path(g, e)
            assert path_cost(p, cp) == quadratic_value(q, cp.incidence(g.m))
        for e in non_basic_arcs(g):
            assert p[e] == 0
        assert reduce_cost_vector(g, p) == p


def test_pseudo_matches_fraction_reference():
    # Reference in Fractions: forward substitution on the critical-path
    # incidence with x^T Q x on the right.  Denominators 3, 5 and 7 make
    # the common denominator of the integer core nontrivial.
    rng = random.Random(23)
    for k in range(40):
        g = random_corridor_dag(rng)
        q = RationalMatrix.from_rows(zero_diag_rows(
            rng, g.m, symmetric=bool(k % 2), denoms=(3, 5, 7)))
        basic = basic_arc_order(g)
        rhs = [quadratic_value(q, critical_path(g, e).incidence(g.m))
               for e in basic]
        solved = solve_lower_triangular(critical_incidence_matrix(g), rhs)
        ref = [F(0)] * g.m
        for e, val in zip(basic, solved):
            ref[e] = val
        assert exact_tuple(pseudo_linearization(g, q)) == tuple(ref)


def test_pseudo_rejects_nonzero_diagonal():
    g = diamond()
    rows = [[F(0)] * 4 for _ in range(4)]
    rows[1][1] = F(1)
    with pytest.raises(ValueError):
        pseudo_linearization(g, RationalMatrix.from_rows(rows))


def test_critical_incidence_unit_lower_triangular():
    rng = random.Random(22)
    for _ in range(40):
        g = random_corridor_dag(rng)
        mat = critical_incidence_matrix(g)
        assert mat.rows == mat.cols
        for i in range(mat.rows):
            assert mat.at(i, i) == 1
            for j in range(i + 1, mat.cols):
                assert mat.at(i, j) == 0


# ---------------------------------------------------------------------------
# pushing across an arc

def test_transform_diamond_example():
    g = diamond()
    rows = [[F(0)] * 4 for _ in range(4)]
    rows[0][2] = F(3)
    rows[2][0] = F(1)
    q = RationalMatrix.from_rows(rows)
    c = (F(10), F(20), F(30), F(40))
    child, pushed = transform_te(g, q, c, 2)
    assert child.m == 1 and child.parent_arc == (0,)
    assert pushed == (F(10) - F(4) + F(30),)


def test_transform_and_reduce_match_fraction_reference():
    rng = random.Random(24)
    for _ in range(30):
        g = random_corridor_dag(rng)
        q = RationalMatrix.from_rows(zero_diag_rows(rng, g.m,
                                                    denoms=(3, 5, 7)))
        c = [rand_rational(rng, denoms=(1, 3, 5, 7)) for _ in range(g.m)]
        for e in g.in_arcs[g.target]:
            if g.arcs[e][0] == g.source:
                continue
            child, pushed = transform_te(g, q, c, e)
            ref = []
            for a_local, a in enumerate(child.parent_arc):
                val = c[a] - q.at(e, a) - q.at(a, e)
                if child.arcs[a_local][0] == child.source:
                    val += c[e]
                ref.append(val)
            assert exact_tuple(pushed) == tuple(ref)
            assert exact_tuple(reduce_cost_vector(child, pushed)) == \
                reduction_matrix(child).matvec(ref)


def test_transform_rejects_wrong_arc():
    g = diamond()
    q = RationalMatrix.zeros(4, 4)
    with pytest.raises(GraphError):
        transform_te(g, q, (F(0),) * 4, 0)  # head is not the target


# ---------------------------------------------------------------------------
# the decision procedure

def _qspp(g, rows):
    return QsppInstance(g, RationalMatrix.from_rows(rows))


def test_linearize_constructed_round_trip():
    rng = random.Random(31)
    for k in range(30):
        g = random_corridor_dag(rng, n_max=7, m_max=12)
        base = qspp_to_bqp(QsppInstance(g, RationalMatrix.zeros(g.m, g.m)))
        y = rand_rows(rng, g.n, g.m)
        z = [rand_rational(rng) for _ in range(g.m)]
        q, c_known = make_linearizable(base, y, z, symmetrize=bool(k % 2))
        out = linearize_qspp(QsppInstance(g, q))
        assert out.linearizable
        assert equivalent_cost_vectors(g, out.linearization, c_known)
        assert reduce_cost_vector(g, out.linearization) == out.linearization
        assert is_linearization(QsppInstance(g, q), q, out.linearization)


def test_linearize_weak_sum_diamond():
    rng = random.Random(32)
    g = diamond()
    a = [rand_rational(rng) for _ in range(4)]
    z = [rand_rational(rng) for _ in range(4)]
    q = weak_sum_matrix(a, z)
    c = weak_sum_linearization(a, z, 2)
    out = linearize_qspp(QsppInstance(g, q))
    assert out.linearizable
    assert equivalent_cost_vectors(g, out.linearization, c)


def test_linearize_weak_sum_diamond_chain():
    rng = random.Random(33)
    g = diamond_chain(2)
    a = [rand_rational(rng) for _ in range(g.m)]
    z = [rand_rational(rng) for _ in range(g.m)]
    q = weak_sum_matrix(a, z)
    c = weak_sum_linearization(a, z, 4)  # every path uses 4 arcs
    out = linearize_qspp(QsppInstance(g, q))
    assert out.linearizable
    assert equivalent_cost_vectors(g, out.linearization, c)


def test_double_diamond_far_pair_not_linearizable():
    g = double_diamond()
    rows = [[F(0)] * 8 for _ in range(8)]
    rows[0][6] = rows[6][0] = F(1)
    out = linearize_qspp(_qspp(g, rows))
    assert not out.linearizable
    w = out.witness
    assert w is not None and out.linearization is None
    assert 0 <= w.arc < 8 and g.arcs[w.arc] == (w.tail, w.head)
    assert len(w.expected) == len(w.actual) == len(w.arc_labels)
    assert w.expected != w.actual
    assert not oracle_linearizable(g, RationalMatrix.from_rows(rows))


def test_linearize_agrees_with_path_system_oracle():
    rng = random.Random(34)
    hits = {True: 0, False: 0}
    for k in range(80):
        over = k % 2 == 0
        g = random_corridor_dag(rng, n_max=7, m_max=12,
                                require_overdetermined=over)
        rows = zero_diag_rows(rng, g.m, symmetric=bool(k % 3))
        if k % 4 == 0:  # nonzero diagonal exercises the normalization
            for i in range(g.m):
                rows[i][i] = rand_rational(rng)
        q = RationalMatrix.from_rows(rows)
        out = linearize_qspp(QsppInstance(g, q))
        assert out.linearizable == oracle_linearizable(g, q)
        hits[out.linearizable] += 1
        if out.linearizable:
            assert is_linearization(QsppInstance(g, q), q, out.linearization)
    assert hits[True] > 5 and hits[False] > 5


def test_tiny_corridors_always_linearizable():
    # Simple graphs on <= 3 vertices, and parallel arcs confined to one
    # bank, admit at most one path of length 2 per interacting pair, so
    # the path system never becomes overdetermined.
    rng = random.Random(35)
    tiny = [
        Dag(2, [(0, 1)], 0, 1),
        Dag(2, [(0, 1), (0, 1)], 0, 1),
        Dag(2, [(0, 1), (0, 1), (0, 1)], 0, 1),
        Dag(3, [(0, 1), (1, 2)], 0, 2),
        Dag(3, [(0, 1), (0, 2), (1, 2)], 0, 2),
        Dag(3, [(0, 1), (0, 1), (1, 2)], 0, 2),
        Dag(3, [(0, 1), (1, 2), (1, 2)], 0, 2),
    ]
    for g in tiny:
        for _ in range(15):
            rows = zero_diag_rows(rng, g.m)
            for i in range(g.m):
                rows[i][i] = rand_rational(rng)
            out = linearize_qspp(_qspp(g, rows))
            assert out.linearizable


def test_tiny_corridor_with_both_banks_parallel_can_fail():
    # Two (0,1) arcs and two (1,2) arcs give four length-2 paths whose
    # incidence vectors satisfy x1 - x2 - x3 + x4 = 0, so the interaction
    # sums must satisfy s03 - s04 - s13 + s14 = 0.  Generic Q violates it.
    g = Dag(3, [(0, 1), (0, 1), (0, 2), (1, 2), (1, 2)], 0, 2)
    rng = random.Random(36)
    verdicts = set()
    for _ in range(20):
        rows = zero_diag_rows(rng, g.m)
        q = RationalMatrix.from_rows(rows)
        out = linearize_qspp(QsppInstance(g, q))
        assert out.linearizable == oracle_linearizable(g, q)
        s = lambda i, j: q.at(i, j) + q.at(j, i)
        balanced = s(0, 3) - s(0, 4) - s(1, 3) + s(1, 4) == 0
        assert out.linearizable == balanced
        verdicts.add(out.linearizable)
    assert False in verdicts


def test_linearize_diagonal_folding():
    rng = random.Random(36)
    for _ in range(20):
        g = random_corridor_dag(rng, n_max=6, m_max=10)
        rows = zero_diag_rows(rng, g.m)
        d = [rand_rational(rng) for _ in range(g.m)]
        out0 = linearize_qspp(_qspp(g, [r[:] for r in rows]))
        for i in range(g.m):
            rows[i][i] = d[i]
        out = linearize_qspp(_qspp(g, rows))
        assert out.linearizable == out0.linearizable
        if out.linearizable:
            shift = reduce_cost_vector(g, d)
            assert out.linearization == tuple(
                a + b for a, b in zip(out0.linearization, shift))


def test_linearize_rejects_float_tagged_and_non_corridor():
    g = diamond()
    inst = QsppInstance(g, RationalMatrix.zeros(4, 4), float_tagged=True)
    with pytest.raises(FloatTaggedError):
        linearize_qspp(inst)
    bad = Dag(4, [(0, 1), (1, 3), (2, 3)], 0, 3)
    with pytest.raises(GraphError):
        linearize_qspp(QsppInstance(bad, RationalMatrix.zeros(3, 3)))
    with pytest.raises(GraphError):
        spanning_set(bad)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_linearize_round_trip_property(seed):
    rng = random.Random(seed)
    g = random_corridor_dag(rng, n_max=6, m_max=10)
    base = qspp_to_bqp(QsppInstance(g, RationalMatrix.zeros(g.m, g.m)))
    y = rand_rows(rng, g.n, g.m)
    z = [rand_rational(rng) for _ in range(g.m)]
    q, c_known = make_linearizable(base, y, z, symmetrize=seed % 2 == 0)
    out = linearize_qspp(QsppInstance(g, q))
    assert out.linearizable
    assert equivalent_cost_vectors(g, out.linearization, c_known)


# ---------------------------------------------------------------------------
# spanning sets

def test_spanning_diamond_dimension():
    # 6 symmetric members; the 6 skew directions are implied
    ss = spanning_set(diamond())
    assert ss.dimension == 12 and len(ss.members) == 6


def test_spanning_single_path_all_matrices():
    g = chain(4)
    ss = spanning_set(g)
    assert ss.dimension == g.m * g.m - g.m
    rng = random.Random(41)
    q = RationalMatrix.from_rows(zero_diag_rows(rng, g.m))
    assert ss.contains(q)


def test_spanning_members_verify_and_are_independent():
    rng = random.Random(42)
    graphs = [diamond(), double_diamond(), chain(3),
              random_corridor_dag(rng, n_max=6, m_max=9)]
    for g in graphs:
        ss = spanning_set(g)
        coord_rows = []
        for q, c in ss.members:
            assert q.is_symmetric()
            assert all(q.at(i, i) == 0 for i in range(g.m))
            assert is_linearization(QsppInstance(g, q), q, c)
            coord_rows.append([q.at(i, j) for i in range(g.m)
                               for j in range(g.m) if i != j])
        assert matrix_rank(RationalMatrix.from_rows(coord_rows)) \
            == len(ss.members)
        assert ss.dimension == len(ss.members) + g.m * (g.m - 1) // 2


def test_spanning_membership_matches_decision():
    rng = random.Random(43)
    skew_rng = random.Random(143)  # keeps rng's draws as they were
    proper_rng = random.Random(243)

    def graphs():
        for _ in range(12):  # each of these spans the whole space
            yield random_corridor_dag(rng, n_max=6, m_max=9)
        # spans that are proper subspaces, so random queries fall outside
        yield diamond_chain(2)
        yield double_diamond()
        for _ in range(2):
            yield random_corridor_dag(proper_rng, n_max=7, m_max=10,
                                      require_overdetermined=True)

    verdicts = set()
    for g in graphs():
        ss = spanning_set(g)
        for _ in range(6):
            q = RationalMatrix.from_rows(zero_diag_rows(rng, g.m))
            verdict = linearize_qspp(QsppInstance(g, q)).linearizable
            assert ss.contains(q) == verdict
            verdicts.add(verdict)
            # skew directions are implied: adding one keeps the verdict
            upper = RationalMatrix.from_rows(
                [[rand_rational(skew_rng) if j > i else F(0)
                  for j in range(g.m)] for i in range(g.m)])
            assert ss.contains(q + upper - upper.transpose()) == verdict
    assert verdicts == {True, False}


def test_spanning_rejects_nonzero_diagonal():
    ss = spanning_set(diamond())
    rows = [[F(0)] * 4 for _ in range(4)]
    rows[2][2] = F(1)
    assert not ss.contains(RationalMatrix.from_rows(rows))


def test_spanning_contains_rejects_shape_mismatch():
    ss = spanning_set(diamond())
    with pytest.raises(ValueError, match="shape mismatch"):
        ss.contains(RationalMatrix.zeros(3, 3))
    with pytest.raises(ValueError, match="shape mismatch"):
        ss.contains(RationalMatrix.zeros(4, 5))


def test_contains_matches_rank_reference():
    # A hand-built set with dependent members (a duplicate, and the sum of
    # two members) against a Fraction rank test done here over the pair
    # sums q_ij + q_ji, the coordinates left once skew parts are implied.
    # The first member is scaled by 3, so some pivots are not units.
    rng = random.Random(44)
    g = double_diamond()
    m = g.m
    base = spanning_set(g).members
    (q0, c0), (q1, c1), (q2, c2) = base[0], base[1], base[3]
    members = ((q0.scale(3), vscale(3, c0)),) + base[1:5] + (
        base[1], (q1 + q2, vadd(c1, c2)))
    ss = SpanningSet(members=members, dimension=len(members))

    def coords(q):
        return [q.at(i, j) + q.at(j, i)
                for i in range(m) for j in range(i + 1, m)]

    rows = [coords(q) for q, _ in members]
    base_rank = matrix_rank(RationalMatrix.from_rows(rows))
    verdicts = set()
    for k in range(24):
        if k % 3 == 2:
            q = RationalMatrix.from_rows(zero_diag_rows(rng, m,
                                                        denoms=(3, 5, 7)))
        else:
            q = RationalMatrix.zeros(m, m)
            for qi, _ in rng.sample(members, 3):
                q = q + qi.scale(rand_rational(rng, denoms=(1, 3, 5, 7)))
            if k % 3 == 1:
                a, b = rng.sample(range(m), 2)
                rows_q = q.to_rows()
                rows_q[a][b] += F(1, 7)
                q = RationalMatrix.from_rows(rows_q)
        stacked = matrix_rank(RationalMatrix.from_rows(rows + [coords(q)]))
        verdict = ss.contains(q)
        assert verdict == (stacked == base_rank)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n, shape, members_sha, reduction_sha, arc", [
    (5, (89, 44),
     "f8ba8d475bfe1432a764d85696214468ff0a0eec269ea702729b4fb9ab8b2a38",
     "d4eeba0dc7fd5fdaa85972e4eccccebdeeb8e85974adb6f13074f7ffde7d029d", 8),
    (6, (205, 100),
     "a8898fc249e149a58dda093f33ccbd9a553eec47f5e91aa6b9e01bee159e582f",
     "4d6c1e71af3700b3edc0b2de76f4cc70abe1520b5d30b2f659a92425c18aa4f0", 10),
])
def test_recursion_outputs_are_pinned_on_tournaments(n, shape, members_sha,
                                                     reduction_sha, arc):
    # The decision, the spanning set and the reduction matrix run one
    # recursion on ints and on pair or unit coordinates; every output they
    # give is pinned bit for bit.
    def sha(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()

    inst = generate_tournament(n)
    ss = spanning_set(inst.graph)
    assert (ss.dimension, len(ss.members)) == shape
    assert sha([(q.entries, c) for q, c in ss.members]) == members_sha
    assert sha(reduction_matrix(inst.graph).entries) == reduction_sha
    w = linearize_qspp(inst).witness
    assert (w.arc, w.tail, w.head) == (arc, 2, 4)
    assert exact_tuple(w.expected) == (2, 0, 0)
    assert exact_tuple(w.actual) == (2, -16, 0)


def test_recursion_builds_no_dag(monkeypatch):
    # every corridor is a view of the instance graph: the decision and the
    # spanning set build no Dag, pruned or otherwise
    inst = generate_tournament(7)
    built = []
    original = Dag.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Dag, "__init__", counting)
    prune_to_corridor(inst.graph, 3)
    assert len(built) == 1  # the counter sees a Dag being built
    built.clear()
    spanning_set(inst.graph)
    linearize_qspp(inst)
    assert built == []


def test_views_match_the_pruned_dag_recursion():
    # the recursion on views of one graph against oracles.dag_recursion,
    # which prunes a Dag per corridor: outcomes, witnesses, spanning sets,
    # reduction matrices and membership verdicts are equal bit for bit
    rng = random.Random(52)
    verdicts, memberships = set(), set()
    for k in range(48):
        g = random_corridor_dag(rng, n_max=7, m_max=12,
                                require_overdetermined=k % 2 == 0)
        if k % 3 == 0:
            base = qspp_to_bqp(QsppInstance(g, RationalMatrix.zeros(g.m,
                                                                    g.m)))
            q, _ = make_linearizable(base, rand_rows(rng, g.n, g.m),
                                     [rand_rational(rng)
                                      for _ in range(g.m)])
            rows = q.to_rows()
        else:
            rows = rand_rows(rng, g.m, g.m, denoms=(1, 2, 3))
        diagonal = [[rows[i][j] if i == j else F(0) for j in range(g.m)]
                    for i in range(g.m)]
        for r in (rows, diagonal):
            inst = _qspp(g, r)
            out = linearize_qspp(inst)
            assert out == oracles.dag_linearize_qspp(inst)
            verdicts.add(out.linearizable)
        assert reduction_matrix(g) == oracles.dag_reduction_matrix(g)
        if k % 4 == 0:
            ss = spanning_set(g)
            assert ss == oracles.dag_spanning_set(g)
            for q in (inst.Q, RationalMatrix.from_rows(
                    zero_diag_rows(rng, g.m)), ss.members[-1][0]):
                verdict = ss.contains(q)
                assert verdict == oracles.dense_contains(ss, q)
                memberships.add(verdict)
    assert verdicts == memberships == {True, False}
