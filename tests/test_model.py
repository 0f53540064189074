import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import pytest

from quadlin.exactnum import RationalMatrix, matrix_rank, vdot
from quadlin.graph import Dag, PathExplosion, count_st_paths
from quadlin.model import (
    BqpInstance,
    EnumerationTooLarge,
    FloatTaggedError,
    LinearizableFamily,
    NotSkewSymmetric,
    QsppInstance,
    brute_force_opt,
    enumerate_feasible,
    generate_tournament,
    is_linearization,
    make_linearizable,
    qap_to_bqp,
    qspp_to_bqp,
    quadratic_value,
    reformulate,
    require_exact,
    weak_sum_linearization,
    weak_sum_matrix,
)

from helpers import (
    diamond,
    rand_rational,
    rand_rows,
    rand_symmetric_rows,
    random_corridor_dag,
)

F = Fraction


def qspp(graph, rows):
    return QsppInstance(graph=graph, Q=RationalMatrix.from_rows(rows))


def zero_qspp(graph):
    return qspp(graph, [[0] * graph.m for _ in range(graph.m)])


def test_qspp_to_bqp_diamond():
    inst = qspp_to_bqp(zero_qspp(diamond()))
    assert inst.B.to_rows() == [
        [F(1), F(1), F(0), F(0)],
        [F(-1), F(0), F(1), F(0)],
        [F(0), F(-1), F(0), F(1)],
        [F(0), F(0), F(-1), F(-1)],
    ]
    assert inst.b == (F(1), F(0), F(0), F(-1))
    assert inst.integral_polytope
    assert inst.linear == (F(0),) * 4


def test_flow_feasible_iff_path_incidence():
    rng = random.Random(23)
    for _ in range(15):
        g = random_corridor_dag(rng, m_max=12)
        inst = qspp_to_bqp(zero_qspp(g))
        via_paths = set(enumerate_feasible(inst))
        generic = BqpInstance(B=inst.B, b=inst.b, Q=inst.Q)
        via_scan = set(enumerate_feasible(generic, cap=2 ** g.m))
        assert via_paths == via_scan


def test_redundant_rows_are_harmless():
    g = diamond()
    inst = qspp_to_bqp(zero_qspp(g))
    rows = inst.B.to_rows()
    stacked = BqpInstance(
        B=RationalMatrix.from_rows(rows + [rows[0]]),
        b=inst.b + (inst.b[0],), Q=inst.Q)
    assert (set(enumerate_feasible(stacked, cap=100))
            == set(enumerate_feasible(inst)))


def test_qap_encoding_matches_permutation_objective():
    rng = random.Random(29)
    for _ in range(10):
        n = 3
        a = rand_rows(rng, n, n, span=4, denoms=(1,))
        d = rand_rows(rng, n, n, span=4, denoms=(1,))
        inst = qap_to_bqp(a, d)
        assert inst.B.rows == 2 * n - 1
        assert matrix_rank(inst.B) == 2 * n - 1
        for perm in permutations(range(n)):
            x = [0] * (n * n)
            for i, j in enumerate(perm):
                x[i * n + j] = 1
            direct = sum(a[i][k] * d[perm[i]][perm[k]]
                         for i in range(n) for k in range(n))
            assert quadratic_value(inst.Q, x) == direct


def test_qap_feasible_set_is_permutations():
    inst = qap_to_bqp([[1, 0], [0, 1]], [[0, 1], [1, 0]])
    via_perm = set(enumerate_feasible(inst))
    generic = BqpInstance(B=inst.B, b=inst.b, Q=inst.Q)
    assert via_perm == set(enumerate_feasible(generic, cap=100))
    assert via_perm == {(1, 0, 0, 1), (0, 1, 1, 0)}


def test_make_linearizable_both_forms():
    rng = random.Random(31)
    for _ in range(10):
        g = random_corridor_dag(rng, m_max=10)
        inst = qspp_to_bqp(zero_qspp(g))
        y = rand_rows(rng, inst.B.rows, inst.m)
        z = [rand_rational(rng) for _ in range(inst.m)]
        for symmetrize in (False, True):
            q, c = make_linearizable(inst, y, z, symmetrize=symmetrize)
            assert is_linearization(inst, q, c)
            if symmetrize:
                assert q.is_symmetric()


def test_make_linearizable_on_qap():
    rng = random.Random(37)
    inst = qap_to_bqp(rand_rows(rng, 3, 3), rand_rows(rng, 3, 3))
    y = rand_rows(rng, inst.B.rows, inst.m)
    z = [rand_rational(rng) for _ in range(inst.m)]
    q, c = make_linearizable(inst, y, z, symmetrize=True)
    assert is_linearization(inst, q, c)


def test_weak_sum_on_uniform_length_paths():
    g = diamond()  # both paths use exactly 2 arcs
    inst = qspp_to_bqp(zero_qspp(g))
    a = [F(1), F(-2), F(3, 2), F(0)]
    z = [F(5), F(0), F(-1), F(2)]
    mat = weak_sum_matrix(a, z)
    assert mat.at(0, 1) == F(-1) and mat.at(1, 0) == F(-1)
    assert mat.at(2, 2) == F(-1)
    c = weak_sum_linearization(a, z, 2)
    assert is_linearization(inst, mat, c)


def test_weak_sum_needs_constant_support():
    g = Dag(3, [(0, 1), (1, 2), (0, 2)], 0, 2)  # path lengths 2 and 1
    inst = qspp_to_bqp(zero_qspp(g))
    mat = weak_sum_matrix([0, 0, 1], [0, 0, 0])
    c = weak_sum_linearization([0, 0, 1], [0, 0, 0], 2)
    assert not is_linearization(inst, mat, c)


def test_bqp_instance_keeps_its_hash(monkeypatch):
    inst = generate_tournament(5)
    a, b = qspp_to_bqp(inst), qspp_to_bqp(inst)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    other = replace(a, linear=(F(1),) * a.m)
    assert other != a

    hashed = []
    original = Fraction.__hash__

    def counting(self):
        hashed.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    hash(other)  # first hash: reads the linear term's Fractions
    assert hashed
    hashed.clear()
    hash(a)
    hash(other)
    assert hashed == []


def test_tournament_shape():
    for n, m in ((13, 78), (14, 91), (15, 105)):
        inst = generate_tournament(n)
        assert inst.m == m
        assert count_st_paths(inst.graph) == 2 ** (n - 2)
    t = generate_tournament(13)
    assert t.Q.is_symmetric()
    arcs = t.graph.arcs
    assert arcs[0] == (0, 1) and arcs[1] == (0, 2)
    e01 = arcs.index((0, 1))
    e34 = arcs.index((3, 4))
    e02 = arcs.index((0, 2))
    e13 = arcs.index((1, 3))
    assert t.Q.at(e01, e34) == F(1)
    assert t.Q.at(e02, e13) == F(4)
    assert t.Q.at(e01, e02) == F(0)
    assert t.Q.at(e02, e02) == F(4)  # diagonal pair counts


def test_brute_force_opt_diamond():
    g = diamond()
    rows = [[0] * 4 for _ in range(4)]
    rows[0][2] = rows[2][0] = 3  # top path pays 6
    rows[1][3] = rows[3][1] = 1  # bottom path pays 2
    inst = qspp(g, rows)
    value, x = brute_force_opt(inst)
    assert value == F(2)
    assert x == (0, 1, 0, 1)


def test_brute_force_opt_respects_linear_term():
    inst = qap_to_bqp([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    shifted = BqpInstance(B=inst.B, b=inst.b, Q=inst.Q,
                          linear=(5, 0, 0, 0), structure=inst.structure)
    value, x = brute_force_opt(shifted)
    assert value == F(0) and x == (0, 1, 1, 0)


def test_enumeration_caps():
    rng = random.Random(41)
    g = random_corridor_dag(rng, n_min=6, m_max=16)
    inst = qspp_to_bqp(zero_qspp(g))
    with pytest.raises(PathExplosion):
        enumerate_feasible(inst, cap=0)
    generic = BqpInstance(B=inst.B, b=inst.b, Q=inst.Q)
    with pytest.raises(EnumerationTooLarge):
        enumerate_feasible(generic, cap=7)


def test_is_linearization_negative():
    g = diamond()
    rows = [[0] * 4 for _ in range(4)]
    rows[0][2] = 1  # only the top path pays
    inst = qspp(g, rows)
    assert not is_linearization(inst, inst.Q, (0, 0, 0, 0))
    assert is_linearization(inst, inst.Q, (1, 0, 0, 0))


def test_reformulate_invariance_and_validation():
    rng = random.Random(43)
    g = random_corridor_dag(rng, m_max=8)
    base = [[rand_rational(rng) for _ in range(g.m)] for _ in range(g.m)]
    inst = qspp_to_bqp(qspp(g, base))
    m = g.m
    skew = [[F(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            v = rand_rational(rng)
            skew[i][j], skew[j][i] = v, -v
    d = [rand_rational(rng) for _ in range(m)]
    ref = reformulate(inst, skew, d)
    for x in enumerate_feasible(inst):
        before = quadratic_value(inst.Q, x) + vdot(inst.linear, x)
        after = quadratic_value(ref.Q, x) + vdot(ref.linear, x)
        assert before == after
    bad = [[F(0)] * m for _ in range(m)]
    bad[0][1] = F(1)
    with pytest.raises(NotSkewSymmetric):
        reformulate(inst, bad, d)


def test_float_tag_blocks_exact_ops():
    g = diamond()
    inst = QsppInstance(graph=g, Q=RationalMatrix.zeros(4, 4),
                        float_tagged=True)
    with pytest.raises(FloatTaggedError):
        require_exact(inst)
    with pytest.raises(FloatTaggedError):
        reformulate(qspp_to_bqp(inst), RationalMatrix.zeros(4, 4).to_rows(),
                    [0] * 4)


def test_family_verification():
    g = diamond()
    inst = qspp_to_bqp(zero_qspp(g))
    rows = [[0] * 4 for _ in range(4)]
    rows[0][2] = rows[2][0] = 1
    good = (RationalMatrix.from_rows(rows), (F(2), F(0), F(0), F(0)))
    fam = LinearizableFamily.verified(inst, [good])
    assert fam.size == 1 and fam.provenance == "oracle"
    bad = (RationalMatrix.from_rows(rows), (F(1), F(1), F(1), F(1)))
    with pytest.raises(ValueError):
        LinearizableFamily.verified(inst, [good, bad])


def test_quadratic_value_matches_matvec():
    rng = random.Random(47)
    for _ in range(20):
        m = rng.randint(1, 6)
        q = RationalMatrix.from_rows(rand_rows(rng, m, m))
        x = tuple(rng.randint(0, 1) for _ in range(m))
        assert quadratic_value(q, x) == vdot(x, q.matvec(x))
