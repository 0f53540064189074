import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlin.exactnum import (
    RationalMatrix,
    ZeroDiagonalError,
    matrix_rank,
    null_space_basis,
    rat,
    rref,
    solve_lower_triangular,
    vdot,
)

from oracles import in_row_span, minor_rank

F = Fraction


def rand_fraction(rng, span=9, denoms=(1, 2, 3, 4)):
    return F(rng.randint(-span, span), rng.choice(denoms))


def rand_matrix(rng, rows, cols, **kw):
    return RationalMatrix.from_rows(
        [[rand_fraction(rng, **kw) for _ in range(cols)] for _ in range(rows)])


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_fractions, min_size=c, max_size=c),
                min_size=r, max_size=r).map(RationalMatrix.from_rows)))


def test_rat_coercion():
    assert rat(3) == F(3)
    assert rat("7/2") == F(7, 2)
    assert rat(F(1, 3)) == F(1, 3)
    with pytest.raises(TypeError):
        rat(0.5)


def test_matrix_basics():
    m = RationalMatrix.from_rows([[1, 2], [3, "5/2"]])
    assert m.at(1, 1) == F(5, 2)
    assert m.transpose().row(0) == (F(1), F(3))
    assert (m + m).at(0, 1) == F(4)
    assert (m - m).entries == RationalMatrix.zeros(2, 2).entries
    assert m.scale(2).at(1, 1) == F(5)
    i2 = RationalMatrix.identity(2)
    assert (m @ i2).entries == m.entries
    assert m.matvec((1, 1)) == (F(3), F(11, 2))
    assert not m.is_symmetric()
    assert RationalMatrix.diagonal([1, 2]).at(1, 1) == F(2)


def test_equal_matrices_hash_equal():
    # the hash is worked out on first use and kept; matrices built apart
    # from equal entries hash equal, and one finds the other in a dict
    a = RationalMatrix.from_rows([[1, F(1, 2)], [0, "3"]])
    b = RationalMatrix.from_rows([[F(2, 2), "1/2"], [F(0), 3]])
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash(b) == hash((2, 2, a.entries))
    assert vars(a)["_hash"] == hash(a)
    assert {a: "a"}[b] == "a"
    assert RationalMatrix.zeros(2, 3) != RationalMatrix.zeros(3, 2)


def test_rref_identity_fixed_point():
    i3 = RationalMatrix.identity(3)
    reduced, pivots = rref(i3)
    assert reduced.entries == i3.entries
    assert pivots == (0, 1, 2)


def test_rref_rank_deficient():
    m = RationalMatrix.from_rows([[1, 2], [2, 4]])
    reduced, pivots = rref(m)
    assert reduced.to_rows() == [[F(1), F(2)], [F(0), F(0)]]
    assert pivots == (0,)


def test_rref_known_value():
    m = RationalMatrix.from_rows([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    reduced, pivots = rref(m)
    assert pivots == (0, 1)
    assert reduced.to_rows() == [
        [F(1), F(0), F(-1)],
        [F(0), F(1), F(2)],
        [F(0), F(0), F(0)],
    ]


def test_null_space_single_row():
    m = RationalMatrix.from_rows([[1, 2]])
    basis = null_space_basis(m)
    assert basis == [(F(-2), F(1))]


def test_null_space_full_rank_square():
    assert null_space_basis(RationalMatrix.identity(4)) == []


def test_rank_matches_minor_oracle_on_random_5x8():
    rng = random.Random(20240819)
    for _ in range(8):
        m = rand_matrix(rng, 5, 8, span=3, denoms=(1, 2))
        assert matrix_rank(m) == minor_rank(m.to_rows())


def test_solve_lower_triangular_known():
    lo = RationalMatrix.from_rows([[2, 0], [1, 1]])
    assert solve_lower_triangular(lo, (2, 3)) == (F(1), F(2))


def test_solve_lower_triangular_zero_diagonal():
    lo = RationalMatrix.from_rows([[0, 0], [1, 1]])
    with pytest.raises(ZeroDiagonalError):
        solve_lower_triangular(lo, (1, 1))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_properties(m):
    reduced, pivots = rref(m)
    rank = len(pivots)
    # unit pivots with zeros elsewhere in pivot columns
    for k, c in enumerate(pivots):
        col = reduced.column(c)
        assert col[k] == 1
        assert all(v == 0 for i, v in enumerate(col) if i != k)
    # tail rows vanish
    for i in range(rank, m.rows):
        assert all(v == 0 for v in reduced.row(i))
    # idempotence
    again, pivots2 = rref(reduced)
    assert again.entries == reduced.entries and pivots2 == pivots
    # row space is preserved both ways
    orig_rows = m.to_rows()
    red_rows = reduced.to_rows()[:rank]
    for row in red_rows:
        assert in_row_span(orig_rows, row)
    for row in orig_rows:
        assert in_row_span(red_rows, row) if rank else all(v == 0 for v in row)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_null_space_properties(m):
    basis = null_space_basis(m)
    assert len(basis) == m.cols - matrix_rank(m)
    for v in basis:
        assert m.matvec(v) == (F(0),) * m.rows
    # independence: each vector has a 1 where the others have 0
    if basis:
        stacked = RationalMatrix.from_rows([list(v) for v in basis])
        assert matrix_rank(stacked) == len(basis)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_lower_triangular_solve_roundtrip(n, data):
    rows = []
    for i in range(n):
        row = [data.draw(small_fractions) for _ in range(i + 1)]
        if row[i] == 0:
            row[i] = F(1)
        rows.append(row + [0] * (n - i - 1))
    lo = RationalMatrix.from_rows(rows)
    rhs = tuple(data.draw(small_fractions) for _ in range(n))
    x = solve_lower_triangular(lo, rhs)
    assert lo.matvec(x) == rhs


def test_vdot():
    assert vdot((F(1), F(2)), (F(3), F(4))) == F(11)
    assert vdot((), ()) == 0 and isinstance(vdot((), ()), F)
    assert vdot((F(0), F(0)), (F(1, 3), F(-2, 7))) == 0
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 8)
        u = [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 12)))
             for _ in range(n)]
        v = [rng.choice((0, F(rng.randint(-9, 9), rng.randint(1, 40))))
             for _ in range(n)]
        assert vdot(u, v) == sum((a * b for a, b in zip(u, v)), F(0))
    with pytest.raises(ValueError):
        vdot((F(1),), ())
