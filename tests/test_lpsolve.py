import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlin import bounds, lpsolve
from quadlin.lpsolve import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpError,
    LpResult,
    NumericalBreakdown,
    linear_program,
    solve_lp,
    verify_solution,
)

from quadlin.model import generate_tournament, qspp_to_bqp

from helpers import python_int_fractions, qap_instance, rand_rational
from oracles import (
    DenseFloatTableau,
    ListTableau,
    dense_rows,
    kkt_violations,
    lp_oracle,
    standard_form,
)

F = Fraction


def test_single_covering_row():
    lp = linear_program("min", [1, 1], [((1, 1), GE, 1)])
    res = solve_lp(lp, mode="exact")
    assert res.status == OPTIMAL and res.value == 1
    assert res.duals == (F(1),)


def test_classic_max_two_vars():
    # max 2x + 3y is minus the minimum of -2x - 3y
    lp = linear_program("min", [-2, -3], [
        ((1, 2), LE, 14),
        ((3, -1), GE, 0),
        ((1, -1), LE, 2),
    ])
    res = solve_lp(lp, mode="exact")
    assert res.status == OPTIMAL
    assert res.value == -24 and res.x == (F(6), F(4))


def test_equality_rows():
    lp = linear_program("min", [1, 1], [
        ((1, 1), EQ, 5),
        ((1, -1), EQ, 1),
    ])
    res = solve_lp(lp, mode="exact")
    assert res.status == OPTIMAL
    assert res.x == (F(3), F(2)) and res.value == 5


def test_infeasible_and_unbounded():
    lp = linear_program("min", [1], [((1,), GE, 1), ((1,), LE, 0)])
    assert solve_lp(lp, mode="exact").status == INFEASIBLE
    lp2 = linear_program("min", [-1], [])
    assert solve_lp(lp2, mode="exact").status == UNBOUNDED


def test_bounds_handling():
    # a free x is x+ - x- over x+, x- >= 0: min x subject to x >= -3
    free = LinearProgram((F(1), F(-1)),
                         ((((0, F(1)), (1, F(-1))), GE, F(-3)),))
    res = solve_lp(free, mode="exact")
    assert res.status == OPTIMAL and res.value == -3 and res.x == (0, F(3))


@pytest.mark.parametrize("bound", [(0, 5), (F(1, 2), None), (-5, None),
                                   (None, 3), (2, 1)],
                         ids=["boxed", "shifted", "negative lower",
                              "upper only", "pinched"])
def test_only_nonnegative_and_free_variables_are_accepted(bound):
    # every variable is x >= 0, and a free one is stated as its split
    # x+ - x-: linear_program refuses a bounds argument, whatever it
    # says, free or x >= 0 included, and any sense but min, and names
    # the restatement; LinearProgram has no bounds and no sense at all
    for bounds in ([(0, None), bound], [(None, None), (0, None)],
                   [(0, None)] * 2):
        with pytest.raises(ValueError, match="split a free variable"):
            linear_program("min", [1, 1], [], bounds)
    for sense in ("max", "best"):
        with pytest.raises(ValueError, match="negated objective"):
            linear_program(sense, [1, 1], [])
    with pytest.raises(TypeError):
        LinearProgram("min", (F(1), F(1)), ())
    ok = linear_program("min", [1, 1], [])
    assert ok == LinearProgram((F(1), F(1)), ())
    assert not hasattr(ok, "sense") and not hasattr(ok, "bounds")


def test_float_read_back_gives_no_negative_zero():
    # min x over x >= 0: the cost row's 0.0 times the sign of a min is
    # -0.0, which the read-back turns into 0.0; exact mode has no -0
    for lp in (linear_program("min", [1], []),
               linear_program("min", [1, 1], [((1, -1), EQ, 0)])):
        res = solve_lp(lp, mode="float")
        assert repr((res.value, res.x)) == repr((0.0, (0.0,) * lp.nvars))
        assert solve_lp(lp, mode="exact").value == 0


def test_beale_cycling_example_terminates():
    lp = linear_program("min", [F(-3, 4), 150, F(-1, 50), 6], [
        ((F(1, 4), -60, F(-1, 25), 9), LE, 0),
        ((F(1, 2), -90, F(-1, 50), 3), LE, 0),
        ((0, 0, 1, 0), LE, 1),
    ])
    res = solve_lp(lp, mode="exact")
    assert res.status == OPTIMAL and res.value == F(-1, 20)


def test_duals_match_shadow_prices():
    # max 3x + 5y as the min of -3x - 5y: its duals are the max's negated
    lp = linear_program("min", [-3, -5], [
        ((1, 0), LE, 4),
        ((0, 2), LE, 12),
        ((3, 2), LE, 18),
    ])
    res = solve_lp(lp, mode="exact")
    assert res.status == OPTIMAL and res.value == -36
    # textbook duals: increasing rhs 2 or 3 by one unit raises the max
    assert res.duals == (F(0), F(-3, 2), F(-1))
    ok, msgs = verify_solution(lp, res)
    assert ok, msgs


def test_verify_rejects_tampered_result():
    lp = linear_program("min", [1, 1], [((1, 1), GE, 1)])
    res = solve_lp(lp, mode="exact")
    bad = LpResult(status=res.status, value=res.value,
                   x=(F(2), F(2)), duals=res.duals, mode="exact")
    ok, msgs = verify_solution(lp, bad)
    assert not ok and msgs


# One KKT condition broken at a time: (objective, rows, x, duals, value,
# the broken condition, then the messages verify_solution must give if
# they are not just the condition), every variable x >= 0.  The checks
# are weak duality's, point_violations and dual_violations: complementary
# slackness and a nonzero reduced cost on a variable above 0 show as a
# dual objective b.y other than the value, a negative reduced cost as a
# violated dual column, and a wrong value as both objectives off.
_DUAL_OBJECTIVE = "dual objective does not match the certificate"
_KKT_BREAKS = [
    ([0], [((1,), LE, 1)], [2], [0], 0, "row 0 violated (<=)"),
    ([0], [((1,), EQ, 1)], [0], [0], 0, "row 0 violated (=)"),
    ([0], [((1,), GE, 1)], [0], [0], 0, "row 0 violated (>=)"),
    ([0], [], [-1], [], 0, "x[0] below lower bound"),
    ([1], [((1,), GE, 1)], [1], [1], 2, "objective value mismatch",
     "objective value mismatch", _DUAL_OBJECTIVE),
    ([1], [((1,), LE, 1)], [1], [1], 1, "dual sign wrong on row 0 (<=)"),
    ([1], [((2,), LE, 2)], [1], [F(1, 2)], 1,
     "dual sign wrong on row 0 (<=)"),
    ([-1], [((1,), GE, 1)], [1], [-1], -1, "dual sign wrong on row 0 (>=)"),
    ([-2], [((2,), GE, 2)], [1], [-1], -2, "dual sign wrong on row 0 (>=)"),
    ([1], [((1,), GE, 1)], [2], [1], 2,
     "complementary slackness fails on row 0", _DUAL_OBJECTIVE),
    ([-1], [], [0], [], 0, "reduced cost sign wrong at lower bound x[0]",
     "duals violate column 0"),
    ([-2], [], [0], [], 0, "reduced cost sign wrong at lower bound x[0]",
     "duals violate column 0"),
    ([1], [], [1], [], 1, "reduced cost nonzero on interior variable x[0]",
     _DUAL_OBJECTIVE),
]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("case", _KKT_BREAKS, ids=lambda c: c[5])
def test_verify_names_each_broken_kkt_condition(case, mode):
    obj, rows, x, duals, value, condition, *messages = case
    lp = linear_program("min", obj, rows)
    num = F if mode == "exact" else float
    res = LpResult(status=OPTIMAL, value=num(value),
                   x=tuple(map(num, x)), duals=tuple(map(num, duals)),
                   mode=mode)
    assert verify_solution(lp, res) == (False,
                                        tuple(messages) or (condition,))


@pytest.mark.parametrize("rel, cost", [(LE, 1), (GE, -1)])
def test_dual_violations_tests_the_sign_of_an_inequality_dual(rel, cost):
    # min x over x <= 1 is 0, and min -x over x >= 1 is unbounded: the
    # dual y = cost meets column 0 (c - y = 0) and b.y = cost, so only
    # its sign, wrong for a min, keeps cost from passing as a lower bound
    lp = linear_program("min", [cost], [((1,), rel, 1)])
    for tol in (0, lpsolve.FLOAT_CHECK_TOL):
        assert lpsolve.dual_violations(lp, (cost,), cost, tol) == [
            f"dual sign wrong on row 0 ({rel})"]


def _random_lp(rng, max_vars=4, max_rows=5, num=rand_rational):
    n = rng.randint(1, max_vars)
    # a max is stated as the min of its negated objective
    sign = rng.choice([1, -1])
    obj = [sign * num(rng, span=4) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(0, max_rows)):
        coeffs = tuple(num(rng, span=3) for _ in range(n))
        rel = rng.choice([LE, GE, EQ])
        rhs = num(rng, span=6)
        rows.append((coeffs, rel, rhs))
    # cap sometimes; uncapped negated objectives go unbounded regularly,
    # which keeps all three statuses represented
    if rng.random() < 0.6:
        rows.append((tuple(F(1) for _ in range(n)), LE, F(rng.randint(2, 9))))
    return linear_program("min", obj, rows)


def _starting_form(lp) -> dict:
    """The exact tableau's starting rows in oracles.standard_form's terms:
    each row's structural numerators and right-hand side, its relation
    read off its slack (+1 for <=, -1 for >=, none for =), row_scale, and
    the objective row and obj_scale.  Every >= and = row, and only those,
    starts with its artificial basic."""
    t = lpsolve._ExactTableau(lp)
    tab = t.tab.tolist()
    rels = [EQ if i not in t.slack_col
            else LE if tab[i][t.slack_col[i]] == 1 else GE
            for i in range(t.nrows)]
    assert t.basis == [t.art_col[i] if rel != LE else t.slack_col[i]
                       for i, rel in enumerate(rels)]
    assert all(tab[i][c] == 1 for i, c in t.art_col.items())
    return {"ncols": t.ncols,
            "rows_int": [row[:t.ncols] + [row[t.rhs]]
                         for row in tab[:t.nrows]],
            "rels": rels, "row_scale": t.row_scale,
            "obj_int": tab[t.z2_idx][:t.ncols], "obj_scale": t.obj_scale}


def test_tableau_starts_from_the_fraction_standard_form():
    rng = random.Random(11)
    kinds = {"nonneg": 0, "flipped": 0}
    for _ in range(300):
        n = rng.randint(1, 5)
        kinds["nonneg"] += n
        rows = [(tuple(rand_rational(rng, span=3, denoms=(1, 2, 3, 6))
                       if rng.random() < 0.7 else 0 for _ in range(n)),
                 rng.choice([LE, GE, EQ]), rand_rational(rng, span=6))
                for _ in range(rng.randint(0, 5))]
        obj = [rand_rational(rng, span=4, denoms=(1, 2, 5))
               for _ in range(n)]
        lp = linear_program("min", obj, rows)
        want = standard_form(lp)
        got = _starting_form(lp)
        kinds["flipped"] += sum(s < 0 for s in want["row_scale"])
        for field, value in want.items():
            assert got[field] == value, field
        assert got["ncols"] == n
        # int_rows holds each row's nonzeros, indices ascending, over k,
        # the standard form's row over its scale, and int_columns the
        # same nonzeros by column, rows ascending
        by_column = [[] for _ in range(n)]
        for i, ((pairs, k), row, s) in enumerate(
                zip(lp.int_rows, want["rows_int"], want["row_scale"])):
            dense = [0] * n
            for j, v in pairs:
                dense[j] = v
                by_column[j].append((i, v))
            assert [j for j, _ in pairs] == [j for j in range(n) if row[j]]
            assert [v * (s // k) for v in dense] == row[:n]
        assert lp.int_columns == tuple(map(tuple, by_column))
    assert min(kinds.values()) > 30, kinds

    # integer coefficients and rhs 5/7: the rhs sets the row scale, which
    # the coefficients alone would leave at 1
    scaled = linear_program("min", [1, 1], [((2, 3), GE, F(5, 7))])
    got = _starting_form(scaled)
    assert (got["rows_int"], got["row_scale"]) == ([[14, 21, 5]], [7])

    # the integer rows take no part in equality or hashing
    again = linear_program("min", [F(2, 2), 1], [((F(4, 2), 3), GE, F(5, 7))])
    assert again == scaled and hash(again) == hash(scaled)
    assert again.int_rows == scaled.int_rows == ((((0, 2), (1, 3)), 1),)


@pytest.mark.parametrize("coeffs", [
    ((1, 1), (0, 1)), ((0, 1), (0, 2)), ((2, 1),), ((-1, 1),), ((0, 0),),
    ((0, 1), (1, F(0))), ((1.0, 1),)],
    ids=["unsorted", "repeated", "past the end", "negative", "zero",
         "zero fraction", "float index"])
def test_linear_program_refuses_a_malformed_sparse_row(coeffs):
    # a row is its nonzero coefficients as (index, value) pairs, indices
    # ascending and in range; linear_program takes the dense row and keeps
    # its nonzeros
    with pytest.raises(ValueError, match="bad coefficient pair"):
        LinearProgram((F(1), F(1)), ((coeffs, LE, F(1)),))
    sparse = LinearProgram((F(1), F(1)), ((((1, F(3)),), LE, F(1)),))
    assert linear_program("min", [1, 1], [((0, 3), LE, 1)]) == sparse
    assert sparse.int_columns == ((), ((0, 3),))


@pytest.mark.parametrize("sense, obj", [("min", (1, 2, 1, -1, 1)),
                                        ("max", (-1, 1, -1, 1, F(1, 3)))])
def test_with_rhs_prepares_and_solves_like_a_fresh_program(sense, obj):
    # a max is solved as the min of its negated objective, and x2 is free,
    # split into columns 2 and 3 (x2 = x2+ - x2-).  The base rhs flips the
    # >= row (-2 < 0); the first new rhs flips the <= row instead (it
    # becomes >= and takes an artificial), gives the = row and both others
    # new denominators, and unflips the >= row
    obj = [v if sense == "min" else -v for v in obj]
    coeffs = [(1, -1, 1, -1, 0), (2, 1, -1, 1, 1), (1, 0, 1, -1, F(1, 2))]
    rels = [LE, EQ, GE]
    lp = linear_program("min", obj, zip(coeffs, rels, (3, 1, -2)))
    base = _starting_form(lp)
    for rhs in ((F(-1, 4), F(7, 5), F(5, 7)), (0, 2, 1), (3, 1, -2)):
        new = lp.with_rhs(rhs)
        fresh = linear_program("min", obj, zip(coeffs, rels, rhs))
        assert new == fresh and hash(new) == hash(fresh)
        assert _starting_form(new) == _starting_form(fresh)
        got, want = lpsolve._ExactTableau(new), lpsolve._ExactTableau(fresh)
        assert np.array_equal(got.tab, want.tab)
        for mode in ("exact", "float"):
            a, b = solve_lp(new, mode=mode), solve_lp(fresh, mode=mode)
            assert a.status == OPTIMAL
            assert (a.value, a.x, a.duals, a.pivots) \
                == (b.value, b.x, b.duals, b.pivots)
    flipped = _starting_form(lp.with_rhs((F(-1, 4), F(7, 5), F(5, 7))))
    assert (base["rels"], base["row_scale"]) == ([LE, EQ, LE], [1, 1, -2])
    assert (flipped["rels"], flipped["row_scale"]) \
        == ([GE, EQ, GE], [-4, 5, 14])
    with pytest.raises(TypeError):
        lp.with_rhs((0.5, 1, 1))
    with pytest.raises(ValueError):
        lp.with_rhs((1, 2))


def test_with_rhs_lays_out_once_and_shares_it(monkeypatch):
    # programs made by with_rhs, also from one another, share the integer
    # rows, columns and objective of the program they came from, worked
    # out once
    taken = []
    common_denominator = lpsolve.common_denominator

    def counting(values):
        taken.append(tuple(values))
        return common_denominator(taken[-1])

    monkeypatch.setattr(lpsolve, "common_denominator", counting)
    lp = linear_program("min", (1, 2, -2),
                        [((1, 1, -1), GE, 1), ((1, -1, 1), LE, 2)])
    a = lp.with_rhs((2, 1))
    b = a.with_rhs((F(1, 2), -1))
    first = _starting_form(b)
    assert taken == [(1, 1, -1), (1, -1, 1), (1, 2, -2)]
    second = _starting_form(a)
    assert len(taken) == 3
    assert second["obj_int"] == first["obj_int"] == [1, 2, -2]
    for name in ("int_rows", "int_columns", "int_objective"):
        assert getattr(a, name) is getattr(b, name) is getattr(lp, name)
    fresh = linear_program("min", (1, 2, -2),
                           [((1, 1, -1), GE, 2), ((1, -1, 1), LE, 1)])
    assert solve_lp(a, mode="exact") == solve_lp(fresh, mode="exact")


def test_exact_agrees_with_enumeration_oracle():
    rng = random.Random(7)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(140):
        lp = _random_lp(rng)
        want_status, want_value = lp_oracle(
            "min", lp.objective, dense_rows(lp), [0] * lp.nvars)
        res = solve_lp(lp, mode="exact")
        assert res.status == want_status
        if want_status == OPTIMAL:
            assert res.value == want_value
        seen[res.status] += 1
    assert all(seen[s] > 5 for s in seen), seen


def _full_mantissa(rng, span):
    """A float in [-3, 3] read at its exact value, whose denominator is a
    power of 2 past 2**50: the exact tableau scales its row by that."""
    return F(rng.uniform(-3, 3))


def test_float_tracks_exact():
    # on small rationals and on full-mantissa floats: the float tableau
    # starts from the LP's own coefficients, not the exact tableau's
    # integer rows
    for num, count in ((rand_rational, 100), (_full_mantissa, 300)):
        rng = random.Random(8)
        for _ in range(count):
            lp = _random_lp(rng, num=num)
            res_e = solve_lp(lp, mode="exact")
            res_f = solve_lp(lp, mode="float")
            assert res_f.mode == "float"
            assert res_f.status == res_e.status
            if res_e.status == OPTIMAL:
                ref = float(res_e.value)
                assert abs(res_f.value - ref) <= 1e-7 * (1 + abs(ref))
                ok, msgs = verify_solution(lp, res_f)
                assert ok, msgs


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_exact_solutions_self_certify(seed):
    rng = random.Random(seed)
    lp = _random_lp(rng, max_vars=5, max_rows=6)
    res = solve_lp(lp, mode="exact")  # raises LpError if its check fails
    if res.status == OPTIMAL:
        ok, msgs = verify_solution(lp, res)
        assert ok, msgs


def test_exact_certificate_has_zero_tolerance():
    # one coordinate of x, one dual or the value moved by 3**-150 breaks
    # exactly the conditions it touches, even over rows with denominators:
    # a moved x leaves the rows and c.x = value, a moved dual leaves
    # b.y = value (and y_0 = 6 + eps leaves column 0 too), a moved value
    # both objectives
    eps = F(1, 3 ** 150)
    lp = linear_program("min", [2, 3], [
        ((F(1, 3), F(2, 7)), EQ, F(1, 3)),
        ((1, 1), LE, F(5, 2)),
    ])
    res = solve_lp(lp, mode="exact")
    assert (res.x, res.duals, res.value) == ((1, 0), (6, 0), 2)
    assert verify_solution(lp, res) == (True, ())
    for moved, want in (
            ({"x": (1 + eps, F(0))},
             ("row 0 violated (=)", "objective value mismatch")),
            ({"duals": (6 + eps, F(0))},
             ("duals violate column 0", _DUAL_OBJECTIVE)),
            ({"duals": (F(6), -eps)}, (_DUAL_OBJECTIVE,)),
            ({"value": 2 - eps},
             ("objective value mismatch", _DUAL_OBJECTIVE))):
        assert verify_solution(lp, replace(res, **moved)) == (False, want)


def _one_entry_moves(res, deltas):
    """res with one entry of x, one dual or the value moved by each
    delta."""
    for field in ("x", "duals"):
        vec = getattr(res, field)
        for j in range(len(vec)):
            for d in deltas:
                moved = list(vec)
                moved[j] += d
                yield replace(res, **{field: tuple(moved)})
    for d in deltas:
        yield replace(res, value=res.value + d)


def test_weak_duality_gives_the_kkt_verdict():
    # verify_solution checks a point and duals that meet only in the
    # value; the KKT conditions written out (oracles.kkt_violations)
    # must reach the same verdict on every exact optimum and on every
    # move of one entry of its x, its duals or its value by +-1 or
    # +-3**-150, whether the move breaks the certificate or not
    rng = random.Random(24)
    eps = F(1, 3 ** 150)
    verdicts = Counter()
    optima = 0
    while optima < 40:
        lp = _random_lp(rng)
        res = solve_lp(lp, mode="exact")
        if res.status != OPTIMAL:
            continue
        optima += 1
        for case in (res, *_one_entry_moves(res, (1, -1, eps, -eps))):
            ok = not kkt_violations(lp, case.x, case.duals, case.value)
            assert verify_solution(lp, case)[0] == ok, (lp, case)
            verdicts[ok] += 1
    assert verdicts[True] > optima and verdicts[False] > 10 * optima, \
        verdicts


def test_float_duals_are_checked_at_their_exact_values():
    # 1e17 + 1.0 - 1e17 sums to 0.0 in floats; read exactly, b.y is 0 as
    # claimed but column 0's reduced cost is 0 - (1e17 + 1 - 1e17) = -1
    lp = linear_program("min", [0], [((1,), EQ, 0)] * 3)
    y = (1e17, 1.0, -1e17)
    for tol in (0, lpsolve.FLOAT_CHECK_TOL):
        assert lpsolve.dual_violations(lp, y, 0.0, tol) == [
            "duals violate column 0"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_verify_rejects_a_non_finite_float_result(bad):
    lp = linear_program("min", [1, 1], [((1, 1), GE, 1)])
    res = solve_lp(lp, mode="float")
    assert verify_solution(lp, res) == (True, ())
    for moved in ({"value": bad}, {"x": (bad, 0.0)}, {"duals": (bad,)}):
        assert verify_solution(lp, replace(res, **moved)) == (
            False, ("certificate has a non-finite value",))


def test_mode_resolution():
    lp = linear_program("min", [1], [((1,), GE, 1)])
    assert solve_lp(lp, mode="float").mode == "float"
    assert solve_lp(lp, mode="exact").mode == "exact"
    with pytest.raises(ValueError):
        solve_lp(lp, mode="bogus")
    assert solve_lp(lp).mode == "exact"  # small program, auto stays exact


def test_validation_errors():
    with pytest.raises(ValueError):
        linear_program("best", [1], [])
    with pytest.raises(ValueError):
        linear_program("max", [1], [])
    with pytest.raises(ValueError):
        linear_program("min", [1], [((1, 2), LE, 0)])
    with pytest.raises(ValueError):
        linear_program("min", [1], [((1,), "<", 0)])
    with pytest.raises(ValueError):
        solve_lp(linear_program("min", [1], []), mode="fast")
    with pytest.raises(ValueError):
        verify_solution(linear_program("min", [1], []),
                        LpResult(status=INFEASIBLE, mode="exact"))


def test_flow_polytope_shortest_path():
    # diamond network: unit flow from vertex 0 to vertex 3, choose the
    # cheaper of the two parallel routes
    rows = []
    inc = {
        0: [(0, 1), (1, 1)],
        1: [(0, -1), (2, 1)],
        2: [(1, -1), (3, 1)],
        3: [(2, -1), (3, -1)],
    }
    for v in range(4):
        coeffs = [F(0)] * 4
        for arc, s in inc[v]:
            coeffs[arc] = F(s)
        rhs = F(1) if v == 0 else (F(-1) if v == 3 else F(0))
        rows.append((tuple(coeffs), EQ, rhs))
    lp = linear_program("min", [5, 1, 7, 2], rows)
    res = solve_lp(lp, mode="exact")
    assert res.status == OPTIMAL and res.value == 3
    assert res.x == (F(0), F(1), F(0), F(1))


def test_pivot_caps_raise_each_modes_error(monkeypatch):
    # max x + y + z under x, y, z <= 1, as min -x - y - z: one pivot per
    # variable
    lp = linear_program("min", [-1, -1, -1], [
        ((1, 0, 0), LE, 1), ((0, 1, 0), LE, 1), ((0, 0, 1), LE, 1)])
    assert solve_lp(lp, mode="exact").pivots == 3
    assert solve_lp(lp, mode="float").pivots == 3
    monkeypatch.setattr(lpsolve, "_PIVOT_HARD_CAP", 2)
    monkeypatch.setattr(lpsolve, "_FLOAT_PIVOT_CAP", 2)
    # exact hitting its cap is a solver failure, not a precision loss
    with pytest.raises(LpError) as exc:
        solve_lp(lp, mode="exact")
    assert not isinstance(exc.value, NumericalBreakdown)
    with pytest.raises(NumericalBreakdown):
        solve_lp(lp, mode="float")


def _chvatal_lp():
    """Chvatal's cycling example (Linear Programming, 1983, p. 31) with its
    slacks written as columns, so that scaling the rows to integers keeps
    them at the textbook scale; its max is stated as the min of the
    negated objective."""
    return linear_program("min", [-10, 57, 9, 24, 0, 0], [
        ((F(1, 2), F(-11, 2), F(-5, 2), 9, 1, 0), LE, 0),
        ((F(1, 2), F(-3, 2), F(-1, 2), 1, 0, 1), LE, 0),
        ((1, 0, 0, 0, 0, 0), LE, 1),
    ])


def test_degenerate_lp_through_blands_rule_in_both_modes(monkeypatch):
    # Dantzig's rule cycles through degenerate bases of Chvatal's example
    # until the stall limit hands over to Bland's rule
    lp = _chvatal_lp()
    for tableau in (lpsolve._ExactTableau, lpsolve._FloatTableau):
        rules = []

        def recording(self, cost_idx, bland, _entering=tableau._entering,
                      _rules=rules):
            _rules.append(bland)
            return _entering(self, cost_idx, bland)

        monkeypatch.setattr(tableau, "_entering", recording)
        res = solve_lp(lp, mode=tableau.mode)
        assert res.status == OPTIMAL and res.value == -1, tableau.mode
        assert any(rules), f"{tableau.mode} mode never used Bland's rule"


def test_exact_tableau_matches_the_list_tableau():
    # the int64 tableau against the list-of-ints one it replaced, which
    # shares the simplex loop: the same status, value, x, duals and
    # pivots, every number a Fraction over Python ints, on random LPs of
    # every status and on Chvatal's cycling example
    rng = random.Random(7)
    lps = [_random_lp(rng) for _ in range(140)] + [_chvatal_lp()]
    seen = Counter()
    for lp in lps:
        res = solve_lp(lp, mode="exact")
        assert res == ListTableau(lp).solve()
        assert python_int_fractions(res)
        seen[res.status] += 1
    assert min(seen[s] for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) > 5, seen


def test_float_tableau_matches_the_dense_float_tableau():
    # the float update of the pivot column's nonzero rows against the
    # full outer-product update it replaced, which shares the simplex
    # loop: the same status, value, x, duals and pivots on random LPs of
    # every status, rational and full-mantissa, on Chvatal's cycling
    # example and on the degenerate lifting LPs of tournaments n = 6..8
    # and of the pinned QAP of test_bounds (qap_instance(Random(0), 3))
    rng, mantissa = random.Random(7), random.Random(8)
    lps = [_random_lp(rng) for _ in range(140)] \
        + [_random_lp(mantissa, num=_full_mantissa) for _ in range(300)] \
        + [_chvatal_lp()] + [
            bounds._rlt1_lp(bqp)[0] for bqp in
            [*(qspp_to_bqp(generate_tournament(n)) for n in (6, 7, 8)),
             qap_instance(random.Random(0), 3)]]
    seen = Counter()
    for lp in lps:
        res = solve_lp(lp, mode="float")
        assert res == DenseFloatTableau(lp).solve()
        seen[res.status] += 1
    assert min(seen[s] for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) > 5, seen
    assert seen[OPTIMAL] > 100 and sum(seen.values()) == 445


def test_exact_tableau_switches_to_python_ints_mid_solve(monkeypatch):
    # with the int64 bound lowered to 2**6, every program here starts in
    # int64 (Chvatal's largest entry is 57), and Chvatal's example and
    # three of the random ones grow past the bound and go on in Python
    # ints; each result equals the list tableau's
    monkeypatch.setattr(lpsolve, "_INT64_SAFE", 2 ** 6)
    rng = random.Random(7)
    switched = []
    for lp in [_chvatal_lp()] + [_random_lp(rng) for _ in range(60)]:
        tableau = lpsolve._ExactTableau(lp)
        assert tableau.tab.dtype == np.int64
        res = tableau.solve()
        switched.append(tableau.tab.dtype == object)
        assert res == ListTableau(lp).solve() == solve_lp(lp, mode="exact")
        assert python_int_fractions(res)
    assert switched[0] and sum(switched) == 4


@pytest.mark.parametrize("k", [2 ** 40 + 1, 2 ** 70 + 1],
                         ids=["2**40", "2**70"])
def test_exact_tableau_starts_in_python_ints_past_int64(k):
    # every coefficient, right-hand side and cost times k: past 2**31 the
    # tableau is built in int64 and moved to Python ints before the first
    # pivot, past 2**63 it is built in Python ints; either way the result
    # is the list tableau's, and the optimum that of the unscaled program
    rng = random.Random(3)
    for _ in range(20):
        lp = _random_lp(rng)
        big = LinearProgram(
            tuple(v * k for v in lp.objective),
            tuple((tuple((j, a * k) for j, a in coeffs), rel, b * k)
                  for coeffs, rel, b in lp.rows))
        tableau = lpsolve._ExactTableau(big)
        assert tableau.tab.dtype == object
        res = tableau.solve()
        assert tableau.tab.dtype == object
        assert res == ListTableau(big).solve() == solve_lp(big, mode="exact")
        assert python_int_fractions(res)
        want = solve_lp(lp, mode="exact")
        assert res.status == want.status
        if res.status == OPTIMAL:
            assert (res.value, res.x) == (want.value * k, want.x)
