import os
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlin import lpsolve
from quadlin.lpsolve import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    MODE_ENV_VAR,
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

from helpers import rand_rational
from oracles import kkt_violations, lp_oracle, standard_form

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
    free = LinearProgram((F(1), F(-1)), (((F(1), F(-1)), GE, F(-3)),))
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


def _random_lp(rng, max_vars=4, max_rows=5):
    n = rng.randint(1, max_vars)
    # a max is stated as the min of its negated objective
    sign = rng.choice([1, -1])
    obj = [sign * rand_rational(rng, span=4) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(0, max_rows)):
        coeffs = tuple(rand_rational(rng, span=3) for _ in range(n))
        rel = rng.choice([LE, GE, EQ])
        rhs = rand_rational(rng, span=6)
        rows.append((coeffs, rel, rhs))
    # cap sometimes; uncapped negated objectives go unbounded regularly,
    # which keeps all three statuses represented
    if rng.random() < 0.6:
        rows.append((tuple(F(1) for _ in range(n)), LE, F(rng.randint(2, 9))))
    return linear_program("min", obj, rows)


def test_prepare_matches_the_fraction_standard_form():
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
        prep = lpsolve._prepare(lp)
        kinds["flipped"] += sum(s < 0 for s in want["row_scale"])
        for field, value in want.items():
            assert getattr(prep, field) == value, field
        assert prep.ncols == n
    assert min(kinds.values()) > 30, kinds

    # integer coefficients and rhs 5/7: the rhs sets the row scale, which
    # the coefficients alone would leave at 1
    scaled = linear_program("min", [1, 1], [((2, 3), GE, F(5, 7))])
    prep = lpsolve._prepare(scaled)
    assert (prep.rows_int, prep.row_scale) == ([[14, 21, 5]], [7])

    # the integer rows take no part in equality or hashing
    again = linear_program("min", [F(2, 2), 1], [((F(4, 2), 3), GE, F(5, 7))])
    assert again == scaled and hash(again) == hash(scaled)
    assert again.int_rows == scaled.int_rows == (((2, 3), 1),)


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
    base = lpsolve._prepare(lp)
    for rhs in ((F(-1, 4), F(7, 5), F(5, 7)), (0, 2, 1), (3, 1, -2)):
        new = lp.with_rhs(rhs)
        fresh = linear_program("min", obj, zip(coeffs, rels, rhs))
        assert new == fresh and hash(new) == hash(fresh)
        got, want = lpsolve._prepare(new), lpsolve._prepare(fresh)
        for field in lpsolve._Prepared.__slots__:
            assert getattr(got, field) == getattr(want, field), field
        for mode in ("exact", "float"):
            a, b = solve_lp(new, mode=mode), solve_lp(fresh, mode=mode)
            assert a.status == OPTIMAL
            assert (a.value, a.x, a.duals, a.pivots) \
                == (b.value, b.x, b.duals, b.pivots)
    flipped = lpsolve._prepare(lp.with_rhs((F(-1, 4), F(7, 5), F(5, 7))))
    assert (base.rels, base.row_scale) == ([LE, EQ, LE], [1, 1, -2])
    assert (flipped.rels, flipped.row_scale) == ([GE, EQ, GE], [-4, 5, 14])
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
    first = lpsolve._prepare(b)
    assert taken == [(1, 1, -1), (1, -1, 1), (1, 2, -2)]
    second = lpsolve._prepare(a)
    assert len(taken) == 3
    assert second.obj_int is first.obj_int
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
            "min", lp.objective, lp.rows, [0] * lp.nvars)
        res = solve_lp(lp, mode="exact")
        assert res.status == want_status
        if want_status == OPTIMAL:
            assert res.value == want_value
        seen[res.status] += 1
    assert all(seen[s] > 5 for s in seen), seen


def test_float_tracks_exact():
    rng = random.Random(8)
    for _ in range(100):
        lp = _random_lp(rng)
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


def test_mode_resolution(monkeypatch):
    lp = linear_program("min", [1], [((1,), GE, 1)])
    monkeypatch.setenv(MODE_ENV_VAR, "float")
    assert solve_lp(lp).mode == "float"
    assert solve_lp(lp, mode="exact").mode == "exact"  # explicit wins
    monkeypatch.setenv(MODE_ENV_VAR, "exact")
    assert solve_lp(lp).mode == "exact"
    monkeypatch.setenv(MODE_ENV_VAR, "bogus")
    with pytest.raises(ValueError):
        solve_lp(lp)
    monkeypatch.delenv(MODE_ENV_VAR)
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


def test_degenerate_lp_through_blands_rule_in_both_modes(monkeypatch):
    # Chvatal's cycling example (Linear Programming, 1983, p. 31) with its
    # slacks written as columns, so that scaling the rows to integers
    # keeps them at the textbook scale: Dantzig's rule cycles through
    # degenerate bases until the stall limit hands over to Bland's rule;
    # its max is stated as the min of the negated objective
    lp = linear_program("min", [-10, 57, 9, 24, 0, 0], [
        ((F(1, 2), F(-11, 2), F(-5, 2), 9, 1, 0), LE, 0),
        ((F(1, 2), F(-3, 2), F(-1, 2), 1, 0, 1), LE, 0),
        ((1, 0, 0, 0, 0, 0), LE, 1),
    ])
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
