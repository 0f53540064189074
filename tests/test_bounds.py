"""Bound ladder: ordering, duality equality, certificates, invariances."""

import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial, reduce
from operator import getitem

import pytest

from quadlin import bounds, cli, combinatorial, lpsolve
from quadlin.bounds import (
    BoundComputationError,
    BoundReport,
    ChainViolation,
    SkewStrategy,
    gl_bound,
    ggl_bound,
    lbb_generic,
    lbb_prime,
    lbb_star,
    optimum_report,
    rlt1,
    verify_chain,
    verify_report,
)
from quadlin.exactnum import (
    ONE,
    ZERO,
    NonFiniteError,
    RationalMatrix,
    common_denominator,
    matrix_rank,
)
from quadlin.graph import Dag, GraphError, forbidden_pairs
from quadlin.lpsolve import EQ
from quadlin.model import (
    BqpInstance,
    FloatTaggedError,
    LinearizableFamily,
    QsppInstance,
    brute_force_opt,
    generate_tournament,
    qap_to_bqp,
    qspp_to_bqp,
    reformulate,
)
from quadlin.qspplin import spanning_set

from helpers import (
    diamond,
    double_diamond,
    enumerated_family,
    generator_family,
    generic_bqp,
    python_int_fractions,
    qap_instance,
    rand_rows,
    rand_symmetric_rows,
    random_corridor_dag,
)
from oracles import (
    ListTableau,
    dense_rows,
    fraction_dual_violations,
    fraction_fold_ggl,
    fraction_lbb_duals,
    fraction_point_violations,
    linearization_violations,
    row_gaps,
    structural_zeros,
)


def _random_qspp(rng, m_max=10, symmetric=False):
    g = random_corridor_dag(rng, n_min=4, n_max=7, m_max=m_max)
    rows = rand_symmetric_rows(rng, g.m, zero_diag=False) if symmetric \
        else rand_rows(rng, g.m, g.m)
    return QsppInstance(g, RationalMatrix.from_rows(rows))


def _ladder(inst, with_star=True):
    out = {
        "gl": gl_bound(inst, mode="exact"),
        "ggl": ggl_bound(inst, strategy=SkewStrategy.UPPER_TRIANGULAR,
                         mode="exact"),
        "lbb_prime": lbb_prime(inst, mode="exact"),
        "rlt1": rlt1(inst, mode="exact"),
    }
    if with_star:
        out["lbb_star"] = lbb_star(inst, mode="exact")
    return out


def test_chain_holds_on_random_qspp_instances():
    rng = random.Random(20250819)
    strict = 0
    for _ in range(8):
        inst = _random_qspp(rng)
        reports = _ladder(inst)
        opt, _ = brute_force_opt(inst)
        values = {k: r.value for k, r in reports.items()}
        values["opt"] = opt
        verify_chain(values)
        assert reports["lbb_prime"].value == reports["rlt1"].value
        strict += reports["gl"].value < opt
        for rep in reports.values():
            ok, msgs = verify_report(inst, rep)
            assert ok, (rep.name, msgs)
    # the ladder must actually separate somewhere, or the test is vacuous
    assert strict >= 2


def test_chain_holds_on_qap_instances():
    rng = random.Random(7)
    for n in (2, 3, 3, 4):
        a = [[Fraction(rng.randint(0, 6)) if i != j else ZERO
              for j in range(n)] for i in range(n)]
        d = [[Fraction(rng.randint(0, 6)) if i != j else ZERO
              for j in range(n)] for i in range(n)]
        inst = qap_to_bqp(a, d)
        reports = _ladder(inst, with_star=False)
        opt, _ = brute_force_opt(inst)
        values = {k: r.value for k, r in reports.items()}
        values["opt"] = opt
        verify_chain(values)
        assert reports["lbb_prime"].value == reports["rlt1"].value


def test_gl_equals_first_ggl_round():
    rng = random.Random(3)
    inst = _random_qspp(rng)
    gl = gl_bound(inst, mode="exact")
    one_round = ggl_bound(inst, max_iter=1, mode="exact")
    assert one_round.value == gl.value
    assert one_round.trace == (gl.value,)
    assert one_round.pivots == gl.pivots
    assert gl.certificate == one_round.certificate


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_ggl_without_a_skew_is_gl(mode):
    # with no skew, each column's residual has minimum 0 over the
    # polytope with x_k = 1, so round 2 fits a zero linear part and ggl
    # stops there with gl's value: only a reshuffle moves ggl past gl
    rng = random.Random(24)
    for k in range(12):
        inst = qap_instance(rng, 3) if k % 3 == 2 \
            else _random_qspp(rng, m_max=10)
        gl = gl_bound(inst, mode=mode)
        ggl = ggl_bound(inst, strategy=SkewStrategy.NONE, mode=mode)
        assert len(ggl.trace) <= 2, (k, ggl.trace)
        if mode == "exact":
            assert ggl.value == gl.value, k
        else:
            assert abs(ggl.value - gl.value) <= 1e-9, k


def _fitted_linear(bqp, rep):
    """2 Y^T b + z of a gl or ggl certificate: per column k, the fitted
    linear parts cbar[k] summed over every round, as exact rationals."""
    Y, z = rep.certificate["Y"], rep.certificate["z"]
    return [2 * sum(Fraction(Y[r][k]) * bqp.b[r] for r in range(bqp.B.rows))
            + Fraction(z[k]) for k in range(bqp.m)]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_gl_and_ggl_certificates_are_linearization_certificates(mode):
    # read directly off the certificate, without verify_report: the
    # linearization B^T Y + Y^T B + Diag(z) stays below sym(Q) on every
    # cell, the duals y satisfy the polytope LP's columns under the
    # costs 2 Y^T b + z + linear, and b.y is the value; on corridors the
    # fits are DAG programs, on a QAP assignments, on its generic copy
    # simplex solves
    tol = 0 if mode == "exact" else lpsolve.FLOAT_CHECK_TOL
    rng = random.Random(11)
    for inst in (_random_qspp(rng), _random_qspp(rng), _pinned_qap(),
                 _generic_qap()):
        bqp = inst if isinstance(inst, BqpInstance) else qspp_to_bqp(inst)
        n, m = bqp.B.rows, bqp.m
        for rep in (gl_bound(inst, mode=mode),
                    *(ggl_bound(inst, strategy=s, max_iter=10, mode=mode)
                      for s in SkewStrategy)):
            y = [Fraction(v) for v in rep.certificate["y"]]
            Y = [[Fraction(v) for v in row] for row in rep.certificate["Y"]]
            z = [Fraction(v) for v in rep.certificate["z"]]
            assert (len(y), len(Y), len(z)) == (n, n, m)
            assert abs(sum(br * v for br, v in zip(bqp.b, y))
                       - Fraction(rep.value)) <= tol, rep.name
            costs = [c + l for c, l in zip(_fitted_linear(bqp, rep),
                                           bqp.linear)]
            for k in range(m):
                col = sum(bqp.B.at(r, k) * y[r] for r in range(n))
                assert col <= costs[k] + tol, (rep.name, k)
                for j in range(m):
                    lin = sum(bqp.B.at(r, j) * Y[r][k]
                              + Y[r][j] * bqp.B.at(r, k) for r in range(n))
                    lin += z[j] if j == k else 0
                    assert lin <= (bqp.Q.at(j, k) + bqp.Q.at(k, j)) / 2 \
                        + tol, (rep.name, j, k)


def test_ggl_trace_is_nondecreasing():
    rng = random.Random(9)
    stopped = 0
    for strategy in SkewStrategy:
        inst = _random_qspp(rng)
        rep = ggl_bound(inst, strategy=strategy, mode="exact")
        assert rep.value == rep.trace[-1]
        for a, b in zip(rep.trace, rep.trace[1:]):
            assert a <= b
        # the loop stops right after a round with zero fitted linear part:
        # the run one round shorter has the same summed linear part
        rounds = len(rep.trace)
        if rounds < 50:
            bqp = qspp_to_bqp(inst)
            before = [0] * bqp.m if rounds == 1 else _fitted_linear(
                bqp, ggl_bound(inst, strategy=strategy, max_iter=rounds - 1,
                               mode="exact"))
            assert _fitted_linear(bqp, rep) == before
            stopped += 1
    assert stopped


def test_ggl_strategies_all_bound_the_optimum():
    rng = random.Random(31)
    inst = _random_qspp(rng)
    opt, _ = brute_force_opt(inst)
    for strategy in SkewStrategy:
        rep = ggl_bound(inst, strategy=strategy, mode="exact")
        assert rep.value <= opt
        ok, msgs = verify_report(inst, rep)
        assert ok, msgs


def _pinned_corridor():
    rng = random.Random(10)
    g = random_corridor_dag(rng, n_min=4, n_max=8, m_max=10)
    assert g.m == 10
    return QsppInstance(g, RationalMatrix.from_rows(rand_rows(rng, 10, 10)))


def _pinned_qap():
    rng = random.Random(0)
    a, d = ([[Fraction(rng.randint(0, 4)) if i != j else ZERO
              for j in range(3)] for i in range(3)] for _ in range(2))
    return qap_to_bqp(a, d)


def _strict_generic_bqp():
    """The second draw of generic_bqp(Random(2024)): m = 7, where lbb_star
    over enumerated_family (26 members, none implied by the lifting LP)
    is -9 and lbb_prime -2985/16."""
    rng = random.Random(2024)
    generic_bqp(rng)
    return generic_bqp(rng)


@pytest.mark.parametrize("inst, pins", [
    (_pinned_corridor, {
        "gl": ("-35/2", 0),
        "ggl-upper": ("-27/2", 0),
        "ggl-sym": ("-10203467905761283/1125899906842624", 0),
        "lbb_star": ("-11/2", 46)}),
    (_pinned_qap, {
        "gl": ("33", 0),
        "ggl-upper": ("33", 0),
        "ggl-sym": ("19140298416324607/562949953421312", 0),
        "lbb_prime": ("35", 39),
        "rlt1": ("35", 39)}),
], ids=["corridor", "qap"])
def test_gl_and_ggl_values_and_pivot_counts_are_pinned(inst, pins):
    # exact values and pivot counts of the column-fitting bounds (0 on a
    # graph and on a QAP, whose fits are DAG dynamic programs and
    # assignments; the simplex fits of the generic copy of the QAP are
    # pinned in test_float_simplex_fits_are_pinned and
    # test_ggl_solves_each_changed_fitting_program_once), of the canonical
    # lbb_star (no member row, so it reports lbb_prime's lifting solve)
    # where the instance has a graph, and of the lifting LP where it is
    # pinned; a change that moves a pivot path or a value, or the
    # standard form's column order, shows here
    inst = inst()
    reports = {
        "gl": gl_bound(inst, mode="exact"),
        "ggl-upper": ggl_bound(
            inst, strategy=SkewStrategy.UPPER_TRIANGULAR, mode="exact"),
        "ggl-sym": ggl_bound(
            inst, strategy=SkewStrategy.SYMMETRIZE, mode="exact"),
    }
    if "lbb_star" in pins:
        reports["lbb_star"] = lbb_star(inst, mode="exact")
        assert reports["lbb_star"].pivots \
            == lbb_prime(inst, mode="exact").pivots
    for name, bound in (("lbb_prime", lbb_prime), ("rlt1", rlt1)):
        if name in pins:
            reports[name] = bound(inst, mode="exact")
    assert {name: (str(rep.value), rep.pivots)
            for name, rep in reports.items()} == pins


def _generic_qap():
    """The pinned QAP without its structure: a generic BQP, whose fitting
    programs and minima are simplex solves."""
    return replace(_pinned_qap(), structure=None)


def test_float_simplex_fits_are_pinned():
    # the fitting programs of a generic BQP (the pinned QAP without its
    # structure) on the float tableau: (repr of the value, pivots,
    # rounds) of gl and of ggl under each strategy; a change that moves a
    # pivot path, the split of the fit's free variables or the stopping
    # test shows here
    inst = _generic_qap()
    reports = {"gl": gl_bound(inst, mode="float")}
    for name, strategy in (("ggl", SkewStrategy.NONE),
                           ("ggl-upper", SkewStrategy.UPPER_TRIANGULAR),
                           ("ggl-sym", SkewStrategy.SYMMETRIZE)):
        reports[name] = ggl_bound(inst, strategy=strategy, mode="float")
    assert {name: (repr(rep.value), rep.pivots, len(rep.trace) or 1)
            for name, rep in reports.items()} == {
        "gl": ("33.0", 85, 1),
        "ggl": ("33.0", 149, 2),
        "ggl-upper": ("33.0", 205, 3),
        "ggl-sym": ("33.99999999906868", 1795, 32)}
    assert {rep.mode for rep in reports.values()} == {"float"}


def test_float_rlt1_value_and_pivot_count_are_pinned():
    # the lifting LP of the tournament n = 5 on the float tableau: a change
    # that moves its pivot path shows here
    rep = rlt1(generate_tournament(5), mode="float")
    assert (rep.mode, repr(rep.value), rep.pivots) == ("float", "8.0", 35)


def _decimal_assignment_bqp(rng) -> str:
    """A bqp file over the 3 x 3 assignment polytope, its three item rows
    and two of its position rows (the third is implied), b = 1, whose Q
    cells are each present with probability 0.6, at 4-decimal values in
    [-20, 20]."""
    rows = [[int(v // 3 == i) for v in range(9)] for i in range(3)]
    rows += [[int(v % 3 == j) for v in range(9)] for j in range(2)]
    cells = [f"{i + 1} {j + 1} {rng.uniform(-20, 20):.4f}"
             for i in range(9) for j in range(9) if rng.random() < 0.6]
    return "\n".join(["bqp", "5 9", *(" ".join(map(str, r)) for r in rows),
                      "1 1 1 1 1", str(len(cells)), *cells])


def test_float_gl_equals_exact_gl_on_decimal_data():
    # a decimal file is float data, so gl runs in float mode; over
    # 4-decimal Q values the exact tableau scales a fitting program's
    # rows to about 10**16, but the float tableau starts from the LP's
    # own coefficients and reaches exact gl on the same rationals, on
    # seeded generic BQPs and on a decimal QAP read without its structure
    # (a simplex fit per column), whose float report replays
    insts = [cli.parse_instance(_decimal_assignment_bqp(random.Random(seed)))
             .instance for seed in range(40)]
    qap = cli.parse_instance(
        "qap\n3\n-4.74 2.23 4.79\n4.98 2.01 -4.51\n3.42 -2.81 1.46\n"
        "4.52 2.12 -3.65\n-2.08 4.18 -3.50\n1.11 -0.86 -3.39\n").instance
    insts.append(replace(qap, structure=None))
    for inst in insts:
        got = gl_bound(inst)
        want = gl_bound(replace(inst, float_tagged=False))
        assert (got.mode, want.mode) == ("float", "exact")
        assert got.value == pytest.approx(float(want.value), rel=1e-6)
    assert verify_report(insts[-1], got) == (True, ())


def test_ggl_solves_each_changed_fitting_program_once(monkeypatch):
    # a generic BQP's simplex fit keeps its last solve per column: the
    # fitting solves (<= rows) are the (round, k) whose column changed,
    # each for that column, plus one polytope LP (= rows) per round, and
    # the exact self-check (verify_solution) runs once per solve
    rounds = [[]]  # per round, the (k, right-hand sides) it solved
    cols = []  # per round, the columns of its m fitting programs
    checks = []
    solve, check = bounds.solve_lp, lpsolve.verify_solution
    next_columns = bounds._next_columns

    def counting_solve(lp, mode="auto"):
        if lp.rows[0][1] == EQ:
            rounds.append([])
        else:  # program k's row k gives z the coefficient 1
            k = next(i for i, (a, _, _) in enumerate(dense_rows(lp))
                     if a[-2] == 1)
            rounds[-1].append((k, tuple(rhs for _, _, rhs in lp.rows)))
        return solve(lp, mode=mode)

    def counting_check(lp, result):
        checks.append(lp)
        return check(lp, result)

    def recording_columns(gaps, strategy):
        columns, den = next_columns(gaps, strategy)
        cols.append([tuple(Fraction(v, den) for v in c) for c in columns])
        return columns, den

    monkeypatch.setattr(bounds, "solve_lp", counting_solve)
    monkeypatch.setattr(lpsolve, "verify_solution", counting_check)
    monkeypatch.setattr(bounds, "_next_columns", recording_columns)
    inst = _generic_qap()
    rep = ggl_bound(inst, strategy=SkewStrategy.SYMMETRIZE, mode="exact")
    assert (str(rep.value), rep.pivots) == (
        "19140298416324607/562949953421312", 2780)
    cols.insert(0, [tuple(inst.Q.column(k)) for k in range(inst.m)])
    solved = rounds[:-1]
    assert len(cols) == len(solved) == len(rep.trace) and rounds[-1] == []
    changed = [[(k, col) for k, col in enumerate(cols[t])
                if t == 0 or col != cols[t - 1][k]] for t in range(len(cols))]
    assert solved == changed
    fits = sum(map(len, solved))
    assert (fits, len(cols) * inst.m) == (354, 450)
    assert len(checks) == fits + len(cols)


@pytest.mark.parametrize("inst, calls", [
    (_pinned_corridor, ("dag_fit", 30)),
    (_pinned_qap, ("assignment_fit", 27)),
], ids=["corridor", "qap"])
def test_ggl_fits_every_structured_column_every_round(monkeypatch, inst,
                                                       calls):
    # a DAG or assignment fit keeps nothing: each round fits all m
    # columns, the unchanged ones too (3 rounds of 10 arcs, 3 of 9
    # placements)
    name, want = calls
    inst, count = inst(), []
    solver = getattr(bounds, name)

    def counting(*args):
        count.append(args)
        return solver(*args)

    monkeypatch.setattr(bounds, name, counting)
    rep = ggl_bound(inst, strategy=SkewStrategy.UPPER_TRIANGULAR,
                    mode="exact")
    assert len(count) == len(rep.trace) * inst.m == want


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_integer_fold_matches_the_fraction_fold(mode):
    # ggl's rounds hold the residual and the summed fits as integers over
    # one denominator each; the Fraction fold they replaced
    # (oracles.fraction_fold_ggl) gives the very same value, trace,
    # certificate and pivots under every strategy, on corridor DAGs
    # (DAG fits), tournaments and a generic BQP (simplex fits); in float
    # mode every value here is dyadic, so the old per-entry rounding was
    # exact
    rng = random.Random(2)
    insts = [_random_qspp(rng) for _ in range(3)] + [
        _pinned_corridor(), generate_tournament(5), generate_tournament(6),
        _generic_qap()]
    for i, inst in enumerate(insts):
        for strategy in SkewStrategy:
            rep = ggl_bound(inst, strategy=strategy, mode=mode)
            want = fraction_fold_ggl(inst, strategy, 50, mode)
            got = (rep.value, rep.trace, rep.certificate, rep.pivots)
            assert repr(got) == repr(want), (i, strategy)


def test_float_ggl_trace_is_the_exact_trace_rounded():
    # both modes run one integer loop and round only the report, so each
    # round of a float run is the exact run's value, correctly rounded;
    # the float run stops at its 1e-9 test, no later than the exact one.
    # On a QAP too, where a float run that is not the exact one rounded
    # can end above the exact bound: 665/8 on the seed-0 QAP with n = 6
    rng = random.Random(4)
    for inst in (_pinned_corridor(), _random_qspp(rng), _random_qspp(rng),
                 _pinned_qap(), qap_instance(random.Random(0), 6)):
        for strategy in SkewStrategy:
            exact = ggl_bound(inst, strategy=strategy, mode="exact")
            rounded = ggl_bound(inst, strategy=strategy, mode="float")
            assert len(rounded.trace) <= len(exact.trace)
            for i, v in enumerate(rounded.trace):
                assert float(exact.trace[i]) == v, (strategy, i)
            assert rounded.value == rounded.trace[-1]


def test_ggl_on_a_corridor_builds_fractions_only_for_its_report(
        monkeypatch):
    # the residual, the fits and their sums are integers: a round makes
    # Fractions only for its minimum (its value and n duals), and the
    # report n m + m more for Y and z; a Fraction per residual entry
    # would be m^2 per round (the instance is encoded beforehand)
    inst = qspp_to_bqp(_pinned_corridor())
    n, m = inst.B.rows, inst.m
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    rep = ggl_bound(inst, strategy=SkewStrategy.SYMMETRIZE, mode="exact")
    monkeypatch.undo()
    rounds = len(rep.trace)
    assert rounds == 50
    assert len(made) <= rounds * (1 + n) + n * m + m


def _split_point(x) -> list:
    """x over free variables as the point (x_0+, x_0-, ...) of their
    split, each part >= 0."""
    return [part for v in x for part in (max(v, 0), max(-v, 0))]


def test_residual_is_minus_the_fitting_programs_row_gaps():
    # B with denominators 1, 2, 3 and 7; ycols exact with their own
    # denominators, or floats as a float-mode certificate carries them;
    # the row gaps of program k at (y_k, z_k), its split point in the
    # program's nonnegative variables, are column k of Qbar - Q, so
    # column k of the residual is minus them; _fit_gaps gives them from
    # B's sparse columns, in integers over one denominator
    rng = random.Random(5)
    n, m = 3, 5
    B = RationalMatrix.from_rows(
        [[Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 7)))
          for _ in range(m)] for _ in range(n)])
    Q = RationalMatrix.from_rows(
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m)]
         for _ in range(m)])
    bqp = BqpInstance(B=B, b=(ONE,) * n, Q=Q)
    programs = bounds._fitting_programs(bqp)
    exact = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12))
              for _ in range(n)] for _ in range(m)]
    floats = [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(m)]
    for ycols, zbar in ((exact, [Fraction(k, 5) for k in range(m)]),
                        (floats, [0.25 * k - 0.6 for k in range(m)])):
        want = [[Q.at(i, k)
                 - sum((B.at(r, i) * Fraction(ycols[k][r]) for r in range(n)),
                       Fraction(0))
                 - (Fraction(zbar[k]) if i == k else 0)
                 for k in range(m)] for i in range(m)]
        gaps = [row_gaps(
            programs[k].with_rhs(Q.column(k)),
            _split_point([Fraction(v) for v in ycols[k]]
                         + [Fraction(zbar[k])]))
            for k in range(m)]
        bcols = bounds._sparse_columns(B)
        ints = []
        for k in range(m):
            nums, d = common_denominator(
                list(Q.column(k))
                + [Fraction(v) for v in (*ycols[k], zbar[k])])
            ints.append((bounds._fit_gaps(bcols, k, nums[:m], nums[m:]),
                         bcols[1] * d))
        assert gaps == [[Fraction(v, d) for v in nums] for nums, d in ints]
        cols, den = bounds._next_columns(ints, SkewStrategy.NONE)
        assert [tuple(Fraction(v, den) for v in col) for col in cols] == [
            tuple(row[k] for row in want) for k in range(m)]


def _gl_fits_match_the_simplex(inst, mode):
    """gl on a structured instance against the simplex: cbar and the
    bound are LP optima, unique in value, so they equal the simplex's
    (whose minimum of fitting program k is -cbar[k]), and each fit that
    _combinatorial_solvers' fit hands to _certified_fit, split, is a
    point of its fitting program whose row gaps are the fit's; returns
    gl's report."""
    bqp = bounds._bqp(inst)
    tol = 0 if mode == "exact" else 1e-9
    programs = bounds._fitting_programs(bqp)
    bcols = bounds._sparse_columns(bqp.B)
    system = bounds._int_system(bqp)
    solve, _ = bounds._combinatorial_solvers(bqp)
    gl = gl_bound(inst, mode=mode)
    cbar = _fitted_linear(bqp, gl)
    cbars = []
    for k in range(bqp.m):
        rhs = bqp.Q.column(k)
        lp = programs[k].with_rhs(rhs)
        res = lpsolve.solve_lp(lp, mode=mode)
        assert abs(cbar[k] + Fraction(res.value)) <= tol
        cbars.append(-Fraction(res.value))
        cost, den = common_denominator(rhs)
        fit = bounds._certified_fit(system, solve, k, cost, den)
        x = _split_point([Fraction(v, fit.d) for v in fit.x])
        assert [Fraction(v, bcols[1] * fit.d)
                for v in bounds._fit_gaps(bcols, k, cost, fit.x)] \
            == [Fraction(v, fit.gaps[1]) for v in fit.gaps[0]] \
            == row_gaps(lp, x)
        assert lpsolve.point_violations(
            lp, x, -Fraction(fit.cbar, fit.d)) == []
    simplex = lpsolve.solve_lp(bounds._polytope_lp(bqp, cbars), mode=mode)
    assert abs(gl.value - simplex.value) <= tol
    assert gl.pivots == 0
    return gl


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_dag_fit_matches_the_simplex(mode):
    # on a shortest-path instance gl fits each column by DAG dynamic
    # programs
    rng = random.Random(41)
    for _ in range(6):
        _gl_fits_match_the_simplex(_random_qspp(rng), mode)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_assignment_fit_matches_the_simplex(mode):
    # on a QAP gl fits each column by the Hungarian method, n = 2 being
    # the 1 x 1 assignment without the fixed placement's row and column;
    # the generic copy, fitted by simplex solves, has gl's value
    rng = random.Random(45)
    for n in (2, 3, 3, 4, 5):
        inst = qap_instance(rng, n)
        gl = _gl_fits_match_the_simplex(inst, mode)
        generic = gl_bound(replace(inst, structure=None), mode=mode)
        if mode == "exact":
            assert gl.value == generic.value, n
        else:
            assert abs(gl.value - generic.value) <= 1e-9, n


def test_a_raised_potential_fails_the_dag_self_check():
    rng = random.Random(43)
    inst = _random_qspp(rng)
    g = inst.graph
    system = bounds._int_system(qspp_to_bqp(inst))
    cbar = _fitted_linear(qspp_to_bqp(inst), gl_bound(inst, mode="exact"))
    for k in range(g.m):
        cost, den = common_denominator(inst.Q.column(k))
        y, z, path = combinatorial.dag_fit(g, cost, k)
        value, _ = bounds._weak_duality(system, k, cost, (*y, z), path)
        assert value == sum(cost[j] for j in path)
        assert Fraction(value, den) == cbar[k]
        for v in [g.source] + [g.arcs[j][1] for j in path]:
            raised = list(y)  # y = -pi: a raised potential pi_v
            raised[v] -= 1
            with pytest.raises(lpsolve.LpError):
                bounds._weak_duality(system, k, cost, (*raised, z), path)


def test_a_raised_potential_fails_the_assignment_self_check():
    # every potential is tight on the permutation, so raising one makes a
    # row gap positive, and lowering one leaves b.y + z below the
    # permutation's cost; a permutation that misses placement k, or a
    # placement set that is no permutation, is no point of the program
    n = 4
    inst = qap_instance(random.Random(46), n)
    system = bounds._int_system(inst)
    cbar = _fitted_linear(inst, gl_bound(inst, mode="exact"))
    for k in range(inst.m):
        cost, den = common_denominator(inst.Q.column(k))
        y, z, perm = combinatorial.assignment_fit(n, cost, k)
        x = (*y, z)
        value, _ = bounds._weak_duality(system, k, cost, x, perm)
        assert value == sum(cost[j] for j in perm)
        assert Fraction(value, den) == cbar[k]
        for r in range(len(x)):
            for step in (1, -1):
                forged = list(x)
                forged[r] += step
                with pytest.raises(lpsolve.LpError):
                    bounds._weak_duality(system, k, cost, forged, perm)
        i0, j0 = divmod(k, n)
        others = [[i * n + (j0 + 1 + i - i0) % n for i in range(n)],
                  [j for j in perm if j != k], perm + [perm[-1] ^ 1]]
        assert k not in others[0]
        for point in others:
            with pytest.raises(lpsolve.LpError):
                bounds._weak_duality(system, k, cost, x, point)
    # the polytope LP under gl's costs, and gl's value, the same way
    costs, den = common_denominator(cbar)
    y, perm = combinatorial.assignment_minimum(n, costs)
    value, _ = bounds._weak_duality(system, -1, costs, y, perm)
    assert Fraction(value, den) == gl_bound(inst, mode="exact").value
    for r in range(len(y)):
        raised = list(y)
        raised[r] += 1
        with pytest.raises(lpsolve.LpError):
            bounds._weak_duality(system, -1, costs, raised, perm)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_gl_and_ggl_on_a_corridor_solve_no_lp(monkeypatch, mode):
    # nor on a QAP, where float ggl-sym is the exact bound rounded
    calls = []

    def counting(lp, mode="auto"):
        calls.append(lp)
        return lpsolve.solve_lp(lp, mode=mode)

    monkeypatch.setattr(bounds, "solve_lp", counting)
    for inst in (_pinned_corridor(), _pinned_qap()):
        for rep in (gl_bound(inst, mode=mode),
                    ggl_bound(inst, strategy=SkewStrategy.UPPER_TRIANGULAR,
                              mode=mode),
                    ggl_bound(inst, strategy=SkewStrategy.SYMMETRIZE,
                              mode=mode)):
            assert (rep.mode, rep.pivots) == (mode, 0)
            assert verify_report(inst, rep) == (True, ())
    assert calls == []
    if mode == "float":
        assert repr(rep.value) == "33.99999999953434"


def test_ggl_sym_on_seeded_qaps_solves_no_lp(monkeypatch):
    # exact ggl-sym on the seed-0 QAPs with n = 4 and n = 5, fitted by
    # assignments, has the values the simplex fits give
    calls = []
    monkeypatch.setattr(bounds, "solve_lp", calls.append)
    for n, want in ((4, "54"), (5, "315/4")):
        rep = ggl_bound(qap_instance(random.Random(0), n),
                        strategy=SkewStrategy.SYMMETRIZE, mode="exact")
        assert (str(rep.value), rep.pivots, len(rep.trace)) == (want, 0, 50)
    assert calls == []


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_gl_and_ggl_name_the_column_of_an_arc_on_no_path(mode):
    # s -> 1 -> t plus a dangling arc 1 -> 3: no s-t path uses arc 2, so
    # its fitting program is unbounded, as the simplex finds it
    g = Dag(4, [(0, 1), (1, 2), (1, 3)], 0, 2)
    inst = QsppInstance(g, RationalMatrix.from_rows(rand_rows(
        random.Random(1), 3, 3)))
    for bound in (gl_bound, partial(ggl_bound,
                                    strategy=SkewStrategy.SYMMETRIZE)):
        with pytest.raises(BoundComputationError) as exc:
            bound(inst, mode=mode)
        assert str(exc.value) == "column 2 fitting program: LP is unbounded"


def test_rlt1_and_lbb_prime_share_one_solve(monkeypatch):
    # one lifting LP per instance, without its structural-zero pairs: the
    # two bounds take one solve, and another instance or mode solves anew
    calls = []

    def counting(lp, mode="auto"):
        calls.append(lp)
        return lpsolve.solve_lp(lp, mode=mode)

    monkeypatch.setattr(bounds, "solve_lp", counting)
    bounds._solve_lifting_lp.cache_clear()
    inst = _random_qspp(random.Random(77), m_max=9)
    m, zeros = inst.graph.m, forbidden_pairs(inst.graph)
    assert zeros
    a = lbb_prime(inst, mode="exact")
    b = rlt1(inst, mode="exact")
    assert len(calls) == 1 and a.value == b.value and a.pivots == b.pivots
    assert calls[0].nvars == m + m * (m + 1) // 2 - len(zeros)
    assert not zeros & set(b.certificate["pairs"])
    calls.clear()
    lbb_prime(inst, mode="float")
    rlt1(inst, mode="float")
    assert len(calls) == 1
    lbb_prime(generate_tournament(4), mode="float")
    rlt1(inst, mode="float")
    assert len(calls) == 3


def _pair_row(member, pairs):
    """<Q_t, X> - c_t . x over x and the pairs (i <= j) of the lifting
    LP, right-hand side 0 appended: a pair covers (i, j) and (j, i)."""
    q, c = member
    return [-v for v in c] + [
        q.at(i, j) + (q.at(j, i) if i != j else 0) for i, j in pairs] + [0]


def test_lbb_star_solves_only_the_member_rows_the_lifting_lp_leaves_open(
        monkeypatch):
    calls = []

    def counting(lp, mode="auto"):
        calls.append(lp)
        return lpsolve.solve_lp(lp, mode=mode)

    monkeypatch.setattr(bounds, "solve_lp", counting)
    # canonical members on a corridor, generator members on an
    # assignment: every row is implied, so lbb_star takes lbb_prime's
    # solve, value and pivots, and its certificate lists no member
    qap = _pinned_qap()
    for inst, family in ((_pinned_corridor(), None),
                         (qap, generator_family(random.Random(0), qap))):
        prime = lbb_prime(inst, mode="exact")
        calls.clear()
        star = lbb_star(inst, family=family, mode="exact")
        assert not calls
        assert (star.value, star.pivots) == (prime.value, prime.pivots)
        assert star.certificate["members"] == star.certificate["alpha"] == ()
        assert verify_report(inst, star)[0]
    # a generic BQP with every linearizable matrix and the diagonal units:
    # the LP carries exactly the member rows outside the span of the
    # lifting LP's rows, found here by rank
    inst = _strict_generic_bqp()
    members = list(enumerated_family(inst).members) + _diag_units(inst.m)
    lifting, pairs = bounds._rlt1_lp(inst)
    base = [list(coeffs) + [rhs] for coeffs, _, rhs in dense_rows(lifting)]
    rank = matrix_rank(RationalMatrix.from_rows(base))
    live = [matrix_rank(RationalMatrix.from_rows(
        base + [_pair_row(member, pairs)])) > rank for member in members]
    assert sum(live) == len(members) - inst.m  # the diagonal units
    calls.clear()
    star = lbb_star(inst, family=members, mode="exact")
    (lp,) = calls
    assert lp.nrows == lifting.nrows + sum(live)
    assert star.value == -9 > lbb_prime(inst, mode="exact").value
    # the certificate lists the members solved, each with its weight
    assert star.certificate["members"] == tuple(
        (bounds._sym_matrix(q).to_rows(), c)
        for (q, c), kept in zip(members, live) if kept)
    assert len(star.certificate["alpha"]) == sum(live)
    assert verify_report(inst, star)[0]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_an_implied_family_is_still_named_on_an_unbounded_lifting_lp(mode):
    # the diagonal units' rows are the lifting LP's own x_j = w_jj rows,
    # so none is solved; the LP is unbounded (x_2 is in no row of B), and
    # the error blames the family, which lbb_star has
    inst = BqpInstance(B=RationalMatrix.from_rows([[1, 1, 0]]), b=(1,),
                       Q=RationalMatrix.diagonal([0, 0, -1]))
    with pytest.raises(BoundComputationError) as exc:
        lbb_star(inst, family=_diag_units(3), mode=mode)
    assert str(exc.value) == (
        "lbb_star: no combination of the family's linearizable matrices "
        "stays below Q; variables in no row of B: [2]")


@pytest.mark.parametrize("seed", range(4))
def test_float_lbb_star_with_a_generator_family_is_float_lbb_prime(seed):
    # a generator family's members are lbb_prime's own sum matrices, so
    # float lbb_star solves no member row and returns lbb_prime's value;
    # the float LP with those rows ends "infeasible" on these instances
    rng = random.Random(seed)
    inst = qap_instance(rng, 4)
    star = lbb_star(inst, family=generator_family(rng, inst), mode="float")
    assert star.mode == "float"
    assert star.value == lbb_prime(inst, mode="float").value
    ok, msgs = verify_report(inst, star)
    assert ok, msgs


def test_ggl_rejects_nonpositive_iteration_budget():
    inst = QsppInstance(diamond(), RationalMatrix.zeros(4, 4))
    with pytest.raises(ValueError):
        ggl_bound(inst, max_iter=0)


def test_ggl_rejects_an_unknown_strategy_before_any_fit():
    # one round folds no residual, the only step that uses the strategy,
    # so the check must come before any fit
    with pytest.raises(ValueError, match="unknown strategy 'symmetrize'"):
        ggl_bound(generate_tournament(5), strategy="symmetrize", max_iter=1,
                  mode="exact")


def test_lbb_prime_equals_rlt1_bit_exact():
    rng = random.Random(55)
    for _ in range(10):
        inst = _random_qspp(rng, m_max=9)
        a = lbb_prime(inst, mode="exact")
        b = rlt1(inst, mode="exact")
        assert isinstance(a.value, Fraction)
        assert a.value == b.value
    # the paper's tournament n=6: lbb_prime is 13 in both modes
    inst = generate_tournament(6)
    assert lbb_prime(inst, mode="exact").value == 13
    assert abs(lbb_prime(inst, mode="float").value - 13) <= 1e-6


def test_sparsity_from_forbidden_pairs_keeps_chain_valid():
    # the lifting LP leaves out the forbidden pairs, which every feasible
    # point of the LP with all pairs has at 0 (see bounds._rlt1_lp): the
    # raw twin, without structure, keeps every pair and gives the same
    # value, bit for bit
    rng = random.Random(77)
    seen_nontrivial = 0
    for _ in range(6):
        inst = _random_qspp(rng, m_max=9)
        raw = replace(qspp_to_bqp(inst), structure=None)
        zeros = forbidden_pairs(inst.graph)
        seen_nontrivial += bool(zeros)
        full = rlt1(raw, mode="exact")
        prime, lifted = lbb_prime(inst, mode="exact"), rlt1(inst, mode="exact")
        assert set(full.certificate["pairs"]) \
            == set(lifted.certificate["pairs"]) | zeros
        opt, _ = brute_force_opt(inst)
        assert prime.value == lifted.value == full.value <= opt
        verify_chain([gl_bound(inst, mode="exact"), prime, lifted,
                      lbb_star(inst, mode="exact")], opt=opt)
        for rep in (prime, lifted):
            assert verify_report(inst, rep) == (True, ()), rep.name
    assert seen_nontrivial >= 3
    # so do an assignment's row and column pairs
    inst = _pinned_qap()
    assert lbb_prime(inst, mode="exact").value \
        == lbb_prime(replace(inst, structure=None), mode="exact").value


def test_sparsity_rejects_bad_pairs():
    # an rlt1 certificate must list the pairs of the instance's own
    # lifting LP: one solved on the raw twin lists the structural zeros
    # as well, and the structured one lacks them on the raw twin, where
    # its duals also stay above Q on some of those cells
    inst = _random_qspp(random.Random(6), m_max=8)
    raw = replace(qspp_to_bqp(inst), structure=None)
    assert forbidden_pairs(inst.graph)
    for rep, target in ((rlt1(raw, mode="exact"), inst),
                        (rlt1(inst, mode="exact"), raw)):
        ok, msgs = verify_report(target, rep)
        assert not ok and msgs[:2] == (
            "certificate pairs differ from the program's pairs",
            "certificate has the wrong number of variables"), msgs


def _forged_prime(bqp, drop, mode):
    """An lbb_prime report read, as bounds._lifted_bound reads it, off
    the lifting LP with the pairs in drop left out: its certificate need
    not dominate sym(Q) on their cells."""
    lp, pairs = bounds._rlt1_lp(bqp)
    gone = {bqp.m + pairs.index(p) for p in drop}
    keep = [j for j in range(lp.nvars) if j not in gone]
    res = lpsolve.solve_lp(lpsolve.linear_program(
        "min", [lp.objective[j] for j in keep],
        [([coeffs[j] for j in keep], rel, rhs)
         for coeffs, rel, rhs in dense_rows(lp)]), mode=mode)
    n, m, u = bqp.B.rows, bqp.m, res.duals
    return BoundReport(
        name="lbb_prime", value=res.value, mode=mode, relaxation_only=False,
        certificate={"y": u[:n],
                     "Y": tuple(tuple(v / 2 for v in u[n + r * m:
                                                      n + (r + 1) * m])
                                for r in range(n)),
                     "z": tuple(-v for v in u[n + n * m:])})


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_sparsity_must_be_structural_zeros(mode):
    # a certificate may stay above sym(Q) only on a structural zero; one
    # read off the lifting LP without the pairs of the optimum's support,
    # which are no structural zeros, must be rejected on a corridor DAG,
    # on an assignment and on their raw twins, which have no structural
    # zero and keep all m(m + 1) / 2 pairs
    corridor, qap = qspp_to_bqp(_pinned_corridor()), _pinned_qap()
    for bqp in (corridor, qap, replace(corridor, structure=None),
                replace(qap, structure=None)):
        m, zeros = bqp.m, bounds._structural_sparsity(bqp)
        assert bool(zeros) == bool(bqp.structure)
        pairs = bounds._rlt1_lp(bqp)[1]
        assert len(pairs) == m * (m + 1) // 2 - len(zeros)
        _, argmin = brute_force_opt(bqp)
        on = [i for i, v in enumerate(argmin) if v]
        drop = [(i, j) for i in on for j in on if i < j]
        assert not zeros & set(drop)
        forged = _forged_prime(bqp, drop, mode)
        if mode == "exact":  # above sym(Q) on some dropped cells alone
            cells = set(drop) | {(j, i) for i, j in drop}
            msgs = linearization_violations(bqp, forged)
            assert msgs and set(msgs) <= {
                f"matrix part exceeds Q at {cell}" for cell in cells}
        ok, msgs = verify_report(bqp, forged)
        assert not ok and all("column" in msg for msg in msgs), msgs
        assert verify_report(bqp, lbb_prime(bqp, mode=mode)) == (True, ())


def test_structural_sparsity_of_qap_is_row_and_column_pairs():
    inst = qap_to_bqp([[0, 2, 1], [2, 0, 3], [1, 3, 0]],
                      [[0, 1, 4], [1, 0, 2], [4, 2, 0]])
    pairs = bounds._structural_sparsity(inst)
    # x[i*3 + j]: facility i at location j; 3 rows and 3 columns of 3
    # cells give 18 pairs that no permutation sets both, and the
    # oracle, from the assignment alone, finds the same cells
    assert len(pairs) == 18
    assert (0, 1) in pairs and (0, 3) in pairs and (0, 4) not in pairs
    assert {(i, j) for i, j in structural_zeros(inst) if i < j} == pairs
    opt, _ = brute_force_opt(inst)
    for bound in (lbb_prime, rlt1):
        rep = bound(inst, mode="exact")
        assert rep.value <= opt
        ok, msgs = verify_report(inst, rep)
        assert ok, msgs
    # 45 unordered pairs, of which the lifting LP keeps 27
    assert len(rep.certificate["pairs"]) == 27
    assert bounds._structural_sparsity(replace(inst, structure=None)) \
        == frozenset()
    # on a corridor DAG the oracle's paths give the forbidden pairs
    g = _pinned_corridor().graph
    assert {(i, j) for i, j in structural_zeros(qspp_to_bqp(
        QsppInstance(g, RationalMatrix.zeros(g.m, g.m)))) if i < j} \
        == forbidden_pairs(g)


def test_auto_mode_stays_exact_on_tournament_8():
    # without its structural zeros the lifting LP of the tournament
    # n = 8 has 260 rows and 182 columns, within the exact size limit
    # (with every pair it has 434 columns and auto mode fell to float)
    inst = generate_tournament(8)
    lp = bounds._rlt1_lp(qspp_to_bqp(inst))[0]
    assert (lp.nrows, lp.nvars) == (260, 182)
    for rep in (lbb_prime(inst), rlt1(inst), lbb_star(inst)):
        assert (rep.mode, rep.value) == ("exact", 17), rep.name
        assert verify_report(inst, rep) == (True, ()), rep.name


@pytest.mark.parametrize("inst", [partial(generate_tournament, 6),
                                  _pinned_qap], ids=["tournament6", "qap"])
def test_lifting_lp_matches_the_list_tableau(inst):
    # the exact int64 tableau against the list-of-ints one it replaced,
    # on a degenerate lifting LP of each kind: the same LpResult, pivots
    # included, every number a Fraction over Python ints
    lp = bounds._lifting_lp(bounds._bqp(inst()))[0]
    res = lpsolve.solve_lp(lp, mode="exact")
    assert res == ListTableau(lp).solve()
    assert python_int_fractions(res)


def test_exact_rlt1_on_tournament_9_is_pinned():
    # 369 rows by 282 columns, past EXACT_SIZE_LIMIT, so auto would run
    # float; exact mode solves it in 366 pivots, and the replay holds
    inst = generate_tournament(9)
    rep = rlt1(inst, mode="exact")
    assert (rep.mode, rep.value, rep.pivots) == ("exact", 16, 366)
    assert verify_report(inst, rep) == (True, ())


def test_tournament_20_lifting_lp_is_built_sparse():
    # 4,010 rows by 6,365 columns with 25,460 nonzeros: stored dense, its
    # rows and their integer forms took about 600 MB; built sparse, with
    # int_rows and int_columns, they stay below a tenth of that
    bqp = qspp_to_bqp(generate_tournament(20))
    tracemalloc.start()
    try:
        lp, _ = bounds._rlt1_lp(bqp)
        columns = lp.int_columns  # worked out from int_rows
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (lp.nrows, lp.nvars) == (4010, 6365)
    assert sum(len(coeffs) for coeffs, _, _ in lp.rows) \
        == sum(map(len, columns)) == 25460
    assert peak < 60 * 2 ** 20, peak


def test_lbb_prime_invariant_under_reformulation():
    rng = random.Random(101)
    g = double_diamond()
    inst = qspp_to_bqp(
        QsppInstance(g, RationalMatrix.from_rows(rand_rows(rng, g.m, g.m))))
    base = lbb_prime(inst, mode="exact").value
    m = g.m
    for _ in range(5):
        s = [[ZERO] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                v = Fraction(rng.randint(-4, 4))
                s[i][j] = v
                s[j][i] = -v
        d = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        assert lbb_prime(reformulate(inst, s, d), mode="exact").value == base


def test_lbb_star_equals_lbb_prime_on_corridors():
    # the canonical family adds nothing on a corridor DAG (the lemma in
    # lbb_star's docstring, tests/test_lbb_star_theorem.py): the report
    # is lbb_prime's solve, weighting no member
    rng = random.Random(13)
    for _ in range(6):
        inst = _random_qspp(rng, m_max=9)
        prime = lbb_prime(inst, mode="exact")
        star = lbb_star(inst, mode="exact")
        assert star.canonical_family
        assert (star.value, star.pivots) == (prime.value, prime.pivots)
        assert all(star.certificate[key] == prime.certificate[key]
                   for key in ("y", "Y", "z"))
        assert star.certificate["alpha"] == star.certificate["members"] \
            == ()
        ok, msgs = verify_report(inst, star)
        assert ok, msgs


def test_canonical_lbb_star_builds_no_spanning_set_and_tests_no_member(
        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("canonical lbb_star needs no family")

    monkeypatch.setattr(bounds, "spanning_set", refuse)
    monkeypatch.setattr(bounds, "_unimplied_members", refuse)
    star = lbb_star(generate_tournament(8), mode="exact")
    assert (star.canonical_family, star.value) == (True, 17)
    inst = _random_qspp(random.Random(17), m_max=10)
    star = lbb_star(inst, mode="exact")
    assert star.canonical_family
    assert star.value == lbb_prime(inst, mode="exact").value
    assert verify_report(inst, star) == (True, ())
    # a graph off the corridor is refused as the spanning set refuses it
    g = Dag(4, [(0, 1), (1, 3), (0, 2)], 0, 3)
    with pytest.raises(GraphError, match="corridor"):
        lbb_star(QsppInstance(g, RationalMatrix.zeros(3, 3)))


def test_lbb_star_with_empty_family_is_lbb_prime():
    rng = random.Random(29)
    inst = _random_qspp(rng, m_max=8)
    collapsed = lbb_star(inst, family=(), mode="exact")
    assert not collapsed.canonical_family
    assert collapsed.value == lbb_prime(inst, mode="exact").value


def test_lbb_star_flags_only_the_family_it_derives(monkeypatch):
    # an explicit spanning set of the instance's own graph gives the
    # canonical value, but the flag is lbb_star's to set
    rng = random.Random(41)
    inst = _random_qspp(rng, m_max=7)
    explicit = lbb_star(inst, family=spanning_set(inst.graph), mode="exact")
    derived = lbb_star(inst, mode="exact")
    assert derived.canonical_family and not explicit.canonical_family
    assert explicit.value == derived.value
    # another 5-arc graph's spanning set: its members are no linearizable
    # matrices here, and the LP weights some of them, so the bound refuses
    # to report, with replay's message; past that check its value, -1,
    # is above the optimum, -7, the report is not flagged, and replay
    # rejects the members the LP weighted
    g = Dag(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], 0, 3)
    other = Dag(3, [(0, 1), (0, 1), (0, 2), (1, 2), (1, 2)], 0, 2)
    inst = QsppInstance(g, RationalMatrix.from_rows(
        rand_rows(random.Random(1), 5, 5)))
    foreign = _unchecked_lbb_star(monkeypatch, inst, spanning_set(other))
    assert (foreign.value, brute_force_opt(qspp_to_bqp(inst))[0]) == (-1, -7)
    assert not foreign.canonical_family
    assert any(foreign.certificate["alpha"])
    ok, msgs = verify_report(inst, foreign)
    assert not ok and "member 0 is not linearizable with its costs" in msgs


def test_lbb_star_with_generator_family_still_dominates_rlt1_on_qap():
    # no spanning machinery for assignment instances; alpha = 0 embeds
    # the plain dual bound, so any certified family keeps the chain
    rng = random.Random(59)
    n = 3
    a = [[Fraction(rng.randint(0, 5)) if i != j else ZERO
          for j in range(n)] for i in range(n)]
    d = [[Fraction(rng.randint(0, 5)) if i != j else ZERO
          for j in range(n)] for i in range(n)]
    inst = qap_to_bqp(a, d)
    gens = []
    for _ in range(4):
        y = [[Fraction(rng.randint(-2, 2)) for _ in range(inst.m)]
             for _ in range(inst.B.rows)]
        z = [Fraction(rng.randint(-2, 2)) for _ in range(inst.m)]
        gens.append((y, z))
    fam = LinearizableFamily.from_generators(inst, gens, symmetrize=True)
    star = lbb_star(inst, family=fam, mode="exact")
    assert not star.canonical_family
    lifted = rlt1(inst, mode="exact")
    opt, _ = brute_force_opt(inst)
    verify_chain([lifted, star], opt=opt)
    ok, msgs = verify_report(inst, star)
    assert ok, msgs


def test_lbb_star_needs_family_without_graph_structure():
    inst = qap_to_bqp([[ZERO, ONE], [ONE, ZERO]],
                      [[ZERO, ONE], [ONE, ZERO]])
    with pytest.raises(ValueError):
        lbb_star(inst)


def _diag_units(m):
    out = []
    for i in range(m):
        q = [[ZERO] * m for _ in range(m)]
        q[i][i] = ONE
        c = [ZERO] * m
        c[i] = ONE
        out.append((RationalMatrix.from_rows(q), tuple(c)))
    return out


def _skew_units(m):
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            q = [[ZERO] * m for _ in range(m)]
            q[i][j], q[j][i] = ONE, -ONE
            out.append((RationalMatrix.from_rows(q), (ZERO,) * m))
    return out


def test_generic_family_bound_is_skew_sensitive_but_star_is_not():
    # zero costs on the diamond; arcs 0 and 2 share the upper path
    g = diamond()
    m = g.m
    inst = qspp_to_bqp(QsppInstance(g, RationalMatrix.zeros(m, m)))
    members = _diag_units(m)
    pair = [[ZERO] * m for _ in range(m)]
    pair[0][2] = pair[2][0] = ONE
    members.append((RationalMatrix.from_rows(pair),
                    (Fraction(2), ZERO, ZERO, ZERO)))
    family = LinearizableFamily.verified(inst, members)

    s = [[ZERO] * m for _ in range(m)]
    s[0][2], s[2][0] = ONE, -ONE
    shifted = reformulate(inst, s, [ZERO] * m)

    # the skew shift does not change any path cost, yet the raw-matrix
    # family bound collapses: the (2, 0) row forces the pair weight to -1
    gen_a = lbb_generic(inst, family, mode="exact")
    gen_b = lbb_generic(shifted, family, mode="exact")
    assert gen_a.value == 0
    assert gen_b.value == Fraction(-2)

    star_a = lbb_star(inst, family=family, mode="exact")
    star_b = lbb_star(shifted, family=family, mode="exact")
    assert star_a.value == star_b.value == 0

    # a family that spans the shifted skew direction absorbs it instead;
    # a spanning set leaves the skew directions implied, so list them
    full = list(spanning_set(g).members) + _diag_units(m) + _skew_units(m)
    assert lbb_generic(inst, full, mode="exact").value \
        == lbb_generic(shifted, full, mode="exact").value

    for rep, which in ((gen_a, inst), (gen_b, shifted),
                       (star_a, inst), (star_b, shifted)):
        ok, msgs = verify_report(which, rep)
        assert ok, (rep.name, msgs)
        assert not linearization_violations(which, rep), rep.name
        assert linearization_violations(
            which, replace(rep, value=rep.value + 1)), rep.name


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_skew_member_leaves_lbb_star_unchanged(mode):
    # a skew member symmetrizes to zero: its all-zero row is implied, so
    # it gets no row and no place in the certificate, and the report is
    # the one without it
    inst = _random_qspp(random.Random(7), m_max=7)
    m = inst.graph.m
    family = list(spanning_set(inst.graph).members)[:5] + _diag_units(m)
    plain = lbb_star(inst, family=family, mode=mode)
    skewed = lbb_star(inst, family=family + _skew_units(m)[:1], mode=mode)
    assert skewed.value == plain.value
    assert skewed.certificate == plain.certificate
    ok, msgs = verify_report(inst, skewed)
    assert ok, msgs


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_family_that_cannot_stay_below_q_fails_the_bound(mode):
    # spanning members have a zero diagonal, so without the diagonal units
    # no combination sits below a negative diagonal entry of Q; the
    # lifting LP is then unbounded, and the error says why in the
    # family's terms
    inst = _random_qspp(random.Random(6), m_max=8)
    assert any(inst.Q.at(i, i) < 0 for i in range(inst.graph.m))
    with pytest.raises(BoundComputationError, match="below Q") as exc:
        lbb_generic(inst, spanning_set(inst.graph), mode=mode)
    assert "unbounded" not in str(exc.value)


@pytest.mark.parametrize("bound", [
    lbb_prime, rlt1,
    pytest.param(partial(lbb_star, family=()), id="lbb_star-empty-family")])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_an_unbounded_lifting_lp_names_the_variables_outside_b(bound, mode):
    # x_2 is in no row of B, so nothing bounds its pair variables and
    # -X_22 falls without end; no bound here has a family to blame
    inst = BqpInstance(B=RationalMatrix.from_rows([[1, 1, 0]]), b=(1,),
                       Q=RationalMatrix.diagonal([0, 0, -1]))
    with pytest.raises(BoundComputationError,
                       match="lifting LP is unbounded") as exc:
        bound(inst, mode=mode)
    assert "no row of B: [2]" in str(exc.value)
    assert "family" not in str(exc.value)


def test_zero_matrix_gives_zero_across_the_ladder():
    g = diamond()
    inst = QsppInstance(g, RationalMatrix.zeros(4, 4))
    reports = _ladder(inst)
    assert all(r.value == 0 for r in reports.values())
    ggl = ggl_bound(inst, mode="exact")
    assert len(ggl.trace) == 1  # zero fitted part on the first round
    verify_chain(list(reports.values()), opt=0)


def test_generator_basis_family_reproduces_lbb_prime():
    # lbb_generic over the full (Y, z) generator basis explores exactly
    # the lbb_prime feasible set when Q is already symmetric
    rng = random.Random(83)
    inst = qspp_to_bqp(_random_qspp(rng, m_max=7, symmetric=True))
    n, m = inst.B.rows, inst.m
    gens = []
    for r in range(n):
        for j in range(m):
            y = [[ZERO] * m for _ in range(n)]
            y[r][j] = ONE
            gens.append((y, [ZERO] * m))
    zero_y = [[ZERO] * m for _ in range(n)]
    for j in range(m):
        z = [ZERO] * m
        z[j] = ONE
        gens.append((zero_y, z))
    fam = LinearizableFamily.from_generators(inst, gens, symmetrize=True)
    gen = lbb_generic(inst, fam, mode="exact")
    assert gen.value == lbb_prime(inst, mode="exact").value


def test_verify_chain_reports_the_failing_relation():
    verify_chain({"gl": 1, "ggl": 1, "opt": 2})
    with pytest.raises(ChainViolation, match="gl <= ggl"):
        verify_chain({"gl": 2, "ggl": 1})
    with pytest.raises(ChainViolation, match="lbb_prime == rlt1"):
        verify_chain({"lbb_prime": Fraction(1), "rlt1": Fraction(3, 2)})
    with pytest.raises(ChainViolation, match="lbb_star <= opt"):
        verify_chain({"lbb_star": 5, "opt": 4})
    # float slack is honored
    verify_chain({"lbb_prime": 1.0, "rlt1": 1.0 + 1e-9}, tol=1e-7)


def test_verify_report_catches_tampered_certificates():
    rng = random.Random(6)
    inst = _random_qspp(rng, m_max=8)

    prime = lbb_prime(inst, mode="exact")
    forged = BoundReport(
        name=prime.name, value=prime.value + 1, mode=prime.mode,
        relaxation_only=prime.relaxation_only,
        certificate=prime.certificate, pivots=prime.pivots)
    ok, msgs = verify_report(inst, forged)
    assert not ok and msgs

    lifted = rlt1(inst, mode="exact")
    cert = dict(lifted.certificate)
    x = list(cert["x"])
    x[0] += 1
    cert["x"] = tuple(x)
    ok, msgs = verify_report(inst, BoundReport(
        name="rlt1", value=lifted.value, mode="exact",
        relaxation_only=lifted.relaxation_only, certificate=cert))
    assert not ok


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_report_rejects_a_raised_linearization_entry(mode):
    # gl and ggl carry lbb_prime's certificate (y, Y, z): y raised where
    # b is not 0 moves b.y off the value, Y_rj raised where B_rj > 0
    # lifts the diagonal cell (j, j) of B^T Y + Y^T B above Q, and so
    # does z_0 the cell (0, 0); ggl-sym's Y and z sum 50 rounds of fits
    inst = _random_qspp(random.Random(6), m_max=8)
    bqp = qspp_to_bqp(inst)
    r = next(r for r, v in enumerate(bqp.b) if v)
    i, j = next((i, j) for i in range(bqp.B.rows) for j in range(bqp.m)
                if bqp.B.at(i, j) > 0)
    for rep in (
            lbb_prime(inst, mode=mode), gl_bound(inst, mode=mode),
            ggl_bound(inst, strategy=SkewStrategy.UPPER_TRIANGULAR,
                      mode=mode),
            ggl_bound(inst, strategy=SkewStrategy.SYMMETRIZE, mode=mode)):
        assert verify_report(inst, rep) == (True, ()), rep.name
        for path in (("y", r), ("Y", i, j), ("z", 0)):
            raised = reduce(getitem, path, rep.certificate) + 10 ** 6
            forged = _with_entry(rep.certificate, path, raised)
            ok, msgs = verify_report(inst, replace(rep, certificate=forged))
            assert not ok and msgs, (rep.name, path)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_report_rejects_a_raised_value_for_every_kind(mode):
    rng = random.Random(6)
    inst = _random_qspp(rng, m_max=8)
    family = list(spanning_set(inst.graph).members) + _diag_units(inst.m)
    for rep in (
            gl_bound(inst, mode=mode),
            ggl_bound(inst, strategy=SkewStrategy.UPPER_TRIANGULAR,
                      mode=mode),
            lbb_prime(inst, mode=mode),
            rlt1(inst, mode=mode),
            lbb_star(inst, mode=mode),
            lbb_generic(inst, family, mode=mode)):
        assert rep.mode == mode
        ok, msgs = verify_report(inst, rep)
        assert ok, (rep.name, msgs)
        ok, msgs = verify_report(inst, replace(rep, value=rep.value + 1))
        assert not ok and msgs, rep.name


def _family_reports(mode):
    """(instance, report) of lbb_star and lbb_generic, each with members
    of weight alpha_t != 0.  A forged member of weight 0 leaves a valid
    certificate, and on a corridor every spanning member's row is implied
    (weight 0 in lbb_star), so lbb_star runs on a generic BQP with all of
    its linearizable matrices."""
    inst = _random_qspp(random.Random(6), m_max=8)
    family = list(spanning_set(inst.graph).members) + _diag_units(inst.m)
    strict = _strict_generic_bqp()
    return ((strict, lbb_star(strict, family=enumerated_family(strict),
                              mode=mode)),
            (inst, lbb_generic(inst, family, mode=mode)))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_report_rejects_a_member_with_a_raised_lower_entry(mode):
    # a forged member that only differs below the diagonal must not slip
    # past a check of the unordered pairs
    for inst, rep in _family_reports(mode):
        m = inst.m
        assert verify_report(inst, rep)[0], rep.name
        cert = dict(rep.certificate)
        alpha = cert["alpha"]
        t = next(k for k, a in enumerate(alpha) if a != 0)
        rows = [list(r) for r in cert["members"][t][0]]
        sign = 1 if alpha[t] > 0 else -1
        rows[m - 1][0] += sign * Fraction(10 ** 6) / Fraction(abs(alpha[t]))
        members = list(cert["members"])
        members[t] = (rows, members[t][1])
        cert["members"] = tuple(members)
        ok, msgs = verify_report(inst, replace(rep, certificate=cert))
        assert not ok and msgs, rep.name


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_report_checks_every_pair_of_a_family_bound(mode):
    # a member raised on a pair that is not a structural zero must not
    # get its domination row skipped
    for inst, rep in _family_reports(mode):
        forbidden = forbidden_pairs(inst.graph) \
            if isinstance(inst, QsppInstance) else ()
        i, j = next((i, j) for i in range(inst.m)
                    for j in range(i + 1, inst.m) if (i, j) not in forbidden)
        assert verify_report(inst, rep)[0], rep.name
        cert = dict(rep.certificate)
        alpha = cert["alpha"]
        t = next(k for k, a in enumerate(alpha) if a != 0)
        rows = [list(r) for r in cert["members"][t][0]]
        raise_by = Fraction(10 ** 6) / Fraction(alpha[t])
        rows[i][j] += raise_by
        rows[j][i] += raise_by
        members = list(cert["members"])
        members[t] = (rows, members[t][1])
        cert["members"] = tuple(members)
        ok, msgs = verify_report(inst, replace(rep, certificate=cert))
        assert not ok and msgs, rep.name


def _unchecked_lbb_star(monkeypatch, inst, family):
    """lbb_star's exact report with its member check skipped, as a report
    forged past that check reads; the bound itself refuses the family."""
    with pytest.raises(ValueError,
                       match="member 0 is not linearizable with its costs"):
        lbb_star(inst, family=family, mode="exact")
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_unconfirmed_members", lambda *args: [])
        return lbb_star(inst, family=family, mode="exact")


def test_verify_report_rejects_a_forged_family_member(monkeypatch):
    # the member (0, e_j) claims x_j = 0 on every path, false for an arc
    # of the optimal path: its row lifts lbb_star above the optimum, and
    # the duals still certify that LP, so only the member check catches
    # it, in the bound and in replay
    rng = random.Random(20250819)
    for _ in range(10):
        g = random_corridor_dag(rng, 4, 7, m_max=10)
        inst = QsppInstance(g, RationalMatrix.from_rows(
            rand_rows(rng, g.m, g.m)))
        opt, argmin = brute_force_opt(inst)
        j = argmin.index(1)
        forged = [(RationalMatrix.zeros(g.m, g.m),
                   tuple(ONE if i == j else ZERO for i in range(g.m)))]
        rep = _unchecked_lbb_star(monkeypatch, inst, forged)
        assert rep.value > opt
        assert verify_report(inst, rep) == (
            False, ("member 0 is not linearizable with its costs",))


def test_verify_report_confirms_weighted_members_by_enumeration(
        monkeypatch):
    # off a graph, a weighted member is confirmed on every feasible point,
    # in the bound and in replay
    inst = _pinned_qap()
    _, argmin = brute_force_opt(inst)
    e = tuple(ONE if v else ZERO for v in argmin)
    zero = RationalMatrix.zeros(inst.m, inst.m)
    rep = _unchecked_lbb_star(monkeypatch, inst, [(zero, e)])
    assert rep.certificate["alpha"][0] != 0
    assert verify_report(inst, rep) == (
        False, ("member 0 is not linearizable with its costs",))
    # past the enumeration cap (2^21 binary points) nothing is confirmed
    m = 21
    bqp = BqpInstance(B=RationalMatrix.from_rows([[1] * m]), b=(1,),
                      Q=RationalMatrix.zeros(m, m))
    rep = BoundReport(
        name="lbb_generic", value=ZERO, mode="exact", relaxation_only=True,
        certificate={"y": (ZERO,), "alpha": (ONE,),
                     "members": ((RationalMatrix.zeros(m, m).to_rows(),
                                  (ZERO,) * m),)})
    assert verify_report(bqp, rep) == (False, (
        "member 0's linearizability cannot be confirmed: 2^21 binary "
        "vectors",))


def _forge_a_dual(rep, lp):
    """The duals with one row of right-hand side 0 raised until one
    column's A^T y exceeds its cost by 1; b.y and the value are kept."""
    y, rows = list(rep.certificate["duals"]), dense_rows(lp)
    k, j = next((k, j) for k, (coeffs, _, rhs) in enumerate(rows)
                if rhs == 0 for j, a in enumerate(coeffs) if a != 0)
    col = sum(row[j] * Fraction(v) for (row, _, _), v in zip(rows, y))
    step = (lp.objective[j] + 1 - col) / rows[k][0][j]
    y[k] += float(step) if rep.mode == "float" else step
    return tuple(y)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_report_rejects_forged_duals(mode):
    rng = random.Random(6)
    inst = _random_qspp(rng, m_max=8)
    rep = rlt1(inst, mode=mode)
    lp = bounds._rlt1_lp(qspp_to_bqp(inst))[0]
    assert verify_report(inst, rep)[0]
    cert = dict(rep.certificate, duals=_forge_a_dual(rep, lp))
    ok, msgs = verify_report(inst, replace(rep, certificate=cert))
    assert not ok and any("column" in msg for msg in msgs)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_report_rejects_malformed_fitting_certificates(mode):
    # gl and ggl carry lbb_prime's (y, Y, z): a missing key is named, a
    # short or ragged entry is a rejection with a message, not a crash,
    # and so is a certificate of the per-round shape, which has no y, Y
    # or z to replay
    inst = _random_qspp(random.Random(6), m_max=8)
    for rep in (gl_bound(inst, mode=mode),
                ggl_bound(inst, strategy=SkewStrategy.UPPER_TRIANGULAR,
                          mode=mode)):
        assert verify_report(inst, rep) == (True, ()), rep.name
        cert = rep.certificate
        assert set(cert) == {"y", "Y", "z"}
        for key in cert:
            missing = dict(cert)
            del missing[key]
            assert verify_report(inst, replace(rep, certificate=missing)) \
                == (False, (f"certificate lacks {key}",)), (rep.name, key)
        Y = cert["Y"]
        forged = [dict(cert, y=cert["y"][:-1]), dict(cert, y=5),
                  dict(cert, Y=Y[:-1]), dict(cert, Y=(1, 2)),
                  dict(cert, Y=Y[:-1] + (Y[-1][:-1],)),
                  dict(cert, z=cert["z"][:-1]), dict(cert, z=5),
                  {"strategy": "none", "iterations": (),
                   "c_total": cert["z"], "x": (), "duals": cert["y"]}]
        for bad in forged:
            ok, msgs = verify_report(inst, replace(rep, certificate=bad))
            assert not ok and msgs, (rep.name, bad)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_report_rejects_malformed_lifted_certificates(mode):
    # a lifted certificate without a key the replay reads is rejected
    # with a message naming the key, not a KeyError; one whose entries
    # have the wrong shape is rejected with messages, not an exception
    rng = random.Random(6)
    inst = _random_qspp(rng, m_max=8)
    family = list(spanning_set(inst.graph).members) + _diag_units(inst.m)
    reports = (rlt1(inst, mode=mode), lbb_prime(inst, mode=mode),
               lbb_star(inst, mode=mode),
               lbb_generic(inst, family, mode=mode))
    for rep in reports:
        assert verify_report(inst, rep) == (True, ()), rep.name
        for key in rep.certificate:
            cert = dict(rep.certificate)
            del cert[key]
            assert verify_report(inst, replace(rep, certificate=cert)) == (
                False, (f"certificate lacks {key}",)), (rep.name, key)
    forged = [(inst, reports[0], "pairs", (1, 2)),
              (inst, reports[0], "x", 5),
              (inst, reports[1], "Y", (1, 2)),
              (inst, reports[1], "z", reports[1].certificate["z"][:-1])]
    # canonical lbb_star lists no member, so its members come from a
    # family with rows left
    for where, rep in _family_reports(mode):
        (q, c), *rest = rep.certificate["members"]
        forged += [(where, rep, "members", ((q, c[:-1]), *rest)),
                   (where, rep, "members", ((q[:-1], c), *rest)),
                   (where, rep, "members", ((q,), *rest)),
                   (where, rep, "alpha", 5)]
    for where, rep, key, value in forged:
        ok, msgs = verify_report(where, replace(
            rep, certificate=dict(rep.certificate, **{key: value})))
        assert not ok and msgs, (rep.name, key, value)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("make", [
    lambda: generate_tournament(5),
    lambda: _random_qspp(random.Random(6), m_max=8),
], ids=["tournament5", "corridor"])
def test_verify_report_rejects_entries_that_are_not_numbers(make, mode):
    # a certificate entry or value that cannot be read as a number is a
    # rejection with a message, not a ValueError or TypeError from the
    # exact conversion
    inst = make()
    prime, lifted = lbb_prime(inst, mode=mode), rlt1(inst, mode=mode)
    forged = [
        (_with_entry(prime.certificate, ("y", 0), "a"), prime,
         "certificate y holds an entry that is not a number"),
        (_with_entry(prime.certificate, ("y", 0), None), prime,
         "certificate y holds an entry that is not a number"),
        (_with_entry(lifted.certificate, ("x", 0), "q"), lifted,
         "certificate x holds an entry that is not a number"),
    ]
    for cert, rep, msg in forged:
        assert verify_report(inst, replace(rep, certificate=cert)) == (
            False, (msg,)), msg
    for rep in (prime, lifted, gl_bound(inst, mode=mode)):
        assert verify_report(inst, replace(rep, value="zz")) == (
            False, ("report value is not a number",)), rep.name


def test_verify_report_rejects_an_unknown_kind_and_a_short_alpha():
    inst = _random_qspp(random.Random(6), m_max=8)
    rep = lbb_prime(inst, mode="exact")
    assert verify_report(inst, replace(rep, name="lbb_double")) == (
        False, ("unknown report kind 'lbb_double'",))
    for where, rep in _family_reports("exact"):
        cert = dict(rep.certificate, alpha=rep.certificate["alpha"][:-1])
        assert verify_report(where, replace(rep, certificate=cert)) == (
            False, ("certificate alpha does not have one weight per "
                    "member",)), rep.name


_FLOAT_KINDS = {
    "gl": gl_bound,
    "ggl": ggl_bound,
    "lbb_prime": lbb_prime,
    "rlt1": rlt1,
    "lbb_star": lbb_star,
    "lbb_generic": lambda inst, mode: lbb_generic(
        inst, list(spanning_set(inst.graph).members) + _diag_units(inst.m),
        mode=mode),
}


@pytest.mark.parametrize("kind", sorted(_FLOAT_KINDS))
def test_verify_report_rejects_a_float_report_relabelled_exact(kind):
    # the tournament's float values are exact binary numbers, so a
    # zero-tolerance replay of the floats alone would pass them
    inst = generate_tournament(5)
    rep = _FLOAT_KINDS[kind](inst, mode="float")
    assert verify_report(inst, rep) == (True, ())
    assert verify_report(inst, replace(rep, mode="exact")) == (
        False, ("an exact report holds a float",))
    assert verify_report(inst, replace(rep, mode="approximate")) == (
        False, ("unknown mode 'approximate'",))


def _with_entry(cert, path, value):
    """cert with the entry at path (keys and indices) set to value."""
    if not path:
        return value
    key, *rest = path
    if isinstance(cert, dict):
        return dict(cert, **{key: _with_entry(cert[key], rest, value)})
    items = list(cert)
    items[key] = _with_entry(items[key], rest, value)
    return tuple(items)


@pytest.mark.parametrize("bound, path", [
    (gl_bound, ("y", 0)),
    (ggl_bound, ("z", 0)),
    (lbb_prime, ("Y", 0, 0)),
    (rlt1, ("w", 0)),
], ids=["gl", "ggl", "lbb_prime", "rlt1"])
def test_verify_report_rejects_a_non_finite_certificate(bound, path):
    # a NaN compares false with everything, so a float check would pass
    # it; read exactly, it has no value and the replay says so
    inst = generate_tournament(5)
    rep = bound(inst, mode="float")
    assert verify_report(inst, rep) == (True, ())
    want = (False, ("certificate has a non-finite value",))
    forged = _with_entry(rep.certificate, path, float("nan"))
    assert verify_report(inst, replace(rep, certificate=forged)) == want
    assert verify_report(inst, replace(rep, value=float("inf"))) == want


def _fraction_replay(inst, rep):
    """verify_report's LP check of a gl, ggl, lbb_prime or rlt1 report as
    it was with a Fraction per entry: oracles' fraction_* checks against
    the member-less lifting LP, the lbb duals built by
    fraction_lbb_duals."""
    lp, _ = bounds._lifting_lp(bounds._bqp(inst))
    tol = 0 if rep.mode == "exact" else lpsolve.FLOAT_CHECK_TOL
    cert, msgs = rep.certificate, []
    try:
        if rep.name == "rlt1":
            msgs += fraction_point_violations(
                lp, (*cert["x"], *cert["w"]), rep.value, tol)
            duals = cert["duals"]
        else:
            duals = fraction_lbb_duals(cert)
        msgs += fraction_dual_violations(lp, duals, rep.value, tol)
    except NonFiniteError:
        msgs.append("certificate has a non-finite value")
    return not msgs, tuple(msgs)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_report_matches_the_fraction_replay(mode):
    # verify_report reads a certificate into integers once and scales
    # 2 Y and -z on the numerators; the replay with a Fraction per entry
    # must give the same verdict and messages on every report and on
    # seeded moves of one entry: to and past FLOAT_CHECK_TOL, by +-1, to
    # 1e308 (2 Y is then past the largest float, yet finite), to NaN
    # and to an infinity
    tol = lpsolve.FLOAT_CHECK_TOL
    past = math.nextafter(float(tol), math.inf)
    num = Fraction if mode == "exact" else float
    moves = [lambda v: num(tol), lambda v: num(-tol),
             lambda v: v + num(past), lambda v: v - num(past),
             lambda v: v + 1, lambda v: v - 1, lambda v: num(10 ** 308)]
    if mode == "float":
        moves += [lambda v: math.nan, lambda v: math.inf]
    rng = random.Random(12)
    messages = Counter()
    for inst in (generate_tournament(5), _random_qspp(rng, m_max=8)):
        for rep in (gl_bound(inst, mode=mode),
                    ggl_bound(inst, SkewStrategy.SYMMETRIZE, mode=mode),
                    lbb_prime(inst, mode=mode), rlt1(inst, mode=mode)):
            assert verify_report(inst, rep) == _fraction_replay(inst, rep) \
                == (True, ())
            keys = ("x", "w", "duals") if rep.name == "rlt1" \
                else ("y", "Y", "z")
            for move in moves:
                for key in keys:
                    path = (key, rng.randrange(len(rep.certificate[key])))
                    if key == "Y":
                        path += (rng.randrange(inst.m),)
                    entry = reduce(getitem, path, rep.certificate)
                    moved = replace(rep, certificate=_with_entry(
                        rep.certificate, path, move(entry)))
                    got = verify_report(inst, moved)
                    assert got == _fraction_replay(inst, moved), (path,)
                    messages.update(got[1] or ("ok",))
    # 2 instances, 4 reports, 3 keys, NaN and an infinity
    assert messages["ok"] and messages["certificate has a non-finite value"] \
        == (48 if mode == "float" else 0)
    assert sum(messages.values()) > 2 * messages["ok"], messages


def test_a_huge_float_in_y_stays_finite():
    # 2 * 1e308 overflows a float; the replay doubles Y's entry after
    # reading it, so the certificate is refuted, not found non-finite
    inst = generate_tournament(5)
    rep = lbb_prime(inst, mode="float")
    moved = replace(rep, certificate=_with_entry(
        rep.certificate, ("Y", 0, 0), 1e308))
    ok, msgs = verify_report(inst, moved)
    assert not ok and msgs == _fraction_replay(inst, moved)[1]
    assert "certificate has a non-finite value" not in msgs


def test_each_instance_is_encoded_once(monkeypatch):
    # a QsppInstance keeps its flow encoding: a bound and its replay,
    # and every later one, read the same BqpInstance, so the lifting
    # LP's caches find it by identity; the binding counted is the one
    # bench/tracing.py wraps
    calls = []
    encode = bounds.qspp_to_bqp

    def counted(inst):
        calls.append(inst)
        return encode(inst)

    monkeypatch.setattr(bounds, "qspp_to_bqp", counted)
    inst = generate_tournament(5)
    rep = rlt1(inst, mode="exact")
    assert verify_report(inst, rep) == (True, ())
    assert calls == [inst]
    assert bounds._bqp(inst) is bounds._bqp(inst)
    for bound in (gl_bound, ggl_bound, lbb_prime, lbb_star):
        assert verify_report(inst, bound(inst, mode="float")) == (True, ())
    assert calls == [inst]
    assert bounds._lifting_lp(bounds._bqp(inst)) is bounds._lifting_lp(
        bounds._bqp(inst))
    # an instance made by replace has its own encoding, and its own value
    doubled = replace(inst, Q=inst.Q.scale(2))
    assert bounds._bqp(doubled) is not bounds._bqp(inst)
    assert bounds._bqp(doubled).Q == doubled.Q
    assert calls == [inst, doubled]
    assert rlt1(doubled, mode="exact").value == 2 * rep.value
    assert rlt1(inst, mode="exact").value == rep.value


def test_verify_report_has_zero_tolerance_on_exact_rlt1():
    # one w, or one dual of a row with a nonzero right-hand side, moved
    # by 3**-150 must not pass as exact
    eps = Fraction(1, 3 ** 150)
    rng = random.Random(6)
    inst = _random_qspp(rng, m_max=8)
    bqp = qspp_to_bqp(inst)
    rep = rlt1(inst, mode="exact")
    assert verify_report(inst, rep)[0]
    cert = rep.certificate
    live = [k for k, v in enumerate(bqp.b) if v]
    for key, ks in (("w", (0, len(cert["w"]) - 1)), ("duals", live)):
        for k in ks:
            for step in (eps, -eps):
                moved = list(cert[key])
                moved[k] += step
                ok, msgs = verify_report(inst, replace(
                    rep, certificate=dict(cert, **{key: tuple(moved)})))
                assert not ok and msgs, (key, k, step)
                # w_00 and the last w, w_{m-1,m-1}, each sit in a row
                # x_j - w_jj = 0
                assert key == "duals" or any("row" in msg for msg in msgs)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_report_rejects_rlt1_pairs_missing_a_live_pair(mode):
    # a zero w dropped with its pair leaves the point's value alone, but
    # the certificate no longer matches the program rlt1 solved
    rng = random.Random(6)
    inst = _random_qspp(rng, m_max=8)
    rep = rlt1(inst, mode=mode)
    cert = dict(rep.certificate)
    forbidden = forbidden_pairs(inst.graph)
    k = next(k for k, (i, j) in enumerate(cert["pairs"])
             if i != j and (i, j) not in forbidden and cert["w"][k] == 0)
    cert["pairs"] = cert["pairs"][:k] + cert["pairs"][k + 1:]
    cert["w"] = cert["w"][:k] + cert["w"][k + 1:]
    ok, msgs = verify_report(inst, replace(rep, certificate=cert))
    assert not ok and any("pairs" in msg for msg in msgs)


def test_auto_mode_switches_to_float_one_past_the_size_limit(monkeypatch):
    rng = random.Random(7)
    inst = _random_qspp(rng, m_max=8)
    assert forbidden_pairs(inst.graph)
    family = list(spanning_set(inst.graph).members) + _diag_units(inst.m)
    runs = {
        "lbb_prime": lambda mode: lbb_prime(inst, mode=mode),
        "rlt1": lambda mode: rlt1(inst, mode=mode),
        "lbb_star": lambda mode: lbb_star(inst, mode=mode),
        "lbb_generic": lambda mode: lbb_generic(inst, family, mode=mode),
    }
    sizes = []
    solve = bounds.solve_lp

    def recording(lp, mode="auto"):
        sizes.append(max(lp.nrows, lp.nvars))
        return solve(lp, mode=mode)

    monkeypatch.setattr(bounds, "solve_lp", recording)
    for name, run in runs.items():
        sizes.clear()
        run("exact")
        (size,) = sizes
        monkeypatch.setattr(lpsolve, "EXACT_SIZE_LIMIT", size)
        assert run("auto").mode == "exact", name
        monkeypatch.setattr(lpsolve, "EXACT_SIZE_LIMIT", size - 1)
        assert run("auto").mode == "float", name


def test_optimum_report_wraps_brute_force():
    rng = random.Random(17)
    inst = _random_qspp(rng, m_max=8)
    rep = optimum_report(inst)
    value, argmin = brute_force_opt(inst)
    assert rep.name == "opt"
    assert rep.value == value
    assert rep.certificate["argmin"] == argmin
    assert not rep.relaxation_only


def test_verify_report_checks_that_opt_attains_its_value():
    # the replay confirms the value is attained at a feasible 0/1 point;
    # that it is the least is the enumeration's claim alone
    inst = generate_tournament(5)
    rep = optimum_report(inst)
    assert (rep.value, rep.certificate["argmin"]) == (
        8, (1, 0, 0, 0, 1, 0, 0, 0, 1, 0))
    assert verify_report(inst, rep) == (True, ())
    assert verify_report(inst, replace(rep, certificate={})) == (
        False, ("certificate lacks argmin",))
    forged = [replace(rep, value=-10 ** 9)] + [
        replace(rep, certificate={"argmin": argmin})
        for argmin in ((1,) * 10, (1, 0, 0), (2,) + (0,) * 9,
                       (1, 0, 0, 0, 1, 0, 0, 0, 1, 1))]
    for bad in forged:
        ok, msgs = verify_report(inst, bad)
        assert not ok and msgs, bad


def test_float_mode_tracks_exact_values():
    rng = random.Random(23)
    for _ in range(3):
        inst = _random_qspp(rng, m_max=8)
        for fn in (gl_bound, lbb_prime, rlt1):
            ex = fn(inst, mode="exact")
            fl = fn(inst, mode="float")
            assert fl.mode == "float"
            rel = abs(float(ex.value) - fl.value) / (1 + abs(float(ex.value)))
            assert rel < 1e-7
            ok, msgs = verify_report(inst, fl)
            assert ok, msgs


def test_float_tagged_instances_refuse_exact_mode():
    g = diamond()
    inst = QsppInstance(g, RationalMatrix.zeros(4, 4), float_tagged=True)
    with pytest.raises(FloatTaggedError):
        gl_bound(inst, mode="exact")
    rep = gl_bound(inst, mode="auto")
    assert rep.mode == "float"


def test_the_environment_does_not_choose_the_mode(monkeypatch):
    # the arithmetic is chosen by mode= alone: a variable that once
    # steered auto mode now changes nothing
    inst = QsppInstance(diamond(), RationalMatrix.zeros(4, 4))
    lp = bounds._polytope_lp(qspp_to_bqp(inst), (ONE,) * inst.m)
    monkeypatch.setenv("QUADLIN_MODE", "float")
    assert gl_bound(inst).mode == "exact"
    assert lpsolve.solve_lp(lp).mode == "exact"
    with pytest.raises(ValueError):
        gl_bound(inst, mode="sometimes")
