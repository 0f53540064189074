"""Bound ladder: ordering, duality equality, certificates, invariances."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from quadlin import bounds, lpsolve
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
from quadlin.exactnum import RationalMatrix, ZERO, ONE
from quadlin.graph import forbidden_pairs
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
    rand_rows,
    rand_symmetric_rows,
    random_corridor_dag,
)
from oracles import linearization_violations


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


def test_ggl_trace_is_nondecreasing():
    rng = random.Random(9)
    for strategy in SkewStrategy:
        inst = _random_qspp(rng)
        rep = ggl_bound(inst, strategy=strategy, mode="exact")
        assert rep.value == rep.trace[-1]
        for a, b in zip(rep.trace, rep.trace[1:]):
            assert a <= b
        # the loop stops right after a round with zero fitted linear part
        last = rep.certificate["iterations"][-1]["cbar"]
        if len(rep.trace) < 50:
            assert all(v == 0 for v in last)


def test_ggl_strategies_all_bound_the_optimum():
    rng = random.Random(31)
    inst = _random_qspp(rng)
    opt, _ = brute_force_opt(inst)
    for strategy in SkewStrategy:
        rep = ggl_bound(inst, strategy=strategy, mode="exact")
        assert rep.value <= opt
        ok, msgs = verify_report(inst, rep)
        assert ok, msgs
        assert rep.certificate["strategy"] == strategy.value


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


@pytest.mark.parametrize("inst, pins", [
    (_pinned_corridor, {
        "gl": ("-35/2", 70),
        "ggl-upper": ("-14", 164),
        "ggl-sym": ("-6192449487634435/1125899906842624", 2472)}),
    (_pinned_qap, {
        "gl": ("33", 85),
        "ggl-upper": ("33", 205),
        "ggl-sym": ("19140298416324607/562949953421312", 2780)}),
], ids=["corridor", "qap"])
def test_gl_and_ggl_values_and_pivot_counts_are_pinned(inst, pins):
    # exact values and pivot counts of the column-fitting bounds; a change
    # that moves a pivot path or a fitted value shows here
    inst = inst()
    reports = {
        "gl": gl_bound(inst, mode="exact"),
        "ggl-upper": ggl_bound(
            inst, strategy=SkewStrategy.UPPER_TRIANGULAR, mode="exact"),
        "ggl-sym": ggl_bound(
            inst, strategy=SkewStrategy.SYMMETRIZE, mode="exact"),
    }
    assert {name: (str(rep.value), rep.pivots)
            for name, rep in reports.items()} == pins


def test_fitted_matrix_matches_a_fraction_sum():
    # B with denominators 1, 2, 3 and 7; ycols exact with their own
    # denominators, or floats as a float-mode certificate carries them
    rng = random.Random(5)
    n, m = 3, 5
    B = RationalMatrix.from_rows(
        [[Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 7)))
          for _ in range(m)] for _ in range(n)])
    bqp = BqpInstance(B=B, b=(ONE,) * n, Q=RationalMatrix.zeros(m, m))
    exact = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12))
              for _ in range(n)] for _ in range(m)]
    floats = [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(m)]
    for ycols, zbar in ((exact, [Fraction(k, 5) for k in range(m)]),
                        (floats, [0.25 * k - 0.6 for k in range(m)])):
        want = [[sum((B.at(r, i) * Fraction(ycols[k][r]) for r in range(n)),
                     Fraction(0))
                 + (Fraction(zbar[k]) if i == k else 0)
                 for k in range(m)] for i in range(m)]
        assert bounds._fitted_matrix(bqp, ycols, zbar).to_rows() == want


def test_rlt1_and_lbb_prime_share_one_solve_per_sparsity(monkeypatch):
    calls = []

    def counting(lp, mode="auto"):
        calls.append(lp)
        return lpsolve.solve_lp(lp, mode=mode)

    monkeypatch.setattr(bounds, "solve_lp", counting)
    monkeypatch.setattr(bounds, "_last_lifted", {})
    inst = _random_qspp(random.Random(77), m_max=9)
    pairs = forbidden_pairs(inst.graph)
    assert pairs
    a = lbb_prime(inst, sparsity=pairs, mode="exact")
    b = rlt1(inst, sparsity=pairs, mode="exact")
    assert len(calls) == 1 and a.value == b.value and a.pivots == b.pivots
    calls.clear()
    lbb_prime(inst, mode="exact")
    rlt1(inst, sparsity=pairs, mode="exact")
    assert len(calls) == 2


def test_ggl_rejects_nonpositive_iteration_budget():
    inst = QsppInstance(diamond(), RationalMatrix.zeros(4, 4))
    with pytest.raises(ValueError):
        ggl_bound(inst, max_iter=0)


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
    rng = random.Random(77)
    seen_nontrivial = 0
    for _ in range(6):
        inst = _random_qspp(rng, m_max=9)
        pairs = forbidden_pairs(inst.graph)
        if pairs:
            seen_nontrivial += 1
        full_p = lbb_prime(inst, mode="exact")
        full_r = rlt1(inst, mode="exact")
        sp_p = lbb_prime(inst, sparsity=pairs, mode="exact")
        sp_r = rlt1(inst, sparsity=pairs, mode="exact")
        opt, _ = brute_force_opt(inst)
        assert sp_p.value == sp_r.value
        # dropping genuinely-forbidden pairs can only tighten, never break
        assert full_p.value <= sp_p.value <= opt
        ok, msgs = verify_report(inst, sp_p)
        assert ok, msgs
        ok, msgs = verify_report(inst, sp_r)
        assert ok, msgs
    assert seen_nontrivial >= 3


def test_sparsity_rejects_bad_pairs():
    inst = QsppInstance(diamond(), RationalMatrix.zeros(4, 4))
    with pytest.raises(ValueError):
        lbb_prime(inst, sparsity=[(1, 1)])
    with pytest.raises(ValueError):
        rlt1(inst, sparsity=[(0, 99)])


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_sparsity_must_be_structural_zeros(mode):
    # arcs 0 and 2 lie on the optimal path; dropping their domination row
    # lifts lbb_prime and rlt1 to 5 against an optimum of 1/2
    inst = _random_qspp(random.Random(6), m_max=8)
    forbidden = forbidden_pairs(inst.graph)
    assert (0, 2) not in forbidden
    pairs = forbidden | {(0, 2)}
    opt, _ = brute_force_opt(inst)
    bqp = qspp_to_bqp(inst)
    raw = BqpInstance(B=bqp.B, b=bqp.b, Q=bqp.Q, integral_polytope=True)
    for bound in (lbb_prime, rlt1):
        with pytest.raises(ValueError):
            bound(inst, sparsity=pairs, mode=mode)
        # without a structure nothing checks the pairs, so replay must
        # refuse them against either instance
        forged = bound(raw, sparsity=pairs, mode=mode)
        assert forged.value > opt
        for target in (inst, raw):
            ok, msgs = verify_report(target, forged)
            assert not ok and msgs, (bound.__name__, target)


def test_structural_sparsity_of_qap_is_row_and_column_pairs():
    inst = qap_to_bqp([[0, 2, 1], [2, 0, 3], [1, 3, 0]],
                      [[0, 1, 4], [1, 0, 2], [4, 2, 0]])
    pairs = bounds._structural_sparsity(inst)
    # x[i*3 + j]: facility i at location j; 3 rows and 3 columns of 3
    # cells give 18 pairs that no permutation sets both
    assert len(pairs) == 18
    assert (0, 1) in pairs and (0, 3) in pairs and (0, 4) not in pairs
    opt, _ = brute_force_opt(inst)
    for bound in (lbb_prime, rlt1):
        rep = bound(inst, sparsity=pairs, mode="exact")
        assert rep.value <= opt
        ok, msgs = verify_report(inst, rep)
        assert ok, msgs
    with pytest.raises(ValueError):
        bounds._structural_sparsity(BqpInstance(B=inst.B, b=inst.b,
                                                Q=inst.Q))


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


def test_lbb_star_dominates_lbb_prime_on_corridors():
    rng = random.Random(13)
    for _ in range(6):
        inst = _random_qspp(rng, m_max=9)
        prime = lbb_prime(inst, mode="exact")
        star = lbb_star(inst, mode="exact")
        assert star.canonical_family
        assert star.value >= prime.value
        ok, msgs = verify_report(inst, star)
        assert ok, msgs


def test_lbb_star_with_empty_family_is_lbb_prime():
    rng = random.Random(29)
    inst = _random_qspp(rng, m_max=8)
    collapsed = lbb_star(inst, family=(), mode="exact")
    assert not collapsed.canonical_family
    assert collapsed.value == lbb_prime(inst, mode="exact").value


def test_lbb_star_recognizes_a_spanning_set_argument():
    rng = random.Random(41)
    inst = _random_qspp(rng, m_max=7)
    span = spanning_set(inst.graph)
    explicit = lbb_star(inst, family=span, mode="exact")
    derived = lbb_star(inst, mode="exact")
    assert explicit.canonical_family
    assert explicit.value == derived.value


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

    # a family that spans the shifted skew direction absorbs it instead
    full = list(spanning_set(g).members) + _diag_units(m)
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

    gl = gl_bound(inst, mode="exact")
    cert = dict(gl.certificate)
    cb = list(cert["cbar"])
    cb[0] += 1
    cert["cbar"] = tuple(cb)
    ok, msgs = verify_report(inst, BoundReport(
        name="gl", value=gl.value, mode="exact",
        relaxation_only=gl.relaxation_only, certificate=cert))
    assert not ok


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


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_report_rejects_a_member_with_a_raised_lower_entry(mode):
    # a forged member that only differs below the diagonal must not slip
    # past a check of the unordered pairs
    rng = random.Random(6)
    inst = _random_qspp(rng, m_max=8)
    m = inst.m
    family = list(spanning_set(inst.graph).members) + _diag_units(m)
    for rep in (lbb_star(inst, mode=mode),
                lbb_generic(inst, family, mode=mode)):
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
    # only lbb_prime takes a sparsity set; a family report that names one
    # must not get the domination row of a forged pair skipped
    rng = random.Random(6)
    inst = _random_qspp(rng, m_max=8)
    m = inst.m
    forbidden = forbidden_pairs(inst.graph)
    i, j = next((i, j) for i in range(m) for j in range(i + 1, m)
                if (i, j) not in forbidden)
    family = list(spanning_set(inst.graph).members) + _diag_units(m)
    for rep in (lbb_star(inst, mode=mode),
                lbb_generic(inst, family, mode=mode)):
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
        forged = replace(rep, certificate=cert, sparsity=((i, j),))
        ok, msgs = verify_report(inst, forged)
        assert not ok and msgs, rep.name


def _forge_a_dual(rep, lp):
    """The duals with one row of right-hand side 0 raised until one
    column's A^T y exceeds its cost by 1; b.y and the value are kept."""
    y = list(rep.certificate["duals"])
    k, j = next((k, j) for k, (coeffs, _, rhs) in enumerate(lp.rows)
                if rhs == 0 for j, a in enumerate(coeffs) if a != 0)
    col = sum(row[j] * Fraction(v) for (row, _, _), v in zip(lp.rows, y))
    step = (lp.objective[j] + 1 - col) / lp.rows[k][0][j]
    y[k] += float(step) if rep.mode == "float" else step
    return tuple(y)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_report_rejects_forged_duals(mode):
    rng = random.Random(6)
    inst = _random_qspp(rng, m_max=8)
    bqp = qspp_to_bqp(inst)
    gl = gl_bound(inst, mode=mode)
    ggl = ggl_bound(inst, strategy=SkewStrategy.UPPER_TRIANGULAR, mode=mode)
    lifted = rlt1(inst, mode=mode)
    for rep, lp in (
            (gl, bounds._polytope_lp(bqp, [
                bounds.rat_from(c) + l
                for c, l in zip(gl.certificate["cbar"], bqp.linear)])),
            (ggl, bounds._polytope_lp(bqp, [
                c + l for c, l in zip(ggl.certificate["c_total"],
                                      bqp.linear)])),
            (lifted, bounds._rlt1_lp(bqp, None)[0])):
        assert verify_report(inst, rep)[0], rep.name
        cert = dict(rep.certificate, duals=_forge_a_dual(rep, lp))
        ok, msgs = verify_report(inst, replace(rep, certificate=cert))
        assert not ok and any("column" in msg for msg in msgs), rep.name


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_report_rejects_malformed_fitting_certificates(mode):
    # a short or missing entry is a rejection with a message, not a crash
    rng = random.Random(6)
    inst = _random_qspp(rng, m_max=8)
    gl = gl_bound(inst, mode=mode)
    ggl = ggl_bound(inst, strategy=SkewStrategy.UPPER_TRIANGULAR, mode=mode)
    rounds = [dict(step) for step in ggl.certificate["iterations"]]
    forged = []
    for key in ("ybar_columns", "zbar", "cbar"):
        cert = dict(gl.certificate)
        cert[key] = cert[key][:-1]
        forged.append((gl, cert))
        step = dict(rounds[-1], **{key: rounds[-1][key][:-1]})
        forged.append((ggl, dict(ggl.certificate,
                                 iterations=tuple(rounds[:-1] + [step]))))
        missing = dict(gl.certificate)
        del missing[key]
        forged.append((gl, missing))
    ycols = gl.certificate["ybar_columns"]
    forged.append((gl, dict(gl.certificate, ybar_columns=(
        ycols[:-1] + (ycols[-1][:-1],)))))
    forged.append((ggl, dict(ggl.certificate, iterations=())))
    forged.append((ggl, dict(ggl.certificate, strategy="sideways")))
    for rep, cert in forged:
        ok, msgs = verify_report(inst, replace(rep, certificate=cert))
        assert not ok and msgs, (rep.name, cert.keys())


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
    pairs = forbidden_pairs(inst.graph)
    assert pairs
    family = list(spanning_set(inst.graph).members) + _diag_units(inst.m)
    runs = {
        "lbb_prime": lambda mode: lbb_prime(inst, mode=mode),
        "sparse lbb_prime": lambda mode: lbb_prime(inst, sparsity=pairs,
                                                   mode=mode),
        "lbb_star": lambda mode: lbb_star(inst, mode=mode),
        "lbb_generic": lambda mode: lbb_generic(inst, family, mode=mode),
    }
    monkeypatch.delenv("QUADLIN_MODE", raising=False)
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


def test_mode_env_variable_steers_auto(monkeypatch):
    g = diamond()
    inst = QsppInstance(g, RationalMatrix.zeros(4, 4))
    monkeypatch.setenv("QUADLIN_MODE", "float")
    assert gl_bound(inst, mode="auto").mode == "float"
    monkeypatch.setenv("QUADLIN_MODE", "exact")
    assert gl_bound(inst, mode="auto").mode == "exact"
    monkeypatch.setenv("QUADLIN_MODE", "sometimes")
    with pytest.raises(ValueError):
        gl_bound(inst, mode="auto")
    monkeypatch.delenv("QUADLIN_MODE")
    assert gl_bound(inst, mode="auto").mode == "exact"
    # explicit argument beats the environment
    monkeypatch.setenv("QUADLIN_MODE", "float")
    assert gl_bound(inst, mode="exact").mode == "exact"
