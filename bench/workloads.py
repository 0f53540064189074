"""The three workloads: seeded corpus set-up and one checked round each.

Every round drives the package only through its public API, with every
mode pinned (``mode="exact"`` or ``mode="float"``, never ``auto``), and
every instance enters as text through ``cli.parse_instance``.  Entry
points are always looked up as module attributes at call time, so the
tracer's wrappers see the benchmark's own calls.

An operation is one bound plus its replay, one spanning-set build, one
membership query or one linearizability decision.  Each is checked; a
check that fails, or an error the package raises, marks the operation
failed instead of ending the run.  Only NumericalBreakdown and
BoundComputationError count as refusals (failed, not wrong); every other
error, an exact optimum failing its own certificate included, is wrong.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from fractions import Fraction

from quadlin import bounds, cli, lpsolve, model, qspplin

import instances as gen
import oracle

FLOAT_TOL = 1e-6


class Ledger:
    """Attempted, failed and wrong operations, plus a determinism
    signature: one entry per operation with every count and value it
    produced, which must repeat exactly for a fixed seed.

    ``times`` holds each operation's wall time, from the end of the
    operation before it (or the ledger's creation), so that the times of a
    round's operations cover the whole round: parsing and building inputs
    between operations count towards the next operation.  With a
    ``speed.Clock``, ticked at every operation boundary, the times leave
    out the clock's reference samples and ``scaled`` holds the same times
    at the reference speed."""

    def __init__(self, clock=None):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.signature = []
        self.times = {}
        self.scaled = {}
        self.clock = clock
        self._mark = self._now()

    def _now(self):
        if self.clock is None:
            return time.perf_counter(), 0.0
        self.clock.tick()
        return self.clock.raw, self.clock.scaled

    def op(self, label, fn):
        """Run one operation; fn returns (problems, signature entry)."""
        try:
            return self._checked(label, fn)
        finally:
            now = self._now()
            self.times[label] = now[0] - self._mark[0]
            self.scaled[label] = now[1] - self._mark[1]
            self._mark = now

    def _checked(self, label, fn):
        self.attempted += 1
        try:
            problems, sig = fn()
        except (lpsolve.NumericalBreakdown,
                bounds.BoundComputationError) as exc:
            # a refusal, not a wrong answer; any other LpError (a failed
            # exact certificate, above all) falls through as wrong
            self.failed += 1
            self.signature.append((label, "refused", type(exc).__name__))
            print(f"bench: {label}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return None
        except Exception:
            self.failed += 1
            self.wrong += 1
            self.signature.append((label, "error"))
            print(f"bench: {label} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        self.signature.append((label,) + tuple(sig))
        if problems:
            self.failed += 1
            self.wrong += 1
            print(f"bench: {label} failed its checks: "
                  + "; ".join(problems), file=sys.stderr)
        return sig


def _parse(text):
    return cli.parse_instance(text).instance


def _value_key(v):
    return str(v) if isinstance(v, Fraction) else repr(v)


# ---------------------------------------------------------------------------
# ladder_exact

class LadderExact:
    """Full exact ladder on seeded corridor DAGs plus one QAP instance.

    Sizes: DAGS corridor DAGs with ARCS arcs each (random rational Q with
    denominators 1 or 2) and one QAP with n = QAP_N (dense equality
    constraints that are not a network matrix).  The QAP is a seeded
    relabelling of the one that generator seed QAP_BASE gives: random QAPs
    of this size either let ggl-sym stop after about 130 pivots or need
    about 3,000, which made the corpus 12% cheaper on some seeds than on
    others; the base instance needs about 3,000.  Every bound is replayed
    with verify_report, rlt1 must equal lbb_prime bit for bit, and the
    chain is checked against an optimum enumerated here and by
    brute_force_opt.
    """

    DAGS = 3
    ARCS = 10
    QAP_N = 3
    QAP_BASE = 0

    def __init__(self, seed):
        rng = random.Random(seed)
        self.items = []
        for _ in range(self.DAGS):
            g = gen.corridor_dag(rng, (6, 8), self.ARCS)
            q = gen.random_q(rng, self.ARCS)
            opt = oracle.qspp_optimum(q, oracle.st_paths(*g))
            self.items.append(("qspp", gen.qspp_text(*g, q), opt))
        flows, dists = gen.relabel_qap(
            rng, *gen.qap(random.Random(self.QAP_BASE), self.QAP_N))
        self.items.append(("qap", gen.qap_text(flows, dists),
                           oracle.qap_optimum(flows, dists)))

    def texts(self):
        return [text for _, text, _ in self.items]

    def run(self, ledger):
        for k, (kind, text, opt) in enumerate(self.items):
            inst = _parse(text)
            steps = [
                ("gl", lambda: bounds.gl_bound(inst, mode="exact")),
                ("ggl-upper", lambda: bounds.ggl_bound(
                    inst, strategy=bounds.SkewStrategy.UPPER_TRIANGULAR,
                    mode="exact")),
                ("ggl-sym", lambda: bounds.ggl_bound(
                    inst, strategy=bounds.SkewStrategy.SYMMETRIZE,
                    mode="exact")),
                ("lbb_prime", lambda: bounds.lbb_prime(inst, mode="exact")),
                ("rlt1", lambda: bounds.rlt1(inst, mode="exact")),
            ]
            if kind == "qspp":
                steps.append(("lbb_star",
                              lambda: bounds.lbb_star(inst, mode="exact")))
            reports = {}
            for name, compute in steps:
                ledger.op(f"{kind}{k}.{name}",
                          lambda: _bound_op(inst, compute, "exact", reports,
                                            name))
            ledger.op(f"{kind}{k}.chain",
                      lambda: _exact_chain(inst, reports, opt, kind))


def _bound_op(inst, compute, mode, reports, name):
    report = compute()
    problems = []
    if report.mode != mode:
        problems.append(f"ran in {report.mode} mode")
    if mode == "exact" and not isinstance(report.value, Fraction):
        problems.append("exact value is not a Fraction")
    ok, msgs = bounds.verify_report(inst, report)
    if not ok:
        problems.append("replay: " + "; ".join(msgs))
    reports[name] = report
    return problems, (_value_key(report.value), report.pivots)


def _exact_chain(inst, reports, opt, kind):
    problems = []
    if "rlt1" in reports and "lbb_prime" in reports:
        if reports["rlt1"].value != reports["lbb_prime"].value:
            problems.append("rlt1 != lbb_prime")
    if kind == "qspp" and "lbb_star" in reports \
            and not reports["lbb_star"].canonical_family:
        problems.append("lbb_star did not use the spanning set")
    found, _ = model.brute_force_opt(inst)
    if found != opt:
        problems.append(f"brute_force_opt {found} != enumerated {opt}")
    try:
        bounds.verify_chain(list(reports.values()), opt=opt)
    except bounds.ChainViolation as exc:
        problems.append(f"chain: {exc}")
    return problems, (str(opt),)


# ---------------------------------------------------------------------------
# tournament_float

class TournamentFloat:
    """Float ladder on the paper's tournament family.

    Sizes: the canonical tournament of size ANCHOR_N and RELABELLED seeded
    arc relabellings of the tournament of size RELABEL_N, plus that
    tournament's canonical labelling, which the relabelled values are
    compared against.  Relabelling leaves every bound value unchanged and
    changes the pivot path.  Every bound is replayed within float
    tolerance, rlt1 must match lbb_prime and the chain must hold against
    the enumerated optimum.
    """

    ANCHOR_N = 7
    RELABEL_N = 6
    RELABELLED = 2

    def __init__(self, seed):
        rng = random.Random(seed)
        self.items = []
        for n, copies in ((self.ANCHOR_N, 0), (self.RELABEL_N,
                                                self.RELABELLED)):
            tn, arcs, s, t, q = gen.tournament(n)
            opt = oracle.qspp_optimum(q, oracle.st_paths(tn, arcs, s, t))
            self.items.append((f"t{n}", gen.qspp_text(tn, arcs, s, t, q),
                               opt, None))
            for c in range(copies):
                perm = list(range(len(arcs)))
                rng.shuffle(perm)
                rarcs, rq = gen.relabel(arcs, q, perm)
                self.items.append((f"t{n}r{c}",
                                   gen.qspp_text(tn, rarcs, s, t, rq), opt,
                                   f"t{n}"))

    def texts(self):
        return [text for _, text, _, _ in self.items]

    def run(self, ledger):
        values = {}
        for label, text, opt, canonical_of in self.items:
            inst = _parse(text)
            steps = [
                ("gl", lambda: bounds.gl_bound(inst, mode="float")),
                ("ggl-sym", lambda: bounds.ggl_bound(
                    inst, strategy=bounds.SkewStrategy.SYMMETRIZE,
                    mode="float")),
                ("lbb_prime", lambda: bounds.lbb_prime(inst, mode="float")),
                ("rlt1", lambda: bounds.rlt1(inst, mode="float")),
            ]
            reports = {}
            for name, compute in steps:
                ledger.op(f"{label}.{name}",
                          lambda: _bound_op(inst, compute, "float", reports,
                                            name))
            values[label] = {k: r.value for k, r in reports.items()}
            ledger.op(f"{label}.chain",
                      lambda: _float_chain(reports, opt,
                                           values.get(canonical_of)))


def _float_chain(reports, opt, canonical):
    problems = []
    if "rlt1" in reports and "lbb_prime" in reports:
        if abs(reports["rlt1"].value - reports["lbb_prime"].value) \
                > FLOAT_TOL * (1 + abs(reports["rlt1"].value)):
            problems.append("rlt1 and lbb_prime differ")
    try:
        bounds.verify_chain(list(reports.values()), opt=opt, tol=FLOAT_TOL)
    except bounds.ChainViolation as exc:
        problems.append(f"chain: {exc}")
    if canonical is not None:
        for name, report in reports.items():
            ref = canonical.get(name)
            if ref is None or abs(report.value - ref) \
                    > FLOAT_TOL * (1 + abs(ref)):
                problems.append(f"{name} changed under relabelling")
    return problems, (str(opt),)


# ---------------------------------------------------------------------------
# span_decide

class SpanDecide:
    """Linearizability machinery without any LP.

    Sizes: the spanning set of the tournament graph of size SPAN_N (m = 21,
    dimension 405); DECISIONS seeded integer combinations of spanning
    members, and the same matrices with one seeded entry perturbed, each
    decided by linearize_qspp, the first CONTAINS of each kind also
    queried with SpanningSet.contains (a rank test over all members, far
    dearer than a decision); then one seeded series DAG per entry of
    SERIES_BLOCKS, two of its blocks with a chord (m = 8 * blocks + 2: 50
    and 82), each with one accepted sum-matrix cost and one rejected
    perturbation of it.

    Checks never call the code under test: sampled members and accepted
    linearizations are checked on every enumerated path, other verdicts by
    a rank test of the path system (tournament) or by an explicit
    four-path witness (series DAGs).
    """

    SPAN_N = 7
    SAMPLED_MEMBERS = 24
    COMBINED = 4
    DECISIONS = 6
    CONTAINS = 1
    SERIES_BLOCKS = (6, 10)

    def __init__(self, seed):
        rng = random.Random(seed)
        tn, arcs, s, t, q = gen.tournament(self.SPAN_N)
        self.graph = (tn, arcs, s, t)
        self.text = gen.qspp_text(*self.graph, q)
        self.paths = oracle.st_paths(*self.graph)
        self.pick = rng.getrandbits(64)
        self.decide_items = []
        for blocks in self.SERIES_BLOCKS:
            n, arcs, s, t, block_of = gen.block_series(rng, blocks)
            q = gen.sum_matrix(rng, n, arcs)
            i = rng.randrange(len(arcs))
            j = rng.choice([k for k in range(len(arcs))
                            if block_of[k] != block_of[i]])
            bumped = [row[:] for row in q]
            bumped[i][j] += rng.choice((-3, -2, -1, 1, 2, 3))
            graph = (n, arcs, s, t)
            self.decide_items.append((
                gen.qspp_text(*graph, q), gen.qspp_text(*graph, bumped),
                graph, block_of, (i, j), oracle.st_paths(*graph)))

    def texts(self):
        return [self.text] + [t for a, b, *_ in self.decide_items
                              for t in (a, b)]

    def run(self, ledger):
        inst = _parse(self.text)
        paths = self.paths
        rng = random.Random(self.pick)
        built = {}
        ledger.op("t.spanning_set",
                  lambda: _span_op(inst, paths, built, rng))
        ss = built.get("set")
        m = inst.m
        for k in range(self.DECISIONS if ss is not None else 0):
            acc, acc_c = _combination(ss, rng, self.COMBINED, m)
            bumped = [row[:] for row in acc]
            a, b = rng.sample(range(m), 2)
            bumped[a][b] += 1
            for label, qrows, lin in (("combined", acc, acc_c),
                                      ("perturbed", bumped, None)):
                text_q = gen.qspp_text(*self.graph, qrows)
                if k < self.CONTAINS:
                    ledger.op(f"t.contains-{label}{k}",
                              lambda: _contains_op(ss, text_q, qrows, m,
                                                   paths, lin))
                ledger.op(f"t.decide-{label}{k}",
                          lambda: _decide_path_system(text_q, qrows, m,
                                                      paths))
        for k, (acc_text, rej_text, graph, block_of, pair, paths) in \
                enumerate(self.decide_items):
            ledger.op(f"g{k}.decide-accept",
                      lambda: _decide_accept(acc_text, paths))
            ledger.op(f"g{k}.decide-reject",
                      lambda: _decide_reject(rej_text, graph, block_of,
                                             pair))


def _span_op(inst, paths, built, rng):
    ss = qspplin.spanning_set(inst.graph)
    built["set"] = ss
    problems = []
    sample = rng.sample(range(len(ss.members)),
                        min(SpanDecide.SAMPLED_MEMBERS, len(ss.members)))
    for idx in sample:
        q, c = ss.members[idx]
        if not oracle.linearizes(q.to_rows(), c, paths):
            problems.append(f"member {idx} is not linearized by its vector")
            break
    used = sum(1 for q, _ in ss.members if q.is_symmetric())
    return problems, (ss.dimension, len(ss.members), used)


def _combination(ss, rng, count, m):
    """Integer combination of symmetric members with its linearization."""
    sym = [k for k, (q, _) in enumerate(ss.members) if q.is_symmetric()]
    rows = [[Fraction(0)] * m for _ in range(m)]
    c = [Fraction(0)] * m
    for idx in rng.sample(sym, min(count, len(sym))):
        w = rng.choice((-2, -1, 1, 2, 3))
        q, ci = ss.members[idx]
        for a in range(m):
            c[a] += w * ci[a]
            for b in range(m):
                rows[a][b] += w * q.at(a, b)
    return rows, c


def _contains_op(ss, text_q, qrows, m, paths, lin):
    q = _parse(text_q).Q
    verdict = ss.contains(q)
    problems = []
    if lin is not None:
        # accepted by construction; confirm the construction itself
        if not oracle.linearizes(qrows, lin, paths):
            problems.append("constructed combination is not linearizable")
        if not verdict:
            problems.append("combination of members reported outside span")
    elif verdict != oracle.path_system_solvable(qrows, m, paths):
        problems.append("membership disagrees with the path system")
    return problems, (verdict,)


def _decide_path_system(text_q, qrows, m, paths):
    outcome = qspplin.linearize_qspp(_parse(text_q))
    problems = []
    if outcome.linearizable:
        if not oracle.linearizes(qrows, outcome.linearization, paths):
            problems.append("accepted vector misses some path cost")
    elif oracle.path_system_solvable(qrows, m, paths):
        problems.append("rejected a linearizable cost")
    return problems, (outcome.linearizable,
                      tuple(map(str, outcome.linearization or ())))


def _decide_accept(text, paths):
    inst = _parse(text)
    outcome = qspplin.linearize_qspp(inst)
    problems = []
    if not outcome.linearizable:
        problems.append("rejected a sum matrix")
    elif not oracle.linearizes(inst.Q.to_rows(), outcome.linearization,
                               paths):
        problems.append("accepted vector misses some path cost")
    return problems, (outcome.linearizable,
                      tuple(map(str, outcome.linearization or ())))


def _decide_reject(text, graph, block_of, pair):
    inst = _parse(text)
    outcome = qspplin.linearize_qspp(inst)
    problems = []
    if outcome.linearizable:
        problems.append("accepted a perturbed sum matrix")
    elif not oracle.switch_witness(*graph, block_of, inst.Q.to_rows(),
                                   *pair):
        problems.append("no four-path witness confirms the rejection")
    return problems, (outcome.linearizable,)


# Default seeds.  Seed 9001 is held out on every workload: keep it for
# checking a claimed gain on inputs the change was not tuned on.
DEFAULT_SEEDS = {"ladder_exact": 1, "tournament_float": 1, "span_decide": 1}

WORKLOADS = {
    "ladder_exact": LadderExact,
    "tournament_float": TournamentFloat,
    "span_decide": SpanDecide,
}

# a tiny exact and float LP, solved during set-up so that lazily loaded
# code paths are warm before the first timed round
WARMUP_LP = lpsolve.linear_program(
    "min", (1, 2), (((1, 1), lpsolve.GE, 1),))
