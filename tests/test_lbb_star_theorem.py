"""Canonical lbb_star on a corridor DAG is lbb_prime, proved on every
small graph.

The lemma behind it (see bounds.lbb_star): the equality rows of the
member-less lifting LP, right-hand sides included (bounds._lifting_lp),
cut out exactly the affine hull of the lifted path points
p(x) = (x, x_i x_j on the LP's pairs).  Every lifted path point solves
those rows, so the lemma holds exactly when

    rank [A, b] + rank {(p(x), 1) : x an s-t path} = columns + 1.

Then the row of any linearizable (Q_t, c_t), which vanishes at every
(p(x), 1), is a combination of the LP's rows: lbb_star over the graph's
whole linearizable family is lbb_prime.  Each graph of the sweep is
checked three ways: the rank equality; the consequence itself, that
bounds._unimplied_members finds no spanning member live; and that the
lifting LP leaves out exactly the arc pairs on no common s-t path
(graph.forbidden_pairs against oracles.structural_zeros, which
enumerates the paths).  A failure names the graph, and the live member
when there is one.
"""

import itertools

import pytest

from quadlin import bounds
from quadlin.exactnum import RationalMatrix, common_denominator, int_echelon
from quadlin.graph import Dag, enumerate_st_paths, forbidden_pairs, is_corridor
from quadlin.model import QsppInstance, qspp_to_bqp
from quadlin.qspplin import spanning_set

from oracles import structural_zeros


def _corridor_dags(max_vertices, max_parallel):
    """Every corridor DAG on 2..max_vertices vertices numbered in
    topological order, source 0 and target the last vertex, with up to
    max_parallel arcs from each vertex to each later one, arcs labelled
    by (tail, head)."""
    for n in range(2, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for counts in itertools.product(range(max_parallel + 1),
                                        repeat=len(slots)):
            g = Dag(n, [arc for arc, k in zip(slots, counts)
                        for _ in range(k)], 0, n - 1)
            if is_corridor(g):
                yield g


def _rank(rows) -> int:
    return len(int_echelon(common_denominator(row)[0] for row in rows))


@pytest.mark.parametrize("max_vertices, max_parallel, graphs", [
    (5, 1, 135),
    (4, 2, 278),
], ids=["simple-5", "parallel-4"])
def test_canonical_lbb_star_is_lbb_prime_on_every_small_corridor(
        max_vertices, max_parallel, graphs):
    swept = 0
    for g in _corridor_dags(max_vertices, max_parallel):
        swept += 1
        bqp = qspp_to_bqp(QsppInstance(g, RationalMatrix.zeros(g.m, g.m)))
        lp, pairs = bounds._lifting_lp(bqp)
        system = _rank(list(coeffs) + [rhs] for coeffs, _, rhs in lp.rows)
        points = []
        for path in enumerate_st_paths(g):
            x = path.incidence(g.m)
            points.append(list(x) + [x[i] * x[j] for i, j in pairs] + [1])
        hull = _rank(points)
        assert system + hull == lp.nvars + 1, (
            f"lemma fails on arcs {g.arcs}: rank of the LP's rows {system}, "
            f"of the lifted path points {hull}, columns {lp.nvars}")
        members = spanning_set(g).members
        live = bounds._unimplied_members(bqp, members)
        assert not live, (
            f"live canonical member on arcs {g.arcs}: "
            f"{[(members[t][0].to_rows(), members[t][1]) for t in live]}")
        assert forbidden_pairs(g) == {
            (i, j) for i, j in structural_zeros(bqp) if i < j}, g.arcs
    assert swept == graphs
