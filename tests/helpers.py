"""Shared instance builders for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from quadlin.exactnum import RationalMatrix, null_space_basis
from quadlin.graph import Dag, count_st_paths, prune_to_corridor
from quadlin.model import (
    BqpInstance,
    LinearizableFamily,
    enumerate_feasible,
    qap_to_bqp,
)


def diamond() -> Dag:
    return Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)


def double_diamond() -> Dag:
    return Dag(7, [(0, 1), (0, 2), (1, 3), (2, 3),
                   (3, 4), (3, 5), (4, 6), (5, 6)], 0, 6)


def chain(k: int) -> Dag:
    """Single path with k arcs."""
    return Dag(k + 1, [(i, i + 1) for i in range(k)], 0, k)


def diamond_chain(k: int) -> Dag:
    """k diamonds in series: 2**k paths."""
    arcs = []
    base = 0
    for _ in range(k):
        arcs += [(base, base + 1), (base, base + 2),
                 (base + 1, base + 3), (base + 2, base + 3)]
        base += 3
    return Dag(3 * k + 1, arcs, 0, 3 * k)


def random_corridor_dag(rng: random.Random, n_min=3, n_max=8, m_max=16,
                        density=0.45, require_overdetermined=False) -> Dag:
    """Random corridor DAG (every vertex/arc on a source-target path).

    Arc labels are shuffled so nothing accidentally relies on arcs being
    sorted by endpoint.  With ``require_overdetermined`` the graph has more
    source-target paths than basic arcs.
    """
    while True:
        n = rng.randint(n_min, n_max)
        arcset = set()
        v = 0
        while v != n - 1:
            w = rng.randint(v + 1, n - 1)
            arcset.add((v, w))
            v = w
        for i in range(n - 1):
            for j in range(i + 1, n):
                if rng.random() < density:
                    arcset.add((i, j))
        arcs = sorted(arcset)
        rng.shuffle(arcs)
        try:
            g = Dag(n, arcs, 0, n - 1)
        except ValueError:
            continue
        c = prune_to_corridor(g, n - 1)
        if not (1 <= c.m <= m_max and c.n >= n_min):
            continue
        if require_overdetermined:
            if count_st_paths(c) <= c.m - c.n + 2:
                continue
        return c


def rand_rational(rng: random.Random, span=5, denoms=(1, 1, 2)) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(denoms))


def rand_symmetric_rows(rng: random.Random, m: int, zero_diag=True, **kw):
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        if not zero_diag:
            rows[i][i] = rand_rational(rng, **kw)
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = rand_rational(rng, **kw)
    return rows


def rand_rows(rng: random.Random, r: int, c: int, **kw):
    return [[rand_rational(rng, **kw) for _ in range(c)] for _ in range(r)]


def qap_instance(rng: random.Random, n: int) -> BqpInstance:
    """QAP with flows and distances drawn from 0..4, zero diagonals."""
    def offdiag():
        return RationalMatrix.from_rows(
            [[Fraction(rng.randint(0, 4)) if i != j else Fraction(0)
              for j in range(n)] for i in range(n)])
    return qap_to_bqp(offdiag(), offdiag())


def generator_family(rng: random.Random, inst: BqpInstance, count=3):
    """count symmetrized generator members B^T Y + Y^T B + Diag(z), with
    Y and z drawn from -2..2."""
    gens = []
    for _ in range(count):
        y = [[Fraction(rng.randint(-2, 2)) for _ in range(inst.m)]
             for _ in range(inst.B.rows)]
        z = [Fraction(rng.randint(-2, 2)) for _ in range(inst.m)]
        gens.append((y, z))
    return LinearizableFamily.from_generators(inst, gens, symmetrize=True)


def generic_bqp(rng: random.Random) -> BqpInstance:
    """A raw BQP: m = 5..7, two rows of B from 0..2, b from a random
    binary point, Q from -5..5."""
    m = rng.randint(5, 7)
    B = [[rng.randint(0, 2) for _ in range(m)] for _ in range(2)]
    x0 = [rng.randint(0, 1) for _ in range(m)]
    return BqpInstance(
        B=RationalMatrix.from_rows(B),
        b=tuple(sum(a * x for a, x in zip(row, x0)) for row in B),
        Q=RationalMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(m)] for _ in range(m)]))


def enumerated_family(inst: BqpInstance) -> LinearizableFamily:
    """Every linearizable direction of a BQP, from its feasible set.

    (A, c) with A symmetric and zero-diagonal is linearizable iff
    sum_{i<j} 2 A_ij x_i x_j - c . x == 0 on every feasible x, so a
    null-space basis of those rows spans all such pairs; with the
    diagonal (x_i^2 == x_i) and the skew matrices, which lbb_star covers
    by itself, that is the paper's full set of linearizable matrices.
    """
    m = inst.m
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    rows = [[Fraction(2 * x[i] * x[j]) for i, j in pairs]
            + [Fraction(-v) for v in x] for x in enumerate_feasible(inst)]
    members = []
    for vec in null_space_basis(RationalMatrix.from_rows(rows)):
        q = [[Fraction(0)] * m for _ in range(m)]
        for (i, j), v in zip(pairs, vec):
            q[i][j] = q[j][i] = v
        members.append((RationalMatrix.from_rows(q), vec[len(pairs):]))
    return LinearizableFamily.verified(inst, members)


def python_int_fractions(res) -> bool:
    """Is every value, x and dual of an exact LpResult a Fraction whose
    numerator and denominator are Python ints, never numpy integers?"""
    values = [res.value, *(res.x or ()), *(res.duals or ())]
    return all(type(v) is Fraction and type(v.numerator) is int
               and type(v.denominator) is int
               for v in values if v is not None)
