"""Seeded instance generators, written without the package.

Everything here produces plain data (vertex counts, arc lists, matrices of
Fractions) and the instance-file text the package reads; the package only
ever sees that text, through ``cli.parse_instance``.
"""

from __future__ import annotations

import random
from fractions import Fraction

F = Fraction


def _reach(arcs, s, t):
    """(vertices reachable from s, vertices reaching t) for arcs that go
    from a lower to a higher vertex number."""
    fwd = {s}
    for u, v in sorted(arcs):
        if u in fwd:
            fwd.add(v)
    back = {t}
    for u, v in sorted(arcs, reverse=True):
        if v in back:
            back.add(u)
    return fwd, back


def _corridor(n, arcs, s, t):
    """Keep the arcs on some s-t path; renumber vertices in order."""
    fwd, back = _reach(arcs, s, t)
    keep = [(u, v) for u, v in arcs if u in fwd and v in back]
    verts = sorted({s, t} | {x for a in keep for x in a})
    ren = {x: k for k, x in enumerate(verts)}
    return len(verts), [(ren[u], ren[v]) for u, v in keep], ren[s], ren[t]


def corridor_dag(rng: random.Random, n_range, m: int):
    """Random corridor DAG with n in n_range (inclusive) and exactly m arcs.

    A random backbone path guarantees a source-target path; each other
    forward arc appears with probability 0.45.  Arc labels are shuffled, so no
    consumer can rely on arcs being sorted by endpoint.
    """
    while True:
        n = rng.randint(*n_range)
        arcset = set()
        v = 0
        while v != n - 1:
            w = rng.randint(v + 1, n - 1)
            arcset.add((v, w))
            v = w
        for i in range(n - 1):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    arcset.add((i, j))
        arcs = sorted(arcset)
        rng.shuffle(arcs)
        cn, carcs, s, t = _corridor(n, arcs, 0, n - 1)
        if cn == n and len(carcs) == m:
            return cn, carcs, s, t


def random_q(rng: random.Random, m: int):
    """Half-dense rational interaction matrix: entries -3..3 over a
    denominator of 1 or 2."""
    return [[F(rng.randint(-3, 3), rng.choice((1, 1, 2)))
             if rng.random() < 0.5 else F(0) for _ in range(m)]
            for _ in range(m)]


def tournament(n: int):
    """The paper's tournament family: complete DAG on n vertices, arcs in
    lexicographic order, interaction (j - i)^2 between arcs of equal span
    (each arc with itself included)."""
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    spans = [j - i for i, j in arcs]
    q = [[F(se * se) if sf == se else F(0) for sf in spans] for se in spans]
    return n, arcs, 0, n - 1, q


def relabel(arcs, q, perm):
    """Arc with old label k gets label perm[k]; q follows the arcs."""
    m = len(arcs)
    inv = [0] * m
    for old, new in enumerate(perm):
        inv[new] = old
    return ([arcs[inv[k]] for k in range(m)],
            [[q[inv[i]][inv[j]] for j in range(m)] for i in range(m)])


def block_series(rng: random.Random, blocks: int):
    """Series composition of random blocks with 2^(blocks - 2) * 3^2
    source-target paths.

    Each block is two arc-disjoint 4-arc routes between its entry and exit
    vertex; two of the blocks, chosen at random, also get one arc
    from the first route's interior to the second's.  Any arc of a block is
    avoided by one of its routes, so an arc of one block and an arc of
    another can always be switched on and off independently -- the
    property the rejection witnesses rely on.  Returns (n, arcs, s, t,
    block_of) where block_of[k] is the block of arc k; arc labels are
    shuffled.
    """
    with_chord = set(rng.sample(range(blocks), 2))
    arcs = []
    block_of = []
    base = 0
    for b in range(blocks):
        top = base + 7
        first = list(range(base, base + 4)) + [top]
        second = [base] + list(range(base + 4, top + 1))
        local = list(zip(first, first[1:])) + list(zip(second, second[1:]))
        if b in with_chord:
            local.append((rng.choice(first[1:-1]), rng.choice(second[1:-1])))
        arcs += local
        block_of += [b] * len(local)
        base = top
    order = list(range(len(arcs)))
    rng.shuffle(order)
    return (base + 1, [arcs[k] for k in order], 0, base,
            [block_of[k] for k in order])


def sum_matrix(rng: random.Random, n, arcs):
    """Linearizable by construction: Q = B^T Y + Y^T B + Diag(z).

    With B the flow-conservation matrix (Bx = e_s - e_t on every path x),
    x^T B^T Y x = (Bx)^T (Y x) is linear in x, so c = 2 Y^T b + z
    reproduces x^T Q x on every path.  Y and z have entries -3..3.
    """
    m = len(arcs)
    bmat = [[0] * m for _ in range(n)]
    for k, (u, v) in enumerate(arcs):
        bmat[u][k] += 1
        bmat[v][k] -= 1
    y = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
    z = [rng.randint(-3, 3) for _ in range(m)]
    q = [[F(sum(bmat[r][i] * y[r][j] + y[r][i] * bmat[r][j]
                for r in range(n)) + (z[i] if i == j else 0))
          for j in range(m)] for i in range(m)]
    return q


def qap(rng: random.Random, n: int):
    """Flow and distance matrices with zero diagonal, entries 0..4."""
    def offdiag():
        return [[F(rng.randint(0, 4)) if i != j else F(0) for j in range(n)]
                for i in range(n)]
    return offdiag(), offdiag()


def relabel_qap(rng: random.Random, flows, dists):
    """The same QAP with facilities and locations renumbered at random;
    its optimum and every bound stay the same."""
    n = len(flows)
    fac = rng.sample(range(n), n)
    loc = rng.sample(range(n), n)
    return ([[flows[fac[i]][fac[j]] for j in range(n)] for i in range(n)],
            [[dists[loc[i]][loc[j]] for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# instance-file text (the format cli.parse_instance reads; 1-based indices)

def qspp_text(n, arcs, s, t, q) -> str:
    out = ["qspp", f"{n} {len(arcs)}", f"{s + 1} {t + 1}"]
    out += [f"{u + 1} {v + 1}" for u, v in arcs]
    entries = [f"{i + 1} {j + 1} {v}" for i, row in enumerate(q)
               for j, v in enumerate(row) if v != 0]
    out.append(str(len(entries)))
    out += entries
    return "\n".join(out) + "\n"


def qap_text(flows, dists) -> str:
    out = ["qap", str(len(flows))]
    out += [" ".join(str(v) for v in row) for row in flows]
    out += [" ".join(str(v) for v in row) for row in dists]
    return "\n".join(out) + "\n"
