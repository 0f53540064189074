"""Independent checks of the package's answers.

Written from first principles -- path enumeration, Gaussian elimination
over Fractions, explicit four-path witnesses -- so that no check calls the
code it is checking.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations


def st_paths(n, arcs, s, t):
    """Every source-target path as a tuple of arc labels."""
    out_arcs = [[] for _ in range(n)]
    for k, (u, _) in enumerate(arcs):
        out_arcs[u].append(k)
    paths = []
    stack = [(s, ())]
    while stack:
        v, labels = stack.pop()
        if v == t:
            paths.append(labels)
            continue
        for k in out_arcs[v]:
            stack.append((arcs[k][1], labels + (k,)))
    return paths


def integral(rows):
    """The matrix with integral Fractions as ints, which sum much faster."""
    return [[int(v) if Fraction(v).denominator == 1 else v for v in row]
            for row in rows]


def path_value(q, path):
    """x^T Q x for the incidence vector of the path."""
    return sum(q[a][b] for a in path for b in path)


def linearizes(q, c, paths) -> bool:
    """c . x == x^T Q x on every listed path."""
    q = integral(q)
    c = integral([c])[0]
    return all(sum(c[a] for a in p) == path_value(q, p) for p in paths)


def qspp_optimum(q, paths) -> Fraction:
    return min(path_value(q, p) for p in paths)


def qap_optimum(flows, dists) -> Fraction:
    """min over permutations p of sum_ij a_ij d_p(i)p(j)."""
    n = len(flows)
    return min(sum(flows[i][j] * dists[p[i]][p[j]]
                   for i in range(n) for j in range(n))
               for p in permutations(range(n)))


def _rank(rows) -> int:
    a = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            if a[i][col]:
                f = a[i][col] / a[rank][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def path_system_solvable(q, m, paths) -> bool:
    """Does some c satisfy c . x == x^T Q x on every path?  Rank test of
    the path incidence system against its augmented matrix."""
    q = integral(q)
    rows = [[1 if k in p else 0 for k in range(m)] for p in paths]
    aug = [r + [path_value(q, p)] for r, p in zip(rows, paths)]
    return _rank(rows) == _rank(aug)


def switch_witness(n, arcs, s, t, block_of, q, i, j) -> bool:
    """Certify that Q is not linearizable with four paths.

    Arcs i and j sit in different blocks of a series composition.  P1 uses
    both, P2 neither, P3 only i, P4 only j, and all four agree everywhere
    else, so x1 + x2 == x3 + x4 and any linear cost gives
    c.x1 + c.x2 == c.x3 + c.x4.  Unequal quadratic sums refute every c.
    """
    q = integral(q)
    bi, bj = block_of[i], block_of[j]
    if bi == bj:
        raise ValueError("witness arcs must sit in different blocks")
    routes = {}
    for b in set(block_of):
        labels = [k for k in range(len(arcs)) if block_of[k] == b]
        lo = min(arcs[k][0] for k in labels)
        hi = max(arcs[k][1] for k in labels)
        sub = [arcs[k] for k in labels]
        routes[b] = [tuple(labels[k] for k in p)
                     for p in st_paths(n, sub, lo, hi)]

    def pick(b, arc, use):
        return next(r for r in routes[b] if (arc in r) == use)

    rest = tuple(k for b in sorted(routes) if b not in (bi, bj)
                 for k in routes[b][0])
    with_i, without_i = pick(bi, i, True), pick(bi, i, False)
    with_j, without_j = pick(bj, j, True), pick(bj, j, False)
    p1 = rest + with_i + with_j
    p2 = rest + without_i + without_j
    p3 = rest + with_i + without_j
    p4 = rest + without_i + with_j
    m = len(arcs)

    def inc(p):
        return [sum(1 for a in p if a == k) for k in range(m)]

    same = [x + y for x, y in zip(inc(p1), inc(p2))] == \
        [x + y for x, y in zip(inc(p3), inc(p4))]
    return same and (path_value(q, p1) + path_value(q, p2)
                     != path_value(q, p3) + path_value(q, p4))
