"""Combinatorial solvers for gl and ggl's LPs on a structured instance.

gl and ggl fit column k of a matrix by fitting program k, max b.y + z
over free (y, z) subject to B^T y + e_k z <= c, and take a minimum of
linear costs over Bx = b, x >= 0.  On a shortest-path instance B is a
DAG's flow rows: program k is the dual of "cheapest s-t path through
arc k" and the minimum a shortest path.  On a QAP B is qap_to_bqp's
row and column sums: program k is the dual of "cheapest assignment
with placement k fixed" and the minimum an assignment, the Gilmore
(1962) and Lawler (1963) bound.

Each solver here works on integer costs (one denominator for all) and
returns integer duals y (and z) with the 0/1 point they price, a path
or a permutation as its column indices.  Nothing here is checked:
bounds certifies every answer by weak duality against B itself before
it uses it (bounds._weak_duality).
"""

from __future__ import annotations

from quadlin.graph import Dag, shortest_paths


def _walk(g: Dag, pred, end: int) -> list:
    """The arcs of the path that shortest_paths' pred records to end."""
    arcs = []
    while pred[end] is not None:
        arcs.append(pred[end])
        end = g.arcs[pred[end]][0]
    return arcs[::-1]


def dag_fit(g: Dag, cost, k: int):
    """(y, z, path) for fitting program k on g's flow rows under the
    integer arc costs cost, every arc on an s-t path.

    With d_s the distances from s, d_h those from v for arc k = (u, v),
    and R the vertices v reaches (d_s is read only off R, so on paths
    that never use arc k): the potentials pi are d_s off R and C + d_h on
    R, where C is the least d_s(a) + cost(a, b) - d_h(b) over the arcs
    (a, b) entering R, arc k among them; a vertex with no arc gets 0.
    Every arc but k then has pi_b - pi_a <= cost(a, b), y = -pi and
    z = cost(k) + pi_u - pi_v make row k tight, and path, the cheapest
    s-t path through k, costs pi_t - pi_s + z.  Shortest paths, their
    ties and the least C are unchanged when every cost is scaled by the
    same positive factor, so pi and z scale with it: any denominator
    gives the same fit.  Which optimum is taken leaves gl's value as it
    is but moves ggl's later rounds; this one, read from s, was measured
    against the one read from t and against their mean (CHANGES.md).
    """
    u, v = g.arcs[k]
    d_s, pred_s = shortest_paths(g, cost, g.source)
    d_h, pred_h = shortest_paths(g, cost, v)
    c = min(d_s[a] + cost[j] - d_h[b] for j, (a, b) in enumerate(g.arcs)
            if d_h[a] is None and d_h[b] is not None)
    y = [-c - h if h is not None else -d if d is not None else 0
         for d, h in zip(d_s, d_h)]
    path = _walk(g, pred_s, u) + [k] + _walk(g, pred_h, g.target)
    return y, cost[k] - y[u] + y[v], path


def dag_minimum(g: Dag, costs):
    """(y, path): a shortest s-t path under the integer arc costs, t
    reachable from s, and the duals y = -d_s, 0 at a vertex s does not
    reach."""
    dist, pred = shortest_paths(g, costs, g.source)
    return [0 if d is None else -d for d in dist], _walk(g, pred, g.target)


def hungarian(cost) -> tuple:
    """(u, v, col) for the square integer matrix cost, given as rows: a
    least-cost assignment, row i to column col[i], and potentials with
    u_i + v_j <= cost[i][j], equal at every (i, col[i]).

    The shortest augmenting path form of the Hungarian method (Burkard,
    Dell'Amico & Martello, "Assignment Problems", SIAM 2009, sec. 4.4),
    O(n^3): rows join one at a time, each by a Dijkstra search over the
    reduced costs from the new row, and the potentials absorb the
    search's distances.  Rows and columns are 1-based inside; column 0
    is a dummy that holds the joining row."""
    n = len(cost)
    inf = float("inf")
    u, v = [0] * (n + 1), [0] * (n + 1)
    row = [0] * (n + 1)  # row[j]: the row that column j takes, 0 if none
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        row[0], j0 = i, 0
        minv, used = [inf] * (n + 1), [False] * (n + 1)
        while row[j0]:
            used[j0] = True
            i0, delta, j1 = row[j0], inf, 0
            ci, ui = cost[i0 - 1], u[i0]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = ci[j - 1] - ui - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:  # augment along the search's path back to the dummy
            row[j0] = row[way[j0]]
            j0 = way[j0]
    col = [0] * n
    for j in range(1, n + 1):
        col[row[j] - 1] = j - 1
    return u[1:], v[1:], col


def _assignment_duals(u, v) -> list:
    """y for the row potentials u and column potentials v of an n x n
    assignment on qap_to_bqp's rows: the n row sums, then the first n - 1
    column sums (the last is dropped), so the potentials are first
    shifted, u + t and v - t, to v_(n-1) = 0."""
    t = v[-1]
    return [a + t for a in u] + [a - t for a in v[:-1]]


def assignment_fit(n: int, cost, k: int):
    """(y, z, perm) for fitting program k = (i0, j0), placement i0 n + j0,
    on qap_to_bqp's rows under the integer costs cost, c_ij =
    cost[i n + j].

    The (n - 1) x (n - 1) assignment without row i0 and column j0 gives
    potentials u, v by the Hungarian method; then u_i0 is the least
    c_i0j - v_j over j != j0, v_j0 the least c_ij0 - u_i over i != i0,
    and z = c_k - u_i0 - v_j0 makes row k tight.  Every other placement
    has u_i + v_j <= c_ij, and perm, the sub-assignment plus k, is the
    cheapest permutation through k: it costs the sum of the potentials
    plus z.  The Hungarian method's potentials scale with the costs, so
    any denominator gives the same fit."""
    i0, j0 = divmod(k, n)
    rows = [i for i in range(n) if i != i0]
    cols = [j for j in range(n) if j != j0]
    su, sv, sub = hungarian([[cost[i * n + j] for j in cols] for i in rows])
    u, v = [0] * n, [0] * n
    for i, a in zip(rows, su):
        u[i] = a
    for j, a in zip(cols, sv):
        v[j] = a
    u[i0] = min(cost[i0 * n + j] - v[j] for j in cols)
    v[j0] = min(cost[i * n + j0] - u[i] for i in rows)
    perm = [k] + [i * n + cols[c] for i, c in zip(rows, sub)]
    return _assignment_duals(u, v), cost[k] - u[i0] - v[j0], perm


def assignment_minimum(n: int, costs):
    """(y, perm): a least-cost permutation under the integer costs,
    c_ij = costs[i n + j], and the duals y of its Hungarian potentials."""
    u, v, col = hungarian([costs[i * n:(i + 1) * n] for i in range(n)])
    return _assignment_duals(u, v), [i * n + j for i, j in enumerate(col)]
