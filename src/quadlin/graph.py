"""Directed acyclic graphs with a distinguished source and target.

Vertices are 0..n-1; arcs are (tail, head) pairs and an arc's label is its
position in the arc tuple.  Every deterministic choice in this module
(topological order, path enumeration order, non-basic arc selection, the
canonical source-side prefix of a critical path) tie-breaks by ascending
vertex id or arc label, never by anything else.

A graph is a *corridor* when every vertex lies on at least one source-target
path.  The reduction machinery requires corridor graphs; ``prune_to_corridor``
produces them and keeps parent-label maps so entries of a cost matrix indexed
by the parent graph's arcs stay unambiguous.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


class GraphError(ValueError):
    """Structural precondition violated."""


class CycleDetected(GraphError):
    """The arc set admits a directed cycle."""


class Unreachable(GraphError):
    """No source-v path exists for the requested vertex."""


class PathExplosion(GraphError):
    """More source-target paths than the enumeration cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"{count} paths exceed cap {cap}")
        self.count = count
        self.cap = cap


PATH_CAP_DEFAULT = 1_000_000


@dataclass(frozen=True)
class StPath:
    """A source-target path: arc labels in order plus the vertex sequence."""

    arcs: tuple
    vertices: tuple

    def incidence(self, m: int) -> tuple:
        x = [0] * m
        for a in self.arcs:
            x[a] = 1
        return tuple(x)


class Dag:
    """Immutable DAG; construction validates acyclicity (CycleDetected).

    ``parent_arc`` / ``parent_vertex`` are label maps into the graph this one
    was pruned from (None on top-level graphs).
    """

    __slots__ = ("n", "arcs", "source", "target", "parent_arc",
                 "parent_vertex", "out_arcs", "in_arcs", "topo_order",
                 "topo_pos")

    def __init__(self, n, arcs, source, target,
                 parent_arc=None, parent_vertex=None):
        arcs = tuple((int(t), int(h)) for t, h in arcs)
        if not 0 <= source < n or not 0 <= target < n:
            raise GraphError("source/target out of range")
        for t, h in arcs:
            if not (0 <= t < n and 0 <= h < n):
                raise GraphError("arc endpoint out of range")
        self.n = n
        self.arcs = arcs
        self.source = source
        self.target = target
        self.parent_arc = None if parent_arc is None else tuple(parent_arc)
        self.parent_vertex = (None if parent_vertex is None
                              else tuple(parent_vertex))
        out_arcs = [[] for _ in range(n)]
        in_arcs = [[] for _ in range(n)]
        for label, (t, h) in enumerate(arcs):
            out_arcs[t].append(label)
            in_arcs[h].append(label)
        self.out_arcs = tuple(tuple(a) for a in out_arcs)
        self.in_arcs = tuple(tuple(a) for a in in_arcs)
        self.topo_order = self._kahn()
        pos = [0] * n
        for i, v in enumerate(self.topo_order):
            pos[v] = i
        self.topo_pos = tuple(pos)

    @property
    def m(self) -> int:
        return len(self.arcs)

    def tail(self, label: int) -> int:
        return self.arcs[label][0]

    def head(self, label: int) -> int:
        return self.arcs[label][1]

    def _kahn(self):
        indeg = [0] * self.n
        for _, h in self.arcs:
            indeg[h] += 1
        ready = [v for v in range(self.n) if indeg[v] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for label in self.out_arcs[v]:
                h = self.arcs[label][1]
                indeg[h] -= 1
                if indeg[h] == 0:
                    heapq.heappush(ready, h)
        if len(order) != self.n:
            raise CycleDetected("arc set admits a directed cycle")
        return tuple(order)

    def __repr__(self):
        return (f"Dag(n={self.n}, m={self.m}, "
                f"source={self.source}, target={self.target})")


def topological_sort(g: Dag) -> tuple:
    """Deterministic topological order (ascending vertex id among ready)."""
    return g.topo_order


def reachable_from(g: Dag, v: int) -> set:
    seen = {v}
    stack = [v]
    while stack:
        w = stack.pop()
        for label in g.out_arcs[w]:
            h = g.arcs[label][1]
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return seen


def reaches(g: Dag, v: int) -> set:
    """Vertices with a path to v (v included)."""
    seen = {v}
    stack = [v]
    while stack:
        w = stack.pop()
        for label in g.in_arcs[w]:
            t = g.arcs[label][0]
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _reach_masks(g: Dag):
    """mask[v] has bit w set iff v has a path to w (v itself included)."""
    masks = [0] * g.n
    for v in reversed(g.topo_order):
        acc = 1 << v
        for label in g.out_arcs[v]:
            acc |= masks[g.arcs[label][1]]
        masks[v] = acc
    return masks


def is_corridor(g: Dag) -> bool:
    from_s = reachable_from(g, g.source)
    to_t = reaches(g, g.target)
    on_path = from_s & to_t
    if len(on_path) != g.n:
        return False
    return all(t in from_s and h in to_t for t, h in g.arcs)


def prune_to_corridor(g: Dag, v: int) -> Dag:
    """Subgraph of everything on some source-v path, with parent maps.

    Vertex and arc labels keep their relative parent order, so label
    comparisons in the subgraph agree with comparisons in the parent.
    """
    if not 0 <= v < g.n:
        raise GraphError("vertex out of range")
    from_s = reachable_from(g, g.source)
    if v not in from_s:
        raise Unreachable(f"no path from source to vertex {v}")
    to_v = reaches(g, v)
    keep_vertices = sorted(from_s & to_v)
    vmap = {w: i for i, w in enumerate(keep_vertices)}
    new_arcs = []
    parent_arc = []
    for label, (t, h) in enumerate(g.arcs):
        if t in from_s and h in to_v:
            new_arcs.append((vmap[t], vmap[h]))
            parent_arc.append(label)
    return Dag(len(keep_vertices), new_arcs, vmap[g.source], vmap[v],
               parent_arc=parent_arc, parent_vertex=keep_vertices)


def count_st_paths(g: Dag) -> int:
    counts = [0] * g.n
    counts[g.target] = 1
    for v in reversed(g.topo_order):
        if v != g.target:
            counts[v] = sum(counts[g.arcs[label][1]]
                            for label in g.out_arcs[v])
    return counts[g.source]


def enumerate_st_paths(g: Dag, cap: int = PATH_CAP_DEFAULT) -> list:
    """All source-target paths in lexicographic arc-label order.

    Counts first (cheap DP) and raises PathExplosion before materializing
    anything when the count exceeds ``cap``.
    """
    count = count_st_paths(g)
    if count > cap:
        raise PathExplosion(count, cap)
    to_t = reaches(g, g.target)
    paths = []
    arc_stack = []
    vert_stack = [g.source]

    def walk(v):
        if v == g.target:
            paths.append(StPath(tuple(arc_stack), tuple(vert_stack)))
            return
        for label in g.out_arcs[v]:
            h = g.arcs[label][1]
            if h in to_t:
                arc_stack.append(label)
                vert_stack.append(h)
                walk(h)
                arc_stack.pop()
                vert_stack.pop()

    walk(g.source)
    return paths


def shortest_paths(g: Dag, cost, start: int):
    """(dist, pred): per vertex, the least cost of a start-v path under
    the arc costs cost, and the last arc of one such path; None for a
    vertex that start does not reach (pred[start] too).
    One sweep in topological order; ties go to the smaller arc label."""
    dist = [None] * g.n
    pred = [None] * g.n
    dist[start] = 0
    arcs = g.arcs
    for v in g.topo_order[g.topo_pos[start] + 1:]:
        best = arc = None
        for label in g.in_arcs[v]:
            d = dist[arcs[label][0]]
            if d is not None:
                d += cost[label]
                if best is None or d < best:
                    best, arc = d, label
        dist[v], pred[v] = best, arc
    return dist, pred


def _require_corridor(g: Dag):
    if not is_corridor(g):
        raise GraphError("graph is not corridor-pruned "
                         "(some vertex or arc is on no source-target path)")


def non_basic_arcs(g: Dag) -> frozenset:
    """One arc per transshipment vertex: its smallest-label outgoing arc."""
    _require_corridor(g)
    picks = []
    for v in range(g.n):
        if v == g.source or v == g.target:
            continue
        picks.append(min(g.out_arcs[v]))
    return frozenset(picks)


def basic_arc_order(g: Dag) -> tuple:
    """Basic arcs sorted by (topological position of tail, label)."""
    nb = non_basic_arcs(g)
    basic = [e for e in range(g.m) if e not in nb]
    basic.sort(key=lambda e: (g.topo_pos[g.arcs[e][0]], e))
    return tuple(basic)


def _critical_paths(g: Dag):
    """(non-basic arcs, e -> critical_path(g, e)) for repeated queries.

    The non-basic set, its tail map and the reach masks are computed once
    per graph rather than once per arc.
    """
    nb = non_basic_arcs(g)
    nb_by_tail = {g.arcs[lbl][0]: lbl for lbl in nb}
    masks = _reach_masks(g)

    def path(e: int) -> StPath:
        if e in nb:
            raise GraphError(f"arc {e} is non-basic")
        u, v = g.arcs[e]
        arcs = []
        vertices = [g.source]
        w = g.source
        while w != u:
            label = next(lbl for lbl in g.out_arcs[w]
                         if (masks[g.arcs[lbl][1]] >> u) & 1)
            arcs.append(label)
            w = g.arcs[label][1]
            vertices.append(w)
        arcs.append(e)
        vertices.append(v)
        w = v
        while w != g.target:
            label = nb_by_tail[w]
            arcs.append(label)
            w = g.arcs[label][1]
            vertices.append(w)
        return StPath(tuple(arcs), tuple(vertices))

    return nb, path


def critical_path(g: Dag, e: int) -> StPath:
    """The canonical source-target path through basic arc e.

    Source side: lexicographically smallest arc-label sequence to tail(e).
    Target side: the unique all-non-basic walk from head(e) to the target.
    """
    return _critical_paths(g)[1](e)


def forbidden_pairs(g: Dag) -> frozenset:
    """Arc pairs (i, j), i < j, that can never lie on a common path.

    A pair is reported when neither arc's head can reach the other's tail
    (this subsumes shared tails and shared heads in a DAG).  That is sound
    on any DAG, and exact on a corridor: there, if the head of i reaches
    the tail of j, some s-t path runs through i and then j.  On a graph
    with arcs on no s-t path, pairs not reported may or may not co-occur.
    """
    masks = _reach_masks(g)
    out = set()
    for i in range(g.m):
        ti, hi = g.arcs[i]
        for j in range(i + 1, g.m):
            tj, hj = g.arcs[j]
            if not (masks[hi] >> tj) & 1 and not (masks[hj] >> ti) & 1:
                out.add((i, j))
    return frozenset(out)
