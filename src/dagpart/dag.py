"""Weighted simple DAG: validation, topological order, reachability, quotient graph."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    CycleDetectedError,
    DuplicateEdgeError,
    PartitionArityMismatchError,
    SelfLoopError,
)

@dataclass(frozen=True)
class TopoOrder:
    """A topological order and its inverse permutation."""

    order: tuple[int, ...]
    position: tuple[int, ...]


def _kahn(n: int, succ, indeg_init) -> list[int]:
    """Kahn's algorithm with a min-vertex-id heap for the ready set."""
    indeg = list(indeg_init)
    ready = [u for u in range(n) if indeg[u] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    return order


def part_order(k: int, arcs) -> list[int]:
    """Part ids 0..k-1 in Kahn order over the (s, t) arcs, smallest ready id
    first; fewer than k ids exactly when the arcs contain a cycle."""
    succ = [[] for _ in range(k)]
    indeg = [0] * k
    for s, t in arcs:
        succ[s].append(t)
        indeg[t] += 1
    return _kahn(k, succ, indeg)


def mask_vertices(mask: int) -> list[int]:
    """The vertex ids whose bits are set in mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _extract_cycle(remaining: set[int], pred) -> list[int]:
    """Walk predecessors inside the unresolved set until a vertex repeats."""
    seen: dict[int, int] = {}
    path: list[int] = []
    u = min(remaining)
    while u not in seen:
        seen[u] = len(path)
        path.append(u)
        u = min(v for v in pred[u] if v in remaining)
    cycle = path[seen[u]:]
    cycle.reverse()
    return cycle


class Dag:
    """A simple directed acyclic graph with vertex weights and edge costs.

    Construction validates the input: vertex ids in range, integral
    non-negative weights and costs, no self-loops, no parallel edges, and no
    directed cycle.  The instance is immutable afterwards and safe to share
    between threads.

    Reachability is held as Python-int bitsets (bit v of
    `descendant_masks[u]` is set iff u reaches v), built on the first
    reachability query, so construction costs nothing for callers that never
    ask.  Two threads racing on that first query build equal tables.
    """

    def __init__(self, weights: Sequence[int], edges: Iterable[tuple[int, int, int]]):
        self.w = tuple(int(x) for x in weights)
        self.n = len(self.w)
        for i, (wi, x) in enumerate(zip(self.w, weights)):
            if wi != x:
                raise ValueError(f"non-integral weight {x!r} at vertex {i}")
            if wi < 0:
                raise ValueError(f"negative weight {wi} at vertex {i}")

        succ: list[list[int]] = [[] for _ in range(self.n)]
        pred: list[list[int]] = [[] for _ in range(self.n)]
        cost: dict[tuple[int, int], int] = {}
        for eu, ev, ec in edges:
            u, v, c = int(eu), int(ev), int(ec)
            if c != ec or u != eu or v != ev:
                raise ValueError(f"non-integral value in edge ({eu!r}, {ev!r}, {ec!r})")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if c < 0:
                raise ValueError(f"negative cost {c} on edge ({u},{v})")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if (u, v) in cost:
                raise DuplicateEdgeError(f"duplicate edge {u}->{v}")
            cost[(u, v)] = c
            succ[u].append(v)
            pred[v].append(u)
        self.cost = cost
        self.edges = tuple((u, v, c) for (u, v), c in cost.items())
        self.succ = tuple(tuple(sorted(s)) for s in succ)
        self.pred = tuple(tuple(sorted(p)) for p in pred)

        order = _kahn(self.n, self.succ, [len(p) for p in self.pred])
        if len(order) < self.n:
            remaining = set(range(self.n)) - set(order)
            raise CycleDetectedError(_extract_cycle(remaining, self.pred))
        position = [0] * self.n
        for idx, u in enumerate(order):
            position[u] = idx
        self.topo = TopoOrder(tuple(order), tuple(position))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> int:
        return sum(self.w)

    @property
    def total_cost(self) -> int:
        return sum(c for _, _, c in self.edges)

    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise ValueError(f"vertex {u} out of range for n={self.n}")

    def _closure(self, order, adjacency) -> tuple[int, ...]:
        """One pass in which each vertex ORs in its neighbours' closures;
        order must list every neighbour before the vertex itself."""
        masks = [0] * self.n
        for u in order:
            mask = 0
            for v in adjacency[u]:
                mask |= masks[v] | (1 << v)
            masks[u] = mask
        return tuple(masks)

    @cached_property
    def descendant_masks(self) -> tuple[int, ...]:
        """Bitset per vertex of the vertices it reaches by a non-empty path."""
        return self._closure(reversed(self.topo.order), self.succ)

    @cached_property
    def ancestor_masks(self) -> tuple[int, ...]:
        """Bitset per vertex of the vertices that reach it by a non-empty path."""
        return self._closure(self.topo.order, self.pred)

    def path_mask(self, u: int, v: int) -> int:
        """Bitset of the interior vertices of all u->v paths (0 if u == v)."""
        return self.descendant_masks[u] & self.ancestor_masks[v]

    @cached_property
    def _weight_planes(self) -> tuple[int, ...]:
        # bit plane b is the bitset of vertices whose weight has bit b set,
        # so a mask's weight is one popcount per bit of the largest weight
        return tuple(sum(1 << v for v, wv in enumerate(self.w) if wv >> b & 1)
                     for b in range(max(self.w, default=0).bit_length()))

    def mask_weight(self, mask: int) -> int:
        """Total vertex weight of the vertices in a bitset."""
        return sum((mask & plane).bit_count() << b
                   for b, plane in enumerate(self._weight_planes))

    def descendants(self, u: int) -> frozenset[int]:
        """All vertices reachable from u by a non-empty path (u excluded)."""
        self._check_vertex(u)
        return frozenset(mask_vertices(self.descendant_masks[u]))

    def ancestors(self, u: int) -> frozenset[int]:
        """All vertices that reach u by a non-empty path (u excluded)."""
        self._check_vertex(u)
        return frozenset(mask_vertices(self.ancestor_masks[u]))

    def path_nodes(self, u: int, v: int) -> frozenset[int]:
        """Interior vertices lying on some u->v path, endpoints excluded."""
        self._check_vertex(u)
        self._check_vertex(v)
        return frozenset(mask_vertices(self.path_mask(u, v)))


@dataclass(frozen=True)
class QuotientGraph:
    """Graph over part ids induced by a partition; may be cyclic."""

    k: int
    weights: tuple[int, ...]
    edge_costs: dict

    def find_cycle(self):
        """Return one cycle as a part-id sequence, or None if acyclic."""
        order = part_order(self.k, self.edge_costs)
        if len(order) == self.k:
            return None
        pred = [[] for _ in range(self.k)]
        for (s, t) in self.edge_costs:
            pred[t].append(s)
        remaining = set(range(self.k)) - set(order)
        return _extract_cycle(remaining, pred)

    @property
    def is_acyclic(self) -> bool:
        return self.find_cycle() is None

    @property
    def total_edge_cost(self) -> int:
        return sum(self.edge_costs.values())


def quotient_graph(g: Dag, p) -> QuotientGraph:
    """Contract each part to a node, summing weights and crossing edge costs."""
    assignment = p.assignment
    if len(assignment) != g.n:
        raise PartitionArityMismatchError(
            f"partition covers {len(assignment)} vertices, graph has {g.n}")
    weights = [0] * p.k
    for i, s in enumerate(assignment):
        weights[s] += g.w[i]
    costs: dict = {}
    for u, v, c in g.edges:
        s, t = assignment[u], assignment[v]
        if s != t:
            costs[(s, t)] = costs.get((s, t), 0) + c
    return QuotientGraph(p.k, tuple(weights), costs)
