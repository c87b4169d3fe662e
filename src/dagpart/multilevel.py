"""Multilevel pipeline: acyclicity-safe coarsening, exact initial partitioning,
projection, and per-level refinement.

Coarsening contracts one edge (u, v) at a time, and only when no other u->v
path exists, so every coarse graph, and hence the quotient of every
projected partition, stays acyclic; a level spans CONTRACTIONS_PER_LEVEL
contractions.  Each projected partition is improved by greedy boundary moves
that keep the part numbering topological (`refine_moves`), then polished by
a short, warm-started branch and bound; the polish of the input graph, whose
partition is returned, gets FINEST_POLISH_FACTOR times the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dag import Dag
from .errors import BudgetExhaustedError, InfeasibleInstanceError, InvalidProjectionError
from .exact import INFEASIBLE, SolveBudget, branch_and_bound
from .partition import Partition, balance_bound

DEFAULT_REFINE_BUDGET = 1_000
# One-edge contractions make graphs that differ by one vertex, whose
# polishes search almost the same tree, so a level spans four of them.
# Refining fewer graphs alone raised the cut; a larger polish of the input
# graph, whose partition is returned, wins it back.
CONTRACTIONS_PER_LEVEL = 4
FINEST_POLISH_FACTOR = 10


@dataclass(frozen=True)
class CoarseningLevel:
    """A coarser graph plus the fine->coarse mapping of the steps it spans."""

    graph: Dag
    mapping: tuple[int, ...]


def _contraction_safe(g: Dag, u: int, v: int) -> bool:
    """Contracting edge (u, v) is safe iff no u->v path survives without it.

    The search never enters a vertex placed after v in the topological
    order, since none can reach v; when v directly follows u it has nothing
    to visit.
    """
    position = g.topo.position
    last = position[v]
    seen = set()
    stack = [w for w in g.succ[u] if position[w] < last]
    while stack:
        a = stack.pop()
        if a in seen:
            continue
        seen.add(a)
        for b in g.succ[a]:
            if b == v:
                return False
            if position[b] < last:
                stack.append(b)
    return True


def _contract(g: Dag, u: int, v: int):
    """Merge v into u; returns the coarser Dag and the old->new id mapping."""
    mapping = []
    next_id = 0
    for i in range(g.n):
        if i == v:
            mapping.append(-1)
        else:
            mapping.append(next_id)
            next_id += 1
    mapping[v] = mapping[u]
    weights = [0] * (g.n - 1)
    for i in range(g.n):
        weights[mapping[i]] += g.w[i]
    costs: dict[tuple[int, int], int] = {}
    for a, b, c in g.edges:
        na, nb = mapping[a], mapping[b]
        if na == nb:
            continue
        costs[(na, nb)] = costs.get((na, nb), 0) + c
    edges = sorted((a, b, c) for (a, b), c in costs.items())
    return Dag(weights, edges), tuple(mapping)


def _check_target_n(target_n: int) -> None:
    if target_n < 2:
        raise ValueError(f"target_n must be >= 2, got {target_n}")


def coarsen(g: Dag, target_n: int,
            max_weight: int | None = None) -> list[CoarseningLevel]:
    """Contract heavy edges one at a time while preserving acyclicity.

    Each step contracts the first edge in (-cost, u, v) order that
    `_contraction_safe` accepts and, with max_weight set, that does not
    make a vertex heavier than the cap, so the coarsest graph stays
    partitionable under the balance bound.  Stops at target_n vertices or
    when no such edge remains.  A level is recorded after every
    CONTRACTIONS_PER_LEVEL steps, and once more for a shorter tail; its
    mapping composes the steps it spans.
    """
    _check_target_n(target_n)
    levels: list[CoarseningLevel] = []
    current = g
    mapping = tuple(range(g.n))
    while current.n > target_n:
        w = current.w
        by_cost = sorted(current.edges, key=lambda e: (-e[2], e[0], e[1]))
        chosen = next(((u, v) for u, v, _ in by_cost
                       if (max_weight is None or w[u] + w[v] <= max_weight)
                       and _contraction_safe(current, u, v)), None)
        if chosen is None:
            break
        current, step = _contract(current, *chosen)
        mapping = tuple(step[i] for i in mapping)
        # each step removes one vertex
        if len(mapping) - current.n == CONTRACTIONS_PER_LEVEL:
            levels.append(CoarseningLevel(current, mapping))
            mapping = tuple(range(current.n))
    if len(mapping) > current.n:
        levels.append(CoarseningLevel(current, mapping))
    return levels


def project(p_coarse: Partition, mapping, fine_n: int) -> Partition:
    """Pull a coarse partition back through a fine->coarse mapping."""
    if len(mapping) != fine_n:
        raise InvalidProjectionError(
            f"mapping covers {len(mapping)} vertices, expected {fine_n}")
    coarse = p_coarse.assignment
    for target in mapping:
        if not (0 <= target < len(coarse)):
            raise InvalidProjectionError(f"mapping target {target} out of range")
    return Partition(tuple(coarse[mapping[i]] for i in range(fine_n)), p_coarse.k)


def initial_partition(coarsest: Dag, k: int, eps=0,
                      budget: SolveBudget | None = None) -> Partition:
    """Partition the coarsest graph exactly by branch and bound.

    InfeasibleInstanceError means the search proved that no partition
    exists; BudgetExhaustedError means it stopped on its budget before
    finding one.
    """
    result = branch_and_bound(coarsest, k, eps, budget=budget)
    if result.status == INFEASIBLE:
        raise InfeasibleInstanceError(
            f"no balanced acyclic {k}-way partition at the coarsest level")
    if result.partition is None:
        raise BudgetExhaustedError(
            f"search budget ran out after {result.nodes_explored} nodes before "
            f"any balanced acyclic {k}-way partition was found")
    return result.partition


def refine_moves(g: Dag, p: Partition, k: int, bound: int) -> Partition:
    """Greedy boundary moves that keep part(u) <= part(v) on every edge.

    Passes over the topological order repeat until no vertex moves.  Vertex
    v may go to any part q between lo, the largest part among its
    predecessors, and hi, the smallest among its successors, so the part
    numbering stays topological and the quotient graph acyclic.  It moves to
    the q with the largest strictly positive gain in cost to its neighbours
    that has room under bound, the lowest q on ties.  Every move lowers the
    cut, so the loop ends.  Raises ValueError unless p's numbering is
    topological to begin with.
    """
    part = list(p.assignment)
    for u, v, _ in g.edges:
        if part[u] > part[v]:
            raise ValueError(f"edge ({u},{v}) runs from part {part[u]} back to "
                             f"part {part[v]}: the part numbering is not topological")
    loads = [0] * k
    for v, s in enumerate(part):
        loads[s] += g.w[v]
    cost = g.cost
    plan = [(v, g.w[v], tuple((u, cost[(u, v)]) for u in g.pred[v]),
             tuple((u, cost[(v, u)]) for u in g.succ[v]))
            for v in g.topo.order]
    top = k - 1
    moved = True
    while moved:
        moved = False
        for v, weight, preds, succs in plan:
            lo, hi = 0, top
            conn = [0] * k
            for u, c in preds:
                s = part[u]
                conn[s] += c
                if s > lo:
                    lo = s
            for u, c in succs:
                s = part[u]
                conn[s] += c
                if s < hi:
                    hi = s
            if lo == hi:
                continue
            here = part[v]
            best, best_gain = here, 0
            for q in range(lo, hi + 1):
                gain = conn[q] - conn[here]
                if gain > best_gain and loads[q] + weight <= bound:
                    best, best_gain = q, gain
            if best != here:
                part[v] = best
                loads[here] -= weight
                loads[best] += weight
                moved = True
    return Partition(tuple(part), k)


def uncoarsen_refine(g: Dag, levels: list[CoarseningLevel],
                     coarse_partition: Partition, k: int, eps=0,
                     budget_nodes: int = DEFAULT_REFINE_BUDGET) -> Partition:
    """Project level by level; refine each finer graph by `refine_moves`,
    then polish it by branch and bound warm-started from the moved partition.

    Each polish is capped at budget_nodes nodes, except the one of the input
    graph g, whose partition is returned: it gets FINEST_POLISH_FACTOR times
    that, and it runs even when levels is empty.

    coarse_partition must number its parts topologically, as
    `branch_and_bound` does; projection keeps that numbering.
    """
    bound = balance_bound(g, k, eps)
    graphs = [g] + [level.graph for level in levels]
    current = coarse_partition
    for idx in range(len(levels) - 1, -1, -1):
        finer = graphs[idx]
        current = project(current, levels[idx].mapping, finer.n)
        current = refine_moves(finer, current, k, bound)
        if idx:
            current = branch_and_bound(finer, k, eps, warm=current,
                                       budget=SolveBudget(max_nodes=budget_nodes)).partition
    # a warm-started search always returns a partition, at worst the warm one
    return branch_and_bound(g, k, eps, warm=current, budget=SolveBudget(
        max_nodes=budget_nodes * FINEST_POLISH_FACTOR)).partition


def multilevel_partition(g: Dag, k: int, eps=0, target_n: int = 8,
                         budget_nodes: int = DEFAULT_REFINE_BUDGET):
    """Full pipeline; returns (partition, info dict with level statistics).

    info["levels"] counts the refined levels, not the contractions.  A failed
    initial solve steps back one level; info["fallbacks"] counts these steps
    by reason: "infeasible" (proven) or "budget" (the search ran out first).
    When even the input graph fails, the last error is raised.  target_n
    below 2 and a negative budget_nodes raise ValueError before any work.
    """
    _check_target_n(target_n)
    if budget_nodes < 0:
        raise ValueError(f"budget_nodes must be non-negative, got {budget_nodes}")
    cap = balance_bound(g, k, eps)
    levels = coarsen(g, target_n, max_weight=cap)
    # The weight cap keeps the coarsest graph partitionable in the common
    # case, but interactions between balance and acyclicity can still make
    # it infeasible, and the budget can run out before a partition is found;
    # fall back to finer levels until one solves.
    fallbacks = {"infeasible": 0, "budget": 0}
    while True:
        coarsest = levels[-1].graph if levels else g
        try:
            initial = initial_partition(coarsest, k, eps,
                                        budget=SolveBudget(max_nodes=budget_nodes))
            break
        except (InfeasibleInstanceError, BudgetExhaustedError) as exc:
            if not levels:
                raise
            reason = "infeasible" if isinstance(exc, InfeasibleInstanceError) else "budget"
            fallbacks[reason] += 1
            levels.pop()
    final = uncoarsen_refine(g, levels, initial, k, eps, budget_nodes)
    info = {
        "levels": len(levels),
        "coarsest_n": coarsest.n,
        "fallbacks": fallbacks,
    }
    return final, info
