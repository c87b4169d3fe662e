"""Built-in exact solvers: a brute-force oracle and a topological branch-and-bound."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import product

from .dag import Dag, part_order
from .errors import InvalidWarmStartError, TooLargeError
from .partition import Partition, balance_bound, validate

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
STOPPED = "stopped"

BRUTE_FORCE_GUARD_BITS = 24


def guard_enumeration(n: int, k: int, bits: int, what: str) -> None:
    """Raise TooLargeError unless all k^n part assignments fit in 2^bits,
    counting bit_length(k - 1) bits per vertex."""
    if k > 1 and n * (k - 1).bit_length() > bits:
        raise TooLargeError(f"k^n too large for {what} (n={n}, k={k})")


@dataclass(frozen=True)
class SolveBudget:
    max_nodes: int | None = None
    max_time: float | None = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError("max_nodes must be non-negative")
        if self.max_time is not None and self.max_time < 0:
            raise ValueError("max_time must be non-negative")


@dataclass(frozen=True)
class SolveResult:
    status: str
    partition: Partition | None
    cut: int | None
    nodes_explored: int


def brute_force(g: Dag, k: int, eps=0, nq=None, lm: int | None = None) -> SolveResult:
    """Enumerate all k^n assignments and return the minimum feasible cut.

    This is the independent oracle: feasibility is checked directly from
    the definitions (balance, quotient acyclicity, qubit capacity), not via
    any search-space restriction; nq, when given, holds one qubit bitmask
    per vertex and lm caps each part's qubit count.  Lexicographically
    smallest assignment wins ties.
    """
    guard_enumeration(g.n, k, BRUTE_FORCE_GUARD_BITS, "brute-force enumeration")
    bound = balance_bound(g, k, eps)
    edges = g.edges
    weights = g.w
    best_cut = None
    best_assignment = None
    nodes = 0
    for assignment in product(range(k), repeat=g.n):
        nodes += 1
        part_weights = [0] * k
        overweight = False
        for i, s in enumerate(assignment):
            part_weights[s] += weights[i]
            if part_weights[s] > bound:
                overweight = True
                break
        if overweight:
            continue
        cut = 0
        adjacency = set()
        for u, v, c in edges:
            su, sv = assignment[u], assignment[v]
            if su != sv:
                cut += c
                adjacency.add((su, sv))
        if best_cut is not None and cut >= best_cut:
            continue
        if len(part_order(k, adjacency)) < k:
            continue
        if nq is not None:
            used = [0] * k
            for i, s in enumerate(assignment):
                used[s] |= nq[i]
            if any(mask.bit_count() > lm for mask in used):
                continue
        best_cut = cut
        best_assignment = assignment
    if best_assignment is None:
        return SolveResult(INFEASIBLE, None, None, nodes)
    return SolveResult(OPTIMAL, Partition(best_assignment, k), best_cut, nodes)


def branch_and_bound(g: Dag, k: int, eps=0, warm: Partition | None = None,
                     budget: SolveBudget | None = None, nq=None,
                     lm: int | None = None) -> SolveResult:
    """Exact search over part assignments restricted by the topological rule.

    Vertices are assigned in the deterministic topological order; a vertex
    may only take a part index at least s_min, the maximum index among its
    predecessors, tried in increasing order.  Every acyclic partition admits
    a topologically sorted part numbering, so the restriction loses no
    optimum while collapsing part-relabeling symmetry.  Because every
    predecessor sits in a part <= s_min, a child's cut grows by the total
    predecessor cost minus the cost from part s_min when s == s_min, and by
    the whole total when s > s_min: one pass over the predecessors per
    vertex, O(1) per child.

    A vertex in part s forces all of its descendants, none of them assigned
    yet, into parts >= s.  A child is therefore tried only when the vertex
    and its descendants together fit in the free room of parts s..k-1; the
    room of parts >= s_min is summed once per vertex and lowered by one
    part's free room per child.  The check cuts only subtrees that hold no
    feasible leaf, so it changes the node counts but not the result.

    Each candidate (vertex, part) counts as one node, pruned or not.  A
    child is pruned unless its cut is strictly below the incumbent, so a
    warm start is kept on ties.  The search stops with STOPPED when the node
    count exceeds budget.max_nodes (it then reports max_nodes + 1 nodes), or
    when the deadline has passed at a node count that is a multiple of 256.

    The search walks the tree in one loop and keeps the frame of each vertex
    on the current path in a list, so it uses O(n) memory at any depth.
    """
    budget = budget or SolveBudget()
    bound = balance_bound(g, k, eps)

    best_cut = math.inf
    best_assignment = None
    if warm is not None:
        report = validate(g, warm, k, eps)
        if not report.feasible:
            raise InvalidWarmStartError(
                "warm start partition is infeasible: " + "; ".join(report.violations))
        if nq is not None:
            for s, members in enumerate(warm.parts()):
                used = 0
                for i in members:
                    used |= nq[i]
                if used.bit_count() > lm:
                    raise InvalidWarmStartError(
                        f"warm start part {s} exceeds qubit capacity {lm}")
        best_cut = report.cut
        best_assignment = warm.assignment

    # One entry per depth: (vertex, weight, ((pred, edge cost), ...), total
    # cost, weight of the vertex and its descendants).
    cost = g.cost
    descendant_masks = g.descendant_masks
    plan = []
    for v in g.topo.order:
        preds = tuple((u, cost[(u, v)]) for u in g.pred[v])
        tail = g.w[v] + g.mask_weight(descendant_masks[v])
        plan.append((v, g.w[v], preds, sum(c for _, c in preds), tail))
    n = g.n
    if n == 0:  # no vertex to assign: the empty assignment is the only leaf
        return SolveResult(OPTIMAL, Partition((), k), 0, 0)
    part_of = [-1] * n
    part_weights = [0] * k
    part_masks = [0] * k if nq is not None else None
    limit = budget.max_nodes if budget.max_nodes is not None else math.inf
    deadline = (time.monotonic() + budget.max_time
                if budget.max_time is not None else math.inf)
    monotonic = time.monotonic

    # path[d] keeps the frame of the vertex at depth d while the search is
    # below it: (part, cut_above, room, that part's qubit mask before it).
    # The root vertex has no predecessors: s_min is 0 and every part is free.
    path = [None] * n
    nodes = depth = s = cut_above = child_cut = 0
    room = k * bound
    v, weight, _, _, tail = plan[0]
    while True:
        if s < k:
            nodes += 1
            if nodes > limit or (nodes & 255 == 0 and monotonic() > deadline):
                status = STOPPED
                break
            if (part_weights[s] + weight <= bound and tail <= room
                    and child_cut < best_cut
                    and (part_masks is None
                         or (part_masks[s] | nq[v]).bit_count() <= lm)):
                part_of[v] = s
                if depth + 1 == n:  # a leaf, with a cut below the incumbent's
                    best_cut = child_cut
                    best_assignment = tuple(part_of)
                else:
                    old_mask = None
                    if part_masks is not None:
                        old_mask = part_masks[s]
                        part_masks[s] = old_mask | nq[v]
                    part_weights[s] += weight
                    path[depth] = (s, cut_above, room, old_mask)
                    depth += 1
                    v, weight, preds, total, tail = plan[depth]
                    s_min = same = 0
                    for u, c in preds:
                        s = part_of[u]
                        if s > s_min:
                            s_min, same = s, c
                        elif s == s_min:
                            same += c
                    cut_above = child_cut + total  # the cut for any s > s_min
                    child_cut = cut_above - same
                    # free room in parts >= s, for each s tried at this depth
                    room = (k - s_min) * bound - sum(part_weights[s_min:])
                    s = s_min
                    continue
        elif depth:  # every part tried: take the vertex above out of its part
            depth -= 1
            s, cut_above, room, old_mask = path[depth]
            v, weight, _, _, tail = plan[depth]
            part_weights[s] -= weight
            if part_masks is not None:
                part_masks[s] = old_mask
        else:  # every part of the root tried: the search is complete
            status = OPTIMAL if best_assignment is not None else INFEASIBLE
            break
        child_cut = cut_above
        room -= bound - part_weights[s]
        s += 1
    if best_assignment is None:
        return SolveResult(status, None, None, nodes)
    return SolveResult(status, Partition(best_assignment, k), best_cut, nodes)
