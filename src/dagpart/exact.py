"""Built-in exact solvers: a brute-force oracle and a topological branch-and-bound."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import product

from .dag import Dag, part_order
from .errors import InvalidWarmStartError, QubitCapacityInfeasibleError, TooLargeError
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


def check_qubits(g: Dag, nq, lm: int | None) -> None:
    """Raise ValueError unless nq and lm are both None, or nq holds one
    qubit bitmask per vertex and lm is given."""
    if nq is None and lm is None:
        return
    if nq is None:
        raise ValueError(f"L_m={lm} given without NQ masks")
    if lm is None:
        raise ValueError("NQ masks given without L_m")
    if len(nq) != g.n:
        raise ValueError(f"NQ has {len(nq)} masks, graph has {g.n} vertices")


def check_qubit_capacity(nq, lm: int) -> None:
    """Raise QubitCapacityInfeasibleError if a vertex alone touches over lm qubits."""
    for i, mask in enumerate(nq):
        if mask.bit_count() > lm:
            raise QubitCapacityInfeasibleError(
                f"vertex {i} touches more than L_m={lm} qubits")


def part_qubit_masks(nq, assignment, k: int) -> list[int]:
    """Each of the k parts' qubit bitmask: the OR of its vertices' masks."""
    masks = [0] * k
    for i, s in enumerate(assignment):
        masks[s] |= nq[i]
    return masks


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
    check_qubits(g, nq, lm)
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
        if nq is not None and any(
                mask.bit_count() > lm for mask in part_qubit_masks(nq, assignment, k)):
            continue
        best_cut = cut
        best_assignment = assignment
    if best_assignment is None:
        return SolveResult(INFEASIBLE, None, None, nodes)
    return SolveResult(OPTIMAL, Partition(best_assignment, k), best_cut, nodes)


def search_order(g: Dag) -> list[int]:
    """The order in which `branch_and_bound` places the vertices of g.

    Kahn's algorithm: among the vertices whose predecessors are all placed,
    take the one with the largest total in-edge cost, then the largest total
    out-edge cost, then the smallest position in g's topological order.
    """
    cost_in = [0] * g.n
    cost_out = [0] * g.n
    for u, v, c in g.edges:
        cost_out[u] += c
        cost_in[v] += c
    position = g.topo.position
    waiting = [len(p) for p in g.pred]  # predecessors not yet placed
    ready = [(-cost_in[v], -cost_out[v], position[v], v)
             for v in range(g.n) if not waiting[v]]
    heapify(ready)
    order = []
    while ready:
        v = heappop(ready)[3]
        order.append(v)
        for u in g.succ[v]:
            waiting[u] -= 1
            if not waiting[u]:
                heappush(ready, (-cost_in[u], -cost_out[u], position[u], u))
    return order


def branch_and_bound(g: Dag, k: int, eps=0, warm: Partition | None = None,
                     budget: SolveBudget | None = None, nq=None,
                     lm: int | None = None) -> SolveResult:
    """Exact search over part assignments restricted by the topological rule.

    Vertices are assigned in `search_order`: a topological order that, of
    the vertices whose predecessors are all placed, takes the one with the
    largest in-edge cost first, then the largest out-edge cost, then the
    first in g's topological order, so that heavy edges are settled, and the
    bound below rises, near the root.  A vertex may only take a part index
    at least s_min, the maximum index among its predecessors, tried in
    increasing order up to min(k, n) - 1; the balance bound still comes
    from k.  Every acyclic partition admits a topologically sorted part
    numbering, with its at most n non-empty parts first, so the restriction
    loses no optimum while collapsing part-relabeling symmetry, and k > n
    costs no more than k = n.  Because every predecessor sits in a part
    <= s_min, a child's cut grows by the total predecessor cost minus
    `same`, the cost from part s_min, when s == s_min, and by the whole
    total when s > s_min, so each child costs O(1).

    Each vertex keeps, over its placed predecessors, their highest part and
    the cost from that part.  Every other edge from them is cut in any
    completion, so `future`, that cost summed over the vertices still to
    come, is a lower bound on the cut left to add, and a child is tried only
    when its cut plus `future` is strictly below the incumbent's.  Placing
    a vertex pushes its part to each successor's next slot: a vertex owns
    one slot per predecessor plus one, and its j-th predecessor always
    writes slot j + 1 from slot j, so stepping back undoes nothing, and
    s_min and `same` are read from the vertex's last slot.  The pushes also
    add the edges that the child makes certainly cut to `future`, and the
    search descends below the child only when its cut plus that updated
    bound is still below the incumbent's; otherwise it goes on to the next
    part without counting the next vertex's children.

    A vertex in part s forces all of its descendants, none of them assigned
    yet, into parts >= s.  A child is therefore tried only when the vertex
    and its descendants together fit in the free room of parts >= s; the
    room of parts >= s_min is summed once per vertex and lowered by one
    part's free room per child.  These checks cut only subtrees that hold no
    leaf both feasible and below the incumbent, so they change the node
    counts but not the result of a search without a budget.

    Each candidate (vertex, part) counts as one node, pruned or not.  A
    warm start is kept on ties.  The search stops with STOPPED when the node
    count exceeds budget.max_nodes (it then reports max_nodes + 1 nodes), or
    when the deadline has passed at a node count that is a multiple of 256;
    one threshold, the nearer of these two stop points, is tested per node.
    nq, when given, holds one qubit bitmask per vertex and lm caps each
    part's qubit count; `check_qubits` rejects one without the other.

    The search walks the tree in one loop and keeps the frame of each vertex
    on the current path in a list, so it uses O(n) memory at any depth.
    """
    budget = budget or SolveBudget()
    bound = balance_bound(g, k, eps)
    check_qubits(g, nq, lm)

    best_cut = math.inf
    best_assignment = None
    if warm is not None:
        report = validate(g, warm, k, eps)
        if not report.feasible:
            raise InvalidWarmStartError(
                "warm start partition is infeasible: " + "; ".join(report.violations))
        if nq is not None:
            for s, mask in enumerate(part_qubit_masks(nq, warm.assignment, k)):
                if mask.bit_count() > lm:
                    raise InvalidWarmStartError(
                        f"warm start part {s} exceeds qubit capacity {lm}")
        best_cut = report.cut
        best_assignment = warm.assignment

    # Vertex u owns indeg(u) + 1 slots of `tops` and `sames`; its slot j
    # holds (highest part, cost from that part) over its first j
    # predecessors in search order.  One entry per depth: (vertex,
    # weight, its last slot, total predecessor cost, weight of the vertex
    # and its descendants, ((slot j of a successor, edge cost), ...)), where
    # the vertex is that successor's j-th predecessor.
    cost = g.cost
    descendant_masks = g.descendant_masks
    order = search_order(g)
    filled = [0] * g.n  # the slot that a vertex's next predecessor reads
    slots = 0
    for v in order:
        filled[v] = slots
        slots += len(g.pred[v]) + 1
    totals = [0] * g.n
    plan = []
    for v in order:
        pushes = []
        for u in g.succ[v]:
            c = cost[(v, u)]
            pushes.append((filled[u], c))
            filled[u] += 1
            totals[u] += c
        tail = g.w[v] + g.mask_weight(descendant_masks[v])
        plan.append((v, g.w[v], filled[v], totals[v], tail, tuple(pushes)))
    n = g.n
    if n == 0:  # no vertex to assign: the empty assignment is the only leaf
        return SolveResult(OPTIMAL, Partition((), k), 0, 0)
    tops = [0] * slots
    sames = [0] * slots
    part_of = [-1] * n
    parts = min(k, n)  # the parts that can be non-empty
    part_weights = [0] * parts
    part_masks = [0] * parts if nq is not None else None
    limit = budget.max_nodes if budget.max_nodes is not None else math.inf
    deadline = (time.monotonic() + budget.max_time
                if budget.max_time is not None else None)
    # the node count at which the budget is next read: the node stop, or the
    # next multiple of 256 while a deadline is set
    check = limit + 1 if deadline is None else min(limit + 1, 256)
    monotonic = time.monotonic

    # path[d] keeps the frame of the vertex at depth d while the search is
    # below it: (part, cut_above, future, room, that part's qubit mask
    # before it).  The root vertex has no predecessors: s_min is 0 and every part is free.
    path = [None] * n
    nodes = depth = s = cut_above = child_cut = future = 0
    room = parts * bound
    v, weight, _, _, tail, pushes = plan[0]
    while True:
        if s < parts:
            nodes += 1
            if nodes >= check:
                if nodes > limit or monotonic() > deadline:
                    status = STOPPED
                    break
                check = min(limit + 1, nodes + 256)
            if (part_weights[s] + weight <= bound and tail <= room
                    and child_cut + future < best_cut
                    and (part_masks is None
                         or (part_masks[s] | nq[v]).bit_count() <= lm)):
                part_of[v] = s
                if depth + 1 == n:  # a leaf, with a cut below the incumbent's
                    best_cut = child_cut
                    best_assignment = tuple(part_of)
                else:
                    below = future
                    for j, c in pushes:  # v is a successor's j-th predecessor
                        top = tops[j]
                        same = sames[j]
                        if s > top:  # the edges from part top become cut
                            below += same
                            top = s
                            same = c
                        elif s == top:
                            same += c
                        else:
                            below += c
                        tops[j + 1] = top
                        sames[j + 1] = same
                    # every leaf below costs at least child_cut + below
                    if child_cut + below < best_cut:
                        old_mask = None
                        if part_masks is not None:
                            old_mask = part_masks[s]
                            part_masks[s] = old_mask | nq[v]
                        part_weights[s] += weight
                        path[depth] = (s, cut_above, future, room, old_mask)
                        depth += 1
                        v, weight, last, total, tail, pushes = plan[depth]
                        s_min = tops[last]
                        cut_above = child_cut + total  # the cut for any s > s_min
                        child_cut = cut_above - sames[last]
                        future = below - (total - sames[last])  # now in child_cut
                        # free room in parts >= s, for each s tried at this depth
                        room = (parts - s_min) * bound - sum(part_weights[s_min:])
                        s = s_min
                        continue
        elif depth:  # every part tried: take the vertex above out of its part
            depth -= 1
            s, cut_above, future, room, old_mask = path[depth]
            v, weight, _, _, tail, pushes = plan[depth]
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
