"""Built-in exact solvers: a brute-force oracle and a topological branch-and-bound."""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product

from .dag import Dag, part_order
from .errors import InvalidKError, InvalidWarmStartError, TooLargeError
from .partition import Partition, balance_bound, validate

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
STOPPED = "stopped"

BRUTE_FORCE_GUARD_BITS = 24


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


def brute_force(g: Dag, k: int, eps=0, nq=None, lm: int | None = None,
                guard_bits: int = BRUTE_FORCE_GUARD_BITS) -> SolveResult:
    """Enumerate all k^n assignments and return the minimum feasible cut.

    This is the independent oracle: feasibility is checked directly from
    the definitions (balance, quotient acyclicity, qubit capacity), not via
    any search-space restriction; nq, when given, holds one qubit bitmask
    per vertex and lm caps each part's qubit count.  Lexicographically
    smallest assignment wins ties.
    """
    if k < 1:
        raise InvalidKError(f"k must be >= 1, got {k}")
    if k > 1 and g.n * (k - 1).bit_length() > guard_bits:
        raise TooLargeError(f"k^n too large to enumerate (n={g.n}, k={k})")
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
    may only take a part index at least the maximum index among its
    predecessors.  Every acyclic partition admits a topologically sorted
    part numbering, so the restriction loses no optimum while collapsing
    part-relabeling symmetry.
    """
    if k < 1:
        raise InvalidKError(f"k must be >= 1, got {k}")
    budget = budget or SolveBudget()
    bound = balance_bound(g, k, eps)

    best_cut = None
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

    order = g.topo.order
    pred = g.pred
    cost = g.cost
    weights = g.w
    part_of = [-1] * g.n
    part_weights = [0] * k
    part_masks = [0] * k if nq is not None else None
    nodes = 0
    stopped = False
    deadline = (time.monotonic() + budget.max_time
                if budget.max_time is not None else None)

    def over_budget() -> bool:
        if budget.max_nodes is not None and nodes > budget.max_nodes:
            return True
        if deadline is not None and nodes % 256 == 0 and time.monotonic() > deadline:
            return True
        return False

    def descend(depth: int, cut: int) -> None:
        nonlocal best_cut, best_assignment, nodes, stopped
        if stopped:
            return
        if depth == g.n:
            if best_cut is None or cut < best_cut:
                best_cut = cut
                best_assignment = tuple(part_of)
            return
        v = order[depth]
        s_min = 0
        added = {}
        for u in pred[v]:
            if part_of[u] > s_min:
                s_min = part_of[u]
        for s in range(s_min, k):
            nodes += 1
            if over_budget():
                stopped = True
                return
            if part_weights[s] + weights[v] > bound:
                continue
            new_cut = cut
            for u in pred[v]:
                if part_of[u] != s:
                    new_cut += cost[(u, v)]
            if best_cut is not None and new_cut >= best_cut:
                continue
            if part_masks is not None:
                new_mask = part_masks[s] | nq[v]
                if new_mask.bit_count() > lm:
                    continue
                added[s] = part_masks[s]
                part_masks[s] = new_mask
            part_of[v] = s
            part_weights[s] += weights[v]
            descend(depth + 1, new_cut)
            part_weights[s] -= weights[v]
            part_of[v] = -1
            if part_masks is not None:
                part_masks[s] = added[s]
            if stopped:
                return

    descend(0, 0)

    if stopped:
        partition = (Partition(best_assignment, k)
                     if best_assignment is not None else None)
        return SolveResult(STOPPED, partition, best_cut, nodes)
    if best_assignment is None:
        return SolveResult(INFEASIBLE, None, None, nodes)
    return SolveResult(OPTIMAL, Partition(best_assignment, k), best_cut, nodes)
