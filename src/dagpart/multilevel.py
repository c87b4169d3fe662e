"""Multilevel pipeline: acyclicity-safe coarsening, exact initial partitioning,
projection, and per-level refinement.

Coarsening contracts one edge (u, v) at a time, and only when no other u->v
path exists, so every coarse graph, and hence the quotient of every
projected partition, stays acyclic.  It pops the heaviest candidate from a
lazy heap and drops a rejected one for good, since a rejected edge stays
rejected until a merge re-costs it, which pushes it again.  It merges v
into u in place, keeping a topological order by reordering the vertices
between u and v, and records a level as plain weight and edge tuples.  A
level spans max(CONTRACTIONS_PER_LEVEL, n // LEVEL_DIVISOR) contractions,
where n counts the vertices of the level above, so the graphs shrink
geometrically and an n-vertex input gives O(log n) levels, not n / 4.  The
pipeline caps a cluster's weight at half the balance bound, which leaves
the coarsest graph room to pack.  A level's `Dag` is built only when it is
read: the pipeline reads it only for each coarsest graph that it hands to
branch and bound.  Uncoarsening projects a tuple of part ids, one lookup
per vertex, and refines it by Fiduccia-Mattheyses passes that keep the part
numbering topological (`refine_moves`), which read only weights and edges.
Only the input graph, whose partition is returned, is then polished by a
warm-started branch and bound of FINEST_POLISH_FACTOR times the budget.

Neither the levels between the input and the coarsest graph nor the
mappings that `coarsen` made are checked at run time.  The output still
is: `refine_moves` raises ValueError on a part numbering that is not
topological at every level, and the final polish validates its warm start,
the pass's one `Partition`, on the input graph before it searches.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import chain
from typing import NamedTuple, Sequence

from .dag import Dag
from .errors import BudgetExhaustedError, InfeasibleInstanceError
from .exact import INFEASIBLE, SolveBudget, branch_and_bound
from .partition import Partition, balance_bound

DEFAULT_REFINE_BUDGET = 1_000
# One-edge contractions make graphs that differ by one vertex, so a level
# spans max(CONTRACTIONS_PER_LEVEL, n // LEVEL_DIVISOR) of them, n being the
# vertex count of the level above: an eighth of the graph per level, and
# four steps below 40 vertices, where the fallbacks step back a level.  The
# one branch-and-bound polish, of the input graph, gets FINEST_POLISH_FACTOR
# times the initial solve's node budget; the cut rose without it.
CONTRACTIONS_PER_LEVEL = 4
LEVEL_DIVISOR = 8
FINEST_POLISH_FACTOR = 10


class CoarseningLevel(NamedTuple):
    """A coarser graph, as its weights and its sorted edges, plus the
    fine->coarse mapping of the steps it spans."""

    w: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    mapping: tuple[int, ...]

    @property
    def graph(self) -> Dag:
        """The level as a validated `Dag`, built anew on each access."""
        return Dag(self.w, self.edges)


def _contraction_safe(succ, position, u: int, v: int) -> set[int] | None:
    """Contracting edge (u, v) is safe iff no u->v path survives without it.

    Returns None when another u->v path exists, and otherwise the vertices
    that u reaches before v in the topological order.  The search never
    enters a vertex placed after v, since none can reach v; when v directly
    follows u it has nothing to visit.
    """
    last = position[v]
    seen = set()
    stack = [w for w in succ[u] if position[w] < last]
    while stack:
        a = stack.pop()
        if a in seen:
            continue
        seen.add(a)
        for b in succ[a]:
            if b == v:
                return None
            if position[b] < last:
                stack.append(b)
    return seen


def coarsen(g: Dag, target_n: int,
            max_weight: int | None = None) -> list[CoarseningLevel]:
    """Contract heavy edges one at a time while preserving acyclicity.

    Each step contracts the first edge in (-cost, u, v) order that
    `_contraction_safe` accepts and, with max_weight set, that does not
    make a vertex heavier than the cap, so the coarsest graph stays
    partitionable under the balance bound.  Stops at target_n vertices or
    when no such edge remains.

    The candidates sit in a min-heap of (-cost, u, v) entries.  A step pops
    entries until one is still live (u->v still costs what the entry says)
    and passes both tests; a popped entry that fails is dropped for good.
    That is exact: weights only grow, so a vertex over the cap stays over
    it, and another u->v path survives every merge unless its interior
    joins u or v, which adds its edge cost to (u, v).  Every merge pushes
    an entry for each edge it creates or re-costs, a re-cost by 0 included,
    so such an edge is tested again.

    Contraction works in place: a cluster keeps the id of the endpoint u it
    was merged into, along with its weight, its successor costs, its
    predecessors and its place in a topological order.  Moving v's edges
    to u visits only v's neighbours, but a merge still costs O(n), since it
    rewrites the positions after u.  A merge only records that v went into
    u; each vertex of the level above follows these links to its cluster
    once, when the level is recorded.  Sorting the clusters by id numbers
    them as a rebuilt graph would, since merging v into u keeps the relative
    order of the other ids.  A level is recorded once it spans
    max(CONTRACTIONS_PER_LEVEL, n // LEVEL_DIVISOR) steps, n being the
    vertex count of the level above, and once more for a shorter tail, as
    the clusters' weights and their renumbered, sorted edges; no `Dag` is
    built here (see `CoarseningLevel.graph`).
    A level's mapping sends each vertex of the level above to its cluster.
    """
    if target_n < 2:
        raise ValueError(f"target_n must be >= 2, got {target_n}")
    weight = list(g.w)
    succ = [{b: g.cost[(a, b)] for b in g.succ[a]} for a in range(g.n)]
    pred = [set(g.pred[b]) for b in range(g.n)]
    order = list(g.topo.order)
    position = list(g.topo.position)
    above = list(range(g.n))  # the vertices of the level above
    into = list(range(g.n))  # the vertex each merged vertex went into
    levels: list[CoarseningLevel] = []
    heap = [(-cost, a, b) for a, b, cost in g.edges]
    heapify(heap)

    def cluster(c: int) -> int:
        while into[c] != c:
            into[c] = into[into[c]]  # path halving
            c = into[c]
        return c

    def record() -> None:
        ids = sorted(order)
        index = {c: i for i, c in enumerate(ids)}
        levels.append(CoarseningLevel(
            tuple(weight[c] for c in ids),
            tuple(sorted((index[a], index[b], cost)
                         for a in ids for b, cost in succ[a].items())),
            tuple(index[cluster(c)] for c in above)))
        above[:] = ids

    while len(order) > target_n:
        while heap:
            key, u, v = heappop(heap)
            if (succ[u].get(v) == -key
                    and (max_weight is None or weight[u] + weight[v] <= max_weight)
                    and (reached := _contraction_safe(succ, position, u, v)) is not None):
                break
        else:
            break
        # merge v into u: u takes v's weight and its in- and out-edges
        weight[u] += weight[v]
        del succ[u][v]
        pred[v].discard(u)
        for a in pred[v]:
            cost = succ[a].get(u, 0) + succ[a].pop(v)
            succ[a][u] = cost
            pred[u].add(a)
            heappush(heap, (-cost, a, u))
        for b, cost in succ[v].items():
            cost += succ[u].get(b, 0)
            succ[u][b] = cost
            pred[b].discard(v)
            pred[b].add(u)
            heappush(heap, (-cost, u, b))
        succ[v] = {}  # so v's entries read as stale
        # Between u and v, the vertices u does not reach come first, then
        # the merged u, then the ones it reaches.  Nothing u reaches leads
        # back to the others or to v, so the order stays topological.
        first, last = position[u], position[v]
        window = order[first + 1:last]
        order[first:last + 1] = ([a for a in window if a not in reached] + [u]
                                 + [a for a in window if a in reached])
        for pos in range(first, len(order)):
            position[order[pos]] = pos
        into[v] = u
        # each step removes one vertex
        if len(above) - len(order) == max(CONTRACTIONS_PER_LEVEL,
                                          len(above) // LEVEL_DIVISOR):
            record()
    if len(above) > len(order):
        record()
    return levels


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


def refine_moves(g: Dag | CoarseningLevel, part: Sequence[int], k: int,
                 bound: int) -> tuple[int, ...]:
    """Fiduccia-Mattheyses passes that keep part(u) <= part(v) on every edge.

    Vertex v may go to any part q between lo, the largest part among its
    predecessors, and hi, the smallest among its successors, so the part
    numbering stays topological and the quotient graph acyclic.  Its best
    move is to the q != part(v) in that window with room under bound and
    the largest gain in cost to its neighbours, which may be negative; the
    lowest q on ties.

    A pass pops moves from a heap of (-gain, v, q, stamp) entries; scoring
    v again bumps its stamp, so older entries are dropped.  A current entry
    is scored again before it is applied, since other moves change the
    loads, and when v's best move has changed, that move is pushed in its
    place.  A moved vertex is locked for the rest of the pass, and only its
    unlocked neighbours are scored again.  The pass then rolls back to its
    best prefix of moves, the earliest on ties.  Passes repeat until one
    gains nothing, so every pass but the last lowers the cut.  `part` holds
    one part id per vertex, and the moved ids are returned as a tuple.
    Raises ValueError unless its numbering is topological to begin with.
    Only g's weights `w` and edges are read, so g may be a `CoarseningLevel`.
    """
    part = list(part)
    n = len(g.w)
    preds = [[] for _ in range(n)]
    succs = [[] for _ in range(n)]
    for u, v, c in g.edges:
        if part[u] > part[v]:
            raise ValueError(f"edge ({u},{v}) runs from part {part[u]} back to "
                             f"part {part[v]}: the part numbering is not topological")
        succs[u].append((v, c))
        preds[v].append((u, c))
    weight = g.w
    loads = [0] * k
    for v, s in enumerate(part):
        loads[s] += weight[v]
    top = k - 1

    def best_move(v: int) -> tuple[int, int] | None:
        """(gain, q) of v's best move, or None when no part in its window
        has room."""
        lo, hi = 0, top
        conn = [0] * k
        for u, c in preds[v]:
            s = part[u]
            conn[s] += c
            if s > lo:
                lo = s
        for u, c in succs[v]:
            s = part[u]
            conn[s] += c
            if s < hi:
                hi = s
        here, room = part[v], bound - weight[v]
        best = None
        for q in range(lo, hi + 1):
            if q != here and loads[q] <= room:
                gain = conn[q] - conn[here]
                if best is None or gain > best[0]:
                    best = (gain, q)
        return best

    while True:
        stamp = [0] * n
        locked = [False] * n
        heap = []
        for v in range(n):
            if (move := best_move(v)) is not None:
                heap.append((-move[0], v, move[1], 0))
        heapify(heap)
        moves = []  # (vertex, part it left), in the order applied
        total = best_total = best_len = 0
        while heap:
            key, v, q, mark = heappop(heap)
            if locked[v] or mark != stamp[v]:
                continue
            move = best_move(v)
            if move != (-key, q):
                if move is not None:
                    heappush(heap, (-move[0], v, move[1], mark))
                continue
            here = part[v]
            part[v] = q
            loads[here] -= weight[v]
            loads[q] += weight[v]
            locked[v] = True
            moves.append((v, here))
            total -= key
            if total > best_total:
                best_total, best_len = total, len(moves)
            for u, _ in chain(preds[v], succs[v]):
                if not locked[u]:
                    stamp[u] += 1
                    if (move := best_move(u)) is not None:
                        heappush(heap, (-move[0], u, move[1], stamp[u]))
        for v, here in reversed(moves[best_len:]):
            loads[part[v]] -= weight[v]
            loads[here] += weight[v]
            part[v] = here
        if not best_len:
            return tuple(part)


def uncoarsen_refine(g: Dag, levels: list[CoarseningLevel],
                     coarse_partition: Partition, k: int, eps=0,
                     budget_nodes: int = DEFAULT_REFINE_BUDGET) -> Partition:
    """Project a tuple of part ids level by level, one lookup per vertex
    through each mapping, and refine it on each finer graph by
    `refine_moves`; then polish the input graph g, whose partition is
    returned, by branch and bound warm-started from the moved ids, the one
    `Partition` the pass builds.

    Only that one polish runs, capped at FINEST_POLISH_FACTOR times
    budget_nodes nodes, and it runs even when levels is empty.  Polishing
    every level as well made most of the search calls and lowered the cut
    in few of them; dropping the final polish too left the cut higher.

    coarse_partition must number its parts topologically, as
    `branch_and_bound` does; projection keeps that numbering.
    """
    bound = balance_bound(g, k, eps)
    graphs = [g] + levels
    part = coarse_partition.assignment
    for idx in range(len(levels) - 1, -1, -1):
        part = refine_moves(graphs[idx], [part[c] for c in levels[idx].mapping],
                            k, bound)
    # a warm-started search always returns a partition, at worst the warm one
    return branch_and_bound(g, k, eps, warm=Partition(part, k), budget=SolveBudget(
        max_nodes=budget_nodes * FINEST_POLISH_FACTOR)).partition


def multilevel_partition(g: Dag, k: int, eps=0, target_n: int = 8,
                         budget_nodes: int = DEFAULT_REFINE_BUDGET):
    """Full pipeline; returns (partition, info dict with level statistics).

    info["levels"] counts the refined levels, not the contractions.  A failed
    initial solve steps back one level; info["fallbacks"] counts these steps
    by reason: "infeasible" (proven) or "budget" (the search ran out first).
    When even the input graph fails, the last error is raised.  A negative
    budget_nodes, or target_n below 2 (`coarsen`), raises ValueError first.
    """
    if budget_nodes < 0:
        raise ValueError(f"budget_nodes must be non-negative, got {budget_nodes}")
    # Clusters of at most half the balance bound leave the coarsest graph
    # room to pack; the full bound still governs every search and every move.
    levels = coarsen(g, target_n, max_weight=balance_bound(g, k, eps) // 2)
    # The cap keeps the coarsest graph partitionable in the common
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
