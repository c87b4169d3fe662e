import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

import dagpart.multilevel
from dagpart import (
    Dag,
    Partition,
    SolveBudget,
    balance_bound,
    brute_force,
    coarsen,
    edge_cut,
    multilevel_partition,
    refine_moves,
    validate,
)
from dagpart.errors import (
    BudgetExhaustedError,
    CycleDetectedError,
    InfeasibleInstanceError,
)
from dagpart.exact import branch_and_bound
from dagpart.multilevel import (
    CONTRACTIONS_PER_LEVEL,
    LEVEL_DIVISOR,
    _contraction_safe,
    initial_partition,
    uncoarsen_refine,
)

from conftest import chain, chunk_partition, diamond, layered_dag, random_dag


def _zero_heavy_dag(rng, n):
    """A random DAG on shuffled ids whose costs and weights start at 0, so
    that merges re-cost edges by 0 and merge vertices of weight 0."""
    ids = list(range(n))
    rng.shuffle(ids)
    edges = [(ids[i], ids[j], rng.randint(0, 2))
             for i in range(n) for j in range(i + 1, n) if rng.random() < 3 / n]
    return Dag([rng.randint(0, 2) for _ in range(n)], edges)


def _coarsen_cases():
    """(graph, target_n, cap): the two hand-made graphs, then 30 seeded random
    and layered DAGs, each without and with a weight cap, then 20 DAGs with
    zero costs and weights, each without a cap and with the smallest cap
    that allows a merge."""
    g2 = Dag([1, 1, 1], [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    yield diamond(), 2, None
    yield g2, 2, None
    rng = random.Random(5151)
    for idx in range(30):
        n = rng.randint(10, 60)
        g = random_dag(rng, n, p=3 / n) if idx % 2 else layered_dag(rng, n)
        target = rng.randint(2, 8)
        yield g, target, None
        yield g, target, balance_bound(g, rng.randint(2, 4), Fraction(1, 10))
    rng = random.Random(6262)
    for _ in range(20):
        g = _zero_heavy_dag(rng, rng.randint(6, 40))
        target = rng.randint(2, 6)
        yield g, target, None
        yield g, target, min((g.w[u] + g.w[v] for u, v, _ in g.edges), default=0)


def _contract(g, u, v):
    """Reference contraction: rebuild the graph with v merged into u, ids
    compacted in order; returns the coarser Dag and the old->new mapping,
    or None when the merge closes a cycle."""
    mapping, next_id = [], 0
    for i in range(g.n):
        mapping.append(next_id)
        next_id += i != v
    mapping[v] = mapping[u]
    weights = [0] * (g.n - 1)
    for i in range(g.n):
        weights[mapping[i]] += g.w[i]
    costs = {}
    for a, b, c in g.edges:
        na, nb = mapping[a], mapping[b]
        if na != nb:
            costs[(na, nb)] = costs.get((na, nb), 0) + c
    try:
        return Dag(weights, sorted((a, b, c) for (a, b), c in costs.items())), tuple(mapping)
    except CycleDetectedError:
        return None


def _first_contraction(g, cap):
    """The first edge in (-cost, u, v) order whose contraction stays under
    the cap and still builds a Dag, contracted; None if there is none."""
    for u, v, _ in sorted(g.edges, key=lambda e: (-e[2], e[0], e[1])):
        if cap is not None and g.w[u] + g.w[v] > cap:
            continue
        chosen = _contract(g, u, v)
        assert (chosen is not None) == (
            _contraction_safe(g.succ, g.topo.position, u, v) is not None)
        if chosen is not None:
            return chosen
    return None


def test_coarsen_contracts_first_acyclic_edge_under_cap():
    # oracle: merging u and v closes a cycle iff another u->v path exists, so
    # each step must contract the first edge in (-cost, u, v) order whose
    # contraction stays under the cap and still builds a Dag, as `_contract`
    # rebuilds it.  A level spans max(CONTRACTIONS_PER_LEVEL, n_above //
    # LEVEL_DIVISOR) steps, n_above being the vertex count of the level
    # above, the last one 1 to that many, and its mapping composes theirs.
    # The cases reach n = 60, so spans of 5 to 7 steps are checked too.
    spans = set()
    for g, target, cap in _coarsen_cases():
        levels = coarsen(g, target, max_weight=cap)
        current = g
        for pos, level in enumerate(levels):
            span = max(CONTRACTIONS_PER_LEVEL, current.n // LEVEL_DIVISOR)
            mapping = tuple(range(current.n))
            steps = 0
            while steps < span and current.n > target:
                chosen = _first_contraction(current, cap)
                if chosen is None:
                    break
                current, step = chosen
                mapping = tuple(step[i] for i in mapping)
                steps += 1
            if pos < len(levels) - 1:
                assert steps == span
                spans.add(span)
            assert 1 <= steps
            assert (current.w, current.edges, mapping) == (
                level.graph.w, level.graph.edges, level.mapping)
            current = level.graph
        # coarsening stopped: at the target, or no candidate left
        assert current.n <= target or _first_contraction(current, cap) is None
    assert spans >= {4, 5, 6, 7}


def test_coarsen_tests_each_candidate_once(monkeypatch):
    # with positive costs every merge that touches an edge changes its cost,
    # and a rejected (u, v, cost) stays rejected, so none is tested twice
    tested = []

    def recording(succ, position, u, v):
        tested.append((u, v, succ[u][v]))
        return _contraction_safe(succ, position, u, v)

    monkeypatch.setattr(dagpart.multilevel, "_contraction_safe", recording)
    rejected = 0
    for g, target, cap in _coarsen_pin_cases():
        tested.clear()
        levels = coarsen(g, target, max_weight=cap)
        assert len(set(tested)) == len(tested)
        rejected += len(tested) - (g.n - levels[-1].graph.n if levels else 0)
    assert rejected > 0


def test_contraction_safe_returns_what_u_reaches_before_v():
    g = Dag([1] * 5, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 4, 1), (0, 4, 1)])
    succ, position = g.succ, g.topo.position
    assert _contraction_safe(succ, position, 0, 1) == set()
    assert _contraction_safe(succ, position, 0, 3) == {1, 2}
    assert _contraction_safe(succ, position, 0, 4) is None


def test_contract_merges_weights_and_costs():
    g = Dag([1, 2, 3], [(0, 1, 4), (0, 2, 1), (1, 2, 2)])
    [level] = coarsen(g, 2)
    assert level.graph.w == (3, 3)
    assert level.mapping == (0, 0, 1)
    # parallel edges summed, self-edge dropped
    assert level.graph.edges == ((0, 1, 3),)


def _count_dags(monkeypatch) -> list:
    """Record every Dag constructed from now on, wherever it is built."""
    built = []
    init = Dag.__init__

    def counting_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(Dag, "__init__", counting_init)
    return built


def test_coarsen_builds_no_dag(monkeypatch):
    g = chain(24)
    built = _count_dags(monkeypatch)
    levels = coarsen(g, 2)
    # 22 contractions, recorded four at a time plus a tail of two
    assert len(levels) == 6
    assert built == []
    # a level's Dag is built only when it is read
    graph = levels[2].graph
    assert built == [graph]
    assert (graph.w, graph.edges) == (levels[2].w, levels[2].edges)


def test_multilevel_builds_a_dag_per_coarsest_graph_tried(monkeypatch):
    # one Dag for each coarsest graph handed to the initial solve, none for
    # the input graph or the levels that are only refined
    cases = list(_multilevel_pin_cases())
    cases.append((random_dag(random.Random(3030), 300, p=3 / 300), 4))
    built = _count_dags(monkeypatch)
    for g, k in cases:
        del built[:]
        _, info = multilevel_partition(g, k, Fraction(1, 10))
        assert len(built) == sum(info["fallbacks"].values()) + (info["levels"] > 0)


def test_coarsen_conserves_weight():
    g = chain(10)
    levels = coarsen(g, 4)
    previous = g
    for level in levels:
        assert level.graph.total_weight == previous.total_weight
        assert level.graph.n == max(previous.n - CONTRACTIONS_PER_LEVEL, 4)
        previous = level.graph
    assert levels[-1].graph.n == 4


def test_coarsen_respects_weight_cap():
    g = chain(8)
    levels = coarsen(g, 2, max_weight=2)
    assert all(w <= 2 for w in levels[-1].graph.w)
    assert levels[-1].graph.n == 4  # cap stops coarsening early


def test_coarsen_edgeless_graph_stops():
    g = Dag([1, 1, 1, 1], [])
    assert coarsen(g, 2) == []


def test_coarsen_bad_target():
    with pytest.raises(ValueError):
        coarsen(chain(4), 1)


def test_initial_partition_infeasible():
    g = Dag([3, 1], [(0, 1, 1)])
    with pytest.raises(InfeasibleInstanceError):
        initial_partition(g, 2)


def test_multilevel_chain_exact():
    # bound 4 caps clusters at weight 2, so the ten vertices pair up
    g = chain(10)
    p, info = multilevel_partition(g, 3, target_n=4)
    report = validate(g, p, 3, 0)
    assert report.feasible
    assert report.cut == brute_force(g, 3).cut == 2
    assert info["levels"] >= 1


def test_multilevel_small_graph_skips_coarsening():
    g = diamond()
    p, info = multilevel_partition(g, 2, target_n=8)
    assert info["levels"] == 0
    assert validate(g, p, 2, 0).feasible


def test_multilevel_falls_back_when_coarsest_infeasible():
    # aggressive target: the weight cap plus fallback still find a partition
    g = diamond()
    p, info = multilevel_partition(g, 2, target_n=2)
    assert validate(g, p, 2, 0).feasible


def test_multilevel_feasibility_random(rng):
    for _ in range(20):
        g = random_dag(rng, rng.randint(4, 9))
        k = rng.choice([2, 3])
        exact = brute_force(g, k, "3/10")
        if exact.status != "optimal":
            continue
        p, _ = multilevel_partition(g, k, "3/10", target_n=4)
        assert validate(g, p, k, "3/10").feasible


def test_initial_partition_budget_stop_is_not_infeasible():
    # cut 1 is feasible, but 3 nodes do not reach a first leaf
    with pytest.raises(BudgetExhaustedError):
        initial_partition(chain(4), 2, budget=SolveBudget(max_nodes=3))


def test_multilevel_budget_stop_raises_when_no_level_left():
    with pytest.raises(BudgetExhaustedError):
        multilevel_partition(chain(4), 2, budget_nodes=3)


def test_multilevel_rejects_target_below_two():
    # coarsen, which the pipeline always calls, checks target_n before any
    # contraction; a one-vertex graph gives it none to make
    with pytest.raises(ValueError, match="target_n"):
        multilevel_partition(Dag([1], []), 1, target_n=1)


def test_multilevel_rejects_negative_budget_before_coarsening(monkeypatch):
    def coarsen_must_not_run(*args, **kwargs):
        raise AssertionError("coarsen ran before the budget was checked")

    monkeypatch.setattr(dagpart.multilevel, "coarsen", coarsen_must_not_run)
    with pytest.raises(ValueError, match="budget_nodes"):
        multilevel_partition(chain(10), 2, budget_nodes=-1)


def test_uncoarsen_refine_polish_schedule(monkeypatch):
    # moves on every level, coarse to fine, then one warm-started polish, of
    # the input graph (idx 0), whose partition is returned, with 10x the budget
    coarsened, moved, polished = [], [], []

    def coarsen_spy(*args, **kwargs):
        levels = coarsen(*args, **kwargs)
        coarsened.append(levels)
        return levels

    def moves_spy(g, *args, **kwargs):
        moved.append(g)
        return refine_moves(g, *args, **kwargs)

    def bnb_spy(g, *args, **kwargs):
        if kwargs.get("warm") is not None:
            polished.append((g, kwargs["budget"].max_nodes))
        return branch_and_bound(g, *args, **kwargs)

    monkeypatch.setattr(dagpart.multilevel, "coarsen", coarsen_spy)
    monkeypatch.setattr(dagpart.multilevel, "refine_moves", moves_spy)
    monkeypatch.setattr(dagpart.multilevel, "branch_and_bound", bnb_spy)
    g = chain(24)
    p, info = multilevel_partition(g, 2, target_n=2, budget_nodes=200)
    assert validate(g, p, 2, 0).feasible
    [levels] = coarsened
    assert info["levels"] == len(levels) >= 3
    # the levels are refined as they are, without a Dag; the polish gets g
    graphs = [g] + levels
    idx_of = {id(h): idx for idx, h in enumerate(graphs)}
    assert [idx_of[id(h)] for h in moved] == list(range(len(levels) - 1, -1, -1))
    assert [(idx_of[id(h)], nodes) for h, nodes in polished] == [(0, 2000)]


def test_multilevel_polishes_input_graph_without_levels():
    # n <= target_n, so the initial solve runs on the input graph itself and
    # stops on its 1,000-node budget at cut 10; the 10,000-node final polish,
    # warm-started from it, still runs and reaches the optimum
    g = Dag([2, 2, 3, 2, 3, 3, 2, 1],
            [(0, 1, 2), (0, 4, 2), (0, 6, 3), (1, 7, 1), (2, 3, 2), (2, 4, 1),
             (2, 6, 2), (2, 7, 1), (3, 6, 3), (6, 7, 2)])
    eps = Fraction(1, 2)
    p, info = multilevel_partition(g, 4, eps)
    assert info["levels"] == 0
    assert validate(g, p, 4, eps).cut == brute_force(g, 4, eps).cut == 9


def test_polish_runs_past_recursion_limit():
    # with eps = 1 the bound is the whole chain, so the polish, warm-started
    # from a cut-1 half/half split deeper than the recursion limit, finds
    # the cut-0 partition that puts every vertex in part 0
    half = sys.getrecursionlimit()
    g = chain(2 * half)
    start = Partition((0,) * half + (1,) * half, 2)
    p = uncoarsen_refine(g, [], start, 2, eps=1)
    assert validate(g, start, 2, 1).cut == 1
    assert validate(g, p, 2, 1).cut == 0


def test_multilevel_falls_back_on_budget_stop():
    g = Dag([1, 3, 1, 3, 1, 3], [(0, 2, 1), (1, 3, 1), (1, 4, 1), (2, 5, 2)])
    p, info = multilevel_partition(g, 3, target_n=3, budget_nodes=12)
    assert info["fallbacks"] == {"infeasible": 0, "budget": 1}
    assert info["levels"] == 0
    assert validate(g, p, 3, 0).feasible


def test_multilevel_reports_infeasible_fallbacks():
    # contracting 4->5 (weight 2, half the bound 5) leaves five vertices of
    # weight 2, which no two parts of weight 5 hold
    g = Dag([2, 2, 2, 2, 1, 1], [(4, 5, 1)])
    p, info = multilevel_partition(g, 2, target_n=2)
    assert info["fallbacks"] == {"infeasible": 1, "budget": 0}
    assert info["levels"] == 0
    assert validate(g, p, 2, 0).feasible


def test_multilevel_scale_levels_and_feasibility():
    # levels shrink the graph geometrically: 19 levels here, where a level
    # every four contractions made 463.  The pass must also return a
    # partition, whatever coarsest graph its fallbacks end on.
    g = random_dag(random.Random(0), 2000, p=3 / 2000)
    eps = Fraction(1, 10)
    levels = coarsen(g, 8, max_weight=balance_bound(g, 4, eps) // 2)
    assert len(levels) <= 30
    p, _ = multilevel_partition(g, 4, eps)
    assert validate(g, p, 4, eps).feasible


def _refine_cases():
    """40 (graph, k, eps, start) cases: seeded random and layered DAGs, each
    started from consecutive topological chunks."""
    rng = random.Random(4242)
    cases = []
    while len(cases) < 40:
        n = rng.randint(20, 80)
        g = (random_dag(rng, n, p=3 / n) if len(cases) % 2
             else layered_dag(rng, n))
        k = rng.randint(2, 4)
        eps = Fraction(1, 10)
        start = chunk_partition(g, k, eps)
        if start is not None:
            cases.append((g, k, eps, start))
    return cases


def test_refine_moves_keeps_feasibility_and_lowers_cut():
    moved = 0
    for g, k, eps, start in _refine_cases():
        bound = balance_bound(g, k, eps)
        part = refine_moves(g, start.assignment, k, bound)
        p = Partition(part, k)
        assert validate(g, p, k, eps).feasible
        assert edge_cut(g, p) <= edge_cut(g, start)
        assert all(part[u] <= part[v] for u, v, _ in g.edges)
        assert refine_moves(g, part, k, bound) == part
        moved += part != start.assignment
    assert moved > 0


def test_refine_moves_rejects_non_topological_numbering():
    g = chain(4)
    with pytest.raises(ValueError):
        refine_moves(g, (1, 1, 0, 0), 2, 2)


def test_refine_moves_takes_lowest_part_on_ties():
    # vertex 2 alone in part 1 gains 1 in part 0 and 1 in part 2; the heavy
    # edges 0->1 and 3->4 keep their ends in place
    g = Dag([1] * 5, [(0, 1, 5), (1, 2, 1), (2, 3, 1), (3, 4, 5)])
    assert refine_moves(g, (0, 0, 1, 2, 2), 3, 3) == (0, 0, 0, 2, 2)


def test_refine_moves_takes_zero_gain_moves():
    # every move from the start gains 0 or has no room: vertex 3 cannot join
    # part 1, which is full.  Moving 0 and 1 to part 0 makes room in part 2
    # for vertex 2, which then joins 3 and cuts nothing.  Strictly positive
    # moves alone leave the start, cut 3, as it is.
    g = Dag([1] * 4, [(2, 3, 3)])
    start = Partition((1, 2, 1, 2), 3)
    assert edge_cut(g, start) == 3
    p = Partition(refine_moves(g, start.assignment, 3, 2), 3)
    assert edge_cut(g, p) == 0
    assert validate(g, p, 3, Fraction(1, 2)).feasible


def test_refine_moves_is_deterministic():
    for g, k, eps, start in _refine_cases():
        bound = balance_bound(g, k, eps)
        part = start.assignment
        assert refine_moves(g, part, k, bound) == refine_moves(g, part, k, bound)


def test_projection_keeps_the_cut():
    # a coarse edge's cost sums the fine edges it stands for, and a
    # contracted edge lies inside one cluster, so pulling any partition of a
    # coarse graph back through a level's mapping cuts the same cost
    rng = random.Random(3131)
    for idx in range(40):
        n = rng.randint(10, 80)
        g = random_dag(rng, n, p=3 / n) if idx % 2 else layered_dag(rng, n)
        levels = coarsen(g, rng.randint(2, 8))
        assert levels
        graphs = [g] + [level.graph for level in levels]
        k = rng.randint(2, 4)
        part = tuple(rng.randrange(k) for _ in range(graphs[-1].n))
        cut = edge_cut(graphs[-1], Partition(part, k))
        for pos in range(len(levels) - 1, -1, -1):
            mapping = levels[pos].mapping
            # coarsen's mapping covers the finer graph and lands in the level
            assert len(mapping) == graphs[pos].n
            assert all(0 <= c < levels[pos].graph.n for c in mapping)
            part = tuple(part[c] for c in mapping)
            assert edge_cut(graphs[pos], Partition(part, k)) == cut


# --- pinned coarsening levels ----------------------------------------------
# sha256 over every level's (w, edges, mapping) that `coarsen` returns on
# seeded random and id-shuffled layered DAGs, each without and with a weight
# cap.  A rewrite of the contraction must keep the levels, their vertex
# numbering and their edge order.  Each level's Dag is built too, and must
# hold the same weights and edges in the same order.

def _coarsen_pin_cases():
    rng = random.Random(7373)
    for idx in range(20):
        n = rng.randint(12, 90)
        g = random_dag(rng, n, p=3 / n) if idx % 2 else layered_dag(rng, n)
        target = rng.randint(2, 10)
        yield g, target, None
        yield g, target, balance_bound(g, rng.randint(2, 4), Fraction(1, 10))


COARSEN_PIN_SHA256 = "6c84c051600ba07e3e218e4c9ccc637f3abefc778a29f29d9d925d3bdb06a648"


def test_coarsen_levels_pinned():
    digest = hashlib.sha256()
    cases = levels = 0
    for g, target, cap in _coarsen_pin_cases():
        for level in coarsen(g, target, max_weight=cap):
            assert (level.w, level.edges) == (level.graph.w, level.graph.edges)
            digest.update(repr((level.w, level.edges, level.mapping)).encode())
            levels += 1
        digest.update(b"|")
        cases += 1
    assert (cases, levels) == (40, 374)
    assert digest.hexdigest() == COARSEN_PIN_SHA256


# --- pinned pipeline outputs -----------------------------------------------
# sha256 over (assignment, info) of multilevel_partition on seeded graphs.
# Coarsening, the initial solve, the moves and the polish all reach these
# values, so a rewrite of any of them that changes results shows up here.

def _multilevel_pin_cases():
    rng = random.Random(9090)
    for n in (30, 60, 90, 120):
        for g in (random_dag(rng, n, p=3 / n), layered_dag(rng, n)):
            for k in (2, 4):
                yield g, k


MULTILEVEL_PIN_SHA256 = "2ff44675ce05bb1609cc8b998eeca8c5479a9ca42743026247fed527db7cd023"


def test_multilevel_outputs_pinned():
    digest = hashlib.sha256()
    count = 0
    for g, k in _multilevel_pin_cases():
        p, info = multilevel_partition(g, k, Fraction(1, 10))
        digest.update(repr((p.assignment, json.dumps(info, sort_keys=True))).encode())
        count += 1
    assert count == 16
    assert digest.hexdigest() == MULTILEVEL_PIN_SHA256


def test_multilevel_pin_cases_cut_sum():
    # 626 is the sum when every level was polished; a later re-pin of the
    # hash above cannot hide a cut regression past it
    total = 0
    for g, k in _multilevel_pin_cases():
        p, _ = multilevel_partition(g, k, Fraction(1, 10))
        report = validate(g, p, k, Fraction(1, 10))
        assert report.feasible
        total += report.cut
    assert total <= 626
