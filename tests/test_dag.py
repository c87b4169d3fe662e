import random

import pytest

from dagpart import Dag, Partition, quotient_graph
from dagpart.dag import mask_vertices
from dagpart.errors import (
    CycleDetectedError,
    DuplicateEdgeError,
    PartitionArityMismatchError,
    SelfLoopError,
)

from conftest import chain, diamond


def test_basic_properties():
    g = diamond()
    assert g.n == 4
    assert g.m == 4
    assert g.total_weight == 4
    assert g.total_cost == 4
    assert g.succ[0] == (1, 2)
    assert g.pred[3] == (1, 2)
    assert g.cost[(0, 1)] == 1


def test_topo_order_deterministic_min_id():
    g = Dag([1, 1, 1], [(2, 0, 1), (2, 1, 1)])
    assert g.topo.order == (2, 0, 1)
    assert g.topo.position[2] == 0


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        Dag([1, 1], [(0, 0, 1)])


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        Dag([1, 1], [(0, 1, 1), (0, 1, 2)])


def test_cycle_rejected_with_witness():
    with pytest.raises(CycleDetectedError) as exc:
        Dag([1, 1, 1], [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    cycle = exc.value.cycle
    assert sorted(cycle) == [0, 1, 2]


def test_bad_endpoint_and_weight():
    with pytest.raises(ValueError):
        Dag([1, 1], [(0, 5, 1)])
    with pytest.raises(ValueError):
        Dag([1, -1], [])


def test_non_integral_weight_and_cost_rejected():
    with pytest.raises(ValueError, match="weight 0.5 at vertex 0"):
        Dag([0.5, 0.5, 1.9], [(0, 1, 2), (1, 2, 1)])
    with pytest.raises(ValueError, match=r"edge \(0, 1, 2.7\)"):
        Dag([1, 1, 2], [(0, 1, 2.7), (1, 2, 0.9)])
    # integral values of another type are kept as ints
    g = Dag([2.0, 1], [(0, 1, 3.0)])
    assert g.w == (2, 1) and g.edges == ((0, 1, 3),)
    assert all(type(x) is int for x in g.w + g.edges[0])


def test_reachability():
    g = diamond()
    assert g.descendants(0) == frozenset({1, 2, 3})
    assert g.ancestors(3) == frozenset({0, 1, 2})
    assert g.path_nodes(0, 3) == frozenset({1, 2})
    assert g.path_nodes(1, 2) == frozenset()
    assert g.path_nodes(0, 0) == frozenset()


def test_quotient_graph_acyclic():
    g = chain(4)
    q = quotient_graph(g, Partition((0, 0, 1, 1), 2))
    assert q.is_acyclic
    assert q.edge_costs == {(0, 1): 1}
    assert q.total_edge_cost == 1
    assert q.weights == (2, 2)


def test_quotient_graph_cycle_detected():
    g = Dag([1, 1, 1, 1], [(0, 3, 1), (1, 2, 1)])
    q = quotient_graph(g, Partition((0, 1, 0, 1), 2))
    assert not q.is_acyclic
    cycle = q.find_cycle()
    assert cycle is not None
    assert sorted(set(cycle)) == [0, 1]


def test_quotient_arity_mismatch():
    with pytest.raises(PartitionArityMismatchError):
        quotient_graph(chain(3), Partition((0, 1), 2))


def test_edge_cost_aggregation_in_quotient():
    g = Dag([1, 1, 1], [(0, 1, 2), (0, 2, 3), (1, 2, 5)])
    q = quotient_graph(g, Partition((0, 0, 1), 2))
    assert q.edge_costs == {(0, 1): 8}


def _dfs_reach(n, adjacency, u):
    """Reference: plain DFS over adjacency lists, u itself excluded."""
    seen, stack = set(), [u]
    while stack:
        for b in adjacency[stack.pop()]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return frozenset(seen)


@pytest.mark.parametrize("n, p", [(9, 0.5), (40, 0.1), (70, 0.08), (130, 0.04)])
def test_bitset_reachability_matches_dfs(n, p):
    rng = random.Random(n)
    order = list(range(n))
    rng.shuffle(order)   # vertex ids not in topological order
    edges = [(order[a], order[b], 1) for a in range(n) for b in range(a + 1, n)
             if rng.random() < p]
    g = Dag([1] * n, edges)
    succ = [[v for u, v, _ in edges if u == x] for x in range(n)]
    pred = [[u for u, v, _ in edges if v == x] for x in range(n)]
    desc = [_dfs_reach(n, succ, u) for u in range(n)]
    anc = [_dfs_reach(n, pred, u) for u in range(n)]
    for u in range(n):
        assert g.descendants(u) == desc[u]
        assert g.ancestors(u) == anc[u]
    for _ in range(300):
        u, v = rng.randrange(n), rng.randrange(n)
        expected = frozenset() if u == v else desc[u] & anc[v]
        assert g.path_nodes(u, v) == expected


def test_reachability_rejects_bad_vertex():
    g = chain(3)
    for query in (lambda: g.descendants(3), lambda: g.ancestors(-1),
                  lambda: g.path_nodes(0, 5)):
        with pytest.raises(ValueError):
            query()


@pytest.mark.parametrize("n", [1, 9, 64, 300])
@pytest.mark.parametrize("max_w", [0, 1, 5, 2 ** 20])
def test_mask_weight_matches_plain_sum(n, max_w):
    # max_w 0 gives all-zero weights, so the weight has no bit planes at all
    rng = random.Random(n * 31 + max_w)
    g = Dag([rng.randint(0, max_w) for _ in range(n)], [])
    full = (1 << n) - 1
    masks = [0, full, 1, 1 << (n - 1)] + [rng.getrandbits(n) for _ in range(50)]
    for mask in masks:
        assert g.mask_weight(mask) == sum(g.w[v] for v in mask_vertices(mask))
