import hashlib
import random
import sys
from fractions import Fraction

import pytest

from dagpart import (
    Dag,
    INFEASIBLE,
    OPTIMAL,
    Partition,
    STOPPED,
    SolveBudget,
    branch_and_bound,
    brute_force,
    validate,
)
from dagpart.errors import InvalidKError, InvalidWarmStartError, TooLargeError
from dagpart.exact import search_order

from conftest import chain, chunk_partition, diamond, layered_dag, random_dag


def test_brute_force_chain():
    result = brute_force(chain(4), 2)
    assert result.status == OPTIMAL
    assert result.cut == 1
    assert result.partition.assignment == (0, 0, 1, 1)


def test_brute_force_lexicographic_tie_break():
    # single vertex pairs: both (0,1) and renamings cut 1; smallest wins
    result = brute_force(chain(2), 2)
    assert result.partition.assignment == (0, 1)


def test_brute_force_infeasible():
    result = brute_force(Dag([3, 1], [(0, 1, 1)]), 2)
    assert result.status == INFEASIBLE
    assert result.partition is None and result.cut is None


def test_brute_force_guard():
    g = Dag([1] * 30, [])
    with pytest.raises(TooLargeError):
        brute_force(g, 2)


def test_bnb_solves_past_recursion_limit():
    # the search keeps its path in a list, so depth is bounded by memory
    # only; the first dive puts the chain in part 0 and backtracks from the
    # tail, one vertex at a time, until the bound lets part 1 in
    g = chain(3 * sys.getrecursionlimit())
    result = branch_and_bound(g, 2, budget=SolveBudget(max_nodes=5000))
    assert result.status == OPTIMAL
    assert result.cut == 1
    assert result.nodes_explored == 4501
    assert validate(g, result.partition, 2, 0).cut == 1
    # a budget stop in the middle of the first dive leaves no partition
    stopped = branch_and_bound(g, 2, budget=SolveBudget(max_nodes=100))
    assert stopped.status == STOPPED
    assert stopped.nodes_explored == 101
    assert stopped.partition is None and stopped.cut is None


def test_bnb_empty_graph():
    # no vertex to assign: the empty assignment is optimal, found without a node
    result = branch_and_bound(Dag([], []), 2)
    assert (result.status, result.partition, result.cut,
            result.nodes_explored) == (OPTIMAL, Partition((), 2), 0, 0)


def test_brute_force_k1():
    result = brute_force(diamond(), 1)
    assert result.status == OPTIMAL and result.cut == 0


def test_invalid_k():
    with pytest.raises(InvalidKError):
        brute_force(chain(2), 0)
    with pytest.raises(InvalidKError):
        branch_and_bound(chain(2), 0)


def test_search_order_is_topological():
    rng = random.Random(3131)
    for idx in range(50):
        n = rng.randint(1, 30)
        g = random_dag(rng, n, p=0.3, max_c=9) if idx % 2 else layered_dag(rng, n)
        order = search_order(g)
        assert sorted(order) == list(range(n))
        position = {v: i for i, v in enumerate(order)}
        assert all(position[u] < position[v] for u, v, _ in g.edges)


def test_search_order_tie_breaks():
    g = Dag([1] * 5, [(0, 3, 1), (1, 4, 2), (2, 4, 2)])
    # 0, 1 and 2 are ready first, none with an in-edge cost: 0 loses on
    # out-edge cost (1 against 2), and 1 beats 2, whose costs equal its own,
    # on topological position.  2 then beats 0 on out-edge cost, and 4, now
    # ready, beats 0 on in-edge cost (4 against 0).
    assert search_order(g) == [1, 2, 4, 0, 3]
    assert g.topo.order == (0, 1, 2, 3, 4)


def test_bnb_more_parts_than_vertices():
    # at most n parts can be non-empty, so k = 1,000 searches only the
    # first 4 parts, as k = 4 does (B is 1 in both cases)
    g = diamond()
    small = branch_and_bound(g, 4)
    large = branch_and_bound(g, 1000)
    assert (large.status, large.cut) == (OPTIMAL, 4)
    assert large.nodes_explored == small.nodes_explored
    assert large.partition.k == 1000
    assert validate(g, large.partition, 1000, 0).cut == 4


def test_bnb_more_parts_than_vertices_matches_brute():
    # k from n + 1 to n + 3; at n = 6 only k = 7, since the oracle's 9^6
    # assignments alone take about a second
    rng = random.Random(6464)
    statuses = []
    for idx in range(30):
        n = 2 + idx % 5
        g = random_dag(rng, n, p=0.5) if idx % 2 else layered_dag(rng, n)
        for k in range(n + 1, n + 4 if n < 6 else n + 2):
            eps = rng.choice([0, Fraction(1, 2), 1])
            a = brute_force(g, k, eps)
            b = branch_and_bound(g, k, eps)
            assert (b.status, b.cut) == (a.status, a.cut)
            if b.status == OPTIMAL:
                assert b.partition.k == k
                assert validate(g, b.partition, k, eps).cut == b.cut
            statuses.append(b.status)
    assert statuses.count(INFEASIBLE) >= 10 and statuses.count(OPTIMAL) >= 10


def test_bnb_matches_brute_on_random(rng):
    for _ in range(60):
        g = random_dag(rng, rng.randint(2, 7))
        k = rng.choice([2, 3])
        eps = rng.choice([0, "3/10"])
        a = brute_force(g, k, eps)
        b = branch_and_bound(g, k, eps)
        assert a.status == b.status
        if a.status == OPTIMAL:
            assert a.cut == b.cut
            assert validate(g, b.partition, k, eps).feasible


def _heavy_dags(rng):
    """Seeded random and layered DAGs, n 6-10, with weights 1-5 so that a
    vertex's descendants weigh much of the total; n is capped per k to keep
    the k^n oracle fast."""
    for idx in range(80):
        k = 2 + idx % 3
        n = rng.randint(6, {2: 10, 3: 9, 4: 8}[k])
        if idx % 2:
            g = random_dag(rng, n, p=rng.choice([0.2, 0.4, 0.6]), max_w=5)
        else:
            shape = layered_dag(rng, n)
            g = Dag([rng.randint(1, 5) for _ in range(n)], shape.edges)
        yield g, k


def test_bnb_descendant_room_prune_matches_brute():
    rng = random.Random(4242)
    statuses = []
    for g, k in _heavy_dags(rng):
        for eps in (0, Fraction(1, 10)):
            a = brute_force(g, k, eps)
            b = branch_and_bound(g, k, eps)
            assert (b.status, b.cut) == (a.status, a.cut)
            if b.status == OPTIMAL:
                assert validate(g, b.partition, k, eps).cut == b.cut
            statuses.append(b.status)
    # the oracle must see both proofs of infeasibility and optima
    assert statuses.count(INFEASIBLE) >= 10 and statuses.count(OPTIMAL) >= 10


def _costly_dags(rng):
    """Seeded random and layered DAGs, n 5-9, with edge costs 1-9, so that
    the cut still to come from placed predecessors varies from vertex to
    vertex; n is capped per k to keep the k^n oracle fast."""
    for idx in range(60):
        k = 2 + idx % 3
        n = rng.randint(5, {2: 9, 3: 8, 4: 7}[k])
        if idx % 2:
            g = random_dag(rng, n, p=rng.choice([0.3, 0.5]), max_c=9)
        else:
            shape = layered_dag(rng, n)
            g = Dag(shape.w, [(u, v, rng.randint(1, 9)) for u, v, _ in shape.edges])
        yield g, k


def test_bnb_future_cut_bound_matches_brute():
    # each case is solved cold, warm-started from the chunk partition, and
    # with random qubit masks (under a looser balance, so that some fit)
    rng = random.Random(8080)
    statuses = []
    nodes = 0
    for g, k in _costly_dags(rng):
        nq = tuple(1 << rng.randrange(4) | 1 << rng.randrange(4) for _ in range(g.n))
        for eps in (0, Fraction(1, 10)):
            cases = [(eps, {}), (eps + 1, {"nq": nq, "lm": 3})]
            warm = chunk_partition(g, k, eps)
            if warm is not None:
                cases.append((eps, {"warm": warm}))
            oracle = {}
            for e, kwargs in cases:
                if e not in oracle:
                    oracle[e] = brute_force(g, k, e, nq=kwargs.get("nq"),
                                            lm=kwargs.get("lm"))
                a = oracle[e]
                b = branch_and_bound(g, k, e, **kwargs)
                assert (b.status, b.cut) == (a.status, a.cut)
                if b.status == OPTIMAL:
                    assert validate(g, b.partition, k, e).cut == b.cut
                statuses.append(b.status)
                nodes += b.nodes_explored
    assert statuses.count(INFEASIBLE) >= 10 and statuses.count(OPTIMAL) >= 100
    # a search that tests only the cut so far explores 43,560 nodes here, one
    # that bounds the cut still to come only per child 34,877, and one that
    # also tests it before each descent, in topological order, 29,187
    assert nodes == 25438


def test_bnb_warm_start_used():
    g = chain(6)
    warm = Partition((0, 0, 0, 1, 1, 1), 2)
    result = branch_and_bound(g, 2, warm=warm)
    assert result.status == OPTIMAL and result.cut == 1


def test_bnb_rejects_infeasible_warm_start():
    g = chain(4)
    with pytest.raises(InvalidWarmStartError):
        branch_and_bound(g, 2, warm=Partition((0, 0, 0, 1), 2))


def test_bnb_rejects_warm_start_breaking_qubit_cap():
    g = chain(3)
    nq = (0b01, 0b11, 0b10)
    warm = Partition((0, 0, 0), 1)
    with pytest.raises(InvalidWarmStartError):
        branch_and_bound(g, 1, eps=3, warm=warm, nq=nq, lm=1)


def test_bnb_budget_stops():
    g = chain(12)
    for max_nodes in (0, 1, 5):
        result = branch_and_bound(g, 3, budget=SolveBudget(max_nodes=max_nodes))
        assert result.status == STOPPED
        assert result.nodes_explored == max_nodes + 1


def test_bnb_zero_node_budget_keeps_warm_incumbent():
    g = chain(12)
    warm = Partition((0,) * 5 + (1,) * 4 + (2,) * 3, 3)
    result = branch_and_bound(g, 3, eps=Fraction(1, 4), warm=warm,
                              budget=SolveBudget(max_nodes=0))
    assert result.status == STOPPED and result.nodes_explored == 1
    assert result.partition == warm and result.cut == 2


def test_bnb_budget_with_warm_keeps_incumbent():
    g = chain(12)
    warm = Partition((0,) * 4 + (1,) * 4 + (2,) * 4, 3)
    result = branch_and_bound(g, 3, warm=warm, budget=SolveBudget(max_nodes=5))
    assert result.status == STOPPED
    assert result.partition is not None
    assert result.cut <= 2


def test_bnb_time_budget(rng):
    # the deadline is read only when the node count is a multiple of 256
    g = random_dag(rng, 14, p=0.3)
    result = branch_and_bound(g, 3, budget=SolveBudget(max_time=0.0))
    assert result.status == STOPPED
    assert result.nodes_explored > 0 and result.nodes_explored % 256 == 0
    # with a node budget too, the search stops at the nearer of the two
    for max_nodes, stop in ((300, 256), (100, 101)):
        result = branch_and_bound(g, 3, budget=SolveBudget(max_nodes=max_nodes,
                                                            max_time=0))
        assert (result.status, result.nodes_explored) == (STOPPED, stop)


@pytest.mark.parametrize("engine", [brute_force, branch_and_bound])
def test_bad_qubit_arguments_raise_before_search(engine):
    g = chain(4)
    cases = [({"nq": (0b01, 0b11, 0b10, 0b10)}, "without L_m"),
             ({"lm": 2}, "without NQ masks"),
             ({"nq": (0b01, 0b11), "lm": 2}, "NQ has 2 masks, graph has 4 vertices"),
             ({"nq": (0b01,) * 5, "lm": 2}, "NQ has 5 masks, graph has 4 vertices")]
    for kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            engine(g, 2, eps=1, **kwargs)


def test_qubit_capped_search():
    g = chain(4)
    nq = (0b01, 0b11, 0b10, 0b10)
    a = brute_force(g, 2, eps="1", nq=nq, lm=1)
    b = branch_and_bound(g, 2, eps="1", nq=nq, lm=1)
    # only split {0}{1,2,3} keeps each part on one qubit... part {1,2,3}
    # touches both qubits, so with lm=1 no 2-way split works except none
    assert a.status == b.status
    if a.status == OPTIMAL:
        assert a.cut == b.cut


def test_engines_agree_with_qubit_cap(rng):
    g = chain(4)
    nq = (0b01, 0b11, 0b10, 0b10)
    for k in (1, 2, 3):
        a = brute_force(g, k, eps="2", nq=nq, lm=2)
        b = branch_and_bound(g, k, eps="2", nq=nq, lm=2)
        assert a.status == b.status
        if a.status == OPTIMAL:
            assert a.cut == b.cut


# --- pinned search outputs -------------------------------------------------
# sha256 over (status, cut, assignment, nodes_explored) of every solve in a
# group.  The search's vertex order, part order, tie-breaks and budget
# accounting all reach these values, so a rewrite of the loop that changes
# any of them shows up here.

def _pin_graphs():
    rng = random.Random(515)
    graphs = []
    for n in (8, 10, 12, 14, 16):
        graphs.append(random_dag(rng, n, p=0.3))
        graphs.append(layered_dag(rng, n))
    return graphs


def _pin_cases(group: str):
    rng = random.Random(2718)
    for idx, g in enumerate(_pin_graphs()):
        for k in (2, 3, 4):
            for eps in (0, Fraction(1, 10)):
                if group == "plain":
                    yield g, k, eps, {}
                elif group == "warm":
                    warm = chunk_partition(g, k, eps)
                    if warm is not None:
                        yield g, k, eps, {"warm": warm}
                elif group == "budget":
                    warm = chunk_partition(g, k, eps)
                    for max_nodes in (0, 1, 7, 100, 2000):
                        budget = SolveBudget(max_nodes=max_nodes)
                        yield g, k, eps, {"budget": budget}
                        if warm is not None:
                            yield g, k, eps, {"budget": budget, "warm": warm}
                elif group == "qubits" and g.n <= 12:
                    nq = tuple(1 << rng.randrange(4) | 1 << rng.randrange(4)
                               for _ in range(g.n))
                    for lm in (2, 3):
                        yield g, k, eps + 1, {"nq": nq, "lm": lm}
                        yield g, k, eps + 1, {"nq": nq, "lm": lm,
                                              "budget": SolveBudget(max_nodes=100)}


BNB_PIN_SHA256 = {
    "plain": "ceeb98425a195ca5e4a36d809cf2716a98a914a3fa9433c31b4a9c32a9fb3718",
    "warm": "c25d54f949227d67fe5d60328e64b7a1d81b27184c2bf0aa2b6fd149b4e38add",
    "budget": "18d0e0a03ad1be87ec6b3ea3ecc161b4e7f1d0329e978240ed5e6fcddc196432",
    "qubits": "eb8e55e03c7936c0a8207c1ecba7b6dfbb440e2bd7b9d27334e7d6accb0660d2",
}


def _pin_digest(group: str, width: int) -> tuple[str, int]:
    """sha256 over the first `width` fields of every solve's (status, cut,
    assignment, nodes), and the number of solves; below width 4 the digest
    skips solves under a budget."""
    digest = hashlib.sha256()
    count = 0
    for g, k, eps, kwargs in _pin_cases(group):
        if width < 4 and "budget" in kwargs:
            continue
        r = branch_and_bound(g, k, eps, **kwargs)
        assignment = r.partition.assignment if r.partition is not None else None
        row = (r.status, r.cut, assignment, r.nodes_explored)
        digest.update(repr(row[:width]).encode())
        count += 1
    return digest.hexdigest(), count


@pytest.mark.parametrize("group", sorted(BNB_PIN_SHA256))
def test_bnb_outputs_pinned(group):
    digest, count = _pin_digest(group, 4)
    assert count > 0
    assert digest == BNB_PIN_SHA256[group]


# sha256 over (status, cut, assignment) alone: a prune changes node counts,
# but an unbudgeted search must return what it did before it.  Only a change
# of search order may return another of several equal optima.
BNB_UNBUDGETED_SHA256 = {
    "plain": "41b9de8b00b5782baa2ce6bcd8032ae2e98c238d90cf51ffa887e5a0dda70738",
    "warm": "f32a2dd2a92004ad0984aa433a8f9cd1891fe848ad614fe32e5898f35ab36019",
}


@pytest.mark.parametrize("group", sorted(BNB_UNBUDGETED_SHA256))
def test_bnb_unbudgeted_outputs_unchanged(group):
    digest, count = _pin_digest(group, 3)
    assert count == {"plain": 60, "warm": 34}[group]
    assert digest == BNB_UNBUDGETED_SHA256[group]


# sha256 over (status, cut) alone of every solve without a budget: a change of
# search order may return another of several equal optima, but never another
# status or cut.
BNB_UNBUDGETED_CUT_SHA256 = {
    "plain": "4009fa3a456ee3b6942f49c8f78159764b8c862cfa95b56d76e4c598678f229a",
    "qubits": "36178699738944682032850ba6c35ebac0a587567dfaa3e58f8902e8cca9ddb5",
    "warm": "6be75209b728f29f666c0290f7a13fc474acd56e7b4008f4d94d52ae44874306",
}


@pytest.mark.parametrize("group", sorted(BNB_UNBUDGETED_CUT_SHA256))
def test_bnb_unbudgeted_cuts_unchanged(group):
    digest, count = _pin_digest(group, 2)
    assert count == {"plain": 60, "qubits": 72, "warm": 34}[group]
    assert digest == BNB_UNBUDGETED_CUT_SHA256[group]
