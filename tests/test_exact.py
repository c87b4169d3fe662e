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


def test_bnb_beyond_recursion_limit_is_a_guard():
    # the search recurses once per vertex
    with pytest.raises(TooLargeError, match="recursion limit"):
        branch_and_bound(chain(3 * sys.getrecursionlimit()), 2,
                         budget=SolveBudget(max_nodes=5000))


def test_brute_force_k1():
    result = brute_force(diamond(), 1)
    assert result.status == OPTIMAL and result.cut == 0


def test_invalid_k():
    with pytest.raises(InvalidKError):
        brute_force(chain(2), 0)
    with pytest.raises(InvalidKError):
        branch_and_bound(chain(2), 0)


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
    "plain": "d5795be6ffa66a89e00321bdbc0433864abd80158549710894067f2796e328b6",
    "warm": "a05d9c2a5f60a67c74b9c22e108efbf91981796e5e0c97f2308206dc4e04516e",
    "budget": "9a21e2f36667b974929daf150137b19c80cf863b85d22d073ffd7ff3d489d902",
    "qubits": "35f7cb01479f613724b888f4a9d13fea6aa39cf3d173dfd71699793a4f19e63d",
}


@pytest.mark.parametrize("group", sorted(BNB_PIN_SHA256))
def test_bnb_outputs_pinned(group):
    digest = hashlib.sha256()
    count = 0
    for g, k, eps, kwargs in _pin_cases(group):
        r = branch_and_bound(g, k, eps, **kwargs)
        assignment = r.partition.assignment if r.partition is not None else None
        digest.update(repr((r.status, r.cut, assignment, r.nodes_explored)).encode())
        count += 1
    assert count > 0
    assert digest.hexdigest() == BNB_PIN_SHA256[group]
