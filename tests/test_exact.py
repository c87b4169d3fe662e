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

from conftest import chain, diamond, random_dag


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
    result = branch_and_bound(g, 3, budget=SolveBudget(max_nodes=5))
    assert result.status == STOPPED
    assert result.nodes_explored <= 6


def test_bnb_budget_with_warm_keeps_incumbent():
    g = chain(12)
    warm = Partition((0,) * 4 + (1,) * 4 + (2,) * 4, 3)
    result = branch_and_bound(g, 3, warm=warm, budget=SolveBudget(max_nodes=5))
    assert result.status == STOPPED
    assert result.partition is not None
    assert result.cut <= 2


def test_bnb_time_budget(rng):
    g = random_dag(rng, 14, p=0.3)
    result = branch_and_bound(g, 3, budget=SolveBudget(max_time=0.0))
    assert result.status == STOPPED


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
