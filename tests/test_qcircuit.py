import pytest

from dagpart import (BuildOptions, Dag, Partition, SolveBudget, brute_force,
                     build_quantum, circuit_to_dag, min_parts_partition,
                     parse_circuit)
from dagpart.errors import (
    BudgetExhaustedError,
    CircuitParseError,
    EmptyCircuitError,
    NoFeasibleKError,
    QubitCapacityInfeasibleError,
)
from dagpart.qcircuit import part_qubit_counts

GHZ = """\
# prepare a GHZ state
h q0
cx q0 q1
cx q1 q2
"""


def test_parse_circuit():
    c = parse_circuit(GHZ)
    assert c.qubits == ("q0", "q1", "q2")
    assert [g.name for g in c.gates] == ["h", "cx", "cx"]
    assert c.gates[1].qubits == ("q0", "q1")


def test_parse_circuit_errors():
    with pytest.raises(CircuitParseError):
        parse_circuit("h\n")
    with pytest.raises(CircuitParseError):
        parse_circuit("cx q0 q0\n")


def test_circuit_to_dag_shape():
    c = parse_circuit(GHZ)
    g, nq = circuit_to_dag(c)
    # 3 gates + 3 entries + 3 exits
    assert g.n == 9
    assert g.w == (1, 1, 1, 0, 0, 0, 0, 0, 0)
    # per-qubit chains: q0 entry->h->cx01->exit (3 edges),
    # q1 entry->cx01->cx12->exit (3), q2 entry->cx12->exit (2)
    assert g.m == 8
    assert nq[1] == 0b011         # cx q0 q1
    assert nq[3] == 0b001         # q0 entry
    assert max(mask.bit_count() for mask in nq) == 2


def test_circuit_to_dag_merges_shared_qubit_edges():
    g, _ = circuit_to_dag(parse_circuit("cx a b\ncz b a\ncx b c\n"))
    # gates 0-2, entries 3-5, exits 6-8; both qubits of gate 0 feed gate 1
    assert g.cost[(0, 1)] == 2
    assert g.cost[(1, 2)] == 1
    assert g.m == 8
    assert g.total_cost == 9   # one unit per consecutive use of a qubit


def test_circuit_to_dag_entry_exit_weight():
    g, _ = circuit_to_dag(parse_circuit("h a\n"), entry_exit_weight=1)
    assert g.w == (1, 1, 1)


def test_empty_circuit_rejected():
    with pytest.raises(EmptyCircuitError):
        circuit_to_dag(parse_circuit("# nothing\n"))


def test_unique_qubits():
    nq = (0b01, 0b11, 0b10)
    assert part_qubit_counts(nq, Partition((0, 1, 1), 2)) == [1, 2]
    assert part_qubit_counts(nq, Partition((0, 1, 0), 3)) == [2, 2, 0]


def test_min_parts_matches_brute_force_scan():
    g, nq = circuit_to_dag(parse_circuit(GHZ))
    lm = 2
    k, p, cut = min_parts_partition(g, nq, eps="3", lm=lm)
    # independent scan over k with the brute-force oracle
    expected_k = None
    for candidate in range(1, g.n + 1):
        if brute_force(g, candidate, "3", nq=nq, lm=lm).status == "optimal":
            expected_k = candidate
            break
    assert k == expected_k
    assert all(count <= lm for count in part_qubit_counts(nq, p))


def test_min_parts_budget_stop_is_not_infeasible():
    # unbudgeted, the answer is k=4; at k=2 three nodes decide nothing
    g = Dag([1] * 8, [(i, i + 1, 1) for i in range(7)])
    nq = tuple(1 << (i % 4) for i in range(8))
    k, _, cut = min_parts_partition(g, nq, eps=3, lm=2)
    assert (k, cut) == (4, 3)
    with pytest.raises(BudgetExhaustedError, match="k=2"):
        min_parts_partition(g, nq, eps=3, lm=2, budget=SolveBudget(max_nodes=3))


def test_min_parts_capacity_guard():
    g, nq = circuit_to_dag(parse_circuit("ccx a b c\n"))
    with pytest.raises(QubitCapacityInfeasibleError) as solved:
        min_parts_partition(g, nq, lm=2)
    # the model builder runs the same check, so it reports the same error
    with pytest.raises(QubitCapacityInfeasibleError) as built:
        build_quantum(g, BuildOptions(k=2), nq, lm=2)
    assert str(solved.value) == str(built.value)


def test_min_parts_engine_validation():
    g, nq = circuit_to_dag(parse_circuit(GHZ))
    with pytest.raises(ValueError):
        min_parts_partition(g, nq, lm=3, engine="magic")


def test_min_parts_no_feasible_k():
    # eps=0 with many zero-weight vertices: bound = ceil(3/k); a single
    # 3-qubit gate with lm below its arity is caught by the guard instead
    g, nq = circuit_to_dag(parse_circuit("h a\nh b\n"))
    k, p, cut = min_parts_partition(g, nq, eps=0, lm=1)
    assert all(count <= 1 for count in part_qubit_counts(nq, p))
