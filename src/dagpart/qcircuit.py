"""Quantum-circuit ingestion, circuit->DAG conversion, and the minimum-part
partitioning driver with a per-part unique-qubit cap."""

from __future__ import annotations

from dataclasses import dataclass

from .dag import Dag
from .errors import (
    BudgetExhaustedError,
    CircuitParseError,
    EmptyCircuitError,
    NoFeasibleKError,
    UnknownQubitError,
)
from .exact import (OPTIMAL, STOPPED, SolveBudget, branch_and_bound, brute_force,
                    check_qubit_capacity, part_qubit_masks)
from .partition import Partition


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[str, ...]


@dataclass(frozen=True)
class Circuit:
    """Gate list over named qubits, in program order."""

    qubits: tuple[str, ...]
    gates: tuple[Gate, ...]


def parse_circuit(text: str) -> Circuit:
    """Parse the circuit file format: one `name q0 q1 ...` gate per line,
    `#` comments, qubits declared implicitly in first-appearance order."""
    qubits: list[str] = []
    seen: set[str] = set()
    gates: list[Gate] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise CircuitParseError(f"gate needs at least one operand: {raw!r}",
                                    line_no)
        name, operands = tokens[0], tokens[1:]
        if len(set(operands)) != len(operands):
            raise CircuitParseError(f"duplicate operand in gate {name!r}", line_no)
        for q in operands:
            if q not in seen:
                seen.add(q)
                qubits.append(q)
        gates.append(Gate(name, tuple(operands)))
    return Circuit(tuple(qubits), tuple(gates))


def circuit_to_dag(c: Circuit, entry_exit_weight: int = 0):
    """Convert to a DAG with one vertex per gate plus entry/exit per qubit.

    Each qubit's uses form a line subgraph entry -> gates -> exit.  Where
    consecutive uses of several qubits join the same two vertices (say
    `cx a b` then `cz b a`), they share one edge whose cost is the number of
    such qubits; every other edge costs 1.  Gate vertices weigh 1;
    entry/exit vertices default to 0 so balance reflects computational
    gates only.

    Returns (dag, nq) where nq[v] is vertex v's qubit bitmask: bit q is set
    iff v touches qubit q (qubits numbered in first-appearance order).
    """
    if not c.gates:
        raise EmptyCircuitError("circuit has no gates")
    qubit_index = {q: idx for idx, q in enumerate(c.qubits)}
    n_gates = len(c.gates)
    n_qubits = len(c.qubits)
    n = n_gates + 2 * n_qubits
    entry = lambda q: n_gates + q
    exit_ = lambda q: n_gates + n_qubits + q

    weights = [1] * n_gates + [entry_exit_weight] * (2 * n_qubits)
    nq = [0] * n
    last_use = [entry(q) for q in range(n_qubits)]
    costs: dict[tuple[int, int], int] = {}  # first-use order fixes edge order
    for gate_id, gate in enumerate(c.gates):
        for q_name in gate.qubits:
            if q_name not in qubit_index:
                raise UnknownQubitError(f"gate uses undeclared qubit {q_name!r}")
            q = qubit_index[q_name]
            nq[gate_id] |= 1 << q
            key = (last_use[q], gate_id)
            costs[key] = costs.get(key, 0) + 1
            last_use[q] = gate_id
    for q in range(n_qubits):
        nq[entry(q)] = nq[exit_(q)] = 1 << q
        costs[(last_use[q], exit_(q))] = 1
    edges = [(u, v, cost) for (u, v), cost in costs.items()]
    return Dag(weights, edges), tuple(nq)


def min_parts_partition(g: Dag, nq, eps=0, lm: int = 0, engine: str = "bnb",
                        budget: SolveBudget | None = None):
    """Smallest k admitting a balanced acyclic partition with per-part unique
    qubit count at most lm; among those, the minimum cut.

    Increments k one by one starting from 1 and stops at the first feasible
    value.  Returns (k, partition, cut).  Raises BudgetExhaustedError when
    the budget runs out at some k, since that k is then neither proven
    infeasible nor solved to optimality.
    """
    if engine not in ("brute", "bnb"):
        raise ValueError(f"unknown engine {engine!r}")
    check_qubit_capacity(nq, lm)
    for k in range(1, g.n + 1):
        if engine == "brute":
            result = brute_force(g, k, eps, nq=nq, lm=lm)
        else:
            result = branch_and_bound(g, k, eps, budget=budget, nq=nq, lm=lm)
        if result.status == OPTIMAL:
            return k, result.partition, result.cut
        if result.status == STOPPED:
            raise BudgetExhaustedError(
                f"search budget ran out at k={k} after {result.nodes_explored} nodes")
    raise NoFeasibleKError(f"no feasible part count up to k={g.n}")


def part_qubit_counts(nq, p: Partition) -> list[int]:
    """Unique qubits used by each part, for reporting."""
    return [mask.bit_count() for mask in part_qubit_masks(nq, p.assignment, p.k)]
