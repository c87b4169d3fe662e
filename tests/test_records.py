"""The package's records are read-only NamedTuples: keyword construction,
defaults, equality and hashing within a type, and `Name(field=value, ...)`
reprs."""

from fractions import Fraction

import pytest

from dagpart import (BuildOptions, Partition, QuotientGraph, SolveBudget, SolveResult,
                     TopoOrder, ValidationReport)
from dagpart.model import Constraint, EvalResult, Variable
from dagpart.multilevel import CoarseningLevel
from dagpart.qcircuit import Circuit, Gate

# (make a record, its repr, whether it hashes); QuotientGraph holds a dict
RECORDS = [
    (lambda: TopoOrder(order=(1, 0), position=(1, 0)),
     "TopoOrder(order=(1, 0), position=(1, 0))", True),
    (lambda: QuotientGraph(k=2, weights=(1, 2), edge_costs={(0, 1): 3}),
     "QuotientGraph(k=2, weights=(1, 2), edge_costs={(0, 1): 3})", False),
    (lambda: Partition(assignment=[0, 1], k=2),
     "Partition(assignment=(0, 1), k=2)", True),
    (lambda: ValidationReport(cut=1, part_weights=(1, 1), bound=2, balanced=True,
                              acyclic=True, violations=()),
     "ValidationReport(cut=1, part_weights=(1, 1), bound=2, balanced=True,"
     " acyclic=True, violations=())", True),
    (lambda: SolveBudget(max_nodes=5),
     "SolveBudget(max_nodes=5, max_time=None)", True),
    (lambda: SolveResult(status="optimal", partition=Partition((0, 1), 2), cut=1,
                         nodes_explored=3),
     "SolveResult(status='optimal', partition=Partition(assignment=(0, 1), k=2),"
     " cut=1, nodes_explored=3)", True),
    (lambda: Variable(name="x_0_0", kind="binary"),
     "Variable(name='x_0_0', kind='binary', lb=None, ub=None)", True),
    (lambda: Constraint(name="c", terms=((1, "x"),), sense="<=", rhs=1),
     "Constraint(name='c', terms=((1, 'x'),), sense='<=', rhs=1)", True),
    (lambda: EvalResult(feasible=True, violations=(), objective=Fraction(1, 2)),
     "EvalResult(feasible=True, violations=(), objective=Fraction(1, 2))", True),
    (lambda: BuildOptions(k=2),
     "BuildOptions(k=2, eps=0, relax_z=False)", True),
    (lambda: CoarseningLevel(w=(2, 1), edges=((0, 1, 1),), mapping=(0, 0, 1)),
     "CoarseningLevel(w=(2, 1), edges=((0, 1, 1),), mapping=(0, 0, 1))", True),
    (lambda: Gate(name="cx", qubits=("a", "b")),
     "Gate(name='cx', qubits=('a', 'b'))", True),
    (lambda: Circuit(qubits=("a",), gates=(Gate("h", ("a",)),)),
     "Circuit(qubits=('a',), gates=(Gate(name='h', qubits=('a',)),))", True),
]


@pytest.mark.parametrize("make, text, hashable", RECORDS,
                         ids=[text.partition("(")[0] for _, text, _ in RECORDS])
def test_record_is_a_read_only_named_tuple(make, text, hashable):
    record, again = make(), make()
    assert repr(record) == text
    assert record == again and record is not again
    if hashable:
        assert hash(record) == hash(again)
    else:
        with pytest.raises(TypeError):
            hash(record)
    field = text.partition("(")[2].partition("=")[0]
    assert getattr(record, field) == getattr(again, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("field", ["max_nodes", "max_time"])
def test_solve_budget_rejects_a_negative_limit(field):
    with pytest.raises(ValueError, match=f"^{field} must be non-negative$"):
        SolveBudget(**{field: -1})
