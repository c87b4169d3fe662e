"""Balanced acyclic k-way partitioning of directed acyclic graphs.

Library layout:

- ``dag``           graph container, validation, quotient graphs
- ``partition``     partitions, balance bound, feasibility validation
- ``model``         solver-agnostic linear models, LP emission, ingestion
- ``formulations``  the six ILP formulations and the path-weight table ``A``
- ``exact``         brute-force oracle and branch-and-bound
- ``multilevel``    coarsen / initial-partition / refine pipeline
- ``qcircuit``      quantum-circuit ingestion and minimum-part driver
- ``fileio``        the DAG file format
- ``cli``           the ``dagpart`` command-line tool
"""

from .dag import Dag, QuotientGraph, TopoOrder, quotient_graph
from .errors import DagPartError
from .exact import (
    INFEASIBLE,
    OPTIMAL,
    STOPPED,
    SolveBudget,
    SolveResult,
    branch_and_bound,
    brute_force,
)
from .fileio import read_dag_file, read_dag_text, write_dag_file, write_dag_text
from .formulations import (
    FORMULATION_NAMES,
    BuildOptions,
    build_albareda,
    build_formulation,
    build_nossack,
    build_proposed,
    build_quantum,
    build_undirected,
    canonical_assignment,
    decode_partition,
    exhaustive_model_optimum,
)
from .model import LinearModel, evaluate, read_solution, write_lp
from .multilevel import (
    coarsen,
    multilevel_partition,
    refine_moves,
    uncoarsen_refine,
)
from .partition import (
    Partition,
    ValidationReport,
    balance_bound,
    edge_cut,
    is_acyclic_partition,
    partition_from_text,
    partition_to_text,
    read_partition_file,
    renumber_topologically,
    validate,
    write_partition_file,
)
from .qcircuit import Circuit, Gate, circuit_to_dag, min_parts_partition, parse_circuit

__version__ = "0.1.0"

__all__ = [
    "Dag",
    "QuotientGraph",
    "TopoOrder",
    "quotient_graph",
    "DagPartError",
    "OPTIMAL",
    "INFEASIBLE",
    "STOPPED",
    "SolveBudget",
    "SolveResult",
    "branch_and_bound",
    "brute_force",
    "read_dag_file",
    "read_dag_text",
    "write_dag_file",
    "write_dag_text",
    "FORMULATION_NAMES",
    "BuildOptions",
    "build_albareda",
    "build_formulation",
    "build_nossack",
    "build_proposed",
    "build_quantum",
    "build_undirected",
    "canonical_assignment",
    "decode_partition",
    "exhaustive_model_optimum",
    "LinearModel",
    "evaluate",
    "read_solution",
    "write_lp",
    "coarsen",
    "multilevel_partition",
    "refine_moves",
    "uncoarsen_refine",
    "Partition",
    "ValidationReport",
    "balance_bound",
    "edge_cut",
    "is_acyclic_partition",
    "partition_from_text",
    "partition_to_text",
    "read_partition_file",
    "renumber_topologically",
    "validate",
    "write_partition_file",
    "Circuit",
    "Gate",
    "circuit_to_dag",
    "min_parts_partition",
    "parse_circuit",
    "__version__",
]
