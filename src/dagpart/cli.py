"""Command-line interface.

JSON results go to stdout, human-readable logs to stderr.  Exit codes:
0 ok, 1 invalid graph, 2 usage/parse error or a multilevel search budget
that ran out before any partition was found, 3 proven infeasible or
violations, 4 size guard tripped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import partition as part_mod
from .dag import Dag
from .errors import (
    CycleDetectedError,
    DagPartError,
    DuplicateEdgeError,
    InfeasibleInstanceError,
    InvalidWarmStartError,
    NoFeasibleKError,
    PartitionParseError,
    QubitCapacityInfeasibleError,
    SelfLoopError,
    TooLargeError,
)
from .exact import (
    INFEASIBLE,
    OPTIMAL,
    SolveBudget,
    branch_and_bound,
    brute_force,
    guard_enumeration,
)
from .fileio import read_dag_file
from .formulations import (
    FORMULATION_NAMES,
    BuildOptions,
    build_formulation,
    build_quantum,
    decode_partition,
    exhaustive_model_optimum,
)
from .model import evaluate, read_solution, write_lp
from .multilevel import (
    DEFAULT_REFINE_BUDGET,
    FINEST_POLISH_FACTOR,
    multilevel_partition,
)
from .qcircuit import (
    circuit_to_dag,
    min_parts_partition,
    parse_circuit,
    part_qubit_counts,
)

EXIT_OK = 0
EXIT_GRAPH = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_GUARD = 4

COMPARE_GUARD_BITS = 18


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _eps(text: str) -> Fraction:
    try:
        eps = Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    if eps < 0:
        raise argparse.ArgumentTypeError(f"eps must be non-negative, got {text!r}")
    return eps


def cmd_check(args) -> int:
    g = read_dag_file(args.graph)
    digest = hashlib.sha256(",".join(map(str, g.topo.order)).encode()).hexdigest()
    _emit({"n": g.n, "m": g.m, "total_weight": g.total_weight,
           "topo_hash": digest[:16]})
    return EXIT_OK


def cmd_partition(args) -> int:
    if args.engine == "brute" and (args.warm is not None or args.budget_nodes is not None):
        raise DagPartError("--engine brute takes neither --warm nor --budget-nodes")
    g = read_dag_file(args.graph)
    warm = None
    if args.warm:
        try:
            warm = part_mod.read_partition_file(args.warm, k=args.k)
        except (OSError, ValueError, PartitionParseError) as exc:
            raise InvalidWarmStartError(f"cannot read warm start: {exc}")
    if args.engine == "brute":
        result = brute_force(g, args.k, args.eps)
    else:
        budget = SolveBudget(max_nodes=args.budget_nodes)
        result = branch_and_bound(g, args.k, args.eps, warm=warm, budget=budget)
    payload = {"status": result.status, "B": part_mod.balance_bound(g, args.k, args.eps),
               "cut": result.cut, "nodes": result.nodes_explored}
    _emit(payload)
    if result.status == INFEASIBLE:
        return EXIT_INFEASIBLE
    if args.out and result.partition is not None:
        part_mod.write_partition_file(result.partition, args.out)
    return EXIT_OK


def _build_named(args, g: Dag):
    opts = BuildOptions(k=args.k, eps=args.eps, relax_z=getattr(args, "relax_z", False))
    return build_formulation(args.formulation, g, opts)


def _read_model_solution(model, path: str):
    """Read a solution file for the model, log its warnings and decode it:
    (assignment, partition, claimed cut)."""
    with open(path, "r", encoding="ascii") as fh:
        assignment, warnings = read_solution(model, fh.read())
    for warning in warnings:
        _log(warning)
    p, cut = decode_partition(model, assignment)
    return assignment, p, cut


def cmd_emit_lp(args) -> int:
    g = read_dag_file(args.graph)
    text = write_lp(_build_named(args, g))
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_ingest_solution(args) -> int:
    g = read_dag_file(args.graph)
    model = _build_named(args, g)
    assignment, p, cut = _read_model_solution(model, args.solution)
    report = part_mod.validate(g, p, args.k, args.eps)
    check = evaluate(model, assignment)
    violations = list(report.violations) + list(check.violations)
    if cut != report.cut:
        violations.append(f"claimed cut {cut} differs from the true cut {report.cut}")
    payload = {"cut": int(report.cut), "claimed_cut": str(cut),
               "model_feasible": check.feasible,
               "balanced": report.balanced, "acyclic": report.acyclic,
               "violations": violations}
    _emit(payload)
    if args.out:
        part_mod.write_partition_file(p, args.out)
    if payload["violations"]:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_compare(args) -> int:
    g = read_dag_file(args.graph)
    guard_enumeration(g.n, args.k, COMPARE_GUARD_BITS, "model comparison")
    oracle = brute_force(g, args.k, args.eps)
    table: dict[str, object] = {
        "brute_force": oracle.cut if oracle.status == OPTIMAL else None}
    opts = BuildOptions(k=args.k, eps=args.eps)
    for name in FORMULATION_NAMES:
        model = build_formulation(name, g, opts)
        cut, _ = exhaustive_model_optimum(model, g)
        table[name] = None if cut is None else int(cut)
    _emit(table)
    return EXIT_OK


def cmd_multilevel(args) -> int:
    g = read_dag_file(args.graph)
    final, info = multilevel_partition(g, args.k, args.eps,
                                       target_n=args.target_n,
                                       budget_nodes=args.budget_nodes)
    report = part_mod.validate(g, final, args.k, args.eps)
    _emit({"cut": report.cut, "B": report.bound, "levels": info["levels"],
           "coarsest_n": info["coarsest_n"], "fallbacks": info["fallbacks"],
           "feasible": report.feasible})
    if args.out:
        part_mod.write_partition_file(final, args.out)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _check_quantum_flags(args) -> None:
    """Reject the flags that the chosen strategy would ignore."""
    if args.strategy == "bigm":
        if not args.emit_lp:
            raise DagPartError("--strategy bigm requires --emit-lp PATH")
        if args.engine is not None:
            raise DagPartError("--strategy bigm takes no --engine: "
                               "the model is solved outside dagpart")
        if args.out and not args.solution:
            raise DagPartError("--strategy bigm writes --out only from a --solution")
        return
    given = [flag for flag, value in (("--emit-lp", args.emit_lp),
                                      ("--solution", args.solution), ("--k", args.k))
             if value is not None]
    if given:
        raise DagPartError(f"only --strategy bigm takes {', '.join(given)}")


def cmd_quantum(args) -> int:
    _check_quantum_flags(args)
    with open(args.circuit, "r", encoding="ascii") as fh:
        circuit = parse_circuit(fh.read())
    g, nq = circuit_to_dag(circuit)
    if args.strategy == "bigm":
        k_cap = args.k if args.k is not None else g.n
        model = build_quantum(g, BuildOptions(k=k_cap, eps=args.eps), nq,
                              args.lm, strategy="bigm")
        with open(args.emit_lp, "w", encoding="ascii") as fh:
            fh.write(write_lp(model))
        if not args.solution:
            _emit({"emitted": args.emit_lp, "k_cap": k_cap})
            return EXIT_OK
        _, p, cut = _read_model_solution(model, args.solution)
        # p.k is the cap: report the parts the solution uses, in part order
        used, counts = sorted(set(p.assignment)), part_qubit_counts(nq, p)
        _emit({"k": len(used), "cut": str(cut),
               "part_qubits": [counts[s] for s in used]})
        if args.out:
            part_mod.write_partition_file(p, args.out)
        return EXIT_OK
    k, p, cut = min_parts_partition(g, nq, eps=args.eps, lm=args.lm,
                                    engine=args.engine or "bnb")
    _emit({"k": k, "cut": cut, "part_qubits": part_qubit_counts(nq, p)})
    if args.out:
        part_mod.write_partition_file(p, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagpart",
        description="Balanced acyclic k-way partitioning of DAGs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_ke(p):
        p.add_argument("--graph", required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--eps", type=_eps, default=Fraction(0))

    p_check = sub.add_parser("check", help="validate a DAG file")
    p_check.add_argument("--graph", required=True)
    p_check.set_defaults(func=cmd_check)

    p_part = sub.add_parser("partition", help="solve with the built-in engines")
    add_graph_ke(p_part)
    p_part.add_argument("--engine", choices=["brute", "bnb"], default="bnb")
    p_part.add_argument("--warm")
    p_part.add_argument("--budget-nodes", type=int, default=None)
    p_part.add_argument("--out")
    p_part.set_defaults(func=cmd_partition)

    p_emit = sub.add_parser("emit-lp", help="write a formulation as an LP file")
    add_graph_ke(p_emit)
    p_emit.add_argument("--formulation", choices=list(FORMULATION_NAMES),
                        required=True)
    p_emit.add_argument("--relax-z", action="store_true")
    p_emit.add_argument("--out")
    p_emit.set_defaults(func=cmd_emit_lp)

    p_ing = sub.add_parser("ingest-solution",
                           help="decode and validate an external solution")
    add_graph_ke(p_ing)
    p_ing.add_argument("--formulation", choices=list(FORMULATION_NAMES),
                       required=True)
    p_ing.add_argument("--solution", required=True)
    p_ing.add_argument("--out")
    p_ing.set_defaults(func=cmd_ingest_solution)

    p_cmp = sub.add_parser("compare",
                           help="per-formulation optima on a small instance")
    add_graph_ke(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_ml = sub.add_parser("multilevel", help="coarsen, solve, project, refine")
    add_graph_ke(p_ml)
    p_ml.add_argument("--target-n", type=int, default=8)
    p_ml.add_argument("--budget-nodes", type=int, default=DEFAULT_REFINE_BUDGET,
                      help="node cap of the initial search; the one "
                           "branch-and-bound polish, of the input graph, "
                           f"gets {FINEST_POLISH_FACTOR}x (default %(default)s)")
    p_ml.add_argument("--out")
    p_ml.set_defaults(func=cmd_multilevel)

    p_q = sub.add_parser("quantum", help="minimum-part circuit partitioning")
    p_q.add_argument("--circuit", required=True)
    p_q.add_argument("--lm", type=int, required=True)
    p_q.add_argument("--eps", type=_eps, default=Fraction(0))
    p_q.add_argument("--engine", choices=["brute", "bnb"],
                     help="incremental strategy only (default bnb)")
    p_q.add_argument("--strategy", choices=["incremental", "bigm"],
                     default="incremental")
    p_q.add_argument("--k", type=int, default=None,
                     help="part-count cap for the bigm model")
    p_q.add_argument("--emit-lp", dest="emit_lp")
    p_q.add_argument("--solution")
    p_q.add_argument("--out")
    p_q.set_defaults(func=cmd_quantum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (CycleDetectedError, SelfLoopError, DuplicateEdgeError) as exc:
        _log(f"invalid graph: {exc}")
        return EXIT_GRAPH
    except (InfeasibleInstanceError, QubitCapacityInfeasibleError,
            NoFeasibleKError) as exc:
        _log(f"infeasible: {exc}")
        return EXIT_INFEASIBLE
    except TooLargeError as exc:
        _log(f"guard: {exc}")
        return EXIT_GUARD
    except (ValueError, OSError, DagPartError) as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
