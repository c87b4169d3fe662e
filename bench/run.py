#!/usr/bin/env python3
"""Benchmark for dagpart: exact proofs, model emission and ingestion, and
multilevel partitioning.

    python3 bench/run.py --workload exact|models|multilevel --seed N \
        --seconds S --trace 0|1

Run from anywhere; the package is imported from ../src next to this
directory.  One process, one thread.  The last line of standard output is a
JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run times
the same operations once without and once with spans, and reports the
per-layer metrics and the tracing overhead.  README.md describes the
workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import corpus
from corpus import EPS
from spans import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
REFERENCE_FILE = BENCH / "reference_optima.json"
OUT = BENCH / "out"  # one JSON record per run, with every failure and span total

WORKLOADS = ("exact", "models", "multilevel")
FORMULATIONS = ("undirected", "nossack", "albareda-base", "albareda-extended",
                "albareda-final", "proposed")
# One round of a workload's fixed operation list takes about this long at the
# commit that defined the corpora; --seconds asks for whole rounds.
ROUND_SECONDS = 30
SETUP_REPEATS = 9
TAIL_MIN_OPS = 40


@dataclass
class Op:
    seconds: float
    problems: list = field(default_factory=list)
    cut: int = 0
    # failed only through the albareda-final flip probe (the known model fault)
    known_fault: bool = False
    label: str = ""
    phases: dict = field(default_factory=dict)  # models: step times and model size


# -- set-up ------------------------------------------------------------------

def import_program():
    """A fresh import of dagpart from ../src (earlier imports are dropped)."""
    for name in [n for n in sys.modules if n == "dagpart" or n.startswith("dagpart.")]:
        del sys.modules[name]
    dagpart = importlib.import_module("dagpart")
    if not Path(dagpart.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"dagpart imported from {dagpart.__file__}, not from {SRC}")
    return dagpart


def load(texts):
    """What set-up time measures: import the package and parse the corpus."""
    gc.collect()
    start = time.perf_counter()
    dagpart = import_program()
    graphs = [dagpart.read_dag_text(text) for text in texts]
    seconds = time.perf_counter() - start
    del graphs
    return dagpart, seconds


def reference_optima(base) -> dict[str, int]:
    """Independent optima for the base graphs; missing ones are solved now,
    in a child process so that the solver's memory stays out of this one."""
    known = json.loads(REFERENCE_FILE.read_text())["optima"] if REFERENCE_FILE.exists() else {}
    missing = [inst for inst in base if inst.key not in known]
    if missing:
        print(f"solving {len(missing)} reference optima", file=sys.stderr)
        request = [{"key": i.key, "weights": i.weights, "edges": i.edges,
                    "k": i.k} for i in missing]
        done = subprocess.run([sys.executable, str(BENCH / "reference.py"), "--stdin"],
                              input=json.dumps(request), capture_output=True,
                              text=True, timeout=170, check=True)
        known.update(json.loads(done.stdout))
    return {inst.key: known[inst.key] for inst in base}


# -- workloads ---------------------------------------------------------------

def guarded(label, fn, *args):
    """Run one operation; an exception from the program is a failed operation."""
    try:
        op = fn(*args)
    except Exception as exc:  # noqa: BLE001 - reported as a failure below
        op = Op(0.0, [f"{type(exc).__name__}: {exc}"])
    op.label = label
    op.problems = [f"{label}: {p}" for p in op.problems]
    return op


def exact_op(dp, g, inst, reference):
    start = time.perf_counter()
    result = dp.branch_and_bound(g, inst.k, EPS)
    seconds = time.perf_counter() - start
    part = result.partition.assignment if result.partition is not None else None
    problems = check.check_exact(inst, part, result.cut, result.status, reference)
    return Op(seconds, problems, check.cut_of(inst.edges, part) if part else 0)


def model_op(dp, g, base, inst, formulation, chunks, tracer):
    start = time.perf_counter()
    model = dp.build_formulation(formulation, g, dp.BuildOptions(k=inst.k, eps=EPS))
    emit = time.perf_counter()
    lp = dp.write_lp(model)
    built = time.perf_counter()
    if tracer.enabled:
        tracer.counts[f"model.lp_bytes.{formulation}"] += len(lp)

    part = list(chunks)
    values = check.encode_point(formulation, [v.name for v in model.variables],
                                inst, part)
    text = "".join(f"{name} {value}\n" for name, value in values.items())
    ingest = time.perf_counter()
    assignment, _ = dp.read_solution(model, text)
    feasible = dp.evaluate(model, assignment).feasible
    decoded, claimed = dp.decode_partition(model, assignment)
    seconds = (built - start) + (time.perf_counter() - ingest)
    problems = check.check_model_point(part, check.cut_of(inst.edges, part), feasible,
                                       decoded.assignment, claimed)

    # Point (b), after the timed work and outside the trace.
    name, same = check.flip_target(formulation, base, inst, part)
    values[name] = same
    text = "".join(f"{name} {value}\n" for name, value in values.items())
    enabled, tracer.enabled = tracer.enabled, False
    try:
        assignment, _ = dp.read_solution(model, text)
        probe = []
        if dp.evaluate(model, assignment, early_exit=True).feasible:
            decoded_b, claimed_b = dp.decode_partition(model, assignment)
            probe = check.check_flip_probe(decoded_b.assignment, inst.edges, claimed_b)
    finally:
        tracer.enabled = enabled
    known = bool(probe) and not problems and formulation == "albareda-final"
    phases = {"build": emit - start, "write_lp": built - emit,
              "ingest": seconds - (built - start), "lp_bytes": len(lp),
              "constraints": len(model.constraints)}
    return Op(seconds, problems + probe, int(claimed), known, phases=phases)


def multilevel_op(dp, g, inst):
    start = time.perf_counter()
    partition, _ = dp.multilevel_partition(g, inst.k, EPS)
    seconds = time.perf_counter() - start
    problems, cut = check.check_heuristic(inst, partition.assignment)
    return Op(seconds, problems, cut)


def operations(workload, base, insts, refs, tracer):
    """The fixed operation list: (label, instance index, op function, args)."""
    for idx, (b, inst) in enumerate(zip(base, insts)):
        if workload == "exact":
            yield b.name, idx, exact_op, (inst, refs[b.key])
        elif workload == "models":
            chunks = check.chunk_partition(b, inst)
            for formulation in FORMULATIONS:
                yield (f"{b.name} {formulation}", idx, model_op,
                       (b, inst, formulation, chunks, tracer))
        else:
            yield b.name, idx, multilevel_op, (inst,)


def run_round(workload, dp, base, insts, texts, refs, tracer, between=None) -> list[Op]:
    """One round of the operation list on freshly parsed graphs, so that no
    round inherits another's reachability caches.  between(i), if given, runs
    untimed before the i-th operation."""
    graphs = [dp.read_dag_text(text) for text in texts]
    gc.collect()
    ops = []
    for label, idx, fn, args in operations(workload, base, insts, refs, tracer):
        if between is not None:
            between(len(ops))
        ops.append(guarded(label, fn, dp, graphs[idx], *args))
    return ops


def paired_round(workload, dp, base, insts, texts, refs, tracer):
    """Every operation twice, once with spans and once without, on separately
    parsed graphs; which goes first alternates.  Returns (untraced, traced)."""
    tracer.detach()
    plain_graphs = [dp.read_dag_text(text) for text in texts]
    tracer.attach()
    traced_graphs = [dp.read_dag_text(text) for text in texts]
    gc.collect()
    plain, traced = [], []
    for label, idx, fn, args in operations(workload, base, insts, refs, tracer):
        for with_spans in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            if with_spans:
                tracer.attach()
                traced.append(guarded(label, fn, dp, traced_graphs[idx], *args))
            else:
                tracer.detach()
                plain.append(guarded(label, fn, dp, plain_graphs[idx], *args))
    tracer.detach()
    return plain, traced


# -- tracing -----------------------------------------------------------------

def install_trace(tracer: Tracer, dp) -> None:
    """Spans at every layer boundary named in README.md."""
    t = tracer
    counts = t.counts
    t.wrap_function("dagpart.fileio", "read_dag_text", t.simple("fileio.read_dag_text"))
    t.wrap_method(dp.Dag, "__init__", "dag.Dag")
    for method in ("descendants", "ancestors", "path_nodes"):
        t.wrap_method(dp.Dag, method, "dag.reach")
    t.wrap_function("dagpart.partition", "validate", t.simple("partition.validate"))
    for module, attr in (("dagpart.model", "write_lp"), ("dagpart.model", "read_solution"),
                         ("dagpart.model", "evaluate"),
                         ("dagpart.formulations", "decode_partition"),
                         ("dagpart.multilevel", "coarsen"),
                         ("dagpart.multilevel", "uncoarsen_refine")):
        t.wrap_function(module, attr, t.simple(f"{module.split('.')[1]}.{attr}"))

    def tables(original):
        def wrapper(*args, **kwargs):
            result = t.span("preprocess.compute_tables", original, *args, **kwargs)
            if t.enabled:
                counts["preprocess.pairs"] += len(result.A)
                counts["preprocess.triples"] += len(result.A_prime or ())
            return result
        return wrapper

    def build(original):
        def wrapper(name, *args, **kwargs):
            model = t.span(f"formulations.build.{name}", original, name, *args, **kwargs)
            if t.enabled:
                counts[f"formulations.constraints.{name}"] += len(model.constraints)
                counts[f"formulations.nonzeros.{name}"] += sum(
                    len(c.terms) for c in model.constraints)
            return model
        return wrapper

    def bnb(original):
        def wrapper(*args, **kwargs):
            result = t.span("exact.bnb", original, *args, **kwargs)
            g, warm = args[0], kwargs.get("warm", args[3] if len(args) > 3 else None)
            if t.enabled:
                counts["exact.bnb_nodes"] += result.nodes_explored
                stopped = result.status == "stopped"
                counts["exact.bnb_stopped"] += stopped
                counts["exact.bnb_stopped_no_incumbent"] += stopped and result.partition is None
                if warm is not None:
                    # a span of its own, so that this bookkeeping is no
                    # caller's self time
                    warm_cut = t.span("trace.bookkeeping", check.cut_of, g.edges,
                                      warm.assignment)
                    counts["multilevel.refine_calls"] += 1
                    counts["multilevel.refine_improved"] += (
                        result.cut is not None and result.cut < warm_cut)
            return result
        return wrapper

    def initial(original):
        infeasible = getattr(sys.modules["dagpart.errors"], "InfeasibleInstanceError", ())

        def wrapper(*args, **kwargs):
            try:
                return t.span("multilevel.initial_partition", original, *args, **kwargs)
            except infeasible:
                counts["multilevel.initial_fallbacks"] += 1
                raise
        return wrapper

    def pipeline(original):
        def wrapper(*args, **kwargs):
            partition, info = original(*args, **kwargs)
            if t.enabled:
                counts["multilevel.levels"] += info.get("levels", 0)
                counts["multilevel.coarsest_n"] += info.get("coarsest_n", 0)
            return partition, info
        return wrapper

    t.wrap_function("dagpart.preprocess", "compute_tables", tables)
    t.wrap_function("dagpart.formulations", "build_formulation", build)
    t.wrap_function("dagpart.exact", "branch_and_bound", bnb)
    t.wrap_function("dagpart.multilevel", "initial_partition", initial)
    t.wrap_function("dagpart.multilevel", "multilevel_partition", pipeline)


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict:
    spans = tracer.self_times()
    counts = tracer.counts

    def secs(name):
        return spans.get(name, (0, 0.0))[1]

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    out = {
        "fileio.read_dag_text_s": (secs("fileio.read_dag_text"), "s"),
        "dag.Dag_calls": (calls("dag.Dag"), "count"),
        "dag.Dag_s": (secs("dag.Dag"), "s"),
        "dag.reach_calls": (calls("dag.reach"), "count"),
        "dag.reach_s": (secs("dag.reach"), "s"),
        "partition.validate_calls": (calls("partition.validate"), "count"),
        "partition.validate_s": (secs("partition.validate"), "s"),
        "preprocess.compute_tables_s": (secs("preprocess.compute_tables"), "s"),
        "preprocess.pairs": (counts["preprocess.pairs"], "count"),
        "preprocess.triples": (counts["preprocess.triples"], "count"),
    }
    for name in FORMULATIONS:
        out[f"formulations.build_s.{name}"] = (secs(f"formulations.build.{name}"), "s")
        out[f"formulations.constraints.{name}"] = (
            counts[f"formulations.constraints.{name}"], "count")
        out[f"formulations.nonzeros.{name}"] = (counts[f"formulations.nonzeros.{name}"],
                                                "count")
        out[f"model.lp_bytes.{name}"] = (counts[f"model.lp_bytes.{name}"], "bytes")
    for name in ("model.write_lp", "model.read_solution", "model.evaluate",
                 "formulations.decode_partition"):
        out[f"{name}_s"] = (secs(name), "s")
    bnb_s = secs("exact.bnb")
    out.update({
        "exact.bnb_calls": (calls("exact.bnb"), "count"),
        "exact.bnb_s": (bnb_s, "s"),
        "exact.bnb_nodes": (counts["exact.bnb_nodes"], "count"),
        "exact.bnb_nodes_per_s": (counts["exact.bnb_nodes"] / bnb_s if bnb_s else 0.0, "1/s"),
        "exact.bnb_stopped": (counts["exact.bnb_stopped"], "count"),
        "exact.bnb_stopped_no_incumbent": (counts["exact.bnb_stopped_no_incumbent"],
                                           "count"),
        "multilevel.coarsen_s": (secs("multilevel.coarsen"), "s"),
        "multilevel.levels": (counts["multilevel.levels"], "count"),
        "multilevel.coarsest_n": (counts["multilevel.coarsest_n"], "count"),
        "multilevel.initial_partition_s": (secs("multilevel.initial_partition"), "s"),
        "multilevel.initial_fallbacks": (counts["multilevel.initial_fallbacks"], "count"),
        "multilevel.uncoarsen_refine_s": (secs("multilevel.uncoarsen_refine"), "s"),
        "multilevel.refine_calls": (counts["multilevel.refine_calls"], "count"),
        "multilevel.refine_improved": (counts["multilevel.refine_improved"], "count"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s, "%"),
        "trace.absent_layers": (len(tracer.absent), "count"),
    })
    return out


# -- main --------------------------------------------------------------------

def end_to_end(ops: list[Op], rounds: int, setup_s: float) -> dict:
    times = sorted(op.seconds for op in ops)
    out = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
    }
    if len(times) >= TAIL_MIN_OPS:
        # the highest percentile that still has ten samples above it
        out["op_tail_s"] = (times[len(times) - 11], "s")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    out["cut_total"] = (sum(op.cut for op in ops) // rounds, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=ROUND_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dagpart" / "__init__.py").is_file():
        print(f"error: no dagpart package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    check.self_test()

    base, insts = corpus.seeded_corpus(args.workload, args.seed)
    refs = reference_optima(base) if args.workload == "exact" else {}
    texts = [inst.text() for inst in insts]
    dp, first = load(texts)
    rounds = max(1, round(args.seconds / ROUND_SECONDS))

    # The other set-up repeats are spread over the first round, so that their
    # median does not rest on one stretch of the machine's speed.
    setups = [first]
    per_round = sum(1 for _ in operations(args.workload, base, insts, refs, None))
    marks = {(2 * i + 1) * per_round // (2 * SETUP_REPEATS - 2)
             for i in range(SETUP_REPEATS - 1)}

    def setup_again(i):
        if i in marks and len(setups) < SETUP_REPEATS:
            setups.append(load(texts)[1])

    tracer = Tracer()
    ops = []
    if args.trace:
        install_trace(tracer, dp)
        plain, traced = [], []
        for _ in range(rounds):
            without, with_spans = paired_round(args.workload, dp, base, insts, texts,
                                               refs, tracer)
            plain += without
            traced += with_spans
        for name in tracer.absent:
            print(f"trace: layer {name} is absent", file=sys.stderr)
        metrics = layer_metrics(tracer, sum(op.seconds for op in plain),
                                sum(op.seconds for op in traced))
        ops = plain + traced
    else:
        for _ in range(rounds):
            ops += run_round(args.workload, dp, base, insts, texts, refs, tracer,
                             setup_again)
        metrics = end_to_end(ops, rounds, statistics.median(setups))

    failed = [op for op in ops if op.problems]
    for op in failed[:5]:
        print("failed: " + "; ".join(op.problems), file=sys.stderr)
    if len(failed) > 5:
        print(f"failed: ... {len(failed) - 5} more in {OUT}", file=sys.stderr)
    result = {
        "correct": all(op.known_fault for op in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, problems=[p for op in failed for p in op.problems],
                  op_seconds=[[op.label, op.seconds, op.phases] for op in ops],
                  spans={name: {"calls": calls, "self_s": secs}
                         for name, (calls, secs) in sorted(tracer.self_times().items())},
                  absent_layers=tracer.absent)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
