"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The lines are written straight to the real stderr so they appear in the
captured run log regardless of pytest's output capturing.
"""

import random
import sys
import time

from dagpart import (
    BuildOptions,
    Dag,
    FORMULATION_NAMES,
    Partition,
    balance_bound,
    branch_and_bound,
    brute_force,
    build_formulation,
    canonical_assignment,
    circuit_to_dag,
    coarsen,
    edge_cut,
    evaluate,
    exhaustive_model_optimum,
    is_acyclic_partition,
    min_parts_partition,
    multilevel_partition,
    parse_circuit,
    read_solution,
    renumber_topologically,
    validate,
    write_lp,
)
from dagpart.exact import OPTIMAL
from dagpart.qcircuit import part_qubit_counts

from conftest import (
    all_partitions,
    chain,
    diamond,
    fig1_graph,
    noniso_dags,
    random_dag,
    renumber_by_size,
)

EPS_CHOICES = (0, "3/10")
K_CHOICES = (2, 3)


def _report(capsys, num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {num} ({label}): {status}{suffix}", file=sys.stderr)
        sys.stderr.flush()


def _exhaustive_corpus():
    graphs = []
    for n in range(1, 6):
        graphs.extend(noniso_dags(n))
    return graphs


def test_acceptance_1_oracle_equivalence(capsys):
    start = time.monotonic()
    failures = []
    count = 0
    for g in _exhaustive_corpus():
        for k in K_CHOICES:
            for eps in EPS_CHOICES:
                count += 1
                a = brute_force(g, k, eps)
                b = branch_and_bound(g, k, eps)
                if a.status != b.status or (a.status == OPTIMAL
                                            and a.cut != b.cut):
                    failures.append((g.edges, k, eps, a.status, b.status))
    rng = random.Random(424242)
    for _ in range(500):
        g = random_dag(rng, rng.randint(2, 9))
        k = rng.choice(K_CHOICES)
        eps = rng.choice(EPS_CHOICES)
        count += 1
        a = brute_force(g, k, eps)
        b = branch_and_bound(g, k, eps)
        if a.status != b.status or (a.status == OPTIMAL and a.cut != b.cut):
            failures.append((g.edges, k, eps, a.status, b.status))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300
    _report(capsys, 1, "oracle equivalence", ok,
            f"{count} instances, {elapsed:.1f}s, {len(failures)} mismatches")
    assert ok, failures[:3] or f"too slow: {elapsed:.1f}s"


DIRECTED_FORMULATIONS = ("proposed", "nossack", "albareda-base",
                         "albareda-extended", "albareda-final")


def _soundness_corpus():
    cases = []
    for n in range(1, 5):
        for g in noniso_dags(n):
            for k in K_CHOICES:
                cases.append((g, k, 0))
    cases.append((chain(5), 2, 0))
    cases.append((chain(5), 3, "3/10"))
    cases.append((Dag([1, 1, 1, 1, 1, 1],
                      [(0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 3), (3, 4, 1),
                       (4, 5, 2)]), 2, 0))
    cases.append((random_dag(random.Random(7), 7, p=0.35), 2, "3/10"))
    # heavy edge: the pairwise path weight exceeds the bound on a real edge
    cases.append((Dag([2, 2, 1], [(0, 1, 5), (1, 2, 1)]), 2, 0))
    # vertex ids deliberately not in topological order
    cases.append((Dag([1, 1, 1, 1],
                      [(2, 0, 1), (0, 1, 3), (2, 3, 2), (3, 1, 1)]), 2, "1/2"))
    return cases


def test_acceptance_2_soundness_completeness(capsys):
    failures = []
    checked = 0
    for g, k, eps in _soundness_corpus():
        models = {name: build_formulation(name, g, BuildOptions(k=k, eps=eps))
                  for name in DIRECTED_FORMULATIONS}
        total = g.total_cost
        for p in all_partitions(g.n, k):
            report = validate(g, p, k, eps)
            cut = report.cut
            for name, m in models.items():
                checked += 1
                # soundness over canonical completions: a feasible encoding
                # must correspond to a feasible partition with matching cut
                res = evaluate(m, canonical_assignment(m, g, p),
                               early_exit=not report.feasible)
                if res.feasible:
                    expected = total - cut if name != "proposed" else cut
                    if not report.feasible or res.objective != expected:
                        failures.append(("sound", name, g.edges, k, eps,
                                         p.assignment))
            if not report.feasible:
                continue
            # completeness: the suitably renumbered partition must extend to
            # a feasible encoding with the matching objective
            topo_p = renumber_topologically(g, p.assignment, k)
            size_p = renumber_by_size(g, p)
            for name, m in models.items():
                pnum = size_p if name == "nossack" else topo_p
                res = evaluate(m, canonical_assignment(m, g, pnum))
                expected = total - cut if name != "proposed" else cut
                if not res.feasible or res.objective != expected:
                    failures.append(("complete", name, g.edges, k, eps,
                                     p.assignment, res.violations[:2]))
    ok = not failures
    _report(capsys, 2, "formulation soundness/completeness", ok,
            f"{checked} encodings checked, {len(failures)} failures")
    assert ok, failures[:3]


def test_acceptance_3_cross_formulation_optima(capsys):
    failures = []
    count = 0
    cases = []
    for n in range(1, 5):
        for g in noniso_dags(n):
            for k in K_CHOICES:
                cases.append((g, k, 0))
    cases += [
        (chain(5), 2, 0),
        (chain(5), 3, "3/10"),
        (diamond(), 3, 0),
        (Dag([2, 2, 1], [(0, 1, 5), (1, 2, 1)]), 2, 0),
        (Dag([1, 1, 1, 1], [(2, 0, 1), (0, 1, 3), (2, 3, 2), (3, 1, 1)]),
         3, "1/2"),
    ]
    for g, k, eps in cases:
        count += 1
        oracle = brute_force(g, k, eps)
        reference = oracle.cut if oracle.status == OPTIMAL else None
        for name in FORMULATION_NAMES:
            m = build_formulation(name, g, BuildOptions(k=k, eps=eps))
            cut, _ = exhaustive_model_optimum(m, g)
            if name == "undirected":
                if reference is None:
                    continue  # relaxation may stay feasible where oracle is not
                if cut is None or cut > reference:
                    failures.append((name, g.edges, k, eps, cut, reference))
            elif cut != reference:
                failures.append((name, g.edges, k, eps, cut, reference))
    ok = not failures
    _report(capsys, 3, "cross-formulation optimum equality", ok,
            f"{count} instances, {len(failures)} mismatches")
    assert ok, failures[:3]


def test_acceptance_4_acyclicity_invariant(capsys):
    rng = random.Random(99)
    bad = []
    total = 0

    def check(g, p, k, eps, source):
        nonlocal total
        total += 1
        bound = balance_bound(g, k, eps)
        weights = [0] * k
        for i, s in enumerate(p.assignment):
            weights[s] += g.w[i]
        if not is_acyclic_partition(g, p) or any(w > bound for w in weights):
            bad.append((source, g.edges, k, eps, p.assignment))

    for g in noniso_dags(4):
        for k in K_CHOICES:
            for engine in (brute_force, branch_and_bound):
                result = engine(g, k, 0)
                if result.partition is not None:
                    check(g, result.partition, k, 0, engine.__name__)
    for _ in range(20):
        g = random_dag(rng, rng.randint(4, 9))
        k = rng.choice(K_CHOICES)
        if brute_force(g, k, "3/10").status != OPTIMAL:
            continue
        p, _ = multilevel_partition(g, k, "3/10", target_n=4)
        check(g, p, k, "3/10", "multilevel")
    for text in ("h a\ncx a b\n", "h a\ncx a b\ncx b c\n"):
        g, nq = circuit_to_dag(parse_circuit(text))
        k, p, _ = min_parts_partition(g, nq, eps="1", lm=2)
        check(g, p, k, "1", "quantum")
    ok = not bad
    _report(capsys, 4, "acyclicity and balance invariant", ok,
            f"{total} returned partitions, {len(bad)} violations")
    assert ok, bad[:3]


def test_acceptance_5_fig1_reproduction(capsys):
    g = fig1_graph()
    blue_red = Partition((0, 1, 0, 1), 2)
    cyclic_flagged = not is_acyclic_partition(g, blue_red)
    alternative = validate(g, Partition((0, 0, 1, 1), 2), 2, 0)
    exists = brute_force(g, 2, 0).status == OPTIMAL
    ok = cyclic_flagged and alternative.feasible and exists
    _report(capsys, 5, "toy cyclic/acyclic classification", ok,
            f"blue/red cyclic={cyclic_flagged}, "
            f"alternative feasible={alternative.feasible}")
    assert ok


def test_acceptance_6_multilevel_sanity(capsys):
    rng = random.Random(1234)
    cases = [(chain(n), k, 0) for n in range(5, 10) for k in K_CHOICES]
    while len(cases) < 40:
        g = random_dag(rng, rng.randint(5, 9))
        cases.append((g, rng.choice(K_CHOICES), "3/10"))
    matched = 0
    solved = 0
    infeasible_violations = []
    conservation_failures = []
    for g, k, eps in cases:
        # conservation: weights exactly, and cuts preserved under projection
        levels = coarsen(g, 4, max_weight=balance_bound(g, k, eps))
        finer = g
        for level in levels:
            if level.graph.total_weight != finer.total_weight:
                conservation_failures.append(("weight", g.edges))
            for assignment in ((0,) * level.graph.n,
                               tuple(i % 2 for i in range(level.graph.n))):
                pc = Partition(assignment, 2)
                pf = Partition(tuple(assignment[c] for c in level.mapping), 2)
                if edge_cut(level.graph, pc) != edge_cut(finer, pf):
                    conservation_failures.append(("cut", g.edges))
            finer = level.graph
        exact = brute_force(g, k, eps)
        if exact.status != OPTIMAL:
            continue
        solved += 1
        p, _ = multilevel_partition(g, k, eps, target_n=4)
        report = validate(g, p, k, eps)
        if not report.feasible:
            infeasible_violations.append((g.edges, k, eps))
        elif report.cut == exact.cut:
            matched += 1
    ratio = matched / solved if solved else 1.0
    ok = (ratio >= 0.8 and not infeasible_violations
          and not conservation_failures)
    _report(capsys, 6, "multilevel sanity", ok,
            f"{matched}/{solved} optimal ({ratio:.0%}), "
            f"{len(infeasible_violations)} infeasible, "
            f"{len(conservation_failures)} conservation failures")
    assert ok, (ratio, infeasible_violations[:2], conservation_failures[:2])


CIRCUITS = (
    ("h a\ncx a b\n", 2),
    ("h a\ncx a b\ncx b c\n", 2),
    ("cx a b\ncx b c\ncx c d\nh d\n", 2),
    ("cx a b\ncx c d\ncx b c\ncx a d\n", 3),
    ("h a\nh b\ncx a b\ncx b c\ncx a c\nh c\n", 2),
)


def test_acceptance_7_quantum_driver(capsys):
    failures = []
    for text, lm in CIRCUITS:
        g, nq = circuit_to_dag(parse_circuit(text))
        k, p, cut = min_parts_partition(g, nq, eps="1", lm=lm)
        expected_k = None
        for candidate in range(1, g.n + 1):
            if brute_force(g, candidate, "1", nq=nq, lm=lm).status == OPTIMAL:
                expected_k = candidate
                break
        counts = part_qubit_counts(nq, p)
        if k != expected_k or any(c > lm for c in counts):
            failures.append((text, lm, k, expected_k, counts))
    ok = not failures
    _report(capsys, 7, "quantum incremental-k driver", ok,
            f"{len(CIRCUITS)} circuits, {len(failures)} mismatches")
    assert ok, failures


GOLDEN = (
    # (graph, k, formulation, optimal solution text, optimal cut)
    (chain(3), 2, "proposed",
     "x_0_0 1\nx_1_0 1\nx_2_1 1\nz_1_2 1\ny_0_1 1\n", 1),
    (diamond(), 2, "proposed",
     "x_0_0 1\nx_1_0 1\nx_2_1 1\nx_3_1 1\nz_0_2 1\nz_1_3 1\ny_0_1 1\n", 2),
    (chain(4), 2, "nossack",
     "x_0_0 1\nx_1_0 1\nx_2_1 1\nx_3_1 1\n"
     "z_0_1 1\nz_2_3 1\ny_0_1 1\npi_0 0\npi_1 1\n", 1),
)


def test_acceptance_8_determinism_and_round_trip(capsys):
    failures = []
    for g, k, name in ((chain(3), 2, "proposed"), (diamond(), 3, "nossack"),
                       (chain(4), 2, "albareda-final")):
        texts = {write_lp(build_formulation(name, g, BuildOptions(k=k)))
                 for _ in range(3)}
        if len(texts) != 1:
            failures.append(("lp determinism", name))
    from dagpart import partition_from_text, partition_to_text
    p = Partition((0, 1, 2, 1), 3)
    if partition_from_text(partition_to_text(p), 3) != p:
        failures.append(("partition round trip",))
    for g, k, name, sol_text, optimum in GOLDEN:
        m = build_formulation(name, g, BuildOptions(k=k))
        write_lp(m)  # emission must not perturb the model
        assignment, warnings = read_solution(m, sol_text)
        res = evaluate(m, assignment)
        value = (res.objective if name == "proposed"
                 else g.total_cost - res.objective)
        oracle = brute_force(g, k, 0).cut
        if warnings or not res.feasible or value != optimum or value != oracle:
            failures.append(("golden", name, res.feasible, value, optimum,
                             res.violations[:2]))
    ok = not failures
    _report(capsys, 8, "determinism and round-trip", ok,
            f"{len(GOLDEN)} golden instances, {len(failures)} failures")
    assert ok, failures
