import random
from fractions import Fraction

import pytest

from dagpart import (
    BuildOptions,
    Dag,
    FORMULATION_NAMES,
    Partition,
    build_albareda,
    build_formulation,
    build_nossack,
    build_proposed,
    build_quantum,
    build_undirected,
    brute_force,
    canonical_assignment,
    circuit_to_dag,
    decode_partition,
    evaluate,
    exhaustive_model_optimum,
    parse_circuit,
    renumber_topologically,
    validate,
)
from dagpart.errors import (
    AmbiguousAssignmentError,
    InvalidKError,
    QubitCapacityInfeasibleError,
    TooLargeError,
)
from dagpart.formulations import (MAX_INTERNAL, a_prime_value, chained_triples,
                                  compute_A)
from dagpart.model import BINARY, INTEGER
from dagpart.qcircuit import part_qubit_counts

from conftest import (
    all_partitions,
    chain,
    diamond,
    noniso_dags,
    random_dag,
    renumber_by_size,
)
from test_lp_hashes import CIRCUIT, GRAPHS as LP_HASH_GRAPHS


def _vars_by_prefix(m):
    out = {}
    for v in m.variables:
        out.setdefault(v.name.split("_")[0], []).append(v)
    return out


def test_proposed_model_size():
    g = diamond()
    m = build_proposed(g, BuildOptions(k=2))
    groups = _vars_by_prefix(m)
    assert len(groups["x"]) == g.n * 2
    assert len(groups["z"]) == g.m
    assert len(groups["y"]) == 2 * 1
    assert all(v.kind == BINARY for v in m.variables)
    names = {c.name for c in m.constraints}
    # n onepart + k balance + mk cutmark + mk(k-1) induced + k(k-1)/2 lowertri
    assert len(m.constraints) == 4 + 2 + 8 + 8 + 1
    assert "lowertri_1_0" in names


def test_undirected_model_size():
    g = diamond()
    m = build_undirected(g, BuildOptions(k=3))
    groups = _vars_by_prefix(m)
    assert len(groups["x"]) == 12
    assert len(groups["z"]) == 4
    assert "y" not in groups
    assert len(m.constraints) == 4 + 3 + 4 * 3 * 2


def test_nossack_has_integer_pi():
    g = chain(3)
    m = build_nossack(g, BuildOptions(k=2))
    groups = _vars_by_prefix(m)
    assert len(groups["pi"]) == 2
    assert all(v.kind == INTEGER and v.lb == 0 and v.ub == 1 for v in groups["pi"])
    names = {c.name for c in m.constraints}
    assert "mtz_0_1" in names and "mtz_1_0" in names
    assert "symmetry_1" in names
    # chained triple (0,1,2) brings pair (0,2) into the z pool
    assert m.has_var("z_0_2")
    assert {"tri1_0_1_2", "tri2_0_1_2", "tri3_0_1_2",
            "tri4_0_1_2", "tri5_0_1_2"} <= names


def test_albareda_extended_fixes_heavy_pair_chain4():
    g = chain(4)
    m = build_albareda(g, BuildOptions(k=2), variant="extended")
    names = {c.name for c in m.constraints}
    # A(0,3) = 4 > B = 2, and (0,3) is not an edge
    assert "fixz_0_3" in names
    assert m.has_var("z_0_3")


def test_albareda_base_topo_families():
    g = chain(4)
    m = build_albareda(g, BuildOptions(k=2), variant="base")
    names = {c.name for c in m.constraints}
    assert "topo1_0_1_0" in names         # A(0,1) = 2 <= B
    assert "topo2_0_2_0" in names         # A(0,2) = 3 > B
    assert "topo3_0_1_0" in names         # generated for every edge
    assert not any(name.startswith("fixz") for name in names)


def test_albareda_final_replacement_families():
    g = diamond()
    m = build_albareda(g, BuildOptions(k=2), variant="final")
    names = {c.name for c in m.constraints}
    assert not any(name.startswith("topo") for name in names)
    assert "weightcap_0" in names
    assert any(name.startswith("acyc2_") for name in names)
    # (1, 2) incomparable descendants of 0 with A'(0,1,2) = 4 > B = 2
    assert "acyc1_0_1_2_0" in names


def test_relax_z_makes_continuous():
    g = chain(3)
    m = build_proposed(g, BuildOptions(k=2, relax_z=True))
    assert m.var("z_0_1").kind == "continuous"


def test_invalid_inputs():
    g = chain(3)
    for name in FORMULATION_NAMES:
        with pytest.raises(InvalidKError):
            build_formulation(name, g, BuildOptions(k=0))
    for strategy in ("incremental", "bigm"):
        with pytest.raises(InvalidKError):
            build_quantum(g, BuildOptions(k=0), [1, 1, 1], 1, strategy=strategy)
    with pytest.raises(ValueError):
        build_albareda(g, BuildOptions(k=2), variant="bogus")
    with pytest.raises(ValueError):
        build_formulation("nope", g, BuildOptions(k=2))


def test_canonical_assignment_round_trip():
    g = diamond()
    p = Partition((0, 0, 1, 1), 2)
    for name in FORMULATION_NAMES:
        m = build_formulation(name, g, BuildOptions(k=2))
        a = canonical_assignment(m, g, p)
        res = evaluate(m, a)
        assert res.feasible, (name, res.violations)
        decoded, cut = decode_partition(m, a)
        assert decoded == p
        assert cut == 2


def test_canonical_assignment_sees_variables_added_later():
    # each call reads the model's variables afresh, so a variable added
    # after an earlier call is encoded, and an unknown tag still rejected
    g = chain(3)
    m = build_proposed(g, BuildOptions(k=2))
    p = Partition((0, 0, 1), 2)
    first = canonical_assignment(m, g, p)
    m.add_binary("z_0_2")
    assert canonical_assignment(m, g, p) == {**first, "z_0_2": 1}
    m.add_binary("w_0")
    with pytest.raises(ValueError):
        canonical_assignment(m, g, p)


def test_nossack_needs_size_sorted_numbering():
    # part sizes must be non-increasing with the part index for the
    # symmetry constraint; a size-increasing numbering is model-infeasible
    g = chain(3)
    m = build_nossack(g, BuildOptions(k=2))
    small_first = Partition((0, 1, 1), 2)
    res = evaluate(m, canonical_assignment(m, g, small_first))
    assert not res.feasible
    sorted_p = renumber_by_size(g, small_first)
    assert sorted_p.assignment == (1, 0, 0)
    res = evaluate(m, canonical_assignment(m, g, sorted_p))
    assert res.feasible


def test_decode_rejects_ambiguous_x():
    g = chain(2)
    m = build_proposed(g, BuildOptions(k=2))
    a = canonical_assignment(m, g, Partition((0, 1), 2))
    a["x_0_1"] = 1
    with pytest.raises(AmbiguousAssignmentError):
        decode_partition(m, a)


def test_optimum_equality_small_corpus():
    cases = [
        (diamond(), 2, 0),
        (chain(5), 2, 0),
        (chain(4), 3, 0),
        (Dag([1, 2, 1, 2], [(0, 1, 3), (0, 2, 1), (2, 3, 2)]), 2, "1/2"),
    ]
    for g, k, eps in cases:
        oracle = brute_force(g, k, eps)
        for name in FORMULATION_NAMES:
            m = build_formulation(name, g, BuildOptions(k=k, eps=eps))
            cut, p = exhaustive_model_optimum(m, g)
            if name == "undirected":
                assert cut is not None and cut <= oracle.cut
            else:
                assert cut == oracle.cut, (name, cut, oracle.cut)
                assert validate(g, p, k, eps).feasible


def test_exhaustive_optimum_guard():
    # 2^25 assignments: refused before any is enumerated
    m = build_formulation("proposed", chain(25), BuildOptions(k=2))
    with pytest.raises(TooLargeError):
        exhaustive_model_optimum(m, chain(25))


def test_exhaustive_optimum_infeasible():
    g = Dag([3, 1], [(0, 1, 1)])
    m = build_proposed(g, BuildOptions(k=2))
    assert exhaustive_model_optimum(m, g) == (None, None)


def test_quantum_model_shapes():
    g = chain(3)
    nq = (0b01, 0b11, 0b10)
    m = build_quantum(g, BuildOptions(k=2), nq, lm=2)
    names = {c.name for c in m.constraints}
    assert "qubit_0_0_0" in names and "qubit_1_1_1" in names
    assert "capacity_0" in names and "capacity_1" in names
    assert m.meta["lm"] == 2 and m.meta["strategy"] == "incremental"
    assert not m.has_var("u_0")


def test_quantum_bigm_objective_dominates():
    g = chain(3)
    nq = (0b01, 0b11, 0b10)
    m = build_quantum(g, BuildOptions(k=3), nq, lm=2, strategy="bigm")
    assert m.meta["big_m"] == 1 + g.total_cost
    assert m.has_var("u_0") and m.has_var("u_2")
    coefs = dict((name, c) for c, name in m.objective_terms)
    assert coefs["u_0"] == 3 and coefs["z_0_1"] == 1


def test_quantum_rejects_oversized_gate():
    g = chain(2)
    nq = (0b111, 0b001)
    with pytest.raises(QubitCapacityInfeasibleError):
        build_quantum(g, BuildOptions(k=2), nq, lm=2)


def test_quantum_canonical_capacity_violation_detected():
    g = chain(3)
    nq = (0b001, 0b010, 0b100)
    m = build_quantum(g, BuildOptions(k=1, eps=3), nq, lm=2)
    res = evaluate(m, canonical_assignment(m, g, Partition((0, 0, 0), 1)))
    assert not res.feasible
    assert any("capacity" in v for v in res.violations)


@pytest.mark.parametrize("seed", range(3))
def test_quantum_canonical_pq_is_part_qubit_union(seed):
    # on every partition into k <= 3 parts, pq_s_q is 1 exactly when some
    # vertex of part s touches qubit q, and part_qubit_counts reports how
    # many such q part s has
    rng = random.Random(seed)
    qubits = "abc"[:rng.randint(2, 3)]
    # n = gates + 2 * qubits: 7 vertices in 3 parts, or 8 in 2
    gates, k = (3, 3) if len(qubits) == 2 else (2, 2)
    text = "".join(f"g {' '.join(rng.sample(qubits, rng.randint(1, 2)))}\n"
                   for _ in range(gates))
    circuit = parse_circuit(text)
    g, nq = circuit_to_dag(circuit)
    n_qubits = len(circuit.qubits)
    m = build_quantum(g, BuildOptions(k=k, eps=3), nq, lm=3)

    def pq_values(p):
        point = canonical_assignment(m, g, p)
        return {name: v for name, v in point.items() if name.startswith("pq_")}

    for p in all_partitions(g.n, k):
        touched = [[int(any(p.assignment[i] == s and nq[i] >> q & 1
                            for i in range(g.n))) for q in range(n_qubits)]
                   for s in range(k)]
        assert pq_values(p) == {f"pq_{s}_{q}": touched[s][q]
                                for s in range(k) for q in range(n_qubits)}
        assert part_qubit_counts(nq, p) == [sum(row) for row in touched]
    # a partition into fewer parts than the model's leaves the rest empty
    assert pq_values(Partition((0,) * g.n, 1)) == {
        f"pq_{s}_{q}": int(s == 0) for s in range(k) for q in range(n_qubits)}


def test_formulation_agreement_noniso_n3():
    for g in noniso_dags(3):
        oracle = brute_force(g, 2, 0)
        m = build_proposed(g, BuildOptions(k=2))
        cut, _ = exhaustive_model_optimum(m, g)
        if oracle.status == "optimal":
            assert cut == oracle.cut
        else:
            assert cut is None


def _zflip_cases():
    """Tiny random DAGs, each with a feasible partition that cuts an edge,
    numbered as each formulation's canonical encoding expects."""
    rng = random.Random(4077)
    cases = []
    while len(cases) < 40:
        g = random_dag(rng, rng.randint(4, 7), p=0.45)
        eps = Fraction(1, 2)
        for p in all_partitions(g.n, 2):
            cut = [(u, v) for u, v, _ in g.edges if p.assignment[u] != p.assignment[v]]
            if cut and validate(g, p, 2, eps).feasible:
                cases.append((g, eps, p, cut[0]))
                break
    return cases


@pytest.mark.parametrize("name", FORMULATION_NAMES)
def test_zflip_probe_rejected(name):
    """Setting one cut edge's z to "same part" in a feasible canonical point
    must make the point infeasible; otherwise a solver can claim a false cut."""
    accepted = []
    for g, eps, p, (u, v) in _zflip_cases():
        m = build_formulation(name, g, BuildOptions(k=2, eps=eps))
        numbered = (renumber_by_size(g, p) if name == "nossack"
                    else renumber_topologically(g, p.assignment, 2))
        point = canonical_assignment(m, g, numbered)
        assert evaluate(m, point).feasible, (name, g.edges, p.assignment)
        point[f"z_{u}_{v}"] = 1 if m.meta["convention"] == MAX_INTERNAL else 0
        if evaluate(m, point, early_exit=True).feasible:
            accepted.append((g.edges, p.assignment, (u, v)))
    assert not accepted, f"{len(accepted)} flipped points accepted, e.g. {accepted[0]}"


def test_A_chain():
    A = compute_A(chain(4))
    assert A[(0, 1)] == 2
    assert A[(0, 2)] == 3   # interior vertex 1
    assert A[(0, 3)] == 4
    assert (1, 0) not in A


def test_A_diamond_counts_both_branches():
    # both interior branch vertices 1 and 2 lie on some 0->3 path
    assert compute_A(diamond())[(0, 3)] == 4


def test_A_weighted():
    g = Dag([2, 5, 3], [(0, 1, 1), (1, 2, 1)])
    assert compute_A(g)[(0, 2)] == 10


@pytest.mark.parametrize("seed", range(8))
def test_A_grows_along_chained_triples(seed):
    # build_albareda skips the row tests that this inequality decides
    rng = random.Random(seed)
    n = rng.randint(8, 24)
    label = rng.sample(range(n), n)  # vertex ids not in topological order
    edges = [(label[i], label[j], 1) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.25]
    g = Dag([rng.randint(0, 5) for _ in range(n)], edges)
    A = compute_A(g)
    triples = chained_triples(g)
    assert triples
    for i, j, l in triples:
        assert A[(i, l)] >= max(A[(i, j)], A[(j, l)]), (seed, i, j, l)


def test_a_prime_chain():
    g = chain(4)
    assert a_prime_value(g, 0, 1, 2) == 3
    assert a_prime_value(g, 0, 1, 3) == 4
    assert a_prime_value(g, 0, 2, 3) == 4


def test_a_prime_no_double_count():
    g = diamond()
    # triple (0, 1, 3): path 0->3 also runs through 2, so 2 is counted once
    assert a_prime_value(g, 0, 1, 3) == 4


def test_triples_table_keys_are_chained():
    # (0, 1, 2) is absent: 1 does not reach 2
    assert set(chained_triples(diamond())) == {(0, 1, 3), (0, 2, 3)}


@pytest.mark.parametrize("seed", range(6))
def test_a_prime_of_chained_triple_is_A(seed):
    # every vertex on an i->j or j->l path, and j itself, lies on an i->l
    # path, so A' adds nothing over A on chained triples
    rng = random.Random(seed)
    g = random_dag(rng, rng.randint(6, 14), p=rng.choice((0.2, 0.4, 0.6)), max_w=5)
    labels = list(range(g.n))
    rng.shuffle(labels)   # make vertex-id order differ from topological order
    g = Dag([g.w[labels.index(v)] for v in range(g.n)],
            [(labels[u], labels[v], c) for u, v, c in g.edges])
    A = compute_A(g)
    triples = chained_triples(g)
    assert triples
    for i, j, l in triples:
        assert a_prime_value(g, i, j, l) == A[(i, l)]


def _assert_equal_pairs_are_one_object(m):
    pairs = [pair for con in m.constraints for pair in con.terms]
    pairs += m.objective_terms
    assert len({id(pair) for pair in pairs}) == len(set(pairs)) < len(pairs)


@pytest.mark.parametrize("name", FORMULATION_NAMES)
def test_models_share_equal_term_pairs(name):
    for make in LP_HASH_GRAPHS.values():
        _assert_equal_pairs_are_one_object(
            build_formulation(name, make(), BuildOptions(k=3, eps=Fraction(1, 10))))


@pytest.mark.parametrize("strategy", ["incremental", "bigm"])
def test_quantum_models_share_equal_term_pairs(strategy):
    g, nq = circuit_to_dag(parse_circuit(CIRCUIT))
    for k in (2, 3):
        _assert_equal_pairs_are_one_object(
            build_quantum(g, BuildOptions(k=k, eps=Fraction(1, 2)), nq, lm=3,
                          strategy=strategy))


def test_models_store_only_the_pairs_their_rows_read():
    # every id table, the (-1, x) and (-1, z) ones included, holds only the
    # pairs that a row or the objective reads, on the LP-hash graphs and on
    # a path with an isolated vertex; nossack's (2, z) table, for tri5,
    # holds only the (i, h) pairs of its triples (i, j, h), and an edge of
    # cost 2 puts its (2, z) pair in the objective
    opts = BuildOptions(k=3, eps=Fraction(1, 10))
    graphs = [make() for make in LP_HASH_GRAPHS.values()]
    graphs.append(Dag([1, 1, 1, 1], [(0, 1, 1), (1, 2, 1)]))
    for name in FORMULATION_NAMES:
        for g in graphs:
            m = build_formulation(name, g, opts)
            used = {pair for con in m.constraints for pair in con.terms}
            assert set(m._pairs) == used | set(m.objective_terms), (name, g.n)
    g = graphs[0]
    m = build_formulation("nossack", g, opts)
    doubled = {name for coef, name in m._pairs if coef == 2 and name.startswith("z_")}
    objective = {name for coef, name in m.objective_terms if coef == 2}
    assert doubled == objective | {f"z_{i}_{h}" for i, _, h in chained_triples(g)}
