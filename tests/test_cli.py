import json
import sys
from pathlib import Path

import pytest

from dagpart import Dag, write_dag_file
from dagpart.cli import build_parser, main
from dagpart.multilevel import DEFAULT_REFINE_BUDGET

from conftest import chain

DIAMOND = """\
p adag 4 4
v 1
v 1
v 1
v 1
e 0 1 1
e 0 2 1
e 1 3 1
e 2 3 1
"""

CYCLIC = "p adag 2 2\nv 1\nv 1\ne 0 1 1\ne 1 0 1\n"

GHZ = "h q0\ncx q0 q1\ncx q1 q2\n"


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.dag"
    path.write_text(DIAMOND)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_example():
    """The graph file and the (argv, JSON output) pairs of README's Example."""
    section = README.read_text().split("\n## Example\n", 1)[1]
    graph, session = section.split("```")[1:4:2]
    runs = []
    for chunk in session.split("$ dagpart ")[1:]:
        command, _, output = chunk.partition("\n")
        runs.append((command.split(), json.loads(output)))
    return graph.lstrip("\n"), runs


def test_readme_example_matches_cli(capsys, tmp_path, monkeypatch):
    graph, runs = _readme_example()
    assert graph == DIAMOND
    assert [argv[0] for argv, _ in runs] == ["partition", "compare"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "examples-diamond.dag").write_text(graph)
    for argv, expected in runs:
        code, payload, _ = run(capsys, *argv)
        assert code == 0
        assert payload == expected


def test_check_ok(capsys, graph_file):
    code, payload, _ = run(capsys, "check", "--graph", graph_file)
    assert code == 0
    assert payload["n"] == 4 and payload["m"] == 4
    assert len(payload["topo_hash"]) == 16


def test_check_deterministic_hash(capsys, graph_file):
    _, first, _ = run(capsys, "check", "--graph", graph_file)
    _, second, _ = run(capsys, "check", "--graph", graph_file)
    assert first["topo_hash"] == second["topo_hash"]


def test_check_cyclic_graph_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.dag"
    path.write_text(CYCLIC)
    code, _, err = run(capsys, "check", "--graph", str(path))
    assert code == 1
    assert "invalid graph" in err


def test_check_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "noise.dag"
    path.write_text("hello world\n")
    code, _, _ = run(capsys, "check", "--graph", str(path))
    assert code == 2


def test_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, "check", "--graph", "/nonexistent.dag")
    assert code == 2


def test_usage_error_exit_2(capsys, graph_file):
    assert main(["partition", "--graph", graph_file]) == 2   # missing --k
    capsys.readouterr()


def test_partition_optimal(capsys, graph_file, tmp_path):
    out = tmp_path / "p.part"
    code, payload, _ = run(capsys, "partition", "--graph", graph_file,
                           "--k", "2", "--out", str(out))
    assert code == 0
    assert payload["status"] == "optimal" and payload["cut"] == 2
    assert out.read_text() == "0\n0\n1\n1\n"


def test_partition_brute_engine(capsys, graph_file):
    code, payload, _ = run(capsys, "partition", "--graph", graph_file,
                           "--k", "2", "--engine", "brute")
    assert code == 0 and payload["cut"] == 2


def test_partition_brute_rejects_node_budget(capsys, graph_file):
    code, payload, err = run(capsys, "partition", "--graph", graph_file, "--k", "2",
                             "--engine", "brute", "--budget-nodes", "0")
    assert code == 2 and payload is None
    assert "--budget-nodes" in err


def test_partition_brute_rejects_warm_start(capsys, graph_file, tmp_path):
    warm = tmp_path / "warm.part"
    warm.write_text("0\n0\n1\n1\n")
    code, payload, err = run(capsys, "partition", "--graph", graph_file, "--k", "2",
                             "--engine", "brute", "--warm", str(warm))
    assert code == 2 and payload is None
    assert "--warm" in err


def test_partition_infeasible_exit_3(capsys, tmp_path):
    path = tmp_path / "g.dag"
    path.write_text("p adag 2 1\nv 3\nv 1\ne 0 1 1\n")
    code, payload, _ = run(capsys, "partition", "--graph", str(path), "--k", "2")
    assert code == 3
    assert payload["status"] == "infeasible"


def test_partition_warm_start(capsys, graph_file, tmp_path):
    warm = tmp_path / "warm.part"
    warm.write_text("0\n0\n1\n1\n")
    code, payload, _ = run(capsys, "partition", "--graph", graph_file,
                           "--k", "2", "--warm", str(warm))
    assert code == 0 and payload["cut"] == 2


def test_partition_invalid_warm_exit_2(capsys, graph_file, tmp_path):
    warm = tmp_path / "warm.part"
    warm.write_text("0\n0\n0\n1\n")  # unbalanced
    code, _, err = run(capsys, "partition", "--graph", graph_file,
                       "--k", "2", "--warm", str(warm))
    assert code == 2
    assert "warm" in err


def test_partition_unparsable_warm_exit_2(capsys, graph_file, tmp_path):
    warm = tmp_path / "warm.part"
    warm.write_text("0\n0\nx\n1\n")
    code, payload, err = run(capsys, "partition", "--graph", graph_file,
                             "--k", "2", "--warm", str(warm))
    assert code == 2 and payload is None
    assert "cannot read warm start: line 3: expected a part id, got 'x'" in err


def test_emit_lp_deterministic(capsys, graph_file, tmp_path):
    paths = []
    for i in range(3):
        out = tmp_path / f"m{i}.lp"
        code = main(["emit-lp", "--graph", graph_file, "--k", "2",
                     "--formulation", "proposed", "--out", str(out)])
        assert code == 0
        paths.append(out.read_bytes())
    capsys.readouterr()
    assert paths[0] == paths[1] == paths[2]
    assert paths[0].startswith(b"\\ Problem: proposed")


def test_emit_lp_stdout(capsys, graph_file):
    code = main(["emit-lp", "--graph", graph_file, "--k", "2",
                 "--formulation", "nossack"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("\\ Problem: nossack")
    assert out.endswith("End\n")


def test_ingest_solution_good(capsys, graph_file, tmp_path):
    sol = tmp_path / "m.sol"
    sol.write_text("x_0_0 1\nx_1_0 1\nx_2_1 1\nx_3_1 1\n"
                   "z_0_2 1\nz_1_3 1\ny_0_1 1\n")
    out = tmp_path / "p.part"
    code, payload, _ = run(capsys, "ingest-solution", "--graph", graph_file,
                           "--k", "2", "--formulation", "proposed",
                           "--solution", str(sol), "--out", str(out))
    assert code == 0
    assert payload["cut"] == 2 and payload["model_feasible"]
    assert out.read_text() == "0\n0\n1\n1\n"


def test_ingest_solution_violations_exit_3(capsys, graph_file, tmp_path):
    sol = tmp_path / "m.sol"
    # claims z = 0 everywhere despite a cut: cutmark constraints fail
    sol.write_text("x_0_0 1\nx_1_0 1\nx_2_1 1\nx_3_1 1\ny_0_1 1\n")
    code, payload, _ = run(capsys, "ingest-solution", "--graph", graph_file,
                           "--k", "2", "--formulation", "proposed",
                           "--solution", str(sol))
    assert code == 3
    assert not payload["model_feasible"]
    assert payload["violations"]


def test_ingest_solution_false_claimed_cut_exit_3(capsys, graph_file, tmp_path):
    sol = tmp_path / "m.sol"
    # model-feasible, but z_0_1 = 1 marks the uncut edge 0->1 as cut
    sol.write_text("x_0_0 1\nx_1_0 1\nx_2_1 1\nx_3_1 1\n"
                   "z_0_1 1\nz_0_2 1\nz_1_3 1\ny_0_1 1\n")
    code, payload, _ = run(capsys, "ingest-solution", "--graph", graph_file,
                           "--k", "2", "--formulation", "proposed",
                           "--solution", str(sol))
    assert code == 3
    assert payload["model_feasible"]
    assert payload["cut"] == 2 and payload["claimed_cut"] == "3"
    assert payload["violations"] == ["claimed cut 3 differs from the true cut 2"]


def test_ingest_solution_parse_error_exit_2(capsys, graph_file, tmp_path):
    sol = tmp_path / "m.sol"
    sol.write_text("x_0_0 what\n")
    code, _, _ = run(capsys, "ingest-solution", "--graph", graph_file,
                     "--k", "2", "--formulation", "proposed",
                     "--solution", str(sol))
    assert code == 2


def test_compare_agreement(capsys, graph_file):
    code, payload, _ = run(capsys, "compare", "--graph", graph_file, "--k", "2")
    assert code == 0
    assert payload["brute_force"] == 2
    for name in ("proposed", "nossack", "albareda-base",
                 "albareda-extended", "albareda-final"):
        assert payload[name] == 2
    assert payload["undirected"] <= 2


def test_compare_guard_exit_4(capsys, tmp_path):
    path = tmp_path / "big.dag"
    write_dag_file(chain(40), path)
    code, _, err = run(capsys, "compare", "--graph", str(path), "--k", "2")
    assert code == 4
    assert "guard" in err


def test_multilevel_cli(capsys, tmp_path):
    path = tmp_path / "c.dag"
    write_dag_file(chain(12), path)
    out = tmp_path / "p.part"
    code, payload, _ = run(capsys, "multilevel", "--graph", str(path),
                           "--k", "3", "--target-n", "4", "--out", str(out))
    assert code == 0
    assert payload["feasible"]
    assert payload["cut"] == 2
    assert payload["fallbacks"] == {"infeasible": 0, "budget": 0}
    assert len(out.read_text().splitlines()) == 12


def test_multilevel_cli_reports_fallbacks(capsys, tmp_path):
    # contracting 4->5 (weight 2, half the bound 5) leaves five vertices of
    # weight 2, which no two parts of weight 5 hold
    path = tmp_path / "f.dag"
    write_dag_file(Dag([2, 2, 2, 2, 1, 1], [(4, 5, 1)]), path)
    code, payload, _ = run(capsys, "multilevel", "--graph", str(path),
                           "--k", "2", "--target-n", "2")
    assert code == 0
    assert payload["fallbacks"] == {"infeasible": 1, "budget": 0}
    assert payload["levels"] == 0


def test_multilevel_cli_chain20_install_smoke(capsys, tmp_path):
    # the install-smoke CI job's check on the console script: a 20-vertex
    # chain coarsened to 2 vertices runs coarsening and refinement, and cut
    # 1 is the optimum
    path = tmp_path / "chain20.dag"
    path.write_text("p adag 20 19\n" + "v 1\n" * 20
                    + "".join(f"e {i} {i + 1} 1\n" for i in range(19)))
    code, payload, _ = run(capsys, "multilevel", "--graph", str(path),
                           "--k", "2", "--target-n", "2")
    assert code == 0
    assert payload["feasible"] is True
    assert payload["levels"] >= 1
    assert payload["cut"] == 1


def test_partition_beyond_recursion_limit_solves(capsys, tmp_path):
    path = tmp_path / "long.dag"
    write_dag_file(chain(3 * sys.getrecursionlimit()), path)
    code, payload, _ = run(capsys, "partition", "--graph", str(path),
                           "--k", "2", "--budget-nodes", "5000")
    assert code == 0
    assert (payload["status"], payload["cut"], payload["nodes"]) == ("optimal", 1, 4501)


def test_multilevel_budget_stop_exit_2(capsys, tmp_path):
    # cut 1 is feasible; a budget of 3 nodes stops before any partition
    path = tmp_path / "chain4.dag"
    write_dag_file(chain(4), path)
    code, payload, err = run(capsys, "multilevel", "--graph", str(path),
                             "--k", "2", "--budget-nodes", "3")
    assert code == 2
    assert payload is None
    assert "budget ran out" in err
    assert "infeasible" not in err


@pytest.mark.parametrize("flag, value", [("--target-n", "1"),
                                         ("--budget-nodes", "-1")])
def test_multilevel_bad_target_or_budget_exit_2(capsys, tmp_path, flag, value):
    path = tmp_path / "one.dag"
    write_dag_file(Dag([1], []), path)
    code, payload, err = run(capsys, "multilevel", "--graph", str(path),
                             "--k", "1", flag, value)
    assert code == 2
    assert payload is None
    assert "error:" in err


def test_multilevel_budget_default_is_the_library_default():
    args = build_parser().parse_args(["multilevel", "--graph", "g.dag", "--k", "2"])
    assert args.budget_nodes == DEFAULT_REFINE_BUDGET


def test_quantum_incremental(capsys, tmp_path):
    circuit = tmp_path / "c.qc"
    circuit.write_text(GHZ)
    code, payload, _ = run(capsys, "quantum", "--circuit", str(circuit),
                           "--lm", "2")
    assert code == 0
    assert payload["k"] >= 2
    assert all(count <= 2 for count in payload["part_qubits"])


def test_quantum_gates_sharing_two_qubits(capsys, tmp_path):
    circuit = tmp_path / "c.qc"
    circuit.write_text("cx a b\ncz b a\ncx b c\n")
    code, payload, _ = run(capsys, "quantum", "--circuit", str(circuit),
                           "--lm", "2")
    assert code == 0
    # {cx a b, cz b a} and {cx b c} split only qubit b's edge between them
    assert payload["k"] == 2 and payload["cut"] == 1
    assert payload["part_qubits"] == [2, 2]


def test_quantum_beyond_recursion_limit_solves(capsys, tmp_path):
    # 4,500 gates on two qubits, plus an entry and an exit per qubit: one
    # part holds them all, so the k = 1 search dives through every vertex
    # and checks each part's qubit mask on the way down
    units = ["h b" if i % 2 == 0 else "h a\ncx a b"
             for i in range(3 * sys.getrecursionlimit())]
    circuit = tmp_path / "long.qc"
    circuit.write_text("\n".join(units) + "\n")
    code, payload, _ = run(capsys, "quantum", "--circuit", str(circuit),
                           "--lm", "2")
    assert code == 0
    assert (payload["k"], payload["cut"]) == (1, 0)
    assert payload["part_qubits"] == [2]


def test_quantum_capacity_infeasible_exit_3(capsys, tmp_path):
    circuit = tmp_path / "c.qc"
    circuit.write_text("ccx a b c\n")
    code, _, _ = run(capsys, "quantum", "--circuit", str(circuit), "--lm", "2")
    assert code == 3


def test_quantum_bigm_emits_lp(capsys, tmp_path):
    circuit = tmp_path / "c.qc"
    circuit.write_text(GHZ)
    lp = tmp_path / "q.lp"
    code, payload, _ = run(capsys, "quantum", "--circuit", str(circuit),
                           "--lm", "2", "--strategy", "bigm",
                           "--k", "3", "--emit-lp", str(lp))
    assert code == 0
    assert payload["k_cap"] == 3
    text = lp.read_text()
    assert text.startswith("\\ Problem: quantum-bigm")
    assert "u_0" in text


@pytest.mark.parametrize("assignment, part_qubits", [
    ([2] * 9, [3]),
    # GHZ's gates are vertices 0-2, its entries 3-5 and its exits 6-8
    ([0, 0, 2, 0, 0, 2, 0, 2, 2], [2, 2]),
], ids=["part 2 only", "parts 0 and 2"])
def test_quantum_bigm_solution_reports_used_parts(capsys, tmp_path, assignment,
                                                  part_qubits):
    # a solution that leaves parts of the --k cap empty gets one qubit count
    # per part it uses, in part order, so that len(part_qubits) == k
    circuit = tmp_path / "c.qc"
    circuit.write_text(GHZ)
    sol = tmp_path / "q.sol"
    sol.write_text("".join(f"x_{i}_{s} 1\n" for i, s in enumerate(assignment)))
    code, payload, _ = run(capsys, "quantum", "--circuit", str(circuit),
                           "--lm", "3", "--strategy", "bigm", "--k", "3",
                           "--emit-lp", str(tmp_path / "q.lp"), "--solution", str(sol))
    assert code == 0
    assert payload["k"] == len(part_qubits) and payload["part_qubits"] == part_qubits


def test_quantum_bigm_requires_lp_path(capsys, tmp_path, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("model built before the usage check")

    monkeypatch.setattr("dagpart.cli.build_quantum", no_build)
    circuit = tmp_path / "c.qc"
    circuit.write_text(GHZ)
    code, _, err = run(capsys, "quantum", "--circuit", str(circuit),
                       "--lm", "2", "--strategy", "bigm")
    assert code == 2
    assert "--emit-lp" in err


@pytest.mark.parametrize("flags, named", [
    (["--emit-lp", "{lp}", "--k", "5", "--solution", "nonexist.sol"],
     "--emit-lp, --solution, --k"),
    (["--emit-lp", "{lp}"], "--emit-lp"),
    (["--k", "3"], "--k"),
    (["--solution", "nonexist.sol"], "--solution"),
])
def test_quantum_incremental_rejects_bigm_flags(capsys, tmp_path, flags, named):
    circuit = tmp_path / "c.qc"
    circuit.write_text(GHZ)
    lp = tmp_path / "m.lp"
    code, payload, err = run(capsys, "quantum", "--circuit", str(circuit), "--lm", "2",
                             *(flag.format(lp=lp) for flag in flags))
    assert code == 2 and payload is None
    assert f"only --strategy bigm takes {named}" in err
    assert not lp.exists()


@pytest.mark.parametrize("flags, message", [
    (["--engine", "brute"], "takes no --engine"),
    (["--engine", "bnb"], "takes no --engine"),
    (["--out", "p.part"], "--out only from a --solution"),
])
def test_quantum_bigm_rejects_ignored_flags(capsys, tmp_path, flags, message):
    circuit = tmp_path / "c.qc"
    circuit.write_text(GHZ)
    lp = tmp_path / "m.lp"
    code, payload, err = run(capsys, "quantum", "--circuit", str(circuit), "--lm", "2",
                             "--strategy", "bigm", "--emit-lp", str(lp), *flags)
    assert code == 2 and payload is None
    assert message in err
    assert not lp.exists()


def test_quantum_incremental_takes_engine(capsys, tmp_path):
    circuit = tmp_path / "c.qc"
    circuit.write_text(GHZ)
    code, payload, _ = run(capsys, "quantum", "--circuit", str(circuit),
                           "--lm", "2", "--engine", "brute")
    assert code == 0 and payload["k"] >= 2


def test_quantum_circuit_parse_error_exit_2(capsys, tmp_path):
    circuit = tmp_path / "c.qc"
    circuit.write_text("h\n")
    code, _, _ = run(capsys, "quantum", "--circuit", str(circuit), "--lm", "2")
    assert code == 2


def test_eps_zero_denominator_exit_2(capsys, graph_file):
    code, payload, err = run(capsys, "partition", "--graph", graph_file,
                             "--k", "2", "--eps", "1/0")
    assert code == 2 and payload is None
    assert "zero denominator" in err


def test_negative_eps_exit_2(capsys, graph_file):
    code, payload, err = run(capsys, "partition", "--graph", graph_file,
                             "--k", "2", "--eps=-3/2")
    assert code == 2 and payload is None
    assert "non-negative" in err


def test_quantum_bigm_k_zero_exit_2(capsys, tmp_path):
    circuit = tmp_path / "c.qc"
    circuit.write_text(GHZ)
    lp = tmp_path / "q.lp"
    code, payload, err = run(capsys, "quantum", "--circuit", str(circuit),
                             "--lm", "2", "--strategy", "bigm",
                             "--k", "0", "--emit-lp", str(lp))
    assert code == 2 and payload is None
    assert "k must be >= 1" in err
    assert not lp.exists()
