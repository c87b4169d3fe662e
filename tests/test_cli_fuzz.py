"""Seeded mutation fuzz of the CLI.

Valid `.dag`, warm-start `.part`, `.sol` and circuit texts are mutated by
a few character, token or line edits and fed through `cli.main` with valid
options; separately, every pair of good and bad `--eps`/`--k` strings, and
every `--lm` string, runs on the valid texts.  Every call must return one
of the documented exit codes 0-4; no exception may escape `main`.
"""

import random

import pytest

from dagpart import FORMULATION_NAMES
from dagpart.cli import main

EXIT_CODES = (0, 1, 2, 3, 4)

DAG = "p adag 4 4\nv 1\nv 2\nv 1\nv 1\ne 0 1 1\ne 0 2 2\ne 1 3 1\ne 2 3 1\n"
PART = "0\n0\n1\n1\n"
SOL = "x_0_0 1\nx_1_0 1\nx_2_1 1\nx_3_1 1\nz_0_2 1\nz_1_3 1\ny_0_1 1\n"
CIRCUIT = "h q0\ncx q0 q1\ncx q1 q2\n"

GOOD_EPS = ["0", "1/10", "1/2", "1"]
GOOD_K = ["1", "2", "3"]
GOOD_LM = ["1", "2", "3"]
EPS = GOOD_EPS + ["1/0", "-1", "0.5", "nan", "inf", "1e1", "x", "", "3/-2", "1_0"]
K = GOOD_K + ["0", "-1", "x", "", "2.5", "0x2"]
LM = GOOD_LM + ["0", "-1", "x"]

# digits, signs and separators of every format, plus letters of their
# keywords and variable names, and one non-ASCII character
ALPHABET = "0123456789 -+/.%#=\n\tpvexyzhcqu_é"
TOKENS = ["0", "1", "2", "3", "4", "-1", "9", "x", "1/2", "0.5", "q0", "q3"]

CASES = 80


def mutate(rng: random.Random, text: str) -> str:
    """Apply one to three edits: a character deleted, inserted or replaced;
    a token replaced; or a line repeated, dropped or swapped with another."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(6)
        if op < 3:
            chars = list(text)
            pos = rng.randrange(len(chars) + 1)
            if op == 0 or not chars:
                chars.insert(pos, rng.choice(ALPHABET))
            elif op == 1:
                del chars[min(pos, len(chars) - 1)]
            else:
                chars[min(pos, len(chars) - 1)] = rng.choice(ALPHABET)
            text = "".join(chars)
            continue
        lines = text.splitlines() or [""]
        idx = rng.randrange(len(lines))
        if op == 3:
            tokens = lines[idx].split() or [""]
            tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
            lines[idx] = " ".join(tokens)
        elif op == 4:
            lines.insert(idx, lines[idx])
        else:
            other = rng.randrange(len(lines))
            lines[idx], lines[other] = lines[other], lines[idx]
        text = "\n".join(lines) + "\n"
    return text


def check_main(capsys, argv, texts):
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:  # main must return, not exit
        pytest.fail(f"main({argv}) raised {exc!r} on inputs {texts!r}")
    capsys.readouterr()
    assert code in EXIT_CODES, (argv, texts, code)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_fuzz_dag_text(capsys, tmp_path):
    rng = random.Random(101)
    for _ in range(CASES):
        text = mutate(rng, DAG)
        graph = write(tmp_path / "g.dag", text)
        eps = rng.choice(GOOD_EPS)
        check_main(capsys, ["check", "--graph", graph], [text])
        check_main(capsys, ["partition", "--graph", graph, "--k", rng.choice(GOOD_K),
                            "--eps", eps, "--engine", rng.choice(["brute", "bnb"]),
                            "--budget-nodes", "2000"], [text])
        check_main(capsys, ["emit-lp", "--graph", graph, "--k", rng.choice(GOOD_K),
                            "--eps", eps, "--formulation", rng.choice(FORMULATION_NAMES),
                            "--out", str(tmp_path / "m.lp")], [text])
        check_main(capsys, ["multilevel", "--graph", graph, "--k", rng.choice(GOOD_K),
                            "--eps", eps, "--target-n", "2",
                            "--budget-nodes", "2000"], [text])


def test_fuzz_warm_start(capsys, tmp_path):
    rng = random.Random(202)
    graph = write(tmp_path / "g.dag", DAG)
    for _ in range(CASES):
        text = mutate(rng, PART)
        warm = write(tmp_path / "w.part", text)
        check_main(capsys, ["partition", "--graph", graph, "--k", rng.choice(GOOD_K),
                            "--eps", rng.choice(GOOD_EPS), "--warm", warm,
                            "--budget-nodes", "2000"], [text])


def test_fuzz_solution_text(capsys, tmp_path):
    rng = random.Random(303)
    graph = write(tmp_path / "g.dag", DAG)
    for _ in range(CASES):
        text = mutate(rng, SOL)
        sol = write(tmp_path / "m.sol", text)
        check_main(capsys, ["ingest-solution", "--graph", graph,
                            "--k", rng.choice(GOOD_K), "--eps", rng.choice(GOOD_EPS),
                            "--formulation", rng.choice(FORMULATION_NAMES),
                            "--solution", sol], [text])


def test_fuzz_circuit_text(capsys, tmp_path):
    rng = random.Random(404)
    for _ in range(CASES):
        circuit_text = mutate(rng, CIRCUIT)
        sol_text = mutate(rng, SOL)
        circuit = write(tmp_path / "c.qc", circuit_text)
        sol = write(tmp_path / "q.sol", sol_text)
        eps = rng.choice(GOOD_EPS)
        check_main(capsys, ["quantum", "--circuit", circuit, "--lm", rng.choice(GOOD_LM),
                            "--eps", eps], [circuit_text])
        check_main(capsys, ["quantum", "--circuit", circuit, "--lm", rng.choice(GOOD_LM),
                            "--eps", eps, "--strategy", "bigm", "--k", rng.choice(GOOD_K),
                            "--emit-lp", str(tmp_path / "q.lp"), "--solution", sol],
                   [circuit_text, sol_text])


def test_fuzz_option_strings(capsys, tmp_path):
    graph = write(tmp_path / "g.dag", DAG)
    warm = write(tmp_path / "w.part", PART)
    sol = write(tmp_path / "m.sol", SOL)
    circuit = write(tmp_path / "c.qc", CIRCUIT)
    for eps in EPS:
        for k in K:
            check_main(capsys, ["partition", "--graph", graph, "--k", k,
                                "--eps", eps, "--warm", warm], [])
            check_main(capsys, ["ingest-solution", "--graph", graph, "--k", k,
                                "--eps", eps, "--formulation", "proposed",
                                "--solution", sol], [])
            check_main(capsys, ["quantum", "--circuit", circuit, "--lm", "2",
                                "--eps", eps, "--strategy", "bigm", "--k", k,
                                "--emit-lp", str(tmp_path / "q.lp")], [])
        for lm in LM:
            check_main(capsys, ["quantum", "--circuit", circuit, "--lm", lm,
                                "--eps", eps], [])
