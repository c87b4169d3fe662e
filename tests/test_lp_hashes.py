"""Byte-identity guard for `write_lp`: the sha256 of every formulation's LP
text on two fixed DAGs with dense reachability, of every formulation with
continuous z on one of them, and of both quantum strategies on one fixed
circuit.

Any change to coefficient arithmetic, reachability or constraint generation
that alters a single byte of the emitted LP shows up here.  A hash may only
change together with a deliberate, documented change to that formulation.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from dagpart import (BuildOptions, Dag, FORMULATION_NAMES, build_formulation,
                     build_quantum, circuit_to_dag, parse_circuit, write_lp)

from conftest import random_dag


def layered_dag() -> Dag:
    """10 layers of 3 vertices; edges to the next layer chosen by a fixed
    arithmetic rule, plus skip edges two layers ahead."""
    edges = []
    for v in range(27):
        layer = v // 3
        for j in range(3):
            if (v * 7 + j * 5) % 4 != 0:
                edges.append((v, 3 * (layer + 1) + j, 1 + (v + j) % 3))
        if v + 6 < 30 and v % 2 == 0:
            edges.append((v, v + 6, 2))
    return Dag([1 + v % 3 for v in range(30)], edges)


GRAPHS = {
    "random": lambda: random_dag(random.Random(30), 30, p=0.25),
    "layered": layered_dag,
}

LP_SHA256 = {
    ("random", "undirected"): "1d8414a8696708046455af93cb993a9ef626f5b3d23950681b2f82e6101bcd26",
    ("random", "nossack"): "d62f406bd47da049c42f739e419ed1775f1792a5707f9566f924ff63d14bbd8a",
    ("random", "albareda-base"): "113bb1b32d704240975869c2b4788e17baad76f310adfacc62e82255ca0d290d",
    ("random", "albareda-extended"): "2c68228de2bf1cc6e46b862f064b4f508cce52473ffc2f9e7fa781e4124d05d1",
    ("random", "albareda-final"): "f199500996309d085366e4083055568c59e28f6d5afd9e40304a2a64627d0be6",
    ("random", "proposed"): "91c1fe169b0f8d935bfd1c6f2477ffe37c88aa27e67256983277d5abbfe07d8b",
    ("layered", "undirected"): "dbab9f2ef13d8812e53fec652ef558a187b39fb888fe8941b8fd1f8ab1dde79c",
    ("layered", "nossack"): "793929888ad14301ce99cb2040019aa6e037ecb7c46c21823dde7d711b425ef7",
    ("layered", "albareda-base"): "c931105c0860c1ecc9761fa6dd4eda6c38c17e7f0426ea39dd3bd87a67654ae5",
    ("layered", "albareda-extended"): "2e15b7ca13670e7e8041a3dfc790d31ff7c3b992fc80da443198615c795fdf1b",
    ("layered", "albareda-final"): "f8f4b0bd3f78d3ddc911f6777038f259870ebb732375f63f02966e1f0b4b6425",
    ("layered", "proposed"): "c6530cbd2537929352a4d56bcc9af706701e684f8ba5793c82731b6c8b3e6c33",
}


def test_hash_graphs_have_dense_reachability():
    for make in GRAPHS.values():
        g = make()
        reachable = sum(len(g.descendants(i)) for i in range(g.n))
        assert g.n == 30 and reachable > g.n * (g.n - 1) // 4


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("formulation", FORMULATION_NAMES)
def test_write_lp_sha256(graph, formulation):
    g = GRAPHS[graph]()
    text = write_lp(build_formulation(formulation, g,
                                      BuildOptions(k=3, eps=Fraction(1, 10))))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == LP_SHA256[(graph, formulation)]


# With relax_z every z is continuous in [0, 1], so the Bounds section lists
# continuous variables beside the integer ones.
RELAX_Z_LP_SHA256 = {
    "undirected": "f1afc0637a237d92cf06db1545a611fdeef14cebb1667fe972db58b2f6de784d",
    "nossack": "eddc7dd218f13a099e9c2f861002d44f39da188f18c5f6c8ec6e055e5da5ccb2",
    "albareda-base": "0ec11303717049b0fb0e9ab83ea32943b840cb2b7b0fb9910cbf70473c878d5f",
    "albareda-extended": "ffb7909c5d480cc7743b753f68adb7f75e696c6fc72ae04d6797320d12f06de5",
    "albareda-final": "fa306555bddedfc6bc1c6412a660ad5d1a89d93f9060c307bc4bac1a6006676e",
    "proposed": "d6581b2b714cb6834ac334a8414465a5e1468fdf3672babee215d0f62fe4d78a",
}


@pytest.mark.parametrize("formulation", FORMULATION_NAMES)
def test_relax_z_write_lp_sha256(formulation):
    g = GRAPHS["random"]()
    text = write_lp(build_formulation(formulation, g,
                                      BuildOptions(k=3, eps=Fraction(1, 10),
                                                   relax_z=True)))
    assert "\nBounds\n" in text
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == RELAX_Z_LP_SHA256[formulation]


# Five qubits, gates of arity 1-3 and repeated qubit pairs, so qubit columns,
# merged shared-qubit edges and entry/exit vertices all reach the LP text.
CIRCUIT = """\
h q0
cx q0 q1
ccx q2 q1 q3
cz q1 q0
t q4
cx q3 q4
swap q4 q2
cx q0 q2
h q3
"""

QUANTUM_LP_SHA256 = {
    ("incremental", 2): "dd20f51c1bedf39a1d4c24ad9677d1256432acea5a974764f49dc147f5fa2f33",
    ("incremental", 3): "1b5d3acdfb48e5e5e7709d9a5a1e345ed4e49e997ae22f311f6016830dfb934b",
    ("bigm", 2): "aee2fb3103f3dc5351688ab146ac01b7d861d8623b951decdabe2f227b7993fd",
    ("bigm", 3): "40023b2249d9953aad5965e3eeefa377498deb87f22fe61030654836ca29dd72",
}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("strategy", ["incremental", "bigm"])
def test_quantum_write_lp_sha256(strategy, k):
    g, nq = circuit_to_dag(parse_circuit(CIRCUIT))
    text = write_lp(build_quantum(g, BuildOptions(k=k, eps=Fraction(1, 2)), nq,
                                  lm=3, strategy=strategy))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == QUANTUM_LP_SHA256[(strategy, k)]
