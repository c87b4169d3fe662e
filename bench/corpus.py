"""Instance corpora for the three workloads.

Every workload runs a fixed list of base graphs.  The base graphs are drawn
once from CORPUS_SEED, so they are the same in every run; the run's --seed
then draws, for every instance, a fresh vertex numbering and a fresh order of
the edge lines.  The program therefore sees different input text on every
seed and every tie-break it makes (topological order, edge sorting, part
numbering) is re-drawn, while sums over the corpus, such as the total of the
proven optima, repeat exactly.  README.md gives the measurements behind this
choice.

Nothing here imports dagpart: the program receives only the text that
`Instance.text` writes.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

CORPUS_SEED = 2207_13638
EPS = Fraction(1, 10)


@dataclass(frozen=True)
class Instance:
    """One graph and its part count, in base numbering or after relabelling.

    `perm[base_id]` is the vertex id the program sees; for a base instance it
    is the identity.
    """

    name: str
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    k: int
    perm: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def key(self) -> str:
        """Name and a digest of the graph text: the reference-optimum key."""
        digest = hashlib.sha256(self.text().encode()).hexdigest()[:16]
        return f"{self.name}:{digest}"

    def relabeled(self, rng: random.Random) -> "Instance":
        """A copy with vertex ids and edge-line order drawn from rng."""
        perm = list(range(self.n))
        rng.shuffle(perm)
        weights = [0] * self.n
        for base, new in enumerate(perm):
            weights[new] = self.weights[base]
        edges = [(perm[u], perm[v], c) for u, v, c in self.edges]
        rng.shuffle(edges)
        return Instance(self.name, tuple(weights), tuple(edges), self.k, tuple(perm))

    def text(self) -> str:
        """The graph in the `p adag` file format."""
        lines = [f"% {self.name}", f"p adag {self.n} {len(self.edges)}"]
        lines += [f"v {w}" for w in self.weights]
        lines += [f"e {u} {v} {c}" for u, v, c in self.edges]
        return "\n".join(lines) + "\n"


def _finish(rng, order_pairs, n, wmax, cmax):
    """Weights, costs and a random base numbering for a graph whose edges are
    given as (a, b) positions with a < b in some topological order."""
    ids = list(range(n))
    rng.shuffle(ids)
    weights = [0] * n
    for pos in range(n):
        weights[ids[pos]] = rng.randint(1, wmax)
    edges = sorted((ids[a], ids[b], rng.randint(1, cmax)) for a, b in order_pairs)
    return tuple(weights), tuple(edges)


def random_dag(rng: random.Random, n: int, m: int, wmax: int = 3, cmax: int = 5):
    """m distinct edges between uniformly drawn pairs of a hidden order."""
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        a, b = rng.sample(range(n), 2)
        pairs.add((min(a, b), max(a, b)))
    return _finish(rng, sorted(pairs), n, wmax, cmax)


def layered_dag(rng: random.Random, n: int, layers: int, skip: float = 0.3,
                wmax: int = 4, cmax: int = 8):
    """Task graph: every task reads one or two tasks of the previous layer and
    feeds at least one task of the next; some outputs skip a layer."""
    sizes = [1] * layers
    for _ in range(n - layers):
        sizes[rng.randrange(layers)] += 1
    layer_ids, start = [], 0
    for size in sizes:
        layer_ids.append(list(range(start, start + size)))
        start += size
    pairs: set[tuple[int, int]] = set()
    for lo, hi in zip(layer_ids, layer_ids[1:]):
        for v in hi:
            for u in rng.sample(lo, min(len(lo), rng.randint(1, 2))):
                pairs.add((u, v))
        fed = {u for u, _ in pairs}
        for u in lo:
            if u not in fed:
                pairs.add((u, rng.choice(hi)))
    for lo, hi2 in zip(layer_ids, layer_ids[2:]):
        for u in lo:
            if rng.random() < skip:
                pairs.add((u, rng.choice(hi2)))
    return _finish(rng, sorted(pairs), n, wmax, cmax)


def dense_reach_dag(rng: random.Random, n: int, span: int, wmax: int = 3,
                    cmax: int = 9):
    """A near-Hamiltonian chain with short forward edges: almost every vertex
    pair is ordered by reachability, which is what the Albareda tables and
    the nossack triangle rows grow with."""
    pairs: set[tuple[int, int]] = set()
    for a in range(n - 1):
        pairs.add((a, a + 1) if rng.random() < 0.7 else (a, min(n - 1, a + 2)))
        for _ in range(rng.randint(0, 2)):
            pairs.add((a, rng.randint(a + 1, min(n - 1, a + span))))
    return _finish(rng, sorted(pairs), n, wmax, cmax)


# (family, n, shape, part counts, graphs): the base graphs of each workload,
# in run order; every graph is run once for each of its part counts.  Shape is
# edges per vertex for "random", tasks per layer for "layered" and the forward
# edge span for "dense".
SPECS = {
    "exact": (
        ("layered", 26, 2.5, (4,), 60),
        ("layered", 24, 3, (4,), 60),
        ("layered", 24, 4, (3,), 40),
        ("random", 18, 1.5, (3,), 12),
    ),
    "models": tuple(("dense", n, 4, (4,), 1) for n in (36, 38, 40, 42, 44, 46, 48)),
    "multilevel": (
        ("layered", 100, 5, (2, 4), 4),
        ("layered", 100, 5, (2,), 26),
        ("random", 100, 1.5, (2, 4), 2),
        ("layered", 300, 5, (2, 4), 1),
    ),
}
GENERATORS = {
    "random": lambda rng, n, shape: random_dag(rng, n, int(shape * n)),
    "layered": lambda rng, n, shape: layered_dag(rng, n, max(2, round(n / shape))),
    "dense": lambda rng, n, shape: dense_reach_dag(rng, n, shape),
}


def base_corpus(workload: str) -> list[Instance]:
    """The fixed base instances of a workload, independent of --seed."""
    rng = random.Random(f"{CORPUS_SEED}/{workload}")
    out: list[Instance] = []
    drawn: dict[tuple[str, int], int] = {}
    for family, n, shape, ks, count in SPECS[workload]:
        for _ in range(count):
            weights, edges = GENERATORS[family](rng, n, shape)
            idx = drawn[family, n] = drawn.get((family, n), -1) + 1
            for k in ks:
                out.append(Instance(f"{family}-n{n}-{idx}-k{k}", weights, edges, k,
                                    tuple(range(n))))
    return out


def seeded_corpus(workload: str, seed: int) -> tuple[list[Instance], list[Instance]]:
    """(base instances, the same instances relabelled for this seed)."""
    base = base_corpus(workload)
    rng = random.Random(f"{workload}/{seed}")
    return base, [inst.relabeled(rng) for inst in base]
