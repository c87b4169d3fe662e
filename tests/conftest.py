"""Shared graph builders and corpus generators for the test suite."""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

import pytest

from dagpart import Dag, Partition, balance_bound, validate


def chain(n: int, w: int = 1, c: int = 1) -> Dag:
    return Dag([w] * n, [(i, i + 1, c) for i in range(n - 1)])


def diamond() -> Dag:
    return Dag([1, 1, 1, 1], [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])


def fig1_graph() -> Dag:
    """Four vertices a,b,c,d (ids 0..3) with edges a->d and b->c."""
    return Dag([1, 1, 1, 1], [(0, 3, 1), (1, 2, 1)])


def random_dag(rng: random.Random, n: int, p: float = 0.4,
               max_w: int = 3, max_c: int = 3) -> Dag:
    edges = [(i, j, rng.randint(1, max_c))
             for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    weights = [rng.randint(1, max_w) for _ in range(n)]
    return Dag(weights, edges)


def layered_dag(rng, n: int) -> Dag:
    """Layers of 2-4 vertices, each vertex feeding 1-2 vertices of the next
    layer plus an occasional skip edge; vertex ids are shuffled."""
    layers, v = [], 0
    while v < n:
        width = min(rng.randint(2, 4), n - v)
        layers.append(list(range(v, v + width)))
        v += width
    edges = set()
    for idx, layer in enumerate(layers[:-1]):
        for u in layer:
            for t in rng.sample(layers[idx + 1], min(2, len(layers[idx + 1]))):
                edges.add((u, t))
            if idx + 2 < len(layers) and rng.random() < 0.3:
                edges.add((u, rng.choice(layers[idx + 2])))
    relabel = list(range(n))
    rng.shuffle(relabel)
    weights = [0] * n
    for u in range(n):
        weights[relabel[u]] = rng.randint(1, 3)
    return Dag(weights, [(relabel[u], relabel[t], rng.randint(1, 3))
                         for u, t in sorted(edges)])


def chunk_partition(g: Dag, k: int, eps):
    """Consecutive chunks of the topological order, each filled to the
    balance bound; None when k chunks do not hold every vertex."""
    bound = balance_bound(g, k, eps)
    assignment = [0] * g.n
    s, load = 0, 0
    for v in g.topo.order:
        if load + g.w[v] > bound:
            s, load = s + 1, 0
        if s == k:
            return None
        assignment[v] = s
        load += g.w[v]
    return Partition(tuple(assignment), k)


def noniso_dags(n: int):
    """All non-isomorphic DAGs on n unit-weight vertices with unit edge costs.

    Every DAG relabels to an upper-triangular edge set, so enumerating
    subsets of {(i, j) : i < j} covers all isomorphism classes; duplicates
    are removed via the minimum adjacency bitmask over vertex permutations.
    """
    pairs = list(combinations(range(n), 2))
    seen = set()
    graphs = []
    perms = list(permutations(range(n)))
    for bits in range(1 << len(pairs)):
        edges = [pairs[idx] for idx in range(len(pairs)) if bits >> idx & 1]
        key = min(
            sum(1 << (perm[u] * n + perm[v]) for u, v in edges)
            for perm in perms)
        if key in seen:
            continue
        seen.add(key)
        graphs.append(Dag([1] * n, [(u, v, 1) for u, v in edges]))
    return graphs


def all_partitions(n: int, k: int):
    for assignment in product(range(k), repeat=n):
        yield Partition(assignment, k)


def feasible_partitions(g: Dag, k: int, eps=0):
    for p in all_partitions(g.n, k):
        if validate(g, p, k, eps).feasible:
            yield p


def renumber_by_size(g: Dag, p: Partition) -> Partition:
    """Relabel parts so sizes (vertex counts) are non-increasing, ties by
    smallest member id."""
    members = [[] for _ in range(p.k)]
    for i, s in enumerate(p.assignment):
        members[s].append(i)
    order = sorted(range(p.k),
                   key=lambda s: (-len(members[s]),
                                  members[s][0] if members[s] else g.n))
    relabel = {old: new for new, old in enumerate(order)}
    return Partition(tuple(relabel[s] for s in p.assignment), p.k)


@pytest.fixture
def rng():
    return random.Random(20240817)
