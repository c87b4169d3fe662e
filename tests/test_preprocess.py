import random

import pytest

from dagpart import Dag
from dagpart.formulations import a_prime_value, chained_triples, compute_A

from conftest import chain, diamond, random_dag


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
