import random

import pytest

from dagpart import Dag
from dagpart.formulations import a_prime_value, chained_triples, compute_A

from conftest import diamond, random_dag


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
