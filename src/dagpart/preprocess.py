"""Path-weight tables used by the Albareda models.

A[(i,j)] is the weight of all vertices on any i->j path including both
endpoints.  Reachability itself is `Dag.descendant_masks`.
"""

from __future__ import annotations

from .dag import Dag, mask_vertices


def compute_A(g: Dag) -> dict[tuple[int, int], int]:
    """Pairwise path-weight sums: w_i + w_j plus all interior path vertices."""
    table: dict[tuple[int, int], int] = {}
    for i, desc in enumerate(g.descendant_masks):
        for j in mask_vertices(desc):
            table[(i, j)] = g.w[i] + g.w[j] + g.mask_weight(g.path_mask(i, j))
    return table


def a_prime_value(g: Dag, i: int, j: int, l: int) -> int:
    """Weight of the union of path vertices over i->j, j->l and i->l.

    w_j is counted once through the explicit endpoint term, hence the
    removal of j from the interior union.  On a chained triple (i reaches j,
    j reaches l) this equals A(i,l); it carries information only where j and
    l are incomparable, as in the `acyc1` rows of albareda-final.
    """
    interior = g.path_mask(i, j) | g.path_mask(j, l) | g.path_mask(i, l)
    interior &= ~(1 << j)
    return g.w[i] + g.w[j] + g.w[l] + g.mask_weight(interior)
