"""Reachability indicators and path-weight tables used by the Albareda models.

alpha[i][j] flags i->j reachability; A[(i,j)] is the weight of all vertices on
any i->j path including both endpoints; A_prime[(i,j,l)] extends this to
chained triples.  Pair and triple keys are ordered by topological position,
so i "less than" j always means pos[i] < pos[j].
"""

from __future__ import annotations

from dataclasses import dataclass

from .dag import Dag, mask_vertices
from .errors import MissingTablesError


def compute_alpha(g: Dag) -> tuple[tuple[bool, ...], ...]:
    """Boolean reachability matrix: alpha[i][j] iff j is a descendant of i."""
    return tuple(tuple(bool(desc >> j & 1) for j in range(g.n))
                 for desc in g.descendant_masks)


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
    removal of j from the interior union.
    """
    interior = g.path_mask(i, j) | g.path_mask(j, l) | g.path_mask(i, l)
    interior &= ~(1 << j)
    return g.w[i] + g.w[j] + g.w[l] + g.mask_weight(interior)


def compute_A_prime(g: Dag) -> dict[tuple[int, int, int], int]:
    """Triple sums for chained triples (i->j and j->l), topologically ordered."""
    table: dict[tuple[int, int, int], int] = {}
    desc = g.descendant_masks
    for i in range(g.n):
        for j in mask_vertices(desc[i]):
            for l in mask_vertices(desc[j]):
                table[(i, j, l)] = a_prime_value(g, i, j, l)
    return table


@dataclass(frozen=True)
class PreprocessTables:
    alpha: tuple[tuple[bool, ...], ...]
    A: dict
    A_prime: dict | None

    def reaches(self, i: int, j: int) -> bool:
        return self.alpha[i][j]

    def require_triples(self) -> dict:
        if self.A_prime is None:
            raise MissingTablesError("A' table not computed; "
                                     "build tables with with_triples=True")
        return self.A_prime


def compute_tables(g: Dag, with_triples: bool = False) -> PreprocessTables:
    """Compute alpha and A; A' only on request since it is the O(n^3) step."""
    a_prime = compute_A_prime(g) if with_triples else None
    return PreprocessTables(compute_alpha(g), compute_A(g), a_prime)
