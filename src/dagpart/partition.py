"""Partition representation, balance bound, edge cut, and feasibility checks."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .dag import Dag, part_order, quotient_graph
from .errors import InvalidKError, PartitionParseError
from .fileio import ascii_decimal


def to_fraction(eps) -> Fraction:
    """Convert an imbalance ratio to an exact Fraction.

    Strings and Fractions are converted exactly; floats go through their
    shortest decimal repr so that e.g. 0.3 means 3/10.
    """
    if isinstance(eps, Fraction):
        return eps
    if isinstance(eps, float):
        return Fraction(str(eps))
    return Fraction(eps)


class Partition(NamedTuple("Partition", [("assignment", "tuple[int, ...]"), ("k", "int")])):
    """Assignment of every vertex to one of k parts; empty parts allowed."""

    __slots__ = ()

    def __new__(cls, assignment: Sequence[int], k: int):
        if k < 1:
            raise InvalidKError(f"k must be >= 1, got {k}")
        given = tuple(assignment)
        ids = tuple(map(int, given))
        for i, (a, x) in enumerate(zip(ids, given)):
            if a != x:
                raise ValueError(f"non-integral part id {x!r} at vertex {i}")
            if not (0 <= a < k):
                raise ValueError(f"vertex {i} assigned part {a}, outside [0,{k})")
        return super().__new__(cls, ids, k)

    def parts(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for i, a in enumerate(self.assignment):
            out[a].append(i)
        return out


class ValidationReport(NamedTuple):
    cut: int
    part_weights: tuple[int, ...]
    bound: int
    balanced: bool
    acyclic: bool
    violations: tuple[str, ...]

    @property
    def feasible(self) -> bool:
        return self.balanced and self.acyclic and not self.violations


def balance_bound(g: Dag, k: int, eps) -> int:
    """Per-part weight cap: floor((1+eps) * ceil(W/k)), in exact arithmetic."""
    if k < 1:
        raise InvalidKError(f"k must be >= 1, got {k}")
    eps = to_fraction(eps)
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    total = g.total_weight
    ceil_share = -(-total // k)
    return int((1 + eps) * ceil_share // 1)


def edge_cut(g: Dag, p: Partition) -> int:
    """Total cost of edges whose endpoints lie in different parts."""
    a = p.assignment
    return sum(c for u, v, c in g.edges if a[u] != a[v])


def is_acyclic_partition(g: Dag, p: Partition) -> bool:
    """True iff the quotient graph of the partition has no directed cycle."""
    return quotient_graph(g, p).is_acyclic


def validate(g: Dag, p: Partition, k: int | None = None, eps=0) -> ValidationReport:
    """Check balance and quotient acyclicity, reporting every failed condition."""
    violations: list[str] = []
    k = p.k if k is None else k
    if k != p.k:
        violations.append(f"partition has k={p.k}, expected k={k}")
    if len(p.assignment) != g.n:
        violations.append(
            f"partition covers {len(p.assignment)} vertices, graph has {g.n}")
        return ValidationReport(0, (), 0, False, False, tuple(violations))

    bound = balance_bound(g, k, eps)
    quotient = quotient_graph(g, p)
    part_weights = quotient.weights
    balanced = True
    for s, weight in enumerate(part_weights):
        if weight > bound:
            balanced = False
            violations.append(f"part {s} weight {weight} exceeds bound {bound}")
    cycle = quotient.find_cycle()
    acyclic = cycle is None
    if cycle is not None:
        violations.append(
            "quotient cycle through parts " + " -> ".join(map(str, cycle)))
    return ValidationReport(quotient.total_edge_cost, part_weights, bound,
                            balanced, acyclic, tuple(violations))


def partition_to_text(p: Partition) -> str:
    """One part id per line, vertex order; shared file format with the CLI."""
    return "".join(f"{a}\n" for a in p.assignment)


def partition_from_text(text: str, k: int | None = None) -> Partition:
    """Parse the partition file format: one part id per line, as an ASCII
    decimal, and '%' comments."""
    values: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        try:
            values.append(ascii_decimal(line))
        except ValueError:
            raise PartitionParseError(f"expected a part id, got {raw!r}", line_no)
    if k is None:
        k = max(values) + 1 if values else 1
    return Partition(tuple(values), k)


def read_partition_file(path, k: int | None = None) -> Partition:
    with open(path, "r", encoding="ascii") as fh:
        return partition_from_text(fh.read(), k)


def write_partition_file(p: Partition, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(partition_to_text(p))


def part_levels(g: Dag, p: Partition) -> list[int] | None:
    """Each part's position in the Kahn order of the quotient graph, the
    smallest ready id first and empty parts included; None if the quotient
    graph is cyclic."""
    order = part_order(p.k, quotient_graph(g, p).edge_costs)
    if len(order) < p.k:
        return None
    level = [0] * p.k
    for idx, s in enumerate(order):
        level[s] = idx
    return level


def renumber_topologically(g: Dag, assignment: Sequence[int], k: int) -> Partition:
    """Relabel part ids along a topological order of the quotient graph.

    Requires the partition to be acyclic; part ids then satisfy
    part(u) <= part(v) for every edge (u, v).  Parts are numbered by
    `part_levels`.
    """
    p = Partition(tuple(assignment), k)
    new_id = part_levels(g, p)
    if new_id is None:
        raise ValueError("cannot renumber a cyclic partition topologically")
    return Partition(tuple(new_id[a] for a in p.assignment), k)
