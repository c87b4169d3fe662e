"""The benchmark's own correctness checks.  Nothing here imports dagpart.

Each check_* function takes the program's answer as plain values and returns
a list of problems; an empty list means the answer is correct.  `self_test`
feeds every check a wrong answer and fails if one of them is not caught.
"""

from __future__ import annotations

import heapq
from collections import Counter
from fractions import Fraction

from corpus import EPS, Instance

# Formulations whose z variables mean "same part"; the others use "cut".
SAME_PART_Z = ("nossack", "albareda-base", "albareda-extended", "albareda-final")


def balance_bound(weights, k: int, eps: Fraction) -> int:
    """floor((1 + eps) * ceil(W / k)), the per-part weight cap."""
    share = -(-sum(weights) // k)
    return int((1 + eps) * share // 1)


def cut_of(edges, part) -> int:
    return sum(c for u, v, c in edges if part[u] != part[v])


def topo_order(n: int, edges) -> list[int]:
    """A topological order (smallest ready id first), or a shorter list if
    the graph has a cycle."""
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v, _ in edges:
        succ[u].append(v)
        indeg[v] += 1
    ready = [u for u in range(n) if indeg[u] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    return order


def partition_problems(weights, edges, k: int, eps: Fraction, part) -> list[str]:
    """Balance and quotient acyclicity of an assignment, from the definitions."""
    n = len(weights)
    if len(part) != n:
        return [f"assignment covers {len(part)} vertices, graph has {n}"]
    if any(not (0 <= s < k) for s in part):
        return ["part id outside [0, k)"]
    problems = []
    bound = balance_bound(weights, k, eps)
    load = [0] * k
    for i, s in enumerate(part):
        load[s] += weights[i]
    problems += [f"part {s} weighs {x} > {bound}" for s, x in enumerate(load) if x > bound]
    arcs = {(part[u], part[v], 0) for u, v, _ in edges if part[u] != part[v]}
    if len(topo_order(k, arcs)) < k:
        problems.append("quotient graph has a cycle")
    return problems


def check_exact(inst, part, claimed_cut, status, reference) -> list[str]:
    """A proven optimum: feasible, its cut recomputed, equal to the reference."""
    if status != "optimal" or part is None:
        return [f"status {status!r}, expected 'optimal'"]
    problems = partition_problems(inst.weights, inst.edges, inst.k, EPS, part)
    true_cut = cut_of(inst.edges, part)
    if claimed_cut != true_cut:
        problems.append(f"claimed cut {claimed_cut} != recomputed cut {true_cut}")
    if true_cut != reference:
        problems.append(f"cut {true_cut} != reference optimum {reference}")
    return problems


def check_heuristic(inst, part) -> tuple[list[str], int]:
    """A feasible partition from a heuristic: problems and its recomputed cut."""
    problems = partition_problems(inst.weights, inst.edges, inst.k, EPS, part)
    return problems, cut_of(inst.edges, part)


def check_model_point(expected_part, true_cut, feasible, decoded_part,
                      claimed_cut) -> list[str]:
    """Point (a): a feasible partition's encoding must be model-feasible and
    must decode to the same partition and its true cut."""
    if not feasible:
        return ["encoding of a feasible partition rejected by the model"]
    problems = []
    if tuple(decoded_part) != tuple(expected_part):
        problems.append("decoded partition differs from the encoded one")
    if claimed_cut != true_cut:
        problems.append(f"claimed cut {claimed_cut} != true cut {true_cut}")
    return problems


def check_flip_probe(decoded_part, edges, claimed_cut) -> list[str]:
    """Point (b), a cut edge marked "same part", was accepted by the model: it
    must then claim the true cut of the partition it decodes to."""
    true_cut = cut_of(edges, decoded_part)
    if claimed_cut != true_cut:
        return [f"flipped point accepted with claimed cut {claimed_cut}, "
                f"true cut {true_cut}"]
    return []


def chunk_partition(base, inst) -> list[int]:
    """Cut the base graph's topological order into at most k consecutive
    chunks, each filled up to ceil(W/k), or up to the balance bound if that
    does not fit.  Chunks follow the base numbering, so every seed gets the
    same partition up to relabelling."""
    order = [inst.perm[v] for v in topo_order(base.n, base.edges)]
    bound = balance_bound(inst.weights, inst.k, EPS)
    share = -(-sum(inst.weights) // inst.k)
    for target in (share, bound):
        part = [0] * inst.n
        current, load = 0, 0
        for v in order:
            if load + inst.weights[v] > target and current < inst.k - 1:
                current, load = current + 1, 0
            part[v] = current
            load += inst.weights[v]
        if not partition_problems(inst.weights, inst.edges, inst.k, EPS, part):
            return part
    raise ValueError(f"{inst.name}: no topological chunking fits the balance bound")


def encode_point(formulation: str, var_names, inst, part) -> dict[str, int]:
    """Values for every model variable that encode a topologically numbered
    partition, from the documented naming scheme x_i_s, z_i_j, y_s_t, pi_s.

    For nossack, whose symmetry rows want part sizes non-increasing in the
    part id, parts are renumbered by size first; `part` is updated in place so
    the caller knows which partition the point encodes.
    """
    k = inst.k
    level = list(range(k))  # topological position of each part id
    if formulation == "nossack":
        sizes = Counter(part)
        by_size = sorted(range(k), key=lambda s: (-sizes[s], s))
        new_id = {old: new for new, old in enumerate(by_size)}
        level = [by_size[s] for s in range(k)]
        part[:] = [new_id[s] for s in part]
    same = formulation in SAME_PART_Z
    arcs = {(part[u], part[v]) for u, v, _ in inst.edges if part[u] != part[v]}
    values = {}
    for name in var_names:
        tag, *fields = name.split("_")
        a, b = (int(f) for f in fields) if len(fields) == 2 else (int(fields[0]), 0)
        if tag == "x":
            values[name] = int(part[a] == b)
        elif tag == "z":
            values[name] = int((part[a] == part[b]) == same)
        elif tag == "y":
            values[name] = int((a, b) in arcs)
        elif tag == "pi":
            values[name] = level[a]
        else:
            raise ValueError(f"no encoding for variable {name!r}")
    return values


def flip_target(formulation: str, base, inst, part) -> tuple[str, int]:
    """The z variable of the first cut edge in base edge order, and the value
    that marks its endpoints as being in the same part."""
    for u, v, _ in base.edges:
        pu, pv = inst.perm[u], inst.perm[v]
        if part[pu] != part[pv]:
            return f"z_{pu}_{pv}", int(formulation in SAME_PART_Z)
    raise ValueError(f"{inst.name}: the partition cuts no edge")


def self_test() -> None:
    """Feed every check a wrong answer that only that check can catch; raise
    if one of them passes, or if the right answer is rejected."""
    path = Instance("self-test", (1, 1, 1), ((0, 1, 2), (1, 2, 3)), 2, (0, 1, 2))
    right = [0, 1, 1]  # the optimum: cut 2, parts weigh 1 and 2, bound 2
    wrong = {
        "overweight part": check_exact(path, [0, 0, 0], 0, "optimal", 0),
        "quotient cycle": check_exact(path, [0, 1, 0], 5, "optimal", 5),
        "cut off by one": check_exact(path, right, 3, "optimal", 2),
        "cut above the optimum": check_exact(path, [0, 0, 1], 3, "optimal", 2),
        "heuristic overweight part": check_heuristic(path, [1, 1, 1])[0],
        "heuristic quotient cycle": check_heuristic(path, [1, 0, 1])[0],
        "model point with a false cut": check_model_point(right, 2, True, right, 1),
        "flipped point with a false cut": check_flip_probe(right, path.edges, 0),
    }
    missed = [name for name, problems in wrong.items() if not problems]
    if (check_exact(path, right, 2, "optimal", 2) or check_heuristic(path, right)[0]
            or check_model_point(right, 2, True, right, 2)
            or check_flip_probe(right, path.edges, 2)):
        missed.append("the right answer was rejected")
    if missed:
        raise RuntimeError("benchmark checks do not bite: " + ", ".join(missed))
