"""Builders for the ILP formulations, the path-weight table A that the
Albareda models read, and encode/decode between partitions and model
assignments.

All builders produce a LinearModel over the shared variable naming scheme
x_{i}_{s}, z_{i}_{j}, y_{s}_{t}, pi_{s}, pq_{s}_{q}, u_{s}.  Pair indices
for z follow topological position order, so "i before j" always means
pos[i] < pos[j].
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product

from .dag import Dag, mask_vertices
from .errors import AmbiguousAssignmentError, QubitCapacityInfeasibleError
from .exact import BRUTE_FORCE_GUARD_BITS, guard_enumeration
from .model import LinearModel, MAXIMIZE, MINIMIZE, evaluate
from .partition import Partition, balance_bound, part_levels, to_fraction

MIN_CUT = "min_cut"
MAX_INTERNAL = "max_internal"


@dataclass(frozen=True)
class BuildOptions:
    k: int
    eps: object = 0
    relax_z: bool = False


def _x(i, s):
    return f"x_{i}_{s}"


def _z(i, j):
    return f"z_{i}_{j}"


def _y(s, t):
    return f"y_{s}_{t}"


def _pi(s):
    return f"pi_{s}"


def _pq(s, q):
    return f"pq_{s}_{q}"


def _u(s):
    return f"u_{s}"


def _add_common(m: LinearModel, g: Dag, k: int, bound: int) -> None:
    """x variables, one-part-per-vertex, and balance constraints."""
    for i in range(g.n):
        for s in range(k):
            m.add_binary(_x(i, s))
    for i in range(g.n):
        m.add_constraint(f"onepart_{i}", [(1, _x(i, s)) for s in range(k)], "=", 1)
    for s in range(k):
        m.add_constraint(f"balance_{s}",
                         [(g.w[i], _x(i, s)) for i in range(g.n)], "<=", bound)


def _add_z(m: LinearModel, i, j, relax_z: bool) -> str:
    name = _z(i, j)
    if relax_z:
        m.add_continuous(name, 0, 1)
    else:
        m.add_binary(name)
    return name


def _add_y(m: LinearModel, k: int) -> None:
    """Binary y_s_t for every ordered pair of distinct parts."""
    for s in range(k):
        for t in range(k):
            if s != t:
                m.add_binary(_y(s, t))


def _add_induced(m: LinearModel, g: Dag, k: int) -> None:
    """An edge from part s to part t forces y_s_t = 1."""
    for u, v, _ in g.edges:
        for s in range(k):
            for t in range(k):
                if s != t:
                    m.add_constraint(f"induced_{u}_{v}_{s}_{t}",
                                     [(1, _x(u, s)), (1, _x(v, t)), (-1, _y(s, t))],
                                     "<=", 1)


def _add_same_part(m: LinearModel, prefix: str, zpairs, k: int) -> None:
    """Same-part z rows: z = 1 claims i and j share a part; without these rows
    nothing pins z to 0 on a cut edge, and a solver could claim a false cut."""
    for i, j in zpairs:
        for s in range(k):
            m.add_constraint(f"{prefix}_{i}_{j}_{s}",
                             [(1, _z(i, j)), (1, _x(i, s)), (-1, _x(j, s))],
                             "<=", 1)


def _finish(m: LinearModel, kind: str, g: Dag, opts: BuildOptions,
            bound: int, convention: str) -> None:
    """The edge objective, minimised under MIN_CUT and maximised under
    MAX_INTERNAL, and the meta that decoding reads."""
    sense = MAXIMIZE if convention == MAX_INTERNAL else MINIMIZE
    m.set_objective(sense, [(c, _z(u, v)) for u, v, c in g.edges])
    m.meta.update({
        "kind": kind,
        "n": g.n,
        "k": opts.k,
        "eps": str(to_fraction(opts.eps)),
        "bound": bound,
        "convention": convention,
        "edge_costs": tuple(g.edges),
        "total_cost": g.total_cost,
    })


def _in_topo_order(g: Dag, mask: int) -> list[int]:
    """The vertices of a bitset, sorted by topological position."""
    return sorted(mask_vertices(mask), key=g.topo.position.__getitem__)


def chained_triples(g: Dag):
    """Triples (i, j, h) with i->j and j->h reachable.

    i runs in vertex-id order; for each i, j runs over its descendants in
    topological order, and h over j's descendants likewise.  `build_nossack`
    emits its triangle rows in this order, so its LP bytes depend on it.
    """
    later = [_in_topo_order(g, desc) for desc in g.descendant_masks]
    return [(i, j, h) for i in range(g.n) for j in later[i] for h in later[j]]


def compute_A(g: Dag) -> dict[tuple[int, int], int]:
    """Path-weight table of the Albareda models: A[(i, j)] for every pair
    with i->j reachable is w_i + w_j plus the weight of every vertex on some
    i->j path."""
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


def _z_pairs(g: Dag, triples) -> list[tuple[int, int]]:
    """Edge pairs and the three pairs of every triple, in topological order."""
    pos = g.topo.position
    zset = {(u, v) for u, v, _ in g.edges}
    for i, j, l in triples:
        zset.update([(i, j), (j, l), (i, l)])
    return sorted(zset, key=lambda p: (pos[p[0]], pos[p[1]]))


def build_undirected(g: Dag, opts: BuildOptions) -> LinearModel:
    """Balanced k-way partitioning baseline that ignores edge directions."""
    k = opts.k
    bound = balance_bound(g, k, opts.eps)
    m = LinearModel("undirected")
    _add_common(m, g, k, bound)
    for u, v, _ in g.edges:
        _add_z(m, u, v, opts.relax_z)
    for u, v, _ in g.edges:
        for s in range(k):
            # two-sided linearization of z >= |x_us - x_vs|
            m.add_constraint(f"cut_{u}_{v}_{s}_lo",
                             [(1, _x(u, s)), (-1, _x(v, s)), (-1, _z(u, v))],
                             "<=", 0)
            m.add_constraint(f"cut_{u}_{v}_{s}_hi",
                             [(1, _x(v, s)), (-1, _x(u, s)), (-1, _z(u, v))],
                             "<=", 0)
    _finish(m, "undirected", g, opts, bound, MIN_CUT)
    return m


def build_proposed(g: Dag, opts: BuildOptions) -> LinearModel:
    """Acyclic partitioning via an upper-triangular part adjacency matrix."""
    bound = balance_bound(g, opts.k, opts.eps)
    m = LinearModel("proposed")
    _proposed_core(m, g, opts.k, bound, opts.relax_z)
    _finish(m, "proposed", g, opts, bound, MIN_CUT)
    return m


def _proposed_core(m: LinearModel, g: Dag, k: int, bound: int, relax_z: bool) -> None:
    _add_common(m, g, k, bound)
    for u, v, _ in g.edges:
        _add_z(m, u, v, relax_z)
    _add_y(m, k)
    for u, v, _ in g.edges:
        for s in range(k):
            # single-sided cut marking; sufficient at optimality because the
            # y constraints force part(u) <= part(v) along every edge
            m.add_constraint(f"cutmark_{u}_{v}_{s}",
                             [(1, _x(v, s)), (-1, _x(u, s)), (-1, _z(u, v))],
                             "<=", 0)
    _add_induced(m, g, k)
    for s in range(k):
        for t in range(s):
            m.add_constraint(f"lowertri_{s}_{t}", [(1, _y(s, t))], "=", 0)


def build_nossack(g: Dag, opts: BuildOptions) -> LinearModel:
    """MTZ-based acyclic partitioning model with part-size symmetry breaking."""
    k = opts.k
    bound = balance_bound(g, k, opts.eps)
    m = LinearModel("nossack")
    _add_common(m, g, k, bound)

    triples = chained_triples(g)
    # z only for pairs the model actually references: edges and chained-triple
    # pairs; unreferenced pairs cannot affect the optimum
    zpairs = _z_pairs(g, triples)
    for i, j in zpairs:
        _add_z(m, i, j, opts.relax_z)
    _add_y(m, k)
    for s in range(k):
        m.add_integer(_pi(s), 0, k - 1)

    _add_same_part(m, "samepart", zpairs, k)
    for i, j, h in triples:
        zij, zjh, zih = _z(i, j), _z(j, h), _z(i, h)
        m.add_constraint(f"tri1_{i}_{j}_{h}",
                         [(1, zij), (1, zjh), (-1, zih)], "<=", 1)
        m.add_constraint(f"tri2_{i}_{j}_{h}",
                         [(1, zij), (-1, zjh), (1, zih)], "<=", 1)
        m.add_constraint(f"tri3_{i}_{j}_{h}",
                         [(-1, zij), (1, zjh), (1, zih)], "<=", 1)
        m.add_constraint(f"tri4_{i}_{j}_{h}", [(1, zih), (-1, zij)], "<=", 0)
        m.add_constraint(f"tri5_{i}_{j}_{h}",
                         [(2, zih), (-1, zij), (-1, zjh)], "<=", 0)
    _add_induced(m, g, k)
    # big-M must cover the widest possible pi gap, which is k-1 when k > n
    big_m = max(g.n, k)
    for s in range(k):
        for t in range(k):
            if s != t:
                m.add_constraint(f"mtz_{s}_{t}",
                                 [(big_m, _y(s, t)), (-1, _pi(t)), (1, _pi(s))],
                                 "<=", big_m - 1)
    for s in range(1, k):
        terms = [(1, _x(i, s)) for i in range(g.n)]
        terms += [(-1, _x(i, s - 1)) for i in range(g.n)]
        m.add_constraint(f"symmetry_{s}", terms, "<=", 0)

    _finish(m, "nossack", g, opts, bound, MAX_INTERNAL)
    return m


def build_albareda(g: Dag, opts: BuildOptions, variant: str = "base") -> LinearModel:
    """Topological-part-index model with reachability preprocessing.

    variant: "base", "extended" (adds heavy-pair z fixing and the valid
    inequalities gated on the path-weight table A), or "final" (replaces
    the base topological families with the compact replacement constraints,
    plus zlink rows tying each same-part z to the x block).
    """
    k = opts.k
    bound = balance_bound(g, k, opts.eps)
    if variant not in ("base", "extended", "final"):
        raise ValueError(f"unknown Albareda variant {variant!r}")
    pos = g.topo.position
    a_tab = compute_A(g)
    pairs = sorted(a_tab.keys(), key=lambda p: (pos[p[0]], pos[p[1]]))
    triples = chained_triples(g) if variant in ("extended", "final") else []
    triples.sort(key=lambda t: (pos[t[0]], pos[t[1]], pos[t[2]]))

    # z pool per variant: base needs only edge pairs (objective + topo3);
    # extended adds chained-triple pairs; final references every reachable
    # pair through the per-vertex weight constraint, and every edge and
    # chained-triple pair is one
    zpairs = pairs if variant == "final" else _z_pairs(g, triples)

    m = LinearModel(f"albareda-{variant}")
    _add_common(m, g, k, bound)
    for i, j in zpairs:
        _add_z(m, i, j, opts.relax_z)

    def prefix_lt(i, s):  # sum_{t < s} x_it
        return [(1, _x(i, t)) for t in range(s)]

    def prefix_ge(i, s):  # sum_{t >= s} x_it
        return [(1, _x(i, t)) for t in range(s, k)]

    def prefix_le(i, s):  # sum_{t <= s} x_it
        return [(1, _x(i, t)) for t in range(s + 1)]

    if variant in ("base", "extended"):
        for i, j in pairs:
            heavy = a_tab[(i, j)] > bound
            for s in range(k):
                if heavy:
                    m.add_constraint(f"topo2_{i}_{j}_{s}",
                                     prefix_ge(i, s) + prefix_le(j, s), "<=", 1)
                else:
                    m.add_constraint(f"topo1_{i}_{j}_{s}",
                                     prefix_ge(i, s) + prefix_lt(j, s), "<=", 1)
        # topo3 is generated for every edge, not only heavy pairs as printed:
        # it is what pins z on cut edges, and it is valid regardless of A vs B
        for u, v, _ in g.edges:
            for s in range(k):
                m.add_constraint(f"topo3_{u}_{v}_{s}",
                                 [(1, _z(u, v))] + prefix_lt(u, s) + prefix_ge(v, s),
                                 "<=", 2)

    if variant in ("extended", "final"):
        for i, j in zpairs:
            if a_tab[(i, j)] > bound:
                m.add_constraint(f"fixz_{i}_{j}", [(1, _z(i, j))], "=", 0)
        for i, j, l in triples:
            zij, zjl, zil = _z(i, j), _z(j, l), _z(i, l)
            a_ij, a_jl, a_il = a_tab[(i, j)], a_tab[(j, l)], a_tab[(i, l)]
            if a_ij > bound:
                m.add_constraint(f"xtri1_{i}_{j}_{l}",
                                 [(1, zij), (1, zjl), (-1, zil)], "<=", 1)
                m.add_constraint(f"xtri2_{i}_{j}_{l}",
                                 [(1, zil), (1, zjl), (-1, zij)], "<=", 1)
                m.add_constraint(f"xtri3_{i}_{j}_{l}",
                                 [(1, zij), (1, zil), (-1, zjl)], "<=", 1)
            if a_ij <= bound and a_il <= bound:
                m.add_constraint(f"xchain1_{i}_{j}_{l}",
                                 [(1, zil), (-1, zij)], "<=", 0)
            if a_ij <= bound and a_jl <= bound:
                m.add_constraint(f"xchain2_{i}_{j}_{l}",
                                 [(1, zil), (-1, zjl)], "<=", 0)
            if a_ij <= bound and a_il <= bound and a_jl > bound:
                m.add_constraint(f"xpair1_{i}_{j}_{l}",
                                 [(1, zij), (1, zil)], "<=", 1)
            if a_il <= bound and a_jl <= bound and a_ij > bound:
                m.add_constraint(f"xpair2_{i}_{j}_{l}",
                                 [(1, zil), (1, zjl)], "<=", 1)
            if a_ij <= bound and a_jl <= bound and a_il > bound:
                m.add_constraint(f"xpair3_{i}_{j}_{l}",
                                 [(1, zij), (1, zjl)], "<=", 1)

    if variant == "final":
        earlier = [_in_topo_order(g, anc) for anc in g.ancestor_masks]
        later = [_in_topo_order(g, desc) for desc in g.descendant_masks]
        for i in range(g.n):
            terms = [(g.w[j], _z(j, i)) for j in earlier[i]]
            terms += [(g.w[j], _z(i, j)) for j in later[i]]
            m.add_constraint(f"weightcap_{i}", terms, "<=", bound - g.w[i])
        for i in range(g.n):
            reach_i = later[i]
            for a in range(len(reach_i)):
                for b in range(a + 1, len(reach_i)):
                    j, l = reach_i[a], reach_i[b]
                    if g.descendant_masks[j] >> l & 1:
                        continue
                    if a_tab[(i, j)] > bound or a_tab[(i, l)] > bound:
                        continue
                    if a_prime_value(g, i, j, l) <= bound:
                        continue
                    for s in range(k):
                        terms = [(1, _z(i, j)), (1, _z(i, l))]
                        terms += prefix_ge(j, s) + prefix_ge(l, s) + prefix_lt(i, s)
                        m.add_constraint(f"acyc1_{i}_{j}_{l}_{s}", terms, "<=", 3)
        # ordering constraints for every reachable pair; z = 1 relaxes them,
        # z fixed to 0 for heavy pairs recovers the strict ordering
        for i, j in pairs:
            for s in range(k):
                terms = [(-1, _z(i, j))] + prefix_ge(i, s) + prefix_le(j, s)
                m.add_constraint(f"acyc2_{i}_{j}_{s}", terms, "<=", 1)
        _add_same_part(m, "zlink", zpairs, k)

    _finish(m, f"albareda-{variant}", g, opts, bound, MAX_INTERNAL)
    return m


def build_quantum(g: Dag, opts: BuildOptions, nq, lm: int,
                  strategy: str = "incremental") -> LinearModel:
    """Acyclic partitioning with a per-part unique-qubit cap.

    nq holds one qubit bitmask per vertex (bit q set iff the vertex touches
    qubit q), as `circuit_to_dag` returns it.

    strategy "incremental" emits the model for the given k only; the search
    over k lives in the circuit driver.  strategy "bigm" adds part-used
    indicators weighted by M = 1 + total edge cost so that minimizing part
    count dominates minimizing cut.
    """
    k = opts.k
    bound = balance_bound(g, k, opts.eps)
    if strategy not in ("incremental", "bigm"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if len(nq) != g.n:
        raise ValueError(f"NQ has {len(nq)} masks, graph has {g.n} vertices")
    n_qubits = max((mask.bit_length() for mask in nq), default=0)
    for i, mask in enumerate(nq):
        if mask.bit_count() > lm:
            raise QubitCapacityInfeasibleError(
                f"vertex {i} touches more than L_m={lm} qubits")
    m = LinearModel(f"quantum-{strategy}")
    _proposed_core(m, g, k, bound, opts.relax_z)
    _finish(m, "quantum", g, opts, bound, MIN_CUT)
    for s in range(k):
        for q in range(n_qubits):
            m.add_binary(_pq(s, q))
    for i in range(g.n):
        for q in mask_vertices(nq[i]):
            for s in range(k):
                m.add_constraint(f"qubit_{i}_{q}_{s}",
                                 [(1, _x(i, s)), (-1, _pq(s, q))], "<=", 0)
    for s in range(k):
        m.add_constraint(f"capacity_{s}",
                         [(1, _pq(s, q)) for q in range(n_qubits)], "<=", lm)
    if strategy == "bigm":
        big_m = 1 + g.total_cost
        for s in range(k):
            m.add_binary(_u(s))
        for i in range(g.n):
            for s in range(k):
                m.add_constraint(f"used_{i}_{s}",
                                 [(1, _x(i, s)), (-1, _u(s))], "<=", 0)
        # the part-used penalties come before the edge objective _finish set
        terms = [(big_m, _u(s)) for s in range(k)]
        m.set_objective(MINIMIZE, terms + list(m.objective_terms))
        m.meta["big_m"] = big_m
    m.meta.update({"nq": tuple(nq), "lm": lm, "strategy": strategy})
    return m


_BUILDERS = {
    "undirected": build_undirected,
    "nossack": build_nossack,
    "albareda-base": partial(build_albareda, variant="base"),
    "albareda-extended": partial(build_albareda, variant="extended"),
    "albareda-final": partial(build_albareda, variant="final"),
    "proposed": build_proposed,
}

FORMULATION_NAMES = tuple(_BUILDERS)


def build_formulation(name: str, g: Dag, opts: BuildOptions) -> LinearModel:
    """Build one of the named non-quantum formulations."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown formulation {name!r}")
    return _BUILDERS[name](g, opts)


# Integer fields that canonical_assignment reads after each variable's tag.
_ENCODED_FIELDS = {"x": 2, "z": 2, "y": 2, "pi": 1, "pq": 2, "u": 1}

# Parsed variable names per model.  Callers encode many partitions of one
# model (exhaustive_model_optimum encodes all k^n), so each name is split
# once.  LinearModel only ever appends variables, so a parse that covers
# every variable is still current.
_ENCODABLE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _encodable_variables(m: LinearModel) -> list[tuple]:
    """(name, tag, first field, second field or None) for every variable."""
    parsed = _ENCODABLE.get(m)
    if parsed is not None and len(parsed) == len(m.variables):
        return parsed
    parsed = []
    for var in m.variables:
        tag, *fields = var.name.split("_")
        width = _ENCODED_FIELDS.get(tag)
        if width is None:
            raise ValueError(
                f"cannot encode variable {var.name!r} for {m.meta['kind']}")
        ints = [int(f) for f in fields[:width]] + [None] * (2 - width)
        parsed.append((var.name, tag, *ints))
    _ENCODABLE[m] = parsed
    return parsed


def canonical_assignment(m: LinearModel, g: Dag, p: Partition) -> dict:
    """The natural encoding of a partition over the model's variables.

    x from the assignment; z as the cut indicator (min-cut models) or the
    same-part indicator (max-internal models); y as the quotient adjacency;
    pi as a topological part numbering; pq/u from part contents.
    """
    same_part_z = m.meta["convention"] == MAX_INTERNAL
    part = p.assignment
    adjacency = set()
    for u, v, _ in g.edges:
        if part[u] != part[v]:
            adjacency.add((part[u], part[v]))
    levels = None
    nq = m.meta.get("nq")
    out: dict[str, int] = {}
    for name, tag, a, b in _encodable_variables(m):
        if tag == "x":
            out[name] = int(part[a] == b)
        elif tag == "z":
            same = part[a] == part[b]
            out[name] = int(same if same_part_z else not same)
        elif tag == "y":
            out[name] = int((a, b) in adjacency)
        elif tag == "pi":
            if levels is None:
                levels = part_levels(g, p) or list(range(p.k))
            out[name] = levels[a]
        elif tag == "pq":
            out[name] = int(any(part[i] == a and nq[i] >> b & 1
                                for i in range(g.n)))
        else:  # "u"
            out[name] = int(a in part)
    return out


def assignment_min_cut(m: LinearModel, a) -> Fraction:
    """Cut value claimed by an assignment, in the min-cut convention."""
    z_cut = sum(Fraction(a.get(_z(u, v), 0)) * c
                for u, v, c in m.meta["edge_costs"])
    if m.meta["convention"] == MAX_INTERNAL:
        return m.meta["total_cost"] - z_cut
    return z_cut


def decode_partition(m: LinearModel, a) -> tuple[Partition, Fraction]:
    """Read the x block back into a Partition; error if not one part per vertex."""
    n, k = m.meta["n"], m.meta["k"]
    assignment = []
    for i in range(n):
        chosen = [s for s in range(k) if round(Fraction(a.get(_x(i, s), 0))) == 1]
        if len(chosen) != 1:
            raise AmbiguousAssignmentError(
                f"vertex {i} has {len(chosen)} parts set")
        assignment.append(chosen[0])
    return Partition(tuple(assignment), k), assignment_min_cut(m, a)


def exhaustive_model_optimum(m: LinearModel, g: Dag):
    """Optimum over canonical encodings of all k^n part assignments.

    Returns (min_cut, partition) for the best feasible encoding, or
    (None, None) when no encoding is feasible.  Raises TooLargeError where
    brute_force would.
    """
    n, k = m.meta["n"], m.meta["k"]
    guard_enumeration(n, k, BRUTE_FORCE_GUARD_BITS, "exhaustive model search")
    maximize = m.objective_sense == MAXIMIZE
    best_obj = None
    best_p = None
    for assignment in product(range(k), repeat=n):
        p = Partition(assignment, k)
        a = canonical_assignment(m, g, p)
        res = evaluate(m, a, early_exit=True)
        if not res.feasible:
            continue
        if best_obj is None or (res.objective > best_obj if maximize
                                else res.objective < best_obj):
            best_obj = res.objective
            best_p = p
    if best_p is None:
        return None, None
    canonical = canonical_assignment(m, g, best_p)
    return assignment_min_cut(m, canonical), best_p
