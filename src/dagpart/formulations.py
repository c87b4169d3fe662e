"""Builders for the ILP formulations, the path-weight table A that the
Albareda models read, and encode/decode between partitions and model
assignments.

All builders produce a LinearModel over the shared variable naming scheme
x_{i}_{s}, z_{i}_{j}, y_{s}_{t}, pi_{s}, pq_{s}_{q}, u_{s}.  Pair indices
for z follow topological position order, so "i before j" always means
pos[i] < pos[j].  A builder formats each x, z and y name once, and turns
each table of unit term pairs on them, such as `(1, x_i_s)` or
`(-1, z_i_j)`, into an id table once per build, holding only the names its
rows read, with `LinearModel.pair_ids`, which checks each pair as it
enters the model's pair table; its `(sense, rhs)` tails come from
`LinearModel.tail`.  A row is its name, a tuple of ids and a tail, and
each row family goes to `LinearModel._add_rows` in one call, the large
ones (`tri*`, `xtri*`/`xchain*`/`xpair3`, `topo*`, `acyc2`,
`samepart`/`zlink`, `induced`) as generators of their rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product
from typing import NamedTuple

from .dag import Dag, mask_vertices
from .errors import AmbiguousAssignmentError
from .exact import (BRUTE_FORCE_GUARD_BITS, check_qubit_capacity, check_qubits,
                    guard_enumeration, part_qubit_masks)
from .model import LinearModel, MAXIMIZE, MINIMIZE, evaluate
from .partition import Partition, balance_bound, part_levels, to_fraction

MIN_CUT = "min_cut"
MAX_INTERNAL = "max_internal"


class BuildOptions(NamedTuple):
    k: int
    eps: object = 0
    relax_z: bool = False


def _x(i, s):
    return f"x_{i}_{s}"


def _z(i, j):
    return f"z_{i}_{j}"


def _add_common(m: LinearModel, g: Dag, k: int, bound: int):
    """x variables, one-part-per-vertex, and balance constraints.

    Returns the x names, `names[i][s]` being x_i_s, and the id table `px`
    of their `(1, x_i_s)` pairs; a builder whose rows read `(-1, x_i_s)`
    makes that table by `_x_ids`, for only the names its rows read."""
    names = [[m.add_binary(_x(i, s)) for s in range(k)] for i in range(g.n)]
    px = _x_ids(m, names, 1)
    m._add_rows((f"onepart_{i}", px[i], m.tail("=", 1)) for i in range(g.n))
    m._add_rows((f"balance_{s}", m.pair_ids([(w, row[s]) for w, row in zip(g.w, names)]),
                 m.tail("<=", bound)) for s in range(k))
    return names, px


def _x_ids(m: LinearModel, names, coef) -> list[tuple]:
    """The ids of the `(coef, x_i_s)` pairs, a tuple per row of names."""
    return [m.pair_ids([(coef, name) for name in row]) for row in names]


def _add_zs(m: LinearModel, zpairs, relax_z: bool) -> dict:
    """A z variable for every pair, in the given order; returns each pair's
    name."""
    names = {}
    for i, j in zpairs:
        name = names[i, j] = _z(i, j)
        if relax_z:
            m.add_continuous(name, 0, 1)
        else:
            m.add_binary(name)
    return names


def _id_table(m: LinearModel, coef, names: dict) -> dict:
    """The id of the pair `(coef, name)` for every name of a table, under
    the table's keys."""
    return dict(zip(names, m.pair_ids([(coef, name) for name in names.values()])))


class _IdsOnRead(dict):
    """`_id_table` for rows that read only some names of a table: the id of
    the pair `(coef, names[key])` is made on the key's first read."""

    def __init__(self, m: LinearModel, coef, names: dict):
        self.m, self.coef, self.names = m, coef, names

    def __missing__(self, key):
        self[key] = pair_id = self.m.pair_ids([(self.coef, self.names[key])])[0]
        return pair_id


def _add_y(m: LinearModel, k: int) -> dict:
    """Binary y_s_t for every ordered pair of distinct parts; returns each
    pair's name."""
    return {(s, t): m.add_binary(f"y_{s}_{t}") for s in range(k) for t in range(k) if s != t}


def _add_induced(m: LinearModel, g: Dag, px, y: dict) -> None:
    """An edge from part s to part t forces y_s_t = 1."""
    parts = [(s, t, f"{s}_{t}", ny) for (s, t), ny in _id_table(m, -1, y).items()]
    le1 = m.tail("<=", 1)

    def rows():
        for u, v, _ in g.edges:
            head, xu, xv = f"induced_{u}_{v}_", px[u], px[v]
            for s, t, suffix, ny in parts:
                yield head + suffix, (xu[s], xv[t], ny), le1

    m._add_rows(rows())


def _add_same_part(m: LinearModel, prefix: str, pz: dict, px, names) -> None:
    """Same-part z rows: z = 1 claims i and j share a part; without these rows
    nothing pins z to 0 on a cut edge, and a solver could claim a false cut.
    The rows read `(-1, x_j_s)` only for the second vertices j of pairs."""
    heads = sorted({j for _, j in pz})
    nx = dict(zip(heads, _x_ids(m, [names[j] for j in heads], -1)))
    le1 = m.tail("<=", 1)

    def rows():
        for (i, j), zij in pz.items():
            head = f"{prefix}_{i}_{j}_"
            for s, (xis, xjs) in enumerate(zip(px[i], nx[j])):
                yield f"{head}{s}", (zij, xis, xjs), le1

    m._add_rows(rows())


def _finish(m: LinearModel, kind: str, g: Dag, opts: BuildOptions,
            bound: int, convention: str, z: dict) -> None:
    """The edge objective, minimised under MIN_CUT and maximised under
    MAX_INTERNAL, and the meta that decoding reads."""
    sense = MAXIMIZE if convention == MAX_INTERNAL else MINIMIZE
    m.set_objective(sense, [(c, z[u, v]) for u, v, c in g.edges])
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
    i->j path.

    On a chained triple (i reaches j, j reaches l), A(i, l) >= max(A(i, j),
    A(j, l)): every i->j path and every j->l path extends to an i->l path
    through j, and no weight is negative."""
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
    names, px = _add_common(m, g, k, bound)
    ends = {i for u, v, _ in g.edges for i in (u, v)}
    nx = _x_ids(m, [row if i in ends else () for i, row in enumerate(names)], -1)
    z = _add_zs(m, [(u, v) for u, v, _ in g.edges], opts.relax_z)
    nz, le0 = _id_table(m, -1, z), m.tail("<=", 0)
    # two-sided linearization of z >= |x_us - x_vs|
    m._add_rows((f"cut_{u}_{v}_{s}_{side}", (px[a][s], nx[b][s], nz[u, v]), le0)
                for u, v, _ in g.edges for s in range(k)
                for side, a, b in (("lo", u, v), ("hi", v, u)))
    _finish(m, "undirected", g, opts, bound, MIN_CUT, z)
    return m


def build_proposed(g: Dag, opts: BuildOptions) -> LinearModel:
    """Acyclic partitioning via an upper-triangular part adjacency matrix."""
    bound = balance_bound(g, opts.k, opts.eps)
    m = LinearModel("proposed")
    _, z = _proposed_core(m, g, opts.k, bound, opts.relax_z)
    _finish(m, "proposed", g, opts, bound, MIN_CUT, z)
    return m


def _proposed_core(m: LinearModel, g: Dag, k: int, bound: int, relax_z: bool):
    """The rows `proposed` and the quantum models share; returns the x id
    table `px` and the z names."""
    names, px = _add_common(m, g, k, bound)
    tails = {u for u, _, _ in g.edges}
    nx = _x_ids(m, [row if i in tails else () for i, row in enumerate(names)], -1)
    z = _add_zs(m, [(u, v) for u, v, _ in g.edges], relax_z)
    y = _add_y(m, k)
    nz, le0 = _id_table(m, -1, z), m.tail("<=", 0)
    # single-sided cut marking; sufficient at optimality because the y
    # constraints force part(u) <= part(v) along every edge
    m._add_rows((f"cutmark_{u}_{v}_{s}", (px[v][s], nx[u][s], nz[u, v]), le0)
                for u, v, _ in g.edges for s in range(k))
    _add_induced(m, g, px, y)
    m._add_rows((f"lowertri_{s}_{t}", m.pair_ids([(1, y[s, t])]), m.tail("=", 0))
                for s in range(k) for t in range(s))
    return px, z


def build_nossack(g: Dag, opts: BuildOptions) -> LinearModel:
    """MTZ-based acyclic partitioning model with part-size symmetry breaking."""
    k = opts.k
    bound = balance_bound(g, k, opts.eps)
    m = LinearModel("nossack")
    names, px = _add_common(m, g, k, bound)

    triples = chained_triples(g)
    # z only for pairs the model actually references: edges and chained-triple
    # pairs; unreferenced pairs cannot affect the optimum
    z = _add_zs(m, _z_pairs(g, triples), opts.relax_z)
    y = _add_y(m, k)
    pi = [f"pi_{s}" for s in range(k)]
    for name in pi:
        m.add_integer(name, 0, k - 1)

    # the tri rows read -z only on the pairs of triples, the (a, b) where a
    # has an ancestor, b a descendant or a vertex lies between them; tri5
    # reads 2 z only on the pairs with a vertex between
    anc, desc = g.ancestor_masks, g.descendant_masks
    pz = _id_table(m, 1, z)
    nz = _id_table(m, -1, {(a, b): name for (a, b), name in z.items()
                           if anc[a] or desc[b] or desc[a] & anc[b]})
    twoz = _id_table(m, 2, {(a, b): name for (a, b), name in z.items() if desc[a] & anc[b]})
    _add_same_part(m, "samepart", pz, px, names)
    le1, le0 = m.tail("<=", 1), m.tail("<=", 0)

    def tri_rows():
        for i, j, h in triples:
            ij, jh, ih = (i, j), (j, h), (i, h)
            suffix = f"_{i}_{j}_{h}"
            yield "tri1" + suffix, (pz[ij], pz[jh], nz[ih]), le1
            yield "tri2" + suffix, (pz[ij], nz[jh], pz[ih]), le1
            yield "tri3" + suffix, (nz[ij], pz[jh], pz[ih]), le1
            yield "tri4" + suffix, (pz[ih], nz[ij]), le0
            yield "tri5" + suffix, (twoz[ih], nz[ij], nz[jh]), le0

    m._add_rows(tri_rows())
    _add_induced(m, g, px, y)
    # big-M must cover the widest possible pi gap, which is k-1 when k > n
    big_m = max(g.n, k)
    m._add_rows((f"mtz_{s}_{t}", m.pair_ids([(big_m, name), (-1, pi[t]), (1, pi[s])]),
                 m.tail("<=", big_m - 1)) for (s, t), name in y.items())
    nx = _x_ids(m, [row[:-1] for row in names], -1)  # read for parts s < k - 1
    m._add_rows((f"symmetry_{s}", tuple(row[s] for row in px)
                 + tuple(row[s - 1] for row in nx), le0) for s in range(1, k))

    _finish(m, "nossack", g, opts, bound, MAX_INTERNAL, z)
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
    names, px = _add_common(m, g, k, bound)
    z = _add_zs(m, zpairs, opts.relax_z)
    pz, le1 = _id_table(m, 1, z), m.tail("<=", 1)

    def prefix_lt(i, s):  # sum_{t < s} x_it
        return px[i][:s]

    def prefix_ge(i, s):  # sum_{t >= s} x_it
        return px[i][s:]

    def prefix_le(i, s):  # sum_{t <= s} x_it
        return px[i][:s + 1]

    if variant in ("base", "extended"):
        def topo_rows():
            for i, j in pairs:
                if a_tab[(i, j)] > bound:
                    head, prefix_j = f"topo2_{i}_{j}_", prefix_le
                else:
                    head, prefix_j = f"topo1_{i}_{j}_", prefix_lt
                for s in range(k):
                    yield f"{head}{s}", prefix_ge(i, s) + prefix_j(j, s), le1

        m._add_rows(topo_rows())
        # topo3 is generated for every edge, not only heavy pairs as printed:
        # it is what pins z on cut edges, and it is valid regardless of A vs B
        m._add_rows((f"topo3_{u}_{v}_{s}", (pz[u, v],) + prefix_lt(u, s) + prefix_ge(v, s),
                     m.tail("<=", 2)) for u, v, _ in g.edges for s in range(k))

    if variant in ("extended", "final"):
        # triple_rows reads -z on some pairs only, final's acyc2 on every one
        nz, le0 = _IdsOnRead(m, -1, z), m.tail("<=", 0)
        m._add_rows((f"fixz_{i}_{j}", (zij,), m.tail("=", 0)) for (i, j), zij in pz.items()
                    if a_tab[(i, j)] > bound)

        # a chained triple has a_il >= max(a_ij, a_jl) (see compute_A), so
        # xchain1 needs no test of a_ij, and the printed xpair1 (a_jl > bound
        # >= a_il) and xpair2 (a_ij > bound >= a_il) rows can never be emitted
        def triple_rows():
            for i, j, l in triples:
                ij, jl, il = (i, j), (j, l), (i, l)
                a_ij, a_jl, a_il = a_tab[ij], a_tab[jl], a_tab[il]
                suffix = f"_{i}_{j}_{l}"
                if a_ij > bound:
                    yield "xtri1" + suffix, (pz[ij], pz[jl], nz[il]), le1
                    yield "xtri2" + suffix, (pz[il], pz[jl], nz[ij]), le1
                    yield "xtri3" + suffix, (pz[ij], pz[il], nz[jl]), le1
                if a_il <= bound:
                    yield "xchain1" + suffix, (pz[il], nz[ij]), le0
                if a_ij <= bound and a_jl <= bound:
                    yield "xchain2" + suffix, (pz[il], nz[jl]), le0
                    if a_il > bound:
                        yield "xpair3" + suffix, (pz[ij], pz[jl]), le1

        m._add_rows(triple_rows())

    if variant == "final":
        earlier = [_in_topo_order(g, anc) for anc in g.ancestor_masks]
        later = [_in_topo_order(g, desc) for desc in g.descendant_masks]
        for i in range(g.n):
            terms = [(g.w[j], z[j, i]) for j in earlier[i]]
            terms += [(g.w[j], z[i, j]) for j in later[i]]
            m._add_rows([(f"weightcap_{i}", m.pair_ids(terms),
                          m.tail("<=", bound - g.w[i]))])

        le3 = m.tail("<=", 3)
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
                    head, zs = f"acyc1_{i}_{j}_{l}_", (pz[i, j], pz[i, l])
                    m._add_rows((f"{head}{s}", zs + prefix_ge(j, s) + prefix_ge(l, s)
                                 + prefix_lt(i, s), le3) for s in range(k))
        # ordering constraints for every reachable pair; z = 1 relaxes them,
        # z fixed to 0 for heavy pairs recovers the strict ordering
        def acyc2_rows():
            for i, j in pairs:
                head, nzij = f"acyc2_{i}_{j}_", (nz[i, j],)
                for s in range(k):
                    yield f"{head}{s}", nzij + prefix_ge(i, s) + prefix_le(j, s), le1

        m._add_rows(acyc2_rows())
        _add_same_part(m, "zlink", pz, px, names)

    _finish(m, f"albareda-{variant}", g, opts, bound, MAX_INTERNAL, z)
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
    check_qubits(g, nq, lm)
    check_qubit_capacity(nq, lm)
    n_qubits = max((mask.bit_length() for mask in nq), default=0)
    m = LinearModel(f"quantum-{strategy}")
    px, z = _proposed_core(m, g, k, bound, opts.relax_z)
    _finish(m, "quantum", g, opts, bound, MIN_CUT, z)
    pq = [[m.add_binary(f"pq_{s}_{q}") for q in range(n_qubits)] for s in range(k)]
    npq, le0 = [m.pair_ids([(-1, name) for name in row]) for row in pq], m.tail("<=", 0)
    m._add_rows((f"qubit_{i}_{q}_{s}", (px[i][s], npq[s][q]), le0)
                for i in range(g.n) for q in mask_vertices(nq[i]) for s in range(k))
    m._add_rows((f"capacity_{s}", m.pair_ids([(1, name) for name in row]),
                 m.tail("<=", lm)) for s, row in enumerate(pq))
    if strategy == "bigm":
        big_m = 1 + g.total_cost
        u = [m.add_binary(f"u_{s}") for s in range(k)]
        nu = m.pair_ids([(-1, name) for name in u])
        m._add_rows((f"used_{i}_{s}", (px[i][s], nu[s]), le0)
                    for i in range(g.n) for s in range(k))
        # the part-used penalties come before the edge objective _finish set
        terms = [(big_m, name) for name in u]
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


# Integer fields that an encoder reads after each variable's tag.
_ENCODED_FIELDS = {"x": 2, "z": 2, "y": 2, "pi": 1, "pq": 2, "u": 1}


def _encoder(m: LinearModel, g: Dag):
    """encode(p): `canonical_assignment(m, g, p)`, with m's names split once."""
    parsed = []  # (name, tag, first field, second field or None)
    for var in m.variables:
        tag, *fields = var.name.split("_")
        width = _ENCODED_FIELDS.get(tag)
        if width is None:
            raise ValueError(
                f"cannot encode variable {var.name!r} for {m.meta['kind']}")
        ints = [int(f) for f in fields[:width]] + [None] * (2 - width)
        parsed.append((var.name, tag, *ints))
    same_part_z = m.meta["convention"] == MAX_INTERNAL
    nq = m.meta.get("nq")

    def encode(p: Partition) -> dict:
        part = p.assignment
        adjacency = {(part[u], part[v]) for u, v, _ in g.edges if part[u] != part[v]}
        levels = qubits = None
        out: dict[str, int] = {}
        for name, tag, a, b in parsed:
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
                if qubits is None:  # parts that p lacks and m has stay empty
                    qubits = part_qubit_masks(nq, part, max(p.k, m.meta["k"]))
                out[name] = qubits[a] >> b & 1
            else:  # "u"
                out[name] = int(a in part)
        return out

    return encode


def canonical_assignment(m: LinearModel, g: Dag, p: Partition) -> dict:
    """The natural encoding of a partition over the model's variables.

    x from the assignment; z as the cut indicator (min-cut models) or the
    same-part indicator (max-internal models); y as the quotient adjacency;
    pi as a topological part numbering; pq_s_q as whether part s touches
    qubit q; u from part contents.  Each call reads m's variables afresh.
    """
    return _encoder(m, g)(p)


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
    brute_force would.  Each variable name is split once, for all k^n
    encodings.
    """
    n, k = m.meta["n"], m.meta["k"]
    guard_enumeration(n, k, BRUTE_FORCE_GUARD_BITS, "exhaustive model search")
    encode = _encoder(m, g)
    maximize = m.objective_sense == MAXIMIZE
    best_obj = None
    best_p = None
    for assignment in product(range(k), repeat=n):
        p = Partition(assignment, k)
        res = evaluate(m, encode(p), early_exit=True)
        if not res.feasible:
            continue
        if best_obj is None or (res.objective > best_obj if maximize
                                else res.objective < best_obj):
            best_obj = res.objective
            best_p = p
    if best_p is None:
        return None, None
    return assignment_min_cut(m, encode(best_p)), best_p
