#!/usr/bin/env python3
"""Reference optima for the `exact` workload, computed without dagpart.

Each instance becomes a MILP solved by HiGHS through scipy.optimize.milp:

    x_is binary, one part per vertex:       sum_s x_is = 1
    balance, one row per part:              sum_i w_i x_is <= B
    part(u) <= part(v) on every edge,
    through prefix sums of x:               sum_{t<=s} x_vt <= sum_{t<=s} x_ut
    cut indicator, one row per part:        z_uv >= x_us - x_vs
    objective:                              minimize sum c_uv z_uv

Any acyclic partition can be renumbered so that part ids never decrease
along an edge, and such a numbering has an acyclic quotient, so the optimum
is the acyclic optimum.  With x integral, z = max(0, max_s x_us - x_vs) is
0 or 1 at the optimum, so z needs no integrality.

    python3 bench/reference.py            rewrite bench/reference_optima.json
    python3 bench/reference.py --stdin    solve a JSON request, print optima
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix

from check import balance_bound
from corpus import EPS, base_corpus

OUT = Path(__file__).resolve().parent / "reference_optima.json"


def solve(weights, edges, k: int) -> int:
    n, m = len(weights), len(edges)
    bound = balance_bound(weights, k, EPS)
    rows, cols, vals, lower, upper = [], [], [], [], []

    def row(terms, lo, hi):
        for col, val in terms:
            rows.append(len(lower))
            cols.append(col)
            vals.append(val)
        lower.append(lo)
        upper.append(hi)

    def x(i, s):
        return i * k + s

    for i in range(n):
        row([(x(i, s), 1) for s in range(k)], 1, 1)
    for s in range(k):
        row([(x(i, s), weights[i]) for i in range(n)], -np.inf, bound)
    for e, (u, v, _) in enumerate(edges):
        for s in range(k - 1):
            row([(x(v, t), 1) for t in range(s + 1)] + [(x(u, t), -1) for t in range(s + 1)],
                -np.inf, 0)
        for s in range(k):
            row([(n * k + e, 1), (x(u, s), -1), (x(v, s), 1)], 0, np.inf)
    matrix = coo_matrix((vals, (rows, cols)), shape=(len(lower), n * k + m)).tocsr()
    cost = np.zeros(n * k + m)
    cost[n * k:] = [c for _, _, c in edges]
    integrality = np.zeros(n * k + m)
    integrality[:n * k] = 1
    result = milp(cost, constraints=LinearConstraint(matrix, lower, upper),
                  integrality=integrality, bounds=Bounds(0, 1),
                  options={"mip_rel_gap": 0})
    if result.status != 0:
        raise RuntimeError(f"HiGHS did not prove an optimum: {result.message}")
    return int(round(result.fun))


def main(argv) -> int:
    if argv == ["--stdin"]:
        request = json.load(sys.stdin)
        print(json.dumps({r["key"]: solve(r["weights"], r["edges"], r["k"])
                          for r in request}))
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    optima = {}
    for inst in base_corpus("exact"):
        optima[inst.key] = solve(inst.weights, inst.edges, inst.k)
        print(f"{inst.key} {optima[inst.key]}", file=sys.stderr)
    OUT.write_text(json.dumps({"eps": str(EPS), "solver": "HiGHS via scipy.optimize.milp",
                               "optima": optima}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
