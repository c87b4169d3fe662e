"""The DAG file format shared by the CLI and library.

Layout: a header line `p adag <n> <m>`, then n lines `v <weight>`, then m
lines `e <u> <v> <cost>`.  Lines starting with `%` are comments and may
appear anywhere.  All numbers are ASCII decimals, vertices 0-based.
"""

from __future__ import annotations

from .dag import Dag
from .errors import GraphParseError


def ascii_decimal(token: str) -> int:
    """`int`, minus what it accepts but the file formats do not: non-ASCII
    digits and '_' digit grouping."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an ASCII decimal: {token!r}")
    return int(token)


def read_dag_text(text: str) -> Dag:
    header = None
    weights: list[int] = []
    edges: list[tuple[int, int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != "adag":
                raise GraphParseError(f"expected header 'p adag <n> <m>', got {raw!r}",
                                      line_no)
            try:
                header = (ascii_decimal(tokens[2]), ascii_decimal(tokens[3]))
            except ValueError:
                raise GraphParseError(f"non-numeric header counts in {raw!r}", line_no)
            continue
        kind = tokens[0]
        try:
            if kind == "v" and len(tokens) == 2:
                weights.append(ascii_decimal(tokens[1]))
            elif kind == "e" and len(tokens) == 4:
                edges.append((ascii_decimal(tokens[1]), ascii_decimal(tokens[2]),
                              ascii_decimal(tokens[3])))
            else:
                raise GraphParseError(f"unrecognized line {raw!r}", line_no)
        except ValueError:
            raise GraphParseError(f"non-numeric field in {raw!r}", line_no)
    if header is None:
        raise GraphParseError("missing 'p adag' header")
    n, m = header
    if len(weights) != n:
        raise GraphParseError(f"header declares {n} vertices, found {len(weights)}")
    if len(edges) != m:
        raise GraphParseError(f"header declares {m} edges, found {len(edges)}")
    return Dag(weights, edges)


def write_dag_text(g: Dag) -> str:
    lines = [f"p adag {g.n} {g.m}"]
    lines += [f"v {w}" for w in g.w]
    lines += [f"e {u} {v} {c}" for u, v, c in g.edges]
    return "\n".join(lines) + "\n"


def read_dag_file(path) -> Dag:
    with open(path, "r", encoding="ascii") as fh:
        return read_dag_text(fh.read())


def write_dag_file(g: Dag, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(write_dag_text(g))
