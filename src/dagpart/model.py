"""Solver-agnostic MILP container with LP emission, solution ingestion, evaluation.

All arithmetic is exact and involves no floats.  Bounds and coefficients
are normalised once, when a variable, a pair, a tail or the objective is
added, and values once, when a solution is read or evaluated: a number
that is integral is kept as a plain int, any other as a `Fraction` (a
float becomes the `Fraction` of its exact binary value).  A model checks
terms and tails only where they enter its two tables.  The pair table
stores each distinct `(coef, name)` pair once, under the next pair id, when
`pair_ids` first checks an equal pair; every later equal pair, in a row or
the objective, maps to that id.  The tail table stores each distinct
`(sense, rhs)` tail once, checked by `tail`.  The rows are stored in blocks
of 1,024 in CSR form: a block keeps its rows' pair ids in one flat list,
one term count and one stored tail per row, and its row names joined in
one string with an `array('I')` of where each name ends.  Builders append
rows of ids and tails with `_add_rows`; `add_constraint` checks and adds
one row.  The `constraints` attribute is a read-only sequence of immutable
`Constraint`s made from the blocks on every read.  int and `Fraction`
arithmetic mix without rounding, so `evaluate` checks constraints exactly
after integrality rounding.

`write_lp` formats the text of each stored pair and tail once per call and
emits each block of rows as one string made from that text, so its peak
memory is the finished strings, one block's pieces and the final text,
about twice the text itself.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, chain, count, islice, repeat
from operator import itemgetter, sub
from typing import NamedTuple

from .errors import (
    NonIntegralValueError,
    SolutionParseError,
    UnrepresentableCoefficientError,
)

# Standard MILP solver practice: values this close to an integer are rounded.
INTEGRALITY_TOLERANCE = Fraction(1, 10**6)

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

MINIMIZE = "min"
MAXIMIZE = "max"

_SENSES = ("<=", ">=", "=")


class Variable(NamedTuple):
    name: str
    kind: str
    lb: Fraction | int | None = None
    ub: Fraction | int | None = None


class Constraint(NamedTuple):
    name: str
    terms: tuple  # ((coef, var_name), ...)
    sense: str    # "<=", ">=", "="
    rhs: Fraction | int


class EvalResult(NamedTuple):
    feasible: bool
    violations: tuple[str, ...]
    objective: int | Fraction


def _exact(value, where: str):
    """A finite number as an int if it is integral, else as a Fraction that
    `write_lp` can print as a float."""
    if type(value) is int:
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise UnrepresentableCoefficientError(f"non-finite coefficient in {where}")
    frac = Fraction(value)
    if frac.denominator == 1:
        return frac.numerator
    try:
        as_float = float(frac)
    except OverflowError:
        raise UnrepresentableCoefficientError(
            f"coefficient in {where} is too large for a float") from None
    if as_float == 0.0:  # frac is not integral, so it is not 0
        raise UnrepresentableCoefficientError(
            f"coefficient in {where} is too small for a float")
    return frac


# write_lp builds a block's text from pieces about four times its size, so a
# block is kept small beside the whole text of a small model
_ROWS_PER_BLOCK = 1024


class _Block:
    """Up to `_ROWS_PER_BLOCK` rows in CSR form: their pair ids in one flat
    list, and one term count, one shared `(sense, rhs)` tail and one name per
    row.  While the block is open its names are a list; a full block is
    sealed, and its names become one string and the `array('I')` of where
    each name ends in it."""

    __slots__ = ("ids", "counts", "tails", "names", "ends")

    def __init__(self):
        self.ids: list[int] = []
        self.counts: list[int] = []
        self.tails: list[tuple] = []
        self.names: list[str] | str = []
        self.ends: array | None = None

    def seal(self) -> None:
        self.ends = array("I", accumulate(map(len, self.names)))
        self.names = "".join(self.names)

    def row_names(self) -> list[str]:
        if self.ends is None:
            return self.names
        text, ends = self.names, self.ends
        return [text[start:end] for start, end in zip(chain((0,), ends), ends)]

    def row_name(self, r: int) -> str:
        if self.ends is None:
            return self.names[r]
        return self.names[self.ends[r - 1] if r else 0:self.ends[r]]


class _Rows(Sequence):
    """A read-only view of a model's rows: every read makes `Constraint`s
    from the blocks, and a slice is a list of them.  Indexing sums the term
    counts before the row in its block."""

    def __init__(self, m: LinearModel):
        self._blocks, self._pairs = m._blocks, m._pairs

    def __len__(self) -> int:
        return _ROWS_PER_BLOCK * (len(self._blocks) - 1) + len(self._blocks[-1].counts)

    def __getitem__(self, i):
        rows = range(len(self))[i]  # raises as a list index would
        if isinstance(i, slice):
            return [self[j] for j in rows]
        b, r = divmod(rows, _ROWS_PER_BLOCK)
        block = self._blocks[b]
        start = sum(islice(block.counts, r))
        ids = block.ids[start:start + block.counts[r]]
        return Constraint(block.row_name(r), tuple(map(self._pairs.__getitem__, ids)),
                          *block.tails[r])

    def __iter__(self):
        pair = self._pairs.__getitem__
        for block in self._blocks:
            # a slice of a tuple is a tuple: each row's terms
            flat, ends = tuple(map(pair, block.ids)), list(accumulate(block.counts))
            terms = map(flat.__getitem__, map(slice, chain((0,), ends), ends))
            tails = block.tails
            rows = zip(block.row_names(), terms, map(itemgetter(0), tails),
                       map(itemgetter(1), tails))
            # tuple.__new__ skips Constraint's __new__, which is Python code
            yield from map(tuple.__new__, repeat(Constraint), rows)

    def __eq__(self, other) -> bool:
        return list(self) == other

    def __repr__(self) -> str:
        return repr(list(self))


class LinearModel:
    """Variables with domains, linear constraints, and a linear objective.

    Variables and constraints are kept in declaration order, which fixes
    the byte layout of the emitted LP file.  Each distinct `(coef, name)`
    pair is stored once in a pair table and each distinct `(sense, rhs)`
    tail once in a tail table; `pair_ids` and `tail` check what enters
    them.  The rows are stored in blocks of 1,024 as runs of pair ids with
    a stored tail, which `add_constraint` and the builders' `_add_rows`
    append to; `constraints` reads them as `Constraint`s.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self._index: dict[str, Variable] = {}
        self._pairs: list[tuple] = []          # pair id -> the stored pair
        self._pair_ids: dict[tuple, int] = {}  # every stored pair -> its id
        self._tails: dict[tuple, tuple] = {}   # every stored tail, to itself
        self._blocks = [_Block()]              # only the last one is open
        self.objective_sense = MINIMIZE
        self.objective_terms: tuple = ()
        self.meta: dict = {}

    def _add_var(self, name: str, kind: str, lb, ub) -> str:
        if name in self._index:
            raise ValueError(f"duplicate variable name {name!r}")
        lb, ub = (None if b is None else _exact(b, f"bounds of {name}")
                  for b in (lb, ub))
        var = Variable(name, kind, lb, ub)
        self.variables.append(var)
        self._index[name] = var
        return name

    def add_binary(self, name: str) -> str:
        return self._add_var(name, BINARY, 0, 1)

    def add_integer(self, name: str, lb: int, ub: int) -> str:
        return self._add_var(name, INTEGER, lb, ub)

    def add_continuous(self, name: str, lb, ub) -> str:
        return self._add_var(name, CONTINUOUS, lb, ub)

    @property
    def constraints(self) -> _Rows:
        """The rows in declaration order, as a read-only sequence: a view
        for tests, debugging and `bench/run.py`, which no library code
        reads."""
        return _Rows(self)

    def var(self, name: str) -> Variable:
        return self._index[name]

    def has_var(self, name: str) -> bool:
        return name in self._index

    def _check_terms(self, terms: tuple, row: str | None) -> tuple:
        """The terms as a tuple of `(coef, name)` pairs, in one pass that
        checks every name.  If every pair is a tuple with an int coefficient
        the pairs are kept as given; otherwise every coefficient is
        normalised by `_exact`.  `row` is the constraint's name, or None for
        the objective."""
        index = self._index
        as_given = True
        for pair in terms:
            coef, var_name = pair
            if var_name not in index:
                owner = "objective" if row is None else f"constraint {row!r}"
                raise ValueError(f"{owner} references unknown variable {var_name!r}")
            if type(coef) is not int or type(pair) is not tuple:
                as_given = False
        if as_given:
            return terms
        where = "objective" if row is None else row
        return tuple((_exact(coef, where), var_name) for coef, var_name in terms)

    def pair_ids(self, terms, row: str | None = None) -> tuple:
        """The ids of an iterable of `(coef, name)` pairs, in order, each the
        table's own int object.  The pairs are checked as `_check_terms`
        does, and a bad one raises before any is stored; a pair equal to a
        stored one maps to its id, any other is stored under the next id.
        `row` is the constraint error messages name; None names the
        objective."""
        table, ids = self._pairs, self._pair_ids
        checked = self._check_terms(tuple(terms), row)
        for pair in checked:
            if pair not in ids:
                ids[pair] = len(table)
                table.append(pair)
        return tuple(map(ids.__getitem__, checked))

    def tail(self, sense: str, rhs, row: str = "rhs") -> tuple:
        """The stored `(sense, rhs)` tail equal to the given one, storing it
        if it is new.  The sense must be "<=", ">=" or "="; an rhs that is
        not an int is normalised by `_exact`, whose errors name `row`."""
        if sense not in _SENSES:
            raise ValueError(f"bad sense {sense!r}")
        tail = (sense, rhs if type(rhs) is int else _exact(rhs, row))
        return self._tails.setdefault(tail, tail)

    def _add_rows(self, rows) -> None:
        """Append each `(name, ids, tail)` row of an iterable to the blocks.
        Only the name is checked, as a str, since a full block joins the
        names: the ids must come from this model's `pair_ids` and the tail
        from its `tail`, which checked them.  A row whose name is not a str
        raises, and the rows before it stay."""
        block = self._blocks[-1]
        flat, counts, tails, names = block.ids, block.counts, block.tails, block.names
        for name, ids, tail in rows:
            if not isinstance(name, str):
                raise TypeError(f"constraint name {name!r} is not a str")
            flat += ids
            counts.append(len(ids))
            tails.append(tail)
            names.append(name)
            if len(counts) == _ROWS_PER_BLOCK:
                block.seal()
                block = _Block()
                self._blocks.append(block)
                flat, counts, tails, names = block.ids, block.counts, block.tails, block.names

    def add_constraint(self, name: str, terms, sense: str, rhs) -> None:
        """Check and add one row: its name must be a str; then its sense, the
        names of its terms, their coefficients and its rhs are checked, in
        that order.  A bad row raises and adds no pair, tail or row."""
        if not isinstance(name, str):
            raise TypeError(f"constraint name {name!r} is not a str")
        if sense not in _SENSES:
            raise ValueError(f"bad sense {sense!r}")
        # the terms are checked before the rhs, but stored only after it
        terms = self._check_terms(tuple(terms), name)
        tail = self.tail(sense, rhs, name)
        self._add_rows(((name, self.pair_ids(terms, name), tail),))

    def set_objective(self, sense: str, terms) -> None:
        if sense not in (MINIMIZE, MAXIMIZE):
            raise ValueError(f"bad objective sense {sense!r}")
        self.objective_terms = tuple(map(self._pairs.__getitem__, self.pair_ids(terms)))
        self.objective_sense = sense


def _fmt_num(value) -> str:
    """An int or Fraction, as normalised when it was added to the model."""
    return str(value) if type(value) is int else repr(float(value))


def _pair_text(coef, name) -> str:
    """One term: "+ name", "- name", or a signed coefficient and the name."""
    sign = "- " if coef < 0 else "+ "
    coef = abs(coef)
    return sign + name if coef == 1 else f"{sign}{_fmt_num(coef)} {name}"


def _block_text(block: _Block, lead: list[str], rest: list[str], tail_text: dict) -> str:
    """The LP lines of a block's rows.  The text of every term goes in one
    list of pieces, whose first piece stands before all rows: a row's name
    is put before its first term, which takes its `lead` text, and its tail
    after its last; a row without terms is appended to the piece before
    it."""
    ids = block.ids
    pieces = [""]
    pieces += map(rest.__getitem__, ids)
    end = 0
    for name, size, tail in zip(block.row_names(), block.counts, block.tails):
        if size:
            pieces[end + 1] = f" {name}:{lead[ids[end]]}"
            end += size
            pieces[end] += tail_text[tail]
        else:
            pieces[end] += f" {name}: {tail_text[tail]}"
    return "".join(pieces)


def _lp_parts(m: LinearModel):
    """The LP text in order: each block of rows as one string, and every
    other line on its own."""
    texts = [_pair_text(*pair) for pair in m._pairs]
    # a row's first term drops a leading "+ "; the others follow a space
    lead = [" " + (text[2:] if text.startswith("+ ") else text) for text in texts]
    rest = [" " + text for text in texts]
    tail_text = {tail: f" {tail[0]} {_fmt_num(tail[1])}\n" for tail in m._tails}
    objective = " ".join(_pair_text(*pair) for pair in m.objective_terms)
    objective = objective[2:] if objective.startswith("+ ") else objective

    yield f"\\ Problem: {m.name}\n"
    yield "Maximize\n" if m.objective_sense == MAXIMIZE else "Minimize\n"
    yield f" obj: {objective}".rstrip() + "\n"
    yield "Subject To\n"
    for block in m._blocks:
        yield _block_text(block, lead, rest, tail_text)
    bounded = [v for v in m.variables if v.kind in (INTEGER, CONTINUOUS)]
    if bounded:
        yield "Bounds\n"
        for v in bounded:
            lb = "-inf" if v.lb is None else _fmt_num(v.lb)
            ub = "+inf" if v.ub is None else _fmt_num(v.ub)
            yield f" {lb} <= {v.name} <= {ub}\n"
    for header, kind in (("Binaries\n", BINARY), ("Generals\n", INTEGER)):
        names = [v.name for v in m.variables if v.kind == kind]
        if names:
            yield header
            for start in range(0, len(names), 8):
                yield " " + " ".join(names[start:start + 8]) + "\n"
    yield "End\n"


def write_lp(m: LinearModel) -> str:
    """Emit the model as deterministic CPLEX-LP-format text.

    The text of each stored `(coef, name)` pair and `(sense, rhs)` tail is
    made once per call, and each block of rows is emitted as one string
    made from its pair ids, so at its peak the call holds the finished
    strings, one block's pieces and the final text, not a string per line
    besides the final text.
    """
    return "".join(_lp_parts(m))


def _round_integral(var: Variable, value: Fraction, strict: bool):
    """An integral value as an int; for integer kinds within tolerance of an
    integer, that integer; otherwise the Fraction itself (or an error)."""
    if value.denominator == 1:
        return value.numerator
    if var.kind == CONTINUOUS:
        return value
    nearest = round(value)
    if abs(value - nearest) <= INTEGRALITY_TOLERANCE:
        return nearest
    if strict:
        raise NonIntegralValueError(
            f"value {value} for {var.kind} variable {var.name!r} is not "
            f"integral within tolerance {float(INTEGRALITY_TOLERANCE)}")
    return value


def read_solution(m: LinearModel, text: str):
    """Parse solver output lines into an assignment over all model variables.

    Accepts `name value` and `name = value` lines, `#` comments, and skips
    `=obj=`-style metadata lines.  A value with non-ASCII digits or `_`
    digit grouping is rejected, as in the `.dag` and `.part` formats.
    Missing variables default to 0; unknown names are collected as warnings
    rather than failing.

    Returns (assignment dict, warnings list).
    """
    assignment = {v.name: 0 for v in m.variables}
    warnings: list[str] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("="):
            continue
        tokens = line.replace("=", " ").split()
        if len(tokens) != 2:
            raise SolutionParseError(f"expected '<name> <value>', got {raw!r}",
                                     line_no)
        name, value_text = tokens
        if not value_text.isascii() or "_" in value_text:
            raise SolutionParseError(f"bad numeric value {value_text!r}", line_no)
        try:
            value = int(value_text)
        except ValueError:
            try:
                value = Fraction(value_text)
            except (ValueError, ZeroDivisionError):
                raise SolutionParseError(f"bad numeric value {value_text!r}", line_no)
        if name not in assignment:
            warnings.append(f"line {line_no}: unknown variable {name!r} ignored")
            continue
        if type(value) is not int:
            value = _round_integral(m.var(name), value, strict=True)
        assignment[name] = value
    return assignment, warnings


def _failed_rows(m: LinearModel, values: dict):
    """The message of each row that `values` violates, in row order.

    Each pair's product is made once, and a row's lhs is the difference of
    two prefix sums of its block's products, taken at the row's ends; a
    row's name is read only for a violation."""
    products = [coef * values[name] for coef, name in m._pairs]
    for block in m._blocks:
        sums = list(accumulate(map(products.__getitem__, block.ids), initial=0))
        at = list(map(sums.__getitem__, accumulate(block.counts, initial=0)))
        for r, lhs, (sense, rhs) in zip(count(), map(sub, at[1:], at), block.tails):
            if not (lhs <= rhs if sense == "<=" else
                    lhs >= rhs if sense == ">=" else lhs == rhs):
                yield f"{block.row_name(r)}: {lhs} {sense} {rhs} fails"


def evaluate(m: LinearModel, assignment, early_exit: bool = False) -> EvalResult:
    """Check all constraints and domains exactly; report objective value.

    Integer-domain values within tolerance of an integer are rounded first.
    Integral values are kept as ints and the rest as Fractions, so every
    sum is exact: each row's lhs is the difference of two prefix sums of its
    block's pair products.  With early_exit=True the scan stops at the first
    violation.
    """
    values: dict[str, int | Fraction] = {}
    violations: list[str] = []
    for var in m.variables:
        value = assignment.get(var.name, 0)
        if type(value) is not int:
            value = _round_integral(var, Fraction(value), strict=False)
        values[var.name] = value
    for var in m.variables:
        value = values[var.name]
        if var.kind in (BINARY, INTEGER) and value.denominator != 1:
            violations.append(f"domain: {var.name} = {value} not integral")
        elif (var.lb is not None and value < var.lb) or \
                (var.ub is not None and value > var.ub):
            violations.append(f"domain: {var.name} = {value} outside "
                              f"[{var.lb}, {var.ub}]")
        if violations and early_exit:
            break
    if not (violations and early_exit):
        failed = _failed_rows(m, values)
        violations += islice(failed, 1) if early_exit else failed
    objective = sum(coef * values[name] for coef, name in m.objective_terms)
    return EvalResult(not violations, tuple(violations), objective)
