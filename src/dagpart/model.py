"""Solver-agnostic MILP container with LP emission, solution ingestion, evaluation.

All arithmetic is exact and involves no floats.  Bounds and coefficients
are normalised once, when a variable, a constraint or the objective is
added, and values once, when a solution is read or evaluated: a number
that is integral is kept as a plain int, any other as a `Fraction` (a
float becomes the `Fraction` of its exact binary value).  A model stores
each distinct `(coef, name)` pair once: the first equal pair it checks is
kept and reused by every later row and the objective.  The rows are stored
as three columns, their names, their tuples of shared pairs and their
`(sense, rhs)` tails, each distinct tail likewise stored once; the
`constraints` attribute is a read-only sequence of immutable `Constraint`s
made from the columns on every read.  int and `Fraction` arithmetic mix
without rounding, so `evaluate` checks constraints exactly after
integrality rounding.

`write_lp` formats the text of each stored pair and tail once per call and
builds each row from that text.  It joins the lines in blocks of a few
thousand as they are made, so its peak memory is the finished blocks, one
block of line strings and the final text, about twice the text itself.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from operator import itemgetter
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


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    lb: Fraction | int | None = None
    ub: Fraction | int | None = None


class Constraint(NamedTuple):
    name: str
    terms: tuple  # ((coef, var_name), ...)
    sense: str    # "<=", ">=", "="
    rhs: Fraction | int


@dataclass(frozen=True)
class EvalResult:
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


class _Rows(Sequence):
    """A read-only view of a model's rows: every read makes `Constraint`s
    from the columns, and a slice is a list of them."""

    def __init__(self, m: LinearModel):
        self._columns = (m._row_names, m._row_terms, m._row_tails)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        names, terms, tails = self._columns
        return Constraint(names[i], terms[i], *tails[i])

    def __iter__(self):
        # tuple.__new__ skips Constraint's __new__, which is Python code
        names, terms, tails = self._columns
        rows = zip(names, terms, map(itemgetter(0), tails), map(itemgetter(1), tails))
        return map(tuple.__new__, repeat(Constraint), rows)

    def __eq__(self, other) -> bool:
        return list(self) == other

    def __repr__(self) -> str:
        return repr(list(self))


class LinearModel:
    """Variables with domains, linear constraints, and a linear objective.

    Variables and constraints are kept in declaration order, which fixes
    the byte layout of the emitted LP file.  A row is stored as its name,
    its tuple of shared pairs and its shared `(sense, rhs)` tail, in three
    parallel lists that only `add_constraint` appends to; `constraints`
    reads them as `Constraint`s.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self._index: dict[str, Variable] = {}
        self._row_names: list[str] = []
        self._row_terms: list[tuple] = []
        self._row_tails: list[tuple] = []
        self._shared: dict[tuple, tuple] = {}  # every checked pair, to itself
        self._tails: dict[tuple, tuple] = {}   # every stored tail, to itself
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
        """The rows in declaration order, as a read-only sequence."""
        return _Rows(self)

    def var(self, name: str) -> Variable:
        return self._index[name]

    def has_var(self, name: str) -> bool:
        return name in self._index

    def _checked_terms(self, terms, row: str | None) -> tuple:
        """The terms as a tuple of the model's shared `(coef, name)` pairs.
        A row whose pairs are all equal to pairs checked before maps to
        those; any other row goes through `_check_terms`, and the pairs it
        returns are shared from then on.  `row` is the constraint's name, or
        None for the objective."""
        terms = tuple(terms)
        shared = self._shared
        try:
            return tuple(map(shared.__getitem__, terms))
        except (KeyError, TypeError):  # a new pair, or an unhashable one
            pass
        checked = self._check_terms(terms, row)
        return tuple(map(shared.setdefault, checked, checked))

    def _check_terms(self, terms: tuple, row: str | None) -> tuple:
        """The terms as a tuple of `(coef, name)` pairs, in one pass that
        checks every name.  If every pair is a tuple with an int coefficient
        the pairs are kept as given; otherwise every coefficient is
        normalised by `_exact`."""
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

    def add_constraint(self, name: str, terms, sense: str, rhs) -> None:
        if sense not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {sense!r}")
        terms = self._checked_terms(terms, name)
        tail = (sense, rhs if type(rhs) is int else _exact(rhs, name))
        self._row_names.append(name)
        self._row_terms.append(terms)
        self._row_tails.append(self._tails.setdefault(tail, tail))

    def set_objective(self, sense: str, terms) -> None:
        if sense not in (MINIMIZE, MAXIMIZE):
            raise ValueError(f"bad objective sense {sense!r}")
        self.objective_terms = self._checked_terms(terms, None)
        self.objective_sense = sense


def _fmt_num(value) -> str:
    """An int or Fraction, as normalised when it was added to the model."""
    return str(value) if type(value) is int else repr(float(value))


def _pair_text(coef, name) -> str:
    """One term: "+ name", "- name", or a signed coefficient and the name."""
    sign = "- " if coef < 0 else "+ "
    coef = abs(coef)
    return sign + name if coef == 1 else f"{sign}{_fmt_num(coef)} {name}"


def _lp_lines(m: LinearModel):
    """The lines of the LP text, in order."""
    text_of = {pair: _pair_text(*pair) for pair in m._shared}.__getitem__
    tail_text = {tail: f" {tail[0]} {_fmt_num(tail[1])}\n" for tail in m._tails}

    def terms_text(terms):  # the leading "+ " is dropped
        text = " ".join(map(text_of, terms))
        return text[2:] if text.startswith("+ ") else text

    yield f"\\ Problem: {m.name}\n"
    yield "Maximize\n" if m.objective_sense == MAXIMIZE else "Minimize\n"
    yield f" obj: {terms_text(m.objective_terms)}".rstrip() + "\n"
    yield "Subject To\n"
    for name, terms, tail in zip(m._row_names, m._row_terms, m._row_tails):
        yield f" {name}: {terms_text(terms)}{tail_text[tail]}"
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

    The text of each distinct `(coef, name)` pair and `(sense, rhs)` tail
    the model stores is made once per call, and every row and the objective
    look theirs up in it.  The lines are joined in blocks of 4,096 as they
    are made, so at its peak the call holds the finished blocks, one block
    of line strings and the final text, not every line besides the final
    text.
    """
    lines = _lp_lines(m)
    blocks = []
    while block := "".join(islice(lines, 4096)):
        blocks.append(block)
    return "".join(blocks)


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
    `=obj=`-style metadata lines.  Missing variables default to 0; unknown
    names are collected as warnings rather than failing.

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


def evaluate(m: LinearModel, assignment, early_exit: bool = False) -> EvalResult:
    """Check all constraints and domains exactly; report objective value.

    Integer-domain values within tolerance of an integer are rounded first.
    Integral values are kept as ints and the rest as Fractions, so every
    sum below is exact.  With early_exit=True the scan stops at the first
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
        for name, terms, (sense, rhs) in zip(m._row_names, m._row_terms,
                                             m._row_tails):
            lhs = 0
            for coef, var_name in terms:
                lhs += coef * values[var_name]
            ok = (lhs <= rhs if sense == "<=" else
                  lhs >= rhs if sense == ">=" else lhs == rhs)
            if not ok:
                violations.append(f"{name}: {lhs} {sense} {rhs} fails")
                if early_exit:
                    break
    objective = sum(coef * values[name] for coef, name in m.objective_terms)
    return EvalResult(not violations, tuple(violations), objective)
