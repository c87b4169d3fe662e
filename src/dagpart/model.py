"""Solver-agnostic MILP container with LP emission, solution ingestion, evaluation.

All arithmetic is exact and involves no floats.  Bounds and coefficients
are normalised once, when a variable, a constraint or the objective is
added, and values once, when a solution is read or evaluated: a number
that is integral is kept as a plain int, any other as a `Fraction` (a
float becomes the `Fraction` of its exact binary value).  int and
`Fraction` arithmetic mix without rounding, so `evaluate` checks
constraints exactly after integrality rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class Constraint:
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
    """A finite number as an int if it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise UnrepresentableCoefficientError(f"non-finite coefficient in {where}")
    frac = Fraction(value)
    return frac.numerator if frac.denominator == 1 else frac


class LinearModel:
    """Variables with domains, linear constraints, and a linear objective.

    Variables and constraints are kept in declaration order, which fixes
    the byte layout of the emitted LP file.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self._index: dict[str, Variable] = {}
        self.constraints: list[Constraint] = []
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

    def var(self, name: str) -> Variable:
        return self._index[name]

    def has_var(self, name: str) -> bool:
        return name in self._index

    def add_constraint(self, name: str, terms, sense: str, rhs) -> None:
        if sense not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {sense!r}")
        checked = []
        for coef, var_name in terms:
            if var_name not in self._index:
                raise ValueError(f"constraint {name!r} references unknown "
                                 f"variable {var_name!r}")
            checked.append((_exact(coef, name), var_name))
        self.constraints.append(Constraint(name, tuple(checked), sense,
                                           _exact(rhs, name)))

    def set_objective(self, sense: str, terms) -> None:
        if sense not in (MINIMIZE, MAXIMIZE):
            raise ValueError(f"bad objective sense {sense!r}")
        checked = []
        for coef, var_name in terms:
            if var_name not in self._index:
                raise ValueError(f"objective references unknown variable {var_name!r}")
            checked.append((_exact(coef, "objective"), var_name))
        self.objective_sense = sense
        self.objective_terms = tuple(checked)


def _fmt_num(value) -> str:
    """An int or Fraction, as normalised when it was added to the model."""
    return str(value) if type(value) is int else repr(float(value))


def _fmt_terms(terms) -> str:
    """Signed terms; coefficients are already ints or Fractions."""
    pieces = []
    for coef, name in terms:
        if coef < 0:
            sign, coef = "- ", -coef
        else:
            sign = "+ "
        pieces.append(sign + name if coef == 1 else f"{sign}{_fmt_num(coef)} {name}")
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else text


def write_lp(m: LinearModel) -> str:
    """Emit the model as deterministic CPLEX-LP-format text."""
    lines = [f"\\ Problem: {m.name}"]
    lines.append("Maximize" if m.objective_sense == MAXIMIZE else "Minimize")
    lines.append(f" obj: {_fmt_terms(m.objective_terms)}".rstrip())
    lines.append("Subject To")
    for con in m.constraints:
        lines.append(f" {con.name}: {_fmt_terms(con.terms)} {con.sense} "
                     f"{_fmt_num(con.rhs)}")
    bounded = [v for v in m.variables if v.kind in (INTEGER, CONTINUOUS)]
    if bounded:
        lines.append("Bounds")
        for v in bounded:
            lb = "-inf" if v.lb is None else _fmt_num(v.lb)
            ub = "+inf" if v.ub is None else _fmt_num(v.ub)
            lines.append(f" {lb} <= {v.name} <= {ub}")
    binaries = [v.name for v in m.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        for start in range(0, len(binaries), 8):
            lines.append(" " + " ".join(binaries[start:start + 8]))
    generals = [v.name for v in m.variables if v.kind == INTEGER]
    if generals:
        lines.append("Generals")
        for start in range(0, len(generals), 8):
            lines.append(" " + " ".join(generals[start:start + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"


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
        for con in m.constraints:
            lhs = sum(coef * values[name] for coef, name in con.terms)
            ok = (lhs <= con.rhs if con.sense == "<=" else
                  lhs >= con.rhs if con.sense == ">=" else lhs == con.rhs)
            if not ok:
                violations.append(f"{con.name}: {lhs} {con.sense} {con.rhs} fails")
                if early_exit:
                    break
    objective = sum(coef * values[name] for coef, name in m.objective_terms)
    return EvalResult(not violations, tuple(violations), objective)
