import itertools
import random
import tracemalloc
from collections.abc import Sequence
from fractions import Fraction

import pytest

from dagpart import LinearModel, evaluate, read_solution, write_lp
from dagpart import BuildOptions, build_formulation, build_proposed, build_undirected
from dagpart.errors import (NonIntegralValueError, SolutionParseError,
                            UnrepresentableCoefficientError)
from dagpart.model import Constraint, _round_integral

from conftest import chain, random_dag

GOLDEN_PROPOSED_CHAIN3 = """\\ Problem: proposed
Minimize
 obj: z_0_1 + z_1_2
Subject To
 onepart_0: x_0_0 + x_0_1 = 1
 onepart_1: x_1_0 + x_1_1 = 1
 onepart_2: x_2_0 + x_2_1 = 1
 balance_0: x_0_0 + x_1_0 + x_2_0 <= 2
 balance_1: x_0_1 + x_1_1 + x_2_1 <= 2
 cutmark_0_1_0: x_1_0 - x_0_0 - z_0_1 <= 0
 cutmark_0_1_1: x_1_1 - x_0_1 - z_0_1 <= 0
 cutmark_1_2_0: x_2_0 - x_1_0 - z_1_2 <= 0
 cutmark_1_2_1: x_2_1 - x_1_1 - z_1_2 <= 0
 induced_0_1_0_1: x_0_0 + x_1_1 - y_0_1 <= 1
 induced_0_1_1_0: x_0_1 + x_1_0 - y_1_0 <= 1
 induced_1_2_0_1: x_1_0 + x_2_1 - y_0_1 <= 1
 induced_1_2_1_0: x_1_1 + x_2_0 - y_1_0 <= 1
 lowertri_1_0: y_1_0 = 0
Binaries
 x_0_0 x_0_1 x_1_0 x_1_1 x_2_0 x_2_1 z_0_1 z_1_2
 y_0_1 y_1_0
End
"""

GOLDEN_UNDIRECTED_CHAIN3 = """\\ Problem: undirected
Minimize
 obj: z_0_1 + z_1_2
Subject To
 onepart_0: x_0_0 + x_0_1 = 1
 onepart_1: x_1_0 + x_1_1 = 1
 onepart_2: x_2_0 + x_2_1 = 1
 balance_0: x_0_0 + x_1_0 + x_2_0 <= 2
 balance_1: x_0_1 + x_1_1 + x_2_1 <= 2
 cut_0_1_0_lo: x_0_0 - x_1_0 - z_0_1 <= 0
 cut_0_1_0_hi: x_1_0 - x_0_0 - z_0_1 <= 0
 cut_0_1_1_lo: x_0_1 - x_1_1 - z_0_1 <= 0
 cut_0_1_1_hi: x_1_1 - x_0_1 - z_0_1 <= 0
 cut_1_2_0_lo: x_1_0 - x_2_0 - z_1_2 <= 0
 cut_1_2_0_hi: x_2_0 - x_1_0 - z_1_2 <= 0
 cut_1_2_1_lo: x_1_1 - x_2_1 - z_1_2 <= 0
 cut_1_2_1_hi: x_2_1 - x_1_1 - z_1_2 <= 0
Binaries
 x_0_0 x_0_1 x_1_0 x_1_1 x_2_0 x_2_1 z_0_1 z_1_2
End
"""


def test_golden_lp_proposed():
    g = chain(3)
    assert write_lp(build_proposed(g, BuildOptions(k=2))) == GOLDEN_PROPOSED_CHAIN3


def test_golden_lp_undirected():
    g = chain(3)
    assert write_lp(build_undirected(g, BuildOptions(k=2))) == GOLDEN_UNDIRECTED_CHAIN3


def test_write_lp_peak_memory_is_bounded_by_its_output():
    # the largest hash-pinned model; write_lp joins its lines in blocks, so
    # it never holds every line string beside the final text
    g = random_dag(random.Random(30), 30, p=0.25)
    m = build_formulation("nossack", g, BuildOptions(k=3, eps=Fraction(1, 10)))
    tracemalloc.start()
    try:
        text = write_lp(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text), peak / len(text)


@pytest.mark.parametrize("name, bound", [
    ("nossack", 150),
    # its topo and acyc2 rows join slices of the x id tuples; it reads about
    # 123 B per row, and the bound is below the 173 B that a row storing a
    # fresh int for every id above the small-int cache takes
    ("albareda-final", 165),
], ids=["nossack", "albareda-final"])
def test_stored_rows_are_compact(name, bound):
    # the largest hash-pinned graph; a row is stored as a run of pair ids, a
    # term count, a shared (sense, rhs) tail and its name's characters in a
    # block, with no string or tuple of its own once its block is full
    g = random_dag(random.Random(30), 30, p=0.25)
    tracemalloc.start()
    try:
        m = build_formulation(name, g, BuildOptions(k=3, eps=Fraction(1, 10)))
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size <= bound * len(m.constraints), size / len(m.constraints)


def test_lp_byte_stability():
    g = chain(3)
    texts = {write_lp(build_proposed(g, BuildOptions(k=2))) for _ in range(3)}
    assert len(texts) == 1


def test_duplicate_variable_rejected():
    m = LinearModel("t")
    m.add_binary("a")
    with pytest.raises(ValueError):
        m.add_binary("a")


def test_unknown_variable_in_constraint_rejected():
    m = LinearModel("t")
    m.add_binary("a")
    with pytest.raises(ValueError):
        m.add_constraint("c", [(1, "b")], "<=", 1)
    with pytest.raises(ValueError):
        m.set_objective("min", [(1, "b")])


def test_integer_variables_emit_bounds_and_generals():
    m = LinearModel("t")
    m.add_integer("pi_0", 0, 3)
    m.set_objective("min", [(1, "pi_0")])
    text = write_lp(m)
    assert "Bounds\n 0 <= pi_0 <= 3\n" in text
    assert "Generals\n pi_0\nEnd" in text


def _toy_model():
    m = LinearModel("toy")
    m.add_binary("a")
    m.add_binary("b")
    m.add_constraint("both", [(1, "a"), (1, "b")], "<=", 1)
    m.set_objective("min", [(1, "a"), (2, "b")])
    return m


def test_read_solution_forms():
    m = _toy_model()
    text = "# comment\n=obj= 3\na 1\nb = 0.0000004\nghost 1\n"
    assignment, warnings = read_solution(m, text)
    assert assignment["a"] == 1
    assert assignment["b"] == 0          # within integrality tolerance
    assert len(warnings) == 1 and "ghost" in warnings[0]


def test_read_solution_defaults_missing_to_zero():
    m = _toy_model()
    assignment, _ = read_solution(m, "a 1\n")
    assert assignment["b"] == 0


def test_read_solution_rejects_noise():
    m = _toy_model()
    with pytest.raises(SolutionParseError):
        read_solution(m, "a 1 extra\n")
    with pytest.raises(SolutionParseError):
        read_solution(m, "a zero\n")
    with pytest.raises(NonIntegralValueError):
        read_solution(m, "a 0.5\n")
    # the numerals that .dag and .part files reject: '_' digit grouping and
    # non-ASCII digits, which int and Fraction would read as 1, 10 and 1
    for value in ("0_1", "1_0", "\uff11", "1_0/1", "1/\u0661"):
        with pytest.raises(SolutionParseError, match="bad numeric value"):
            read_solution(m, f"a {value}\n")


def test_evaluate_exact():
    m = _toy_model()
    res = evaluate(m, {"a": 1, "b": 0})
    assert res.feasible and res.objective == 1
    res = evaluate(m, {"a": 1, "b": 1})
    assert not res.feasible
    assert any("both" in v for v in res.violations)


def test_evaluate_domain_checks():
    m = _toy_model()
    res = evaluate(m, {"a": 2, "b": 0})
    assert not res.feasible
    assert any("domain" in v for v in res.violations)
    res = evaluate(m, {"a": Fraction(1, 2), "b": 0})
    assert not res.feasible


def test_evaluate_early_exit():
    m = _toy_model()
    res = evaluate(m, {"a": 2, "b": 2}, early_exit=True)
    assert not res.feasible
    assert len(res.violations) == 1


def _tenths_model(coef, sense, rhs):
    m = LinearModel("tenths")
    names = [m.add_binary(f"b{i}") for i in range(10)]
    m.add_constraint("sum", [(coef, name) for name in names], sense, rhs)
    m.set_objective("max", [(coef, name) for name in names])
    return m, {name: 1 for name in names}


def test_evaluate_exact_with_fraction_coefficients():
    # ten times 1/10 is exactly 1; in floats it is 0.9999999999999999
    m, ones = _tenths_model(Fraction(1, 10), "=", 1)
    res = evaluate(m, ones)
    assert res.feasible and res.objective == 1


def test_evaluate_exact_with_float_coefficients():
    # a float coefficient means its exact binary value, which is not 1/10
    m, ones = _tenths_model(0.1, "=", 1)
    res = evaluate(m, ones)
    assert not res.feasible
    assert res.objective == 10 * Fraction(0.1) != 1
    m, ones = _tenths_model(0.1, "<=", 10 * Fraction(0.1))
    assert evaluate(m, ones).feasible


def test_evaluate_fractional_continuous_values():
    m = LinearModel("cont")
    m.add_continuous("c", 0, 1)
    m.add_binary("b")
    m.add_constraint("third", [(3, "c"), (-1, "b")], "=", 0)
    m.set_objective("min", [(Fraction(1, 2), "c"), (1, "b")])
    res = evaluate(m, {"c": Fraction(1, 3), "b": 1})
    assert res.feasible
    assert res.objective == Fraction(1, 6) + 1
    # a float value is its exact binary value: 3 * 0.1 is not 0.3
    res = evaluate(m, {"c": 0.1, "b": Fraction(3, 10)})
    assert not res.feasible
    assert any("third" in v for v in res.violations)


def test_evaluate_binary_at_one_half_is_domain_violation():
    m = _toy_model()
    for half in (Fraction(1, 2), 0.5):
        res = evaluate(m, {"a": half, "b": 0})
        assert not res.feasible
        assert any(v.startswith("domain: a = 1/2 not integral") for v in res.violations)


def test_evaluate_rounds_integer_values_within_tolerance():
    m = _toy_model()
    res = evaluate(m, {"a": Fraction(1) - Fraction(1, 10**7), "b": 1e-9})
    assert res.feasible and res.objective == 1


def test_write_lp_formats_fraction_and_float_coefficients():
    m = LinearModel("fmt")
    m.add_binary("a")
    m.add_binary("b")
    m.add_constraint("c", [(Fraction(1, 2), "a"), (-2.0, "b"), (Fraction(4, 2), "a")],
                     "<=", Fraction(3, 4))
    m.set_objective("min", [(-1, "a"), (0.25, "b")])
    text = write_lp(m)
    assert " obj: - a + 0.25 b\n" in text
    assert " c: 0.5 a - 2 b + 2 a <= 0.75\n" in text


def test_write_lp_term_edge_cases():
    # a pair's text does not depend on where it stands in a row, except that
    # a leading "+ " is dropped
    m = _two_vars()
    m.add_constraint("zero", [(1, "a"), (0, "b")], "<=", 1)
    m.add_constraint("zerofirst", [(0, "b"), (1, "a")], "<=", 1)
    m.add_constraint("minus", [(1, "a"), (-1, "b")], "<=", 0)
    m.add_constraint("negfrac", [(Fraction(-1, 2), "a"), (-1, "b")], ">=", -1)
    m.add_constraint("negfloat", [(-0.5, "b"), (Fraction(-1, 2), "a")], ">=", -1)
    text = write_lp(m)
    assert text.startswith("\\ Problem: bad\nMinimize\n obj:\nSubject To\n")
    assert " zero: a + 0 b <= 1\n" in text
    assert " zerofirst: 0 b + a <= 1\n" in text
    assert " minus: a - b <= 0\n" in text
    assert " negfrac: - 0.5 a - b >= -1\n" in text
    assert " negfloat: - 0.5 b - 0.5 a >= -1\n" in text


# -- unrepresentable coefficients ---------------------------------------------

NON_FINITE = [float("inf"), float("-inf"), float("nan")]
# a non-integral Fraction whose float overflows, so write_lp could not print it
OVERFLOWING = Fraction(10**400, 3)
# non-zero Fractions whose floats underflow to 0.0, so write_lp would print
# 0.0 and state a different model from the one evaluate checks
UNDERFLOWING = [Fraction(1, 10**400), Fraction(-1, 10**400)]


def _two_vars():
    m = LinearModel("bad")
    m.add_binary("a")
    m.add_binary("b")
    return m


def _stored(m):
    """Copies of all that adding a row can change: pairs, tails and rows."""
    return list(m._pairs), dict(m._pair_ids), list(m._tails), list(m.constraints)


@pytest.mark.parametrize("bad", NON_FINITE + [OVERFLOWING] + UNDERFLOWING)
@pytest.mark.parametrize("place", ["first term", "last term", "rhs", "objective",
                                   "first term in a batch", "last term in a batch",
                                   "rhs in a batch"])
def test_unrepresentable_coefficient_rejected(place, bad):
    m = _two_vars()
    rows = {"first term": ("c", [(bad, "a"), (1, "b")], "<=", 1),
            "last term": ("c", [(1, "a"), (Fraction(1, 2), "b"), (bad, "a")], "<=", 1),
            "rhs": ("c", [(1, "a"), (1, "b")], "<=", bad)}
    kept = Constraint("kept", ((1, "b"),), ">=", 0)
    after = iter([("after", [(1, "a")], "<=", 1)])
    before = _stored(m)
    with pytest.raises(UnrepresentableCoefficientError):
        if place in rows:
            m.add_constraint(*rows[place])
        elif place == "objective":
            m.set_objective("min", [(1, "a"), (bad, "b")])
        else:
            # a batch as the builders hand it over: each row's pairs and tail
            # are checked as the row is read
            bad_row = rows[place.removesuffix(" in a batch")]
            rows = itertools.chain([kept, bad_row], after)
            m._add_rows((name, m.pair_ids(terms, name), m.tail(sense, rhs, name))
                        for name, terms, sense, rhs in rows)
    # a rejected row adds no pair, tail or row; in a batch, the rows before
    # the bad one stay and the rows after it are not read
    if place.endswith("batch"):
        assert m.constraints == [kept]
    else:
        assert _stored(m) == before
    assert m.objective_terms == () and next(after)[0] == "after"


@pytest.mark.parametrize("bad", NON_FINITE + [OVERFLOWING] + UNDERFLOWING)
@pytest.mark.parametrize("side", ["lb", "ub"])
def test_unrepresentable_bound_rejected(side, bad):
    m = LinearModel("bad")
    bounds = {"lb": 0, "ub": 1, side: bad}
    with pytest.raises(UnrepresentableCoefficientError):
        m.add_continuous("c", bounds["lb"], bounds["ub"])
    with pytest.raises(UnrepresentableCoefficientError):
        m.add_integer("i", bounds["lb"], bounds["ub"])
    assert m.variables == []


def test_huge_integral_coefficients_are_kept_exactly():
    m = _two_vars()
    m.add_continuous("c", 0, Fraction(10**400, 1))
    m.add_constraint("c1", [(Fraction(10**400, 1), "a"), (1, "b")], "<=", 10**400)
    assert m.constraints[0].terms[0][0] == 10**400
    text = write_lp(m)
    assert f" c1: {10**400} a + b <= {10**400}\n" in text
    assert f" 0 <= c <= {10**400}\n" in text


# -- stored terms ----------------------------------------------------------------

UNKNOWN_ROWS = [
    [(1, "zz")],
    [(1, "a"), (1, "zz")],
    [(1, "a"), (1, "b"), (-1, "zz")],
    [(Fraction(1, 2), "a"), (1, "zz")],
    [(0.5, "a"), (1, "b"), (1, "zz")],
    [(1, "a"), (2.0, "b"), (3, "zz"), (1, "a")],
    [[1, "a"], [1, "zz"]],
]


@pytest.mark.parametrize("terms", UNKNOWN_ROWS)
def test_unknown_name_rejected_at_any_position(terms):
    # in a new model, then in one that already stores the row's other pairs
    m = _two_vars()
    for known in ([], [pair for pair in terms if pair[1] != "zz"]):
        m.pair_ids(known)
        before = _stored(m)
        for add_terms in (lambda: m.add_constraint("c", terms, "<=", 1),
                          lambda: m.pair_ids(terms, "c")):
            with pytest.raises(ValueError,
                               match="constraint 'c' references unknown variable 'zz'"):
                add_terms()
        with pytest.raises(ValueError, match="objective references unknown variable 'zz'"):
            m.set_objective("min", terms)
        assert _stored(m) == before and m.objective_terms == ()


def _raises_exactly(cls, message, add_row):
    with pytest.raises(cls) as excinfo:
        add_row()
    assert excinfo.type is cls and str(excinfo.value) == message
    assert excinfo.value.__context__ is None


def test_row_errors_keep_their_class_message_and_order():
    # a row's name is checked first, then its sense, the names of its terms
    # before any coefficient, also in rows whose other pairs are already
    # stored, and its rhs last; pair_ids and tail raise as add_constraint
    # does, and a rejected row adds no pair, tail or row
    m = _two_vars()
    m.add_constraint("ok", [(1, "a"), (2, "b")], "<=", 1)
    m.set_objective("min", [(1, "a")])
    nan, inf = float("nan"), float("inf")
    before = _stored(m)

    for terms in ([(nan, "a"), (1, "zz")], [(1, "a"), (nan, "zz")],
                  [(1, "a"), (2, "b"), (inf, "a"), (1, "zz")]):
        for add_terms in (lambda: m.add_constraint("c", terms, "<=", nan),
                          lambda: m.pair_ids(terms, "c")):
            _raises_exactly(ValueError, "constraint 'c' references unknown variable 'zz'",
                            add_terms)
        _raises_exactly(ValueError, "objective references unknown variable 'zz'",
                        lambda: m.set_objective("max", terms))
    for terms in ([(1, "a"), (nan, "b")], [(inf, "a"), (2, "b")]):
        for add_terms in (lambda: m.add_constraint("c", terms, "<=", nan),
                          lambda: m.pair_ids(terms, "c")):
            _raises_exactly(UnrepresentableCoefficientError, "non-finite coefficient in c",
                            add_terms)
        _raises_exactly(UnrepresentableCoefficientError, "non-finite coefficient in objective",
                        lambda: m.set_objective("max", terms))
    # a bad rhs after good new pairs: the pairs are not stored
    for add_tail in (lambda: m.add_constraint("c", [(3, "a"), (4, "b")], "<=", inf),
                     lambda: m.tail("<=", inf, "c")):
        _raises_exactly(UnrepresentableCoefficientError, "non-finite coefficient in c",
                        add_tail)
    for add_tail in (lambda: m.add_constraint("c", [(1, "zz")], "<", nan),
                     lambda: m.tail("<", nan, "c")):
        _raises_exactly(ValueError, "bad sense '<'", add_tail)
    for add_row in (lambda: m.add_constraint(7, [(1, "zz")], "<", nan),
                    lambda: m._add_rows([(7, (), m.tail("<=", 1))])):
        _raises_exactly(TypeError, "constraint name 7 is not a str", add_row)
    assert _stored(m) == before
    assert m.objective_terms == ((1, "a"),) and m.objective_sense == "min"


def test_terms_stored_as_tuple_of_pairs():
    m = _two_vars()
    m.add_constraint("gen", ((c, n) for c, n in [(1, "a"), (-1, "b")]), "<=", 0)
    m.add_constraint("lists", [[1, "a"], [-1, "b"]], "<=", 0)
    m.set_objective("min", ([c, n] for c, n in [(2, "a"), (3, "b")]))
    for terms in [con.terms for con in m.constraints] + [m.objective_terms]:
        assert type(terms) is tuple
        assert all(type(pair) is tuple and len(pair) == 2 for pair in terms)
    assert m.constraints[0].terms == m.constraints[1].terms == ((1, "a"), (-1, "b"))
    assert m.objective_terms == ((2, "a"), (3, "b"))


def test_all_integer_terms_keep_the_callers_pairs():
    m = _two_vars()
    pairs = [(1, "a"), (-3, "b")]
    m.add_constraint("c", pairs, "<=", 0)
    assert all(stored is given for stored, given in zip(m.constraints[0].terms, pairs))


@pytest.mark.parametrize("first, later, stored_type", [
    (2, 2.0, int), (0.5, Fraction(1, 2), Fraction), (2, Fraction(2), int),
])
def test_equal_pairs_resolve_to_the_first_stored(first, later, stored_type):
    m = _two_vars()
    m.add_constraint("c1", [(first, "a"), (1, "b")], "<=", 3)
    m.add_constraint("c2", [(1, "b"), (later, "a")], "<=", 3)
    m.add_constraint("c3", [[later, "a"], [1, "b"]], "<=", 3)
    m.set_objective("min", [(later, "a")])
    (a, b), (b2, a2), (a3, b3) = (con.terms for con in m.constraints)
    assert a == (first, "a") and type(a[0]) is stored_type
    assert a2 is a and a3 is a and m.objective_terms[0] is a
    assert b2 is b and b3 is b
    # pair_ids and tail map equal pairs and tails to the stored ones too
    m._add_rows(iter([("c4", m.pair_ids([(later, "a")]), m.tail(">=", first)),
                      ("c5", m.pair_ids(((later, "a"),)), m.tail(">=", later))]))
    (a4,), (a5,) = (con.terms for con in m.constraints[3:])
    assert a4 is a and a5 is a
    assert m.constraints[4].rhs is m.constraints[3].rhs == first
    assert type(m.constraints[4].rhs) is stored_type


def test_failed_rows_share_no_pairs():
    # built at run time: equal tuple literals may be one constant object
    failed, given = tuple([3, "a"]), tuple([3, "a"])
    m = _two_vars()
    with pytest.raises(UnrepresentableCoefficientError):
        m.add_constraint("bad", [failed, (float("inf"), "b")], "<=", 1)
    m.add_constraint("c", [given], "<=", 1)
    m.add_constraint("d", [(3.0, "a")], "<=", 1)
    assert [con.name for con in m.constraints] == ["c", "d"]
    assert m.constraints[0].terms[0] is given and m.constraints[1].terms[0] is given


@pytest.mark.parametrize("given, stored", [
    (Fraction(4, 2), 2), (2.0, 2), (True, 1), (-0.0, 0),
    (Fraction(1, 2), Fraction(1, 2)), (0.25, Fraction(1, 4)),
])
def test_coefficients_normalised_once(given, stored):
    m = _two_vars()
    m.add_constraint("c", [(1, "a"), (given, "b")], "<=", given)
    m.set_objective("min", [(given, "a")])
    (_, (coef, _)), rhs = m.constraints[0].terms, m.constraints[0].rhs
    (obj, _), = m.objective_terms
    for value in (coef, rhs, obj):
        assert value == stored and type(value) is type(stored)


def test_constraint_is_immutable_and_unpacks():
    m = _two_vars()
    m.add_constraint("c", [(1, "a"), (1, "b")], ">=", 1)
    con = m.constraints[0]
    with pytest.raises(AttributeError):
        con.rhs = 2
    name, terms, sense, rhs = con
    assert (name, terms, sense, rhs) == ("c", ((1, "a"), (1, "b")), ">=", 1)
    assert (con.name, con.terms, con.sense, con.rhs) == (name, terms, sense, rhs)


def test_constraints_is_a_read_only_sequence_of_constraints():
    m = _two_vars()
    m.add_constraint("c1", [(1, "a")], "<=", 1)
    m.add_constraint("c2", [(1, "b")], ">=", Fraction(1, 2))
    m.add_constraint("c3", [(1, "a"), (1, "b")], "<=", 1.0)
    rows = [Constraint("c1", ((1, "a"),), "<=", 1),
            Constraint("c2", ((1, "b"),), ">=", Fraction(1, 2)),
            Constraint("c3", ((1, "a"), (1, "b")), "<=", 1)]
    view = m.constraints
    assert isinstance(view, Sequence) and len(view) == 3
    assert view[-1] == rows[-1] and view[1:] == rows[1:] and type(view[1:]) is list
    assert all(type(con) is Constraint for con in view)
    assert view == rows and not view != rows and view != rows[:2]
    assert LinearModel().constraints == []
    with pytest.raises(IndexError):
        view[3]
    # rows with equal (sense, rhs) share one tail, however the rhs was given
    m.add_constraint("c4", [(1, "a")], "<=", 10**20)
    m.add_constraint("c5", [(1, "b")], "<=", 1e20)
    assert view[4].rhs is view[3].rhs == 10**20


def test_rows_enter_only_through_add_constraint():
    # an unchecked row could name a variable the model lacks, and write_lp
    # and evaluate would then fail on it with a bare KeyError
    m = _toy_model()
    ghost = Constraint("g", ((1, "ghost"),), "<=", 1)
    with pytest.raises(AttributeError):
        m.constraints.append(ghost)
    with pytest.raises(AttributeError):
        m.constraints = [ghost]
    with pytest.raises(TypeError):
        m.constraints[0] = ghost
    with pytest.raises(TypeError):
        m.constraints += [ghost]
    assert [con.name for con in m.constraints] == ["both"]
    assert " both: a + b <= 1\n" in write_lp(m)
    assert evaluate(m, {"a": 1, "b": 0}).feasible


# -- evaluate against a sum() reference -----------------------------------------

def _reference_evaluate(m, assignment, early_exit=False):
    """evaluate as written with sum() over each row."""
    values = {}
    violations = []
    for var in m.variables:
        value = assignment.get(var.name, 0)
        if type(value) is not int:
            value = _round_integral(var, Fraction(value), strict=False)
        values[var.name] = value
    for var in m.variables:
        value = values[var.name]
        if var.kind in ("binary", "integer") and value.denominator != 1:
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
    return not violations, tuple(violations), objective


def _random_number(rng):
    return rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-9, 9), rng.randint(1, 4))])


def _random_value(rng, var):
    base = rng.randint(0, 1) if var.kind == "binary" else rng.randint(-1, 3)
    if var.kind == "continuous":
        return rng.choice([base, Fraction(rng.randint(-2, 12), 4), 0.75])
    if rng.random() < 0.05:
        return base + Fraction(1, 10**5)                # too far to round
    return rng.choice([
        base,
        base + Fraction(rng.choice([-1, 1]), 10**7),   # rounds to base
        base - 1e-9,                                    # rounds to base
    ])


def _random_model(rng):
    m = LinearModel("random")
    names = []
    for i in range(rng.randint(2, 6)):
        kind = rng.choice(["binary", "integer", "continuous"])
        if kind == "binary":
            names.append(m.add_binary(f"b{i}"))
        elif kind == "integer":
            names.append(m.add_integer(f"i{i}", -1, 3))
        else:
            names.append(m.add_continuous(f"c{i}", Fraction(-1, 2),
                                          rng.choice([None, 3, Fraction(7, 2)])))
    point = {name: _random_value(rng, m.var(name)) for name in names}
    for r in range(rng.randint(1, 6)):
        terms = [(_random_number(rng), rng.choice(names))
                 for _ in range(rng.randint(1, 4))]
        near = sum(Fraction(c) * Fraction(point[n]) for c, n in terms)
        sense = rng.choice(["<=", ">=", "="])
        slack = rng.choice([0, 0, 0, 1]) * (-1 if sense == ">=" else 1)
        m.add_constraint(f"r{r}", terms, sense, round(near) + slack)
    m.set_objective("min", [(_random_number(rng), n) for n in names])
    return m, point


@pytest.mark.parametrize("early_exit", [False, True])
def test_evaluate_matches_sum_reference(early_exit):
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(400):
        m, point = _random_model(rng)
        res = evaluate(m, point, early_exit=early_exit)
        assert (res.feasible, res.violations, res.objective) == \
            _reference_evaluate(m, point, early_exit)
        outcomes.add(res.feasible)
    assert outcomes == {True, False}
