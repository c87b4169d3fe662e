from fractions import Fraction

import pytest

from dagpart import LinearModel, evaluate, read_solution, write_lp
from dagpart import BuildOptions, build_proposed, build_undirected
from dagpart.errors import NonIntegralValueError, SolutionParseError

from conftest import chain

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
