from fractions import Fraction

import pytest

from dagpart import (
    Dag,
    Partition,
    balance_bound,
    edge_cut,
    is_acyclic_partition,
    partition_from_text,
    partition_to_text,
    renumber_topologically,
    validate,
)
from dagpart.errors import InvalidKError, PartitionParseError
from dagpart.partition import to_fraction

from conftest import chain, diamond, fig1_graph


def test_to_fraction_exact():
    assert to_fraction("1/3") == Fraction(1, 3)
    assert to_fraction(Fraction(2, 7)) == Fraction(2, 7)
    assert to_fraction(0.3) == Fraction(3, 10)
    assert to_fraction(0) == Fraction(0)


def test_partition_validation():
    with pytest.raises(InvalidKError):
        Partition((0,), 0)
    with pytest.raises(ValueError):
        Partition((0, 2), 2)
    p = Partition((0, 1, 0), 2)
    assert p.parts() == [[0, 2], [1]]
    p = Partition((1.0, Fraction(0), True), 2)
    assert p.assignment == (1, 0, 1) and all(type(a) is int for a in p.assignment)


def test_partition_rejects_non_integral_part_ids():
    # as Dag does for a weight: no id is rounded or parsed, and the error
    # names the vertex
    for assignment, vertex in (((0, 1.5), 1), (("1", 0), 0), ((0, 1, Fraction(1, 2)), 2)):
        with pytest.raises(ValueError, match=f"non-integral part id .* at vertex {vertex}$"):
            Partition(assignment, 2)


@pytest.mark.parametrize("weights,k,eps,expected", [
    ([1, 1, 1, 1], 2, 0, 2),
    ([1, 1, 1, 1, 1], 2, 0, 3),
    ([1, 1, 1, 1], 3, "3/10", 2),      # ceil(4/3)=2, 1.3*2=2.6 -> 2
    ([2, 2, 2], 2, "1/2", 4),          # ceil(6/2)=3, 1.5*3=4.5 -> 4
    ([1, 1, 1, 1], 2, 0.3, 2),
])
def test_balance_bound(weights, k, eps, expected):
    g = Dag(weights, [])
    assert balance_bound(g, k, eps) == expected


def test_balance_bound_rejects_negative_eps():
    g = Dag([1, 1, 1, 1], [])
    for eps in (-1, "-3/2", Fraction(-1, 10), -0.5):
        with pytest.raises(ValueError):
            balance_bound(g, 2, eps)


def test_edge_cut():
    g = diamond()
    assert edge_cut(g, Partition((0, 0, 1, 1), 2)) == 2
    assert edge_cut(g, Partition((0, 0, 0, 0), 1)) == 0
    assert edge_cut(g, Partition((0, 1, 1, 1), 2)) == 2


def test_fig1_cyclic_vs_acyclic():
    g = fig1_graph()
    blue_red = Partition((0, 1, 0, 1), 2)   # blue={a,c}, red={b,d}
    assert not is_acyclic_partition(g, blue_red)
    alternative = Partition((0, 0, 1, 1), 2)  # {a,b}, {c,d}
    assert is_acyclic_partition(g, alternative)


def test_validate_reports_all_violations():
    g = Dag([3, 1, 1, 1], [(0, 3, 1), (1, 2, 1)])
    report = validate(g, Partition((0, 1, 0, 1), 2), 2, 0)
    assert not report.feasible
    assert not report.balanced
    assert not report.acyclic
    assert any("part 0 weight 4 exceeds bound 3" in v for v in report.violations)
    assert any("quotient cycle" in v for v in report.violations)


def test_validate_feasible_report():
    g = chain(4)
    report = validate(g, Partition((0, 0, 1, 1), 2), 2, 0)
    assert report.feasible
    assert report.cut == 1
    assert report.part_weights == (2, 2)
    assert report.bound == 2


def test_validate_k_mismatch():
    g = chain(2)
    report = validate(g, Partition((0, 1), 2), 3, 0)
    assert not report.feasible


def test_partition_text_round_trip():
    p = Partition((0, 2, 1, 2), 3)
    text = partition_to_text(p)
    assert text == "0\n2\n1\n2\n"
    again = partition_from_text("% comment\n" + text, k=3)
    assert again == p
    inferred = partition_from_text(text)
    assert inferred.k == 3


def test_partition_text_errors_carry_line_numbers():
    with pytest.raises(PartitionParseError, match=r"^line 3: .*'x'") as exc:
        partition_from_text("0\n% comment\nx\n")
    assert exc.value.line_no == 3
    # int() takes digit grouping; the format allows ASCII decimals only
    with pytest.raises(PartitionParseError, match=r"^line 2: .*'1_0'"):
        partition_from_text("0\n1_0\n")
    assert partition_from_text("% part_1\n0\n1\n") == Partition((0, 1), 2)


def test_renumber_topologically():
    g = chain(4)
    p = renumber_topologically(g, (1, 1, 0, 0), 2)
    assert p.assignment == (0, 0, 1, 1)
    with pytest.raises(ValueError):
        renumber_topologically(fig1_graph(), (0, 1, 0, 1), 2)
