import pytest

from dagpart import read_dag_file, read_dag_text, write_dag_file, write_dag_text
from dagpart.errors import GraphParseError

from conftest import diamond

DIAMOND_TEXT = """\
p adag 4 4
v 1
v 1
v 1
v 1
e 0 1 1
e 0 2 1
e 1 3 1
e 2 3 1
"""


def test_round_trip_text():
    g = diamond()
    assert write_dag_text(g) == DIAMOND_TEXT
    again = read_dag_text(DIAMOND_TEXT)
    assert again.w == g.w and again.edges == g.edges


def test_round_trip_file(tmp_path):
    path = tmp_path / "g.dag"
    write_dag_file(diamond(), path)
    g = read_dag_file(path)
    assert g.n == 4 and g.m == 4


def test_comments_anywhere():
    text = "% header comment\np adag 2 1\n% mid\nv 1\nv 2\ne 0 1 5\n"
    g = read_dag_text(text)
    assert g.w == (1, 2) and g.cost[(0, 1)] == 5


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphParseError) as exc:
        read_dag_text("p adag x 1\n")
    assert exc.value.line_no == 1
    with pytest.raises(GraphParseError) as exc:
        read_dag_text("p adag 2 1\nv 1\nw 2\ne 0 1 1\n")
    assert exc.value.line_no == 3
    with pytest.raises(GraphParseError):
        read_dag_text("v 1\n")  # missing header
    with pytest.raises(GraphParseError):
        read_dag_text("p adag 2 1\nv 1\nv one\ne 0 1 1\n")


def test_digit_grouping_and_non_ascii_digits_rejected():
    # int() takes both; the format allows ASCII decimals only
    with pytest.raises(GraphParseError) as exc:
        read_dag_text("p adag 2 1\nv 1\nv 1\ne 0 1 1_0\n")
    assert exc.value.line_no == 4
    with pytest.raises(GraphParseError) as exc:
        read_dag_text("p adag 2 1\nv 1\nv \u0663\ne 0 1 1\n")
    assert exc.value.line_no == 3
    # in a comment, either character is fine
    g = read_dag_text("% w_1 \u00e9\np adag 2 1\nv 1\nv 2\ne 0 1 10\n")
    assert g.w == (1, 2) and g.cost[(0, 1)] == 10


def test_count_mismatches():
    with pytest.raises(GraphParseError):
        read_dag_text("p adag 3 0\nv 1\nv 1\n")
    with pytest.raises(GraphParseError):
        read_dag_text("p adag 2 2\nv 1\nv 1\ne 0 1 1\n")
