import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import family, random_uniform_family
from kfam.errors import ParseError
from kfam.fileio import format_family, load_family, parse_family, save_family


def test_t2_encoding():
    text = "n=7\n1 2 3 4\n1 5 6 7\n2 5 6 7\n"
    fam = parse_family(text)
    assert fam.n == 7
    assert fam.member_set == family(7, [{1, 2, 3, 4}, {1, 5, 6, 7}, {2, 5, 6, 7}]).member_set


@settings(max_examples=120)
@given(st.integers(0, 10**6), st.integers(1, 10), st.integers(1, 5), st.integers(0, 15))
def test_round_trip(seed, n, k, size):
    k = min(k, n)
    fam = random_uniform_family(random.Random(seed), n, k, size)
    assert parse_family(format_family(fam)) == fam


def test_file_round_trip(tmp_path):
    fam = family(6, [{1, 2, 3}, {1, 4, 5}, {2, 4, 6}])
    path = tmp_path / "f.fam"
    save_family(fam, path)
    assert load_family(path) == fam


def test_comments_and_blanks_ignored():
    fam = parse_family("# header comment\n\nn=5\n# a member\n1 2\n\n3 4 5\n")
    assert fam.sets() == [(1, 2), (3, 4, 5)]


def test_duplicate_member_warns():
    with pytest.warns(UserWarning):
        fam = parse_family("n=4\n1 2\n1 2\n")
    assert len(fam) == 1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("1 2 3\n", "line 1"),
        ("n=5\nx y\n", "line 2"),
        ("n=5\n1 \u00b2\n", "line 2: bad label '\u00b2'"),
        ("n=\u0661\u0662\n1 2\n", "line 1: expected 'n=<ground size>'"),
        ("n=5\n1 7\n", "line 2"),
        ("n=5\n2 1\n", "line 2"),
        ("", "line 1"),
        # a ground size or label is bounded before it is converted or used
        ("n=200000000\n1 x\n", "line 1: ground size outside \\[1, 128\\]"),
        ("n=0\n", "line 1: ground size outside"),
        pytest.param("n=" + "9" * 5000 + "\n1 2\n", "line 1: ground size outside",
                     id="header-of-5000-digits"),
        pytest.param("n=5\n1 " + "9" * 5000 + "\n", "line 2: label outside ground",
                     id="label-of-5000-digits"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_family(text)
