"""The sparse exact-algebra core: accumulate, truncated exp/log, row
reduction and the term formatter."""

from fractions import Fraction as F

from wreathgroth._exact import (
    accumulate,
    exp,
    format_terms,
    log1p,
    reduce,
    row_reduce,
)
from wreathgroth.symfun import SymSeries


def inverse(rows):
    """Rows of the inverse of a square matrix given as a list of dict rows."""
    pivots, det = row_reduce((row, {i: 1}) for i, row in enumerate(rows))
    assert len(pivots) == len(rows) and det
    return [pivots[c][1] for c in sorted(pivots)]


def test_accumulate_adds_scales_and_drops_cancelled_keys():
    dst = {"a": F(1), "b": F(2)}
    out = accumulate(dst, {"a": F(-1, 2), "b": F(1), "c": F(3)}, 2)
    assert out is dst
    assert dst == {"b": F(4), "c": F(6)}
    assert "a" not in dst
    assert accumulate({"x": 1}, {"x": -1}) == {}
    assert accumulate({"x": 1}, {"y": 5}, 0) == {"x": 1}


def test_inverse_of_a_unimodular_matrix():
    inv = inverse([{0: F(2), 1: F(1)}, {0: F(1), 1: F(1)}])
    assert inv == [{0: 1, 1: -1}, {0: -1, 1: 2}]
    assert all(c.denominator == 1 for row in inv for c in row.values())


def test_inverse_of_a_rational_matrix():
    rows = [
        {0: F(1), 1: F(2)},
        {1: F(1, 2), 2: F(3)},
        {0: F(4), 2: F(1)},
    ]
    inv = inverse(rows)
    # inv * rows is the identity, row by row
    for i, row in enumerate(inv):
        prod: dict = {}
        for k, c in row.items():
            accumulate(prod, rows[k], c)
        assert prod == {i: 1}
    assert row_reduce((row, {}) for row in rows)[1] == F(49, 2)


def test_determinant_changes_sign_under_a_row_swap():
    a = {0: F(3), 1: F(1), 2: F(2)}
    b = {0: F(1), 2: F(5)}
    c = {1: F(-2), 2: F(1)}
    det = row_reduce((r, {}) for r in (a, b, c))[1]
    swapped = row_reduce((r, {}) for r in (b, a, c))[1]
    assert det == -swapped == 25


def test_singular_rows_have_determinant_zero_and_fewer_pivots():
    rows = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]
    pivots, det = row_reduce((r, {}) for r in rows)
    assert det == 0
    assert list(pivots) == [0]


def test_membership_in_an_echelon_span():
    span = [{"x": F(1), "y": F(1)}, {"y": F(1), "z": F(-1)}]
    pivots, _ = row_reduce((r, {}) for r in span)
    assert reduce({"x": F(1), "z": F(1)}, pivots) == {}  # first minus second
    assert reduce({"x": F(2), "y": F(3), "z": F(-1)}, pivots) == {}
    assert reduce({"z": F(1)}, pivots) != {}


def test_log_inverts_exp_on_a_truncated_symmetric_series():
    labels, D = ("x", "y"), 6
    one = SymSeries.one(labels, "p", D)
    x = SymSeries(labels, "p", D, {
        ((1,), ()): F(2),
        ((), (2,)): F(-1, 3),
        ((1,), (1,)): F(5, 2),
        ((3,), ()): F(1, 7),
    })
    e = exp(x, one, D)
    assert e != one
    assert log1p(e - one, one, D) == x
    assert exp(log1p(x, one, D), one, D) == one + x


def test_format_terms():
    assert format_terms([]) == "0"
    assert format_terms([("a", 1), ("b", -2), ("c", F(1, 2)), ("d", -1)]) == (
        "a - 2*b + 1/2*c - d"
    )
    assert format_terms([("a", -1)]) == "-a"
