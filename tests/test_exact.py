"""The sparse exact-algebra core: accumulate, truncated exp/log, the
substitution loop, row reduction and the term formatter."""

import random
from collections import Counter
from fractions import Fraction as F

from wreathgroth import ring as rg
from wreathgroth._exact import (
    accumulate,
    exp,
    format_terms,
    log1p,
    reduce,
    row_reduce,
    substitute,
)
from wreathgroth.partitions import multipartitions_upto
from wreathgroth.pbw import PBWElement, sym, word_for_mp
from wreathgroth.symfun import SymSeries

LABELS = ("x", "y")


def power_letters(key):
    """The letters (slot, l) of a power-sum key, one per part."""
    return [(u, l) for u, p in enumerate(key) for l in p]


def power_sum_image(u, l, degree):
    return SymSeries.generator(LABELS, LABELS[u], "p", (l,), degree)


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


def test_substitute_identity_image_returns_its_input():
    rng = random.Random(3)
    ring = rg.matrix_ring(2)
    keys = multipartitions_upto(ring.rank(), 4)
    x = PBWElement(ring, 4, {
        word_for_mp(rng.choice(keys)): F(rng.randint(-5, 5), 3) for _ in range(8)
    })
    one = PBWElement.one(ring, 4)
    assert substitute(x.terms, lambda s: PBWElement(ring, 4, {(s,): 1}), one) == x
    keys = multipartitions_upto(2, 5)
    f = SymSeries(LABELS, "p", 5, {rng.choice(keys): rng.randint(-5, 5) for _ in range(8)})
    one = SymSeries.one(LABELS, "p", 5)
    got = substitute(f.terms, lambda s: power_sum_image(*s, 5), one, letters=power_letters)
    assert got == f


def test_substitute_stops_a_word_at_a_vanishing_image():
    ring = rg.cyclic_group_algebra(2)
    a, b, c = sym(1, 0), sym(1, 1), sym(2, 0)
    asked = Counter()

    def image(s):
        asked[s] += 1
        return PBWElement(ring, 4, {} if s == b else {(s,): 1})

    x = {(a, b, c): F(1), (a, c): F(2)}
    got = substitute(x, image, PBWElement.one(ring, 4))
    assert got == PBWElement(ring, 4, {(a, c): 2})
    assert asked == {a: 2, b: 1, c: 1}  # c only for the second word

    asked.clear()

    def sym_image(s):
        asked[s] += 1
        u, l = s
        return SymSeries.zero(LABELS, "p", 6) if l == 2 else power_sum_image(u, l, 6)

    f = {((3, 2, 1), ()): F(1), ((1,), (1,)): F(5)}
    got = substitute(f, sym_image, SymSeries.one(LABELS, "p", 6), letters=power_letters)
    assert got == SymSeries(LABELS, "p", 6, {((1,), (1,)): 5})
    assert asked == {(0, 3): 1, (0, 2): 1, (0, 1): 1, (1, 1): 1}  # (0, 1) only for p_1 p_1
