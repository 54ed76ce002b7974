"""The sparse exact-algebra core: accumulate, truncated exp/log, the
substitution loop, the first-difference search, row reduction and the term
formatter."""

import random
from collections import Counter
from fractions import Fraction as F
from itertools import permutations
from math import factorial

import pytest

from wreathgroth import hopf, pbw
from wreathgroth import ring as rg
from wreathgroth import symfun as sf
from wreathgroth._exact import (
    Combination,
    PowerSeries,
    accumulate,
    exact,
    exp,
    first_difference,
    format_terms,
    from_numerators,
    log1p,
    power_sum,
    reduce,
    row_reduce,
    substitute,
)
from wreathgroth.errors import DomainError, IntegralityError
from wreathgroth.groth import GrothElement
from wreathgroth.partitions import mp_single, mp_total, multipartitions_upto
from wreathgroth.pbw import PBWElement, sym, word_for_mp
from wreathgroth.symfun import SymSeries

LABELS = ("x", "y")


def power_letters(key):
    """The letters (slot, l) of a power-sum key, one per part."""
    return [(u, l) for u, p in enumerate(key) for l in p]


def power_sum_image(u, l, degree):
    return SymSeries.generator(LABELS, LABELS[u], (l,), degree)


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


def random_rows(rng):
    """Sparse rational rows over a few columns, square half of the time, with
    duplicate rows and rows that are combinations of earlier ones among
    them."""
    columns = sorted(rng.sample([(a, b) for a in range(3) for b in range(4)], rng.randint(2, 7)))
    rows = []
    for _ in range(len(columns) if rng.random() < 0.5 else rng.randint(2, 8)):
        draw = rng.random()
        if rows and draw < 0.15:
            row = dict(rng.choice(rows))
        elif len(rows) > 1 and draw < 0.35:
            a, b = rng.sample(rows, 2)
            row = accumulate(dict(a), b, F(rng.choice((-2, 1, 3)), rng.choice((1, 2))))
        else:
            row = {
                col: F(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3, 7)))
                for col in rng.sample(columns, rng.randint(1, len(columns)))
            }
        rows.append(row)
    return rows


def leibniz_determinant(rows):
    """The permutation sum of the square matrix the rows form with columns in
    sorted order."""
    columns = sorted({col for row in rows for col in row})
    total = F(0)
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        term = F(-1 if inversions & 1 else 1)
        for row, c in zip(rows, perm):
            term *= row.get(columns[c], 0)
        total += term
    return total


@pytest.mark.parametrize("seed", range(40))
def test_row_reduce_on_integer_rows_equals_the_fraction_reference(seed):
    """The name is kept from the integer-row solver, whose results this test
    compared with a Gauss-Jordan over Q; the checks are now the properties
    that define the result: reduced pivots, each the combination its tags
    record, a span holding every input row, and the permutation-sum
    determinant, negated by a row swap."""
    rng = random.Random(seed)
    rows = random_rows(rng)
    pivots, det = row_reduce((row, {i: 1}) for i, row in enumerate(rows))
    for col, (vec, tags) in pivots.items():
        assert vec[col] == 1 and col == min(vec)
        assert all(type(c) is F for part in (vec, tags) for c in part.values())
        assert not any(other in vec for other in pivots if other != col)
        combined: dict = {}
        for i, c in tags.items():
            accumulate(combined, rows[i], c)
        assert combined == vec
    for row in rows:
        assert reduce(row, pivots) == {}
    if len(rows) == len({col for row in rows for col in row}):  # a square matrix
        assert det == leibniz_determinant(rows)
        i, j = rng.sample(range(len(rows)), 2)
        rows[i], rows[j] = rows[j], rows[i]
        assert row_reduce((row, {}) for row in rows)[1] == -det


def test_membership_in_an_echelon_span():
    span = [{"x": F(1), "y": F(1)}, {"y": F(1), "z": F(-1)}]
    pivots, _ = row_reduce((r, {}) for r in span)
    assert reduce({"x": F(1), "z": F(1)}, pivots) == {}  # first minus second
    assert reduce({"x": F(2), "y": F(3), "z": F(-1)}, pivots) == {}
    assert reduce({"z": F(1)}, pivots) != {}


def test_log_inverts_exp_on_a_truncated_symmetric_series():
    labels, D = ("x", "y"), 6
    one = SymSeries.one(labels, D)
    x = SymSeries(labels, D, {
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
    f = SymSeries(LABELS, 5, {rng.choice(keys): rng.randint(-5, 5) for _ in range(8)})
    one = SymSeries.one(LABELS, 5)
    got = substitute(f.terms, lambda s: power_sum_image(*s, 5), one, letters=power_letters)
    assert got == f


def test_first_difference_names_the_least_differing_key_and_both_values():
    assert first_difference({}, {}) is None
    assert first_difference({"a": F(1, 2)}, {"a": F(1, 2)}) is None
    a = {"a": 1, "b": 2, "c": F(5, 3)}
    b = {"a": 1, "c": 4, "d": 7}
    # b, c and d differ; an absent key has coefficient 0
    assert first_difference(a, b) == ("b", 2, 0)
    assert first_difference(b, a, order=lambda k: -ord(k)) == ("d", 7, 0)
    assert first_difference(a, b, order=lambda k: k != "c") == ("c", F(5, 3), 4)


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
        return SymSeries.zero(LABELS, 6) if l == 2 else power_sum_image(u, l, 6)

    f = {((3, 2, 1), ()): F(1), ((1,), (1,)): F(5)}
    got = substitute(f, sym_image, SymSeries.one(LABELS, 6), letters=power_letters)
    assert got == SymSeries(LABELS, 6, {((1,), (1,)): 5})
    assert asked == {(0, 3): 1, (0, 2): 1, (0, 1): 1, (1, 1): 1}  # (0, 1) only for p_1 p_1


# ---------------------------------------------------------------------------
# the integer power_sum against the Fraction loop it replaced

def reference_power_sum(x, one, degree, coefficient, out):
    """out + sum_k coefficient(k) x^k with the algebra's own *, + and scale,
    stopping at the first vanishing power: the loop before it ran on
    integer numerators."""
    power = one
    for k in range(1, degree + 1):
        power = power * x
        if power.is_zero():
            break
        out = out + power.scale(coefficient(k))
    return out


def reference_exp(x, one, degree):
    return reference_power_sum(x, one, degree, lambda k: F(1, factorial(k)), one)


def reference_log1p(x, one, degree):
    return reference_power_sum(x, one, degree, lambda k: F((-1) ** (k - 1), k), one.scale(0))


def geometric(k):
    return (-1) ** k


def assert_series_agree(x, one, degree):
    """exp, log1p and the geometric series on the one loop and the reference."""
    zero = one.scale(0)
    got = exp(x, one, degree)
    assert got == reference_exp(x, one, degree)
    assert got != one + x  # the loop went past the linear term
    assert log1p(x, one, degree) == reference_log1p(x, one, degree)
    assert power_sum(x, degree, geometric, zero) == reference_power_sum(
        x, one, degree, geometric, zero
    )


def random_groth(ring, rng, top):
    keys = [k for k in multipartitions_upto(ring.rank(), top) if mp_total(k)]
    return GrothElement(ring, {
        rng.choice(keys): F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
        for _ in range(3)
    })


@pytest.mark.parametrize("ring", [rg.golden_ring(), rg.matrix_ring(2)], ids=["golden", "matrix2"])
def test_power_sum_on_t_series_of_groth_elements(ring):
    rng = random.Random(5)
    zero = GrothElement.zero(ring)
    one = PowerSeries(zero, 3, {0: GrothElement.one(ring)})
    x = PowerSeries(zero, 3, {k: random_groth(ring, rng, k) for k in (1, 2)})
    assert_series_agree(x, one, 3)


def test_power_sum_on_t_series_of_pbw_elements():
    ring = rg.matrix_ring(2)
    U, V = ring.basis_element(1), ring.basis_element(2)
    x = pbw.TSeries(ring, 3, {
        1: PBWElement.generator(ring, 3, 1, U).scale(F(1, 2)),
        2: PBWElement.generator(ring, 3, 1, V) * PBWElement.generator(ring, 3, 1, U)
        - PBWElement.generator(ring, 3, 2, U + V).scale(F(2, 3)),
    })
    assert_series_agree(x, pbw.TSeries.one(ring, 3), 3)


@pytest.mark.parametrize("ring", [rg.golden_ring(), rg.matrix_ring(2)], ids=["golden", "matrix2"])
def test_theta_on_the_one_loop_equals_the_reference(ring):
    D, rank = 3, ring.rank()
    one = pbw.RingSeries.one(ring, D)
    for l in (1, 2):
        arg = one + pbw.RingSeries(
            ring, D, {mp_single(rank, u, (l,)): {u: u + 1, (u + 1) % rank: -1} for u in range(rank)}
        )
        logx = reference_log1p(arg - one, one, D)
        want = reference_exp(pbw.apply_t(l, logx, D), pbw.MixedSeries.one(ring, D), D)
        assert pbw.theta(l, arg, D) == want
        if l == 1:  # for l = 2, (arg - 1)^2 lies above the truncation
            assert_series_agree(arg - one, one, D)


def test_dual_antipode_power_sum_on_the_one_loop_equals_the_reference():
    ring = rg.golden_ring.__wrapped__()  # a private instance: the memo starts empty
    D, rank = 4, ring.rank()
    for l in (1, 2):
        base = pbw.RingSeries(ring, D, {mp_single(rank, u, (l,)): {u: 1} for u in range(rank)})
        total = reference_power_sum(
            base, pbw.RingSeries.one(ring, D), D // l, geometric, pbw.RingSeries(ring, D)
        )
        want = {
            u: {key: c for (key, v), c in total.terms.items() if v == u} for u in range(rank)
        }
        got = hopf.dual_antipode_power_sum(ring, l, D)
        assert {u: image.terms for u, image in got.items()} == want


def test_cauchy_kernel_and_schur_series_on_the_one_loop_equal_the_reference():
    D = 6
    labels = ("x", "y")
    arg = SymSeries(labels, D, {((l,), (l,)): F(1, l) for l in range(1, D // 2 + 1)})
    assert sf.cauchy_kernel(D) == reference_exp(arg, SymSeries.one(labels, D), D)
    # a series given by Schur coefficients
    x = sf.schur_to_power(labels, D, {((1,), ()): F(1, 2), ((2,), (1,)): F(-3), ((), (1, 1)): F(2, 5)})
    assert_series_agree(x, SymSeries.one(labels, D), D)


def test_power_sum_on_t_series_of_ring_elements():
    ring = rg.cyclic_group_algebra(2)
    e, g = ring.basis_element(0), ring.basis_element(1)
    one = PowerSeries(ring.zero(), 4, {0: e})
    x = PowerSeries(ring.zero(), 4, {1: g, 2: g - e.scale(2), 3: e})
    for coefficient in (geometric, lambda k: k + 1):
        got = power_sum(x, 4, coefficient, one)
        assert got == reference_power_sum(x, one, 4, coefficient, one)
    # the constructor would floor a fraction: a non-integral sum is refused
    with pytest.raises(IntegralityError, match="1/2"):
        power_sum(x, 4, lambda k: F(1, 2), one)


def test_power_sum_stops_at_the_first_vanishing_power(monkeypatch):
    ring = rg.cyclic_group_algebra(2)
    calls = Counter()
    core = PBWElement._int_product

    def counted(self, a, b):
        calls["core"] += 1
        return core(self, a, b)

    monkeypatch.setattr(PBWElement, "_int_product", counted)
    x = PBWElement.generator(ring, 4, 3, ring.basis_element(1))  # x^2 has degree 6 > 4
    one = PBWElement.one(ring, 4)
    assert exp(x, one, 4) == one + x
    assert calls["core"] <= 2


# ---------------------------------------------------------------------------
# the one operand check: every Combination class refuses an operand of
# another class or context in +, - and *

C2 = rg.cyclic_group_algebra(2)
C2_COPY = rg.cyclic_group_algebra.__wrapped__(2)  # same labels and tensor, another ring


def _groth_series(ring, degree):
    return PowerSeries(GrothElement.zero(ring), degree, {0: GrothElement.one(ring)})


# each class: (an element, {what differs: an element differing in just that});
# the other ring is a copy of the first, so nothing but the check can tell
FACTORIES = {
    rg.RingElement: lambda: (C2.one(), {"ring": C2_COPY.one()}),
    GrothElement: lambda: (GrothElement.one(C2), {"ring": GrothElement.one(C2_COPY)}),
    SymSeries: lambda: (SymSeries.one(("x", "y"), 3), {
        "labels": SymSeries.one(("x", "z"), 3), "degree": SymSeries.one(("x", "y"), 4),
    }),
    PBWElement: lambda: (PBWElement.one(C2, 3), {
        "ring": PBWElement.one(C2_COPY, 3), "degree": PBWElement.one(C2, 4),
    }),
    pbw._PowerSumSeries: lambda: (pbw._PowerSumSeries(C2, 2), {
        "ring": pbw._PowerSumSeries(C2_COPY, 2), "degree": pbw._PowerSumSeries(C2, 3),
    }),
    pbw.RingSeries: lambda: (pbw.RingSeries.one(C2, 2), {
        "ring": pbw.RingSeries.one(C2_COPY, 2), "degree": pbw.RingSeries.one(C2, 3),
    }),
    pbw.MixedSeries: lambda: (pbw.MixedSeries.one(C2, 2), {
        "ring": pbw.MixedSeries.one(C2_COPY, 2), "degree": pbw.MixedSeries.one(C2, 3),
    }),
    hopf.TensorGroth: lambda: (
        hopf.TensorGroth.of(GrothElement.one(C2), GrothElement.one(C2)),
        {"ring": hopf.TensorGroth.of(GrothElement.one(C2_COPY), GrothElement.one(C2_COPY))},
    ),
    hopf.LawPoly: lambda: (hopf.LawPoly(2, {(): 1}), {"degree": hopf.LawPoly(3, {(): 1})}),
    PowerSeries: lambda: (_groth_series(C2, 3), {
        "zero": _groth_series(C2_COPY, 3), "degree": _groth_series(C2, 5),
    }),
    pbw.TSeries: lambda: (pbw.TSeries.one(C2, 3), {
        "zero": pbw.TSeries.one(C2_COPY, 3), "degree": pbw.TSeries.one(C2, 4),
    }),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("cls", sorted(_subclasses(Combination), key=lambda c: c.__qualname__),
                         ids=lambda c: c.__qualname__)
def test_every_operation_refuses_operands_of_another_context(cls):
    assert cls in FACTORIES, f"{cls.__qualname__} has no factory here"
    a, variants = FACTORIES[cls]()
    assert type(a) is cls and a + a == a.scale(2)
    assert set(cls._compared) <= set(variants)
    for b in variants.values():
        assert type(b) is cls
        for x, y in ((a, b), (b, a)):
            for op in (x.__add__, x.__sub__, x.__mul__):
                with pytest.raises(DomainError):
                    op(y)
    for other in FACTORIES:
        if other is not cls:
            b = FACTORIES[other]()[0]
            for op in (a.__add__, a.__sub__, a.__mul__):
                with pytest.raises(DomainError):
                    op(b)


# ---------------------------------------------------------------------------
# the coefficient form: an int exactly when the coefficient is integral

def _in_form(x) -> bool:
    return all(type(c) is (int if c.denominator == 1 else F) for c in x.terms.values())


def _only_ints(x) -> bool:
    return all(type(c) is int for c in x.terms.values())


# each type: two integral elements that multiply, given partly as integral
# Fractions, which the constructor turns into ints
INTEGRAL_PAIRS = {
    GrothElement: lambda: (
        GrothElement(C2, {mp_single(2, 1, (1,)): F(2), mp_single(2, 0, (2,)): -3}),
        GrothElement(C2, {mp_single(2, 1, (1, 1)): F(6, 3), mp_single(2, 0, ()): 1}),
    ),
    rg.RingElement: lambda: (
        rg.RingElement(C2, {0: F(2), 1: -1}),
        rg.RingElement(C2, {0: 3, 1: F(-8, 4)}),
    ),
    PBWElement: lambda: (
        PBWElement(C2, 3, {(sym(1, 1),): F(3), (sym(1, 0),): 2}),
        PBWElement(C2, 3, {(sym(1, 1), sym(2, 1)): -1, (sym(2, 0),): F(10, 5)}),
    ),
    SymSeries: lambda: (
        SymSeries(LABELS, 4, {((1,), ()): F(2), ((), (2,)): -1}),
        SymSeries(LABELS, 4, {((1, 1), ()): 5, ((2,), (1,)): F(-9, 3)}),
    ),
    hopf.LawPoly: lambda: (
        hopf.LawPoly(3, {((0, 0, 1),): F(2), ((1, 0, 1),): 1}),
        hopf.LawPoly(3, {((0, 0, 1), (1, 0, 1)): F(4, 2), (): -1}),
    ),
}


@pytest.mark.parametrize("cls", INTEGRAL_PAIRS, ids=lambda c: c.__qualname__)
def test_integral_operands_give_only_ints(cls):
    a, b = INTEGRAL_PAIRS[cls]()
    results = [a, b, a + b, a - b, b - a, a * b, b * a, a.scale(3), a.scale(F(4, 2))]
    for x in results:
        assert type(x) is cls and _only_ints(x)
    assert not (a * b).is_zero() and not (a + b).is_zero()


@pytest.mark.parametrize("cls", [c for c in INTEGRAL_PAIRS if c is not rg.RingElement],
                         ids=lambda c: c.__qualname__)
def test_a_fraction_appears_exactly_when_the_denominator_exceeds_one(cls):
    a, b = INTEGRAL_PAIRS[cls]()
    half = a.scale(F(1, 2))
    assert _in_form(half) and any(type(c) is F for c in half.terms.values())
    assert half.scale(2) == a and _only_ints(half.scale(2))
    assert half + half == a and _only_ints(half + half)
    third = b.scale(F(1, 3))
    for x in (half + third, half - third, half * b, a * third, half * third, half.scale(6)):
        assert _in_form(x)


def test_numerators_come_back_as_ints_where_the_denominator_divides():
    got = from_numerators({"a": 4, "b": 3, "c": 0, "d": -6}, 2)
    assert got == {"a": 2, "b": F(3, 2), "d": -3}
    assert [type(c) for c in got.values()] == [int, F, int]
    assert all(type(c) is int for c in from_numerators({"a": 4, "b": -1}, 1).values())
    assert [type(exact(c)) for c in (3, F(6, 2), F(1, 2), True, 0.5)] == [int, int, F, int, F]


@pytest.mark.parametrize("ring", [C2, rg.golden_ring(), rg.matrix_ring(2)], ids=lambda r: r.name)
def test_z_multiply_of_integral_elements_builds_no_fraction(monkeypatch, ring):
    from wreathgroth import _exact, groth

    W = ring.element({u: u + 1 for u in range(ring.rank())})
    a, b = groth.e_of(ring, 2, W), groth.h_element(ring, 2, W)
    groth.z_multiply(a, b)  # the table rows, built before counting
    half = a.scale(F(1, 2))
    built = []

    def counted(*args):
        built.append(args)
        return F(*args)

    monkeypatch.setattr(_exact, "Fraction", counted)
    x = groth.z_multiply(a, b)
    assert built == [] and _only_ints(x) and not x.is_zero()
    y = groth.z_multiply(half, b)  # the patch does count: a half builds Fractions
    assert built and _in_form(y) and y.scale(2) == x
