import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from wreathgroth import witt
from wreathgroth._exact import monomial_product
from wreathgroth.errors import DomainError, IntegralityError
from wreathgroth.partitions import partitions
from wreathgroth.symfun import merge_parts
from wreathgroth.witt import WittVector


def evaluate_epoly(poly: dict, comps) -> int:
    """Evaluate an integer polynomial in the e_i at e_i = comps[i-1] (and
    e_0 = 1)."""
    total = 0
    for key, coeff in poly.items():
        val = coeff
        for i in key:
            if i > len(comps):
                val = 0
                break
            val *= comps[i - 1]
        total += val
    return total


def test_schur_in_e_small():
    assert witt.schur_in_e(()) == {(): 1}
    assert witt.schur_in_e((1,)) == {(1,): 1}
    assert witt.schur_in_e((2,)) == {(1, 1): 1, (2,): -1}
    assert witt.schur_in_e((1, 1)) == {(2,): 1}
    assert witt.schur_in_e((2, 1)) == {(2, 1): 1, (3,): -1}


def test_power_in_e():
    assert witt.power_in_e(1) == {(1,): 1}
    assert witt.power_in_e(2) == {(1, 1): 1, (2,): -2}
    assert witt.power_in_e(3) == {(1, 1, 1): 1, (2, 1): -3, (3,): 3}


def test_ghost_formulas():
    a = WittVector((2, 3, 5))
    assert a.ghost(1) == 2
    assert a.ghost(2) == 2 * 2 - 2 * 3
    assert a.ghost(3) == 2**3 - 3 * 2 * 3 + 3 * 5
    with pytest.raises(DomainError):
        a.ghost(4)


def test_ghosts_by_newton_match_power_sums_in_e():
    # the O(n^2) recursion against p_n written in the e_i and evaluated
    rng = random.Random(5)
    for length in range(1, 10):
        for _ in range(4):
            a = WittVector([rng.randint(-9, 9) for _ in range(length)])
            want = tuple(evaluate_epoly(witt.power_in_e(n), a.comps) for n in range(1, length + 1))
            assert a.ghosts() == want
            assert tuple(a.ghost(n) for n in range(1, length + 1)) == want


def test_additive_identity():
    rng = random.Random(2)
    for _ in range(5):
        a = WittVector([rng.randint(-5, 5) for _ in range(6)])
        assert a + WittVector.zero(6) == a
        assert WittVector.zero(6) + a == a


def test_multiplicative_identity():
    rng = random.Random(6)
    for _ in range(5):
        a = WittVector([rng.randint(-5, 5) for _ in range(6)])
        assert a * WittVector.one(6) == a
        assert WittVector.one(6) * a == a


def test_addition_first_components():
    a = WittVector((3, 0, 0))
    b = WittVector((4, 0, 0))
    s = a + b
    assert s.comps[0] == 7
    assert s.comps[1] == 12  # e_2(x,y) picks up e_1(x) e_1(y)


def test_first_component_of_product():
    a = WittVector((3, 1, 0))
    b = WittVector((5, 0, 2))
    assert (a * b).comps[0] == 15


small_vec = st.lists(st.integers(-6, 6), min_size=5, max_size=5)


@settings(max_examples=40, deadline=None)
@given(small_vec, small_vec)
def test_ghost_additivity(xs, ys):
    a, b = WittVector(xs), WittVector(ys)
    assert (a + b).ghosts() == tuple(x + y for x, y in zip(a.ghosts(), b.ghosts()))


@settings(max_examples=40, deadline=None)
@given(small_vec, small_vec)
def test_ghost_multiplicativity(xs, ys):
    a, b = WittVector(xs), WittVector(ys)
    assert (a * b).ghosts() == tuple(x * y for x, y in zip(a.ghosts(), b.ghosts()))


def test_ring_laws_via_ghosts():
    rng = random.Random(42)
    for _ in range(15):
        a = WittVector([rng.randint(-4, 4) for _ in range(5)])
        b = WittVector([rng.randint(-4, 4) for _ in range(5)])
        c = WittVector([rng.randint(-4, 4) for _ in range(5)])
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_ghost_determines_vector():
    # the ghost map is injective over the integers: recover components
    rng = random.Random(8)
    for _ in range(10):
        a = WittVector([rng.randint(-4, 4) for _ in range(5)])
        b = WittVector([rng.randint(-4, 4) for _ in range(5)])
        if a.ghosts() == b.ghosts():
            assert a == b


def test_length_mismatch():
    with pytest.raises(DomainError):
        WittVector((1, 2)) + WittVector((1, 2, 3))


def test_a_non_witt_operand_is_refused_by_name():
    from wreathgroth.groth import GrothElement
    from wreathgroth.ring import integers

    x = WittVector([1, 2])
    for other, name in ((3, "int"), (GrothElement.one(integers()), "GrothElement")):
        for op in (x.__add__, x.__mul__):
            with pytest.raises(DomainError, match=f"^cannot combine WittVector with {name}$"):
                op(other)


def test_schur_in_e_matches_character_route():
    # independent cross-check through the power-sum expansion of s_lam
    from fractions import Fraction

    from wreathgroth.partitions import mn_character, z_factor

    for n in range(1, 7):
        for lam in partitions(n):
            direct = witt.schur_in_e(lam)
            via_p: dict = {}
            for mu in partitions(n):
                chi = mn_character(lam, mu)
                if not chi:
                    continue
                coeff = Fraction(chi, z_factor(mu))
                row = {(): 1}
                for part in mu:
                    row = monomial_product(row, witt.power_in_e(part), merge_parts)
                for key, c in row.items():
                    via_p[key] = via_p.get(key, Fraction(0)) + coeff * c
            via_p = {k: v for k, v in via_p.items() if v}
            assert {k: Fraction(v) for k, v in direct.items()} == via_p


def test_mul_matches_kronecker_coproduct_sum():
    # the product is defined through ghosts; this is the definition it must
    # agree with: [a*b]_n = sum_{lam |- n} s_lam(a) s_lam'(b), the dual of the
    # Kronecker coproduct e_n -> sum s_lam (x) s_lam'
    from wreathgroth.partitions import conjugate

    rng = random.Random(11)
    for length in range(1, 8):
        for _ in range(6):
            a = WittVector([rng.randint(-7, 7) for _ in range(length)])
            b = WittVector([rng.randint(-7, 7) for _ in range(length)])
            want = [
                sum(
                    evaluate_epoly(witt.schur_in_e(lam), a.comps)
                    * evaluate_epoly(witt.schur_in_e(conjugate(lam)), b.comps)
                    for lam in partitions(n)
                )
                for n in range(1, length + 1)
            ]
            assert (a * b).comps == tuple(want), (a, b)
    misses = witt.schur_in_e.cache_info().misses
    a = WittVector([rng.randint(-9, 9) for _ in range(10)])
    b = WittVector([rng.randint(-9, 9) for _ in range(10)])
    assert (a * b).ghosts() == tuple(x * y for x, y in zip(a.ghosts(), b.ghosts()))
    assert witt.schur_in_e.cache_info().misses == misses


def test_from_ghosts_rejects_non_integral_ghosts():
    assert WittVector.from_ghosts((2, -2, 5)) == WittVector((2, 3, 5))
    with pytest.raises(IntegralityError, match=r"2\*e_2 = -1, remainder 1"):
        WittVector.from_ghosts((1, 2))


def test_non_integer_components_are_refused_by_name():
    from fractions import Fraction

    for comps, shown in (
        ([1.5, 2], "1.5"),
        ([Fraction(3, 2)], "Fraction(3, 2)"),
        ([1, "3"], "'3'"),
        ([2.0], "2.0"),
        ([float("nan")], "nan"),
        ([None], "None"),
    ):
        with pytest.raises(DomainError, match=f"^Witt vector component {re.escape(shown)} is not an integer$"):
            WittVector(comps)
    # an integral rational of another type is taken as its int
    comps = WittVector([True, Fraction(4, 2), 7]).comps
    assert comps == (1, 2, 7) and all(type(c) is int for c in comps)
