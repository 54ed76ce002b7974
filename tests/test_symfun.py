import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

import pytest

from wreathgroth import partitions as pt
from wreathgroth import symfun as sf
from wreathgroth.errors import DomainError
from wreathgroth.symfun import SymSeries


def s_gen(part, degree, labels=("x",), label="x"):
    return SymSeries.schur(labels, label, part, degree)


def p_gen(part, degree, labels=("x",), label="x"):
    return SymSeries.generator(labels, label, part, degree)


# ---------------------------------------------------------------------------
# independent oracle: symmetric polynomials in m concrete variables via
# semistandard tableaux (monomial expansion of Schur polynomials)

def ssyt_count(shape, content, maxval):
    """Number of semistandard tableaux of the given shape and content."""

    def fill(rows, row, remaining):
        # rows: completed rows as tuples of values
        if row == len(shape):
            return 1 if all(v == 0 for v in remaining) else 0
        total = 0
        width = shape[row]
        above = rows[row - 1] if row else None

        def build(col, current, rem):
            nonlocal total
            if col == width:
                total += fill(rows + [tuple(current)], row + 1, rem)
                return
            lo = current[col - 1] if col else 1
            for v in range(lo, maxval + 1):
                if rem[v - 1] == 0:
                    continue
                if above is not None and above[col] >= v:
                    continue
                rem2 = list(rem)
                rem2[v - 1] -= 1
                current.append(v)
                build(col + 1, current, rem2)
                current.pop()

        build(0, [], list(remaining))
        return total

    return fill([], 0, list(content))


def schur_polynomial(shape, nvars):
    """Schur polynomial as {exponent tuple: coeff} over nvars variables."""
    n = sum(shape)
    out = {}
    # iterate over weak compositions of n into nvars parts
    def comps(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in comps(total - first, slots - 1):
                yield (first,) + rest

    for c in comps(n, nvars):
        k = ssyt_count(shape, c, nvars)
        if k:
            out[c] = k
    return out


def poly_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def test_schur_polynomial_oracle_sanity():
    # s_(2) in 2 variables = x^2 + xy + y^2
    assert schur_polynomial((2,), 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert schur_polynomial((1, 1), 2) == {(1, 1): 1}


# ---------------------------------------------------------------------------

def test_schur_to_power_degree_two():
    f = sf.schur_to_power(("x",), 4, {((2,),): 1})
    assert f.terms == {((1, 1),): Fraction(1, 2), ((2,),): Fraction(1, 2)}
    g = sf.schur_to_power(("x",), 4, {((1, 1),): 1})
    assert g.terms == {((1, 1),): Fraction(1, 2), ((2,),): Fraction(-1, 2)}
    h = sf.schur_to_power(("x",), 4, {((1,),): 1})
    assert h.terms == {((1,),): Fraction(1)}
    assert s_gen((1, 1), 4) == g


def test_power_to_schur():
    f = sf.power_to_schur(p_gen((2,), 4))
    assert f == {((2,),): Fraction(1), ((1, 1),): Fraction(-1)}
    h2 = SymSeries(("x",), 4, {((1, 1),): Fraction(1, 2), ((2,),): Fraction(1, 2)})
    assert sf.power_to_schur(h2) == {((2,),): Fraction(1)}


def test_conversion_round_trip():
    rng = random.Random(7)
    keys = pt.multipartitions_upto(2, 5)
    labels = ("x", "y")
    terms = {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in rng.sample(keys, 12)}
    f = SymSeries(labels, 5, terms)
    back = sf.schur_to_power(labels, 5, sf.power_to_schur(f))
    assert back == f


def test_multiply_basics():
    one = SymSeries.one(("x",), 4)
    a = s_gen((2, 1), 4)
    assert sf.multiply(one, a) == a
    prod = sf.multiply(s_gen((1,), 4), s_gen((1,), 4))
    assert sf.power_to_schur(prod) == {((2,),): 1, ((1, 1),): 1}
    prod2 = sf.multiply(s_gen((2,), 4), s_gen((1,), 4))
    assert sf.power_to_schur(prod2) == {((3,),): 1, ((2, 1),): 1}


def test_multiply_matches_concrete_polynomials():
    # brute-force cross-check in 6 concrete variables
    rng = random.Random(3)
    shapes = [p for n in range(1, 5) for p in pt.partitions(n)]
    for _ in range(8):
        mu, nu = rng.choice(shapes), rng.choice(shapes)
        D = sum(mu) + sum(nu)
        left = poly_mul(schur_polynomial(mu, 6), schur_polynomial(nu, 6))
        expanded = sf.power_to_schur(sf.multiply(s_gen(mu, D), s_gen(nu, D)))
        right = {}
        for key, coeff in expanded.items():
            assert coeff.denominator == 1
            for mono, k in schur_polynomial(key[0], 6).items():
                right[mono] = right.get(mono, 0) + int(coeff) * k
        assert left == {k: c for k, c in right.items() if c}


def test_mixed_truncation_rejected():
    with pytest.raises(DomainError):
        sf.multiply(s_gen((1,), 3), s_gen((1,), 4))


def test_lr_coefficients():
    assert sf.lr_coefficient((1,), (1,), (2,)) == 1
    assert sf.lr_coefficient((1,), (1,), (3,)) == 0
    assert sf.lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    # symmetry on everything of size <= 6
    shapes = [p for n in range(4) for p in pt.partitions(n)]
    for mu in shapes:
        for nu in shapes:
            for lam in pt.partitions(sum(mu) + sum(nu)):
                assert sf.lr_coefficient(mu, nu, lam) == sf.lr_coefficient(nu, mu, lam)


def kronecker_coefficient(mu, nu, lam) -> int:
    """Tensor-product multiplicity sum_rho chi^mu chi^nu chi^lam / z_rho, the
    character-sum reference for the product-set substitution."""
    n = sum(mu)
    if sum(nu) != n or sum(lam) != n:
        return 0
    total = Fraction(0)
    for rho in pt.partitions(n):
        total += Fraction(
            pt.mn_character(tuple(mu), rho)
            * pt.mn_character(tuple(nu), rho)
            * pt.mn_character(tuple(lam), rho),
            pt.z_factor(rho),
        )
    assert total.denominator == 1
    return int(total)


def test_kronecker_coefficients():
    for n in range(1, 6):
        for mu in pt.partitions(n):
            assert kronecker_coefficient((n,), mu, mu) == 1
    assert kronecker_coefficient((1, 1), (1, 1), (2,)) == 1
    assert kronecker_coefficient((2, 1), (2, 1), (2, 1)) == 1
    # symmetry in all three arguments, sizes <= 5
    for n in range(1, 5):
        shapes = pt.partitions(n)
        for mu, nu, lam in combinations_with_replacement(shapes, 3):
            k = kronecker_coefficient(mu, nu, lam)
            assert k == kronecker_coefficient(nu, mu, lam)
            assert k == kronecker_coefficient(lam, nu, mu)
            assert k == kronecker_coefficient(mu, lam, nu)


def test_substitute_union_and_product():
    f = p_gen((2,), 4)
    union = sf.substitute_variable_sets(f, {"x": [(("y",), 1), (("z",), 1)]}, ("y", "z"))
    assert union.terms == {((2,), ()): 1, ((), (2,)): 1}
    prod = sf.substitute_variable_sets(f, {"x": [(("y", "z"), 1)]}, ("y", "z"))
    assert prod.terms == {((2,), (2,)): 1}
    # a product of four sets puts p_4(x) at degree 16, far above the
    # truncation: only the p_4(y) image survives
    wide = sf.substitute_variable_sets(
        p_gen((4,), 4), {"x": [(("y", "z", "u", "v"), 1), (("y",), 1)]}, ("y", "z", "u", "v")
    )
    assert wide.terms == {((4,), (), (), ()): 1}


def test_substitute_product_set_recovers_kronecker_coefficients():
    # expanding s_lam on a product variable set must reproduce the
    # character-sum Kronecker coefficients: two independent code paths
    for n in range(1, 5):
        for lam in pt.partitions(n):
            # a product set doubles degrees, so truncate at 2n
            f = s_gen(lam, 2 * n)
            sub = sf.substitute_variable_sets(f, {"x": [(("y", "z"), 1)]}, ("y", "z"))
            schur = sf.power_to_schur(sub)
            for mu in pt.partitions(n):
                for nu in pt.partitions(n):
                    want = kronecker_coefficient(mu, nu, lam)
                    assert schur.get((mu, nu), 0) == want, (lam, mu, nu)


def test_substitute_identity_plan():
    f = s_gen((2, 1), 4)
    same = sf.substitute_variable_sets(f, {"x": [(("x",), 1)]}, ("x",))
    assert same == f


def test_substitute_doubling_matches_concrete_expansion():
    # e_2 of a doubled set means each variable occurs twice; brute force
    # e_2(a,a,b,b) over the 2+2 concrete variables and compare
    e2 = sf.e_series(("x",), "x", 2, 2)
    doubled = sf.substitute_variable_sets(e2, {"x": [(("y",), 2)]}, ("y",))
    target = {}
    for key, coeff in sf.power_to_schur(doubled).items():
        for mono, k in schur_polynomial(key[0], 2).items():
            target[mono] = target.get(mono, 0) + int(coeff) * k
    slots = [0, 0, 1, 1]  # variables a,a,b,b
    brute = {}
    for i in range(4):
        for j in range(i + 1, 4):
            mono = [0, 0]
            mono[slots[i]] += 1
            mono[slots[j]] += 1
            brute[tuple(mono)] = brute.get(tuple(mono), 0) + 1
    assert target == brute


def test_substitute_negative_multiplicity_cancels():
    # plan sends p_l(x) to p_l(x) + p_l(y) - p_l(y) = p_l(x)
    f = p_gen((3, 1), 4)
    plan = {"x": [(("x",), 1), (("y",), 1), (("y",), -1)]}
    out = sf.substitute_variable_sets(f, plan, ("x", "y"))
    assert out.terms == {((3, 1), ()): 1}


def test_mixed_denominators_by_hand():
    # every public entry point clears denominators with their lcm; check the
    # results against expansions worked out by hand
    F = Fraction
    f = SymSeries(("x",), 4, {((1,),): F(1, 3), ((2,),): F(2, 5)})
    # (p1/3 + 2 p2/5)^2
    assert sf.multiply(f, f).terms == {
        ((1, 1),): F(1, 9), ((2, 1),): F(4, 15), ((2, 2),): F(4, 25),
    }
    # p1 = s1, p2 = s2 - s11
    assert sf.power_to_schur(f) == {
        ((1,),): F(1, 3), ((2,),): F(2, 5), ((1, 1),): F(-2, 5),
    }
    # p_l(x) -> p_l(y) p_l(z)
    out = sf.substitute_variable_sets(f, {"x": [(("y", "z"), 1)]}, ("y", "z"))
    assert out.terms == {((1,), (1,)): F(1, 3), ((2,), (2,)): F(2, 5)}
    # Schur input of mixed degrees: s1/3 + 2 s11/5 = p1/3 + p11/5 - p2/5
    g = sf.schur_to_power(("x",), 4, {((1,),): F(1, 3), ((1, 1),): F(2, 5)})
    assert g.terms == {
        ((1,),): F(1, 3), ((1, 1),): F(1, 5), ((2,),): F(-1, 5),
    }
    out = sf.substitute_variable_sets(g, {"x": [(("y",), 1), (("z",), 1)]}, ("y", "z"))
    assert out.terms == {
        ((1,), ()): F(1, 3), ((), (1,)): F(1, 3),
        ((1, 1), ()): F(1, 5), ((1,), (1,)): F(2, 5), ((), (1, 1)): F(1, 5),
        ((2,), ()): F(-1, 5), ((), (2,)): F(-1, 5),
    }
    # (s1/3 + 2 s11/5) (2 s1/5) = 2 (s2 + s11)/15 + 4 (s21 + s111)/25
    h = sf.schur_to_power(("x",), 4, {((1,),): F(2, 5)})
    assert sf.power_to_schur(sf.multiply(g, h)) == {
        ((2,),): F(2, 15), ((1, 1),): F(2, 15),
        ((2, 1),): F(4, 25), ((1, 1, 1),): F(4, 25),
    }


def test_omega():
    for n in range(1, 6):
        en = sf.e_series(("x",), "x", n, n)
        hn = sf.h_series(("x",), "x", n, n)
        assert sf.omega(en, "x") == hn
    f = s_gen((2, 1), 4)
    assert sf.omega(f, "x") == f
    rng = random.Random(5)
    keys = pt.multipartitions_upto(2, 5)
    terms = {k: Fraction(rng.randint(-3, 3)) for k in rng.sample(keys, 10)}
    g = SymSeries(("x", "y"), 5, terms)
    assert sf.omega(sf.omega(g, "y"), "y") == g


def test_omega_conjugates_schur_functions():
    # omega(s_lam) = s_lam' (Macdonald I.3.8): a second route to omega
    for n in range(6):
        for lam in pt.partitions(n):
            image = sf.omega(s_gen(lam, 5), "x")
            assert sf.power_to_schur(image) == {(pt.conjugate(lam),): 1}


def hall_pairing(a: SymSeries, b: SymSeries) -> Fraction:
    """<p_lam, p_mu> = delta z_lam, extended multiplicatively over labels."""
    a._check(b)
    total = Fraction(0)
    for key, ca in a.terms.items():
        cb = b.terms.get(key)
        if cb is not None:
            total += ca * cb * prod(map(pt.z_factor, key))
    return total


def test_hall_pairing():
    shapes = [p for n in range(6) for p in pt.partitions(n)]
    for lam in shapes:
        for mu in shapes:
            val = hall_pairing(s_gen(lam, 5), s_gen(mu, 5))
            assert val == (1 if lam == mu else 0)
    assert hall_pairing(p_gen((2, 1), 5), p_gen((2, 1), 5)) == 2
    assert hall_pairing(p_gen((2,), 5), p_gen((1, 1), 5)) == 0


def test_cauchy_kernel():
    D = 6
    kern = sf.power_to_schur(sf.cauchy_kernel(D))
    assert kern.get(((), ()), 0) == 1
    assert kern.get(((1,), (1,)), 0) == 1
    assert kern.get(((1,), ()), 0) == 0
    for n in range(D // 2 + 1):
        for lam in pt.partitions(n):
            for mu in pt.partitions(n):
                want = 1 if lam == mu else 0
                assert kern.get((lam, mu), 0) == want
    # off-diagonal bidegrees vanish
    for key in kern:
        assert key[0] == key[1]


def test_he_and_logderivative_identities():
    D = 6
    # work coefficientwise in t: e[n], h[n] are the t^n coefficients
    e = [sf.e_series(("x",), "x", n, D) for n in range(D + 1)]
    h = [sf.h_series(("x",), "x", n, D) for n in range(D + 1)]
    # H(t) E(-t) = 1
    for n in range(1, D + 1):
        acc = SymSeries.zero(("x",), D)
        for k in range(n + 1):
            acc = acc + sf.multiply(h[n - k], e[k]).scale((-1) ** k)
        assert acc.is_zero()
    # E'(t)/E(t) = P(-t)  <=>  E'(t) = E(t) P(-t)
    for n in range(D):
        lhs = e[n + 1].scale(n + 1)
        rhs = SymSeries.zero(("x",), D)
        for k in range(n + 1):
            pk = p_gen((k + 1,), D).scale((-1) ** k)
            rhs = rhs + sf.multiply(e[n - k], pk)
        assert lhs == rhs


def test_format_series():
    f = p_gen((2, 1), 4) + p_gen((1,), 4).scale(-2)
    assert sf.format_series(f) == "-2*p{x:[1]} + p{x:[2,1]}"
    g = SymSeries(("x",), 3, {((2,),): Fraction(1, 2)})
    assert sf.format_series(g) == "1/2*p{x:[2]}"
    assert sf.format_series(SymSeries.zero(("x",), 3)) == "0"


def test_e_h_power_sum_expansions():
    for n in range(1, 7):
        en = sf.e_series(("x",), "x", n, n)
        hn = sf.h_series(("x",), "x", n, n)
        for lam in pt.partitions(n):
            key = (lam,)
            assert en.coefficient(key) == Fraction(pt.epsilon_sign(lam), pt.z_factor(lam))
            assert hn.coefficient(key) == Fraction(1, pt.z_factor(lam))
