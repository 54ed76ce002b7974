import hashlib
import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest

from wreathgroth import groth as gr
from wreathgroth import kernels, pbw
from wreathgroth import ring as rg
from wreathgroth._exact import accumulate, from_numerators, to_numerators
from wreathgroth.errors import DomainError, IntegralityError, MissingDataError
from wreathgroth.groth import GrothElement
from wreathgroth.partitions import (
    mn_character,
    mp_empty,
    mp_single,
    mp_total,
    multipartitions_upto,
    partitions,
    z_factor,
)
from wreathgroth.pbw import MixedSeries, PBWElement, RingSeries, mobius, sym, word_degree
from wreathgroth.symfun import _convert_int, _key_rows, p_to_schur_row


Z = rg.integers()
C2 = rg.cyclic_group_algebra(2)
M2 = rg.matrix_ring(2)
# upper-triangular 2x2 integer matrices: noncommutative, [E11, E12] = E12
UPPER = json.loads((Path(__file__).parent / "rings" / "upper_triangular.json").read_text())


def words(ring, *pairs_and_coeffs):
    terms = {}
    for word, c in pairs_and_coeffs:
        terms[tuple(sym(l, u) for l, u in word)] = Fraction(c)
    return terms


def normal_order(ring, word) -> PBWElement:
    """Rewrite an arbitrary word of (level, basis index) pairs into the
    normal-ordered basis, straight through the kernel."""
    encoded = tuple(sym(l, u) for l, u in word)
    got = kernels.normalize_product(encoded, (), ring.commutator_table())
    return PBWElement(ring, word_degree(encoded), got)


def test_normal_order_distinct_levels_swap_freely():
    out = normal_order(C2, [(2, 0), (1, 1)])
    assert out.terms == words(C2, ([(1, 1), (2, 0)], 1))


def test_normal_order_commutative_ring_is_sorting():
    out = normal_order(C2, [(1, 1), (1, 0)])
    assert out.terms == words(C2, ([(1, 0), (1, 1)], 1))


def test_normal_order_mat2_correction():
    # T1(E21) T1(E12) = T1(E12) T1(E21) + T1(E22) - T1(E11)
    out = normal_order(M2, [(1, 2), (1, 1)])
    assert out.terms == words(
        M2, ([(1, 1), (1, 2)], 1), ([(1, 3)], 1), ([(1, 0)], -1)
    )


def test_normal_order_confluence_random_words():
    # any bracketing of a product must normalize identically; associativity
    # of the word product is exactly PBW consistency
    rng = random.Random(9)
    gens = [(l, u) for l in (1, 2) for u in range(4)]
    for _ in range(40):
        w = [rng.choice(gens) for _ in range(rng.randint(2, 5))]
        full = normal_order(M2, w)
        for cut in range(1, len(w)):
            left = normal_order(M2, w[:cut])
            right = normal_order(M2, w[cut:])
            D = sum(l for l, _ in w)
            prod = PBWElement(M2, D, left.terms) * PBWElement(M2, D, right.terms)
            assert prod.terms == full.terms


def test_commutative_ring_never_needs_corrections():
    rng = random.Random(13)
    gens = [(l, u) for l in (1, 2, 3) for u in range(2)]
    for _ in range(20):
        w = [rng.choice(gens) for _ in range(4)]
        out = normal_order(C2, w)
        assert len(out.terms) == 1
        ((word, c),) = out.terms.items()
        assert c == 1
        assert word == tuple(sorted(sym(l, u) for l, u in w))


def test_ring_series_nested_constructor_gives_flat_terms():
    k2, k11 = ((2,), ()), ((1,), (1,))
    x = RingSeries(C2, 2, {
        k2: {0: 3, 1: 0},  # a zero entry
        k11: {1: Fraction(1, 2)},
        ((3,), ()): {0: 1},  # above the degree
        mp_empty(2): {},
    })
    assert x.terms == {(k2, 0): 3, (k11, 1): Fraction(1, 2)}
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in x.terms.values())
    assert RingSeries.one(M2, 3).terms == {(mp_empty(4), 0): 1, (mp_empty(4), 3): 1}
    # (p_1(x_e) g)^2 = p_1(x_e)^2 g^2 = p_1(x_e)^2 e, and the degree truncates
    pg = RingSeries(C2, 2, {((1,), ()): {1: 1}})
    assert (pg * pg).terms == {(((1, 1), ()), 0): 1}
    assert (pg * pg * pg).is_zero()


def test_ring_series_products_are_associative_and_distributive():
    rng = random.Random(11)
    D = 4
    for ring in (C2, M2):
        keys = multipartitions_upto(ring.rank(), D)

        def random_series():
            return RingSeries(ring, D, {
                rng.choice(keys): {
                    rng.randrange(ring.rank()): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in range(2)
                }
                for _ in range(4)
            })

        one = RingSeries.one(ring, D)
        for _ in range(4):
            x, y, z = random_series(), random_series(), random_series()
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z
            assert one * x == x == x * one


def test_theta_multiplicative():
    rng = random.Random(5)
    D = 4
    for ring in (C2, M2):
        keys = multipartitions_upto(ring.rank(), D)
        for _ in range(3):
            def random_arg():
                arg = RingSeries.one(ring, D)
                for _ in range(3):
                    key = rng.choice(keys)
                    if mp_total(key) == 0:
                        continue
                    vec = {rng.randrange(ring.rank()): rng.randint(-2, 2)}
                    arg = arg + RingSeries(ring, D, {key: vec})
                return arg

            x, y = random_arg(), random_arg()
            for l in (1, 2):
                lhs = pbw.theta(l, x, D) * pbw.theta(l, y, D)
                rhs = pbw.theta(l, x * y, D)
                assert lhs.terms == rhs.terms


def test_theta_of_one_and_inverse():
    D = 4
    one = RingSeries.one(C2, D)
    assert pbw.theta(1, one, D).terms == pbw.MixedSeries.one(C2, D).terms
    # Theta_l(1 + tU) Theta_l((1+tU)^{-1}) = 1, realized in the t-series form
    for ring in (Z, C2):
        for l in (1, 2):
            U = ring.basis_element(ring.rank() - 1)
            plus = pbw.theta_t(l, {0: dict(ring.unit), l: dict(U.terms)}, ring, D)
            inv_arg = {}
            # (1 + t^l U)^{-1} = sum_k (-1)^k t^(lk) U^k
            for k in range(0, D // l + 1):
                vec = (U ** k).terms if k else dict(ring.unit)
                inv_arg[l * k] = {u: (-1) ** k * c for u, c in vec.items()}
            minus = pbw.theta_t(l, inv_arg, ring, D)
            assert (plus * minus) == pbw.TSeries.one(ring, D)


def test_z_element_examples():
    # empty: 1.  single box: T1(U).  R=Z at (2): (T1^2 - T1)/2 + T2
    assert pbw.z_element_pbw(Z, ((),)).terms == {(): 1}
    assert pbw.z_element_pbw(Z, ((1,),)).terms == words(Z, ([(1, 0)], 1))
    got = pbw.z_element_pbw(Z, ((2,),))
    assert got.terms == {
        (sym(1, 0), sym(1, 0)): Fraction(1, 2),
        (sym(1, 0),): Fraction(-1, 2),
        (sym(2, 0),): Fraction(1),
    }
    for u in range(C2.rank()):
        key = [(), ()]
        key[u] = (1,)
        assert pbw.z_element_pbw(C2, tuple(key)).terms == words(C2, ([(1, u)], 1))


def test_z_leading_terms():
    # top filtration part of Z_lam: image of prod s_lam(U) under p_l -> l T_l(U)
    from wreathgroth import symfun as sf

    for ring in (C2, M2):
        for lam in multipartitions_upto(ring.rank(), 3):
            z = pbw.z_element_pbw(ring, lam)
            expect = {}
            series = None
            for u, kappa in enumerate(lam):
                if not kappa:
                    continue
                f = sf.SymSeries.schur(ring.labels, ring.labels[u], kappa, mp_total(lam))
                series = f if series is None else sf.multiply(series, f)
            if series is None:
                assert z.terms == {(): 1}
                continue
            for key, coeff in series.terms.items():
                scale = 1
                for p in key:
                    for part in p:
                        scale *= part
                expect[pbw.word_for_mp(key)] = coeff * scale
            top = {
                w: c
                for w, c in z.terms.items()
                if pbw.word_degree(w) == mp_total(lam)
            }
            assert top == expect


def test_to_z_round_trip():
    for ring in (Z, C2, M2):
        for lam in multipartitions_upto(ring.rank(), 3):
            z = pbw.z_element_pbw(ring, lam, 3)
            back = pbw.to_z_basis(z)
            assert back == GrothElement.basis(ring, lam)


def test_to_z_of_single_word():
    out = pbw.to_z_basis(PBWElement(Z, 1, words(Z, ([(1, 0)], 1))))
    assert out == GrothElement.basis(Z, ((1,),))
    sq = PBWElement(Z, 2, words(Z, ([(1, 0), (1, 0)], 1)))
    out = pbw.to_z_basis(sq)
    assert out == (
        GrothElement.basis(Z, ((1,),))
        + GrothElement.basis(Z, ((2,),))
        + GrothElement.basis(Z, ((1, 1),))
    )


def test_oracle_multiply_identity_and_golden_product():
    assert pbw.oracle_multiply(Z, ((),), ((1,),)) == GrothElement.basis(Z, ((1,),))
    got = pbw.oracle_multiply(Z, ((1,),), ((1,),))
    assert got == (
        GrothElement.basis(Z, ((1,),))
        + GrothElement.basis(Z, ((2,),))
        + GrothElement.basis(Z, ((1, 1),))
    )


def test_oracle_agrees_with_combinatorial_product():
    for ring in (C2, M2):
        keys = [k for k in multipartitions_upto(ring.rank(), 2)]
        for mu in keys:
            for nu in keys:
                if mp_total(mu) + mp_total(nu) > 3 or not mp_total(mu):
                    continue
                a = GrothElement.basis(ring, mu) * GrothElement.basis(ring, nu)
                b = pbw.oracle_multiply(ring, mu, nu)
                assert a == b, (mu, nu)


@pytest.mark.parametrize("ring", [rg.golden_ring(), M2], ids=["golden", "matrix2"])
def test_oracle_multiply_equals_the_product_of_z_elements(ring):
    keys = multipartitions_upto(ring.rank(), 4)
    for mu in keys:
        for nu in keys:
            degree = mp_total(mu) + mp_total(nu)
            if degree > 4:
                continue
            a = pbw.z_element_pbw(ring, mu, degree)
            b = pbw.z_element_pbw(ring, nu, degree)
            assert pbw.oracle_multiply(ring, mu, nu) == pbw.to_z_basis(a * b), (mu, nu)


def test_z_element_pbw_is_truncated_at_the_degree_asked_for():
    ring = rg.golden_ring.__wrapped__()  # a private instance: its caches start empty
    lam = ((1,), (1,))
    z = pbw.z_element_pbw(ring, lam)
    assert z.degree == 2
    pbw._zdata(ring, 4)
    again = pbw.z_element_pbw(ring, lam)
    assert again.degree == 2 and again == z  # whatever degree the table reached
    assert again.terms is not pbw.z_element_pbw(ring, lam).terms  # built on request
    assert pbw.z_element_pbw(ring, lam, 4) == PBWElement(ring, 4, z.terms)
    # below |mp| the element is Z_mp truncated, whether the table was built
    # for the call (fresh) or had already reached |mp| = 3 (grown)
    mp = ((2, 1), ())
    fresh = pbw.z_element_pbw(rg.golden_ring.__wrapped__(), mp, 2)
    whole = pbw.z_element_pbw(ring, mp)
    grown = pbw.z_element_pbw(ring, mp, 2)
    low = {w: c for w, c in whole.terms.items() if word_degree(w) <= 2}
    assert whole.degree == 3 and low and len(low) < len(whole.terms)
    for x in (fresh, grown):
        assert x.degree == 2 and x.terms == low
    integers = rg.integers.__wrapped__()
    assert repr(pbw.z_element_pbw(integers, ((2, 1),), 2)) == "PBW(2/3*T1(1) - T1(1)*T1(1))"


def test_a_key_of_another_rank_is_refused():
    ring = rg.golden_ring.__wrapped__()
    pbw._zdata(ring, 4)  # the table holds every key of rank 2 up to degree 4
    refused = r"^\(.*\) is not a Z-basis key of ring golden$"
    for key in (((1,),), ((1,), (), ())):
        with pytest.raises(DomainError, match=refused):
            pbw.z_element_pbw(ring, key)
        for mu, nu in ((key, ((1,), ())), (((1,), ()), key)):
            with pytest.raises(DomainError, match=refused):
                pbw.oracle_multiply(ring, mu, nu)


def test_the_oracle_builds_no_product_table():
    ring = rg.matrix_ring.__wrapped__(2)
    mu, nu = ((1,), (), (), ()), ((), (1,), (), ())
    assert pbw.oracle_multiply(ring, mu, nu) == pbw.oracle_multiply(ring, mu, nu)
    assert "pbw_zdata" in ring._caches
    assert "product_table" not in ring._caches


def test_mobius():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    for n in range(1, 31):
        total = sum(mobius(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0)


def test_f_series_both_paths_agree():
    for ring, el in [
        (Z, Z.one()),
        (C2, C2.basis_element(1)),
        (C2, C2.element("e+g")),
        (M2, M2.basis_element(1)),
        (M2, M2.element("E11 + E22")),
    ]:
        f = pbw.f_series(ring, el, 4)  # raises if the two paths disagree
        assert f.coefficient(1).terms == PBWElement.generator(ring, 4, 1, el).terms


def test_f_series_degree_two_example():
    # [t^2] F_U(t) = (e_1(U)^2 - e_1(U^2) - 2 e_2(U))/2 once moved to Z-land
    for ring, el in [(C2, C2.basis_element(1)), (M2, M2.basis_element(0))]:
        f = pbw.f_series(ring, el, 2)
        got = pbw.to_z_basis(f.coefficient(2))
        e1 = gr.e_of(ring, 1, el)
        e1sq = gr.e_of(ring, 1, el * el)
        e2 = gr.e_of(ring, 2, el)
        want = (e1 * e1 - e1sq - e2.scale(2)).scale(Fraction(1, 2))
        assert got == want


def test_e_series_pbw_matches_basis_columns():
    for ring in (C2, M2):
        for u in range(ring.rank()):
            E = pbw.e_series_pbw(ring, ring.basis_element(u), 3)
            for r in range(4):
                got = pbw.to_z_basis(E.coefficient(r))
                want = gr.e_of(ring, r, ring.basis_element(u))
                assert got == want


def test_adams_on_generators():
    U = C2.basis_element(1)
    x = PBWElement.generator(C2, 12, 1, U)
    assert pbw.adams(C2, 1, x) == x
    got = pbw.adams(C2, 2, x)
    # Psi_2(T_1(U)) = 2 T_2(U) + T_1(psi_2(U))
    want = PBWElement.generator(C2, 12, 2, U).scale(2) + PBWElement.generator(
        C2, 12, 1, C2.adams_apply(2, U)
    )
    assert got == want
    x2 = PBWElement.generator(C2, 12, 2, U)
    # Psi_2(T_2(U)) = 2 T_4(U): only d=1 passes the gcd condition
    assert pbw.adams(C2, 2, x2) == PBWElement.generator(C2, 12, 4, U).scale(2)


def test_adams_compose():
    for ring in (Z, C2):
        for u in range(ring.rank()):
            x = PBWElement.generator(ring, 24, 1, ring.basis_element(u))
            for m in (1, 2, 3):
                for n in (1, 2, 3):
                    lhs = pbw.adams(ring, m, pbw.adams(ring, n, x))
                    rhs = pbw.adams(ring, m * n, x)
                    assert lhs == rhs


def test_adams_is_algebra_map():
    rng = random.Random(17)
    D = 12
    gens = [(l, u) for l in (1, 2) for u in range(2)]
    for _ in range(6):
        w1 = tuple(sorted(sym(l, u) for l, u in rng.sample(gens, 2)))
        w2 = tuple(sorted(sym(l, u) for l, u in rng.sample(gens, 2)))
        x = PBWElement(C2, D, {w1: 1})
        y = PBWElement(C2, D, {w2: 2})
        assert pbw.adams(C2, 2, x * y) == pbw.adams(C2, 2, x) * pbw.adams(C2, 2, y)


def test_adams_missing_data():
    with pytest.raises(MissingDataError):
        pbw.adams(M2, 2, PBWElement.one(M2, 2))


def test_lambda_on_e1_integers():
    one = Z.one()
    assert pbw.lambda_on_e1(Z, 1, one) == gr.e_of(Z, 1, one)
    for n in range(1, 5):
        assert pbw.lambda_on_e1(Z, n, one, 4) == gr.e_of(Z, n, one)


def test_lambda_on_e1_c2_integral():
    g = C2.basis_element(1)
    for n in range(1, 5):
        out = pbw.lambda_on_e1(C2, n, g, 4)
        out.assert_integral()
    assert pbw.lambda_on_e1(C2, 1, g, 4) == gr.e_of(C2, 1, g)


def test_e_of_general_elements_match_oracle_series():
    # e_n(W) by Newton's identity against the oracle E series, for W outside
    # the basis: 44 cases, n <= 5 on the integers, 4 on golden and cyclic(2)
    # and 3 on matrix(2)
    golden = rg.golden_ring()
    cases = [
        (Z, Z.element({0: 2}), 5),
        (Z, Z.element({0: -1}), 5),
        (Z, Z.element({0: 3}), 5),
        (golden, golden.element("1 + x"), 4),
        (golden, golden.element("2*1 - x"), 4),
        (C2, C2.element("e - g"), 4),
        (C2, C2.element("2*e + g"), 4),
        (C2, C2.element("-e + 2*g"), 4),
        (M2, M2.element("E12 + E21"), 3),
        (M2, M2.element("E11 - E22"), 3),
        (M2, M2.element("E11 + 2*E12 - E21"), 3),
    ]
    for ring, W, N in cases:
        E = pbw.e_series_pbw(ring, W, N)
        for n in range(1, N + 1):
            assert pbw.to_z_basis(E.coefficient(n)) == gr.e_of(ring, n, W), (ring.name, W, n)


@pytest.mark.parametrize(
    "ring", [Z, rg.golden_ring(), C2, rg.cyclic_group_algebra(3), M2], ids=lambda r: r.name
)
def test_generators_are_signed_hook_sums(ring):
    # T_m(U) = (1/m) sum_{j<m} (-1)^j Z_{(m-j, 1^j) at U}: the power sums of
    # groth.e_of are these hook sums, checked here on the oracle's side
    for u in range(ring.rank()):
        for m in range(1, 6):
            hooks = GrothElement(ring, {
                mp_single(ring.rank(), u, (m - j,) + (1,) * j): Fraction((-1) ** j, m)
                for j in range(m)
            })
            got = pbw.to_z_basis(PBWElement.generator(ring, m, m, ring.basis_element(u)))
            assert got == hooks, (ring.labels[u], m)


# ---------------------------------------------------------------------------
# the generating series level by level: the reference for the lifted Theta_1

def generating_series(ring, degree: int) -> MixedSeries:
    """prod_{l<=degree} Theta_l(1 + sum_U p_l(x_U) U), one exp and log per
    level; levels above the truncation cannot reach degree <= D since T_l
    has filtration degree l."""
    rank = ring.rank()
    out = MixedSeries.one(ring, degree)
    for l in range(1, degree + 1):
        arg = RingSeries.one(ring, degree) + RingSeries(
            ring, degree, {mp_single(rank, u, (l,)): {u: 1} for u in range(rank)}
        )
        out = out * pbw.theta(l, arg, degree)
    return out


def schur_coefficients(series: MixedSeries) -> dict:
    """The Schur coefficients of a mixed series, each key's PBW coefficient
    as ({word: int}, den) in lowest terms, with a key whose coefficients all
    cancel left out."""
    nums, den = to_numerators(series.terms)
    by_word = {}
    for (pkey, w), c in nums.items():
        by_word.setdefault(w, {})[pkey] = c
    table = {}
    for w, terms in by_word.items():
        for skey, c in _convert_int(terms, _key_rows(p_to_schur_row)).items():
            table.setdefault(skey, {})[w] = c
    out = {}
    for mp, terms in table.items():
        g = gcd(den, *terms.values())
        out[mp] = ({w: c // g for w, c in terms.items()}, den // g)
    return out


# factories of private ring instances, whose caches start empty
TABLE_RINGS = {
    "integers": rg.integers.__wrapped__,
    "cyclic2": lambda: rg.cyclic_group_algebra.__wrapped__(2),
    "matrix2": lambda: rg.matrix_ring.__wrapped__(2),
    "golden": rg.golden_ring.__wrapped__,
    "upper": lambda: rg.ring_from_config(UPPER),
}


@pytest.mark.parametrize("make", TABLE_RINGS.values(), ids=TABLE_RINGS.keys())
def test_z_table_equals_the_level_by_level_series(make):
    ring = make()
    for D in range(1, 6):
        assert pbw._zdata(make(), D).ztable == schur_coefficients(generating_series(ring, D)), D


@pytest.mark.parametrize("make", TABLE_RINGS.values(), ids=TABLE_RINGS.keys())
def test_z_table_grown_step_by_step_equals_a_fresh_one(make):
    grown = make()
    for D in range(1, 6):
        data = pbw._zdata(grown, D)
    fresh = pbw._zdata(make(), 5)
    assert data.ztable == fresh.ztable
    assert data.word_to_z == fresh.word_to_z


@pytest.mark.parametrize("ring", [Z, C2, M2, rg.golden_ring()], ids=lambda r: r.name)
def test_top_parts_are_the_character_sums(ring):
    # top(Z_lam) = sum_sigma prod_U chi^{lam(U)}_{sigma(U)} pi(sigma(U)) / z_{sigma(U)} w_sigma,
    # pi the product of the parts: the image of prod_U s_{lam(U)} under p_l -> l T_l
    data = pbw._zdata(ring, 5)
    for lam in multipartitions_upto(ring.rank(), 5):
        want = {}
        for sigma in itertools.product(*(partitions(sum(p)) for p in lam)):
            c = prod(
                Fraction(mn_character(kappa, tau) * prod(tau), z_factor(tau))
                for kappa, tau in zip(lam, sigma)
            )
            if c:
                want[pbw.word_for_mp(sigma)] = c
        nums, den = data.ztable[lam]
        top = {w: Fraction(c, den) for w, c in nums.items() if word_degree(w) == mp_total(lam)}
        assert top == want, lam


def test_a_perturbed_series_fails_the_character_check(monkeypatch):
    theta = pbw.theta
    key = (((1, 1),), (sym(1, 0), sym(1, 0)))  # p_1^2 T1(1)^2 in Theta_1, 1/2

    def perturbed(l, x, degree):
        out = theta(l, x, degree)
        return out._like({**out.terms, key: out.terms[key] + 1})

    monkeypatch.setattr(pbw, "theta", perturbed)
    with pytest.raises(IntegralityError, match=re.escape(
        "top part of Z{1:[2]} differs at word T1(1)*T1(1): "
        "the series gives 3/2, the characters give 1/2"
    )):
        pbw._zdata(rg.integers.__wrapped__(), 3)


def e_series_by_levels(ring, W, degree):
    """prod_l Theta_l(1 - (-t)^l W), one Theta per level."""
    out = pbw.TSeries.one(ring, degree)
    for l in range(1, degree + 1):
        arg = {0: dict(ring.unit), l: {u: -((-1) ** l) * c for u, c in W.terms.items()}}
        out = out * pbw.theta_t(l, arg, ring, degree)
    return out


def lambda_series_by_levels(ring, U, degree):
    """prod_l Theta_l(sum_r (-1)^(r(l-1)) t^(rl) lambda^r(U)), one Theta per level."""
    out = pbw.TSeries.one(ring, degree)
    for l in range(1, degree + 1):
        arg = {}
        for r in range(0, degree // l + 1):
            vec = ring.lambda_apply(r, U)
            sign = (-1) ** (r * (l - 1))
            arg[r * l] = {u: sign * c for u, c in vec.terms.items()}
        out = out * pbw.theta_t(l, arg, ring, degree)
    return out


@pytest.mark.parametrize("ring,elements", [
    (Z, ["1", "2*1", "-1"]),
    (C2, ["e", "g", "e - g", "2*e + g"]),
    (rg.golden_ring(), ["1", "x", "2*1 - x"]),
    (M2, ["E11", "E12", "E12 + E21", "E11 - E22"]),
], ids=["integers", "cyclic2", "golden", "matrix2"])
def test_lifted_e_series_equals_the_level_by_level_product(ring, elements):
    for text in elements:
        W = ring.element(text)
        assert pbw.e_series_pbw(ring, W, 5) == e_series_by_levels(ring, W, 5), text


@pytest.mark.parametrize("ring", [Z, C2, rg.cyclic_group_algebra(3)], ids=lambda r: r.name)
def test_lifted_lambda_series_equals_the_level_by_level_product(ring):
    for u in range(ring.rank()):
        U = ring.basis_element(u)
        series = lambda_series_by_levels(ring, U, 4)
        for n in range(1, 5):
            assert pbw.lambda_on_e1(ring, n, U, 4) == pbw.to_z_basis(series.coefficient(n)), (u, n)


def test_x_basis_matches_generating_series():
    # the alternating e-correction in the unit's slot, applied to the full
    # generating series, must reproduce the Pieri-rule construction
    from wreathgroth import symfun as sf

    for ring in (Z, C2):
        D = 3
        unit = ring.unit_index()
        corr = {}
        for r in range(D + 1):
            for (rho,), c in sf.e_series(("x",), "x", r, r).terms.items():
                key = [()] * ring.rank()
                key[unit] = rho
                k = (tuple(key), ())
                corr[k] = corr.get(k, Fraction(0)) + Fraction((-1) ** r) * c
        series = pbw.MixedSeries(ring, D, corr) * generating_series(ring, D)
        table = schur_coefficients(series)
        for lam in multipartitions_upto(ring.rank(), D):
            got = pbw.to_z_basis(PBWElement(ring, D, from_numerators(*table[lam])))
            assert got == gr.x_basis_element(ring, lam), lam
    # p_1^2 - p_2 = 2 s_{1,1}: the contributions to s_2 cancel, and the key
    # is absent rather than held with a zero coefficient
    series = pbw.MixedSeries(Z, 2, {(((1, 1),), ()): 1, (((2,),), ()): -1})
    table = schur_coefficients(series)
    assert table == {((1, 1),): ({(): 2}, 1)}


def test_antipode_pbw():
    x = PBWElement(M2, 2, words(M2, ([(1, 1)], 1)))
    assert pbw.antipode_pbw(x).terms == words(M2, ([(1, 1)], -1))
    # S(T1(E21) T1(E12)) = T1(E12) T1(E21) reversed with sign (+1), normalized
    y = normal_order(M2, [(1, 2), (1, 1)])
    sy = pbw.antipode_pbw(PBWElement(M2, 2, y.terms))
    # check the anti-homomorphism law S(ab) = S(b)S(a) on generators
    a = PBWElement(M2, 2, words(M2, ([(1, 2)], 1)))
    b = PBWElement(M2, 2, words(M2, ([(1, 1)], 1)))
    assert sy == pbw.antipode_pbw(b) * pbw.antipode_pbw(a)


def test_symbol_packing_rejects_indices_past_16_bits():
    # the basis index lives in the low 16 bits of a symbol: a wider index
    # would alias another (level, index) pair, so it must be refused
    top = sym(3, 0xFFFF)
    assert (pbw.sym_level(top), pbw.sym_index(top)) == (3, 0xFFFF)
    for u in (0x10000, 0x10001, -1):
        with pytest.raises(DomainError):
            sym(1, u)


# ---------------------------------------------------------------------------
# the integer product core, the word-product memo and the grown inversion

def reference_mul(a: PBWElement, b: PBWElement) -> PBWElement:
    """The Fraction loop the integer core replaced, kept as the reference:
    every word pair straight from the kernel, one Fraction product each."""
    comm = a.ring.commutator_table()
    terms = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            if word_degree(w1) + word_degree(w2) <= a.degree:
                accumulate(terms, kernels.normalize_product(w1, w2, comm), c1 * c2)
    return PBWElement(a.ring, a.degree, terms)


def random_element(rng, ring, degree, denominators):
    gens = [(l, u) for l in (1, 2, 3) for u in range(ring.rank())]
    terms = {}
    for _ in range(rng.randint(1, 6)):
        letters = rng.sample(gens, rng.randint(0, 3))
        word = tuple(sorted(sym(l, u) for l, u in letters))
        terms[word] = Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.choice(denominators))
    return PBWElement(ring, degree, terms)


def test_integer_product_matches_fraction_reference():
    # denominators 2, 3, 4, 6 on one side and 5, 7, 35 on the other, so the
    # two common denominators differ; low truncations cut some word pairs
    rng = random.Random(23)
    cut = 0
    for ring in (M2, rg.golden_ring()):
        for _ in range(40):
            D = rng.randint(2, 6)
            a = random_element(rng, ring, D, (1, 2, 3, 4, 6))
            b = random_element(rng, ring, D, (1, 5, 7, 35))
            for x, y in ((a, b), (b, a)):
                got = x * y
                assert got.terms == reference_mul(x, y).terms
                assert all(
                    type(c) is (int if c.denominator == 1 else Fraction) for c in got.terms.values()
                )
            cut += any(
                word_degree(w1) + word_degree(w2) > D for w1 in a.terms for w2 in b.terms
            )
    assert cut


def _config(unit, products):
    labels = ["E11", "E12", "E22"]
    return {
        "basis": labels,
        "unit": unit,
        "mult": [
            {"left": l, "right": r, "out": products.get((l, r), {})}
            for l in labels for r in labels
        ],
    }


# Z x Z x Z on three orthogonal idempotents: commutative
DIAGONAL = _config(
    {"E11": 1, "E12": 1, "E22": 1}, {(u, u): {u: 1} for u in ("E11", "E12", "E22")}
)


def test_zdata_grown_equals_fresh_build():
    grown = rg.ring_from_config(UPPER)
    assert grown.validate() == []
    small = pbw._zdata(grown, 3)
    big = pbw._zdata(grown, 5)
    assert big is not small and small.degree == 3 and big.degree == 5
    assert grown._caches["pbw_zdata"] is big
    fresh = pbw._zdata(rg.ring_from_config(UPPER), 5)
    assert big.ztable == fresh.ztable
    assert big.word_to_z == fresh.word_to_z
    # the rows of degree <= 3 are the smaller table's, kept as they were
    for w, row in small.word_to_z.items():
        assert big.word_to_z[w] is row


def test_word_products_go_to_the_kernel_once_per_pair(monkeypatch):
    calls = Counter()
    kernel = kernels.normalize_product

    def counted(w1, w2, comm):
        calls[w1, w2] += 1
        return kernel(w1, w2, comm)

    monkeypatch.setattr(kernels, "normalize_product", counted)
    ring = rg.ring_from_config(UPPER)
    keys = [k for k in multipartitions_upto(ring.rank(), 2) if mp_total(k)]

    def all_products():
        for mu in keys:
            for nu in keys:
                pbw.oracle_multiply(ring, mu, nu)

    all_products()
    first = sum(calls.values())
    all_products()  # every word pair is a memo hit now
    memo = ring._caches["pbw_products"]
    assert sum(calls.values()) == first == sum(map(len, memo.values()))
    assert set(calls) == {(w1, w2) for w1, row in memo.items() for w2 in row}
    assert calls and max(calls.values()) == 1

    # a ring with other commutators keeps its own memo
    other = rg.ring_from_config(DIAGONAL)
    assert other.validate() == []
    w1, w2 = (sym(1, 1),), (sym(1, 0),)  # T1(E12) T1(E11), out of order
    a = PBWElement(ring, 2, {w1: 1}) * PBWElement(ring, 2, {w2: 1})
    b = PBWElement(other, 2, {w1: 1}) * PBWElement(other, 2, {w2: 1})
    assert a.terms == {(sym(1, 0), sym(1, 1)): 1, (sym(1, 1),): -1}
    assert b.terms == {(sym(1, 0), sym(1, 1)): 1}
    assert other._caches["pbw_products"] is not ring._caches["pbw_products"]
    assert other._caches["pbw_products"][w1][w2] != ring._caches["pbw_products"][w1][w2]


def test_word_product_memo_keeps_one_tuple_per_word():
    ring = rg.ring_from_config(UPPER)
    keys = [k for k in multipartitions_upto(ring.rank(), 3) if mp_total(k)]
    for mu in keys:
        for nu in keys:
            pbw.oracle_multiply(ring, mu, nu)
    words = [
        w for row in ring._caches["pbw_products"].values() for items in row.values() for w, _ in items
    ]
    distinct = {w: w for w in words}
    assert len(words) > len(distinct)
    assert all(w is distinct[w] for w in words)


# sha256 over repr(sorted (lam, word, c)) of z_element_pbw(ring, lam, d) for
# every |lam| <= d, taken while RingSeries still held nested coefficient vectors
ZTABLE_SHA256 = [
    (Z, 6, "1c43b7596fc49b619207c2fc6f49c11c1ac4f546cc75e73d4a43c12e03c108de"),
    (C2, 5, "252ec9f7c2f09574fec7c47b874675e24e85eef9ae23f81e6f03008f59634f88"),
    (rg.golden_ring(), 5, "2f3a3564e0b819e5a34076ab03ff6e602c5f52d1629eb12f6f9bfbada2fe8420"),
    (M2, 4, "c88a0425fdfd4261b418338ba3925b5ce219e121749599c6efc7a556542b84e7"),
]


@pytest.mark.parametrize(
    "ring,degree,digest", ZTABLE_SHA256, ids=[f"{r.name}-{d}" for r, d, _ in ZTABLE_SHA256]
)
def test_z_table_contents_are_pinned(ring, degree, digest):
    entries = sorted(
        (lam, w, Fraction(c))  # the digest was taken on Fraction coefficients
        for lam in multipartitions_upto(ring.rank(), degree)
        for w, c in pbw.z_element_pbw(ring, lam, degree).terms.items()
    )
    assert hashlib.sha256(repr(entries).encode()).hexdigest() == digest


# sha256 over repr(sorted (word, sorted (lam, c), den)) of the word_to_z rows
# of degree <= d, each row decoded to Z keys; taken while the rows were keyed
# by Z key and came from a second solve over the top parts
WORD_TO_Z_SHA256 = [
    (Z, 6, "26fb89ec1ddcfa545efaaf2ba95bfe6a1b04ed1192cfdb04966508180ff38d05"),
    (C2, 5, "23b6600d13e56e999efbce8e35646c825398f589e239e0038c8b456dfeab86d8"),
    (rg.golden_ring(), 5, "e23141c96783c172ed30dd693808f05217f76d0c48dc24a8a4fb68c9c03b58cb"),
    (M2, 4, "d5d4121bbd440ec2b103571bcb28d9c8dcd670a6ccc74485b4636f39bba4c4ce"),
]


@pytest.mark.parametrize(
    "ring,degree,digest", WORD_TO_Z_SHA256, ids=[f"{r.name}-{d}" for r, d, _ in WORD_TO_Z_SHA256]
)
def test_inverse_rows_are_pinned(ring, degree, digest):
    data = pbw._zdata(ring, degree)
    rows = sorted(
        (w, sorted((data.keys[p], c) for p, c in nums.items()), den)
        for w, (nums, den) in data.word_to_z.items()
        if word_degree(w) <= degree
    )
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


INVERSE_DEGREES = {"integers": 5, "cyclic2": 5, "matrix2": 4, "golden": 5, "upper": 5}


@pytest.mark.parametrize("name", INVERSE_DEGREES)
def test_each_inverse_row_sums_the_z_table_back_to_its_word(name):
    # sum_lam word_to_z[w][lam] Z_lam == w exactly, for every normal word w
    ring = TABLE_RINGS[name]()
    D = INVERSE_DEGREES[name]
    data = pbw._zdata(ring, D)
    assert data.keys == multipartitions_upto(ring.rank(), D)
    assert set(data.word_to_z) == {pbw.word_for_mp(sigma) for sigma in data.keys}
    for w, (row, den) in data.word_to_z.items():
        total = {}
        for p, c in row.items():
            nums, d = data.ztable[data.keys[p]]
            accumulate(total, nums, Fraction(c, den * d))
        assert total == {w: 1}, w


def test_a_non_integral_oracle_product_names_both_keys():
    ring = rg.cyclic_group_algebra.__wrapped__(2)
    data = pbw._zdata(ring, 3)
    mu, nu = mp_single(2, 1, (1,)), mp_single(2, 0, (2,))
    nums, den = data.ztable[mu]
    data.ztable[mu] = (nums, 2 * den)  # Z_mu / 2 in place of Z_mu
    with pytest.raises(IntegralityError, match=re.escape(
        "oracle product of Z{g:[1]} and Z{e:[2]} has non-integer coefficient 1/2"
    )):
        pbw.oracle_multiply(ring, mu, nu)
