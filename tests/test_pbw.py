import random
from collections import Counter
from fractions import Fraction

import pytest

from wreathgroth import groth as gr
from wreathgroth import kernels, pbw
from wreathgroth import ring as rg
from wreathgroth._exact import accumulate
from wreathgroth.errors import DomainError, MissingDataError
from wreathgroth.groth import GrothElement, mobius
from wreathgroth.partitions import mp_total, multipartitions_upto
from wreathgroth.pbw import PBWElement, RingSeries, sym, word_degree


Z = rg.integers()
C2 = rg.cyclic_group_algebra(2)
M2 = rg.matrix_ring(2)


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
            plus = pbw.theta_t(l, {0: dict(ring.unit), l: dict(U.coeffs)}, ring, D)
            inv_arg = {}
            # (1 + t^l U)^{-1} = sum_k (-1)^k t^(lk) U^k
            for k in range(0, D // l + 1):
                vec = (U ** k).coeffs if k else dict(ring.unit)
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
                f = sf.SymSeries.generator(
                    ring.labels, ring.labels[u], "s", kappa, mp_total(lam)
                )
                f = sf.schur_to_power(f)
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
                want = gr.e_generator(ring, r, ring.basis_element(u))
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
        assert pbw.lambda_on_e1(Z, n, one, 4) == gr.e_generator(Z, n, one)


def test_lambda_on_e1_c2_integral():
    g = C2.basis_element(1)
    for n in range(1, 5):
        out = pbw.lambda_on_e1(C2, n, g, 4)
        out.assert_integral()
    assert pbw.lambda_on_e1(C2, 1, g, 4) == gr.e_of(C2, 1, g)


def test_e_of_general_elements_match_oracle_series():
    # the combinatorial recursion for e_n(W) against the oracle E series
    cases = [
        (C2, C2.element("e - g")),
        (C2, C2.element("2*e + g")),
        (M2, M2.element("E12 + E21")),
        (M2, M2.element("E11 - E22")),
    ]
    for ring, W in cases:
        E = pbw.e_series_pbw(ring, W, 3)
        for n in range(4):
            assert pbw.to_z_basis(E.coefficient(n)) == gr.e_of(ring, n, W), (ring.name, n)


def test_x_basis_matches_generating_series():
    # the alternating e-correction in the unit's slot, applied to the full
    # generating series, must reproduce the Pieri-rule construction
    from wreathgroth import symfun as sf

    for ring in (Z, C2):
        D = 3
        unit = ring.unit_index()
        corr = {}
        for r in range(D + 1):
            for rho, c in sf.schur_to_p_row((1,) * r).items():
                key = [()] * ring.rank()
                key[unit] = rho
                k = (tuple(key), ())
                corr[k] = corr.get(k, Fraction(0)) + Fraction((-1) ** r) * c
        series = pbw.MixedSeries(ring, D, corr) * pbw.generating_series(ring, D)
        table = pbw.schur_coefficients(series)
        for lam in multipartitions_upto(ring.rank(), D):
            got = pbw.to_z_basis(table[lam])
            assert got == gr.x_basis_element(ring, lam), lam


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
                assert all(type(c) is Fraction for c in got.terms.values())
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


# upper-triangular 2x2 integer matrices: noncommutative, [E11, E12] = E12
UPPER = _config({"E11": 1, "E22": 1}, {
    ("E11", "E11"): {"E11": 1}, ("E11", "E12"): {"E12": 1},
    ("E12", "E22"): {"E12": 1}, ("E22", "E22"): {"E22": 1},
})
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
    assert {k: z.terms for k, z in big.ztable.items()} == {
        k: z.terms for k, z in fresh.ztable.items()
    }
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
    assert sum(calls.values()) == first == len(ring._caches["pbw_products"])
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
    assert other._caches["pbw_products"][w1, w2] != ring._caches["pbw_products"][w1, w2]
