import hashlib
import random

import pytest

from wreathgroth import groth as gr
from wreathgroth import ring as rg
from wreathgroth import symfun as sf
from wreathgroth.errors import DomainError
from wreathgroth.groth import GrothElement
from wreathgroth.partitions import mp_single, mp_total, multipartitions_upto


Z = rg.integers()
C2 = rg.cyclic_group_algebra(2)
M2 = rg.matrix_ring(2)


def zb(ring, *slot_parts):
    """Z-basis element from (slot, partition) pairs."""
    mp = [()] * ring.rank()
    for slot, parts in slot_parts:
        mp[slot] = tuple(parts)
    return GrothElement.basis(ring, tuple(mp))


def test_identity_is_neutral():
    one = GrothElement.one(C2)
    x = zb(C2, (0, (2, 1)), (1, (1,)))
    assert one * x == x
    assert x * one == x


def test_structure_constants_over_integers():
    assert gr.structure_constant(Z, ((),), ((1,),), ((1,),)) == 1
    assert gr.structure_constant(Z, ((),), ((1,),), ((2,),)) == 0
    assert gr.structure_constant(Z, ((1,),), ((1,),), ((1,),)) == 1
    assert gr.structure_constant(Z, ((1,),), ((1,),), ((2,),)) == 1
    assert gr.structure_constant(Z, ((1,),), ((1,),), ((1, 1),)) == 1


def test_golden_product_over_integers():
    z1 = zb(Z, (0, (1,)))
    prod = z1 * z1
    assert prod == zb(Z, (0, (1,))) + zb(Z, (0, (2,))) + zb(Z, (0, (1, 1)))


def test_empty_mu_is_kronecker_delta():
    for lam in multipartitions_upto(2, 3):
        for nu in multipartitions_upto(2, 3):
            want = 1 if lam == nu else 0
            assert gr.structure_constant(C2, ((), ()), nu, lam) == want


def test_associativity_on_small_basis():
    keys = multipartitions_upto(2, 2)
    rng = random.Random(1)
    picks = [rng.choice(keys) for _ in range(12)]
    for i in range(0, 12, 3):
        a, b, c = (GrothElement.basis(C2, k) for k in picks[i : i + 3])
        assert (a * b) * c == a * (b * c)


def test_integrality_of_products():
    for mu in multipartitions_upto(2, 2):
        for nu in multipartitions_upto(2, 2):
            prod = GrothElement.basis(C2, mu) * GrothElement.basis(C2, nu)
            prod.assert_integral()


def test_filtration_degree_of_products():
    rng = random.Random(4)
    keys = multipartitions_upto(2, 2)
    for _ in range(10):
        a = GrothElement.basis(C2, rng.choice(keys))
        b = GrothElement.basis(C2, rng.choice(keys))
        assert (a * b).degree() <= a.degree() + b.degree()


def test_leading_term_is_symmetric_function_product():
    # top-degree part of e_i(U) e_j(V) is the plain product of the Schur keys
    for ring, i, u, j, v in [(C2, 2, 0, 1, 1), (C2, 1, 0, 1, 0), (M2, 1, 1, 1, 2)]:
        a = gr.e_generator(ring, i, ring.basis_element(u))
        b = gr.e_generator(ring, j, ring.basis_element(v))
        top = (a * b).top_part()
        fa = sf.SymSeries.generator(
            ring.labels, ring.labels[u], "s", (1,) * i, i + j
        )
        fb = sf.SymSeries.generator(
            ring.labels, ring.labels[v], "s", (1,) * j, i + j
        )
        prod = sf.as_schur(sf.multiply(sf.schur_to_power(fa), sf.schur_to_power(fb)))
        want = GrothElement(ring, prod.terms)
        assert top == want


def test_e_generator_basics():
    assert gr.e_generator(C2, 0, C2.basis_element(0)) == GrothElement.one(C2)
    assert gr.e_generator(C2, 3, C2.basis_element(1)) == zb(C2, (1, (1, 1, 1)))
    assert gr.e_generator(C2, 2, C2.zero()).is_zero()


def test_e_linear_in_degree_one():
    e, g = C2.basis_element(0), C2.basis_element(1)
    assert gr.e_of(C2, 1, e + g) == gr.e_of(C2, 1, e) + gr.e_of(C2, 1, g)
    assert gr.e_of(Z, 1, 2 * Z.one()) == gr.e_of(Z, 1, Z.one()).scale(2)


def test_e_of_e2_matches_sum_formula():
    # e_2(U1+U2) = e_1(U1)e_1(U2) - e_1(U1 U2) + e_2(U1) + e_2(U2)
    e, g = C2.basis_element(0), C2.basis_element(1)
    lhs = gr.e_of(C2, 2, e + g)
    rhs = (
        gr.e_of(C2, 1, e) * gr.e_of(C2, 1, g)
        - gr.e_of(C2, 1, e * g)
        + gr.e_of(C2, 2, e)
        + gr.e_of(C2, 2, g)
    )
    assert lhs == rhs
    # and in matrix form with a noncommutative pair
    a, b = M2.basis_element(1), M2.basis_element(2)  # E12, E21
    lhs = gr.e_of(M2, 2, a + b)
    rhs = (
        gr.e_of(M2, 1, a) * gr.e_of(M2, 1, b)
        - gr.e_of(M2, 1, a * b)
        + gr.e_of(M2, 2, a)
        + gr.e_of(M2, 2, b)
    )
    assert lhs == rhs


def test_decompose_integrality_golden():
    G = rg.golden_ring()
    one, x = G.basis_element(0), G.basis_element(1)
    for n in range(1, 4):
        gr.e_of(G, n, one + x).assert_integral()
        gr.e_of(G, n, 2 * one - x).assert_integral()


def test_h_small_cases():
    e0 = C2.basis_element(0)
    assert gr.h_element(C2, 0, e0) == GrothElement.one(C2)
    assert gr.h_element(C2, 1, e0) == gr.e_of(C2, 1, e0)
    h2 = gr.h_element(C2, 2, e0)
    e1 = gr.e_of(C2, 1, e0)
    assert h2 == e1 * e1 - gr.e_of(C2, 2, e0)


def test_h_inverts_e_series():
    # (sum h_n(W) t^n) * E_W(-t) = 1 up to degree 4, W in the basis of ZC2
    D = 4
    for u in range(2):
        W = C2.basis_element(u)
        for n in range(1, D + 1):
            acc = GrothElement.zero(C2)
            for k in range(n + 1):
                term = gr.h_element(C2, n - k, W) * gr.e_of(C2, k, W)
                acc = acc + term.scale((-1) ** k)
            assert acc.is_zero()


def test_commutation_degree_one():
    # e_1(U)e_1(V) + e_1(VU) = e_1(V)e_1(U) + e_1(UV) on all basis pairs
    for ring in (C2, M2):
        for u in range(ring.rank()):
            for v in range(ring.rank()):
                U, V = ring.basis_element(u), ring.basis_element(v)
                lhs = gr.e_of(ring, 1, U) * gr.e_of(ring, 1, V) + gr.e_of(ring, 1, V * U)
                rhs = gr.e_of(ring, 1, V) * gr.e_of(ring, 1, U) + gr.e_of(ring, 1, U * V)
                assert lhs == rhs


def test_commuting_arguments_commute():
    for i in range(1, 3):
        for j in range(1, 3):
            U = C2.basis_element(1)
            assert gr.commutator(C2, i, j, U, U).is_zero()
            ok, _ = gr.verify_commutation(C2, i, j, U, C2.basis_element(0))
            assert ok


def test_mat2_nonzero_commutator():
    U, V = M2.basis_element(1), M2.basis_element(2)  # E12, E21
    ok, _ = gr.verify_commutation(M2, 1, 1, U, V)
    assert ok
    comm = gr.commutator(M2, 1, 1, U, V)
    want = gr.e_of(M2, 1, M2.basis_element(0)) - gr.e_of(M2, 1, M2.basis_element(3))
    assert comm == want
    assert not comm.is_zero()


def test_commutation_with_general_arguments():
    # the identity holds for arbitrary ring elements, not just basis ones
    U = C2.element("e+g")
    V = C2.element("e-g")
    for i in (1, 2):
        for j in (1, 2):
            ok, witness = gr.verify_commutation(C2, i, j, U, V)
            assert ok, witness
            assert gr.commutator(C2, i, j, U, V).is_zero()  # commutative ring
    U = M2.element("E11 + E12")
    V = M2.element("E21")
    for i in (1, 2):
        for j in (1, 2):
            ok, witness = gr.verify_commutation(M2, i, j, U, V)
            assert ok, witness


def test_h_of_general_element():
    W = C2.element("e+g")
    e1 = gr.e_of(C2, 1, W)
    assert gr.h_element(C2, 2, W) == e1 * e1 - gr.e_of(C2, 2, W)


def test_commutator_filtration_drop():
    for (ring, u, v) in [(M2, 1, 2), (M2, 0, 1), (C2, 0, 1)]:
        for i in range(1, 3):
            for j in range(1, 3):
                c = gr.commutator(ring, i, j, ring.basis_element(u), ring.basis_element(v))
                assert c.degree() <= i + j - 1


def test_x_basis():
    assert gr.x_basis_element(Z, ((),)) == GrothElement.one(Z)
    assert gr.x_basis_element(Z, ((1,),)) == zb(Z, (0, (1,))) - GrothElement.one(Z)
    # away from the unit a single column is untouched
    assert gr.x_basis_element(C2, ((), (1, 1))) == zb(C2, (1, (1, 1)))
    # unitriangular: X_lam = Z_lam + lower order terms
    for lam in multipartitions_upto(2, 3):
        x = gr.x_basis_element(C2, lam)
        assert x.coefficient(lam) == 1
        for key in x.terms:
            assert mp_total(key) <= mp_total(lam)
            if mp_total(key) == mp_total(lam):
                assert key == lam


def test_x_basis_requires_unit_in_basis():
    with pytest.raises(DomainError):
        gr.x_basis_element(M2, mp_single(4, 0, (1,)))


def test_gk_spanning_set_degree_one():
    out = gr.gk_spanning_set(Z, 1, 1)
    assert [m for m, _ in out] == [(), ((1, 0),)]
    assert out[0][1] == GrothElement.one(Z)
    assert out[1][1] == zb(Z, (0, (1,)))


def test_format_groth():
    x = zb(Z, (0, (1,))) + zb(Z, (0, (2,))).scale(-2)
    assert gr.format_groth(x) == "Z{1:[1]} - 2*Z{1:[2]}"
    assert gr.format_groth(GrothElement.zero(Z)) == "0"
    assert gr.format_groth(GrothElement.one(Z)) == "Z{}"


# sha256 over repr(sorted (mu, nu, lam, c) entries) of the whole table, taken
# from the Fraction-coefficient build that preceded the integer cores
TABLE_SHA256 = [
    (Z, 8, "563cf4432ccfb9207926663964d114b4d979a18a4dfe5ec893cba7108742bd9c"),
    (C2, 6, "0b46ceb29b929f4a2b571243067d5469fc23378d39ad803cd0dca2f9a58e5c3d"),
    (rg.golden_ring(), 6, "276d6e306b92166917e6d68ce00679a4bedb3ee1391ca2424bebb9ad8299144d"),
    (M2, 5, "3bb73ffad897018a73a6b8b158eb577e86d720c4f71dc7eec093998dff64035b"),
]


@pytest.mark.parametrize(
    "ring,degree,digest", TABLE_SHA256, ids=[f"{r.name}-{d}" for r, d, _ in TABLE_SHA256]
)
def test_product_table_contents_are_pinned(ring, degree, digest):
    table = gr.ProductTable(ring)
    table.ensure(degree)
    entries = sorted(
        (mu, nu, lam, c) for (mu, nu), row in table.pairs.items() for lam, c in row.items()
    )
    assert hashlib.sha256(repr(entries).encode()).hexdigest() == digest
