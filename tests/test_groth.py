import hashlib
import random
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from wreathgroth import groth as gr
from wreathgroth import ring as rg
from wreathgroth import symfun as sf
from wreathgroth import verify
from wreathgroth._exact import accumulate
from wreathgroth.errors import DomainError
from wreathgroth.groth import GrothElement
from wreathgroth.partitions import (
    conjugate,
    mp_single,
    mp_total,
    multipartitions,
    multipartitions_upto,
    partitions,
)


Z = rg.integers()
C2 = rg.cyclic_group_algebra(2)
M2 = rg.matrix_ring(2)


def commutation(ring, bd, U, V):
    """{(i, j): (left side, right side, [e_i(U), e_j(V)])} for i, j <= bd, read
    off the left-product tables of (U, V) and (V, U) as the commutation suite
    reads them."""
    uv, vu = gr.left_products(ring, bd, U, V), gr.left_products(ring, bd, V, U)
    return {(i, j): (a, vu[j, i][0], b - vu[j, i][1]) for (i, j), (a, b) in uv.items()}


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
    def constants(mu, nu):  # the row of (mu, nu), through the product
        return (GrothElement.basis(Z, mu) * GrothElement.basis(Z, nu)).terms

    assert constants(((),), ((1,),)).get(((1,),), 0) == 1
    assert constants(((),), ((1,),)).get(((2,),), 0) == 0
    assert constants(((1,),), ((1,),)).get(((1,),), 0) == 1
    assert constants(((1,),), ((1,),)).get(((2,),), 0) == 1
    assert constants(((1,),), ((1,),)).get(((1, 1),), 0) == 1


def test_golden_product_over_integers():
    z1 = zb(Z, (0, (1,)))
    prod = z1 * z1
    assert prod == zb(Z, (0, (1,))) + zb(Z, (0, (2,))) + zb(Z, (0, (1, 1)))


def test_empty_mu_is_kronecker_delta():
    for lam in multipartitions_upto(2, 3):
        for nu in multipartitions_upto(2, 3):
            want = 1 if lam == nu else 0
            product = GrothElement.basis(C2, ((), ())) * GrothElement.basis(C2, nu)
            assert product.coefficient(lam) == want


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


def top_part(x: GrothElement) -> GrothElement:
    d = x.degree()
    return GrothElement(x.ring, {k: c for k, c in x.terms.items() if mp_total(k) == d})


def test_leading_term_is_symmetric_function_product():
    # top-degree part of e_i(U) e_j(V) is the plain product of the Schur keys
    for ring, i, u, j, v in [(C2, 2, 0, 1, 1), (C2, 1, 0, 1, 0), (M2, 1, 1, 1, 2)]:
        a = gr.e_of(ring, i, ring.basis_element(u))
        b = gr.e_of(ring, j, ring.basis_element(v))
        top = top_part(a * b)
        fa = sf.SymSeries.schur(ring.labels, ring.labels[u], (1,) * i, i + j)
        fb = sf.SymSeries.schur(ring.labels, ring.labels[v], (1,) * j, i + j)
        want = GrothElement(ring, sf.power_to_schur(sf.multiply(fa, fb)))
        assert top == want


def test_e_generator_basics():
    assert gr.e_of(C2, 0, C2.basis_element(0)) == GrothElement.one(C2)
    assert gr.e_of(C2, 3, C2.basis_element(1)) == zb(C2, (1, (1, 1, 1)))
    assert gr.e_of(C2, 2, C2.zero()).is_zero()


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
    # (sum h_n(W) t^n) * E_W(-t) = 1, with h on the left: h_element recurses
    # with e on the left, so this is the other-sided identity.  W runs over
    # the basis of ZC2, non-basis elements of Mat2 (noncommutative) and of
    # the golden ring (x^2 = 1 + x), and the integers up to degree 6
    G = rg.golden_ring()
    cases = [(C2, C2.basis_element(u), 4) for u in range(2)] + [
        (M2, M2.element("E11 + E12"), 4),
        (M2, M2.element("E11 - E21"), 3),
        (G, G.element("1 + x"), 5),
        (G, G.element("2*1 - x"), 3),
        (Z, Z.basis_element(0), 6),
        (Z, Z.element("2*1"), 6),
        (Z, Z.element("-1"), 6),
    ]
    for ring, W, D in cases:
        for n in range(1, D + 1):
            acc = GrothElement.zero(ring)
            for k in range(n + 1):
                term = gr.h_element(ring, n - k, W) * gr.e_of(ring, k, W)
                acc = acc + term.scale((-1) ** k)
            assert acc.is_zero(), (ring.name, W, n)


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
    U = C2.basis_element(1)
    same, mixed = commutation(C2, 2, U, U), commutation(C2, 2, U, C2.basis_element(0))
    for i in range(1, 3):
        for j in range(1, 3):
            assert same[i, j][2].is_zero()
            lhs, rhs, _ = mixed[i, j]
            assert lhs == rhs


def test_ring_element_key_is_canonical():
    R = rg._cyclic(2, ("e", "g"), "C2")  # a ring with empty memos
    e, g = R.basis_element(0), R.basis_element(1)
    U, V = g + e, e + g
    assert list(U.terms) != list(V.terms)
    assert U.key() == V.key() and hash(U) == hash(V)
    assert rg.format_element(U) == rg.format_element(V) == "e + g"
    first = gr.e_of(R, 1, U)
    assert gr.e_of(R, 1, V) is first
    assert len(R.memo("e_of", dict)) == 1


def test_mat2_nonzero_commutator():
    U, V = M2.basis_element(1), M2.basis_element(2)  # E12, E21
    lhs, rhs, comm = commutation(M2, 1, U, V)[1, 1]
    assert lhs == rhs
    want = gr.e_of(M2, 1, M2.basis_element(0)) - gr.e_of(M2, 1, M2.basis_element(3))
    assert comm == want
    assert not comm.is_zero()


def test_commutation_with_general_arguments():
    # the identity holds for arbitrary ring elements, not just basis ones
    sides = commutation(C2, 2, C2.element("e+g"), C2.element("e-g"))
    for i in (1, 2):
        for j in (1, 2):
            lhs, rhs, comm = sides[i, j]
            assert lhs == rhs
            assert comm.is_zero()  # commutative ring
    sides = commutation(M2, 2, M2.element("E11 + E12"), M2.element("E21"))
    for i in (1, 2):
        for j in (1, 2):
            lhs, rhs, _ = sides[i, j]
            assert lhs == rhs, (i, j)


def test_h_of_general_element():
    W = C2.element("e+g")
    e1 = gr.e_of(C2, 1, W)
    assert gr.h_element(C2, 2, W) == e1 * e1 - gr.e_of(C2, 2, W)


def test_commutator_filtration_drop():
    for (ring, u, v) in [(M2, 1, 2), (M2, 0, 1), (C2, 0, 1)]:
        sides = commutation(ring, 2, ring.basis_element(u), ring.basis_element(v))
        for i in range(1, 3):
            for j in range(1, 3):
                c = sides[i, j][2]
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


@pytest.mark.parametrize(
    "ring,degree", [(r, d) for r, d, _ in TABLE_SHA256], ids=[f"{r.name}-{d}" for r, d, _ in TABLE_SHA256]
)
def test_constants_served_pair_by_pair_equal_the_complete_build(ring, degree):
    # a fresh table asked one pair at a time, in a seeded order, sweeps boxes
    # of blocks and grows whole degrees by turns; each row must be the one
    # the complete build holds, and that build lacks no pair of its degree
    full = gr.ProductTable(ring)
    full.ensure(degree)
    keys = multipartitions_upto(ring.rank(), degree)
    pairs = [(mu, nu) for mu in keys for nu in keys if mp_total(mu) + mp_total(nu) <= degree]
    random.Random(degree).shuffle(pairs)
    served = gr.ProductTable(ring)
    boxes = 0
    for mu, nu in pairs:
        served.ensure(mp_total(mu) + mp_total(nu), ((mu,), (nu,)))
        assert served.pairs[mu, nu] == full.pairs[mu, nu], (mu, nu)
        boxes = max(boxes, len(served.boxes))
    assert boxes and served.degree == degree
    assert set(full.pairs) == set(pairs)


def test_sparse_commutation_demand_leaves_the_table_small():
    # the commutation sides to bidegree (3,3) reach total degree 6 by left
    # products through Newton levels, which leave the table far below the
    # whole degree-6 table (11,139 pairs on the 2x2 matrices)
    names = ("E11", "E12", "E21", "E22")
    config = {
        "basis": list(names),
        "unit": {"E11": 1, "E22": 1},
        "mult": [
            {"left": a, "right": b, "out": {f"E{a[1]}{b[2]}": 1} if a[2] == b[1] else {}}
            for a in names for b in names
        ],
    }
    ring = rg.ring_from_config(config)
    U, V = ring.basis_element(1), ring.basis_element(2)
    lhs, rhs, _ = commutation(ring, 3, U, V)[3, 3]
    assert lhs == rhs
    table = gr.product_table(ring)
    assert table.degree < 6
    assert len(table.pairs) < 1000


def test_integer_product_equals_the_fraction_loop():
    def reference(a, b):
        table = gr.product_table(a.ring)
        terms = {}
        for mu, ca in a.terms.items():
            for nu, cb in b.terms.items():
                table.ensure(mp_total(mu) + mp_total(nu), ((mu,), (nu,)))
                for lam, c in table.pairs[mu, nu].items():
                    terms[lam] = terms.get(lam, 0) + ca * cb * c
        return GrothElement(a.ring, terms)

    rng = random.Random(11)
    for ring, d in ((C2, 3), (M2, 2)):
        keys = multipartitions_upto(ring.rank(), d)
        for _ in range(6):
            a = GrothElement(ring, {rng.choice(keys): Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4))) for _ in range(4)})
            b = GrothElement(ring, {rng.choice(keys): Fraction(rng.randint(-9, 9), rng.choice((1, 5, 7))) for _ in range(4)})
            assert gr.z_multiply(a, b) == reference(a, b)
            assert gr.z_multiply(b, a) == reference(b, a)


def _e_of_cases():
    """(ring, n, W): every W outside the basis with coefficients in
    {0, +-1, +-2} on golden and cyclic(2) for n <= 4, and a fixed sample of
    20 such W on matrix(2) for n <= 3."""
    values = (-2, -1, 0, 1, 2)
    for ring in (rg.golden_ring(), C2):
        for a in values:
            for b in values:
                W = ring.element({0: a, 1: b})
                if not W.is_zero() and W.basis_index() is None:
                    for n in range(1, 5):
                        yield ring, n, W
    rng = random.Random(11)
    sample = []
    while len(sample) < 20:
        W = M2.element({u: rng.choice(values) for u in range(4)})
        if not W.is_zero() and W.basis_index() is None and W not in sample:
            sample.append(W)
    for W in sample:
        for n in range(1, 4):
            yield M2, n, W


# sha256 over the lines "ring n W e_n(W)" of _e_of_cases, taken while
# power_sum still computed in Fractions and before the basis F-coefficients
# were memoised
E_OF_SHA256 = "5fce856882ca090ed768c6660acf511767c86ad5195ff382a9413714c1514686"


def test_e_of_outside_the_basis_is_pinned():
    lines = "\n".join(
        f"{ring.name} {n} {W!r} {gr.format_groth(gr.e_of(ring, n, W))}"
        for ring, n, W in _e_of_cases()
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == E_OF_SHA256


# sha256 over the lines "ring n W h_n(W)" of _e_of_cases, taken while
# h_element was still the Jacobi-Trudi first row through z_multiply
H_OF_SHA256 = "d5efb12d2d2f2fab4be2a12f812e019c19d3e393fbe945ffd57f78eb25345a38"


def test_h_element_outside_the_basis_is_pinned():
    lines = "\n".join(
        f"{ring.name} {n} {W!r} {gr.format_groth(gr.h_element(ring, n, W))}"
        for ring, n, W in _e_of_cases()
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == H_OF_SHA256


def _generator_lines():
    """The lines "ring x n W x_n(W)" for every W in {+-1, +-2}^rank outside
    the basis, to perfbench's generators shape, on fresh instances of its
    three rings."""
    shapes = (
        (rg.integers.__wrapped__, 5, 5),
        (rg.golden_ring.__wrapped__, 5, 4),
        (lambda: rg.cyclic_group_algebra.__wrapped__(2), 4, 3),
    )
    for make, top_e, top_h in shapes:
        ring = make()
        for vec in product((1, -1, 2, -2), repeat=ring.rank()):
            W = ring.element(dict(enumerate(vec)))
            if W.basis_index() is None:
                for x, generator, top in (("e", gr.e_of, top_e), ("h", gr.h_element, top_h)):
                    for n in range(1, top + 1):
                        yield f"{ring.name} {x} {n} {W!r} {gr.format_groth(generator(ring, n, W))}"


def _matrix_generator_lines():
    ring = rg.matrix_ring.__wrapped__(2)
    for text in ("E11 + E12", "E11 - 2*E21", "2*E12 - E21 + E22", "-E11 + 2*E22", "E11 + E12 + E21"):
        W = ring.element(text)
        for x, generator in (("e", gr.e_of), ("h", gr.h_element)):
            for n in range(1, 4):
                yield f"{ring.name} {x} {n} {W!r} {gr.format_groth(generator(ring, n, W))}"


def _left_product_lines():
    for make in (lambda: rg.matrix_ring.__wrapped__(2), rg.golden_ring.__wrapped__):
        ring = make()
        basis = [ring.basis_element(u) for u in range(ring.rank())]
        for U in basis:
            for V in basis:
                for (i, j), (lhs, rhs) in gr.left_products(ring, 3, U, V).items():
                    yield f"{ring.name} {U!r} {V!r} {i} {j} {gr.format_groth(lhs)} | {gr.format_groth(rhs)}"


# sha256 over the lines of each generator, taken while the Newton loop still
# summed its power sums one k at a time
NEWTON_SHA256 = (
    (_generator_lines, "dcacb94b851a9e8f215f174fcf745b7e503ac69d437eb4d5899ab07bd7d8cafa"),
    (_matrix_generator_lines, "2d766a9bba28f2b77fdb9578d19732b664607caed8a1a86b4694d1726d79069b"),
    (_left_product_lines, "e2f875e7bf1d643af53c73e2d6412dee5820c34816cb396d8ed2694348d7231c"),
)


@pytest.mark.parametrize("lines, digest", NEWTON_SHA256, ids=("generators", "Mat2", "left_products"))
def test_newton_loop_outputs_are_pinned(lines, digest):
    assert hashlib.sha256("\n".join(lines()).encode()).hexdigest() == digest


UPPER_PATH = Path(__file__).parent / "rings" / "upper_triangular.json"
UPPER = rg.load_ring(str(UPPER_PATH))


def _hooks(ring, m, u) -> GrothElement:
    """m T_m(U) as the signed hook sum sum_{j<m} (-1)^j Z_{(m-j, 1^j) at U}."""
    return GrothElement(ring, {
        mp_single(ring.rank(), u, (m - j,) + (1,) * j): (-1) ** j for j in range(m)
    })


@pytest.mark.parametrize(
    "ring",
    [Z, C2, rg.cyclic_group_algebra(3), rg.golden_ring(), M2, UPPER],
    ids=lambda r: r.name,
)
def test_ribbon_rule_equals_the_table_product_of_the_hook_sum(ring):
    top = 4 if ring.rank() == 4 else 5
    for nu in multipartitions_upto(ring.rank(), top - 1):
        for m in range(1, min(4, top - mp_total(nu)) + 1):
            for u in range(ring.rank()):
                want = gr.z_multiply(_hooks(ring, m, u), GrothElement.basis(ring, nu))
                got = gr._primitive_product(ring, m, u, nu)
                assert GrothElement(ring, got) == want, (m, u, nu)


def test_ribbon_rule_on_the_integers_squares_z1():
    square = gr._primitive_product(Z, 1, 0, ((1,),))
    assert square == {((2,),): 1, ((1, 1),): 1, ((1,),): 1}


def _h_by_jacobi_trudi(ring, n, W) -> GrothElement:
    """h_n(W) = sum_{k=1..n} (-1)^(k-1) e_k(W) h_{n-k}(W), the first row of
    the row-ordered Jacobi-Trudi determinant, through z_multiply."""
    hs = [GrothElement.one(ring)]
    for m in range(1, n + 1):
        total = GrothElement.zero(ring)
        for k in range(1, m + 1):
            total = total + (gr.e_of(ring, k, W) * hs[m - k]).scale((-1) ** (k - 1))
        hs.append(total)
    return hs[n]


@pytest.mark.parametrize(
    "ring,elements,top",
    [
        (M2, ("E11 + E12", "E11 - E21", "E12", "2*E11 + E22"), 4),
        (UPPER, ("E11 + E12", "E12 - E22", "E22"), 4),
        (rg.cyclic_group_algebra(3), ("e + g1", "g1 - 2*g2", "g2"), 4),
        (rg.golden_ring(), ("1 + x", "2*1 - x", "x"), 4),
        (Z, ("1", "2*1", "-1", "3*1"), 6),
    ],
    ids=lambda v: v.name if isinstance(v, rg.BaseRing) else None,
)
def test_h_element_equals_the_jacobi_trudi_route(ring, elements, top):
    for text in elements:
        W = ring.element(text)
        for n in range(top + 1):
            assert gr.h_element(ring, n, W) == _h_by_jacobi_trudi(ring, n, W), (text, n)


def test_h_keeps_the_table_at_degree_n():
    # h_n(W) takes no product from the table, so a fresh ring's product
    # table grows no further than n
    one = {"basis": ["1"], "unit": {"1": 1}, "mult": [{"left": "1", "right": "1", "out": {"1": 1}}]}
    c2 = {
        "basis": ["e", "g"],
        "unit": {"e": 1},
        "mult": [
            {"left": a, "right": b, "out": {"e" if a == b else "g": 1}}
            for a in "eg" for b in "eg"
        ],
    }
    for config, elem, n in ((one, "1", 4), (one, "2*1", 4), (c2, "g", 3), (c2, "e+g", 3)):
        ring = rg.ring_from_config(config)
        gr.h_element(ring, n, ring.element(elem))
        assert gr.product_table(ring).degree <= n, (elem, n)


def test_e_and_h_build_no_product_table():
    # Newton's identity applies its power sums by the ribbon rule, so neither
    # e_n(W) nor h_n(W) asks any product table for a product, over rank 1 and
    # rank 2, for W in the basis and outside it
    one = {"basis": ["1"], "unit": {"1": 1}, "mult": [{"left": "1", "right": "1", "out": {"1": 1}}]}
    cases = (
        (rg.ring_from_config(one), ("1", "2*1")),
        (rg.cyclic_group_algebra.__wrapped__(2), ("e + g", "2*e - g", "g")),  # a private instance
    )
    for ring, elements in cases:
        for W in map(ring.element, elements):
            for n in range(6):
                gr.e_of(ring, n, W)
                gr.h_element(ring, n, W)
        assert "product_table" not in ring._caches, ring.name


LEFT_ACTION_RINGS = (
    (rg.integers.__wrapped__, {0: 2}, 6),
    (lambda: rg.cyclic_group_algebra.__wrapped__(2), {0: 2, 1: -1}, 6),
    (rg.golden_ring.__wrapped__, {0: 2, 1: -1}, 6),
    (lambda: rg.matrix_ring.__wrapped__(2), {0: 2, 1: -1}, 5),
)


@pytest.mark.parametrize("make, other, top", LEFT_ACTION_RINGS, ids=("Z", "ZC2", "golden", "Mat2"))
def test_newton_levels_multiply_on_the_left_as_the_product_table_does(make, other, top):
    # the levels of Newton's identity from y = Z_mu are x_m(W) Z_mu; on a
    # fresh ring every product below goes through the table's box sweeps
    # until its demand is dense, a route the battery no longer takes above
    # degree 4
    ring = make()  # a private instance: its table starts empty
    for W in (ring.basis_element(ring.rank() - 1), ring.element(other)):
        for x, generator in (("e", gr.e_of), ("h", gr.h_element)):
            for mu in multipartitions_upto(ring.rank(), top):
                y = GrothElement.basis(ring, mu)
                levels = gr._newton(ring, top - mp_total(mu), W, x, y)
                for m, got in enumerate(levels):
                    assert got == gr.z_multiply(generator(ring, m, W), y), (W, x, m, mu)


def test_the_commutation_suite_leaves_the_table_at_degree_4_with_no_boxes():
    # the crosscheck builds the complete degree-4 table; the commutation
    # checks reach bidegree (3,3), total degree 6, by left products by
    # generators, so they sweep no box above it
    for ring in (rg.cyclic_group_algebra.__wrapped__(2), rg.matrix_ring.__wrapped__(2)):
        for suite in ("oracle-crosscheck", "commutation"):
            assert verify.run_suite(suite, ring, 4, 0).passed, (ring.name, suite)
        table = gr.product_table(ring)
        assert (table.degree, table.boxes) == (4, []), ring.name


LEFT_PRODUCT_RINGS = (
    (lambda: rg.matrix_ring.__wrapped__(2), "E11 - 2*E12"),
    (rg.golden_ring.__wrapped__, "1 - 2*x"),
    (lambda: rg.cyclic_group_algebra.__wrapped__(3), "g1 - 2*g2"),
)


@pytest.mark.parametrize("make, other", LEFT_PRODUCT_RINGS, ids=("Mat2", "golden", "ZC3"))
def test_left_products_are_the_products_on_the_table(make, other):
    # every entry against its product on the table, for U and V over the
    # basis and one element outside it: a term stored under the wrong (a, k, b)
    # can leave both sides of the commutation identity equal and every
    # commutator in its filtration degree, so the suite alone would not see it
    ring = make()  # a private instance: shared caches stay clean
    elements = [ring.basis_element(u) for u in range(ring.rank())] + [ring.element(other)]
    for U in elements:
        for V in elements:
            VU = V * U
            for (i, j), (lhs, product) in gr.left_products(ring, 3, U, V).items():
                terms = (
                    gr.e_of(ring, i - k, U) * gr.h_element(ring, k, VU) * gr.e_of(ring, j - k, V)
                    for k in range(min(i, j) + 1)
                )
                assert lhs == sum(terms, GrothElement.zero(ring)), (U, V, i, j)
                assert product == gr.e_of(ring, i, U) * gr.e_of(ring, j, V), (U, V, i, j)


def test_the_commutation_tables_do_not_outlive_the_suite():
    # the suite keeps its tables for its run only: afterwards the ring holds
    # the product table of the degree-one check, the generators' memos, the
    # powers of each W they were taken of and the ribbon-rule rows they read
    cases = (
        (
            rg.matrix_ring.__wrapped__(2),
            {"h_of": 15, "powers": 5, "ribbon_rows": 12, "ribbon_items": 502},
            394,
            53,
        ),
        (
            rg.golden_ring.__wrapped__(),
            {"e_of": 1, "h_of": 9, "powers": 3, "ribbon_rows": 6, "ribbon_items": 164},
            107,
            19,
        ),
    )
    for ring, memos, rows, pairs in cases:  # private instances: their caches start empty
        assert verify.suite_commutation(ring, 4, 0).passed, ring.name
        caches = dict(ring._caches)
        table = caches.pop("product_table")
        assert {name: len(memo) for name, memo in caches.items()} == memos, ring.name
        assert sum(map(len, caches["ribbon_rows"].values())) == rows, ring.name
        assert (table.degree, len(table.pairs)) == (2, pairs), ring.name


WARM_RINGS = (
    (rg.integers.__wrapped__, ("2*1", "-1", "3*1")),
    (lambda: rg.cyclic_group_algebra.__wrapped__(2), ("e - g", "2*e + g", "g")),
    (lambda: rg.cyclic_group_algebra.__wrapped__(3), ("e + g1", "g1 - 2*g2", "g2")),
    (rg.golden_ring.__wrapped__, ("1 + x", "2*1 - x", "x")),
    (lambda: rg.matrix_ring.__wrapped__(2), ("E11 + E12", "E11 - 2*E21", "E22")),
    (lambda: rg.load_ring(str(UPPER_PATH)), ("E11 + E12", "E12 - E22", "E22")),
)


@pytest.mark.parametrize("make, texts", WARM_RINGS, ids=("Z", "ZC2", "ZC3", "golden", "Mat2", "upper"))
def test_warm_rows_and_powers_give_the_cold_results(make, texts, monkeypatch):
    # the ring's ribbon-rule rows and powers, filled by one W, serve the next
    # ones: every e_n, h_n (n <= 5) and left product (bound 3) of a later W
    # equals its value on a fresh instance, each (m, u, nu) row is built
    # once per instance, and a fresh instance builds its own
    built = {}  # id(ring) -> the (m, u, nu) rows built on it
    primitive_product = gr._primitive_product

    def counted(ring, m, u, nu):
        built.setdefault(id(ring), []).append((m, u, nu))
        return primitive_product(ring, m, u, nu)

    def values(ring, text) -> list:
        W, V = ring.element(text), ring.element(texts[0])
        out = [gr.e_of(ring, n, W).terms for n in range(6)]
        out += [gr.h_element(ring, n, W).terms for n in range(6)]
        return out + [(a.terms, b.terms) for a, b in gr.left_products(ring, 3, W, V).values()]

    monkeypatch.setattr(gr, "_primitive_product", counted)
    warm = make()
    for n in range(6):
        gr.e_of(warm, n, warm.element(texts[0]))
        gr.h_element(warm, n, warm.element(texts[0]))
    for text in texts[1:]:
        cold = make()
        assert values(warm, text) == values(cold, text), text
        assert set(built[id(cold)]) & set(built[id(warm)]), text  # rebuilt, not shared
    for ring_id, rows in built.items():
        assert len(rows) == len(set(rows)), ring_id
    memo = warm._caches["ribbon_rows"]
    assert len(built[id(warm)]) == sum(map(len, memo.values()))
    items = warm._caches["ribbon_items"]
    assert all(items[item] is item for rows in memo.values() for row in rows.values() for item in row)


def test_e_of_memoises_only_w_itself():
    # Newton's identity reads e_n(W) off the hook sums of W, W^2, ...: no
    # e_n of a power W^r is taken and no F-coefficient is kept
    ring = rg.cyclic_group_algebra.__wrapped__(2)  # a private instance: shared caches stay clean
    elements = [ring.element({0: a, 1: b}) for a, b in ((1, 1), (2, -1), (0, -1), (1, -2))]
    for W in elements:
        for n in range(1, 5):
            gr.e_of(ring, n, W)
    assert set(ring._caches["e_of"]) == {(W.key(), n) for W in elements for n in range(1, 5)}
    assert "f_basis" not in ring._caches


def _convert_slot_by_slot(terms: dict, row) -> dict:
    """The change of basis one slot at a time over every slot, as the product
    table sweep once made it: the reference for the row-per-key forms."""
    for slot in range(len(next(iter(terms), ()))):
        out: dict = {}
        for key, coeff in terms.items():
            if not key[slot]:
                out[key] = out.get(key, 0) + coeff
                continue
            head, tail = key[:slot], key[slot + 1:]
            for q, rc in row(key[slot]).items():
                k = head + (q,) + tail
                out[k] = out.get(k, 0) + coeff * rc
        terms = {k: c for k, c in out.items() if c}
    return terms


def _random_partition(rng, n):
    parts = []
    while n:
        parts.append(rng.randint(1, n))
        n -= parts[-1]
    return tuple(sorted(parts, reverse=True))


@pytest.mark.parametrize("k", [1, 2, 4])
def test_row_per_key_conversion_equals_the_slot_by_slot_reference(k):
    rng = random.Random(k)
    for _ in range(8):
        terms = {}
        for _ in range(rng.randint(1, 30)):
            sizes = [rng.choice((0, 0, 1, 2, 3)) for _ in range(2 * k)]
            key = tuple(_random_partition(rng, s) for s in sizes)
            terms[key] = terms.get(key, 0) + rng.randint(-9, 9)
        terms = {key: c for key, c in terms.items() if c}
        for row in (sf.p_to_schur_row, sf.scaled_schur_to_p_row):
            want = _convert_slot_by_slot(terms, row)
            assert sf._convert_int(terms, sf._key_rows(row)) == want
            pairs = gr._schur_pairs(terms, k, sf._key_rows(row))
            assert {mu + nu: c for (mu, nu), c in pairs.items()} == want


# ---------------------------------------------------------------------------
# e_n(W) and h_n(W) as Schur specialisations of the Z basis:
# prod_l Theta_l(1 + sum_U p_l(x_U) U) = sum_lam prod_U s_lam(U)(x_U) Z_lam, and
# E_W(t), H_W(t) = E_W(-t)^-1 are this series at p_l(x_U) -> (-1)^(l-1) t^l W_U
# and at p_l(x_U) -> sum_r (W^r)_U t^(rl).  The route takes no product in the
# Z basis, no ribbon and no character: hook contents for e, Jacobi-Trudi for h.

def schur_at_ones(kappa, c):
    """s_kappa(1^c) = prod over the boxes (i, j) of (c + j - i) / hook(i, j),
    a polynomial in c (Macdonald, Symmetric Functions and Hall Polynomials,
    I.3 ex. 4), so c may be negative."""
    cols = conjugate(kappa)
    out = Fraction(1)
    for i, row in enumerate(kappa):
        for j in range(row):
            out *= Fraction(c + j - i, row - j + cols[j] - i - 1)
    return out


def poly_mul(a: dict, b: dict, n: int) -> dict:
    """Product of polynomials {degree: coefficient} in t, truncated above t^n."""
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            if i + j <= n:
                out[i + j] = out.get(i + j, 0) + x * y
    return out


def schur_of_alphabet(power, n: int) -> dict:
    """{kappa: s_kappa[A]} for |kappa| <= n, as polynomials in t truncated
    above t^n, from the power sums power[l] = p_l[A]: h_k and e_k by Newton's
    identity, then the Jacobi-Trudi determinant in h (or in e by the
    conjugate, whichever is smaller)."""
    h, e = [{0: Fraction(1)}], [{0: Fraction(1)}]
    for k in range(1, n + 1):
        hk, ek = {}, {}
        for l in range(1, k + 1):
            accumulate(hk, poly_mul(power[l], h[k - l], n), Fraction(1, k))
            accumulate(ek, poly_mul(power[l], e[k - l], n), Fraction((-1) ** (l - 1), k))
        h.append(hk)
        e.append(ek)
    out = {}
    for size in range(n + 1):
        for kappa in partitions(size):
            rows, seq = (kappa, h) if len(kappa) <= sum(kappa[:1]) else (conjugate(kappa), e)
            det: dict = {}
            for perm in permutations(range(len(rows))):
                inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
                term = {0: Fraction(-1 if inversions & 1 else 1)}
                for i, j in enumerate(perm):
                    k = rows[i] - i + j
                    term = poly_mul(term, seq[k] if 0 <= k <= n else {}, n)
                accumulate(det, term)
            out[kappa] = det
    return out


def schur_e(ring, n, W) -> GrothElement:
    """sum_{|lam| = n} prod_U s_{lam(U)'}(1^{W_U}) Z_lam."""
    terms = {}
    for lam in multipartitions(ring.rank(), n):
        c = Fraction(1)
        for u, kappa in enumerate(lam):
            c *= schur_at_ones(conjugate(kappa), W.terms.get(u, 0))
        terms[lam] = c
    return GrothElement(ring, terms)


def schur_h(ring, n, W) -> GrothElement:
    """sum_{|lam| <= n} [t^n] prod_U s_lam(U)[sum_r (W^r)_U t^r] Z_lam."""
    powers = [W ** r for r in range(1, n + 1)]
    schur = [
        schur_of_alphabet(
            {l: {r * l: Fraction(p.terms.get(u, 0)) for r, p in enumerate(powers, 1) if r * l <= n}
             for l in range(1, n + 1)},
            n,
        )
        for u in range(ring.rank())
    ]
    terms = {}
    for lam in multipartitions_upto(ring.rank(), n):
        series = {0: Fraction(1)}
        for u, kappa in enumerate(lam):
            series = poly_mul(series, schur[u][kappa], n)
        terms[lam] = series.get(n, 0)
    return GrothElement(ring, terms)


SCHUR_RINGS = [
    (rg.integers.__wrapped__, 6, 8),
    (lambda: rg.cyclic_group_algebra.__wrapped__(2), 5, 10),
    (lambda: rg.cyclic_group_algebra.__wrapped__(3), 4, 10),
    (rg.golden_ring.__wrapped__, 5, 10),
    (lambda: rg.matrix_ring.__wrapped__(2), 3, 10),
    (lambda: rg.load_ring(str(Path(__file__).parent / "rings" / "upper_triangular.json")), 4, 10),
]


@pytest.mark.parametrize(
    "make, top, draws", SCHUR_RINGS, ids=("Z", "ZC2", "ZC3", "golden", "Mat2", "upper")
)
def test_e_and_h_are_schur_specialisations_of_the_z_basis(make, top, draws):
    ring = make()  # private, so the memos of the shared rings stay as they are
    rng = random.Random(ring.name)
    elements = {}
    for _ in range(draws):
        W = ring.element({u: rng.randint(-2, 2) for u in range(ring.rank())})
        elements[W.key()] = W
    for W in elements.values():
        for n in range(top + 1):
            assert gr.e_of(ring, n, W) == schur_e(ring, n, W), (n, W)
            assert gr.h_element(ring, n, W) == schur_h(ring, n, W), (n, W)
