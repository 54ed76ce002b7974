"""Acceptance gate: one test per criterion, exact equality everywhere.

Test rings: the integers, the group algebra of the order-2 group, 2x2
integer matrices, and Z[x]/(x^2 - x - 1) (free rank 2, not a monomial
algebra).  Every check is zero-tolerance over exact rationals; the stated
wall-clock bounds are asserted too.
"""

import random
import time
from fractions import Fraction

from wreathgroth import groth as gr
from wreathgroth import hopf
from wreathgroth import pbw
from wreathgroth import ring as rg
from wreathgroth import symfun as sf
from wreathgroth import verify
from wreathgroth import witt
from wreathgroth.groth import GrothElement
from wreathgroth.partitions import mp_total, multipartitions_upto
RINGS = (
    rg.integers(),
    rg.cyclic_group_algebra(2),
    rg.matrix_ring(2),
    rg.golden_ring(),
)
LAMBDA_RINGS = tuple(r for r in RINGS if r.has_lambda() and r.has_adams())
DEGREE = 4
SEED = 0


def announce(num, text, t0):
    print(f"ACCEPTANCE {num:2d} PASS ({time.monotonic() - t0:6.2f}s): {text}")


def test_criterion_01_symmetric_function_kernel():
    t0 = time.monotonic()
    rep = verify.suite_symfun(RINGS[0], 6, SEED)
    assert rep.passed, [c for c in rep.checks if not c.passed]
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"kernel checks took {elapsed:.1f}s, budget 10s"
    announce(1, "H E(-t)=1, E'/E=P(-t), Cauchy, orthogonality, omega at degree 6", t0)


def test_criterion_02_oracle_equivalence():
    t0 = time.monotonic()
    for ring in RINGS:
        keys = multipartitions_upto(ring.rank(), DEGREE)
        for mu in keys:
            if not mp_total(mu):
                continue
            for nu in keys:
                if not mp_total(nu) or mp_total(mu) + mp_total(nu) > DEGREE:
                    continue
                a = gr.z_multiply(
                    GrothElement.basis(ring, mu), GrothElement.basis(ring, nu)
                )
                b = pbw.oracle_multiply(ring, mu, nu)
                assert a == b, (ring.name, mu, nu)
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"oracle equivalence took {elapsed:.1f}s, budget 300s"
    announce(2, "z_multiply == oracle_multiply for |mu|+|nu| <= 4 on all test rings", t0)


def test_criterion_03_integrality():
    t0 = time.monotonic()
    for ring in RINGS:
        # a fresh table, so the exact division by prod_U |lam(U)|! runs here
        table = gr.ProductTable(ring)
        table.ensure(DEGREE)
        for row in table.pairs.values():
            for c in row.values():
                assert isinstance(c, int)
        for lam in multipartitions_upto(ring.rank(), 3):
            x = GrothElement.basis(ring, lam)
            assert hopf.comultiply(x).is_integral()
            hopf.antipode(x).assert_integral("antipode image")
    for ring in LAMBDA_RINGS:
        for u in range(ring.rank()):
            for n in range(1, 5):
                pbw.lambda_on_e1(ring, n, ring.basis_element(u), 4).assert_integral()
    announce(3, "structure constants, coproducts, antipodes, lambda images all integral", t0)


def test_criterion_04_golden_product():
    t0 = time.monotonic()
    Z = RINGS[0]
    one_box = ((1,),)
    via_oracle = pbw.oracle_multiply(Z, one_box, one_box)
    frozen = (
        GrothElement.basis(Z, ((1,),))
        + GrothElement.basis(Z, ((2,),))
        + GrothElement.basis(Z, ((1, 1),))
    )
    assert via_oracle == frozen
    direct = GrothElement.basis(Z, one_box) * GrothElement.basis(Z, one_box)
    assert direct == frozen
    announce(4, "Z[1]^2 = Z[1] + Z[2] + Z[1,1] over the integers, both routes", t0)


def test_criterion_05_commutation():
    t0 = time.monotonic()
    for ring in RINGS:
        for u in range(ring.rank()):
            for v in range(ring.rank()):
                U, V = ring.basis_element(u), ring.basis_element(v)
                # degree-one identity, verbatim
                lhs = gr.e_of(ring, 1, U) * gr.e_of(ring, 1, V) + gr.e_of(ring, 1, V * U)
                rhs = gr.e_of(ring, 1, V) * gr.e_of(ring, 1, U) + gr.e_of(ring, 1, U * V)
                assert lhs == rhs, (ring.name, u, v)
                uv, vu = gr.left_products(ring, 3, U, V), gr.left_products(ring, 3, V, U)
                for i in range(4):
                    for j in range(4):
                        lhs, rhs = uv[i, j][0], vu[j, i][0]
                        assert lhs == rhs, (ring.name, u, v, i, j)
                        if i and j:
                            c = uv[i, j][1] - vu[j, i][1]
                            assert c.degree() <= i + j - 1
    announce(5, "commutation series to bidegree (3,3), filtration drop, all basis pairs", t0)


def test_criterion_06_moebius_decomposition():
    t0 = time.monotonic()
    for ring in RINGS:
        for u in range(ring.rank()):
            pbw.f_series(ring, ring.basis_element(u), 4)  # asserts both paths agree
        rng = random.Random(SEED)
        for _ in range(2):
            W = ring.element({i: rng.randint(-2, 2) for i in range(ring.rank())})
            pbw.f_series(ring, W, 4)
        for u in range(ring.rank()):
            for v in range(ring.rank()):
                U, V = ring.basis_element(u), ring.basis_element(v)
                assert gr.e_of(ring, 1, U + V) == gr.e_of(ring, 1, U) + gr.e_of(ring, 1, V)
                assert gr.e_of(ring, 2, U + V) == (
                    gr.e_of(ring, 1, U) * gr.e_of(ring, 1, V)
                    - gr.e_of(ring, 1, U * V)
                    + gr.e_of(ring, 2, U)
                    + gr.e_of(ring, 2, V)
                )
    announce(6, "F series agrees on both computation paths; e_1/e_2 sum rules exact", t0)


def test_criterion_07_hopf_axioms():
    t0 = time.monotonic()
    for ring in RINGS:
        rep = verify.suite_hopf(ring, DEGREE, SEED)
        assert rep.passed, (ring.name, [c.name for c in rep.checks if not c.passed])
    announce(7, "coassociativity, counit, antipode, Delta multiplicativity, grouplike E", t0)


def test_criterion_08_lambda_ring():
    t0 = time.monotonic()
    assert LAMBDA_RINGS, "need at least one lambda-equipped test ring"
    for ring in LAMBDA_RINGS:
        rep = verify.suite_lambda(ring, DEGREE, SEED)
        assert rep.passed, (ring.name, [c.name for c in rep.checks if not c.passed])
    Z = RINGS[0]
    for n in range(1, 5):
        assert pbw.lambda_on_e1(Z, n, Z.one(), 4) == gr.e_of(Z, n, Z.one())
    announce(8, "Psi_1 = id, Psi_m Psi_n = Psi_mn, lambda^n(e_1(1)) = e_n(1)", t0)


def test_criterion_09_witt_layer():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    for _ in range(10):
        a = witt.WittVector([rng.randint(-9, 9) for _ in range(6)])
        assert a + witt.WittVector.zero(6) == a
        assert a * witt.WittVector.one(6) == a
    for _ in range(50):
        a = witt.WittVector([rng.randint(-9, 9) for _ in range(5)])
        b = witt.WittVector([rng.randint(-9, 9) for _ in range(5)])
        ga, gb = a.ghosts(), b.ghosts()
        assert (a + b).ghosts() == tuple(x + y for x, y in zip(ga, gb))
        assert (a * b).ghosts() == tuple(x * y for x, y in zip(ga, gb))
    for ring in RINGS[:2]:
        law = hopf.formal_group_law(ring, 3)
        assert hopf.law_first_order(law) is None
        assert hopf.law_zero_laws(law) is None
        assert hopf.law_associative(law, 3)
    announce(9, "Witt identities, ghost diagonalization (50 vectors), group law", t0)


def test_criterion_10_duality():
    t0 = time.monotonic()
    for ring in RINGS:
        keys = multipartitions_upto(ring.rank(), 3)
        small = [k for k in keys if mp_total(k) <= 2]
        # dual multiplication constants = coproduct constants
        for mu in small:
            for nu in small:
                prod = hopf.dual_multiply(ring, mu, nu)
                for lam in multipartitions_upto(ring.rank(), mp_total(mu) + mp_total(nu)):
                    got = hopf.comultiply(GrothElement.basis(ring, lam)).coefficient((mu, nu))
                    assert prod.get(lam, 0) == got, (ring.name, mu, nu, lam)
        # dual comultiplication constants = multiplication constants, with the
        # multiplication recomputed on the independent enveloping-algebra side
        for mu in small:
            for nu in small:
                if not (mp_total(mu) and mp_total(nu)):
                    continue
                oracle = pbw.oracle_multiply(ring, mu, nu)
                table_row = (GrothElement.basis(ring, mu) * GrothElement.basis(ring, nu)).terms
                assert {k: Fraction(v) for k, v in table_row.items()} == oracle.terms
        # dual antipode pairs against the primal antipode
        if ring.rank() <= 2:
            for lam in keys:
                image = sf.power_to_schur(hopf.dual_antipode_on_schur(ring, lam, 3))
                for mu in keys:
                    assert image.get(mu, 0) == hopf.antipode(
                        GrothElement.basis(ring, mu)
                    ).coefficient(lam)
    announce(10, "pairings match: dual mult <-> Delta, dual comult <-> product, S* <-> S", t0)


def test_criterion_11_full_battery():
    t0 = time.monotonic()
    reports = verify.battery(list(RINGS), DEGREE, SEED)
    failures = [
        (r.suite, r.ring, c.name, c.detail)
        for r in reports
        for c in r.checks
        if not c.passed
    ]
    assert not failures, failures
    elapsed = time.monotonic() - t0
    assert elapsed < 900, f"battery took {elapsed:.1f}s, budget 900s"
    announce(11, f"full verify battery: {sum(len(r.checks) for r in reports)} checks green", t0)
