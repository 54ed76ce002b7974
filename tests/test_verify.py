import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, strategies as st

from wreathgroth import cli
from wreathgroth import groth as gr
from wreathgroth import hopf
from wreathgroth import pbw
from wreathgroth import ring as rg
from wreathgroth import symfun as sf
from wreathgroth import verify
from wreathgroth._exact import accumulate, row_reduce
from wreathgroth.errors import DomainError, IntegralityError, MissingDataError
from wreathgroth.partitions import mp_single, mp_total
from wreathgroth.witt import WittVector


Z = rg.integers()
C2 = rg.cyclic_group_algebra(2)


def _assert_green(report):
    bad = [(c.name, c.detail) for c in report.checks if not c.passed]
    assert not bad, bad


def test_symfun_suite():
    _assert_green(verify.suite_symfun(Z, 6, 0))


def test_oracle_crosscheck_suite():
    _assert_green(verify.suite_oracle_crosscheck(C2, 3, 0))


def test_commutation_suite():
    _assert_green(verify.suite_commutation(C2, 3, 0))


def test_presentation_suite():
    _assert_green(verify.suite_presentation(C2, 3, 0))


def test_presentation_suite_golden():
    _assert_green(verify.suite_presentation(rg.golden_ring(), 3, 0))


def test_hopf_suite():
    _assert_green(verify.suite_hopf(C2, 3, 0))


def test_lambda_suite():
    _assert_green(verify.suite_lambda(C2, 4, 0))
    with pytest.raises(MissingDataError):
        verify.suite_lambda(rg.matrix_ring(2), 2, 0)


def test_witt_suite():
    _assert_green(verify.suite_witt(Z, 3, 0))


def test_run_suite_rejects_unknown_name():
    text = "unknown suite 'nonsense'; choose from " + ", ".join(verify.SUITES)
    with pytest.raises(ValueError) as info:
        verify.run_suite("nonsense", Z, 2, 0)
    assert str(info.value) == text


def test_run_suite_looks_each_suite_up_at_call_time(monkeypatch):
    # a wrapper installed on the module after import, as a tracer does
    seen = []
    monkeypatch.setattr(verify, "suite_oracle_crosscheck", lambda *args: seen.append(args))
    verify.run_suite("oracle-crosscheck", Z, 2, 0)
    assert seen == [(Z, 2, 0)]


def test_basis_independence_matrix_is_unimodular():
    rows = verify.basis_independence_matrix(C2, 2)
    for row in rows:
        for x in row.values():
            assert x.denominator == 1
    assert row_reduce((row, {}) for row in rows)[1] in (1, -1)


def test_determinant_helper():
    from fractions import Fraction

    rows = [{0: Fraction(2), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    assert row_reduce((row, {}) for row in rows)[1] == 1
    rows = [{1: Fraction(1)}, {0: Fraction(1)}]
    assert row_reduce((row, {}) for row in rows)[1] == -1


def test_report_records_a_raising_check_and_runs_the_rest():
    rep = verify.Report("demo", "-", 1, 0)

    def raises():
        raise DomainError("outside the domain")

    rep.run("raises", raises)
    rep.run("after", lambda: None)
    assert [(c.name, c.passed, c.detail) for c in rep.checks] == [
        ("raises", False, "DomainError: outside the domain"),
        ("after", True, ""),
    ]

    def missing():
        raise MissingDataError("no lambda data")

    with pytest.raises(MissingDataError):
        rep.run("missing", missing)


def test_report_run_has_one_result_protocol():
    # None passes, a string fails with that witness, and any other value
    # fails naming it, so a stray True or an (ok, detail) pair cannot pass
    rep = verify.Report("demo", "-", 1, 0)
    rep.run("none", lambda: None)
    rep.run("witness", lambda: "coefficient of Z{}: left side 1, right side 2")
    rep.run("true", lambda: True)
    rep.run("pair", lambda: (False, "x"))
    assert [(c.name, c.passed, c.detail) for c in rep.checks] == [
        ("none", True, ""),
        ("witness", False, "coefficient of Z{}: left side 1, right side 2"),
        ("true", False, "returned True, not None or a witness"),
        ("pair", False, "returned (False, 'x'), not None or a witness"),
    ]


def _detail(report, prefix):
    check = next(c for c in report.checks if c.name.startswith(prefix))
    assert not check.passed
    return check.detail


def test_symfun_witness_names_the_power_sum_key_and_both_values(monkeypatch):
    # h_2 = (p_1^2 + p_2)/2; one more p_2 in h_2 at degree 5 leaves omega(e_2)
    # = (p_1^2 + p_2)/2 against (p_1^2 + 3 p_2)/2
    h_series = sf.h_series

    def perturbed(labels, label, n, degree):
        out = h_series(labels, label, n, degree)
        if (n, degree) == (2, 5):
            out = out + sf.SymSeries.generator(labels, label, (2,), degree)
        return out

    monkeypatch.setattr(sf, "h_series", perturbed)
    report = verify.suite_symfun(Z, 6, 0)
    assert _detail(report, "omega is an involution") == (
        "omega(e_2) != h_2: coefficient of p{x:[2]}: left side 1/2, right side 3/2"
    )


def test_cauchy_witness_names_the_schur_key_and_both_values(monkeypatch):
    # p_1(x) p_1(y) = s_1(x) s_1(y); one more of it in the kernel leaves the
    # diagonal pair at s{x:[1];y:[1]} at 2 against 1
    kernel = sf.cauchy_kernel

    def perturbed(degree):
        out = kernel(degree)
        return out + sf.SymSeries(out.labels, degree, {((1,), (1,)): 1})

    monkeypatch.setattr(sf, "cauchy_kernel", perturbed)
    report = verify.suite_symfun(Z, 6, 0)
    assert _detail(report, "Cauchy kernel") == (
        "coefficient of s{x:[1];y:[1]}: left side 2, right side 1"
    )


def test_commutation_witness_names_the_z_key_and_both_values(monkeypatch):
    # [e_1(1), e_2(1)] = 0 over Z; adding 2*Z{1:[1]} to e_1(1) e_2(1) in the
    # table leaves 2 against 0.  Both products of a single argument come from
    # one table, so the change is made off the diagonal (i, j) = (1, 1)
    left_products = gr.left_products

    def perturbed(ring, bd, U, V):
        out = left_products(ring, bd, U, V)
        lhs, product = out[1, 2]
        out[1, 2] = lhs, product + gr.GrothElement(ring, {((1,),): 2})
        return out

    monkeypatch.setattr(gr, "left_products", perturbed)
    report = verify.suite_commutation(rg.integers.__wrapped__(), 2, 0)
    assert _detail(report, "e_i(U) and e_j(U) commute") == (
        "[e_1, e_2] of 1: coefficient of Z{1:[1]}: left side 2, right side 0"
    )


def test_commutation_series_witness_names_the_z_key_and_both_sides(monkeypatch):
    # replace the left side at bidegree (1,1) by 1 + 3*Z{g:[2]} in the table
    # of (e,g) and by 1 + Z{g:[2]} + Z{e:[1,1,1]} in the table of (g,e), the
    # right side at (e,g): in graded order they first differ at Z{g:[2]}, 3
    # against 1.  A pair with U = V reads both sides from one table, so the
    # change is made at u != v
    left_products = gr.left_products

    def perturbed(ring, bd, U, V):
        out = left_products(ring, bd, U, V)
        one, z = gr.GrothElement.one(ring), gr.GrothElement.basis(ring, ((), (2,)))
        sides = {
            (0, 1): one + z.scale(3),
            (1, 0): one + z + gr.GrothElement.basis(ring, ((1, 1, 1), ())),
        }
        pair = U.basis_index(), V.basis_index()
        if pair in sides:
            out[1, 1] = sides[pair], out[1, 1][1]
        return out

    monkeypatch.setattr(gr, "left_products", perturbed)
    ring = rg.cyclic_group_algebra.__wrapped__(2)  # a private instance: shared caches stay clean
    report = verify.suite_commutation(ring, 1, 0)
    assert _detail(report, "E_U(u) E_{VU}(-uv)^{-1}") == (
        "bidegree (1,1) at (e,g): coefficient of Z{g:[2]}: left side 3, right side 1"
    )


def test_sub_hopf_closure_witness_names_the_element_the_key_and_both_values(monkeypatch):
    # one more Z{} (x) Z{1:[3]} in the coproduct of every element of positive
    # degree puts the row of Delta(e_1(1)) at Z{} outside the span of the
    # products of e_1 and e_2: Z{1:[3]} has 1 in the row (left side) and 0 in
    # the row's part in the span (right side)
    comultiply = hopf.comultiply

    def perturbed(x):
        out = comultiply(x)
        if x.degree() >= 1:
            out = out + hopf.TensorGroth(x.ring, {(((),), ((3,),)): 1})
        return out

    monkeypatch.setattr(hopf, "comultiply", perturbed)
    report = verify.suite_hopf(rg.integers.__wrapped__(), 3, 0)
    assert _detail(report, "the subalgebra generated by e_i(U)") == (
        "Delta(e_1(1)) at Z{} (x) - leaves the span: "
        "coefficient of Z{1:[3]}: left side 1, right side 0"
    )


def _witt_detail(prefix):
    return _detail(verify.suite_witt(rg.integers.__wrapped__(), 2, 0), prefix)


def test_witt_identity_witness_names_the_vector_component_and_both_values(monkeypatch):
    # length-6 products gain 1 in their last component, so a * 1 = a first
    # fails at the first draw of seed 0, component 6: 3 against 2
    mul = WittVector.__mul__

    def perturbed(a, b):
        out = mul(a, b)
        return WittVector(out.comps[:-1] + (out.comps[-1] + 1,)) if len(a) == 6 else out

    monkeypatch.setattr(WittVector, "__mul__", perturbed)
    assert _witt_detail("(0,0,...) and (1,0,0,...) are the Witt identities") == (
        "a * 1 = a fails at a = (0,6,0,-6,-2,2): component 6: left side 3, right side 2"
    )


def test_ghost_witness_names_both_vectors_the_ghost_and_both_values(monkeypatch):
    # every ghost vector gains 1 in its first ghost: w_1(a + b) = 3 + 1
    # against (6 + 1) + (-3 + 1)
    ghosts = WittVector.ghosts
    monkeypatch.setattr(WittVector, "ghosts", lambda a: (ghosts(a)[0] + 1,) + ghosts(a)[1:])
    assert _witt_detail("ghost components diagonalize") == (
        "w(a + b) = w(a) + w(b) fails at a = (6,1,-2,1,-7), b = (-3,9,-2,-2,-5): "
        "ghost 1: left side 4, right side 5"
    )


def test_ring_law_witness_names_the_law_the_vectors_and_both_values(monkeypatch):
    # length-5 sums gain the left operand's first component in their last,
    # so (a + b) + c and a + (b + c) differ there by b_1 = 3
    add = WittVector.__add__

    def perturbed(a, b):
        out = add(a, b)
        return WittVector(out.comps[:-1] + (out.comps[-1] + a.comps[0],)) if len(a) == 5 else out

    monkeypatch.setattr(WittVector, "__add__", perturbed)
    assert _witt_detail("Witt vectors form a commutative ring") == (
        "(a + b) + c = a + (b + c) fails at a = (3,2,-4,-4,0), b = (3,2,-4,-1,3), "
        "c = (-1,-4,3,0,3): component 5: left side 32, right side 29"
    )


def test_hopf_witness_names_the_tensor_key_and_both_values(monkeypatch):
    # Delta(Z{1:[1]}) = Z{1:[1]} (x) Z{} + Z{} (x) Z{1:[1]}; one more
    # Z{1:[1]} (x) Z{} makes (id (x) eps) Delta(Z{1:[1]}) = 2*Z{1:[1]}
    comultiply = hopf.comultiply

    def perturbed(x):
        out = comultiply(x)
        if x == gr.GrothElement.basis(x.ring, ((1,),)):
            out = out + hopf.TensorGroth(x.ring, {(((1,),), ((),)): 1})
        return out

    monkeypatch.setattr(hopf, "comultiply", perturbed)
    report = verify.suite_hopf(rg.integers.__wrapped__(), 2, 0)
    assert _detail(report, "counit axiom") == (
        "(id (x) eps) Delta(Z{1:[1]}): coefficient of Z{1:[1]}: left side 2, right side 1"
    )
    assert _detail(report, "Delta(E_U(t))") == (
        "at e_1(1): coefficient of Z{1:[1]} (x) Z{}: left side 2, right side 1"
    )


def test_integrality_check_catches_a_bad_schur_row(monkeypatch):
    # 2! s_(2) = p_(1,1) + p_(2); an off-by-one p_(2) coefficient makes the
    # s_(2) coefficient 3/2, which the exact division by 2! must reject
    row = sf.scaled_schur_to_p_row

    def off_by_one(kappa):
        out = dict(row(kappa))
        if kappa == (2,):
            out[(2,)] += 1
        return out

    monkeypatch.setattr(sf, "scaled_schur_to_p_row", off_by_one)
    ring = rg.integers.__wrapped__()  # a private instance: shared caches stay clean
    witness = "coefficient of Z{1:[2]} in Z{1:[2]} * Z{} is 3/2, not an integer"
    with pytest.raises(IntegralityError) as exc:
        gr.ProductTable(ring).ensure(2)
    assert str(exc.value) == witness

    report = verify.run_suite("oracle-crosscheck", ring, 2, 0)
    check = next(c for c in report.checks if c.name == "all structure constants are integers")
    assert not check.passed
    assert check.detail == f"IntegralityError: {witness}"


def test_f_series_disagreement_names_degree_word_and_coefficients(monkeypatch):
    # add T_2(e) t^2 to the Moebius/log path for W = e, so the two paths
    # first differ at t^2 on the word T2(e): 1 against 2
    mobius = pbw.f_series_mobius

    def perturbed(ring, W, degree):
        out = mobius(ring, W, degree)
        if W.basis_index() == 0:
            extra = pbw.PBWElement.generator(ring, degree, 2, W)
            out = out + pbw.TSeries(ring, degree, {2: extra})
        return out

    monkeypatch.setattr(pbw, "f_series_mobius", perturbed)
    ring = rg.cyclic_group_algebra.__wrapped__(2)  # a private instance: shared caches stay clean
    witness = (
        "F-series of <e> differs at t^2, word T2(e): "
        "sum_i T_i(W) t^i gives 1, the Moebius/log form gives 2"
    )
    with pytest.raises(AssertionError) as exc:
        pbw.f_series(ring, ring.basis_element(0), 2)
    assert str(exc.value) == witness

    report = verify.run_suite("presentation", ring, 2, 0)
    check = next(c for c in report.checks if c.name.startswith("F_U(t) from the Moebius/log"))
    assert not check.passed
    assert check.detail == f"AssertionError: {witness}"


def test_a_ring_without_a_unit_is_refused_by_name():
    # every path that needs 1 in R takes it from ring.one(), whose refusal
    # names the ring; the basis-independence check re-bases it as nounit'.
    # The product needs no unit: a pair the table lacks grows the table to
    # it, since the route through the primitive generators reads the
    # oracle's Z-table, which needs one
    ring = rg.BaseRing(("a",), {(0, 0): {0: 2}}, name="nounit")
    refusal = "ring nounit has no declared unit"
    mu, nu = ((2,),), ((1,),)
    got = gr.z_multiply(gr.GrothElement.basis(ring, mu), gr.GrothElement.basis(ring, nu))
    full = gr.ProductTable(ring)
    full.ensure(3)
    assert got.terms == full.pairs[mu, nu]
    assert gr.product_table(ring).degree == 3 and "route_rows" not in ring._caches
    for call in (
        lambda: pbw.e_series_pbw(ring, ring.basis_element(0), 2),
        lambda: pbw.RingSeries.one(ring, 2),
        lambda: hopf.dual_antipode_power_sum(ring, 1, 2),
    ):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == refusal
    for suite, count in (("presentation", 2), ("hopf", 3)):
        failed = [c for c in verify.run_suite(suite, ring, 2, 0).checks if not c.passed]
        assert len(failed) == count, suite
        for check in failed:
            name = "nounit'" if check.name.startswith("integral span is independent") else "nounit"
            assert check.detail == f"DomainError: ring {name} has no declared unit", check.name


def _perturb_p2(monkeypatch):
    """Add 1 to the coefficient of Z_{(2) at U} in each row (2 T_2(U)) Z_empty:
    P_2(W) 1 then gains sum_U W_U Z_{(2) at U}, and the division by 2 in
    Newton's identity leaves a remainder in e_2(W) and h_2(W) when some W_U
    is odd."""
    primitive_product = gr._primitive_product

    def perturbed(ring, m, u, nu):
        out = primitive_product(ring, m, u, nu)
        if m == 2 and not mp_total(nu):
            key = mp_single(ring.rank(), u, (2,))
            out[key] = out.get(key, 0) + 1
        return out

    monkeypatch.setattr(gr, "_primitive_product", perturbed)


def test_a_non_integral_e_n_is_refused_and_fails_its_check(monkeypatch):
    # e_2(W) for W outside the basis gains -W_U/2 Z_{(2) at U} for each U
    _perturb_p2(monkeypatch)
    ring = rg.cyclic_group_algebra.__wrapped__(2)  # a private instance: shared caches stay clean
    W = ring.element("e - g")
    with pytest.raises(IntegralityError) as exc:
        gr.e_of(ring, 2, W)
    assert str(exc.value) == "e_2(<e - g>) has non-integer coefficient 3/2 at Z{g:[2]}"

    report = verify.run_suite("presentation", ring, 2, 0)
    check = next(c for c in report.checks if c.name == "e_n(W) of random integer combinations is integral")
    assert not check.passed
    assert check.detail == "IntegralityError: e_2(<2*e + g>) has non-integer coefficient -1/2 at Z{g:[2]}"


def test_a_non_integral_h_n_is_refused_and_fails_its_check(monkeypatch):
    # h_2(W) gains +W_U/2 Z_{(2) at U} for each U, for W in the basis too
    _perturb_p2(monkeypatch)
    ring = rg.cyclic_group_algebra.__wrapped__(2)  # a private instance: shared caches stay clean
    W = ring.element("e - g")
    with pytest.raises(IntegralityError) as exc:
        gr.h_element(ring, 2, W)
    assert str(exc.value) == "h_2(<e - g>) has non-integer coefficient -1/2 at Z{g:[2]}"

    report = verify.run_suite("commutation", ring, 2, 0)
    check = next(c for c in report.checks if c.name.startswith("E_U(u) E_{VU}(-uv)^{-1} E_V(v)"))
    assert not check.passed
    assert check.detail == "IntegralityError: h_2(<e>) has non-integer coefficient 3/2 at Z{e:[2]}"


@pytest.mark.parametrize(
    "make, witnesses",
    (
        (
            lambda: rg.cyclic_group_algebra.__wrapped__(2),
            (
                "h_3(<e>) has non-integer coefficient 2/3 at Z{e:[1,1,1]}",
                "e_3(<2*e + g>) has non-integer coefficient 1/3 at Z{g:[1,1,1]}",
            ),
        ),
        (
            lambda: rg.matrix_ring.__wrapped__(2),
            (
                "h_3(<E11>) has non-integer coefficient 2/3 at Z{E11:[1,1,1]}",
                "e_3(<E11 + 2*E21 - E22>) has non-integer coefficient -2/3 at Z{E22:[1,1,1]}",
            ),
        ),
        (
            rg.golden_ring.__wrapped__,
            (
                "h_3(<1>) has non-integer coefficient 2/3 at Z{1:[1,1,1]}",
                "e_3(<2*1 + x>) has non-integer coefficient 1/3 at Z{x:[1,1,1]}",
            ),
        ),
    ),
    ids=("ZC2", "Mat2", "golden"),
)
def test_a_corrupted_ribbon_row_fails_the_commutation_and_presentation_suites(make, witnesses, monkeypatch):
    # add m to the first coefficient of each m = 2 row on a one-box Z_nu: the
    # divisions by 2 stay exact, the division by 3 at level 3 does not.  The
    # ring keeps each row once for every W and both suites, so the corrupted
    # rows the commutation suite builds serve the presentation suite after it
    primitive_product = gr._primitive_product

    def perturbed(ring, m, u, nu):
        out = primitive_product(ring, m, u, nu)
        if m == 2 and mp_total(nu) == 1:
            lam = next(iter(out))
            out[lam] += m
        return out

    monkeypatch.setattr(gr, "_primitive_product", perturbed)
    ring = make()  # a private instance: shared caches stay clean
    checks = ("E_U(u) E_{VU}(-uv)^{-1} E_V(v)", "e_n(W) of random integer combinations is integral")
    for suite, check, witness in zip(("commutation", "presentation"), checks, witnesses):
        report = verify.run_suite(suite, ring, 4, 0)
        assert not report.passed, suite
        assert _detail(report, check) == f"IntegralityError: {witness}", suite


def test_the_integrality_witness_does_not_depend_on_the_order_of_summation():
    # the exact division of the Newton loop and of the route names the least
    # offending key in mp_sort_key order, so the order a level's dict was
    # filled in, whatever order its sums ran in, does not move the witness
    ring = rg.cyclic_group_algebra(2)
    terms = {((3,), ()): 1, ((1,), (1, 1)): 2, ((), (1, 1, 1)): 4, ((2, 1), ()): 3, ((), (2,)): 6}
    for order in (terms, dict(reversed(terms.items()))):
        with pytest.raises(IntegralityError) as exc:
            gr._quotient(ring, order, 3, lambda: "e_3(<e>)")
        assert str(exc.value) == "e_3(<e>) has non-integer coefficient 4/3 at Z{g:[1,1,1]}"
    assert gr._quotient(ring, {((2, 1), ()): 3, ((), (2,)): -6, ((1,), ()): 0}, 3, None) == {
        ((2, 1), ()): 1,
        ((), (2,)): -2,
    }


def test_oracle_crosscheck_witness_names_first_differing_coefficient(monkeypatch):
    # add 5*Z{e:[1,1]} + 2*Z{e:[2]} to the oracle's Z{e:[1]} * Z{e:[1]}; in
    # the sorted order of multipartitions the products first differ at
    # Z{e:[2]}, 1 against 3
    oracle = pbw.oracle_multiply
    square = ((1,), ())

    def perturbed(ring, mu, nu):
        out = oracle(ring, mu, nu)
        if mu == nu == square:
            out = out + gr.GrothElement(ring, {((1, 1), ()): 5, ((2,), ()): 2})
        return out

    monkeypatch.setattr(pbw, "oracle_multiply", perturbed)
    ring = rg.cyclic_group_algebra.__wrapped__(2)  # a private instance: shared caches stay clean
    report = verify.run_suite("oracle-crosscheck", ring, 2, 0)
    check = report.checks[0]
    assert not check.passed
    assert check.detail == (
        "differ at Z{e:[1]} * Z{e:[1]}, first at Z{e:[2]}: combinatorial 1, oracle 3"
    )


def test_adams_witness_names_the_pair_word_and_both_values(monkeypatch):
    # over Z, Psi_2(T1(1) T2(1)) = 2*T1(1)*T4(1) + 4*T2(1)*T4(1); adding one
    # more T1(1)*T4(1) to Psi_2 of every product of two generators makes the
    # two sides first differ there, 3 against 2
    adams = pbw.adams

    def perturbed(ring, m, x):
        out = adams(ring, m, x)
        if any(len(w) == 2 for w in x.terms):
            out = out + pbw.PBWElement(ring, x.degree, {(pbw.sym(1, 0), pbw.sym(4, 0)): 1})
        return out

    monkeypatch.setattr(pbw, "adams", perturbed)
    report = verify.run_suite("lambda", rg.integers.__wrapped__(), 2, 0)
    check = next(c for c in report.checks if c.name == "Psi_m is an algebra endomorphism")
    assert not check.passed
    assert check.detail == (
        "Psi_2 is not multiplicative at (1,1): word T1(1)*T4(1) has 3 in"
        " Psi_2(T1(1)*T2(1)), 2 in Psi_2(T1(1))*Psi_2(T2(1))"
    )


def _perturbed_law(monkeypatch, extra):
    """The witt suite at degree 3 over Z with F_1(a, b) = a1 + b1 + a1*b1
    changed by the terms ``extra``; the failing group-law check's witness."""
    law = hopf.formal_group_law

    def perturbed(ring, degree):
        out = law(ring, degree)
        out.components[(0, 1)] = accumulate(dict(out.components[(0, 1)]), extra)
        return out

    monkeypatch.setattr(hopf, "formal_group_law", perturbed)
    report = verify.run_suite("witt", rg.integers.__wrapped__(), 3, 0)
    return _detail(report, "the coproduct's formal group law")


def test_group_law_first_order_witness_names_component_monomial_and_both_values(monkeypatch):
    # one more a1 makes the linear part 2*a1 + b1
    assert _perturbed_law(monkeypatch, {((0, 0, 1),): 1}) == (
        "F is not a + b to first order: in component e_1(1), a1(1) has 2 in F(a,b), 1 in a + b"
    )


def test_group_law_zero_law_witness_names_component_monomial_and_both_values(monkeypatch):
    # a1^2 keeps the linear part but makes F(a, 0) = a1 + a1^2
    assert _perturbed_law(monkeypatch, {((0, 0, 1), (0, 0, 1)): 1}) == (
        "F(a,0) != a or F(0,b) != b: in component e_1(1), a1(1)^2 has 1 in F(a,b), 0 in a + b"
    )


def test_group_law_witness_names_component_monomial_and_both_values(monkeypatch):
    # adding a1^2*b1 keeps the linear part and the zero laws but puts
    # 2*a1*b1*c1 more into F_1(F(a,b),c) than into F_1(a,F(b,c)), where the
    # plain law has 1
    assert _perturbed_law(monkeypatch, {((0, 0, 1), (0, 0, 1), (1, 0, 1)): 1}) == (
        "F is not associative: in component e_1(1), a1(1)*b1(1)*c1(1) has 3 in"
        " F(F(a,b),c), 1 in F(a,F(b,c))"
    )


# ---------------------------------------------------------------------------
# valid rings from config files, through the command line


def _exit_code(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def _passes(config: dict, suites) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ring.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        assert _exit_code("ring", "validate", "--ring", path) == 0
        for suite in suites:
            assert _exit_code("verify", suite, "--degree", "3", "--ring", path) == 0, suite


def _table_config(basis, unit, product) -> dict:
    return {
        "basis": basis,
        "unit": unit,
        "mult": [
            {"left": u, "right": v, "out": product(u, v)} for u in basis for v in basis
        ],
    }


@given(st.integers(-3, 3), st.integers(-3, 3))
def test_quadratic_rings_pass_validate_and_the_oracle(a, b):
    # Z[x]/(x^2 - a x - b) on the basis 1, x
    def product(u, v):
        if u == "1" or v == "1":
            return {u if v == "1" else v: 1}
        return {k: c for k, c in (("x", a), ("1", b)) if c}

    _passes(_table_config(["1", "x"], {"1": 1}, product), ["oracle-crosscheck"])


def test_monoid_algebra_of_zero_and_one_passes_validate_and_the_oracle():
    # ({0, 1}, *): e0 absorbs, e1 is the unit
    def product(u, v):
        return {"e1" if u == v == "e1" else "e0": 1}

    _passes(_table_config(["e0", "e1"], {"e1": 1}, product), ["oracle-crosscheck"])


def test_upper_triangular_ring_passes_validate_the_oracle_and_hopf():
    with open(os.path.join(os.path.dirname(__file__), "rings", "upper_triangular.json")) as fh:
        config = json.load(fh)
    _passes(config, ["oracle-crosscheck", "hopf"])


def test_oracle_crosscheck_builds_the_table_whole(monkeypatch):
    # the table is built complete up front, so every product the suite takes
    # is a table row, compared with the oracle, and the route through the
    # primitive generators keeps no row; a ring file gives a fresh ring
    rings = []
    table = gr.product_table

    def kept(ring):
        rings.append(ring)
        return table(ring)

    monkeypatch.setattr(gr, "product_table", kept)
    path = os.path.join(os.path.dirname(__file__), "rings", "upper_triangular.json")
    assert _exit_code("verify", "oracle-crosscheck", "--degree", "3", "--ring", path) == 0
    (ring,) = set(rings)
    assert table(ring).degree == 3
    assert not ring._caches.get("route_rows")
