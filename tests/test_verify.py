import pytest

from wreathgroth import groth as gr
from wreathgroth import pbw
from wreathgroth import ring as rg
from wreathgroth import symfun as sf
from wreathgroth import verify
from wreathgroth._exact import row_reduce
from wreathgroth.errors import DomainError, IntegralityError, MissingDataError


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
    with pytest.raises(ValueError):
        verify.run_suite("nonsense", Z, 2, 0)


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
    rep.run("after", lambda: True)
    assert [(c.name, c.passed, c.detail) for c in rep.checks] == [
        ("raises", False, "DomainError: outside the domain"),
        ("after", True, ""),
    ]

    def missing():
        raise MissingDataError("no lambda data")

    with pytest.raises(MissingDataError):
        rep.run("missing", missing)


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


def test_oracle_crosscheck_witness_names_first_differing_coefficient(monkeypatch):
    # add 5*Z{e:[1,1]} + 2*Z{e:[2]} to the oracle's Z{e:[1]} * Z{e:[1]}; in
    # the sorted order of multipartitions the products first differ at
    # Z{e:[2]}, 1 against 3
    oracle = pbw.oracle_multiply
    square = ((1,), ())

    def perturbed(ring, mu, nu, degree=None):
        out = oracle(ring, mu, nu, degree)
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
