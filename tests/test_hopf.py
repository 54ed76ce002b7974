import hashlib
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from wreathgroth import groth as gr
from wreathgroth import hopf, pbw, verify
from wreathgroth import ring as rg
from wreathgroth import symfun as sf
from wreathgroth._exact import accumulate, monomial_product, settle
from wreathgroth.errors import DomainError, IntegralityError
from wreathgroth.groth import GrothElement
from wreathgroth.hopf import TensorGroth, comultiply, counit, antipode
from wreathgroth.partitions import mp_empty, mp_total, multipartitions_upto
from wreathgroth.symfun import SymSeries


Z = rg.integers()
C2 = rg.cyclic_group_algebra(2)
M2 = rg.matrix_ring(2)
RINGS = Path(__file__).parent / "rings"


def test_comultiply_empty_is_grouplike():
    one = GrothElement.one(C2)
    assert comultiply(one) == TensorGroth.of(one, one)


def test_comultiply_e_column():
    # Delta(e_n(U)) = sum e_i(U) (x) e_{n-i}(U)
    for ring in (Z, C2):
        for u in range(ring.rank()):
            for n in (1, 2, 3):
                en = gr.e_of(ring, n, ring.basis_element(u))
                got = comultiply(en)
                want = TensorGroth(ring)
                for i in range(n + 1):
                    want = want + TensorGroth.of(
                        gr.e_of(ring, i, ring.basis_element(u)),
                        gr.e_of(ring, n - i, ring.basis_element(u)),
                    )
                assert got == want


def test_comultiply_hook_splitting():
    x = GrothElement.basis(C2, ((2, 1), ()))
    got = comultiply(x)
    assert got.coefficient((((2,), ()), ((1,), ()))) == 1
    assert got.coefficient((((1, 1), ()), ((1,), ()))) == 1
    assert got.coefficient((((2, 1), ()), ((), ()))) == 1
    assert got.coefficient((((1,), ()), ((1,), ()))) == 0


def test_counit():
    assert counit(GrothElement.one(C2)) == 1
    for u in range(2):
        for r in (1, 2):
            assert counit(gr.e_of(C2, r, C2.basis_element(u))) == 0
    # (counit (x) id) . Delta = id
    for lam in multipartitions_upto(2, 3):
        d = comultiply(GrothElement.basis(C2, lam))
        left = {}
        for (mu, nu), c in d.terms.items():
            if mu == mp_empty(2):
                left[nu] = left.get(nu, Fraction(0)) + c
        assert {k: v for k, v in left.items() if v} == {lam: 1}


def test_coassociativity():
    for ring in (C2, M2):
        for lam in multipartitions_upto(ring.rank(), 2):
            x = GrothElement.basis(ring, lam)
            d = comultiply(x)
            left: dict = {}
            right: dict = {}
            for (mu, nu), c in d.terms.items():
                for (a, b), c2 in comultiply(GrothElement.basis(ring, mu)).terms.items():
                    key = (a, b, nu)
                    left[key] = left.get(key, Fraction(0)) + c * c2
                for (a, b), c2 in comultiply(GrothElement.basis(ring, nu)).terms.items():
                    key = (mu, a, b)
                    right[key] = right.get(key, Fraction(0)) + c * c2
            left = {k: v for k, v in left.items() if v}
            right = {k: v for k, v in right.items() if v}
            assert left == right


@pytest.mark.parametrize(
    "make", [rg.golden_ring.__wrapped__, lambda: rg.matrix_ring.__wrapped__(2)],
    ids=["golden", "Mat2"],
)
def test_a_tensor_product_multiplies_each_half(make):
    # (a (x) b)(c (x) d) = ac (x) bd, with Fraction coefficients, on a private
    # ring whose table starts empty: a, c live in the first slot and b, d in
    # the last, so each half makes the table sweep a box of its own
    ring = make()
    rng = random.Random(7)
    keys = multipartitions_upto(ring.rank(), 2)
    first = [k for k in keys if not any(k[1:])]
    last = [k for k in keys if not any(k[:-1])]

    def element(support):
        return GrothElement(ring, {
            k: Fraction(rng.randint(1, 5) * rng.choice((-1, 1)), rng.choice((1, 2, 3)))
            for k in rng.sample(support, 3)
        })

    a, b, c, d = element(first), element(last), element(first), element(last)
    got = TensorGroth.of(a, b) * TensorGroth.of(c, d)
    assert len(gr.product_table(ring).boxes) == 2
    assert got == TensorGroth.of(a * c, b * d) and not got.is_integral()


def test_delta_is_algebra_map():
    for ring in (C2, M2):
        keys = multipartitions_upto(ring.rank(), 1)
        keys = [k for k in keys if mp_total(k)][:3]
        for mu in keys:
            for nu in keys:
                a, b = GrothElement.basis(ring, mu), GrothElement.basis(ring, nu)
                assert comultiply(a * b) == comultiply(a) * comultiply(b)


def test_antipode_basics():
    assert antipode(GrothElement.one(C2)) == GrothElement.one(C2)
    for ring in (Z, C2, M2):
        for u in range(ring.rank()):
            e1 = gr.e_of(ring, 1, ring.basis_element(u))
            assert antipode(e1) == e1.scale(-1)
            e2 = gr.e_of(ring, 2, ring.basis_element(u))
            assert antipode(e2) == e1 * e1 - e2


def test_antipode_axiom():
    # m . (S (x) id) . Delta = unit . counit
    for ring in (C2, M2):
        for lam in multipartitions_upto(ring.rank(), 2):
            x = GrothElement.basis(ring, lam)
            acc = GrothElement.zero(ring)
            for (mu, nu), c in comultiply(x).terms.items():
                acc = acc + (
                    antipode(GrothElement.basis(ring, mu))
                    * GrothElement.basis(ring, nu)
                ).scale(c)
            want = GrothElement.one(ring).scale(counit(x))
            assert acc == want


def reference_antipode(x: GrothElement) -> GrothElement:
    """The whole element through the rational side at x's degree: its PBW
    expansion, S(T_l(U)) = -T_l(U) with the word order reversed, back to Z."""
    degree = x.degree()
    el = pbw.PBWElement.zero(x.ring, degree)
    for lam, c in x.terms.items():
        el = el + pbw.z_element_pbw(x.ring, lam, degree).scale(c)
    return pbw.to_z_basis(pbw.antipode_pbw(el))


def test_antipode_matches_whole_element_reference():
    rng = random.Random(11)
    for ring in (M2, rg.golden_ring()):
        keys = multipartitions_upto(ring.rank(), 4)
        for _ in range(12):
            x = GrothElement(ring, {
                lam: Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))
                for lam in rng.sample(keys, rng.randint(1, 5))
            })
            assert antipode(x) == reference_antipode(x)
        assert antipode(GrothElement.zero(ring)) == GrothElement.zero(ring)


def _fresh_upper():
    return rg.load_ring(str(RINGS / "upper_triangular.json"))


def test_suite_hopf_takes_each_antipode_image_once(monkeypatch):
    ring = _fresh_upper()
    images = Counter()
    real_antipode = pbw.antipode_pbw

    def counted_antipode(x):
        images[frozenset(x.terms.items())] += 1
        return real_antipode(x)

    sums = Counter()
    real_power_sum = hopf.power_sum

    def counted_power_sum(base, *args):
        # base is sum_U p_l(x_U) U, its terms keyed (power-sum key, U)
        (l,) = {part for key, _ in base.terms for p in key for part in p}
        sums[l, base.degree] += 1
        return real_power_sum(base, *args)

    monkeypatch.setattr(pbw, "antipode_pbw", counted_antipode)
    monkeypatch.setattr(hopf, "power_sum", counted_power_sum)
    report = verify.suite_hopf(ring, 3, 0)
    assert report.passed, [(c.name, c.detail) for c in report.checks if not c.passed]
    keys = multipartitions_upto(ring.rank(), 3)
    assert set(images.values()) == {1}
    assert len(images) == len(keys) == len(ring._caches["antipode"])
    assert sums == {(1, 3): 1, (2, 3): 1, (3, 3): 1}


def test_a_memoised_bad_antipode_image_fails_every_check_that_uses_it(monkeypatch):
    ring = _fresh_upper()
    lam = ((1, 1), (), ())
    target = pbw.z_element_pbw(ring, lam)
    real = pbw.antipode_pbw

    def off_by_a_half(x):
        out = real(x)
        if x == target:
            out = out + pbw.PBWElement.one(ring, x.degree).scale(Fraction(1, 2))
        return out

    monkeypatch.setattr(pbw, "antipode_pbw", off_by_a_half)
    report = verify.suite_hopf(ring, 3, 0)
    witness = "IntegralityError: antipode image has non-integer coefficient 1/2"
    details = {c.name: (c.passed, c.detail) for c in report.checks}
    assert details["antipode images are integral"] == (False, witness)
    assert details["dual antipode pairs with the antipode"] == (False, witness)
    for _ in range(2):  # the image is memoised now, and still refused
        with pytest.raises(IntegralityError, match="1/2"):
            antipode(GrothElement.basis(ring, lam))
    # a rational combination is not asserted, and carries the bad image
    half = antipode(GrothElement.basis(ring, lam).scale(Fraction(1, 3)))
    assert half.coefficient(mp_empty(3)) == Fraction(1, 6)


def test_returned_images_are_not_the_memo():
    ring = _fresh_upper()
    for x in (
        GrothElement.basis(ring, ((2,), (), ())),
        GrothElement(ring, {((1,), (), ()): 1, ((), (1,), ()): 2}),
    ):
        want = dict(antipode(x).terms)
        got = antipode(x)
        got.terms.clear()
        assert antipode(x).terms == want
    images = hopf.dual_antipode_power_sum(ring, 1, 3)
    want = {u: dict(s.terms) for u, s in images.items()}
    images.clear()
    got = hopf.dual_antipode_power_sum(ring, 1, 3)
    assert {u: dict(s.terms) for u, s in got.items()} == want


def test_grouplike_e_series():
    # Delta(E_U(t)) = E_U(t) (x) E_U(t) coefficientwise to degree 4
    for ring in (C2,):
        for u in range(ring.rank()):
            U = ring.basis_element(u)
            for n in range(5):
                lhs = comultiply(gr.e_of(ring, n, U))
                rhs = TensorGroth(ring)
                for i in range(n + 1):
                    rhs = rhs + TensorGroth.of(
                        gr.e_of(ring, i, U), gr.e_of(ring, n - i, U)
                    )
                assert lhs == rhs


def test_dual_multiply():
    empty = mp_empty(2)
    assert hopf.dual_multiply(C2, empty, empty) == {empty: 1}
    got = hopf.dual_multiply(C2, ((1,), ()), ((1,), ()))
    assert got == {((2,), ()): 1, ((1, 1), ()): 1}
    # duality: <Y_mu Y_nu, Z_lam> = <Y_mu (x) Y_nu, Delta(Z_lam)>
    keys = multipartitions_upto(2, 2)
    for mu in keys:
        for nu in keys:
            prod = hopf.dual_multiply(C2, mu, nu)
            for lam in multipartitions_upto(2, 3):
                lhs = prod.get(lam, 0)
                rhs = comultiply(GrothElement.basis(C2, lam)).coefficient((mu, nu))
                assert lhs == rhs


def test_dual_comultiplication_matches_product_constants():
    # the dual coproduct constants are the structure constants of z_multiply:
    # recompute them through the public substitution of variable sets, as
    # Schur coefficients of prod_U s_{lam(U)} of the substituted sets
    from wreathgroth.groth import _doubled_labels, _substitution_plan

    plan, labels = _substitution_plan(C2), _doubled_labels(C2)
    keys = multipartitions_upto(2, 2)
    products = {
        (mu, nu): GrothElement.basis(C2, mu) * GrothElement.basis(C2, nu)
        for mu in keys for nu in keys
    }
    for lam in multipartitions_upto(2, 2):
        f = SymSeries.one(C2.labels, 4)
        for u, kappa in enumerate(lam):
            f = f * SymSeries.schur(C2.labels, C2.labels[u], kappa, 4)
        dual = sf.power_to_schur(sf.substitute_variable_sets(f, plan, labels))
        for mu in keys:
            for nu in keys:
                assert dual.get(mu + nu, 0) == products[mu, nu].coefficient(lam)


def test_dual_antipode_power_sum_integers():
    out = hopf.dual_antipode_power_sum(Z, 1, 4)[0]
    # S(p_1) = -p_1 + p_1^2 - p_1^3 + p_1^4
    want = {
        ((1,),): Fraction(-1),
        ((1, 1),): Fraction(1),
        ((1, 1, 1),): Fraction(-1),
        ((1, 1, 1, 1),): Fraction(1),
    }
    assert out.terms == want
    out2 = hopf.dual_antipode_power_sum(Z, 2, 4)[0]
    assert out2.terms == {((2,),): Fraction(-1), ((2, 2),): Fraction(1)}


def test_dual_antipode_leading_term():
    for ring in (C2, M2):
        for l in (1, 2):
            images = hopf.dual_antipode_power_sum(ring, l, 4)
            for u in range(ring.rank()):
                key = tuple((l,) if i == u else () for i in range(ring.rank()))
                assert images[u].coefficient(key) == -1


def test_dual_antipode_pairs_with_primal():
    # coeff of s_mu in S*(s_lam) equals coeff of Z_lam in S(Z_mu)
    for ring in (C2,):
        keys = multipartitions_upto(ring.rank(), 3)
        duals = {
            lam: hopf.dual_antipode_on_schur(ring, lam, 3) for lam in keys
        }
        for mu in keys:
            s = antipode(GrothElement.basis(ring, mu))
            for lam in keys:
                got = sf.power_to_schur(duals[lam]).get(mu, 0)
                assert got == s.coefficient(lam), (lam, mu)


def theta_twist(f: SymSeries, ring, inverse: bool = False) -> SymSeries:
    """Append (inverse) or remove (forward) the value 1 from the unit's
    variable set: p_l of that set shifts by -1 (forward) or +1 (inverse)."""
    one = ring.unit_index()
    if one is None:
        raise DomainError("the twist needs the ring unit to be a basis element")
    slot = f.labels.index(ring.labels[one])
    shift = Fraction(1 if inverse else -1)
    terms = {}
    for key, coeff in f.terms.items():
        expansions = [((), Fraction(1))]
        for l in key[slot]:
            expansions = [
                (parts + extra, c * w)
                for parts, c in expansions
                for extra, w in (((l,), Fraction(1)), ((), shift))
            ]
        for parts, c in expansions:
            k2 = list(key)
            k2[slot] = tuple(sorted(parts, reverse=True))
            accumulate(terms, {tuple(k2): c}, coeff)
    return SymSeries(f.labels, f.degree, terms)


def test_theta_twist():
    D = 5
    # theta(e_1) = e_1 - 1
    e1 = sf.e_series(Z.labels, "1", 1, D)
    tw = theta_twist(e1, Z)
    assert tw.terms == {((1,),): Fraction(1), ((),): Fraction(-1)}
    # theta(e_i) = e_i - e_{i-1} + e_{i-2} - ...
    for i in range(1, 5):
        ei = sf.e_series(Z.labels, "1", i, D)
        want = SymSeries.zero(Z.labels, D)
        for j in range(i + 1):
            want = want + sf.e_series(Z.labels, "1", i - j, D).scale((-1) ** j)
        assert theta_twist(ei, Z) == want
    # twist then untwist
    for i in range(1, 5):
        ei = sf.e_series(Z.labels, "1", i, D)
        assert theta_twist(theta_twist(ei, Z), Z, inverse=True) == ei
    # evaluating theta(e_i) at the variable set {1, 0, 0, ...} gives zero:
    # at that point every p_l is 1, so the value is the sum of coefficients
    for i in range(1, 5):
        tw = theta_twist(sf.e_series(Z.labels, "1", i, D), Z)
        assert sum(tw.terms.values()) == 0


def test_theta_twist_needs_unit_label():
    f = sf.e_series(M2.labels, "E11", 1, 3)
    with pytest.raises(DomainError):
        theta_twist(f, M2)


def test_formal_group_law_rank_one():
    law = hopf.formal_group_law(Z, 3)
    p1 = law.component(0, 1)
    assert p1 == {
        (((0, 0, 1),)): Fraction(1),
        (((1, 0, 1),)): Fraction(1),
        ((0, 0, 1), (1, 0, 1)): Fraction(1),
    }


def test_formal_group_law_properties():
    for ring in (Z, C2):
        law = hopf.formal_group_law(ring, 3)
        assert hopf.law_first_order(law) is None
        assert hopf.law_zero_laws(law) is None
        assert hopf.law_associative(law, 3)


def _merge_symbols(a, b):
    return tuple(sorted(a + b))


def reference_law(ring, degree):
    """The law's components on Fractions, the route the integer one
    replaced: the public substitution per component, then per key and slot
    the p -> e row as a monomial product merging sorted symbols, the
    monomials above e-degree ``degree`` dropped, and the sums settled."""
    plan = gr._substitution_plan(ring)
    out_labels = gr._doubled_labels(ring)
    k = ring.rank()
    components = {}
    for u in range(k):
        for i in range(1, degree + 1):
            base = sf.e_series(ring.labels, ring.labels[u], i, degree)
            series = sf.substitute_variable_sets(base, plan, out_labels)
            poly = {}
            for key, coeff in series.terms.items():
                acc = {(): coeff}
                for slot, rho in enumerate(key):
                    if rho:
                        family, v = (0, slot) if slot < k else (1, slot - k)
                        row = {
                            tuple((family, v, j) for j in kappa): c
                            for kappa, c in hopf._p_in_e_row(rho).items()
                        }
                        acc = monomial_product(acc, row, _merge_symbols)
                accumulate(poly, {m: c for m, c in acc.items() if sum(s[2] for s in m) <= degree})
            assert all(c.denominator == 1 for c in poly.values()), (u, i)
            components[(u, i)] = settle(poly)
    return components


LAW_RINGS = [
    (lambda: Z, 6),
    (lambda: C2, 4),
    (lambda: rg.cyclic_group_algebra(3), 3),
    (lambda: M2, 3),
    (lambda: rg.golden_ring(), 4),
    (_fresh_upper, 3),
]


@pytest.mark.parametrize(
    "make,degree", LAW_RINGS, ids=["integers", "cyclic2", "cyclic3", "matrix2", "golden", "upper"]
)
def test_formal_group_law_matches_the_fraction_route(make, degree):
    ring = make()
    law = hopf.formal_group_law(ring, degree)
    assert law.components == reference_law(ring, degree)
    for poly in law.components.values():
        assert all(type(c) is int for c in poly.values())
        # every monomial is sorted and fits the law's degree: the box of the
        # substitution truncates, and p -> e keeps degrees
        assert all(list(m) == sorted(m) for m in poly)
        assert max(sum(s[2] for s in m) for m in poly) <= degree


def test_a_non_integral_group_law_is_refused_and_fails_its_check(monkeypatch):
    # half of e_2 leaves a2/2 in the law's component e_2, so the exact
    # division by the series' denominator has a remainder
    e_series = sf.e_series

    def halved(labels, label, n, degree):
        out = e_series(labels, label, n, degree)
        return out.scale(Fraction(1, 2)) if n == 2 else out

    monkeypatch.setattr(sf, "e_series", halved)
    witness = "group law component (1, 2) is not integral"
    with pytest.raises(IntegralityError) as exc:
        hopf.formal_group_law(rg.integers.__wrapped__(), 3)
    assert str(exc.value) == witness

    report = verify.run_suite("witt", rg.integers.__wrapped__(), 3, 0)
    check = next(c for c in report.checks if c.name.startswith("the coproduct's formal group law"))
    assert not check.passed
    assert check.detail == f"IntegralityError: {witness}"
    assert sum(not c.passed for c in report.checks) == 1


def _random_law_poly(rng, degree, fractions):
    symbols = [(f, u, j) for f in range(3) for u in range(2) for j in range(1, 4)]
    terms = {}
    for _ in range(rng.randint(0, 8)):
        mono = tuple(sorted(rng.choice(symbols) for _ in range(rng.randint(0, 3))))
        c = rng.randint(-3, 3)
        terms[mono] = Fraction(c, rng.choice((1, 2, 3))) if fractions else c
    return hopf.LawPoly(degree, terms)


def test_law_poly_product_matches_pairwise_reference():
    rng = random.Random(23)
    for trial in range(300):
        degree = rng.randint(0, 7)
        a = _random_law_poly(rng, degree, fractions=trial % 2)
        b = _random_law_poly(rng, degree, fractions=trial % 3 == 0)
        want = {}
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                mono = tuple(sorted(ka + kb))
                if sum(s[2] for s in mono) <= degree:
                    want[mono] = want.get(mono, 0) + ca * cb
        got = (a * b).terms
        assert got == {m: c for m, c in want.items() if c}
        assert all(type(c) is int or c.denominator > 1 for c in got.values())
    assert (a * hopf.LawPoly(degree)).is_zero()
    with pytest.raises(DomainError):
        hopf.LawPoly(2) * hopf.LawPoly(3)


# sha256 over repr(sorted (l, u, key, c)) of dual_antipode_power_sum(ring, l, d)
# for 1 <= l <= d, taken while RingSeries still held nested coefficient vectors
DUAL_ANTIPODE_SHA256 = [
    (Z, 6, "b787f08c143adb8ff29397e763e1f636b3c9a7e814888b0fe3729a1f8ad6bf58"),
    (C2, 5, "46a7b5fe19457a949ec9f6560b36388c35694527fd7b7540fed55eeb97d8c65d"),
    (rg.golden_ring(), 5, "b592a04e06368942513c1e981878ff6610860759c1d8981426c26158a5286c9e"),
    (M2, 4, "353103df4543aac657dc7c08cc6e6aef55c85818351b0ae9860cd97140336cb4"),
]


@pytest.mark.parametrize(
    "ring,degree,digest",
    DUAL_ANTIPODE_SHA256,
    ids=[f"{r.name}-{d}" for r, d, _ in DUAL_ANTIPODE_SHA256],
)
def test_dual_antipode_power_sums_are_pinned(ring, degree, digest):
    entries = sorted(
        (l, u, key, Fraction(c))  # the digest was taken on Fraction coefficients
        for l in range(1, degree + 1)
        for u, image in hopf.dual_antipode_power_sum(ring, l, degree).items()
        for key, c in image.terms.items()
    )
    assert hashlib.sha256(repr(entries).encode()).hexdigest() == digest
