import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from wreathgroth import ring as rg
from wreathgroth.errors import ConfigError, DomainError, MissingDataError


def test_integers_valid():
    Z = rg.integers()
    assert Z.validate() == []
    assert Z.labels == ("1",)
    assert Z.unit_index() == 0
    assert Z.is_monomial_algebra()
    assert Z.is_commutative()


def test_c2_multiplication():
    R = rg.cyclic_group_algebra(2)
    assert R.validate() == []
    e, g = R.basis_element(0), R.basis_element(1)
    assert g * g == e
    assert e * g == g
    assert R.is_monomial_algebra()
    assert R.is_commutative()


def test_mat2():
    R = rg.matrix_ring(2)
    assert R.validate() == []
    E = {lab: R.basis_element(i) for i, lab in enumerate(R.labels)}
    assert E["E12"] * E["E21"] == E["E11"]
    assert (E["E12"] * E["E12"]).is_zero()
    assert R.is_monomial_algebra()
    assert not R.is_commutative()
    assert R.one() == E["E11"] + E["E22"]
    assert R.unit_index() is None


def test_golden_ring_not_monomial():
    R = rg.golden_ring()
    assert R.validate() == []
    one, x = rg.RingElement(R, {0: 1}), rg.RingElement(R, {1: 1})
    assert x * x == one + x
    assert not R.is_monomial_algebra()


def test_ring_elements_have_integer_coefficients():
    # R is a Z-module: a fraction is refused, never floored or kept as zero
    R = rg.golden_ring()
    for make in (
        lambda: rg.RingElement(R, {0: F(1, 2), 1: F(3, 2)}),
        lambda: R.element({0: 2.7}),
        lambda: R.one().scale(F(1, 2)),
    ):
        with pytest.raises(DomainError, match="^ring element has non-integer coefficient"):
            make()
    assert R.element({0: F(4, 2)}) == R.element({0: 2})
    # so does a ring's structure tensor or unit
    for tensor, unit in (({(0, 0): {0: F(1, 2)}}, {0: 1}), ({(0, 0): {0: 1}}, {0: 2.5})):
        with pytest.raises(ConfigError, match="non-integer coefficient"):
            rg.BaseRing(("1",), tensor, unit=unit)


def test_a_scalar_on_the_right_scales_like_one_on_the_left():
    R = rg.golden_ring()
    a = R.element({0: 1, 1: -2})
    assert a * F(2) == F(2) * a == a * 2 == a.scale(2)
    with pytest.raises(DomainError, match="^ring element has non-integer coefficient 1/2$"):
        a * F(1, 2)
    # the memo key of e_of and h_of holds the integer numerators
    assert a.key() == ((0, 1), (1, -2))
    assert all(type(c) is int for _, c in a.key())


def test_unit_neutral_and_associativity_random():
    rng = random.Random(11)
    for R in (rg.integers(), rg.cyclic_group_algebra(3), rg.matrix_ring(2), rg.golden_ring()):
        for _ in range(20):
            a = R.element({i: rng.randint(-3, 3) for i in range(R.rank())})
            b = R.element({i: rng.randint(-3, 3) for i in range(R.rank())})
            c = R.element({i: rng.randint(-3, 3) for i in range(R.rank())})
            assert R.one() * a == a
            assert a * R.one() == a
            assert (a * b) * c == a * (b * c)


def test_validate_reports_missing_unit():
    tensor = {
        (0, 0): {0: 1, 1: 1},
        (0, 1): {},
        (1, 0): {},
        (1, 1): {},
    }
    R = rg.BaseRing(("a", "b"), tensor, unit=None)
    issues = R.validate()
    assert any("no unit" in msg for msg in issues)
    assert R.unit_index() is None
    # unit_index reads the declared unit only: a basis element, or None
    assert rg.BaseRing(("a", "b"), tensor, unit={1: 1}).unit_index() == 1
    assert rg.BaseRing(("a", "b"), tensor, unit={0: 2}).unit_index() is None


def test_validate_reports_broken_associativity():
    # a*a = b, a*b = a, everything else zero: (a*a)*a = b*a = 0 but a*(a*a) = a
    tensor = {
        (0, 0): {1: 1},
        (0, 1): {0: 1},
        (1, 0): {},
        (1, 1): {},
    }
    R = rg.BaseRing(("a", "b"), tensor, unit=None)
    issues = R.validate()
    assert any("associativity fails at (a,a,a)" in msg for msg in issues)


def test_adams_on_integers_is_identity():
    Z = rg.integers()
    a = Z.element({0: 5})
    for d in (1, 2, 3, 6):
        assert Z.adams_apply(d, a) == a


def test_adams_power_maps_on_c2():
    R = rg.cyclic_group_algebra(2)
    g = R.basis_element(1)
    assert R.adams_apply(2, g) == R.basis_element(0)
    assert R.adams_apply(3, g) == g
    rng = random.Random(23)
    for _ in range(10):
        a = R.element({i: rng.randint(-3, 3) for i in range(2)})
        b = R.element({i: rng.randint(-3, 3) for i in range(2)})
        for d in (2, 3):
            assert R.adams_apply(d, a * b) == R.adams_apply(d, a) * R.adams_apply(d, b)


def test_lambda_rank_one():
    Z = rg.integers()
    one = Z.one()
    assert Z.lambda_apply(0, one) == one
    assert Z.lambda_apply(1, one) == one
    assert Z.lambda_apply(2, one).is_zero()


def test_lambda_sum_axiom():
    R = rg.cyclic_group_algebra(2)
    e, g = R.basis_element(0), R.basis_element(1)
    # lambda^2(U1 + U2) = lambda^2(U1) + lambda^1(U1) lambda^1(U2) + lambda^2(U2)
    lhs = R.lambda_apply(2, e + g)
    rhs = R.lambda_apply(2, e) + e * g + R.lambda_apply(2, g)
    assert lhs == rhs
    # lambda^2(2*e) = lambda^2(e)+lambda^1(e)^2+lambda^2(e) = e
    assert R.lambda_apply(2, 2 * e) == e * e


def test_lambda_of_a_negative_coefficient_uses_the_series_inverse():
    # lambda_t(-g) = (1 + g t)^(-1) = sum_n (-g t)^n
    R = rg.cyclic_group_algebra(2)
    e, g = R.basis_element(0), R.basis_element(1)
    for n in range(5):
        assert R.lambda_apply(n, -g) == (g ** n).scale((-1) ** n)
    want = [e, g - 2 * e, 3 * e - 2 * g, 3 * g - 4 * e]
    assert [R.lambda_apply(n, g - 2 * e) for n in range(4)] == want

def test_lambda_missing_data():
    R = rg.matrix_ring(2)
    with pytest.raises(MissingDataError):
        R.lambda_apply(2, R.one())
    with pytest.raises(MissingDataError):
        R.adams_apply(2, R.one())
    Z = rg.integers()
    with pytest.raises(MissingDataError):
        Z.lambda_apply(99, Z.one())


def test_element_literals():
    R = rg.cyclic_group_algebra(2)
    a = rg.parse_element(R, "2*e - g")
    assert a.terms == {0: 2, 1: -1}
    assert rg.format_element(a) == "2*e - g"
    assert rg.parse_element(R, "e+g").terms == {0: 1, 1: 1}
    assert rg.parse_element(R, "-e") == -R.basis_element(0)
    assert rg.parse_element(R, "g - g").is_zero()
    with pytest.raises(ConfigError):
        rg.parse_element(R, "2*q")
    with pytest.raises(ConfigError):
        rg.parse_element(R, "")
    assert rg.parse_element(R, "+e") == R.basis_element(0)
    assert rg.parse_element(R, "3 * e").terms == {0: 3}
    # every sign must be followed by a term
    for text in ("e-+g", "e--g", "-", "+", "e+", "2*e-"):
        with pytest.raises(ConfigError, match=r"^bad term '' in element literal"):
            rg.parse_element(R, text)
    Z = rg.integers()
    assert rg.parse_element(Z, "3*1").terms == {0: 3}


def test_config_round_trip(tmp_path):
    cfg = {
        "basis": ["e", "g"],
        "unit": {"e": 1},
        "mult": [
            {"left": "e", "right": "e", "out": {"e": 1}},
            {"left": "e", "right": "g", "out": {"g": 1}},
            {"left": "g", "right": "e", "out": {"g": 1}},
            {"left": "g", "right": "g", "out": {"e": 1}},
        ],
        "adams": {
            "2": {"e": {"e": 1}, "g": {"e": 1}},
            "3": {"e": {"e": 1}, "g": {"g": 1}},
        },
        "lambda": {"e": {"2": {}}, "g": {"2": {}}},
    }
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(cfg))
    R = rg.load_ring(str(path))
    assert R.validate() == []
    assert R.labels == ("e", "g")
    g = R.basis_element(1)
    assert g * g == R.basis_element(0)
    assert R.adams_apply(2, g) == R.basis_element(0)


def test_config_missing_pair_is_error():
    cfg = {
        "basis": ["a"],
        "unit": {"a": 1},
        "mult": [],
    }
    with pytest.raises(ConfigError, match=r"missing \(a,a\); zero products must be written"):
        rg.ring_from_config(cfg)
    with pytest.raises(ConfigError, match="empty basis"):
        rg.ring_from_config({"basis": [], "mult": []})


def test_resolve_ring_builtins():
    assert rg.resolve_ring("builtin:integers").name == "integers"
    assert rg.resolve_ring("builtin:cyclic(2)").name == "ZC2"
    assert rg.resolve_ring("builtin:matrix(2)").name == "Mat2"
    assert rg.resolve_ring("builtin:golden").name == "golden"
    for spec in ("builtin:nope", "builtin:integers(3)", "builtin:golden(7)"):
        with pytest.raises(ConfigError):
            rg.resolve_ring(spec)


def test_memo_builds_once_per_name_and_ring():
    R, S = rg.cyclic_group_algebra.__wrapped__(2), rg.cyclic_group_algebra.__wrapped__(2)
    calls = []

    def build():
        calls.append(1)
        return {}

    first = R.memo("test", build)
    assert R.memo("test", build) is first and len(calls) == 1
    assert R.memo("other", build) is not first and len(calls) == 2
    assert S.memo("test", build) is not first and len(calls) == 3


# sha256 over repr((labels, tensor, unit, adams, lambda_ops, lambda_rmax,
# name)) of each built-in group algebra, dict order included: whatever
# builds these rings must reproduce their data exactly.
BUILTIN_RING_SHA256 = {
    "integers": "e11a1135a741a743eac545adab780a48053173c05609fb334a2c9cf65f95f083",
    "ZC1": "6ec947ffcb9ef7491c5c3eb8a8662c952c5310c06e1d753d535e8471ba651d33",
    "ZC2": "b3716676752ce66528010fe939598129a5be8f06ee9d142159e922cb77619eda",
    "ZC3": "a9e8b4271321ac8d817003bab0cd62398cc0d226b4b14c81b39ff3c485788fbe",
    "ZC4": "154201f9d077a6ea5b6e0f4416505141a76a3a9d2b39822e0d8f61f582d0f549",
    "ZC5": "102160d56f095ef6666d00ab581a7b2282a71039ad10e444684219eb29a2d812",
}


def test_builtin_group_algebras_are_pinned():
    def data(R):
        return (R.labels, R.tensor, R.unit, R.adams, R.lambda_ops, R.lambda_rmax, R.name)

    assert data(rg.integers()) == (
        ("1",),
        {(0, 0): {0: 1}},
        {0: 1},
        {d: [{0: 1}] for d in range(1, 10)},
        {(0, r): {} for r in range(2, 9)},
        8,
        "integers",
    )
    rings = [rg.integers()] + [rg.cyclic_group_algebra(n) for n in range(1, 6)]
    got = {R.name: hashlib.sha256(repr(data(R)).encode()).hexdigest() for R in rings}
    assert got == BUILTIN_RING_SHA256

