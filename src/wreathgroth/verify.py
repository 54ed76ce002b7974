"""Verification suites: every structural identity the library claims, run as
exact checks with witnesses.

Each suite returns a Report whose checks are named by the identity they test
and the bound that ran.  A check returns None when it holds and a witness
string when it fails (``Report.run``); an equality's witness, from
``_exact.first_difference``, names the least differing key as the CLI prints
it and the coefficient on each side.  Suites are deterministic given (ring,
degree, seed); randomized property checks draw from ``random.Random(seed)``
and record the seed in the report.
"""

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from . import groth as gr
from . import hopf
from . import pbw
from . import symfun as sf
from ._exact import accumulate, first_difference, reduce, row_reduce, substitute
from .errors import MissingDataError
from .groth import GrothElement
from .partitions import (
    format_multipartition,
    format_partition,
    mp_empty,
    mp_sort_key,
    mp_total,
    multipartitions_upto,
    partitions,
)
from .ring import BaseRing, RingElement
from .symfun import SymSeries
from .witt import WittVector


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    suite: str
    ring: str
    degree: int
    seed: int
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def run(self, name, fn):
        """Record the check fn: it passes when it returns None and fails
        with the witness when it returns a string.  A raised exception other
        than missing data, or any other return value, is a failure that
        names it."""
        try:
            result = fn()
        except MissingDataError:
            raise
        except Exception as exc:
            result = f"{type(exc).__name__}: {exc}"
        if not (result is None or isinstance(result, str)):
            result = f"returned {result!r}, not None or a witness"
        self.checks.append(Check(name, result is None, result or ""))


SUITES = (
    "symfun",
    "oracle-crosscheck",
    "commutation",
    "presentation",
    "hopf",
    "lambda",
    "witt",
)


def run_suite(name: str, ring: BaseRing, degree: int, seed: int) -> Report:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return globals()["suite_" + name.replace("-", "_")](ring, degree, seed)


def _z(ring: BaseRing, *keys) -> str:
    """Z_mu, or Z_mu (x) Z_nu (x) ... for the keys of a tensor, as printed."""
    return " (x) ".join("Z" + format_multipartition(k, ring.labels) for k in keys)


def _differ(x, y, show=None, order=None) -> str:
    """The witness of x != y for two elements, or for two {key: coefficient}
    dicts whose keys ``show`` prints in the sort order ``order``: the least
    differing key and its coefficient on each side.  An element's keys print
    as the CLI prints them, multipartitions in graded order."""
    a, b = x, y
    if show is None:
        a, b = x.terms, y.terms
        if isinstance(x, pbw.PBWElement):
            show = lambda w: pbw.format_word(w, x.ring)
        elif isinstance(x, SymSeries):
            show, order = (lambda k: "p" + format_multipartition(k, x.labels)), mp_sort_key
        elif isinstance(x, hopf.TensorGroth):
            show, order = (lambda k: _z(x.ring, *k)), (lambda k: tuple(map(mp_sort_key, k)))
        else:
            show, order = (lambda k: _z(x.ring, k)), mp_sort_key
    key, left, right = first_difference(a, b, order)
    return f"coefficient of {show(key)}: left side {left}, right side {right}"


def _differ_at(x, y, what="component") -> str:
    """The witness of x != y for two sequences of integers numbered from 1
    (a Witt vector's components or its ghosts): the first place where they
    differ and the value on each side."""
    n, left, right = first_difference(dict(enumerate(x, 1)), dict(enumerate(y, 1)))
    return f"{what} {n}: left side {left}, right side {right}"


# ---------------------------------------------------------------------------

def suite_symfun(ring: BaseRing, degree: int, seed: int) -> Report:
    """The symmetric-function kernel; independent of the ring."""
    D = max(degree, 6)
    rep = Report("symfun", "-", D, seed)
    labels = ("x",)

    def he_identity():
        e = [sf.e_series(labels, "x", n, D) for n in range(D + 1)]
        h = [sf.h_series(labels, "x", n, D) for n in range(D + 1)]
        for n in range(1, D + 1):
            acc = SymSeries.zero(labels, D)
            for k in range(n + 1):
                acc = acc + sf.multiply(h[n - k], e[k]).scale((-1) ** k)
            if not acc.is_zero():
                return f"at degree {n}: {_differ(acc, acc.scale(0))}"

    rep.run(f"H(t) E(-t) = 1 up to degree {D}", he_identity)

    def log_derivative():
        e = [sf.e_series(labels, "x", n, D) for n in range(D + 1)]
        for n in range(D):
            lhs = e[n + 1].scale(n + 1)
            rhs = SymSeries.zero(labels, D)
            for k in range(n + 1):
                pk = SymSeries.generator(labels, "x", (k + 1,), D)
                rhs = rhs + sf.multiply(e[n - k], pk).scale((-1) ** k)
            if lhs != rhs:
                return f"at degree {n + 1}: {_differ(lhs, rhs)}"

    rep.run(f"E'(t)/E(t) = P(-t) up to degree {D - 1}", log_derivative)

    def cauchy():
        kern = sf.cauchy_kernel(D)
        schur = sf.power_to_schur(kern)
        diagonal = {(lam, lam): 1 for n in range(D // 2 + 1) for lam in partitions(n)}
        if schur != diagonal:
            show = lambda k: "s" + format_multipartition(k, kern.labels)
            return _differ(schur, diagonal, show, mp_sort_key)

    rep.run(f"Cauchy kernel = sum of diagonal Schur pairs to bidegree ({D // 2},{D // 2})", cauchy)

    def orthogonality():
        from .partitions import mn_character, z_factor

        for n in range(7):
            ps = partitions(n)
            for lam in ps:
                for kappa in ps:
                    total = sum(
                        Fraction(mn_character(lam, mu) * mn_character(kappa, mu), z_factor(mu))
                        for mu in ps
                    )
                    if total != (1 if lam == kappa else 0):
                        at = f"({format_partition(lam)},{format_partition(kappa)})"
                        return f"at {at}: left side {total}, right side {int(lam == kappa)}"

    rep.run("character orthogonality for n <= 6", orthogonality)

    def omega_involution():
        rng = random.Random(seed)
        keys = multipartitions_upto(1, 5)
        for _ in range(5):
            picks = rng.sample(keys, 6)
            f = SymSeries(labels, 5, {k: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for k in picks})
            back = sf.omega(sf.omega(f, "x"), "x")
            if back != f:
                return f"omega^2 != id: {_differ(back, f)}"
        for n in range(1, 6):
            lhs, rhs = sf.omega(sf.e_series(labels, "x", n, 5), "x"), sf.h_series(labels, "x", n, 5)
            if lhs != rhs:
                return f"omega(e_{n}) != h_{n}: {_differ(lhs, rhs)}"

    rep.run("omega is an involution exchanging e and h", omega_involution)
    return rep


# ---------------------------------------------------------------------------

def suite_oracle_crosscheck(ring: BaseRing, degree: int, seed: int) -> Report:
    rep = Report("oracle-crosscheck", ring.name, degree, seed)
    keys = multipartitions_upto(ring.rank(), degree)

    def crosscheck():
        # the complete table, so that each product below is a table row, not
        # a row through the primitive generators, compared with the oracle
        gr.product_table(ring).ensure(degree)
        # keys are graded, the empty one first: the partners of mu are a slice
        totals = [mp_total(k) for k in keys]
        for mu in keys[1:]:
            for nu in keys[1:bisect_right(totals, degree - mp_total(mu))]:
                a = gr.z_multiply(GrothElement.basis(ring, mu), GrothElement.basis(ring, nu))
                b = pbw.oracle_multiply(ring, mu, nu)
                if a != b:
                    lam, ca, cb = first_difference(a.terms, b.terms, mp_sort_key)
                    return (
                        f"differ at {_z(ring, mu)} * {_z(ring, nu)}, first at {_z(ring, lam)}:"
                        f" combinatorial {ca}, oracle {cb}"
                    )

    rep.run(
        f"combinatorial product equals enveloping-algebra product, |mu|+|nu| <= {degree}",
        crosscheck,
    )

    def integrality():
        # a fresh table, so its exact division by prod_U |lam(U)|! runs here
        # and a remainder surfaces as this check's witness
        gr.ProductTable(ring).ensure(degree)

    rep.run("all structure constants are integers", integrality)

    def unit_neutral():
        one = GrothElement.one(ring)
        for mu in keys:
            x = GrothElement.basis(ring, mu)
            for a, b in ((one, x), (x, one)):
                if a * b != x:
                    return f"{_z(ring, *a.terms)} * {_z(ring, *b.terms)}: {_differ(a * b, x)}"

    rep.run("Z of the empty multipartition is a two-sided identity", unit_neutral)

    def associativity():
        singles = [
            k for k in multipartitions_upto(ring.rank(), 1) if mp_total(k) == 1
        ]
        for ka in singles:
            for kb in singles:
                for kc in singles:
                    a, b, c = (GrothElement.basis(ring, k) for k in (ka, kb, kc))
                    left, right = (a * b) * c, a * (b * c)
                    if left != right:
                        triple = ", ".join(_z(ring, k) for k in (ka, kb, kc))
                        return f"at ({triple}): {_differ(left, right)}"

    rep.run("associativity on all basis triples of total degree 3", associativity)
    return rep


# ---------------------------------------------------------------------------

def suite_commutation(ring: BaseRing, degree: int, seed: int) -> Report:
    rep = Report("commutation", ring.name, degree, seed)
    bd = min(3, degree)
    tables = {}  # (u, v) -> gr.left_products of the u-th and v-th basis elements

    def table(u: int, v: int) -> dict:
        if (u, v) not in tables:
            tables[u, v] = gr.left_products(ring, bd, ring.basis_element(u), ring.basis_element(v))
        return tables[u, v]

    def commutator(u: int, v: int, i: int, j: int) -> GrothElement:  # [e_i(U), e_j(V)]
        return table(u, v)[i, j][1] - table(v, u)[j, i][1]

    def degree_one():
        gr.product_table(ring).ensure(2)  # table rows, apart from e_n's ribbon rule
        for u in range(ring.rank()):
            for v in range(ring.rank()):
                U, V = ring.basis_element(u), ring.basis_element(v)
                lhs = gr.e_of(ring, 1, U) * gr.e_of(ring, 1, V) + gr.e_of(ring, 1, V * U)
                rhs = gr.e_of(ring, 1, V) * gr.e_of(ring, 1, U) + gr.e_of(ring, 1, U * V)
                if lhs != rhs:
                    return f"at ({ring.labels[u]},{ring.labels[v]}): {_differ(lhs, rhs)}"

    rep.run("e_1(U)e_1(V) + e_1(VU) = e_1(V)e_1(U) + e_1(UV) on basis pairs", degree_one)

    def series_relation():
        for u in range(ring.rank()):
            for v in range(ring.rank()):
                for i in range(bd + 1):
                    for j in range(bd + 1):
                        lhs, rhs = table(u, v)[i, j][0], table(v, u)[j, i][0]
                        if lhs != rhs:
                            at = f"({ring.labels[u]},{ring.labels[v]})"
                            return f"bidegree ({i},{j}) at {at}: {_differ(lhs, rhs)}"

    rep.run(
        "E_U(u) E_{VU}(-uv)^{-1} E_V(v) = E_V(v) E_{UV}(-uv)^{-1} E_U(u) "
        f"coefficientwise to bidegree ({bd},{bd})",
        series_relation,
    )

    def filtration_drop():
        for u in range(ring.rank()):
            for v in range(ring.rank()):
                for i in range(1, bd + 1):
                    for j in range(1, bd + 1):
                        if commutator(u, v, i, j).degree() > i + j - 1:
                            return f"[e_{i}({ring.labels[u]}), e_{j}({ring.labels[v]})]"

    rep.run("[e_i(U), e_j(V)] lies in filtration degree i+j-1", filtration_drop)

    def commuting_pairs():
        for u in range(ring.rank()):
            for i in range(1, bd + 1):
                for j in range(1, bd + 1):
                    c = commutator(u, u, i, j)
                    if not c.is_zero():
                        return f"[e_{i}, e_{j}] of {ring.labels[u]}: {_differ(c, c.scale(0))}"

    rep.run("e_i(U) and e_j(U) commute for a single argument", commuting_pairs)
    return rep


# ---------------------------------------------------------------------------

def _change_basis(ring: BaseRing, mat: list[list[int]]) -> BaseRing:
    """Ring presented on the new basis b_i = sum_j mat[i][j] u_j (mat unimodular)."""
    n = ring.rank()
    pivots, det = row_reduce(
        ({j: c for j, c in enumerate(row) if c}, {i: 1}) for i, row in enumerate(mat)
    )
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")

    def in_new_basis(vec):
        # u_p = sum_k inverse[p][k] b_k, the tags of pivot p
        out = {}
        for p, c in vec.items():
            accumulate(out, pivots[p][1], c)
        return out

    tensor = {}
    for i in range(n):
        for j in range(n):
            bi = RingElement(ring, {p: mat[i][p] for p in range(n)})
            bj = RingElement(ring, {q: mat[j][q] for q in range(n)})
            tensor[(i, j)] = in_new_basis((bi * bj).terms)
    unit = None if ring.unit is None else in_new_basis(ring.unit)
    labels = tuple(f"b{i}" for i in range(n))
    return BaseRing(labels, tensor, unit=unit, name=f"{ring.name}'")


def basis_independence_matrix(ring: BaseRing, degree: int):
    """Coordinates of the alternative-basis Z elements in the original Z
    basis: one sparse row {key: coefficient} per key of size <= degree, a
    square matrix over those keys."""
    n = ring.rank()
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 1:
        mat = [[-1]]
    else:
        mat[1][0] = 1  # b_1 = u_0 + u_1, the rest unchanged
    other = _change_basis(ring, mat)

    def image(s):  # T_l(b_i) = sum_j mat[i][j] T_l(u_j)
        b = ring.element(dict(enumerate(mat[pbw.sym_index(s)])))
        return pbw.PBWElement.generator(ring, degree, pbw.sym_level(s), b)

    rows = []
    for lam in multipartitions_upto(n, degree):
        x = pbw.z_element_pbw(other, lam, degree)
        transported = substitute(x.terms, image, pbw.PBWElement.one(ring, degree))
        rows.append(pbw.to_z_basis(transported).terms)
    return rows


def suite_presentation(ring: BaseRing, degree: int, seed: int) -> Report:
    rep = Report("presentation", ring.name, degree, seed)
    rng = random.Random(seed)

    def f_two_paths():
        for u in range(ring.rank()):
            pbw.f_series(ring, ring.basis_element(u), min(degree, 4))
        for _ in range(2):
            W = ring.element({i: rng.randint(-2, 2) for i in range(ring.rank())})
            pbw.f_series(ring, W, min(degree, 4))

    rep.run(
        "F_U(t) from the Moebius/log form equals sum_i T_i(U) t^i to degree "
        f"{min(degree, 4)}",
        f_two_paths,
    )

    def sum_relations():
        gr.product_table(ring).ensure(2)  # table rows, apart from e_n's ribbon rule
        for u in range(ring.rank()):
            for v in range(ring.rank()):
                U, V = ring.basis_element(u), ring.basis_element(v)
                at = f"({ring.labels[u]},{ring.labels[v]})"
                lhs, rhs = gr.e_of(ring, 1, U + V), gr.e_of(ring, 1, U) + gr.e_of(ring, 1, V)
                if lhs != rhs:
                    return f"e_1 additivity fails at {at}: {_differ(lhs, rhs)}"
                lhs = gr.e_of(ring, 2, U + V)
                rhs = (
                    gr.e_of(ring, 1, U) * gr.e_of(ring, 1, V)
                    - gr.e_of(ring, 1, U * V)
                    + gr.e_of(ring, 2, U)
                    + gr.e_of(ring, 2, V)
                )
                if lhs != rhs:
                    return f"e_2 expansion fails at {at}: {_differ(lhs, rhs)}"

    rep.run(
        "e_1(U+V) = e_1(U)+e_1(V) and "
        "e_2(U+V) = e_1(U)e_1(V) - e_1(UV) + e_2(U) + e_2(V)",
        sum_relations,
    )

    def decompose_integral():
        bound = min(degree, 3)
        for _ in range(3):
            W = ring.element({i: rng.randint(-2, 2) for i in range(ring.rank())})
            for nn in range(1, bound + 1):
                gr.e_of(ring, nn, W).assert_integral(f"e_{nn}(W)")

    rep.run("e_n(W) of random integer combinations is integral", decompose_integral)

    def basis_independent():
        d = min(degree, 3)
        rows = basis_independence_matrix(ring, d)
        for row in rows:
            for x in row.values():
                if x.denominator != 1:
                    return "transported basis has fractional coordinates"
        _, det = row_reduce((row, {}) for row in rows)
        if det not in (1, -1):
            return f"change of basis has determinant {det}"

    rep.run(
        "integral span is independent of the basis of R (degree <= "
        f"{min(degree, 3)})",
        basis_independent,
    )
    return rep


# ---------------------------------------------------------------------------

def suite_hopf(ring: BaseRing, degree: int, seed: int) -> Report:
    rep = Report("hopf", ring.name, degree, seed)
    d3 = min(3, degree)
    keys3 = multipartitions_upto(ring.rank(), d3)

    def coassociativity():
        for lam in keys3:
            x = GrothElement.basis(ring, lam)
            left: dict = {}
            right: dict = {}
            for (mu, nu), c in hopf.comultiply(x).terms.items():
                d_mu = hopf.comultiply(GrothElement.basis(ring, mu)).terms
                accumulate(left, {(a, b, nu): c2 for (a, b), c2 in d_mu.items()}, c)
                d_nu = hopf.comultiply(GrothElement.basis(ring, nu)).terms
                accumulate(right, {(mu, a, b): c2 for (a, b), c2 in d_nu.items()}, c)
            if left != right:
                return f"at {_z(ring, lam)}: {_differ(left, right, lambda k: _z(ring, *k))}"

    rep.run(f"coassociativity on keys of size <= {d3}", coassociativity)

    def counit_axiom():
        empty = mp_empty(ring.rank())
        for lam in keys3:
            dlt = hopf.comultiply(GrothElement.basis(ring, lam))
            # the (empty, nu) keys are distinct, so nothing needs summing
            left = {nu: c for (mu, nu), c in dlt.terms.items() if mu == empty}
            right = {mu: c for (mu, nu), c in dlt.terms.items() if nu == empty}
            for side, got in (("(eps (x) id)", left), ("(id (x) eps)", right)):
                if got != {lam: 1}:
                    witness = _differ(GrothElement(ring, got), GrothElement.basis(ring, lam))
                    return f"{side} Delta({_z(ring, lam)}): {witness}"

    rep.run("counit axiom on both sides", counit_axiom)

    # the checks that multiply take table rows, a complete build being
    # cheaper than rows through the primitive generators at this density
    def antipode_axiom():
        gr.product_table(ring).ensure(d3)
        for lam in keys3:
            x = GrothElement.basis(ring, lam)
            acc = GrothElement.zero(ring)
            for (mu, nu), c in hopf.comultiply(x).terms.items():
                acc = acc + (
                    hopf.antipode(GrothElement.basis(ring, mu))
                    * GrothElement.basis(ring, nu)
                ).scale(c)
            unit = GrothElement.one(ring).scale(hopf.counit(x))
            if acc != unit:
                return f"at {_z(ring, lam)}: {_differ(acc, unit)}"

    rep.run("antipode axiom m(S (x) id)Delta = unit . counit", antipode_axiom)

    def antipode_integral():
        for lam in keys3:
            hopf.antipode(GrothElement.basis(ring, lam)).assert_integral("antipode")

    rep.run("antipode images are integral", antipode_integral)

    def delta_algebra_map():
        gr.product_table(ring).ensure(d3)
        small = [k for k in keys3 if 0 < mp_total(k)]
        for mu in small:
            for nu in small:
                if mp_total(mu) + mp_total(nu) > d3:
                    continue
                a, b = GrothElement.basis(ring, mu), GrothElement.basis(ring, nu)
                lhs, rhs = hopf.comultiply(a * b), hopf.comultiply(a) * hopf.comultiply(b)
                if lhs != rhs:
                    return f"at {_z(ring, mu)} * {_z(ring, nu)}: {_differ(lhs, rhs)}"

    rep.run(f"Delta is an algebra map on products of total degree <= {d3}", delta_algebra_map)

    d4 = min(4, degree)

    def grouplike():
        for u in range(ring.rank()):
            U = ring.basis_element(u)
            for n in range(d4 + 1):
                lhs = hopf.comultiply(gr.e_of(ring, n, U))
                rhs = hopf.TensorGroth(ring)
                for i in range(n + 1):
                    rhs = rhs + hopf.TensorGroth.of(
                        gr.e_of(ring, i, U), gr.e_of(ring, n - i, U)
                    )
                if lhs != rhs:
                    return f"at e_{n}({ring.labels[u]}): {_differ(lhs, rhs)}"

    rep.run(f"Delta(E_U(t)) = E_U(t) (x) E_U(t) coefficientwise to degree {d4}", grouplike)

    def dual_mult_vs_delta():
        keys2 = multipartitions_upto(ring.rank(), min(2, degree))
        delta = {}
        for mu in keys2:
            for nu in keys2:
                prod = hopf.dual_multiply(ring, mu, nu)
                for lam in multipartitions_upto(ring.rank(), mp_total(mu) + mp_total(nu)):
                    if lam not in delta:
                        delta[lam] = hopf.comultiply(GrothElement.basis(ring, lam))
                    if prod.get(lam, 0) != delta[lam].coefficient((mu, nu)):
                        at = f"{_z(ring, mu, nu)} in Delta({_z(ring, lam)})"
                        dual, co = prod.get(lam, 0), delta[lam].coefficient((mu, nu))
                        return f"at {at}: dual product {dual}, coproduct {co}"

    rep.run("dual multiplication constants equal coproduct constants", dual_mult_vs_delta)

    def dual_antipode_pairing():
        antipodes = {mu: hopf.antipode(GrothElement.basis(ring, mu)) for mu in keys3}
        for lam in keys3:
            image = sf.power_to_schur(hopf.dual_antipode_on_schur(ring, lam, d3))
            for mu in keys3:
                lhs = image.get(mu, 0)
                rhs = antipodes[mu].coefficient(lam)
                if lhs != rhs:
                    at = f"({_z(ring, lam)}, {_z(ring, mu)})"
                    return f"at {at}: dual antipode {lhs}, antipode {rhs}"

    rep.run("dual antipode pairs with the antipode", dual_antipode_pairing)

    def sub_hopf_closure():
        k, D = 2, min(3, degree)
        gr.product_table(ring).ensure(D)
        span = gr.gk_spanning_set(ring, k, D)
        echelon, _ = row_reduce((el.terms, {}) for _, el in span)
        for mono, el in span:
            # matrix over (key1, key2); membership in span (x) span means
            # both the column space and the row space lie in the span
            rows: dict = {}
            cols: dict = {}
            for (mu, nu), c in hopf.comultiply(el).terms.items():
                rows.setdefault(mu, {})[nu] = c
                cols.setdefault(nu, {})[mu] = c
            for where, part in (("{} (x) -", rows), ("- (x) {}", cols)):
                for key, vec in part.items():
                    rest = reduce(vec, echelon)
                    if rest:  # vec against its part in the span
                        of = "*".join(f"e_{i}({ring.labels[u]})" for i, u in mono) or "1"
                        at = where.format(_z(ring, key))
                        inside = accumulate(dict(vec), rest, -1)
                        witness = _differ(vec, inside, lambda k: _z(ring, k), mp_sort_key)
                        return f"Delta({of}) at {at} leaves the span: {witness}"

    rep.run(
        "the subalgebra generated by e_i(U), i <= 2, is closed under Delta "
        f"(degree <= {min(3, degree)})",
        sub_hopf_closure,
    )
    return rep


# ---------------------------------------------------------------------------

def suite_lambda(ring: BaseRing, degree: int, seed: int) -> Report:
    rep = Report("lambda", ring.name, degree, seed)
    if not (ring.has_adams() and ring.has_lambda()):
        raise MissingDataError(
            f"ring {ring.name} carries no lambda/Adams data; the lambda suite needs it"
        )

    def psi_one():
        for u in range(ring.rank()):
            for l in (1, 2, 3):
                x = pbw.PBWElement.generator(ring, 12, l, ring.basis_element(u))
                y = pbw.adams(ring, 1, x)
                if y != x:
                    return f"Psi_1 moves T_{l}({ring.labels[u]}): {_differ(y, x)}"

    rep.run("Psi_1 is the identity on generators", psi_one)

    def psi_compose():
        for u in range(ring.rank()):
            for l in (1, 2):
                x = pbw.PBWElement.generator(ring, 24, l, ring.basis_element(u))
                for m in (2, 3):
                    for n in (2, 3):
                        lhs = pbw.adams(ring, m, pbw.adams(ring, n, x))
                        rhs = pbw.adams(ring, m * n, x)
                        if lhs != rhs:
                            on = f"Psi_{m} o Psi_{n} on T_{l}({ring.labels[u]})"
                            return f"{on}: {_differ(lhs, rhs)}"

    rep.run("Psi_m o Psi_n = Psi_mn on generators (m, n <= 3)", psi_compose)

    def psi_algebra_map():
        rng = random.Random(seed)
        for _ in range(4):
            u, v = rng.randrange(ring.rank()), rng.randrange(ring.rank())
            x = pbw.PBWElement.generator(ring, 12, 1, ring.basis_element(u))
            y = pbw.PBWElement.generator(ring, 12, 2, ring.basis_element(v))
            diff = first_difference(
                pbw.adams(ring, 2, x * y).terms,
                (pbw.adams(ring, 2, x) * pbw.adams(ring, 2, y)).terms,
            )
            if diff:
                (w, a, b), U, V = diff, ring.labels[u], ring.labels[v]
                return (
                    f"Psi_2 is not multiplicative at ({U},{V}): word {pbw.format_word(w, ring)}"
                    f" has {a} in Psi_2(T1({U})*T2({V})), {b} in Psi_2(T1({U}))*Psi_2(T2({V}))"
                )

    rep.run("Psi_m is an algebra endomorphism", psi_algebra_map)

    def lambda_integral():
        bound = min(4, degree)
        for u in range(ring.rank()):
            for n in range(1, bound + 1):
                pbw.lambda_on_e1(ring, n, ring.basis_element(u), bound).assert_integral(
                    f"lambda^{n}(e_1({ring.labels[u]}))"
                )

    rep.run(f"lambda^n(e_1(U)) is integral for n <= {min(4, degree)}", lambda_integral)

    def lambda_rank_one():
        if ring.rank() != 1:
            return None
        one, bound = ring.one(), max(1, min(4, degree))
        for n in range(1, bound + 1):
            lhs, rhs = pbw.lambda_on_e1(ring, n, one, bound), gr.e_of(ring, n, one)
            if lhs != rhs:
                return f"lambda^{n}(e_1(1)) != e_{n}(1): {_differ(lhs, rhs)}"

    rep.run("over the integers lambda^n(e_1(1)) = e_n(1)", lambda_rank_one)
    if ring.rank() != 1:  # a pass that checked nothing says why
        rep.checks[-1].detail = "only meaningful for the rank-one ring"
    return rep


# ---------------------------------------------------------------------------

def suite_witt(ring: BaseRing, degree: int, seed: int) -> Report:
    rep = Report("witt", ring.name, degree, seed)
    rng = random.Random(seed)

    def identities():
        zero, one = WittVector.zero(6), WittVector.one(6)
        for _ in range(10):
            a = WittVector([rng.randint(-6, 6) for _ in range(6)])
            for law, lhs in (("a + 0", a + zero), ("0 + a", zero + a), ("a * 1", a * one),
                             ("1 * a", one * a)):
                if lhs != a:
                    return f"{law} = a fails at a = {a}: {_differ_at(lhs.comps, a.comps)}"

    rep.run("(0,0,...) and (1,0,0,...) are the Witt identities (length 6)", identities)

    def ghost_diagonalization():
        for _ in range(50):
            a = WittVector([rng.randint(-9, 9) for _ in range(5)])
            b = WittVector([rng.randint(-9, 9) for _ in range(5)])
            s = (a + b).ghosts()
            p = (a * b).ghosts()
            ga, gb = a.ghosts(), b.ghosts()
            for law, lhs, rhs in (
                ("w(a + b) = w(a) + w(b)", s, tuple(x + y for x, y in zip(ga, gb))),
                ("w(a * b) = w(a) w(b)", p, tuple(x * y for x, y in zip(ga, gb))),
            ):
                if lhs != rhs:
                    return f"{law} fails at a = {a}, b = {b}: {_differ_at(lhs, rhs, 'ghost')}"

    rep.run("ghost components diagonalize Witt addition and multiplication", ghost_diagonalization)

    def ring_laws():
        for _ in range(10):
            a = WittVector([rng.randint(-5, 5) for _ in range(5)])
            b = WittVector([rng.randint(-5, 5) for _ in range(5)])
            c = WittVector([rng.randint(-5, 5) for _ in range(5)])
            for law, lhs, rhs in (
                ("(a + b) + c = a + (b + c)", (a + b) + c, a + (b + c)),
                ("a + b = b + a", a + b, b + a),
                ("(a * b) * c = a * (b * c)", (a * b) * c, a * (b * c)),
                ("a * b = b * a", a * b, b * a),
                ("a * (b + c) = a * b + a * c", a * (b + c), a * b + a * c),
            ):
                if lhs != rhs:
                    at = f"a = {a}, b = {b}, c = {c}"
                    return f"{law} fails at {at}: {_differ_at(lhs.comps, rhs.comps)}"

    rep.run("Witt vectors form a commutative ring (random length-5 checks)", ring_laws)

    d = max(1, min(3, degree))

    def group_law():
        law = hopf.formal_group_law(ring, d)

        def at(defect, left, right):
            (u, i), mono, a, b = defect
            return (
                f"in component e_{i}({ring.labels[u]}),"
                f" {hopf.format_monomial(mono, ring)} has {a} in {left}, {b} in {right}"
            )

        defect = hopf.law_first_order(law)
        if defect:
            return f"F is not a + b to first order: {at(defect, 'F(a,b)', 'a + b')}"
        defect = hopf.law_zero_laws(law)
        if defect:
            return f"F(a,0) != a or F(0,b) != b: {at(defect, 'F(a,b)', 'a + b')}"
        defect = hopf.associativity_defect(law, d)
        if defect:
            return f"F is not associative: {at(defect, 'F(F(a,b),c)', 'F(a,F(b,c))')}"

    name = f"the coproduct's formal group law: addition to first order, associative to degree {d}"
    rep.run(name, group_law)
    return rep


# ---------------------------------------------------------------------------

def battery(rings, degree: int, seed: int):
    """The whole verification battery over a family of rings.

    Returns the list of reports; the symfun checks are ring-independent and
    run once, at degree 6 or more; every other suite runs on each ring, the
    lambda suite on lambda-equipped rings only.
    """
    reports = [suite_symfun(rings[0], max(degree, 6), seed)]
    for ring in rings:
        lam = ring.has_adams() and ring.has_lambda()
        reports += [run_suite(s, ring, degree, seed) for s in SUITES[1:] if lam or s != "lambda"]
    return reports
