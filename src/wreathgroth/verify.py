"""Verification suites: every structural identity the library claims, run as
exact checks with witnesses.

Each suite returns a Report whose checks are named by the identity they test,
so a failure names the precise equation and counterexample.  Suites are
deterministic given (ring, degree, seed); randomized property checks draw
from ``random.Random(seed)`` and record the seed in the report.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import groth as gr
from . import hopf
from . import pbw
from . import symfun as sf
from ._exact import accumulate, reduce, row_reduce
from .errors import MissingDataError
from .groth import GrothElement
from .partitions import (
    format_multipartition,
    mp_empty,
    mp_sort_key,
    mp_total,
    multipartitions_upto,
    partitions,
)
from .ring import BaseRing, RingElement
from .symfun import SymSeries


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

    def add(self, name, passed, detail=""):
        self.checks.append(Check(name, bool(passed), detail))

    def run(self, name, fn):
        """Run fn; exceptions other than missing-data become failures."""
        try:
            result = fn()
        except MissingDataError:
            raise
        except Exception as exc:
            self.add(name, False, f"{type(exc).__name__}: {exc}")
            return
        if result is True or result is None:
            self.add(name, True)
        elif result is False:
            self.add(name, False)
        else:
            ok, detail = result
            self.add(name, ok, detail or "")


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
    try:
        fn = {
            "symfun": suite_symfun,
            "oracle-crosscheck": suite_oracle_crosscheck,
            "commutation": suite_commutation,
            "presentation": suite_presentation,
            "hopf": suite_hopf,
            "lambda": suite_lambda,
            "witt": suite_witt,
        }[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return fn(ring, degree, seed)


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
            acc = SymSeries.zero(labels, "p", D)
            for k in range(n + 1):
                acc = acc + sf.multiply(h[n - k], e[k]).scale((-1) ** k)
            if not acc.is_zero():
                return False, f"fails at degree {n}"
        return True, ""

    rep.run(f"H(t) E(-t) = 1 up to degree {D}", he_identity)

    def log_derivative():
        e = [sf.e_series(labels, "x", n, D) for n in range(D + 1)]
        for n in range(D):
            lhs = e[n + 1].scale(n + 1)
            rhs = SymSeries.zero(labels, "p", D)
            for k in range(n + 1):
                pk = SymSeries.generator(labels, "x", "p", (k + 1,), D)
                rhs = rhs + sf.multiply(e[n - k], pk).scale((-1) ** k)
            if lhs != rhs:
                return False, f"fails at degree {n + 1}"
        return True, ""

    rep.run(f"E'(t)/E(t) = P(-t) up to degree {D - 1}", log_derivative)

    def cauchy():
        kern = sf.as_schur(sf.cauchy_kernel(D))
        for key, coeff in kern.terms.items():
            if key[0] != key[1] or coeff != 1:
                return False, f"unexpected term at {key}"
        for n in range(D // 2 + 1):
            for lam in partitions(n):
                if kern.coefficient((lam, lam)) != 1:
                    return False, f"missing diagonal term at {lam}"
        return True, ""

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
                        return False, f"fails at ({lam},{kappa})"
        return True, ""

    rep.run("character orthogonality for n <= 6", orthogonality)

    def omega_involution():
        rng = random.Random(seed)
        keys = multipartitions_upto(1, 5)
        for _ in range(5):
            picks = rng.sample(keys, 6)
            f = SymSeries(labels, "p", 5, {k: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for k in picks})
            if sf.omega(sf.omega(f, "x"), "x") != f:
                return False, "omega^2 != id"
        for n in range(1, 6):
            if sf.omega(sf.e_series(labels, "x", n, 5), "x") != sf.h_series(labels, "x", n, 5):
                return False, f"omega(e_{n}) != h_{n}"
        return True, ""

    rep.run("omega is an involution exchanging e and h", omega_involution)
    return rep


# ---------------------------------------------------------------------------

def suite_oracle_crosscheck(ring: BaseRing, degree: int, seed: int) -> Report:
    rep = Report("oracle-crosscheck", ring.name, degree, seed)
    keys = multipartitions_upto(ring.rank(), degree)

    def crosscheck():
        for mu in keys:
            dm = mp_total(mu)
            if not dm:
                continue
            for nu in keys:
                if dm + mp_total(nu) > degree or not mp_total(nu):
                    continue
                a = gr.z_multiply(GrothElement.basis(ring, mu), GrothElement.basis(ring, nu))
                b = pbw.oracle_multiply(ring, mu, nu)
                if a != b:
                    lam = min(
                        (k for k in a.terms.keys() | b.terms.keys()
                         if a.coefficient(k) != b.coefficient(k)),
                        key=mp_sort_key,
                    )
                    return False, (
                        f"differ at Z{format_multipartition(mu, ring.labels)}"
                        f" * Z{format_multipartition(nu, ring.labels)}, first at"
                        f" Z{format_multipartition(lam, ring.labels)}:"
                        f" combinatorial {a.coefficient(lam)}, oracle {b.coefficient(lam)}"
                    )
        return True, ""

    rep.run(
        f"combinatorial product equals enveloping-algebra product, |mu|+|nu| <= {degree}",
        crosscheck,
    )

    def integrality():
        # a fresh table, so its exact division by prod_U |lam(U)|! runs here
        # and a remainder surfaces as this check's witness
        gr.ProductTable(ring).ensure(degree)
        return True, ""

    rep.run("all structure constants are integers", integrality)

    def unit_neutral():
        one = GrothElement.one(ring)
        for mu in keys:
            x = GrothElement.basis(ring, mu)
            if one * x != x or x * one != x:
                return False, f"fails at {mu}"
        return True, ""

    rep.run("Z of the empty multipartition is a two-sided identity", unit_neutral)

    def associativity():
        singles = [
            k for k in multipartitions_upto(ring.rank(), 1) if mp_total(k) == 1
        ]
        for ka in singles:
            for kb in singles:
                for kc in singles:
                    a, b, c = (GrothElement.basis(ring, k) for k in (ka, kb, kc))
                    if (a * b) * c != a * (b * c):
                        return False, f"fails at ({ka},{kb},{kc})"
        return True, ""

    rep.run("associativity on all basis triples of total degree 3", associativity)
    return rep


# ---------------------------------------------------------------------------

def suite_commutation(ring: BaseRing, degree: int, seed: int) -> Report:
    rep = Report("commutation", ring.name, degree, seed)
    bd = min(3, degree)

    def degree_one():
        for u in range(ring.rank()):
            for v in range(ring.rank()):
                U, V = ring.basis_element(u), ring.basis_element(v)
                lhs = gr.e_of(ring, 1, U) * gr.e_of(ring, 1, V) + gr.e_of(ring, 1, V * U)
                rhs = gr.e_of(ring, 1, V) * gr.e_of(ring, 1, U) + gr.e_of(ring, 1, U * V)
                if lhs != rhs:
                    return False, f"fails at ({ring.labels[u]},{ring.labels[v]})"
        return True, ""

    rep.run("e_1(U)e_1(V) + e_1(VU) = e_1(V)e_1(U) + e_1(UV) on basis pairs", degree_one)

    def series_relation():
        for u in range(ring.rank()):
            for v in range(ring.rank()):
                U, V = ring.basis_element(u), ring.basis_element(v)
                for i in range(bd + 1):
                    for j in range(bd + 1):
                        ok, witness = gr.verify_commutation(ring, i, j, U, V)
                        if not ok:
                            return False, (
                                f"bidegree ({i},{j}) at ({ring.labels[u]},{ring.labels[v]}): {witness}"
                            )
        return True, ""

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
                        c = gr.commutator(
                            ring, i, j, ring.basis_element(u), ring.basis_element(v)
                        )
                        if c.degree() > i + j - 1:
                            return False, f"[e_{i}({ring.labels[u]}), e_{j}({ring.labels[v]})]"
        return True, ""

    rep.run("[e_i(U), e_j(V)] lies in filtration degree i+j-1", filtration_drop)

    def commuting_pairs():
        for u in range(ring.rank()):
            U = ring.basis_element(u)
            for i in range(1, bd + 1):
                for j in range(1, bd + 1):
                    if not gr.commutator(ring, i, j, U, U).is_zero():
                        return False, f"e_{i} and e_{j} of {ring.labels[u]} do not commute"
        return True, ""

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
            tensor[(i, j)] = in_new_basis((bi * bj).coeffs)
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
    rows = []
    for lam in multipartitions_upto(n, degree):
        z_prime = pbw.z_element_pbw(other, lam, degree)
        transported = pbw.PBWElement.zero(ring, degree)
        for word, c in z_prime.terms.items():
            acc = pbw.PBWElement.one(ring, degree)
            for s in word:
                l, i = pbw.sym_level(s), pbw.sym_index(s)
                gen = pbw.PBWElement(
                    ring, degree,
                    {(pbw.sym(l, j),): mat[i][j] for j in range(n) if mat[i][j]},
                )
                acc = acc * gen
            transported = transported + acc.scale(c)
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
        return True, ""

    rep.run(
        "F_U(t) from the Moebius/log form equals sum_i T_i(U) t^i to degree "
        f"{min(degree, 4)}",
        f_two_paths,
    )

    def sum_relations():
        for u in range(ring.rank()):
            for v in range(ring.rank()):
                U, V = ring.basis_element(u), ring.basis_element(v)
                if gr.e_of(ring, 1, U + V) != gr.e_of(ring, 1, U) + gr.e_of(ring, 1, V):
                    return False, f"e_1 additivity fails at ({ring.labels[u]},{ring.labels[v]})"
                lhs = gr.e_of(ring, 2, U + V)
                rhs = (
                    gr.e_of(ring, 1, U) * gr.e_of(ring, 1, V)
                    - gr.e_of(ring, 1, U * V)
                    + gr.e_of(ring, 2, U)
                    + gr.e_of(ring, 2, V)
                )
                if lhs != rhs:
                    return False, f"e_2 expansion fails at ({ring.labels[u]},{ring.labels[v]})"
        return True, ""

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
        return True, ""

    rep.run("e_n(W) of random integer combinations is integral", decompose_integral)

    def basis_independent():
        d = min(degree, 3)
        rows = basis_independence_matrix(ring, d)
        for row in rows:
            for x in row.values():
                if x.denominator != 1:
                    return False, "transported basis has fractional coordinates"
        _, det = row_reduce((row, {}) for row in rows)
        if det not in (1, -1):
            return False, f"change of basis has determinant {det}"
        return True, ""

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
                return False, f"fails at {format_multipartition(lam, ring.labels)}"
        return True, ""

    rep.run(f"coassociativity on keys of size <= {d3}", coassociativity)

    def counit_axiom():
        empty = mp_empty(ring.rank())
        for lam in keys3:
            dlt = hopf.comultiply(GrothElement.basis(ring, lam))
            # the (empty, nu) keys are distinct, so nothing needs summing
            left = {nu: c for (mu, nu), c in dlt.terms.items() if mu == empty}
            right = {mu: c for (mu, nu), c in dlt.terms.items() if nu == empty}
            if left != {lam: Fraction(1)}:
                return False, f"(eps (x) id) Delta fails at {lam}"
            if right != {lam: Fraction(1)}:
                return False, f"(id (x) eps) Delta fails at {lam}"
        return True, ""

    rep.run("counit axiom on both sides", counit_axiom)

    def antipode_axiom():
        for lam in keys3:
            x = GrothElement.basis(ring, lam)
            acc = GrothElement.zero(ring)
            for (mu, nu), c in hopf.comultiply(x).terms.items():
                acc = acc + (
                    hopf.antipode(GrothElement.basis(ring, mu))
                    * GrothElement.basis(ring, nu)
                ).scale(c)
            if acc != GrothElement.one(ring).scale(hopf.counit(x)):
                return False, f"fails at {format_multipartition(lam, ring.labels)}"
        return True, ""

    rep.run("antipode axiom m(S (x) id)Delta = unit . counit", antipode_axiom)

    def antipode_integral():
        for lam in keys3:
            hopf.antipode(GrothElement.basis(ring, lam)).assert_integral("antipode")
        return True, ""

    rep.run("antipode images are integral", antipode_integral)

    def delta_algebra_map():
        small = [k for k in keys3 if 0 < mp_total(k)]
        for mu in small:
            for nu in small:
                if mp_total(mu) + mp_total(nu) > d3:
                    continue
                a, b = GrothElement.basis(ring, mu), GrothElement.basis(ring, nu)
                if hopf.comultiply(a * b) != hopf.comultiply(a) * hopf.comultiply(b):
                    return False, f"fails at ({mu},{nu})"
        return True, ""

    rep.run("Delta is an algebra map on products of total degree <= 3", delta_algebra_map)

    def grouplike():
        d4 = min(4, degree)
        for u in range(ring.rank()):
            U = ring.basis_element(u)
            for n in range(d4 + 1):
                lhs = hopf.comultiply(gr.e_generator(ring, n, U))
                rhs = hopf.TensorGroth(ring)
                for i in range(n + 1):
                    rhs = rhs + hopf.TensorGroth.of(
                        gr.e_generator(ring, i, U), gr.e_generator(ring, n - i, U)
                    )
                if lhs != rhs:
                    return False, f"fails for e_{n}({ring.labels[u]})"
        return True, ""

    rep.run("Delta(E_U(t)) = E_U(t) (x) E_U(t) coefficientwise to degree 4", grouplike)

    def dual_mult_vs_delta():
        keys2 = multipartitions_upto(ring.rank(), min(2, degree))
        delta = {}
        for mu in keys2:
            for nu in keys2:
                prod = hopf.dual_multiply(ring, mu, nu)
                for lam in multipartitions_upto(ring.rank(), mp_total(mu) + mp_total(nu)):
                    if lam not in delta:
                        delta[lam] = hopf.comultiply(GrothElement.basis(ring, lam))
                    if prod.get(lam, 0) != delta[lam].coefficient(mu, nu):
                        return False, f"fails at ({mu},{nu},{lam})"
        return True, ""

    rep.run("dual multiplication constants equal coproduct constants", dual_mult_vs_delta)

    def dual_antipode_pairing():
        for lam in keys3:
            image = sf.as_schur(hopf.dual_antipode_on_schur(ring, lam, d3))
            for mu in keys3:
                lhs = image.coefficient(mu)
                rhs = hopf.antipode(GrothElement.basis(ring, mu)).coefficient(lam)
                if lhs != rhs:
                    return False, f"fails at ({lam},{mu})"
        return True, ""

    rep.run("dual antipode pairs with the antipode", dual_antipode_pairing)

    def sub_hopf_closure():
        k, D = 2, min(3, degree)
        span = gr.gk_spanning_set(ring, k, D)
        echelon, _ = row_reduce((el.terms, {}) for _, el in span)
        for _, el in span:
            # matrix over (key1, key2); membership in span (x) span means
            # both the column space and the row space lie in the span
            rows: dict = {}
            cols: dict = {}
            for (mu, nu), c in hopf.comultiply(el).terms.items():
                rows.setdefault(mu, {})[nu] = c
                cols.setdefault(nu, {})[mu] = c
            for vec in list(rows.values()) + list(cols.values()):
                if reduce(vec, echelon):
                    return False, "coproduct leaves the bounded-degree subalgebra"
        return True, ""

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
                if pbw.adams(ring, 1, x) != x:
                    return False, f"Psi_1 moves T_{l}({ring.labels[u]})"
        return True, ""

    rep.run("Psi_1 is the identity on generators", psi_one)

    def psi_compose():
        for u in range(ring.rank()):
            for l in (1, 2):
                x = pbw.PBWElement.generator(ring, 24, l, ring.basis_element(u))
                for m in (2, 3):
                    for n in (2, 3):
                        if pbw.adams(ring, m, pbw.adams(ring, n, x)) != pbw.adams(ring, m * n, x):
                            return False, f"fails at Psi_{m} o Psi_{n} on T_{l}({ring.labels[u]})"
        return True, ""

    rep.run("Psi_m o Psi_n = Psi_mn on generators (m, n <= 3)", psi_compose)

    def psi_algebra_map():
        rng = random.Random(seed)
        for _ in range(4):
            u, v = rng.randrange(ring.rank()), rng.randrange(ring.rank())
            x = pbw.PBWElement.generator(ring, 12, 1, ring.basis_element(u))
            y = pbw.PBWElement.generator(ring, 12, 2, ring.basis_element(v))
            if pbw.adams(ring, 2, x * y) != pbw.adams(ring, 2, x) * pbw.adams(ring, 2, y):
                return False, "Psi_2 is not multiplicative"
        return True, ""

    rep.run("Psi_m is an algebra endomorphism", psi_algebra_map)

    def lambda_integral():
        bound = min(4, degree)
        for u in range(ring.rank()):
            for n in range(1, bound + 1):
                pbw.lambda_on_e1(ring, n, ring.basis_element(u), bound).assert_integral(
                    f"lambda^{n}(e_1({ring.labels[u]}))"
                )
        return True, ""

    rep.run("lambda^n(e_1(U)) is integral for n <= 4", lambda_integral)

    def lambda_rank_one():
        if ring.rank() != 1:
            return True, "only meaningful for the rank-one ring"
        one = ring.one()
        for n in range(1, min(4, degree) + 1):
            if pbw.lambda_on_e1(ring, n, one, min(4, degree)) != gr.e_generator(ring, n, one):
                return False, f"lambda^{n}(e_1(1)) != e_{n}(1)"
        return True, ""

    rep.run("over the integers lambda^n(e_1(1)) = e_n(1)", lambda_rank_one)
    return rep


# ---------------------------------------------------------------------------

def suite_witt(ring: BaseRing, degree: int, seed: int) -> Report:
    rep = Report("witt", ring.name, degree, seed)
    rng = random.Random(seed)

    def identities():
        from .witt import WittVector

        for _ in range(10):
            a = WittVector([rng.randint(-6, 6) for _ in range(6)])
            if a + WittVector.zero(6) != a or WittVector.zero(6) + a != a:
                return False, f"additive identity fails at {a}"
            if a * WittVector.one(6) != a or WittVector.one(6) * a != a:
                return False, f"multiplicative identity fails at {a}"
        return True, ""

    rep.run("(0,0,...) and (1,0,0,...) are the Witt identities (length 6)", identities)

    def ghost_diagonalization():
        from .witt import WittVector

        for _ in range(50):
            a = WittVector([rng.randint(-9, 9) for _ in range(5)])
            b = WittVector([rng.randint(-9, 9) for _ in range(5)])
            s = (a + b).ghosts()
            p = (a * b).ghosts()
            ga, gb = a.ghosts(), b.ghosts()
            if s != tuple(x + y for x, y in zip(ga, gb)):
                return False, f"ghost additivity fails at ({a},{b})"
            if p != tuple(x * y for x, y in zip(ga, gb)):
                return False, f"ghost multiplicativity fails at ({a},{b})"
        return True, ""

    rep.run("ghost components diagonalize Witt addition and multiplication", ghost_diagonalization)

    def ring_laws():
        from .witt import WittVector

        for _ in range(10):
            a = WittVector([rng.randint(-5, 5) for _ in range(5)])
            b = WittVector([rng.randint(-5, 5) for _ in range(5)])
            c = WittVector([rng.randint(-5, 5) for _ in range(5)])
            if (a + b) + c != a + (b + c) or a + b != b + a:
                return False, "addition laws fail"
            if (a * b) * c != a * (b * c) or a * b != b * a:
                return False, "multiplication laws fail"
            if a * (b + c) != a * b + a * c:
                return False, "distributivity fails"
        return True, ""

    rep.run("Witt vectors form a commutative ring (random length-5 checks)", ring_laws)

    def group_law():
        d = min(3, degree)
        law = hopf.formal_group_law(ring, d)
        if not hopf.law_first_order(law):
            return False, "linear part is not plain addition"
        if not hopf.law_zero_laws(law):
            return False, "F(a, 0) != a"
        if not hopf.law_associative(law, d):
            return False, "F is not associative"
        return True, ""

    rep.run("the coproduct's formal group law: addition to first order, associative to degree 3", group_law)
    return rep


# ---------------------------------------------------------------------------

def battery(rings, degree: int, seed: int):
    """The whole verification battery over a family of rings.

    Returns the list of reports; the symfun and witt-vector checks are
    ring-independent and run once, the lambda suite runs on lambda-equipped
    rings only.
    """
    reports = [suite_symfun(rings[0], max(degree, 6), seed)]
    for ring in rings:
        reports.append(suite_oracle_crosscheck(ring, degree, seed))
        reports.append(suite_commutation(ring, degree, seed))
        reports.append(suite_presentation(ring, degree, seed))
        reports.append(suite_hopf(ring, degree, seed))
        if ring.has_adams() and ring.has_lambda():
            reports.append(suite_lambda(ring, degree, seed))
        reports.append(suite_witt(ring, degree, seed))
    return reports
