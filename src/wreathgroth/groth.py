"""The integral limit ring over a base ring R.

Elements are exact linear combinations of the multipartition basis Z; the
product comes from one closed formula: the structure constant on (mu, nu,
lam) is the coefficient of  prod_V s_{mu(V)}(x_V) prod_W s_{nu(W)}(y_W)  in

    prod_U s_{lam(U)}(x_U, y_U, (+)_{V,W} (x_V y_W)^{(+) N_{V,W}^U})

computed by plethystic substitution at the symmetric-function layer, in
integers over the common denominator prod_U |lam(U)|! (see ProductTable).
All constants for a given total degree are extracted in one sweep per lam and
cached on the ring, so repeated products are dictionary lookups.

The module also hosts the generator family e_r(U)/h_n(W), the recursive
expansion of e_n(W) for W outside the basis (through the Moebius/logarithm
identity of the F-series), the commutation-relation checker, the second
(unitriangular) multipartition basis X, and spanning sets of the subalgebras
generated in bounded degree.
"""

from fractions import Fraction
from functools import cache
from math import factorial, gcd

from . import symfun as sf
from .errors import DomainError, IntegralityError
from .partitions import (
    MultiPartition,
    format_multipartition,
    mp_empty,
    mp_single,
    mp_sort_key,
    mp_total,
    multipartitions_upto,
    partitions,
)
from .ring import BaseRing, RingElement


class GrothElement:
    """Finite combination of Z-basis keys with exact coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: BaseRing, terms=None):
        self.ring = ring
        self.terms: dict[MultiPartition, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    self.terms[key] = Fraction(coeff)

    @classmethod
    def zero(cls, ring):
        return cls(ring)

    @classmethod
    def one(cls, ring):
        return cls(ring, {mp_empty(ring.rank()): 1})

    @classmethod
    def basis(cls, ring, mp: MultiPartition):
        return cls(ring, {tuple(mp): 1})

    def degree(self) -> int:
        """Filtration degree: largest total key size (0 for zero/scalars)."""
        return max((mp_total(k) for k in self.terms), default=0)

    def coefficient(self, key) -> Fraction:
        return self.terms.get(tuple(key), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def assert_integral(self, where="element") -> "GrothElement":
        if not self.is_integral():
            bad = next(c for c in self.terms.values() if c.denominator != 1)
            raise IntegralityError(f"{where} has non-integer coefficient {bad}")
        return self

    def top_part(self) -> "GrothElement":
        d = self.degree()
        return GrothElement(
            self.ring, {k: c for k, c in self.terms.items() if mp_total(k) == d}
        )

    def __add__(self, other: "GrothElement") -> "GrothElement":
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            n = terms.get(k, Fraction(0)) + c
            if n:
                terms[k] = n
            else:
                terms.pop(k, None)
        return GrothElement(self.ring, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "GrothElement":
        c = Fraction(c)
        if not c:
            return GrothElement(self.ring)
        return GrothElement(self.ring, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "GrothElement") -> "GrothElement":
        return z_multiply(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, GrothElement)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _check(self, other):
        if not isinstance(other, GrothElement) or other.ring is not self.ring:
            raise DomainError("elements belong to different rings")

    def __repr__(self):
        return f"Groth({format_groth(self)})"


def format_groth(x: GrothElement) -> str:
    if not x.terms:
        return "0"
    bits = []
    for key in sorted(x.terms, key=mp_sort_key):
        coeff = x.terms[key]
        body = "Z" + format_multipartition(key, x.ring.labels)
        if coeff == 1:
            bits.append(("+", body))
        elif coeff == -1:
            bits.append(("-", body))
        elif coeff > 0:
            bits.append(("+", f"{coeff}*{body}"))
        else:
            bits.append(("-", f"{-coeff}*{body}"))
    sign, first = bits[0]
    out = ("-" if sign == "-" else "") + first
    for sign, chunk in bits[1:]:
        out += f" {sign} {chunk}"
    return out


# ---------------------------------------------------------------------------
# structure constants

def _doubled_labels(ring: BaseRing):
    return tuple(f"x.{lab}" for lab in ring.labels) + tuple(
        f"y.{lab}" for lab in ring.labels
    )


def _substitution_plan(ring: BaseRing) -> dict:
    """p_l(slot U) -> p_l(x_U) + p_l(y_U) + sum N_{V,W}^U p_l(x_V) p_l(y_W)."""
    plan = {}
    k = ring.rank()
    labels = _doubled_labels(ring)
    for u, lab in enumerate(ring.labels):
        entry = [((labels[u],), 1), ((labels[k + u],), 1)]
        for v in range(k):
            for w in range(k):
                coeff = ring.tensor[(v, w)].get(u, 0)
                if coeff:
                    entry.append(((labels[v], labels[k + w]), coeff))
        plan[lab] = entry
    return plan


class ProductTable:
    """Per-ring cache of structure constants, complete for all pairs with
    |mu| + |nu| <= degree.

    ``pairs[(mu, nu)]`` maps lam to the coefficient of Z_lam in Z_mu Z_nu.
    ``ensure`` builds them on the integer cores of ``symfun``: per lam it
    substitutes |kappa|! s_kappa for each slot kappa = lam(U), multiplies,
    converts to Schur and divides every coefficient exactly by
    prod_U |lam(U)|!; a remainder raises IntegralityError.
    """

    def __init__(self, ring: BaseRing):
        self.ring = ring
        self.degree = -1
        self.pairs: dict[tuple, dict[MultiPartition, int]] = {}

    def ensure(self, degree: int):
        if degree <= self.degree:
            return
        ring = self.ring
        plan = _substitution_plan(ring)
        out_labels = _doubled_labels(ring)
        k = ring.rank()
        pairs: dict[tuple, dict[MultiPartition, int]] = {}

        @cache
        def factor(u: int, kappa) -> dict:
            row = sf.scaled_schur_to_p_row(kappa)
            terms = {mp_single(k, u, mu): c for mu, c in row.items()}
            return sf._substitute_int(terms, ring.labels, plan, out_labels, degree)

        for lam in multipartitions_upto(k, degree):
            series = {mp_empty(2 * k): 1}
            scale = 1
            for u, kappa in enumerate(lam):
                if kappa:
                    series = sf._multiply_int(series, factor(u, kappa), degree)
                    scale *= factorial(sum(kappa))
            for key, coeff in sf._convert_int(series, sf.p_to_schur_row).items():
                mu, nu = key[:k], key[k:]
                c, r = divmod(coeff, scale)
                if r:
                    g = gcd(coeff, scale)
                    raise IntegralityError(
                        f"coefficient of Z{format_multipartition(lam, ring.labels)}"
                        f" in Z{format_multipartition(mu, ring.labels)}"
                        f" * Z{format_multipartition(nu, ring.labels)}"
                        f" is {coeff // g}/{scale // g}, not an integer"
                    )
                pairs.setdefault((mu, nu), {})[lam] = c
        self.pairs = pairs
        self.degree = degree

    def constants(self, mu: MultiPartition, nu: MultiPartition):
        needed = mp_total(mu) + mp_total(nu)
        self.ensure(needed)
        return self.pairs.get((tuple(mu), tuple(nu)), {})


def product_table(ring: BaseRing) -> ProductTable:
    table = ring._caches.get("product_table")
    if table is None:
        table = ring._caches["product_table"] = ProductTable(ring)
    return table


def structure_constant(ring, mu, nu, lam) -> int:
    """Coefficient of Z_lam in Z_mu Z_nu."""
    mu, nu, lam = tuple(mu), tuple(nu), tuple(lam)
    if not (mp_total(mu) + mp_total(nu) >= mp_total(lam) >= max(mp_total(mu), mp_total(nu))):
        return 0
    return product_table(ring).constants(mu, nu).get(lam, 0)


def z_multiply(a: GrothElement, b: GrothElement) -> GrothElement:
    a._check(b)
    table = product_table(a.ring)
    table.ensure(a.degree() + b.degree())
    terms: dict[MultiPartition, Fraction] = {}
    for mu, ca in a.terms.items():
        for nu, cb in b.terms.items():
            c = ca * cb
            for lam, n in table.constants(mu, nu).items():
                new = terms.get(lam, Fraction(0)) + c * n
                if new:
                    terms[lam] = new
                else:
                    terms.pop(lam, None)
    return GrothElement(a.ring, terms)


# ---------------------------------------------------------------------------
# generators

def e_generator(ring: BaseRing, r: int, W: RingElement) -> GrothElement:
    """e_r(W).  For W in the basis this is the single-column key at W;
    any other W goes through e_of."""
    _check_degree(r)
    if r == 0:
        return GrothElement.one(ring)
    if W.is_zero():
        return GrothElement.zero(ring)
    u = W.basis_index()
    if u is not None:
        return GrothElement.basis(ring, mp_single(ring.rank(), u, (1,) * r))
    return e_of(ring, r, W)


def _check_degree(n: int):
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")


def _memo(ring, key, build):
    got = ring._caches.get(key)
    if got is None:
        got = ring._caches[key] = build()
    return got


def mobius(n: int) -> int:
    if n == 1:
        return 1
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def _log_coefficient(coeffs: list[GrothElement], n: int) -> GrothElement:
    """[t^n] log(1 + sum_{k>=1} coeffs[k] t^k) via log(1+x) = sum (-1)^(m-1) x^m / m."""
    ring = coeffs[0].ring if coeffs else None
    total = GrothElement.zero(ring)
    # compositions of n into parts >= 1 grouped by length, sharing prefix products
    def walk(remaining, length, prod):
        nonlocal total
        if remaining == 0:
            total = total + prod.scale(Fraction((-1) ** (length - 1), length))
            return
        for k in range(1, remaining + 1):
            c = coeffs[k] if k < len(coeffs) else None
            if c is None or c.is_zero():
                continue
            walk(remaining - k, length + 1, z_multiply(prod, c))

    walk(n, 0, GrothElement.one(ring))
    return total


def _f_coefficient(ring, V: RingElement, n: int, skip_top=False) -> GrothElement:
    """[t^n] F_V(t) where F_V(t) = -sum_{r>=1} mu(r)/r log(E_{V^r}(-t^r)).

    With skip_top the e_n(V) slot is zeroed, leaving the part of the
    coefficient that only involves lower data (used to solve for e_n(V)).
    """
    total = GrothElement.zero(ring)
    for r in range(1, n + 1):
        if n % r:
            continue
        m = mobius(r)
        if not m:
            continue
        q = n // r
        Vr = V ** r
        coeffs = [GrothElement.one(ring)]
        for kk in range(1, q + 1):
            if r == 1 and kk == n and skip_top:
                coeffs.append(GrothElement.zero(ring))
            else:
                coeffs.append(e_of(ring, kk, Vr).scale((-1) ** kk))
        total = total + _log_coefficient(coeffs, q).scale(Fraction(-m, r))
    return total


def e_of(ring: BaseRing, n: int, W: RingElement) -> GrothElement:
    """e_n(W) for arbitrary W, expanded in the Z basis."""
    _check_degree(n)
    if n == 0:
        return GrothElement.one(ring)
    if W.is_zero():
        return GrothElement.zero(ring)
    u = W.basis_index()
    if u is not None:
        return GrothElement.basis(ring, mp_single(ring.rank(), u, (1,) * n))
    memo = _memo(ring, "e_of", dict)
    key = (W.key(), n)
    got = memo.get(key)
    if got is not None:
        return got
    # F_W(t) = sum_U a_U F_U(t); the t^n coefficient of the left side carries
    # e_n(W) with coefficient -(-1)^n, everything else is known recursively
    rhs = GrothElement.zero(ring)
    for u_idx, a in W.coeffs.items():
        rhs = rhs + _f_coefficient(ring, ring.basis_element(u_idx), n).scale(a)
    lower = _f_coefficient(ring, W, n, skip_top=True)
    result = (rhs - lower).scale((-1) ** (n + 1))
    result.assert_integral(f"e_{n}({W!r})")
    memo[key] = result
    return result


def h_element(ring: BaseRing, n: int, W: RingElement) -> GrothElement:
    """h_n(W): the Jacobi-Trudi determinant det(e_{1+j-i}(W)) of size n."""
    _check_degree(n)
    if n == 0:
        return GrothElement.one(ring)
    memo = _memo(ring, "h_of", dict)
    key = (W.key(), n)
    got = memo.get(key)
    if got is not None:
        return got
    from itertools import permutations

    def entry(i, j):
        r = 1 + j - i
        if r < 0:
            return None
        return e_of(ring, r, W)

    total = GrothElement.zero(ring)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = GrothElement.one(ring)
        ok = True
        for i in range(n):
            cell = entry(i, perm[i])
            if cell is None or cell.is_zero():
                ok = False
                break
            prod = z_multiply(prod, cell)
        if ok:
            total = total + prod.scale(sign)
    memo[key] = total
    return total


# ---------------------------------------------------------------------------
# commutation relation

def commutation_sides(ring, i: int, j: int, U: RingElement, V: RingElement):
    """Both sides of the commutation identity

        sum_k e_{i-k}(U) h_k(VU) e_{j-k}(V) = sum_k e_{j-k}(V) h_k(UV) e_{i-k}(U)
    """
    lhs = GrothElement.zero(ring)
    rhs = GrothElement.zero(ring)
    for k in range(min(i, j) + 1):
        lhs = lhs + z_multiply(
            z_multiply(e_of(ring, i - k, U), h_element(ring, k, V * U)),
            e_of(ring, j - k, V),
        )
        rhs = rhs + z_multiply(
            z_multiply(e_of(ring, j - k, V), h_element(ring, k, U * V)),
            e_of(ring, i - k, U),
        )
    return lhs, rhs


def verify_commutation(ring, i, j, U, V):
    """Check the commutation identity at bidegree (i, j); returns
    (ok, witness) where the witness names a differing coefficient."""
    lhs, rhs = commutation_sides(ring, i, j, U, V)
    diff = lhs - rhs
    if diff.is_zero():
        return True, None
    key = sorted(diff.terms, key=mp_sort_key)[0]
    return False, (
        f"coefficient of Z{format_multipartition(key, ring.labels)} differs by "
        f"{diff.terms[key]}"
    )


def commutator(ring, i, j, U, V) -> GrothElement:
    a, b = e_of(ring, i, U), e_of(ring, j, V)
    return z_multiply(a, b) - z_multiply(b, a)


# ---------------------------------------------------------------------------
# the X basis

def x_basis_element(ring: BaseRing, lam: MultiPartition) -> GrothElement:
    """X_lam expanded over the Z basis.

    The two generating series differ by the factor sum_r (-1)^r e_r in the
    unit's variable set, so the unit slot of lam loses a vertical strip of
    size r with sign (-1)^r (a Pieri-rule correction, unitriangular in the
    filtration).
    """
    one = ring.unit_index()
    if one is None:
        raise DomainError("the X basis needs the ring unit to be a basis element")
    lam = tuple(lam)
    target = lam[one]
    terms: dict[MultiPartition, Fraction] = {}
    for r in range(sum(target) + 1):
        for mu_size_part in partitions(sum(target) - r):
            c = sf.lr_coefficient((1,) * r, mu_size_part, target)
            if not c:
                continue
            key = list(lam)
            key[one] = mu_size_part
            key = tuple(key)
            new = terms.get(key, Fraction(0)) + Fraction((-1) ** r * c)
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
    return GrothElement(ring, terms)


# ---------------------------------------------------------------------------
# bounded-degree subalgebras

def gk_spanning_set(ring: BaseRing, k: int, D: int):
    """All ordered products of generators e_i(U), i <= k, of total degree <= D.

    Returns [(monomial, element)] where the monomial is a tuple of (i, U
    index) factors in the fixed deterministic order they are multiplied in.
    """
    gens = [(i, u) for i in range(1, k + 1) for u in range(ring.rank())]
    monomials = [()]
    for gen in gens:
        extended = list(monomials)
        for m in monomials:
            cur = m
            while sum(i for i, _ in cur) + gen[0] <= D:
                cur = cur + (gen,)
                extended.append(cur)
        monomials = extended
    monomials.sort(key=lambda m: (sum(i for i, _ in m), m))
    out = []
    for m in monomials:
        el = GrothElement.one(ring)
        for i, u in m:
            el = z_multiply(el, e_generator(ring, i, ring.basis_element(u)))
        out.append((m, el))
    return out
