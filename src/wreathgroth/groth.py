"""The integral limit ring over a base ring R.

Elements are exact linear combinations of the multipartition basis Z; the
product comes from one closed formula: the structure constant on (mu, nu,
lam) is the coefficient of  prod_V s_{mu(V)}(x_V) prod_W s_{nu(W)}(y_W)  in

    prod_U s_{lam(U)}(x_U, y_U, (+)_{V,W} (x_V y_W)^{(+) N_{V,W}^U})

computed by plethystic substitution in power sums, in integers over the
common denominator prod_U |lam(U)|! (see ProductTable).  The table is
cached on the ring and grows only when asked to, a whole degree at a time,
so repeated products are dictionary lookups.  A pair above its degree goes
through the primitive generators instead (``_primitive_row``): Z_mu =
sum_w c_w T_w from the oracle's Z-table, each normal word T_w acting on
Z_nu by ribbon-rule rows; on a ring with no declared unit, which that
Z-table needs, the table grows to the pair instead.
``GrothElement._int_product``, the integer core of ``z_multiply`` and of
``_exact.power_sum``, adds the rows of either kind (``product_rows``) up on
integer numerators.

The module also hosts the generator family e_r(U)/h_n(W): e_n(W) and h_n(W)
for any W, and their left products, by one Newton loop from any start
(``_newton``) that sums each level's power-sum terms, which act on the Z
basis by a ribbon rule, in one dict, with no product table; one table of such
left products per ordered pair U, V, holding both sides of the commutation
relation; the second (unitriangular) multipartition basis X; and spanning
sets of the subalgebras generated in bounded degree.  A ring keeps each
ribbon-rule row (m T_m(U)) Z_nu, built once, in its ``ribbon_rows`` memo and
the powers of each W in its ``powers`` memo: 222 rows over perfbench's
generators queries, 639 over ``verify all --degree 4`` on its four rings, 400
of them matrix(2)'s.
"""

from fractions import Fraction
from math import factorial, gcd, prod

from . import kernels
from . import symfun as sf
from ._exact import Combination, accumulate, format_terms, product
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


class GrothElement(Combination):
    """Finite combination of Z-basis keys with exact coefficients."""

    __slots__ = ("ring",)
    _context = ("ring",)
    _compared = _context

    def __init__(self, ring: BaseRing, terms=None):
        self.ring = ring
        super().__init__(terms)

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
        return _degree(self.terms)

    def __mul__(self, other: "GrothElement") -> "GrothElement":
        return z_multiply(self, other)

    def _int_product(self, a: dict, b: dict) -> dict:
        """sum c_mu c_nu Z_mu Z_nu, each row from ``product_rows``."""
        row = product_rows(self.ring)
        out: dict[MultiPartition, int] = {}
        get = out.get
        for mu, ca in a.items():
            for nu, cb in b.items():
                c = ca * cb
                for lam, k in row(mu, nu).items():
                    out[lam] = get(lam, 0) + c * k
        return {lam: c for lam, c in out.items() if c}

    def __repr__(self):
        return f"Groth({format_groth(self)})"


def _degree(keys) -> int:
    return max((mp_total(k) for k in keys), default=0)


def format_groth(x: GrothElement) -> str:
    """x as text, keys in ``mp_sort_key`` order.  Each key's sort key and
    text are made once per ring and kept in its ``z_text`` memo."""
    memo = x.ring.memo("z_text", dict)
    rows = []
    for key, c in x.terms.items():
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = (mp_sort_key(key), "Z" + format_multipartition(key, x.ring.labels))
        rows.append((entry, c))
    rows.sort(key=lambda row: row[0][0])
    return format_terms((text, c) for (_, text), c in rows)


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
    """Per-ring cache of structure constants, complete to ``degree``.

    ``pairs[(mu, nu)]`` maps lam to the coefficient of Z_lam in Z_mu Z_nu,
    for every pair with |mu| + |nu| <= ``degree``; no such pair has an empty
    row: the top part of Z_mu Z_nu is the product of the Schur functions.
    The table grows only through ``ensure``.  A sweep to degree D runs over
    every lam with |lam| <= D: it substitutes |kappa|! s_kappa for each slot
    kappa = lam(U) (on integers, in power sums), multiplies, converts to
    Schur and divides every coefficient exactly by prod_U |lam(U)|!; a
    remainder raises IntegralityError.  Each step keeps total sizes, and
    sizes only add, so dropping every term above D keeps each constant with
    |mu| + |nu| <= D exact.  The conversion to Schur keys takes the mu half
    and then the nu half of each power-sum key through one row each, the
    product of ``p_to_schur_row`` over the half's filled slots
    (``_schur_pairs``); a sweep makes each half's row once and drops the
    rows when it ends.
    """

    def __init__(self, ring: BaseRing):
        self.ring = ring
        self.degree = -1
        self.pairs: dict[tuple, dict[MultiPartition, int]] = {}

    def ensure(self, degree: int):
        """Make the table complete for every pair with |mu| + |nu| <= degree."""
        if degree > self.degree:
            self._sweep(degree)
            self.degree = degree

    def _sweep(self, degree: int):
        """Every constant with |mu| + |nu| <= degree."""
        ring = self.ring
        k = ring.rank()
        power = sf._power_images(_substitution_plan(ring), _doubled_labels(ring), degree)
        sized: dict[tuple, list] = {}
        schur_row = sf._key_rows(sf.p_to_schur_row)
        new: dict[tuple, dict[MultiPartition, int]] = {}

        def factor(u: int, kappa) -> list:
            """|kappa|! s_kappa in slot U after the substitution."""
            got = sized.get((u, kappa))
            if got is None:
                terms: dict[MultiPartition, int] = {}
                for rho, c in sf.scaled_schur_to_p_row(kappa).items():
                    accumulate(terms, power(ring.labels[u], rho), c)
                got = sized[u, kappa] = sf._sized(terms)
            return got

        for lam in multipartitions_upto(k, degree):
            factors = []
            scale = 1
            for u, kappa in enumerate(lam):
                if kappa:
                    factors.append(factor(u, kappa))
                    scale *= factorial(sum(kappa))
            # a lone factor is the series as it is, with nothing to multiply
            series = {key: c for key, _, c in factors[0]} if factors else {mp_empty(2 * k): 1}
            for f in factors[1:]:
                series = sf._multiply_int(series, f, degree)
            for pair, coeff in _schur_pairs(series, k, schur_row).items():
                mu, nu = pair
                c, r = divmod(coeff, scale)
                if r:
                    g = gcd(coeff, scale)
                    raise IntegralityError(
                        f"coefficient of Z{format_multipartition(lam, ring.labels)}"
                        f" in Z{format_multipartition(mu, ring.labels)}"
                        f" * Z{format_multipartition(nu, ring.labels)}"
                        f" is {coeff // g}/{scale // g}, not an integer"
                    )
                new.setdefault(pair, {})[lam] = c
        for key, row in new.items():  # rows already held are the same
            self.pairs.setdefault(key, row)


def _schur_pairs(series: dict, k: int, schur_row) -> dict:
    """An integer power-sum series over the 2k slots of a pair in Schur keys,
    as {(mu, nu): int}, in two passes: the first k slots of each key go
    through their row, and the keys that then agree are summed before the
    last k slots go through theirs.  ``schur_row`` is ``symfun._key_rows``
    of ``p_to_schur_row``, the row of k slots at a time."""
    half: dict[tuple, int] = {}
    get = half.get
    for key, coeff in series.items():
        p_nu = key[k:]
        for mu, a in schur_row(key[:k]):
            kk = mu, p_nu
            half[kk] = get(kk, 0) + coeff * a
    out: dict[tuple, int] = {}
    get = out.get
    for (mu, p_nu), c in half.items():
        if c:
            for nu, b in schur_row(p_nu):
                pair = mu, nu
                out[pair] = get(pair, 0) + c * b
    return {pair: c for pair, c in out.items() if c}


def product_table(ring: BaseRing) -> ProductTable:
    return ring.memo("product_table", lambda: ProductTable(ring))


def product_rows(ring: BaseRing):
    """The row lookup of the integer product cores, (mu, nu) -> {lam: int}
    of Z_mu Z_nu: the table's row when it holds the pair, otherwise the row
    through the primitive generators (``_primitive_row``).  That route reads
    the oracle's Z-table, which needs R's unit, so on a ring without one the
    table grows to |mu| + |nu| instead, as the formula needs no unit."""
    table = product_table(ring)
    held = table.pairs

    def row(mu, nu) -> dict:
        got = held.get((mu, nu))
        if got is None:
            if ring.unit is not None:
                return _primitive_row(ring, mu, nu)
            table.ensure(mp_total(mu) + mp_total(nu))
            got = held[mu, nu]
        return got

    return row


def _primitive_row(ring: BaseRing, mu: MultiPartition, nu: MultiPartition) -> dict:
    """{lam: int} of Z_mu Z_nu through the primitive generators, kept in the
    ring's ``route_rows`` memo, apart from the table.  Z_mu = sum_w c_w T_w
    is read from the oracle's Z-table, grown to |mu| only.  A normal word
    T_w acts on Z_nu a letter at a time from the right, T_l(U) as 1/l times
    l T_l(U), whose row is a ribbon-rule row (``_ribbon_row``).  Each word
    enters with the integer weight c_w |mu|! / (the product of its levels),
    the levels being parts of a partition of at most |mu|, and the sum is
    divided exactly by |mu|! times the entry's denominator (``_quotient``)."""
    memo = ring.memo("route_rows", dict)
    got = memo.get((mu, nu))
    if got is not None:
        return got
    from . import pbw  # pbw imports this module

    nums, den = pbw._z_entry(ring, pbw._zdata(ring, mp_total(mu)).ztable, mu)
    scale = factorial(mp_total(mu))
    out: dict[MultiPartition, int] = {}
    for w, c in nums.items():
        terms = {nu: c * (scale // prod(map(pbw.sym_level, w)))}
        for s in reversed(w):
            m, u = pbw.sym_level(s), pbw.sym_index(s)
            acted: dict[MultiPartition, int] = {}
            get = acted.get
            for key, a in terms.items():
                for lam, r in _ribbon_row(ring, m, u, key):
                    acted[lam] = get(lam, 0) + a * r
            terms = acted
        accumulate(out, terms)
    z = lambda k: "Z" + format_multipartition(k, ring.labels)
    what = lambda: f"{z(mu)} * {z(nu)} through the primitive generators"
    got = memo[mu, nu] = _quotient(ring, out, scale * den, what)
    return got


def z_multiply(a: GrothElement, b: GrothElement) -> GrothElement:
    """The product of two elements of one ring, on integer numerators."""
    return product(a, b)


# ---------------------------------------------------------------------------
# generators

def _check_degree(n: int):
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")


def _quotient(ring: BaseRing, terms: dict, d: int, what) -> dict:
    """{key: c // d} over the nonzero c of ``terms``, whose every c d must
    divide: a remainder raises IntegralityError naming ``what()`` and the
    least offending key in ``mp_sort_key`` order, as the CLI prints it, with
    its coefficient."""
    bad = [z for z, c in terms.items() if c % d]
    if bad:
        z = min(bad, key=mp_sort_key)
        raise IntegralityError(
            f"{what()} has non-integer coefficient {Fraction(terms[z], d)}"
            f" at Z{format_multipartition(z, ring.labels)}"
        )
    return {z: c // d for z, c in terms.items() if c}


def _ribbon_row(ring: BaseRing, m: int, u: int, nu: MultiPartition) -> tuple:
    """The row (m T_m(U)) Z_nu from the ring's ``ribbon_rows`` memo,
    memo[m, u][nu], as (lam, int) items built by ``_primitive_product`` on
    first lookup and interned in ``ribbon_items``."""
    rows = ring.memo("ribbon_rows", dict).setdefault((m, u), {})
    row = rows.get(nu)
    if row is None:
        intern = ring.memo("ribbon_items", dict).setdefault
        row = _primitive_product(ring, m, u, nu).items()
        row = rows[nu] = tuple(intern(item, item) for item in row)
    return row


def _primitive_product(ring: BaseRing, m: int, u: int, nu: MultiPartition) -> dict:
    """The row (m T_m(U)) Z_nu on integers, U the u-th basis element.  m
    T_m(U), the hook sum sum_j (-1)^j Z_{(m-j,1^j) at U}, is p_m(x_U) on the
    Schur side, so it is primitive and its left product is a
    Murnaghan-Nakayama ribbon rule (R, R' m-ribbons, ``kernels.ribbons``;
    N^W_{U,W'} the coefficient of W in U W'):

        (m T_m(U)) Z_nu = sum_R (-1)^ht(R) Z_{nu + R at U} + sum_{W,W'} N^W_{U,W'}
                          sum_{R',R} (-1)^(ht(R) + ht(R')) Z_{nu - R' at W' + R at W}

    It follows from ProductTable's formula: c^lam_{mu,nu} = <F_lam, s_mu(x)
    s_nu(y)>; pairing with p_m(x_U) is m d/dp_m(x_U) at x = 0; dp_m[X_W]/
    dp_m(x_U) = delta_{W,U} + sum_{W'} N^W_{U,W'} p_m(y_{W'}); p_m^perp
    s_kappa and p_m s_alpha take off and add m-ribbons (Macdonald, Symmetric
    Functions and Hall Polynomials, I.3 ex. 11, I.7).  The row depends on m,
    u, nu and the ring's tensor alone: ``_newton`` keeps each once per ring."""
    ribbons = kernels.ribbons
    out: dict[MultiPartition, int] = {}
    get = out.get
    for kappa, s in ribbons(nu[u], m, 1):
        lam = nu[:u] + (kappa,) + nu[u + 1:]
        out[lam] = get(lam, 0) + s
    for w2 in range(ring.rank()):
        for w, n in ring.tensor[u, w2].items():
            for alpha, s2 in ribbons(nu[w2], m, -1):
                mid = nu[:w2] + (alpha,) + nu[w2 + 1:]
                for kappa, s in ribbons(mid[w], m, 1):
                    lam = mid[:w] + (kappa,) + mid[w + 1:]
                    out[lam] = get(lam, 0) + s * s2 * n
    return {lam: c for lam, c in out.items() if c}


def _newton(ring: BaseRing, n: int, W: RingElement, x: str, y=None) -> list:
    """The levels [x_0(W) y, ..., x_n(W) y] (y = 1 when None) by Newton's
    identity m x_m(W) y = sum_{k=1..m} sign^(k-1) P_k(W) x_{m-k}(W) y, x = e
    (sign -1) or h (sign 1), P_k(W) = sum_{s | k} sum_U (W^s)_U (k/s) T_{k/s}(U).
    Each level sums every (k, s, U) term into one dict of ints and divides it
    by m exactly (``_quotient``).  From y = None the levels are the
    generators x_m(W), read from and kept in the ring's ``e_of``/``h_of``
    memo under (W.key(), m); from a given y none is kept.
    The ring keeps W, W^2, ... in its ``powers`` memo under W.key(), only
    extended, and reads each ribbon-rule row (m T_m(U)) Z_nu from its
    ``ribbon_rows`` memo (``_ribbon_row``)."""
    sign, key = -1 if x == "e" else 1, W.key()
    store = ring.memo(x + "_of", dict) if y is None else {}
    ys = [GrothElement.one(ring) if y is None else y]
    powers = ring.memo("powers", dict).setdefault(key, [W])
    while len(powers) < n:
        powers.append(powers[-1] * W)
    for m in range(1, n + 1):
        got = store.get((key, m))
        if got is None:
            memo = ring.memo("ribbon_rows", dict)
            terms: dict[MultiPartition, int] = {}
            get = terms.get
            for k in range(1, m + 1):
                for s in (s for s in range(1, k + 1) if k % s == 0):
                    for u, c in powers[s - 1].terms.items():
                        rows, c = memo.setdefault((k // s, u), {}), c * sign ** (k - 1)
                        for nu, a in ys[m - k].terms.items():
                            row = rows.get(nu)
                            if row is None:
                                row = _ribbon_row(ring, k // s, u, nu)
                            a *= c
                            for lam, r in row:
                                terms[lam] = get(lam, 0) + a * r
            what = lambda: f"{x}_{m}({W!r})"
            got = store[key, m] = GrothElement(ring, _quotient(ring, terms, m, what))
        ys.append(got)
    return ys


def e_of(ring: BaseRing, n: int, W: RingElement) -> GrothElement:
    """e_n(W) for any W, expanded in the Z basis: for W in the basis the
    single-column key at W, for any other W Newton's identity (``_newton``)
    with the power sums P_k(W) = sum_{s | k} (k/s) T_{k/s}(W^s) of E_W(t),
    read off -log E_W(-t) = sum_s F_{W^s}(t^s)/s; the coefficients of E_W(t)
    commute, for noncommutative R too.  No product table is built."""
    _check_degree(n)
    if n == 0:
        return GrothElement.one(ring)
    if W.is_zero():
        return GrothElement.zero(ring)
    u = W.basis_index()
    if u is not None:
        return GrothElement.basis(ring, mp_single(ring.rank(), u, (1,) * n))
    return ring.memo("e_of", dict).get((W.key(), n)) or _newton(ring, n, W, "e")[n]


def h_element(ring: BaseRing, n: int, W: RingElement) -> GrothElement:
    """h_n(W) from n h_n(W) = sum_{k=1..n} P_k(W) h_{n-k}(W), as log H_W(t)
    = -log E_W(-t): the power sums of ``e_of``, with no product table."""
    _check_degree(n)
    return ring.memo("h_of", dict).get((W.key(), n)) or _newton(ring, n, W, "h")[n]


# ---------------------------------------------------------------------------
# commutation relation

def left_products(ring, bd: int, U: RingElement, V: RingElement) -> dict:
    """{(i, j): (sum_k e_{i-k}(U) h_k(VU) e_{j-k}(V), e_i(U) e_j(V))} for i, j <= bd.
    The commutation identity equates the first entry with the (V, U) table's
    first entry at (j, i), and [e_i(U), e_j(V)] is the difference of the
    second entries.  Each term e_a(U) h_k(VU) e_b(V) is level a of the
    ``_newton`` e-loop on U from level k of its h-loop on VU from e_b(V); the
    h-loop from 1, the generators h_m(VU), runs first, so a non-integral one
    is the error a table raises, and the e-levels from 1 are the generators
    e_a(U)."""
    VU, terms = V * U, {}
    for b in range(bd + 1):
        for k, y in enumerate(_newton(ring, bd - b, VU, "h", e_of(ring, b, V) if b else None)):
            if b or k:
                es = _newton(ring, bd - k, U, "e", y)
            else:
                es = [e_of(ring, a, U) for a in range(bd + 1)]
            for a, t in enumerate(es):
                terms[a, k, b] = t
    sides, zero = {}, GrothElement.zero(ring)
    for i in range(bd + 1):
        for j in range(bd + 1):
            lhs = sum((terms[i - k, k, j - k] for k in range(min(i, j) + 1)), zero)
            sides[i, j] = lhs, terms[i, 0, j]
    return sides


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
    terms: dict[MultiPartition, int] = {}
    for r in range(sum(target) + 1):
        for mu_size_part in partitions(sum(target) - r):
            c = sf.lr_coefficient((1,) * r, mu_size_part, target)
            if not c:
                continue
            key = list(lam)
            key[one] = mu_size_part
            accumulate(terms, {tuple(key): (-1) ** r * c})
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
            el = z_multiply(el, e_of(ring, i, ring.basis_element(u)))
        out.append((m, el))
    return out
