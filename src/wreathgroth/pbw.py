"""The rational realization of the limit ring as a truncated PBW algebra.

Generators T_l(U) carry filtration degree l; T's of distinct levels commute
and same-level generators satisfy [T_l(U), T_l(V)] = T_l(UV - VU).  A word is
a tuple of integer-encoded symbols (level << 16 | basis index), normal when
weakly increasing; rewriting into normal form only ever produces integer
coefficients, so the word kernel lives in ``kernels``.

The Z basis enters through one generating series: the coefficient of the
Schur key lam in

    prod_l exp(T_l(log(1 + sum_U p_l(x_U) U)))

is the PBW expansion of the basis element Z_lam.  Levels above the truncation
degree cannot contribute (T_l alone has degree l), so the product over l is
finite by a proven cutoff, not a tolerance.  Everything this module computes
is derived from that series and serves as the independent cross-check for
the combinatorial layer in ``groth``.

The products (``PBWElement``, ``MixedSeries``) and the change to the Z basis
are integer cores: each operand's Fractions are cleared once with their lcm
(``_exact.to_numerators``), the loops multiply and add ints, and one Fraction
is built per output term.  The product of two normal words comes from the
kernel once per ring and word pair and is kept in ``ring._caches`` under
``pbw_products``: the oracle revisits a few thousand pairs many times over.
The inverse of the Z-table, ``word_to_z``, holds each row as integer
numerators over one denominator.  It is triangular by degree and the block of
degree n depends only on Z_lam with |lam| <= n, which a larger truncation
does not change, so asking for a larger degree solves only the new blocks;
the generating series itself is still built whole at the new degree.
"""

from fractions import Fraction
from math import gcd, lcm

from . import kernels
from ._exact import (
    Combination,
    PowerSeries,
    accumulate,
    exp,
    format_terms,
    from_numerators,
    log1p,
    row_reduce,
    to_numerators,
)
from .errors import DomainError, IntegralityError, MissingDataError
from .groth import GrothElement, mobius
from .partitions import (
    MultiPartition,
    mp_empty,
    mp_single,
    mp_total,
    multipartitions,
)
from .ring import BaseRing, RingElement
from .symfun import merge_parts, p_to_schur_row


def sym(l: int, u: int) -> int:
    if not 0 <= u <= 0xFFFF:
        raise DomainError(f"basis index {u} does not fit the 16-bit symbol field")
    return (l << 16) | u


def sym_level(s: int) -> int:
    return s >> 16


def sym_index(s: int) -> int:
    return s & 0xFFFF


def word_degree(w: tuple) -> int:
    return sum(s >> 16 for s in w)


def word_for_mp(mp: MultiPartition) -> tuple:
    """The normal word whose level multiset at each slot is the partition."""
    out = []
    for u, p in enumerate(mp):
        out.extend(sym(l, u) for l in p)
    return tuple(sorted(out))


def format_word(w: tuple, ring: BaseRing) -> str:
    if not w:
        return "1"
    return "*".join(f"T{sym_level(s)}({ring.labels[sym_index(s)]})" for s in w)


def _word_products(ring: BaseRing):
    """The function (w1, w2) -> product of two words in normal order, as a
    tuple of (normal word, int) items.  Each pair goes to the kernel once per
    ring; the ring's ``pbw_products`` memo keeps the items as a tuple, which
    holds less memory than a dict."""
    memo = ring._caches.get("pbw_products")
    if memo is None:
        memo = ring._caches["pbw_products"] = {}
    comm = ring.commutator_table()

    def product(w1: tuple, w2: tuple) -> tuple:
        items = memo.get((w1, w2))
        if items is None:
            items = memo[w1, w2] = tuple(kernels.normalize_product(w1, w2, comm).items())
        return items

    return product


class PBWElement(Combination):
    """Sparse rational combination of normal words, truncated by filtration.

    Equality ignores the truncation degree."""

    __slots__ = ("ring", "degree")
    _context = ("ring", "degree")
    _compared = ("ring",)

    def __init__(self, ring: BaseRing, degree: int, terms=None):
        self.ring = ring
        self.degree = degree
        super().__init__(terms)

    def _fits(self, w) -> bool:
        return word_degree(w) <= self.degree

    @classmethod
    def zero(cls, ring, degree):
        return cls(ring, degree)

    @classmethod
    def one(cls, ring, degree):
        return cls(ring, degree, {(): Fraction(1)})

    @classmethod
    def generator(cls, ring, degree, l, element: RingElement):
        return cls(
            ring, degree, {(sym(l, u),): Fraction(c) for u, c in element.coeffs.items()}
        )

    def __mul__(self, other: "PBWElement") -> "PBWElement":
        product = _word_products(self.ring)
        D = self.degree
        na, da = to_numerators(self.terms)
        nb, db = to_numerators(other.terms)
        bw = [(w, word_degree(w), c) for w, c in nb.items()]
        out: dict[tuple, int] = {}
        get = out.get
        for w1, c1 in na.items():
            room = D - word_degree(w1)
            for w2, d2, c2 in bw:
                if d2 <= room:
                    c = c1 * c2
                    for w, n in product(w1, w2):
                        out[w] = get(w, 0) + c * n
        return self._like(from_numerators(out, da * db))

    def __repr__(self):
        return "PBW(" + format_terms(
            (format_word(w, self.ring), c) for w, c in sorted(self.terms.items())
        ) + ")"


# ---------------------------------------------------------------------------
# series with symmetric-function coefficients

class RingSeries:
    """Sparse map from power-sum multipartition keys to coefficient vectors
    over the ring; the scalar side of a Theta argument."""

    __slots__ = ("ring", "degree", "terms")

    def __init__(self, ring, degree, terms=None):
        self.ring = ring
        self.degree = degree
        self.terms: dict[MultiPartition, dict[int, Fraction]] = {}
        if terms:
            for k, vec in terms.items():
                if mp_total(k) <= degree:
                    vec = {
                        u: c if type(c) is Fraction else Fraction(c)
                        for u, c in vec.items()
                        if c
                    }
                    if vec:
                        self.terms[k] = vec

    @classmethod
    def one(cls, ring, degree):
        if ring.unit is None:
            raise DomainError("ring has no unit")
        return cls(ring, degree, {mp_empty(ring.rank()): dict(ring.unit)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        terms = {k: dict(v) for k, v in self.terms.items()}
        for k, vec in other.terms.items():
            accumulate(terms.setdefault(k, {}), vec)
        return RingSeries(self.ring, self.degree, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return RingSeries(
            self.ring, self.degree,
            {k: {u: v * c for u, v in vec.items()} for k, vec in self.terms.items()},
        )

    def __mul__(self, other: "RingSeries") -> "RingSeries":
        ring, D = self.ring, self.degree
        terms: dict[MultiPartition, dict[int, Fraction]] = {}
        for k1, v1 in self.terms.items():
            d1 = mp_total(k1)
            for k2, v2 in other.terms.items():
                if d1 + mp_total(k2) > D:
                    continue
                tv = terms.setdefault(tuple(map(merge_parts, k1, k2)), {})
                for i, c1 in v1.items():
                    for j, c2 in v2.items():
                        accumulate(tv, ring.tensor[(i, j)], c1 * c2)
        return RingSeries(ring, D, terms)


class MixedSeries(Combination):
    """Sparse map (power-sum multipartition key, PBW word) -> coefficient."""

    __slots__ = ("ring", "degree")
    _context = ("ring", "degree")
    _compared = _context

    def __init__(self, ring, degree, terms=None):
        self.ring = ring
        self.degree = degree
        super().__init__(terms)

    def _fits(self, key) -> bool:
        return mp_total(key[0]) <= self.degree

    @classmethod
    def one(cls, ring, degree):
        return cls(ring, degree, {(mp_empty(ring.rank()), ()): Fraction(1)})

    def __mul__(self, other: "MixedSeries") -> "MixedSeries":
        product = _word_products(self.ring)
        D = self.degree
        na, da = to_numerators(self.terms)
        nb, db = to_numerators(other.terms)
        bw = [(k, w, mp_total(k), c) for (k, w), c in nb.items()]
        out: dict[tuple, int] = {}
        get = out.get
        for (k1, w1), c1 in na.items():
            room = D - mp_total(k1)
            for k2, w2, d2, c2 in bw:
                if d2 > room:
                    continue
                key = tuple(map(merge_parts, k1, k2))
                c = c1 * c2
                for w, n in product(w1, w2):
                    kw = (key, w)
                    out[kw] = get(kw, 0) + c * n
        return self._like(from_numerators(out, da * db))


def apply_t(l: int, x: RingSeries, degree: int) -> MixedSeries:
    """T_l applied linearly over the symmetric-function coefficients."""
    terms = {}
    for k, vec in x.terms.items():
        for u, c in vec.items():
            terms[(k, (sym(l, u),))] = c
    return MixedSeries(x.ring, degree, terms)


def theta(l: int, x: RingSeries, degree: int) -> MixedSeries:
    """Theta_l(x) = exp(T_l(log x)) for a series with constant term 1."""
    one = RingSeries.one(x.ring, x.degree)
    n = x - one
    if mp_empty(x.ring.rank()) in n.terms:
        raise DomainError("series must have constant term 1")
    logx = log1p(n, one, x.degree)
    return exp(apply_t(l, logx, degree), MixedSeries.one(x.ring, degree), degree)


def generating_series(ring: BaseRing, degree: int) -> MixedSeries:
    """prod_{l<=degree} Theta_l(1 + sum_U p_l(x_U) U); levels above the
    truncation cannot reach degree <= D since T_l has filtration degree l."""
    rank = ring.rank()
    out = MixedSeries.one(ring, degree)
    for l in range(1, degree + 1):
        arg = RingSeries.one(ring, degree) + RingSeries(
            ring, degree, {mp_single(rank, u, (l,)): {u: 1} for u in range(rank)}
        )
        out = out * theta(l, arg, degree)
    return out


class _ZData:
    """The Z-table to ``degree`` and its inverse, ``word_to_z``: each normal
    word of degree <= ``degree`` -> its Z-basis row ({mp: int}, den)."""

    def __init__(self, degree: int, ztable: dict, word_to_z: dict):
        self.degree = degree
        self.ztable: dict[MultiPartition, PBWElement] = ztable
        self.word_to_z: dict[tuple, tuple[dict[MultiPartition, int], int]] = word_to_z


def _zdata(ring: BaseRing, degree: int) -> _ZData:
    data = ring._caches.get("pbw_zdata")
    if data is None or data.degree < degree:
        ztable = _build_ztable(ring, degree)
        # a new object: the smaller one stays whole for whoever holds it, and
        # perfbench counts a build as a change of the cached object
        data = _ZData(degree, ztable, _invert_ztable(ring, ztable, degree, data))
        ring._caches["pbw_zdata"] = data
    return data


def schur_coefficients(series: MixedSeries) -> dict[MultiPartition, PBWElement]:
    """Re-expand the power-sum symmetric side of a mixed series in Schur
    keys, giving each key's PBW coefficient."""
    ring = series.ring
    rank = ring.rank()
    flat: dict[tuple, Fraction] = {}
    for (pkey, w), coeff in series.terms.items():
        # expand the power-sum key into Schur keys slot by slot
        expansions = {mp_empty(rank): 1}
        for i in range(rank):
            if pkey[i]:
                row = p_to_schur_row(pkey[i])
                expansions = {
                    key[:i] + (kappa,) + key[i + 1:]: c * n
                    for key, c in expansions.items()
                    for kappa, n in row.items()
                }
        accumulate(flat, {(skey, w): c for skey, c in expansions.items()}, coeff)
    table: dict[MultiPartition, dict[tuple, Fraction]] = {}
    for (skey, w), c in flat.items():
        table.setdefault(skey, {})[w] = c
    return {mp: PBWElement(ring, series.degree, terms) for mp, terms in table.items()}


def _build_ztable(ring, degree) -> dict[MultiPartition, PBWElement]:
    return schur_coefficients(generating_series(ring, degree))


def _invert_ztable(ring, ztable, degree, done: _ZData | None = None):
    """Triangular inversion: expansion of every normal word in the Z basis.

    Per filtration degree n the top parts of the Z elements form a square
    invertible block against the words of degree n (both are counted by
    multipartitions of n), solved by exact row reduction.  The top part of
    each Z_lam is Z_lam minus its lower-degree tail, which the rows of lower
    degrees already expand, so each word's row is an integer combination of
    those top parts.  The rows of an earlier inversion ``done`` are kept and
    only the blocks above its degree are solved.
    """
    if done is None:
        word_to_z = {(): ({mp_empty(ring.rank()): 1}, 1)}
        start = 1
    else:
        word_to_z = dict(done.word_to_z)
        start = done.degree + 1
    for n in range(start, degree + 1):
        mps = multipartitions(ring.rank(), n)
        top, top_in_z = {}, {}
        for lam in mps:
            terms = ztable[lam].terms
            top[lam] = {w: c for w, c in terms.items() if word_degree(w) == n}
            # the top part of Z_lam in the Z basis: Z_lam minus its
            # lower-degree tail, whose rows are already known
            tail = {w: c for w, c in terms.items() if word_degree(w) < n}
            nums, den = _z_numerators(word_to_z, tail)
            nums = {mu: -c for mu, c in nums.items()}
            nums[lam] = den
            top_in_z[lam] = (nums, den)
        # the reduced row at pivot word w is sum_lam c_lam Z_lam with top part w
        pivots, _ = row_reduce((top[lam], {lam: 1}) for lam in mps)
        if len(pivots) < len(mps):
            raise IntegralityError("degenerate leading-term block; bug in the series")
        for lam in mps:
            w = word_for_mp(lam)
            nums, den = _z_numerators(top_in_z, pivots[w][1])
            nums = {mu: c for mu, c in nums.items() if c}
            g = gcd(den, *nums.values())
            word_to_z[w] = ({mu: c // g for mu, c in nums.items()}, den // g)
    return word_to_z


def _z_numerators(rows: dict, terms: dict) -> tuple[dict, int]:
    """sum_k terms[k] * rows[k] for Fraction terms and integer rows
    (numerators, den), as integer numerators over the product of the terms'
    common denominator and the lcm of the rows' denominators."""
    xn, xd = to_numerators(terms)
    den = lcm(*(rows[k][1] for k in xn))
    out: dict = {}
    get = out.get
    for k, c in xn.items():
        row, d = rows[k]
        c *= den // d
        for mu, r in row.items():
            out[mu] = get(mu, 0) + c * r
    return out, xd * den


def z_element_pbw(ring: BaseRing, mp: MultiPartition, degree=None) -> PBWElement:
    """The basis element Z_mp written in normal-ordered words."""
    mp = tuple(mp)
    if degree is None:
        degree = mp_total(mp)
    data = _zdata(ring, degree)
    return data.ztable.get(mp, PBWElement.zero(ring, degree))


def to_z_basis(x: PBWElement) -> GrothElement:
    """Exact change of basis from normal words to the Z basis.

    The table is sized by the words actually present, not the truncation
    bound, so sparse elements with generous truncations stay cheap."""
    data = _zdata(x.ring, max((word_degree(w) for w in x.terms), default=0))
    return GrothElement(x.ring, from_numerators(*_z_numerators(data.word_to_z, x.terms)))


def oracle_multiply(ring: BaseRing, mu, nu, degree=None) -> GrothElement:
    """Z_mu Z_nu computed wholly on the enveloping-algebra side."""
    mu, nu = tuple(mu), tuple(nu)
    if degree is None:
        degree = mp_total(mu) + mp_total(nu)
    a = z_element_pbw(ring, mu, degree)
    b = z_element_pbw(ring, nu, degree)
    prod = PBWElement(ring, degree, a.terms) * b
    out = to_z_basis(prod)
    out.assert_integral(f"oracle product of {mu} and {nu}")
    return out


# ---------------------------------------------------------------------------
# univariate series in t with PBW coefficients

class TSeries(PowerSeries):
    """A t-series with PBW coefficients."""

    __slots__ = ()

    def __init__(self, ring, degree, coeffs=None):
        super().__init__(PBWElement.zero(ring, degree), degree, coeffs)

    @property
    def ring(self) -> BaseRing:
        return self.zero.ring

    @classmethod
    def one(cls, ring, degree):
        return cls(ring, degree, {0: PBWElement.one(ring, degree)})


def theta_t(l: int, arg: dict[int, dict[int, int]], ring, degree) -> TSeries:
    """Theta_l of a t-series with ring coefficients (constant term 1).

    The argument is held as a t-series whose coefficients are constant
    RingSeries (elements of R (x) Q), so the one truncated log applies."""
    empty = mp_empty(ring.rank())
    const = RingSeries.one(ring, 0)  # 1 in R (x) Q
    one = PowerSeries(const.scale(0), degree, {0: const})
    x = PowerSeries(
        one.zero, degree, {k: RingSeries(ring, 0, {empty: vec}) for k, vec in arg.items()}
    ) - one
    if 0 in x.coeffs:
        raise DomainError("theta argument needs constant term 1")
    lin = TSeries(ring, degree, {
        k: PBWElement(ring, degree, {(sym(l, u),): c for u, c in v.terms[empty].items()})
        for k, v in log1p(x, one, degree).coeffs.items()
    })
    return exp(lin, TSeries.one(ring, degree), degree)


def e_series_pbw(ring: BaseRing, W: RingElement, degree: int) -> TSeries:
    """E_W(t) = prod_l Theta_l(1 - (-t)^l W): generating function of e_r(W)."""
    out = TSeries.one(ring, degree)
    for l in range(1, degree + 1):
        arg = {0: dict(ring.unit), l: {u: -((-1) ** l) * c for u, c in W.coeffs.items()}}
        out = out * theta_t(l, arg, ring, degree)
    return out


def f_series_closed(ring: BaseRing, W: RingElement, degree: int) -> TSeries:
    """F_W(t) = sum_i T_i(W) t^i."""
    return TSeries(
        ring, degree,
        {i: PBWElement.generator(ring, degree, i, W) for i in range(1, degree + 1)},
    )


def f_series_mobius(ring: BaseRing, W: RingElement, degree: int) -> TSeries:
    """F_W(t) = -sum_r mu(r)/r log(E_{W^r}(-t^r)), the defining formula."""
    total = TSeries(ring, degree)
    for r in range(1, degree + 1):
        m = mobius(r)
        if not m:
            continue
        e = e_series_pbw(ring, W ** r, degree // r)
        # substitute t -> -t^r
        sub = TSeries(
            ring, degree,
            {
                r * k: PBWElement(ring, degree, v.terms).scale((-1) ** k)
                for k, v in e.coeffs.items()
            },
        )
        one = TSeries.one(ring, degree)
        total = total + log1p(sub - one, one, degree).scale(Fraction(-m, r))
    return total


def f_series(ring: BaseRing, W: RingElement, degree: int) -> TSeries:
    """The F-series; both computation paths are run and must agree.

    A disagreement raises AssertionError naming the first differing
    t-degree, the PBW word there and both coefficients.
    """
    closed = f_series_closed(ring, W, degree)
    direct = f_series_mobius(ring, W, degree)
    for k in range(degree + 1):
        a, b = closed.coefficient(k).terms, direct.coefficient(k).terms
        for w in sorted(a.keys() | b.keys()):
            if a.get(w, 0) != b.get(w, 0):
                raise AssertionError(
                    f"F-series of {W!r} differs at t^{k}, word {format_word(w, ring)}: "
                    f"sum_i T_i(W) t^i gives {a.get(w, 0)}, the Moebius/log form "
                    f"gives {b.get(w, 0)}"
                )
    return closed


# ---------------------------------------------------------------------------
# Adams and lambda operations

def adams_generator(ring: BaseRing, m: int, l: int, u: int, degree: int) -> PBWElement:
    """Psi_m(T_l(U)) = sum_{d | m, gcd(d,l)=1} (m/d) T_{l m/d}(psi_d(U))."""
    out = PBWElement.zero(ring, degree)
    for d in range(1, m + 1):
        if m % d or gcd(d, l) != 1:
            continue
        image = ring.adams_apply(d, ring.basis_element(u))
        out = out + PBWElement.generator(ring, degree, l * m // d, image).scale(m // d)
    return out


def adams(ring: BaseRing, m: int, x: PBWElement) -> PBWElement:
    """The algebra endomorphism Psi_m; generators pushed above the truncation
    degree vanish."""
    if not ring.has_adams():
        raise MissingDataError(f"ring {ring.name} carries no Adams operations")
    out = PBWElement.zero(ring, x.degree)
    for w, c in x.terms.items():
        acc = PBWElement.one(ring, x.degree)
        for s in w:
            acc = acc * adams_generator(ring, m, sym_level(s), sym_index(s), x.degree)
            if acc.is_zero():
                break
        out = out + acc.scale(c)
    return out


def lambda_on_e1(ring: BaseRing, n: int, U: RingElement, degree=None) -> GrothElement:
    """lambda^n(e_1(U)) via the generating function

        sum_n lambda^n(e_1(U)) t^n = prod_l Theta_l(sum_r (-1)^(r(l-1)) t^(rl) lambda^r(U))
    """
    if degree is None:
        degree = n
    if not ring.has_lambda():
        raise MissingDataError(f"ring {ring.name} carries no lambda operations")
    out = TSeries.one(ring, degree)
    for l in range(1, degree + 1):
        arg: dict[int, dict[int, Fraction]] = {}
        for r in range(0, degree // l + 1):
            vec = ring.lambda_apply(r, U)
            sign = (-1) ** (r * (l - 1))
            arg[r * l] = {u: sign * c for u, c in vec.coeffs.items()}
        out = out * theta_t(l, arg, ring, degree)
    res = to_z_basis(out.coefficient(n))
    res.assert_integral(f"lambda^{n}(e_1({U!r}))")
    return res


# ---------------------------------------------------------------------------
# antipode on the rational side

def antipode_pbw(x: PBWElement) -> PBWElement:
    """The anti-automorphism with S(T_l(U)) = -T_l(U): reverse each word,
    flip the sign per letter, renormalize."""
    product = _word_products(x.ring)
    terms: dict[tuple, Fraction] = {}
    for w, c in x.terms.items():
        accumulate(terms, dict(product(tuple(reversed(w)), ())), -c if len(w) & 1 else c)
    return PBWElement(x.ring, x.degree, terms)
