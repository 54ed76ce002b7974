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
"""

from fractions import Fraction
from math import factorial, gcd

from . import kernels
from .errors import DomainError, IntegralityError, MissingDataError
from .groth import GrothElement, mobius
from .partitions import (
    MultiPartition,
    mp_empty,
    mp_total,
    multipartitions,
)
from .ring import BaseRing, RingElement
from .symfun import merge_parts, p_to_schur_row


def sym(l: int, u: int) -> int:
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


def mp_for_word(w: tuple, rank: int) -> MultiPartition:
    slots = [[] for _ in range(rank)]
    for s in w:
        slots[sym_index(s)].append(sym_level(s))
    return tuple(tuple(sorted(p, reverse=True)) for p in slots)


def format_word(w: tuple, ring: BaseRing) -> str:
    if not w:
        return "1"
    return "*".join(f"T{sym_level(s)}({ring.labels[sym_index(s)]})" for s in w)


def normal_order(ring: BaseRing, word) -> "PBWElement":
    """Rewrite an arbitrary word of (level, basis index) pairs into the
    normal-ordered basis."""
    encoded = tuple(sym(l, u) for l, u in word)
    got = kernels.normalize_product(encoded, (), ring.commutator_table())
    return PBWElement(ring, word_degree(encoded), {w: Fraction(c) for w, c in got.items()})


class PBWElement:
    """Sparse rational combination of normal words, truncated by filtration."""

    __slots__ = ("ring", "degree", "terms")

    def __init__(self, ring: BaseRing, degree: int, terms=None):
        self.ring = ring
        self.degree = degree
        self.terms: dict[tuple, Fraction] = {}
        if terms:
            for w, c in terms.items():
                if c and word_degree(w) <= degree:
                    self.terms[w] = Fraction(c)

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

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for w, c in other.terms.items():
            n = terms.get(w, Fraction(0)) + c
            if n:
                terms[w] = n
            else:
                terms.pop(w, None)
        return PBWElement(self.ring, self.degree, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return PBWElement(self.ring, self.degree)
        return PBWElement(
            self.ring, self.degree, {w: v * c for w, v in self.terms.items()}
        )

    def __mul__(self, other: "PBWElement") -> "PBWElement":
        comm = self.ring.commutator_table()
        D = self.degree
        terms: dict[tuple, Fraction] = {}
        bw = [(w, word_degree(w), c) for w, c in other.terms.items()]
        for w1, c1 in self.terms.items():
            d1 = word_degree(w1)
            for w2, d2, c2 in bw:
                if d1 + d2 > D:
                    continue
                c = c1 * c2
                for w, n in kernels.normalize_product(w1, w2, comm).items():
                    new = terms.get(w, Fraction(0)) + c * n
                    if new:
                        terms[w] = new
                    else:
                        terms.pop(w, None)
        return PBWElement(self.ring, D, terms)

    def __eq__(self, other):
        return (
            isinstance(other, PBWElement)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def top_part(self) -> "PBWElement":
        d = max((word_degree(w) for w in self.terms), default=0)
        return PBWElement(
            self.ring, self.degree,
            {w: c for w, c in self.terms.items() if word_degree(w) == d},
        )

    def __repr__(self):
        if not self.terms:
            return "PBW(0)"
        bits = [
            f"{c}*{format_word(w, self.ring)}"
            for w, c in sorted(self.terms.items())
        ]
        return "PBW(" + " + ".join(bits) + ")"


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
                    vec = {u: Fraction(c) for u, c in vec.items() if c}
                    if vec:
                        self.terms[k] = vec

    @classmethod
    def one(cls, ring, degree):
        if ring.unit is None:
            raise DomainError("ring has no unit")
        return cls(ring, degree, {mp_empty(ring.rank()): dict(ring.unit)})

    def __add__(self, other):
        terms = {k: dict(v) for k, v in self.terms.items()}
        for k, vec in other.terms.items():
            tv = terms.setdefault(k, {})
            for u, c in vec.items():
                n = tv.get(u, Fraction(0)) + c
                if n:
                    tv[u] = n
                else:
                    tv.pop(u, None)
            if not tv:
                terms.pop(k)
        return RingSeries(self.ring, self.degree, terms)

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
                key = tuple(merge_parts(a, b) for a, b in zip(k1, k2))
                tv = terms.setdefault(key, {})
                for i, c1 in v1.items():
                    for j, c2 in v2.items():
                        c12 = c1 * c2
                        for u, n in ring.tensor[(i, j)].items():
                            new = tv.get(u, Fraction(0)) + c12 * n
                            if new:
                                tv[u] = new
                            else:
                                tv.pop(u, None)
                if not tv:
                    terms.pop(key)
        return RingSeries(ring, D, terms)

    def minus_one(self) -> "RingSeries":
        one = RingSeries.one(self.ring, self.degree)
        out = self + one.scale(-1)
        key = mp_empty(self.ring.rank())
        if key in out.terms:
            raise DomainError("series must have constant term 1")
        return out

    def log(self) -> "RingSeries":
        """log(self) for constant term 1, by the alternating power series."""
        n = self.minus_one()
        out = RingSeries(self.ring, self.degree)
        power = RingSeries.one(self.ring, self.degree)
        for k in range(1, self.degree + 1):
            power = power * n
            if not power.terms:
                break
            out = out + power.scale(Fraction((-1) ** (k - 1), k))
        return out


class MixedSeries:
    """Sparse map (power-sum multipartition key, PBW word) -> coefficient."""

    __slots__ = ("ring", "degree", "terms")

    def __init__(self, ring, degree, terms=None):
        self.ring = ring
        self.degree = degree
        self.terms: dict[tuple, Fraction] = {}
        if terms:
            for (k, w), c in terms.items():
                if c and mp_total(k) <= degree:
                    self.terms[(k, w)] = Fraction(c)

    @classmethod
    def one(cls, ring, degree):
        return cls(ring, degree, {(mp_empty(ring.rank()), ()): Fraction(1)})

    def __add__(self, other):
        terms = dict(self.terms)
        for key, c in other.terms.items():
            n = terms.get(key, Fraction(0)) + c
            if n:
                terms[key] = n
            else:
                terms.pop(key, None)
        return MixedSeries(self.ring, self.degree, terms)

    def scale(self, c):
        c = Fraction(c)
        return MixedSeries(
            self.ring, self.degree, {k: v * c for k, v in self.terms.items()}
        )

    def __mul__(self, other: "MixedSeries") -> "MixedSeries":
        ring, D = self.ring, self.degree
        comm = ring.commutator_table()
        terms: dict[tuple, Fraction] = {}
        bw = [(k, w, mp_total(k), c) for (k, w), c in other.terms.items()]
        for (k1, w1), c1 in self.terms.items():
            d1 = mp_total(k1)
            for k2, w2, d2, c2 in bw:
                if d1 + d2 > D:
                    continue
                key = tuple(merge_parts(a, b) for a, b in zip(k1, k2))
                c = c1 * c2
                for w, n in kernels.normalize_product(w1, w2, comm).items():
                    kk = (key, w)
                    new = terms.get(kk, Fraction(0)) + c * n
                    if new:
                        terms[kk] = new
                    else:
                        terms.pop(kk, None)
        return MixedSeries(ring, D, terms)

    def exp(self) -> "MixedSeries":
        """exp of a series with no constant term."""
        if any(not k and not w for (k, w) in self.terms):
            raise DomainError("exp needs a series without constant term")
        out = MixedSeries.one(self.ring, self.degree)
        power = MixedSeries.one(self.ring, self.degree)
        for k in range(1, self.degree + 1):
            power = power * self
            if not power.terms:
                break
            out = out + power.scale(Fraction(1, factorial(k)))
        return out


def apply_t(l: int, x: RingSeries, degree: int) -> MixedSeries:
    """T_l applied linearly over the symmetric-function coefficients."""
    terms = {}
    for k, vec in x.terms.items():
        for u, c in vec.items():
            terms[(k, (sym(l, u),))] = c
    return MixedSeries(x.ring, degree, terms)


def theta(l: int, x: RingSeries, degree: int) -> MixedSeries:
    """Theta_l(x) = exp(T_l(log x)) for a series with constant term 1."""
    return apply_t(l, x.log(), degree).exp()


def generating_series(ring: BaseRing, degree: int) -> MixedSeries:
    """prod_{l<=degree} Theta_l(1 + sum_U p_l(x_U) U); levels above the
    truncation cannot reach degree <= D since T_l has filtration degree l."""
    out = MixedSeries.one(ring, degree)
    for l in range(1, degree + 1):
        arg = RingSeries.one(ring, degree)
        key = list(mp_empty(ring.rank()))
        for u in range(ring.rank()):
            key[u] = (l,)
            arg = arg + RingSeries(
                ring, degree, {tuple(key): {u: 1}}
            )
            key[u] = ()
        out = out * theta(l, arg, degree)
    return out


class _ZData:
    def __init__(self):
        self.degree = -1
        self.ztable: dict[MultiPartition, PBWElement] = {}
        self.word_to_z: dict[tuple, dict[MultiPartition, Fraction]] = {}


def _zdata(ring: BaseRing, degree: int) -> _ZData:
    data = ring._caches.get("pbw_zdata")
    if data is None or data.degree < degree:
        data = _ZData()
        data.degree = degree
        data.ztable = _build_ztable(ring, degree)
        data.word_to_z = _invert_ztable(ring, data.ztable, degree)
        ring._caches["pbw_zdata"] = data
    return data


def schur_coefficients(series: MixedSeries) -> dict[MultiPartition, PBWElement]:
    """Re-expand the power-sum symmetric side of a mixed series in Schur
    keys, giving each key's PBW coefficient."""
    ring = series.ring
    degree = series.degree
    rank = ring.rank()
    table: dict[MultiPartition, dict[tuple, Fraction]] = {}
    for (pkey, w), coeff in series.terms.items():
        # expand the power-sum key into Schur keys slot by slot
        expansions = [((), Fraction(1))]
        slots = [i for i in range(rank) if pkey[i]]
        for i in slots:
            row = p_to_schur_row(pkey[i])
            expansions = [
                (pref + (kappa,), c * n)
                for pref, c in expansions
                for kappa, n in row.items()
            ]
        for seq, c in expansions:
            skey = [()] * rank
            for i, kappa in zip(slots, seq):
                skey[i] = kappa
            entry = table.setdefault(tuple(skey), {})
            new = entry.get(w, Fraction(0)) + coeff * c
            if new:
                entry[w] = new
            else:
                entry.pop(w, None)
    return {
        mp: PBWElement(ring, degree, terms)
        for mp, terms in table.items()
        if terms
    }


def _build_ztable(ring, degree) -> dict[MultiPartition, PBWElement]:
    return schur_coefficients(generating_series(ring, degree))


def _invert_ztable(ring, ztable, degree):
    """Triangular inversion: expansion of every normal word in the Z basis.

    Per filtration degree n the top parts of the Z elements form a square
    invertible block against the words of degree n (both are counted by
    multipartitions of n), solved by Gaussian elimination; the sub-top
    remainder is pushed onto already-inverted lower degrees.
    """
    word_to_z: dict[tuple, dict[MultiPartition, Fraction]] = {(): {mp_empty(ring.rank()): Fraction(1)}}
    for n in range(1, degree + 1):
        mps = list(multipartitions(ring.rank(), n))
        words = [word_for_mp(mp) for mp in mps]
        index = {w: i for i, w in enumerate(words)}
        m = len(mps)
        # rows: words, columns: lam, augmented with identity over words
        matrix = [[Fraction(0)] * m for _ in range(m)]
        for j, lam in enumerate(mps):
            for w, c in ztable[lam].terms.items():
                if word_degree(w) == n:
                    matrix[index[w]][j] = c
        inverse = _invert_matrix(matrix)
        for i, w in enumerate(words):
            coeffs = {
                mps[j]: inverse[j][i] for j in range(m) if inverse[j][i]
            }
            # subtract the lower-degree tail of sum_j c_j Z_j to land on w
            remainder: dict[tuple, Fraction] = {}
            for lam, c in coeffs.items():
                for ww, cc in ztable[lam].terms.items():
                    if word_degree(ww) < n:
                        nn = remainder.get(ww, Fraction(0)) + c * cc
                        if nn:
                            remainder[ww] = nn
                        else:
                            remainder.pop(ww, None)
            out = dict(coeffs)
            for ww, cc in remainder.items():
                for lam, c in word_to_z[ww].items():
                    nn = out.get(lam, Fraction(0)) - cc * c
                    if nn:
                        out[lam] = nn
                    else:
                        out.pop(lam, None)
            word_to_z[w] = out
    return word_to_z


def _invert_matrix(matrix):
    m = len(matrix)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(m)] for i, row in enumerate(matrix)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col]), None)
        if pivot is None:
            raise IntegralityError("degenerate leading-term block; bug in the series")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


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
    terms: dict[MultiPartition, Fraction] = {}
    for w, c in x.terms.items():
        for lam, v in data.word_to_z[w].items():
            n = terms.get(lam, Fraction(0)) + c * v
            if n:
                terms[lam] = n
            else:
                terms.pop(lam, None)
    return GrothElement(x.ring, terms)


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

class TSeries:
    __slots__ = ("ring", "degree", "coeffs")

    def __init__(self, ring, degree, coeffs=None):
        self.ring = ring
        self.degree = degree
        self.coeffs: dict[int, PBWElement] = {}
        if coeffs:
            for k, v in coeffs.items():
                if k <= degree and not v.is_zero():
                    self.coeffs[k] = v

    @classmethod
    def one(cls, ring, degree):
        return cls(ring, degree, {0: PBWElement.one(ring, degree)})

    def coefficient(self, k: int) -> PBWElement:
        return self.coeffs.get(k, PBWElement.zero(self.ring, self.degree))

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k)
            out[k] = v if s is None else s + v
        return TSeries(self.ring, self.degree, out)

    def scale(self, c):
        return TSeries(
            self.ring, self.degree, {k: v.scale(c) for k, v in self.coeffs.items()}
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        out: dict[int, PBWElement] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                if k1 + k2 > self.degree:
                    continue
                prod = v1 * v2
                s = out.get(k1 + k2)
                out[k1 + k2] = prod if s is None else s + prod
        return TSeries(self.ring, self.degree, out)

    def __eq__(self, other):
        return (
            isinstance(other, TSeries)
            and self.degree == other.degree
            and {k: v.terms for k, v in self.coeffs.items() if not v.is_zero()}
            == {k: v.terms for k, v in other.coeffs.items() if not v.is_zero()}
        )

    def log(self) -> "TSeries":
        n = self + TSeries.one(self.ring, self.degree).scale(-1)
        if 0 in n.coeffs:
            raise DomainError("log needs constant term 1")
        out = TSeries(self.ring, self.degree)
        power = TSeries.one(self.ring, self.degree)
        for k in range(1, self.degree + 1):
            power = power * n
            if not power.coeffs:
                break
            out = out + power.scale(Fraction((-1) ** (k - 1), k))
        return out

    def exp(self) -> "TSeries":
        if 0 in self.coeffs:
            raise DomainError("exp needs vanishing constant term")
        out = TSeries.one(self.ring, self.degree)
        power = TSeries.one(self.ring, self.degree)
        for k in range(1, self.degree + 1):
            power = power * self
            if not power.coeffs:
                break
            out = out + power.scale(Fraction(1, factorial(k)))
        return out

    def inverse(self) -> "TSeries":
        c0 = self.coeffs.get(0)
        if c0 is None or c0.terms != {(): Fraction(1)}:
            raise DomainError("series inverse needs constant term 1")
        inv = {0: PBWElement.one(self.ring, self.degree)}
        for k in range(1, self.degree + 1):
            acc = PBWElement.zero(self.ring, self.degree)
            for i in range(1, k + 1):
                ci = self.coeffs.get(i)
                if ci is not None and (k - i) in inv:
                    acc = acc + ci * inv[k - i]
            inv[k] = acc.scale(-1)
        return TSeries(self.ring, self.degree, inv)


def theta_t(l: int, arg: dict[int, dict[int, Fraction]], ring, degree) -> TSeries:
    """Theta_l of a t-series with ring coefficients (constant term 1)."""
    if ring.unit is None:
        raise DomainError("ring has no unit")
    one = {0: {u: Fraction(c) for u, c in ring.unit.items()}}
    # log of the argument within the t-series algebra over the ring
    n: dict[int, dict[int, Fraction]] = {}
    for k, vec in arg.items():
        vec = {u: Fraction(c) for u, c in vec.items() if c}
        if k == 0:
            if vec != one[0]:
                raise DomainError("theta argument needs constant term 1")
            continue
        if vec and k <= degree:
            n[k] = vec

    def rmul(a, b):
        out: dict[int, dict[int, Fraction]] = {}
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                if k1 + k2 > degree:
                    continue
                tv = out.setdefault(k1 + k2, {})
                for i, c1 in v1.items():
                    for j, c2 in v2.items():
                        c12 = c1 * c2
                        for u, m in ring.tensor[(i, j)].items():
                            nn = tv.get(u, Fraction(0)) + c12 * m
                            if nn:
                                tv[u] = nn
                            else:
                                tv.pop(u, None)
        return {k: v for k, v in out.items() if v}

    logx: dict[int, dict[int, Fraction]] = {}
    power = {0: dict(one[0])}
    for k in range(1, degree + 1):
        power = rmul(power, n)
        if not power:
            break
        scale = Fraction((-1) ** (k - 1), k)
        for e, vec in power.items():
            tv = logx.setdefault(e, {})
            for u, c in vec.items():
                nn = tv.get(u, Fraction(0)) + c * scale
                if nn:
                    tv[u] = nn
                else:
                    tv.pop(u, None)
    # apply T_l and exponentiate
    lin = TSeries(
        ring, degree,
        {
            e: PBWElement(ring, degree, {(sym(l, u),): c for u, c in vec.items()})
            for e, vec in logx.items()
            if vec
        },
    )
    return lin.exp()


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
        total = total + sub.log().scale(Fraction(-m, r))
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
    comm = x.ring.commutator_table()
    out = PBWElement.zero(x.ring, x.degree)
    for w, c in x.terms.items():
        sign = -1 if len(w) & 1 else 1
        got = kernels.normalize_product(tuple(reversed(w)), (), comm)
        out = out + PBWElement(x.ring, x.degree, got).scale(c * sign)
    return out
