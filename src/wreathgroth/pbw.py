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
finite by a proven cutoff, not a tolerance.  Each level is a copy of the same
Lie algebra, so Theta_l is Theta_1 with each T_1 renamed T_l (``lift``) and
p_1 renamed p_l: the series is taken once, at level 1, and factors at
increasing levels multiply by concatenating normal words, with no rewriting.
The E- and lambda-series lift their Theta_1 the same way
(``_lifted_product``).  Everything this module computes is derived from that
series and serves as the independent cross-check for the combinatorial layer
in ``groth``.  Its symmetric-function side is held in power sums: a
``RingSeries`` (an element of R (x) Lambda, the argument of a Theta_l) maps
(power-sum multipartition, basis index of R) to a coefficient, and a
``MixedSeries`` maps (power-sum multipartition, normal word).

The products (``PBWElement`` and both series) and the change to the Z basis
run on integer numerators.  ``PBWElement`` and ``_PowerSumSeries`` each give
``_exact`` one integer core, ``_int_product``, used by their products and by
the truncated exp and log of ``_exact.power_sum``.  A ``TSeries`` is an
``_exact.PowerSeries``: flat (t, word) terms, multiplied through the core
of its PBW coefficients, and ``theta_t`` and the substitution t -> -t^r
of ``f_series_mobius`` rewrite those terms in one pass.  Each operand's
Fractions are cleared once with their lcm, the loops multiply and add
ints, and the lcm is divided out of each output term.  The cores take nothing
from ``groth``'s ``ProductTable``, so the oracle stays an independent
route.  The product of two normal words comes from the kernel once per
ring and word pair and is kept in the ring's ``pbw_products`` memo, one row
per left word, which a core fetches once per left term: the oracle revisits
a few thousand pairs many times over.  The same memo holds each word's
degree, summed once, for the truncations.

The Z-table holds each Z_lam as integer numerators over one denominator,
({word: int}, den).  Its inverse, ``word_to_z``, holds each word's Z-basis
row the same way, by the positions of the Z keys in ``_ZData.keys``, so the
one change to the Z basis, ``_in_z_basis``, adds at small-int keys and
decodes each output position once.  ``oracle_multiply`` multiplies two
table entries with the word core and hands the product's numerators
straight to it; ``to_z_basis`` clears a ``PBWElement`` once and does the
same.  Z_lam does not depend on the truncation, and the row of each normal
word is read off the series coefficient that Z-table entries are summed
from, by character orthogonality; so asking for a larger degree builds only
the new Z_lam and rows, one size at a time, with no solve.
"""

from fractions import Fraction
from math import gcd, lcm, prod

from . import kernels
from ._exact import (
    Combination,
    PowerSeries,
    accumulate,
    exact,
    exp,
    first_difference,
    format_terms,
    from_numerators,
    log1p,
    substitute,
    to_numerators,
)
from .errors import DomainError, IntegralityError, MissingDataError
from .groth import GrothElement
from .partitions import (
    MultiPartition,
    format_multipartition,
    mp_empty,
    mp_single,
    mp_total,
    multipartitions,
    z_factor,
)
from .ring import BaseRing, RingElement
from .symfun import _key_rows, merge_parts, p_to_schur_row


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


class _Degrees(dict):
    """{word: filtration degree}, each word's sum taken once."""

    __slots__ = ()

    def __missing__(self, w):
        d = self[w] = word_degree(w)
        return d


class _ProductRow(dict):
    """{w2: the product of the normal words left and w2}, as in
    ``_ProductMemo``; a right word goes to the kernel when first looked up."""

    __slots__ = ("left", "comm", "words")

    def __init__(self, left: tuple, comm: dict, words: dict):
        self.left, self.comm, self.words = left, comm, words

    def __missing__(self, w2: tuple) -> tuple:
        intern = self.words.setdefault
        items = self[w2] = tuple(
            (intern(w, w), c)
            for w, c in kernels.normalize_product(self.left, w2, self.comm).items()
        )
        return items


class _ProductMemo(dict):
    """{w1: its ``_ProductRow``}: ``memo[w1][w2]`` is the product of two
    normal words in normal order, as a tuple of (normal word, int) items, and
    a core fetches the row once per left term.  A tuple holds less memory
    than a dict, and ``words`` keeps one tuple per distinct output word: a
    few hundred words recur across thousands of items.  ``degrees`` holds
    the degree of every word the ring's products and truncations have met."""

    __slots__ = ("comm", "words", "degrees")

    def __init__(self, comm: dict):
        super().__init__()
        self.comm = comm
        self.words: dict[tuple, tuple] = {}
        self.degrees = _Degrees()

    def __missing__(self, w1: tuple) -> _ProductRow:
        row = self[w1] = _ProductRow(w1, self.comm, self.words)
        return row


def _word_products(ring: BaseRing) -> _ProductMemo:
    """The ring's ``pbw_products`` memo: ``memo[w1][w2]`` is the product of
    two normal words, taken by the kernel once per ring and pair."""
    return ring.memo("pbw_products", lambda: _ProductMemo(ring.commutator_table()))


def _word_degrees(ring: BaseRing) -> _Degrees:
    return _word_products(ring).degrees


class PBWElement(Combination):
    """Sparse rational combination of normal words, truncated by filtration."""

    __slots__ = ("ring", "degree")
    _context = ("ring", "degree")
    _compared = _context

    def __init__(self, ring: BaseRing, degree: int, terms=None):
        self.ring = ring
        self.degree = degree
        super().__init__(terms)

    def _fits(self, w) -> bool:
        return _word_degrees(self.ring)[w] <= self.degree

    @classmethod
    def zero(cls, ring, degree):
        return cls(ring, degree)

    @classmethod
    def one(cls, ring, degree):
        return cls(ring, degree, {(): 1})

    @classmethod
    def generator(cls, ring, degree, l, element: RingElement):
        return cls(
            ring, degree, {(sym(l, u),): c for u, c in element.terms.items()}
        )

    def _int_product(self, a: dict, b: dict) -> dict:
        """Word by word, truncated at ``degree``."""
        product = _word_products(self.ring)
        degree = _word_degrees(self.ring)
        D = self.degree
        bw = [(w, degree[w], c) for w, c in b.items()]
        out: dict[tuple, int] = {}
        get = out.get
        for w1, c1 in a.items():
            room = D - degree[w1]
            row = product[w1]
            for w2, d2, c2 in bw:
                if d2 <= room:
                    c = c1 * c2
                    for w, n in row[w2]:
                        out[w] = get(w, 0) + c * n
        return {w: c for w, c in out.items() if c}

    def __repr__(self):
        return "PBW(" + format_terms(
            (format_word(w, self.ring), c) for w, c in sorted(self.terms.items())
        ) + ")"


# ---------------------------------------------------------------------------
# series with symmetric-function coefficients

class _PowerSumSeries(Combination):
    """Sparse map (power-sum multipartition key, tag) -> coefficient,
    truncated above symmetric-function degree ``degree``.  Keys multiply
    slotwise and tags through ``_tag_product(ring)``, which maps a left tag
    to its row, {right tag: (tag, int) items}; ``_int_product`` is the
    integer core."""

    __slots__ = ("ring", "degree")
    _context = ("ring", "degree")
    _compared = _context

    def __init__(self, ring, degree, terms=None):
        self.ring = ring
        self.degree = degree
        super().__init__(terms)

    def _fits(self, key) -> bool:
        return mp_total(key[0]) <= self.degree

    def _int_product(self, a: dict, b: dict) -> dict:
        product = self._tag_product(self.ring)
        D = self.degree
        bw = [(k, w, mp_total(k), c) for (k, w), c in b.items()]
        out: dict[tuple, int] = {}
        get = out.get
        for (k1, w1), c1 in a.items():
            room = D - mp_total(k1)
            row = product[w1]
            for k2, w2, d2, c2 in bw:
                if d2 > room:
                    continue
                key = tuple(map(merge_parts, k1, k2))
                c = c1 * c2
                for w, n in row[w2]:
                    kw = (key, w)
                    out[kw] = get(kw, 0) + c * n
        return {kw: c for kw, c in out.items() if c}


class RingSeries(_PowerSumSeries):
    """An element of R (x) Lambda: (power-sum key, basis index of R) ->
    coefficient; the scalar side of a Theta argument.  The constructor takes
    the nested form {key: {basis index: coefficient}}."""

    __slots__ = ()

    def __init__(self, ring, degree, terms=None):
        super().__init__(ring, degree, {
            (k, u): c for k, vec in (terms or {}).items() for u, c in vec.items()
        })

    @staticmethod
    def _tag_product(ring):
        n = ring.rank()
        return {i: {j: ring.tensor[i, j].items() for j in range(n)} for i in range(n)}

    @classmethod
    def one(cls, ring, degree):
        return cls(ring, degree, {mp_empty(ring.rank()): ring.one().terms})


class MixedSeries(_PowerSumSeries):
    """Sparse map (power-sum multipartition key, PBW word) -> coefficient."""

    __slots__ = ()
    _tag_product = staticmethod(_word_products)

    @classmethod
    def one(cls, ring, degree):
        return cls(ring, degree, {(mp_empty(ring.rank()), ()): 1})


def apply_t(l: int, x: RingSeries, degree: int) -> MixedSeries:
    """T_l applied linearly over the symmetric-function coefficients."""
    return MixedSeries(
        x.ring, degree, {(k, (sym(l, u),)): c for (k, u), c in x.terms.items()}
    )


def theta(l: int, x: RingSeries, degree: int) -> MixedSeries:
    """Theta_l(x) = exp(T_l(log x)) for a series with constant term 1."""
    one = RingSeries.one(x.ring, x.degree)
    n = x - one
    empty = mp_empty(x.ring.rank())
    if any(k == empty for k, _ in n.terms):
        raise DomainError("series must have constant term 1")
    logx = log1p(n, one, x.degree)
    return exp(apply_t(l, logx, degree), MixedSeries.one(x.ring, degree), degree)


class _ZData:
    """The Z-table to ``degree`` and its inverse.  ``keys`` lists every Z key
    of degree <= ``degree``, size by size in ``multipartitions`` order, so a
    key keeps its position as the table grows.  ``ztable`` holds each Z_lam
    as ({normal word: int}, den) in lowest terms, ``word_to_z`` each normal
    word of degree <= ``degree`` as its Z-basis row ({position: int}, den)."""

    def __init__(self, degree: int, keys: list, ztable: dict, word_to_z: dict):
        self.degree = degree
        self.keys: list[MultiPartition] = keys
        self.ztable: dict[MultiPartition, tuple[dict[tuple, int], int]] = ztable
        self.word_to_z: dict[tuple, tuple[dict[int, int], int]] = word_to_z


def _zdata(ring: BaseRing, degree: int) -> _ZData:
    data = ring._caches.get("pbw_zdata")
    if data is None or data.degree < degree:
        # a new object: the smaller one stays whole for whoever holds it, and
        # perfbench counts a build as a change of the cached object
        data = ring._caches["pbw_zdata"] = _grow_ztable(ring, data, degree)
    return data


def lift(l: int, w: tuple) -> tuple:
    """w, a word of level-1 symbols, with each T_1 renamed T_l."""
    return tuple(s + ((l - 1) << 16) for s in w)


def _grow_ztable(ring: BaseRing, done: _ZData | None, degree: int) -> _ZData:
    """``done`` grown to ``degree``, one size n at a time.  The series
    coefficient G_rho at a power-sum key rho is the concatenation, over the
    part sizes l of rho in increasing order, of the level-l lift of Theta_1
    at the multiplicities of l in the slots of rho (one denominator per
    level), and Z_lam = sum_rho chi^lam_rho G_rho, with chi^lam_rho =
    prod_U chi^{lam(U)}_{rho(U)}.  The top part of Z_lam, the image of
    prod_U s_{lam(U)} under p_l -> l T_l (Macdonald, I.7), is sum_sigma
    chi^lam_sigma pi(sigma) / z_sigma w_sigma, w_sigma being
    ``word_for_mp(sigma)`` and pi(sigma) the product of its parts; each new
    Z_lam is checked against it.  So top(G_sigma) = pi(sigma) / z_sigma
    w_sigma, and by orthogonality, sum_lam chi^lam_sigma Z_lam = z_sigma
    G_sigma, the inverse needs no solve: w_sigma = (sum_lam chi^lam_sigma
    Z_lam - z_sigma tail(G_sigma)) / pi(sigma), the rows already known
    taking the tail, of degree below n, to the Z basis.
    """
    rank = ring.rank()
    arg = RingSeries.one(ring, degree) + RingSeries(
        ring, degree, {mp_single(rank, u, (1,)): {u: 1} for u in range(rank)}
    )
    theta1 = theta(1, arg, degree).terms
    intern = _word_products(ring).words.setdefault
    # pieces[l]: {slot multiplicities: [(lifted word, numerator over dens[l])]}
    pieces, dens = [{}], [1]
    for l in range(1, degree + 1):
        nums, den = to_numerators(
            {kw: c for kw, c in theta1.items() if l * mp_total(kw[0]) <= degree}
        )
        pieces.append({})
        dens.append(den)
        for (key, w), c in nums.items():
            w = lift(l, w)
            pieces[l].setdefault(tuple(map(len, key)), []).append((intern(w, w), c))
    key_row = _key_rows(p_to_schur_row)
    word_deg = _word_degrees(ring)
    done = done or _ZData(-1, [], {}, {})
    keys, ztable, word_to_z = list(done.keys), dict(done.ztable), dict(done.word_to_z)
    for n in range(done.degree + 1, degree + 1):
        den = prod(dens[:n + 1])
        mps = multipartitions(rank, n)
        at = {lam: len(keys) + i for i, lam in enumerate(mps)}
        keys.extend(mps)
        table: dict[MultiPartition, dict[tuple, int]] = {}
        # the top parts by characters: per lam, (w_sigma, z_sigma, chi pi(sigma))
        want: dict[MultiPartition, list] = {lam: [] for lam in mps}
        for rho in mps:
            sizes = sorted(set().union(*rho))
            coeff = {(): den // prod(dens[l] for l in sizes)}
            for l in sizes:
                piece = pieces[l].get(tuple(p.count(l) for p in rho), ())
                coeff = {w1 + w2: c1 * c2 for w1, c1 in coeff.items() for w2, c2 in piece}
            coeff = {intern(w, w): c for w, c in coeff.items()}
            w, z, pi = word_for_mp(rho), prod(map(z_factor, rho)), prod(map(prod, rho))
            inverse, d = _z_numerators(
                word_to_z, {v: -z * c for v, c in coeff.items() if word_deg[v] < n}, den
            )
            for lam, chi in key_row(rho):
                row = table.setdefault(lam, {})
                get = row.get
                for v, c in coeff.items():
                    row[v] = get(v, 0) + chi * c
                want[lam].append((w, z, chi * pi))
                inverse[at[lam]] = inverse.get(at[lam], 0) + chi * d
            word_to_z[w] = _lowest_terms(inverse, d * pi)
        for lam, row in table.items():
            entry = _lowest_terms(row, den)
            if entry[0]:
                ztable[lam] = entry
        _check_top_parts(ring, ztable, want, n)
    return _ZData(degree, keys, ztable, word_to_z)


def _lowest_terms(nums: dict, den: int) -> tuple[dict, int]:
    g = gcd(den, *nums.values())
    return {k: c // g for k, c in nums.items() if c}, den // g


def _check_top_parts(ring: BaseRing, ztable: dict, want: dict, n: int) -> None:
    """Each Z_lam of degree n against its top part by characters, ``want[lam]``
    listing (w_sigma, z_sigma, chi^lam_sigma pi(sigma)) as in ``_grow_ztable``."""
    word_deg = _word_degrees(ring)
    for lam, terms in want.items():
        nums, den = ztable[lam]
        top = {w: c for w, c in nums.items() if word_deg[w] == n}
        if len(top) != len(terms) or any(top.get(w, 0) * z != den * c for w, z, c in terms):
            w, got, chi = first_difference(
                from_numerators(top, den), {w: exact(Fraction(c, z)) for w, z, c in terms}
            )
            raise IntegralityError(
                f"top part of Z{format_multipartition(lam, ring.labels)} differs at word "
                f"{format_word(w, ring)}: the series gives {got}, the characters give {chi}"
            )


def _z_numerators(rows: dict, nums: dict, den: int) -> tuple[dict, int]:
    """sum_k nums[k] / den * rows[k] for integer rows (numerators, den), as
    integer numerators over den times the lcm of the rows' denominators."""
    rows_den = lcm(*(rows[k][1] for k in nums))
    out: dict = {}
    get = out.get
    for k, c in nums.items():
        row, d = rows[k]
        c *= rows_den // d
        for mu, r in row.items():
            out[mu] = get(mu, 0) + c * r
    return out, den * rows_den


def _in_z_basis(ring: BaseRing, nums: dict, den: int) -> GrothElement:
    """The combination nums / den of normal words in the Z basis: the one
    change of basis, on integer numerators and Z positions, each output
    position decoded to its Z key once.  The table is sized by the words
    present, not by a truncation bound, so sparse elements with generous
    truncations stay cheap."""
    word_deg = _word_degrees(ring)
    data = _zdata(ring, max((word_deg[w] for w in nums), default=0))
    keys = data.keys
    out = from_numerators(*_z_numerators(data.word_to_z, nums, den))
    return GrothElement(ring, {keys[p]: c for p, c in out.items()})


def _z_entry(ring: BaseRing, ztable: dict, mp: MultiPartition) -> tuple[dict, int]:
    """Z_mp's entry in ``ztable``, which holds every Z-basis key up to its
    degree; a key it lacks is not a Z-basis key of the ring."""
    entry = ztable.get(mp)
    if entry is None:
        raise DomainError(f"{mp} is not a Z-basis key of ring {ring.name}")
    return entry


def z_element_pbw(ring: BaseRing, mp: MultiPartition, degree=None) -> PBWElement:
    """The basis element Z_mp written in normal-ordered words, truncated at
    ``degree`` (by default |mp|, where Z_mp is whole), whatever degree the
    ring's Z-table has reached."""
    mp = tuple(mp)
    if degree is None:
        degree = mp_total(mp)
    ztable = _zdata(ring, max(degree, mp_total(mp))).ztable
    return PBWElement(ring, degree, from_numerators(*_z_entry(ring, ztable, mp)))


def to_z_basis(x: PBWElement) -> GrothElement:
    """Exact change of basis from normal words to the Z basis."""
    return _in_z_basis(x.ring, *x._ints())


def oracle_multiply(ring: BaseRing, mu, nu) -> GrothElement:
    """Z_mu Z_nu computed wholly on the enveloping-algebra side: the word
    product of the two Z-table numerators, taken to the Z basis."""
    mu, nu = tuple(mu), tuple(nu)
    degree = mp_total(mu) + mp_total(nu)
    ztable = _zdata(ring, degree).ztable
    (a, da), (b, db) = (_z_entry(ring, ztable, k) for k in (mu, nu))
    prod = PBWElement.zero(ring, degree)._int_product(a, b)
    out = _in_z_basis(ring, prod, da * db)
    out.assert_integral("oracle product of " + " and ".join(
        f"Z{format_multipartition(k, ring.labels)}" for k in (mu, nu)))
    return out


# ---------------------------------------------------------------------------
# univariate series in t with PBW coefficients

class TSeries(PowerSeries):
    """A t-series with PBW coefficients: (t, normal word) -> coefficient."""

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
    RingSeries (elements of R (x) Q), so the one truncated log applies; its
    term (k, (empty key, u)) becomes the term (k, T_l(U)) of the exponent."""
    empty = mp_empty(ring.rank())
    const = RingSeries.one(ring, 0)  # 1 in R (x) Q
    one = PowerSeries(const.scale(0), degree, {0: const})
    x = PowerSeries(
        one.zero, degree, {k: RingSeries(ring, 0, {empty: vec}) for k, vec in arg.items()}
    ) - one
    if any(k == 0 for k, _ in x.terms):
        raise DomainError("theta argument needs constant term 1")
    lin = TSeries(ring, degree)
    if l <= degree:  # T_l above the truncation vanishes
        lin = lin._like({
            (k, (sym(l, u),)): c for (k, (_, u)), c in log1p(x, one, degree).terms.items()
        })
    return exp(lin, TSeries.one(ring, degree), degree)


def _lifted_product(theta1: TSeries) -> TSeries:
    """prod_l Theta_l(A((-1)^(l-1) t^l)) from theta1 = Theta_1(A(t)): the
    level-l factor is theta1 lifted, with t^m -> ((-1)^(l-1) t^l)^m.  Each
    level has one denominator, over the terms it keeps."""
    degree = theta1.degree
    intern = _word_products(theta1.ring).words.setdefault
    out, den = {(0, ()): 1}, 1
    for l in range(1, degree + 1):
        nums, d = to_numerators({tw: c for tw, c in theta1.terms.items() if l * tw[0] <= degree})
        level = [(l * m, lift(l, w), -c if m & ~l & 1 else c) for (m, w), c in nums.items()]
        grown: dict = {}
        get = grown.get
        for (t1, w1), c1 in out.items():
            for t2, w2, c2 in level:
                if t1 + t2 <= degree:
                    w = w1 + w2
                    key = (t1 + t2, intern(w, w))
                    grown[key] = get(key, 0) + c1 * c2
        out, den = grown, den * d
    return theta1._from_ints({k: c for k, c in out.items() if c}, den)


def e_series_pbw(ring: BaseRing, W: RingElement, degree: int) -> TSeries:
    """E_W(t) = prod_l Theta_l(1 - (-t)^l W): generating function of e_r(W),
    each level lifted from Theta_1(1 + tW)."""
    return _lifted_product(theta_t(1, {0: ring.one().terms, 1: dict(W.terms)}, ring, degree))


def f_series_closed(ring: BaseRing, W: RingElement, degree: int) -> TSeries:
    """F_W(t) = sum_i T_i(W) t^i."""
    return TSeries(
        ring, degree,
        {i: PBWElement.generator(ring, degree, i, W) for i in range(1, degree + 1)},
    )


def mobius(n: int) -> int:
    """0 when a square divides n, else (-1)^(the number of prime factors)."""
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return out


def f_series_mobius(ring: BaseRing, W: RingElement, degree: int) -> TSeries:
    """F_W(t) = -sum_r mu(r)/r log(E_{W^r}(-t^r)), the defining formula."""
    total = TSeries(ring, degree)
    for r in range(1, degree + 1):
        m = mobius(r)
        if not m:
            continue
        e = e_series_pbw(ring, W ** r, degree // r)
        # substitute t -> -t^r; the words of degree <= degree // r fit
        sub = TSeries(ring, degree)._like(
            {(r * k, w): -c if k & 1 else c for (k, w), c in e.terms.items()}
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
        diff = first_difference(closed.coefficient(k).terms, direct.coefficient(k).terms)
        if diff:
            w, a, b = diff
            raise AssertionError(
                f"F-series of {W!r} differs at t^{k}, word {format_word(w, ring)}: "
                f"sum_i T_i(W) t^i gives {a}, the Moebius/log form gives {b}"
            )
    return closed


# ---------------------------------------------------------------------------
# Adams and lambda operations

def adams(ring: BaseRing, m: int, x: PBWElement) -> PBWElement:
    """The algebra endomorphism Psi_m with Psi_m(T_l(U)) = sum_{d | m,
    gcd(d,l)=1} (m/d) T_{l m/d}(psi_d(U)); generators pushed above the
    truncation degree vanish."""
    if not ring.has_adams():
        raise MissingDataError(f"ring {ring.name} carries no Adams operations")

    def image(s):
        l, out = sym_level(s), PBWElement.zero(ring, x.degree)
        for d in range(1, m + 1):
            if m % d == 0 and gcd(d, l) == 1:
                psi = ring.adams_apply(d, ring.basis_element(sym_index(s)))
                out = out + PBWElement.generator(ring, x.degree, l * m // d, psi).scale(m // d)
        return out

    return substitute(x.terms, image, PBWElement.one(ring, x.degree))


def lambda_on_e1(ring: BaseRing, n: int, U: RingElement, degree=None) -> GrothElement:
    """lambda^n(e_1(U)) via the generating function

        sum_n lambda^n(e_1(U)) t^n = prod_l Theta_l(sum_r (-1)^(r(l-1)) t^(rl) lambda^r(U)),

    each level lifted from Theta_1(sum_r t^r lambda^r(U)).
    """
    if degree is None:
        degree = n
    if not ring.has_lambda():
        raise MissingDataError(f"ring {ring.name} carries no lambda operations")
    arg = {r: dict(ring.lambda_apply(r, U).terms) for r in range(degree + 1)}
    res = to_z_basis(_lifted_product(theta_t(1, arg, ring, degree)).coefficient(n))
    res.assert_integral(f"lambda^{n}(e_1({U!r}))")
    return res


# ---------------------------------------------------------------------------
# antipode on the rational side

def antipode_pbw(x: PBWElement) -> PBWElement:
    """The anti-automorphism with S(T_l(U)) = -T_l(U): reverse each word,
    flip the sign per letter, renormalize."""
    product = _word_products(x.ring)
    terms: dict = {}
    for w, c in x.terms.items():
        accumulate(terms, dict(product[tuple(reversed(w))][()]), -c if len(w) & 1 else c)
    return PBWElement(x.ring, x.degree, terms)
