"""Hopf structure on the limit ring, its graded dual, and the formal group law.

The coproduct is slotwise Littlewood-Richardson splitting (dual to
multiplication of Schur monomials in the dual power-series algebra); the
counit picks out the empty key.  The antipode S is linear, so it is fixed by
its basis images: each S(Z_lam) is computed once per ring on the rational
side, where every generator T_l(U) is primitive, converted back to the Z
basis and kept in the ring's ``antipode`` memo; S(x) sums those images and
asserts integrality on every call.  The dual algebra appears twice: as
Schur-monomial arithmetic (`dual_multiply`) and through its antipode on power
sums, whose images S(p_l(x_U)) are kept per (l, degree) in the ring's
``dual_antipode`` memo.  `dual_antipode_on_schur` takes a Schur key in
through ``symfun.schur_to_power`` and returns a power-sum series, whose
Schur coefficients (``symfun.power_to_schur``) pair with the primal antipode;
both routes are checked by exact pairings, so the dual antipode stays an
independent route to S.

The coproduct dual to *multiplication* is the substitution rule behind the
structure constants; restricted to the e-coordinates it is a formal group
law on the ring of Witt vectors with coefficients twisted to the origin,
extracted symbolically by `formal_group_law` on integer numerators.  Its
checks (first order, zero laws, associativity) return None or the first
differing component and monomial with both coefficients.
"""

from fractions import Fraction
from functools import cache
from operator import itemgetter

from . import pbw
from . import symfun as sf
from ._exact import (
    Combination, accumulate, first_difference, monomial_product, power_sum, settle, substitute
)
from .errors import IntegralityError
from .groth import GrothElement, _substitution_plan, _doubled_labels, product_rows
from .partitions import (
    MultiPartition,
    Partition,
    mp_empty,
    mp_single,
    partitions,
)
from .ring import BaseRing
from .symfun import SymSeries
from .witt import power_in_e


@cache
def lr_splits(kappa: Partition) -> tuple:
    """All (alpha, beta, c^kappa_{alpha,beta}) with nonzero coefficient."""
    out = []
    n = sum(kappa)
    for a in range(n + 1):
        for alpha in partitions(a):
            for beta in partitions(n - a):
                c = sf.lr_coefficient(alpha, beta, kappa)
                if c:
                    out.append((alpha, beta, c))
    return tuple(out)


class TensorGroth(Combination):
    """Element of the tensor square, sparse over pairs of multipartitions."""

    __slots__ = ("ring",)
    _context = ("ring",)
    _compared = _context

    def __init__(self, ring: BaseRing, terms=None):
        self.ring = ring
        super().__init__(terms)

    @classmethod
    def of(cls, a: GrothElement, b: GrothElement):
        out = {}
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                out[(ka, kb)] = ca * cb
        return cls(a.ring, out)

    def _int_product(self, a: dict, b: dict) -> dict:
        """(Z_m1 Z_m2) (x) (Z_n1 Z_n2), each half's row from ``product_rows``."""
        row = product_rows(self.ring)
        out: dict = {}
        for (m1, n1), c1 in a.items():
            for (m2, n2), c2 in b.items():
                right = row(n1, n2)
                for lm, cl in row(m1, m2).items():
                    accumulate(out, {(lm, ln): cr for ln, cr in right.items()}, c1 * c2 * cl)
        return out


def comultiply(x: GrothElement) -> TensorGroth:
    """Delta(Z_lam) = sum prod_U c^{lam(U)}_{mu(U),nu(U)} Z_mu (x) Z_nu."""
    ring = x.ring
    rank = ring.rank()
    terms: dict = {}
    for lam, coeff in x.terms.items():
        splits = {(mp_empty(rank), mp_empty(rank)): 1}
        for slot in range(rank):
            if lam[slot]:
                splits = {
                    (
                        mu[:slot] + (alpha,) + mu[slot + 1:],
                        nu[:slot] + (beta,) + nu[slot + 1:],
                    ): c * k
                    for (mu, nu), c in splits.items()
                    for alpha, beta, k in lr_splits(lam[slot])
                }
        accumulate(terms, splits, coeff)
    return TensorGroth(ring, terms)


def counit(x: GrothElement) -> int | Fraction:
    """Coefficient of the empty key (the algebra map killing all e_r, r>0)."""
    return x.coefficient(mp_empty(x.ring.rank()))


def antipode(x: GrothElement) -> GrothElement:
    """S(x) = sum_lam c_lam S(Z_lam), from the basis images in the ring's
    ``antipode`` memo.  Each S(Z_lam) is taken once per ring on the rational
    side: Z_lam in PBW words at degree |lam|, S(T_l(U)) = -T_l(U) with the
    word order reversed, then back to the Z basis.  The image of an integral
    x must have integer coefficients; that is asserted on every call, so a
    bad image in the memo fails each time it is used."""
    ring = x.ring
    images = ring.memo("antipode", dict)
    terms: dict = {}
    for lam, c in x.terms.items():
        image = images.get(lam)
        if image is None:
            image = images[lam] = pbw.to_z_basis(
                pbw.antipode_pbw(pbw.z_element_pbw(ring, lam))
            ).terms
        accumulate(terms, image, c)
    out = x._like(settle(terms))
    if x.is_integral():
        out.assert_integral("antipode image")
    return out


# ---------------------------------------------------------------------------
# the graded dual realized as symmetric-function arithmetic

def dual_multiply(ring: BaseRing, mu: MultiPartition, nu: MultiPartition) -> dict:
    """Product of dual basis vectors: slotwise products of Schur functions."""
    mu, nu = tuple(mu), tuple(nu)
    out: dict[MultiPartition, int] = {mp_empty(ring.rank()): 1}
    for slot in range(ring.rank()):
        row = sf.schur_product_row(mu[slot], nu[slot])
        out = {
            key[:slot] + (kappa,) + key[slot + 1:]: c * k
            for key, c in out.items()
            for kappa, k in row.items()
        }
    return out


def dual_antipode_power_sum(ring: BaseRing, l: int, degree: int) -> dict[int, SymSeries]:
    """Images S(p_l(x_U)) for all U, from the geometric series

        sum_U S(p_l(x_U)) U = sum_{r>=1} (-1)^r (sum_U p_l(x_U) U)^r

    truncated at symmetric-function degree ``degree``.  Needs the ring unit
    in the basis only for the classical specialization; the series itself is
    basis-intrinsic, so we only require a unit to exist.  Each (l, degree) is
    summed once per ring and kept in the ring's ``dual_antipode`` memo.
    """
    ring.one()  # refuses a ring without a unit
    memo = ring.memo("dual_antipode", dict)
    images = memo.get((l, degree))
    if images is None:
        base = pbw.RingSeries(
            ring, degree,
            {mp_single(ring.rank(), u, (l,)): {u: 1} for u in range(ring.rank())},
        )
        total = power_sum(base, degree // l, lambda r: (-1) ** r, pbw.RingSeries(ring, degree))
        images = memo[l, degree] = {
            u: SymSeries(
                ring.labels, degree, {key: c for (key, v), c in total.terms.items() if v == u}
            )
            for u in range(ring.rank())
        }
    return dict(images)


def dual_antipode_on_schur(ring: BaseRing, lam: MultiPartition, degree: int) -> SymSeries:
    """S applied to the dual vector realized as prod_U s_{lam(U)}(x_U).

    The dual of a Hopf algebra antipode is an algebra map here (the dual is
    commutative), so expand into power-sum monomials and substitute each
    p_l(x_U) by its image."""
    return substitute(
        sf.schur_to_power(ring.labels, degree, {tuple(lam): 1}).terms,
        lambda s: dual_antipode_power_sum(ring, s[1], degree)[s[0]],
        SymSeries.one(ring.labels, degree),
        letters=lambda key: [(u, l) for u, p in enumerate(key) for l in p],
    )


# ---------------------------------------------------------------------------
# the formal group law on e-coordinates

Symbol = tuple[int, int, int]  # (family, basis index, e-degree)
Monomial = tuple[Symbol, ...]
Poly = dict[Monomial, int]


def _mono_degree(m: Monomial, _e_degree=itemgetter(2)) -> int:
    return sum(map(_e_degree, m))


class LawPoly(Combination):
    """A polynomial in the law's symbols truncated above e-degree ``degree``.
    Its product takes each operand term's degree once, merges the monomials
    that fit into one dict on the coefficients as they are, and drops zeros
    once."""

    __slots__ = ("degree",)
    _context = ("degree",)
    _compared = _context

    def __init__(self, degree: int, terms=None):
        self.degree = degree
        super().__init__(terms)

    def _fits(self, mono: Monomial) -> bool:
        return _mono_degree(mono) <= self.degree

    def __mul__(self, other: "LawPoly") -> "LawPoly":
        self._check(other)
        left = [(ka, ca, _mono_degree(ka)) for ka, ca in self.terms.items()]
        out: dict = {}
        get = out.get
        for kb, cb in other.terms.items():
            room = self.degree - _mono_degree(kb)
            for ka, ca, da in left:
                if da <= room:
                    key = tuple(sorted(ka + kb))
                    out[key] = get(key, 0) + ca * cb
        return self._like(settle({k: c for k, c in out.items() if c}))


@cache
def _p_in_e_row(rho: Partition) -> dict[Partition, int]:
    """p_rho over e-monomials (integral by Newton), as p_rho[:-1] p_rho[-1]."""
    if not rho:
        return {(): 1}
    return monomial_product(_p_in_e_row(rho[:-1]), power_in_e(rho[-1]), sf.merge_parts)


class GroupLaw:
    """For each (U, i): e_i of the product variable set as an integer
    polynomial in the e_j(x_V) (family 0) and e_k(y_W) (family 1)."""

    def __init__(self, ring: BaseRing, degree: int, components):
        self.ring = ring
        self.degree = degree
        self.components: dict[tuple[int, int], Poly] = components

    def component(self, u: int, i: int) -> Poly:
        return self.components[(u, i)]


def formal_group_law(ring: BaseRing, degree: int) -> GroupLaw:
    """The components e_i(U), 1 <= i <= degree, on integer numerators: e_i(U)
    as ({key: int}, den) through one set of power images of the plan, truncated
    above ``degree``; each key to e-monomials by its slots' ``_p_in_e_row`` rows
    (which keep degrees), flattened in slot order, so sorted; den divides exactly."""
    k = ring.rank()
    power = sf._power_images(_substitution_plan(ring), _doubled_labels(ring), degree)
    to_e = sf._key_rows(_p_in_e_row)
    fam = [(0, v) for v in range(k)] + [(1, v) for v in range(k)]
    components = {}
    for u in range(k):
        for i in range(1, degree + 1):
            nums, den = sf.e_series(ring.labels, ring.labels[u], i, degree)._ints()
            nums = sf._convert_int(sf._substitute_int(nums, ring.labels, power, degree), to_e)
            if any(c % den for c in nums.values()):
                raise IntegralityError(
                    f"group law component ({ring.labels[u]}, {i}) is not integral"
                )
            components[(u, i)] = {
                tuple((*fam[s], j) for s, kappa in enumerate(key) for j in kappa[::-1]): c // den
                for key, c in nums.items()
            }
    return GroupLaw(ring, degree, components)


def _by_degree(mono: Monomial):
    return _mono_degree(mono), mono


def _addition_defect(law: GroupLaw, part):
    """None when part(F's component at (u, i)) is a_i(U) + b_i(U) for every
    component; else ((u, i), monomial, got, want) for the first component in
    order and its least differing monomial, by degree, with both
    coefficients."""
    for (u, i), poly in law.components.items():
        diff = first_difference(part(poly), {((0, u, i),): 1, ((1, u, i),): 1}, _by_degree)
        if diff:
            return ((u, i), *diff)
    return None


def law_first_order(law: GroupLaw):
    """F(a, b) = a + b + higher order: the linear part must be addition.
    None, or the witness of ``_addition_defect``."""
    return _addition_defect(law, lambda poly: {m: c for m, c in poly.items() if len(m) == 1})


def law_zero_laws(law: GroupLaw):
    """F(a, 0) = a and F(0, b) = b: the monomials in one family alone, the
    constant included, must be a_i(U) + b_i(U).  None, or the witness of
    ``_addition_defect``."""
    return _addition_defect(
        law, lambda poly: {m: c for m, c in poly.items() if len({s[0] for s in m}) <= 1}
    )


def law_associative(law: GroupLaw, degree: int) -> bool:
    """F(F(a,b),c) == F(a,F(b,c)) symbol-wise up to total degree."""
    return associativity_defect(law, degree) is None


def associativity_defect(law: GroupLaw, degree: int):
    """None when F(F(a,b),c) == F(a,F(b,c)) symbol-wise up to total degree;
    else ((u, i), monomial, left, right) for the first component in order
    and its least differing monomial, by degree, with both coefficients."""

    def nested(s: Symbol, fams) -> LawPoly:
        """F's component at s, its arguments renamed to the families fams."""
        return LawPoly(degree, {
            tuple(sorted((fams[f], u, j) for f, u, j in mono)): c
            for mono, c in law.component(*s[1:]).items()
        })

    @cache
    def left_map(s: Symbol) -> LawPoly:  # a -> F(a, b), b -> c
        return nested(s, (0, 1)) if s[0] == 0 else LawPoly(degree, {((2, *s[1:]),): 1})

    @cache
    def right_map(s: Symbol) -> LawPoly:  # a -> a, b -> F(b, c)
        return LawPoly(degree, {(s,): 1}) if s[0] == 0 else nested(s, (1, 2))

    one = LawPoly(degree, {(): 1})
    for (u, i), poly in law.components.items():
        diff = first_difference(
            substitute(poly, left_map, one).terms,
            substitute(poly, right_map, one).terms,
            _by_degree,
        )
        if diff:
            return ((u, i), *diff)
    return None


def format_monomial(mono: Monomial, ring: BaseRing) -> str:
    """`a1(U)^2*c1(V)`: e_j of the first, second or third argument at U."""
    if not mono:
        return "1"
    powers: dict[Symbol, int] = {}
    for s in mono:
        powers[s] = powers.get(s, 0) + 1
    return "*".join(
        f"{'abc'[fam]}{j}({ring.labels[u]})" + (f"^{n}" if n > 1 else "")
        for (fam, u, j), n in powers.items()
    )
