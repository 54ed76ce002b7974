"""Truncated symmetric functions in finitely many labeled variable sets.

A SymSeries is a sparse linear combination of basis monomials indexed by
multipartitions over its label list, held either in the Schur basis ('s') or
the power-sum basis ('p'), with every key of total degree <= the truncation
degree.  Coefficients are exact Fractions at the interface; products are key
merges in the power-sum basis, where the standard plethystic substitutions
are diagonal.

The inner loops (basis change, product, substitution) are private cores on
integer numerators, ``{key: int}`` dicts.  A public function clears its
input's denominators with their lcm, runs the cores and builds one Fraction
per output term.  Schur keys enter the cores as |kappa|! s_kappa, whose
power-sum coefficients are integers because z_mu divides |mu|! (Macdonald,
I.7); ``scaled_schur_to_p_row`` asserts that division.

Truncation is strict: operations discard keys above the degree and refuse to
mix operands with different truncations, since silently combining series
that remember different amounts of information is the main correctness
hazard in this layer.
"""

from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod

from ._exact import (
    Combination,
    accumulate,
    exp,
    format_terms,
    from_numerators,
    to_numerators,
)
from .errors import DomainError
from .partitions import (
    MultiPartition,
    Partition,
    epsilon_sign,
    mn_character,
    mp_sort_key,
    mp_total,
    partitions,
    z_factor,
)


@cache
def schur_to_p_row(kappa: Partition) -> dict[Partition, Fraction]:
    """s_kappa = sum_mu (chi^kappa_mu / z_mu) p_mu."""
    return {
        mu: Fraction(mn_character(kappa, mu), z_factor(mu))
        for mu in partitions(sum(kappa))
        if mn_character(kappa, mu)
    }


@cache
def scaled_schur_to_p_row(kappa: Partition) -> dict[Partition, int]:
    """|kappa|! s_kappa = sum_mu (|kappa|! chi^kappa_mu / z_mu) p_mu, all integers."""
    n = factorial(sum(kappa))
    out = {}
    for mu, c in schur_to_p_row(kappa).items():
        q, r = divmod(n * c.numerator, c.denominator)
        assert not r, (kappa, mu)
        out[mu] = q
    return out


@cache
def p_to_schur_row(mu: Partition) -> dict[Partition, int]:
    """p_mu = sum_kappa chi^kappa_mu s_kappa."""
    out = {}
    for kappa in partitions(sum(mu)):
        c = mn_character(kappa, mu)
        if c:
            out[kappa] = c
    return out


def merge_parts(a: Partition, b: Partition) -> Partition:
    if not a or not b:
        return a or b
    return tuple(sorted(a + b, reverse=True))


class SymSeries(Combination):
    __slots__ = ("labels", "basis", "degree")
    _context = ("labels", "basis", "degree")
    _compared = _context

    def __init__(self, labels, basis, degree, terms=None):
        assert basis in ("p", "s")
        self.labels = tuple(labels)
        self.basis = basis
        self.degree = degree
        super().__init__(terms)

    def _fits(self, key) -> bool:
        return mp_total(key) <= self.degree

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, labels, basis, degree):
        return cls(labels, basis, degree)

    @classmethod
    def one(cls, labels, basis, degree):
        key = ((),) * len(labels)
        return cls(labels, basis, degree, {key: Fraction(1)})

    @classmethod
    def generator(cls, labels, label, basis, partition, degree):
        labels = tuple(labels)
        key = [()] * len(labels)
        key[labels.index(label)] = tuple(partition)
        return cls(labels, basis, degree, {tuple(key): Fraction(1)})

    # -- bookkeeping --------------------------------------------------------
    def _check_compatible(self, other: "SymSeries"):
        if self.labels != other.labels:
            raise DomainError(f"label mismatch: {self.labels} vs {other.labels}")
        if self.degree != other.degree:
            raise DomainError(
                f"truncation mismatch: {self.degree} vs {other.degree}"
            )

    def _check(self, other: "SymSeries"):
        self._check_compatible(other)
        if self.basis != other.basis:
            raise DomainError("cannot add series held in different bases")

    def __repr__(self):
        return f"SymSeries({self.basis}, D={self.degree}, {format_series(self)})"

    def __mul__(self, other: "SymSeries") -> "SymSeries":
        return multiply(self, other)


def schur_to_power(f: SymSeries) -> SymSeries:
    if f.basis != "s":
        raise DomainError("schur_to_power wants a Schur-basis series")
    return _from_numerators(f.labels, "p", f.degree, *_power_numerators(f))


def power_to_schur(f: SymSeries) -> SymSeries:
    if f.basis != "p":
        raise DomainError("power_to_schur wants a power-sum series")
    nums, den = _power_numerators(f)
    return _from_numerators(f.labels, "s", f.degree, _convert_int(nums, p_to_schur_row), den)


def as_power(f: SymSeries) -> SymSeries:
    return f if f.basis == "p" else schur_to_power(f)


def as_schur(f: SymSeries) -> SymSeries:
    return f if f.basis == "s" else power_to_schur(f)


def multiply(a: SymSeries, b: SymSeries) -> SymSeries:
    """Product truncated at the common degree.

    Power-sum keys multiply by merging each slot's parts; Schur operands take
    the power-sum route and convert back.
    """
    a._check_compatible(b)
    if a.basis != b.basis:
        raise DomainError("operands must be held in the same basis")
    na, da = _power_numerators(a)
    nb, db = _power_numerators(b)
    nums = _multiply_int(na, nb, a.degree)
    if a.basis == "s":
        nums = _convert_int(nums, p_to_schur_row)
    return _from_numerators(a.labels, a.basis, a.degree, nums, da * db)


# -- between Fraction series and integer numerators ------------------------

def _power_numerators(f: SymSeries) -> tuple[dict, int]:
    """f in power sums, as integers over one common denominator: the lcm of
    its denominators times, for Schur keys, that of their prod |kappa|!."""
    nums, den = to_numerators(f.terms)
    if f.basis == "p":
        return nums, den
    scale = {k: prod(factorial(sum(p)) for p in k) for k in nums}
    m = lcm(*scale.values())
    nums = {k: c * (m // scale[k]) for k, c in nums.items()}
    return _convert_int(nums, scaled_schur_to_p_row), den * m


def _from_numerators(labels, basis, degree, nums: dict, den: int) -> SymSeries:
    out = SymSeries(labels, basis, degree)
    out.terms = from_numerators(nums, den)
    return out


# -- integer cores: {key: int} dicts, zero coefficients dropped -------------

def _convert_int(terms: dict, row) -> dict:
    """Change basis one slot at a time; row(p) is {q: int} for a partition."""
    for slot in range(len(next(iter(terms), ()))):
        out: dict[MultiPartition, int] = {}
        for key, coeff in terms.items():
            if not key[slot]:
                out[key] = out.get(key, 0) + coeff
                continue
            head, tail = key[:slot], key[slot + 1:]
            for q, rc in row(key[slot]).items():
                k = head + (q,) + tail
                out[k] = out.get(k, 0) + coeff * rc
        terms = {k: c for k, c in out.items() if c}
    return terms


def _multiply_int(a: dict, b: dict, degree: int) -> dict:
    """Power-sum product of two integer series, truncated at ``degree``."""
    out: dict[MultiPartition, int] = {}
    bk = [(key, mp_total(key), coeff) for key, coeff in b.items()]
    for ka, ca in a.items():
        room = degree - mp_total(ka)
        for kb, db, cb in bk:
            if db <= room:
                key = tuple(map(merge_parts, ka, kb))
                out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _substitute_int(terms: dict, labels, plan: dict, out_labels, degree: int) -> dict:
    """The plethystic substitution of ``substitute_variable_sets`` on a
    power-sum integer series over ``labels``."""
    index = {lab: i for i, lab in enumerate(out_labels)}
    nout = len(out_labels)

    @cache
    def level_factor(label: str, l: int) -> dict:
        if label not in plan and label not in index:
            raise DomainError(f"label {label!r} absent from plan and output labels")
        expanded: dict[MultiPartition, int] = {}
        for monomial, mult in plan.get(label, [((label,), 1)]):
            key = [()] * nout
            for lab in monomial:
                key[index[lab]] = merge_parts(key[index[lab]], (l,))
            k = tuple(key)
            expanded[k] = expanded.get(k, 0) + mult
        return {k: c for k, c in expanded.items() if c}

    out: dict[MultiPartition, int] = {}
    for key, coeff in terms.items():
        partial = {((),) * nout: coeff}
        for label, p in zip(labels, key):
            for l in p:
                partial = _multiply_int(partial, level_factor(label, l), degree)
        for k, c in partial.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


@cache
def schur_product_row(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """Expansion of s_mu * s_nu in the Schur basis (all LR coefficients)."""
    n = sum(mu) + sum(nu)
    f = SymSeries.generator(("x",), "x", "s", mu, n)
    g = SymSeries.generator(("x",), "x", "s", nu, n)
    out = {}
    for key, coeff in multiply(f, g).terms.items():
        assert coeff.denominator == 1
        out[key[0]] = int(coeff)
    return out


def lr_coefficient(mu: Partition, nu: Partition, lam: Partition) -> int:
    """Littlewood-Richardson coefficient c^lam_{mu,nu}; 0 on size mismatch."""
    if sum(mu) + sum(nu) != sum(lam):
        return 0
    return schur_product_row(tuple(mu), tuple(nu)).get(tuple(lam), 0)


def kronecker_coefficient(mu: Partition, nu: Partition, lam: Partition) -> int:
    """Tensor-product multiplicity sum_rho chi^mu chi^nu chi^lam / z_rho."""
    n = sum(mu)
    if sum(nu) != n or sum(lam) != n:
        return 0
    total = Fraction(0)
    for rho in partitions(n):
        total += Fraction(
            mn_character(tuple(mu), rho)
            * mn_character(tuple(nu), rho)
            * mn_character(tuple(lam), rho),
            z_factor(rho),
        )
    assert total.denominator == 1
    return int(total)


def substitute_variable_sets(f: SymSeries, plan: dict, out_labels) -> SymSeries:
    """Replace whole variable sets, power sum by power sum.

    ``plan`` maps an input label to a list of (monomial, multiplicity) pairs,
    a monomial being a tuple of output labels whose variable sets are
    multiplied together; multiplicities may be negative (virtual sets).  Each
    p_l of a planned label becomes
        sum_j mult_j * prod_{L in monomial_j} p_l(L).
    Labels missing from the plan pass through unchanged and must exist among
    the output labels.  The result is in the power-sum basis.
    """
    out_labels = tuple(out_labels)
    nums, den = _power_numerators(f)
    nums = _substitute_int(nums, f.labels, plan, out_labels, f.degree)
    return _from_numerators(out_labels, "p", f.degree, nums, den)


def omega(f: SymSeries, label: str) -> SymSeries:
    """The involution omega in one variable set: p_l -> (-1)^(l-1) p_l,
    equivalently conjugation of that slot's partition on Schur keys."""
    slot = f.labels.index(label)
    terms = {}
    if f.basis == "p":
        for key, coeff in f.terms.items():
            terms[key] = coeff * epsilon_sign(key[slot])
    else:
        from .partitions import conjugate

        for key, coeff in f.terms.items():
            k = list(key)
            k[slot] = conjugate(k[slot])
            terms[tuple(k)] = coeff
    return SymSeries(f.labels, f.basis, f.degree, terms)


def evaluate_geometric(f: SymSeries, label: str, r: int) -> dict[int, Fraction]:
    """Specialize one variable set to the single value t^r (p_l -> t^(r l)).

    The series must not involve any other variable set; returns {exponent:
    coefficient} for the resulting polynomial in t.
    """
    f = as_power(f)
    slot = f.labels.index(label)
    out: dict[int, Fraction] = {}
    for key, coeff in f.terms.items():
        for i, p in enumerate(key):
            if i != slot and p:
                raise DomainError(
                    "evaluate_geometric needs a series in the named set only"
                )
        accumulate(out, {r * sum(key[slot]): coeff})
    return out


def hall_pairing(a: SymSeries, b: SymSeries) -> Fraction:
    """<p_lam, p_mu> = delta z_lam, extended multiplicatively over labels."""
    a._check_compatible(b)
    pa, pb = as_power(a), as_power(b)
    total = Fraction(0)
    small, big = (pa.terms, pb.terms) if len(pa.terms) <= len(pb.terms) else (pb.terms, pa.terms)
    for key, ca in small.items():
        cb = big.get(key)
        if cb is None:
            continue
        z = 1
        for p in key:
            z *= z_factor(p)
        total += ca * cb * z
    return total


def e_series(labels, label: str, n: int, degree: int) -> SymSeries:
    """e_n = s_(1^n) as a power-sum series."""
    return schur_to_power(
        SymSeries.generator(labels, label, "s", (1,) * n, degree)
    )


def h_series(labels, label: str, n: int, degree: int) -> SymSeries:
    """h_n = s_(n) as a power-sum series."""
    part = (n,) if n else ()
    return schur_to_power(SymSeries.generator(labels, label, "s", part, degree))


def cauchy_kernel(degree: int) -> SymSeries:
    """exp(sum_l p_l(x) p_l(y) / l) truncated at total degree ``degree``.

    Equals sum_lam s_lam(x) s_lam(y); the bidegree-(n,n) slice is complete
    whenever 2n <= degree.
    """
    labels = ("x", "y")
    arg = SymSeries(
        labels, "p", degree,
        {((l,), (l,)): Fraction(1, l) for l in range(1, degree // 2 + 1)},
    )
    return exp(arg, SymSeries.one(labels, "p", degree), degree)


def format_series(f: SymSeries) -> str:
    """Sorted `coeff * s{...}`/`coeff * p{...}` rendering used by --dump."""
    return format_terms(
        (f.basis + _format_mp(key, f.labels), f.terms[key])
        for key in sorted(f.terms, key=mp_sort_key)
    )


def _format_mp(key: MultiPartition, labels) -> str:
    from .partitions import format_multipartition

    return format_multipartition(key, tuple(labels))
