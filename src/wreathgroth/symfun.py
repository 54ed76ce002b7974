"""Truncated symmetric functions in finitely many labeled variable sets.

A SymSeries is a sparse linear combination of power-sum monomials
prod_U p_{key(U)}(x_U), keyed by multipartitions over its label list, every
key of total degree <= the truncation degree, with exact coefficients.
Power sums are the one basis held: products are key merges there, and the
standard plethystic substitutions are diagonal (Macdonald, I.7).  Schur
functions come in through ``schur_to_power``, from a ``{Schur key:
coefficient}`` dict (``SymSeries.schur`` for one term), and go out through
``power_to_schur``, which returns such a dict.

The inner loops (basis change, product, substitution) are private cores on
integer numerators, ``{key: int}`` dicts.  A public function clears its
input's denominators with their lcm, runs the cores and divides the lcm out
of each output term.  A basis change takes each key through one row, the
product of the rows of its slots (``_key_rows``).  ``SymSeries`` gives
``_exact`` the power-sum product as its integer core, so ``multiply`` and
the truncated exp and log (``cauchy_kernel``) share it.  Schur keys enter
the cores as prod |kappa|! s_kappa, whose power-sum coefficients are
integers because z_mu divides |mu|! (Macdonald, I.7);
``scaled_schur_to_p_row`` asserts that division.

Truncation is strict: operations discard keys above the degree, and
``Combination._check``, which every +, - and * runs, refuses operands with
different labels or truncations with a DomainError: silently combining
series that remember different amounts of information is the main
correctness hazard in this layer.  The cores truncate at a total degree
too: a product keeps a pair of keys when the right key's size, kept beside
it (``_sized``), is at most the degree less the left key's size.
"""

import itertools
from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod

from ._exact import (
    Combination,
    exp,
    format_terms,
    from_numerators,
    product,
    to_numerators,
)
from .errors import DomainError
from .partitions import (
    MultiPartition,
    Partition,
    epsilon_sign,
    format_multipartition,
    mn_character,
    mp_single,
    mp_sort_key,
    mp_total,
    partitions,
    z_factor,
)


@cache
def scaled_schur_to_p_row(kappa: Partition) -> dict[Partition, int]:
    """|kappa|! s_kappa = sum_mu (|kappa|! chi^kappa_mu / z_mu) p_mu, all integers."""
    n = factorial(sum(kappa))
    out = {}
    for mu in partitions(sum(kappa)):
        q, r = divmod(n * mn_character(kappa, mu), z_factor(mu))
        assert not r, (kappa, mu)
        if q:
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
    __slots__ = ("labels", "degree")
    _context = ("labels", "degree")
    _compared = _context

    def __init__(self, labels, degree, terms=None):
        self.labels = tuple(labels)
        self.degree = degree
        super().__init__(terms)

    def _fits(self, key) -> bool:
        return mp_total(key) <= self.degree

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, labels, degree):
        return cls(labels, degree)

    @classmethod
    def one(cls, labels, degree):
        key = ((),) * len(labels)
        return cls(labels, degree, {key: 1})

    @classmethod
    def generator(cls, labels, label, partition, degree):
        """p_partition of the variable set ``label``."""
        labels = tuple(labels)
        key = mp_single(len(labels), labels.index(label), tuple(partition))
        return cls(labels, degree, {key: 1})

    @classmethod
    def schur(cls, labels, label, kappa, degree):
        """s_kappa of the variable set ``label``, in power sums."""
        labels = tuple(labels)
        key = mp_single(len(labels), labels.index(label), tuple(kappa))
        return schur_to_power(labels, degree, {key: 1})

    # -- bookkeeping --------------------------------------------------------
    def __repr__(self):
        return f"SymSeries(D={self.degree}, {format_series(self)})"

    def __mul__(self, other: "SymSeries") -> "SymSeries":
        return multiply(self, other)

    def _int_product(self, a: dict, b: dict) -> dict:
        return _multiply_int(a, _sized(b), self.degree)


def schur_to_power(labels, degree: int, schur: dict) -> SymSeries:
    """sum_key c * prod_U s_{key(U)}(x_U), given as ``{Schur key: c}``, as a
    power-sum series truncated at ``degree``: the numerators over the lcm of
    the denominators times that of the scales prod_U |key(U)|!, so that each
    key enters the core as the integral prod_U |key(U)|! s_{key(U)}."""
    nums, den = to_numerators({k: c for k, c in schur.items() if mp_total(k) <= degree})
    scale = {k: prod(factorial(sum(p)) for p in k) for k in nums}
    m = lcm(*scale.values())
    nums = {k: c * (m // scale[k]) for k, c in nums.items()}
    nums = _convert_int(nums, _key_rows(scaled_schur_to_p_row))
    return SymSeries(labels, degree)._from_ints(nums, den * m)


def power_to_schur(f: SymSeries) -> dict:
    """The Schur coefficients of f, ``{Schur key: coefficient}``."""
    nums, den = f._ints()
    return from_numerators(_convert_int(nums, _key_rows(p_to_schur_row)), den)


def multiply(a: SymSeries, b: SymSeries) -> SymSeries:
    """Product truncated at the common degree: power-sum keys multiply by
    merging each slot's parts."""
    return product(a, b)


# -- integer cores: {key: int} dicts, zero coefficients dropped -------------

def _key_rows(row):
    """The change of basis of whole keys given row(p), {q: int}, for one
    partition: a function taking a key to its row, the list of (key, int)
    pairs over every choice of one q per filled slot (an empty slot stays
    empty), the coefficient being the product of the chosen entries.  Each
    key's row is made once and kept as long as the function is."""
    rows: dict[MultiPartition, list] = {}
    empty = {(): 1}

    def key_row(key) -> list:
        got = rows.get(key)
        if got is None:
            slots = [row(p) if p else empty for p in key]
            got = rows[key] = list(zip(
                itertools.product(*(r.keys() for r in slots)),
                map(prod, itertools.product(*(r.values() for r in slots))),
            ))
        return got

    return key_row


def _convert_int(terms: dict, key_row) -> dict:
    """Change basis key by key, through one row per key (``_key_rows``)."""
    out: dict[MultiPartition, int] = {}
    get = out.get
    for key, coeff in terms.items():
        for k, rc in key_row(key):
            out[k] = get(k, 0) + coeff * rc
    return {k: c for k, c in out.items() if c}


def _sized(terms: dict) -> list:
    """The operand form of ``_multiply_int``: (key, total size, coefficient)."""
    return [(key, mp_total(key), c) for key, c in terms.items()]


def _multiply_int(a: dict, b: list, degree: int) -> dict:
    """Power-sum product of two integer series, truncated above ``degree``;
    b in the form of ``_sized``."""
    out: dict[MultiPartition, int] = {}
    get = out.get
    for ka, ca in a.items():
        room = degree - mp_total(ka)
        for kb, size, cb in b:
            if size <= room:
                key = tuple(map(merge_parts, ka, kb))
                out[key] = get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _power_images(plan: dict, out_labels, degree: int):
    """The function (label, rho) -> p_rho of that variable set after the
    substitution of ``plan`` (see ``substitute_variable_sets``), truncated
    above ``degree``: an integer series over out_labels.  Each p_l is substituted
    once, and partitions share their prefixes, p_rho = p_rho[:-1] p_rho[-1]."""
    index = {lab: i for i, lab in enumerate(out_labels)}
    nout = len(out_labels)
    levels: dict[tuple, list] = {}
    powers: dict[tuple, dict] = {}

    def level(label: str, l: int) -> list:
        got = levels.get((label, l))
        if got is None:
            if label not in plan and label not in index:
                raise DomainError(f"label {label!r} absent from plan and output labels")
            expanded: dict[MultiPartition, int] = {}
            for monomial, mult in plan.get(label, [((label,), 1)]):
                key = [()] * nout
                for lab in monomial:
                    key[index[lab]] = merge_parts(key[index[lab]], (l,))
                k = tuple(key)
                if mp_total(k) <= degree:
                    expanded[k] = expanded.get(k, 0) + mult
            got = levels[label, l] = _sized({k: c for k, c in expanded.items() if c})
        return got

    def power(label: str, rho) -> dict:
        if not rho:
            return {((),) * nout: 1}
        got = powers.get((label, rho))
        if got is None:
            got = powers[label, rho] = _multiply_int(power(label, rho[:-1]), level(label, rho[-1]), degree)
        return got

    return power


def _substitute_int(terms: dict, labels, power, degree: int) -> dict:
    """The plethystic substitution of ``substitute_variable_sets`` on a
    power-sum integer series over ``labels``, by the images ``power`` of
    ``_power_images`` (built once per plan and degree)."""
    (empty,) = power(None, ())  # p of the empty partition, the output's 1
    out: dict[MultiPartition, int] = {}
    for key, coeff in terms.items():
        partial = {empty: coeff}
        for label, p in zip(labels, key):
            if p:
                partial = _multiply_int(partial, _sized(power(label, p)), degree)
        for k, c in partial.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


@cache
def schur_product_row(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """Expansion of s_mu * s_nu in the Schur basis (all LR coefficients)."""
    n = sum(mu) + sum(nu)
    f = SymSeries.schur(("x",), "x", mu, n) * SymSeries.schur(("x",), "x", nu, n)
    out = {}
    for key, coeff in power_to_schur(f).items():
        assert coeff.denominator == 1
        out[key[0]] = int(coeff)
    return out


def lr_coefficient(mu: Partition, nu: Partition, lam: Partition) -> int:
    """Littlewood-Richardson coefficient c^lam_{mu,nu}; 0 on size mismatch."""
    if sum(mu) + sum(nu) != sum(lam):
        return 0
    return schur_product_row(tuple(mu), tuple(nu)).get(tuple(lam), 0)


def substitute_variable_sets(f: SymSeries, plan: dict, out_labels) -> SymSeries:
    """Replace whole variable sets, power sum by power sum.

    ``plan`` maps an input label to a list of (monomial, multiplicity) pairs,
    a monomial being a tuple of output labels whose variable sets are
    multiplied together; multiplicities may be negative (virtual sets).  Each
    p_l of a planned label becomes
        sum_j mult_j * prod_{L in monomial_j} p_l(L).
    Labels missing from the plan pass through unchanged and must exist among
    the output labels.
    """
    out_labels = tuple(out_labels)
    nums, den = f._ints()
    power = _power_images(plan, out_labels, f.degree)
    nums = _substitute_int(nums, f.labels, power, f.degree)
    return SymSeries(out_labels, f.degree)._from_ints(nums, den)


def omega(f: SymSeries, label: str) -> SymSeries:
    """The involution omega in one variable set: p_l -> (-1)^(l-1) p_l."""
    slot = f.labels.index(label)
    return f._like({key: c * epsilon_sign(key[slot]) for key, c in f.terms.items()})


def e_series(labels, label: str, n: int, degree: int) -> SymSeries:
    """e_n = s_(1^n) as a power-sum series."""
    return SymSeries.schur(labels, label, (1,) * n, degree)


def h_series(labels, label: str, n: int, degree: int) -> SymSeries:
    """h_n = s_(n) as a power-sum series."""
    return SymSeries.schur(labels, label, (n,) if n else (), degree)


def cauchy_kernel(degree: int) -> SymSeries:
    """exp(sum_l p_l(x) p_l(y) / l) truncated at total degree ``degree``.

    Equals sum_lam s_lam(x) s_lam(y); the bidegree-(n,n) slice is complete
    whenever 2n <= degree.
    """
    labels = ("x", "y")
    arg = SymSeries(
        labels, degree, {((l,), (l,)): Fraction(1, l) for l in range(1, degree // 2 + 1)}
    )
    return exp(arg, SymSeries.one(labels, degree), degree)


def format_series(f: SymSeries) -> str:
    """Sorted `coeff * p{...}` rendering, as repr shows it."""
    return format_terms(
        ("p" + format_multipartition(key, f.labels), f.terms[key])
        for key in sorted(f.terms, key=mp_sort_key)
    )
