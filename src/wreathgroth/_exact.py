"""Sparse exact linear combinations: the one representation every layer
computes with, and the tools that act on it.

A combination is a dict ``{key: coefficient}`` holding no zero coefficient;
an integral coefficient is an int and any other a Fraction, whose
denominator is then greater than 1 (``exact``).  An int and a Fraction
compare, hash and print alike, so the form never shows in equality or
output; integral arithmetic simply stays on ints.  This module owns every
decision about such dicts that more than one layer needs:

- ``accumulate`` adds one combination into another and drops what cancels;
- ``to_numerators`` and ``from_numerators`` are the one conversion between
  coefficients and the integer numerators over one common denominator that
  the integer cores compute on;
- ``Combination`` is the base of every element class (linear structure,
  equality, the one operand check, the one integrality assertion), the
  truncated t-series ``PowerSeries`` over any of them included;
- ``product`` is the one ``__mul__`` of every algebra with an integer core
  (below): check the operands, clear both, run the core, divide by the
  common denominator (nothing to divide when both operands are integral);
- ``exp`` and ``log1p`` are the one truncated exponential and logarithm,
  both instances of ``power_sum``, which runs on integer numerators;
- ``substitute`` is the one algebra map given by the images of letters;
- ``first_difference`` is the one search for where two combinations
  differ: the least differing key and both coefficients, the witness of
  every equality check;
- ``row_reduce`` and ``reduce`` are the one exact linear solver (inverse,
  determinant, echelon form and span membership);
- ``format_terms`` is the one sign-aware printed form.

An algebra has an integer core when its elements provide three methods:
``_ints()`` gives the element as ({key: int}, den), its terms over one common
denominator; ``_int_product(a, b)`` multiplies two such numerator dicts in
the element's context (ring, truncation), without changing them, and
returns one with no zero entries; ``_from_ints(nums, den)`` builds the
element of that context.  The cores are ``z_multiply``'s table lookup
(``GrothElement``), the table rows of each half of ``hopf.TensorGroth``,
the word products of ``PBWElement``, the slotwise key
merges of the oracle's power-sum series, ``symfun``'s power-sum product
(``SymSeries``), the structure tensor of ``RingElement`` (whose
coefficients are integers, so its denominator is 1) and, for
``PowerSeries``, the t-degree pairs over its coefficients' core.
"""

from fractions import Fraction
from math import factorial, lcm

from .errors import DomainError, IntegralityError


def accumulate(dst: dict, src: dict, c=1) -> dict:
    """Add c * src into dst in place, dropping keys that cancel; returns dst."""
    if c != 1:  # c == 1 spares a product per term
        if not c:
            return dst
        src = {k: c * v for k, v in src.items()}
    get = dst.get
    for k, v in src.items():
        old = get(k)
        if old is None:
            if v:
                dst[k] = v
        else:
            v += old
            if v:
                dst[k] = v
            else:
                dst.pop(k, None)
    return dst


def exact(c):
    """The number c as a coefficient: an int when it is integral, else a
    Fraction."""
    if type(c) is not int:
        c = c if type(c) is Fraction else Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


def settle(terms: dict) -> dict:
    """terms with each integral Fraction replaced by its int, in place: the
    coefficients of a sum or product taken on Fractions."""
    for k, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[k] = c.numerator
    return terms


def to_numerators(terms: dict) -> tuple[dict, int]:
    """terms as ({key: int}, den) with terms[key] == int / den, den being
    the lcm of the denominators (1 for no terms)."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def from_numerators(nums: dict, den: int) -> dict:
    """{key: n / den} for the nonzero numerators, each an int when den
    divides it and a Fraction otherwise."""
    if den == 1:
        return {k: n for k, n in nums.items() if n}
    out = {}
    for k, n in nums.items():
        if n:
            q, r = divmod(n, den)
            out[k] = Fraction(n, den) if r else q
    return out


def monomial_product(a: dict, b: dict, merge) -> dict:
    """Product of two combinations over a monomial basis, where basis keys
    ka, kb multiply to the single key merge(ka, kb) with coefficient 1
    (merge must be injective in ka for fixed kb)."""
    out: dict = {}
    for kb, cb in b.items():
        accumulate(out, {merge(ka, kb): ca for ka, ca in a.items()}, cb)
    return out


def product(a, b):
    """a * b through their algebra's integer core (see the module docstring),
    once ``a._check(b)`` has passed: each operand cleared once, one core
    call, one division per output term by the product of the
    denominators."""
    a._check(b)
    na, da = a._ints()
    nb, db = b._ints()
    return a._from_ints(a._int_product(na, nb), da * db)


class Combination:
    """A flat element: ``terms`` maps basis keys to nonzero coefficients,
    each an int or a Fraction with denominator greater than 1.

    A subclass adds its context (ring, labels, truncation degree), its
    truncation ``_fits`` and, to multiply, its integer core
    ``_int_product``.  ``_context`` names the attributes a result inherits
    from its operand and ``_compared`` those that equality compares besides
    the terms; ``_check`` refuses an operand that differs in one of them.
    """

    __slots__ = ("terms",)
    _context: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init__(self, terms=None):
        self.terms: dict = {}
        if terms:
            fits = self._fits
            for key, c in terms.items():
                if c and fits(key):
                    self.terms[key] = c if type(c) is int else exact(c)

    def _fits(self, key) -> bool:
        return True

    def _check(self, other):
        """The one operand check of ``+``, ``-`` and ``*``: other is of this
        class and agrees with self in every attribute equality compares, so
        rings, labels and truncations never mix."""
        if type(other) is not type(self):
            raise DomainError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        for name in self._compared:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                show = lambda v: getattr(v, "name", v)  # a ring by its name
                raise DomainError(
                    f"{type(self).__name__} operands differ in {name}: {show(mine)} vs {show(theirs)}"
                )

    def _like(self, terms: dict):
        """Same class and context, given clean terms (nonzero coefficients
        in the form above that fit the truncation)."""
        out = object.__new__(type(self))
        for name in self._context:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def __add__(self, other):
        self._check(other)
        return self._like(settle(accumulate(dict(self.terms), other.terms)))

    def __sub__(self, other):
        self._check(other)
        return self._like(settle(accumulate(dict(self.terms), other.terms, -1)))

    def scale(self, c):
        c = exact(c)
        if not c:
            return self._like({})
        return self._like(settle({k: v * c for k, v in self.terms.items()}))

    def coefficient(self, key):
        return self.terms.get(key, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def assert_integral(self, where="element", error=IntegralityError):
        """self, or ``error`` naming a non-integer coefficient: the one
        integrality assertion."""
        if not self.is_integral():
            bad = next(c for c in self.terms.values() if c.denominator != 1)
            raise error(f"{where} has non-integer coefficient {bad}")
        return self

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and all(getattr(self, n) == getattr(other, n) for n in self._compared)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _ints(self) -> tuple[dict, int]:
        """The terms themselves when all are ints, which no core changes."""
        den = lcm(*(c.denominator for c in self.terms.values()))
        return (self.terms, 1) if den == 1 else to_numerators(self.terms)

    def _from_ints(self, nums: dict, den: int):
        return self._like(from_numerators(nums, den))

    __mul__ = product


class PowerSeries(Combination):
    """sum_k c_k t^k truncated above t^degree, over any ``Combination``
    algebra with an integer core.  The terms are flat: (k, key) maps to the
    coefficient of the basis key ``key`` in c_k.  ``zero`` is that algebra's
    zero; it gives each coefficient its context, and an operand's
    coefficients must pass its ``_check``."""

    __slots__ = ("zero", "degree")
    _context = ("zero", "degree")
    _compared = ("degree",)

    def __init__(self, zero, degree: int, coeffs=None):
        """coeffs: {k: c_k} with each c_k in zero's algebra."""
        self.zero = zero
        self.degree = degree
        super().__init__(
            {(t, key): c for t, x in (coeffs or {}).items() for key, c in x.terms.items()}
        )

    def _fits(self, key) -> bool:
        return key[0] <= self.degree

    def _check(self, other):
        super()._check(other)
        self.zero._check(other.zero)

    def coefficient(self, k: int):
        """c_k, in zero's algebra."""
        return self.zero._like({key: c for (t, key), c in self.terms.items() if t == k})

    @property
    def coeffs(self) -> dict:
        """{k: c_k} over the k with c_k != 0."""
        return {t: self.zero._like(x) for t, x in _by_degree(self.terms).items()}

    def _int_product(self, a: dict, b: dict) -> dict:
        """Pairs of t-degrees up to the truncation, each through the core of
        the coefficients."""
        core = self.zero._int_product
        out: dict = {}
        get = out.get
        right = _by_degree(b).items()
        for t1, x1 in _by_degree(a).items():
            for t2, x2 in right:
                t = t1 + t2
                if t <= self.degree:
                    for key, c in core(x1, x2).items():
                        key = (t, key)
                        out[key] = get(key, 0) + c
        return {key: c for key, c in out.items() if c}

    def _from_ints(self, nums: dict, den: int):
        """The terms through the coefficients' own ``_from_ints``,
        which holds them to its integrality (a t-series of ring elements
        stays integral); it reads no key, so the flat keys pass through."""
        return self._like(self.zero._from_ints(nums, den).terms)


def _by_degree(terms: dict) -> dict:
    """{(t, key): c} as {t: {key: c}}."""
    out: dict = {}
    for (t, key), c in terms.items():
        out.setdefault(t, {})[key] = c
    return out


# ---------------------------------------------------------------------------
# truncated power series: the one loop, exp and log

def power_sum(x, degree: int, coefficient, out):
    """out + sum_{k>=1} coefficient(k) x^k, stopping after k = degree or at
    the first power of x that vanishes: the one loop behind every truncated
    power series of an element x of an algebra with an integer core (``out``
    in the same algebra; coefficient(k) an int or Fraction).

    x is cleared once; its first power is x itself, not a product with the
    unit, and each later one is the core applied to the last one and x's
    numerators.  The sum is taken in ints over one denominator, the lcm over
    k of den(c_k) den(x)^k and den(out), which is divided out once per
    output term."""
    xn, xd = x._ints()
    power, pd = xn, xd
    terms = []  # (numerator of c_k, denominator of c_k x^k, x^k numerators)
    for k in range(1, degree + 1):
        if k > 1:
            power = x._int_product(power, xn)
            pd *= xd
        if not power:
            break
        c = coefficient(k)
        terms.append((c.numerator, c.denominator * pd, power))
    start, sd = out._ints()
    den = lcm(sd, *(d for _, d, _ in terms))
    total = {key: n * (den // sd) for key, n in start.items()}
    get = total.get
    for c, d, power in terms:
        c *= den // d
        for key, n in power.items():
            total[key] = get(key, 0) + c * n
    return out._from_ints(total, den)


def exp(x, one, degree: int):
    """exp(x) for x without constant term, truncated as in ``power_sum``."""
    return power_sum(x, degree, lambda k: Fraction(1, factorial(k)), one)


def log1p(x, one, degree: int):
    """log(one + x) for x without constant term, truncated like ``exp``."""
    zero = one.scale(0)
    return power_sum(x, degree, lambda k: Fraction((-1) ** (k - 1), k), zero)


def substitute(terms: dict, image, one, letters=tuple):
    """sum_key c * image(s_1) * ... * image(s_n) over ``terms``, where
    (s_1, ..., s_n) = letters(key): the algebra map sending each letter s to
    image(s), into any ``Combination`` algebra (``one`` its unit).  A word
    stops at its first vanishing partial product, so the images of its later
    letters are never asked for; the words add into one terms dict."""
    out: dict = {}
    for key, c in terms.items():
        acc = one
        for s in letters(key):
            acc = acc * image(s)
            if acc.is_zero():
                break
        accumulate(out, acc.terms, c)
    return one._like(settle(out))


def first_difference(a: dict, b: dict, order=None):
    """None when the combinations a and b are equal; else (key, a's
    coefficient, b's coefficient) at the least key, under the sort key
    ``order``, where they differ (an absent key has coefficient 0)."""
    if a == b:
        return None
    key = min((k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0)), key=order)
    return key, a.get(key, 0), b.get(key, 0)


# ---------------------------------------------------------------------------
# exact row reduction

def row_reduce(rows):
    """Gauss-Jordan elimination over Q on sparse rows.

    ``rows`` yields pairs (vector, tags) of ``{key: number}`` dicts; the tags
    undergo the same row operations as the vectors, so tagging row i with
    {i: 1} records each reduced row as a combination of the input rows.
    Each pivot is the least column of its reduced row.

    Returns (pivots, det): ``pivots`` maps each pivot column to its reduced
    (vector, tags) of Fractions, the vector being 1 at the pivot and 0 at
    every other pivot column; ``det`` is the determinant of the square
    matrix the rows form with columns in sorted order (0 when the rows are
    dependent).
    """
    pivots: dict = {}  # col -> (vec, tags), 0 at every other pivot column
    order = []
    det = Fraction(1)
    for vec, tags in rows:
        vec = {k: v for k, v in vec.items() if v}
        tags = {k: v for k, v in tags.items() if v}
        for col in [c for c in vec if c in pivots]:
            f = -vec[col]
            accumulate(vec, pivots[col][0], f)
            accumulate(tags, pivots[col][1], f)
        if not vec:
            det = Fraction(0)
            continue
        col = min(vec)
        lead = Fraction(vec[col])
        det *= lead
        vec = {k: v / lead for k, v in vec.items()}
        tags = {k: v / lead for k, v in tags.items()}
        for other, other_tags in pivots.values():
            f = other.get(col)
            if f:
                accumulate(other, vec, -f)
                accumulate(other_tags, tags, -f)
        pivots[col] = (vec, tags)
        order.append(col)
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return pivots, -det if inversions & 1 else det


def reduce(vec: dict, pivots: dict) -> dict:
    """What is left of vec after subtracting its part in the span of the
    reduced rows ``pivots`` (from ``row_reduce``); empty iff vec lies in it."""
    vec = dict(vec)
    for col in [c for c in vec if c in pivots]:
        accumulate(vec, pivots[col][0], -vec[col])
    return vec


# ---------------------------------------------------------------------------
# printing

def format_terms(pairs) -> str:
    """`a - 2*b + 1/2*c` from (body, coefficient) pairs in print order;
    "0" when there are none."""
    text = ""
    for body, c in pairs:
        sign = "-" if c < 0 else "+"
        c = abs(c)
        chunk = body if c == 1 else f"{c}*{body}"
        if text:
            text += f" {sign} {chunk}"
        else:
            text = ("-" if sign == "-" else "") + chunk
    return text or "0"
