"""Sparse exact linear combinations: the one representation every layer
computes with, and the tools that act on it.

A combination is a dict ``{key: coefficient}`` holding no zero coefficient;
coefficients are Fractions (ints in the integer cores).  This module owns
every decision about such dicts that more than one layer needs:

- ``accumulate`` adds one combination into another and drops what cancels;
- ``to_numerators`` and ``from_numerators`` are the one conversion between
  Fraction coefficients and the integer numerators over one common
  denominator that the integer cores of ``symfun`` and ``pbw`` compute on;
- ``Combination`` is the base of the flat element classes (linear structure,
  equality, integrality), ``PowerSeries`` the truncated t-series over any of
  them;
- ``exp`` and ``log1p`` are the one truncated exponential and logarithm,
  both instances of ``power_sum``;
- ``substitute`` is the one algebra map given by the images of letters;
- ``row_reduce`` and ``reduce`` are the one exact linear solver (inverse,
  determinant, echelon form and span membership);
- ``format_terms`` is the one sign-aware printed form.
"""

from fractions import Fraction
from math import factorial, lcm


def accumulate(dst: dict, src: dict, c=1) -> dict:
    """Add c * src into dst in place, dropping keys that cancel; returns dst."""
    if c != 1:  # c == 1 spares a Fraction product per term
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


def to_numerators(terms: dict) -> tuple[dict, int]:
    """terms as ({key: int}, den) with terms[key] == int / den, den being
    the lcm of the denominators (1 for no terms)."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def from_numerators(nums: dict, den: int) -> dict:
    """{key: Fraction(n, den)} for the nonzero numerators: the one Fraction
    per output term an integer core builds."""
    return {k: Fraction(n, den) for k, n in nums.items() if n}


def monomial_product(a: dict, b: dict, merge) -> dict:
    """Product of two combinations over a monomial basis, where basis keys
    ka, kb multiply to the single key merge(ka, kb) with coefficient 1
    (merge must be injective in ka for fixed kb)."""
    out: dict = {}
    for kb, cb in b.items():
        accumulate(out, {merge(ka, kb): ca for ka, ca in a.items()}, cb)
    return out


_ZERO = Fraction(0)  # the coefficient of every absent key; Fractions are immutable


class Combination:
    """A flat element: ``terms`` maps basis keys to nonzero Fractions.

    A subclass adds its context (ring, labels, truncation degree), its
    compatibility check ``_check``, its truncation ``_fits`` and its product.
    ``_context`` names the attributes a result inherits from its operand and
    ``_compared`` those that equality compares besides the terms.
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
                    self.terms[key] = c if type(c) is Fraction else Fraction(c)

    def _fits(self, key) -> bool:
        return True

    def _check(self, other):
        pass

    def _like(self, terms: dict):
        """Same class and context, given clean terms (nonzero Fractions that
        fit the truncation)."""
        out = object.__new__(type(self))
        for name in self._context:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def __add__(self, other):
        self._check(other)
        return self._like(accumulate(dict(self.terms), other.terms))

    def __sub__(self, other):
        self._check(other)
        return self._like(accumulate(dict(self.terms), other.terms, -1))

    def scale(self, c):
        c = c if type(c) is Fraction else Fraction(c)
        if not c:
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})

    def coefficient(self, key) -> Fraction:
        return self.terms.get(key, _ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and all(getattr(self, n) == getattr(other, n) for n in self._compared)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class PowerSeries:
    """sum_k coeffs[k] t^k truncated above t^degree, over any algebra whose
    elements have +, *, scale and is_zero; ``zero`` is that algebra's zero
    and stands for every absent coefficient."""

    __slots__ = ("zero", "degree", "coeffs")

    def __init__(self, zero, degree: int, coeffs=None):
        self.zero = zero
        self.degree = degree
        self.coeffs = {
            k: v for k, v in (coeffs or {}).items() if k <= degree and not v.is_zero()
        }

    def _like(self, coeffs: dict):
        out = object.__new__(type(self))
        out.zero, out.degree = self.zero, self.degree
        out.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}
        return out

    def coefficient(self, k: int):
        return self.coeffs.get(k, self.zero)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k)
            out[k] = v if s is None else s + v
        return self._like(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return self._like({k: v.scale(c) for k, v in self.coeffs.items()})

    def __mul__(self, other):
        out: dict = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                if k <= self.degree:
                    p = v1 * v2
                    s = out.get(k)
                    out[k] = p if s is None else s + p
        return self._like(out)

    def __eq__(self, other):
        return (
            isinstance(other, PowerSeries)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )


# ---------------------------------------------------------------------------
# truncated power series: the one loop, exp and log

def power_sum(x, one, degree: int, coefficient, out):
    """out + sum_{k>=1} coefficient(k) x^k, stopping after k = degree or at
    the first power of x that vanishes: the one loop behind every truncated
    power series of a series x (with *, +, scale and is_zero; ``one`` its
    unit)."""
    power = one
    for k in range(1, degree + 1):
        power = power * x
        if power.is_zero():
            break
        out = out + power.scale(coefficient(k))
    return out


def exp(x, one, degree: int):
    """exp(x) for x without constant term, truncated as in ``power_sum``."""
    return power_sum(x, one, degree, lambda k: Fraction(1, factorial(k)), one)


def log1p(x, one, degree: int):
    """log(one + x) for x without constant term, truncated like ``exp``."""
    zero = one.scale(0)
    return power_sum(x, one, degree, lambda k: Fraction((-1) ** (k - 1), k), zero)


def substitute(terms: dict, image, one, letters=tuple):
    """sum_key c * image(s_1) * ... * image(s_n) over ``terms``, where
    (s_1, ..., s_n) = letters(key): the algebra map sending each letter s to
    image(s), into any algebra with *, +, scale and is_zero (``one`` its
    unit).  A word stops at its first vanishing partial product, so the
    images of its later letters are never asked for."""
    out = one.scale(0)
    for key, c in terms.items():
        acc = one
        for s in letters(key):
            acc = acc * image(s)
            if acc.is_zero():
                break
        out = out + acc.scale(c)
    return out


# ---------------------------------------------------------------------------
# exact row reduction

def row_reduce(rows):
    """Gauss-Jordan elimination over Q on sparse rows.

    ``rows`` yields pairs (vector, tags) of ``{key: number}`` dicts; the tags
    undergo the same row operations as the vectors, so tagging row i with
    {i: 1} records each reduced row as a combination of the input rows.
    Each pivot is the least column of its reduced row.

    Returns (pivots, det): ``pivots`` maps each pivot column to its reduced
    (vector, tags), the vector being 1 at the pivot and 0 at every other
    pivot column; ``det`` is the determinant of the square matrix the rows
    form with columns in sorted order (0 when the rows are dependent).
    """
    pivots: dict = {}
    order = []
    det = Fraction(1)
    for vec, tags in rows:
        vec, tags = _eliminate(dict(vec), dict(tags), pivots)
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


def _eliminate(vec: dict, tags: dict, pivots: dict):
    for col in [c for c in vec if c in pivots]:
        f = -vec[col]
        prow, ptags = pivots[col]
        accumulate(vec, prow, f)
        accumulate(tags, ptags, f)
    return vec, tags


def reduce(vec: dict, pivots: dict) -> dict:
    """What is left of vec after subtracting its part in the span of the
    reduced rows ``pivots`` (from ``row_reduce``); empty iff vec lies in it."""
    return _eliminate(dict(vec), {}, pivots)[0]


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
