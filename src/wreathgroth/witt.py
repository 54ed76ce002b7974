"""Truncated big Witt vectors.

A length-n Witt vector over a commutative coefficient ring stores the images
of e_1..e_n under an algebra map out of symmetric functions.  Addition is
dual to the coproduct e_n -> sum e_i (x) e_{n-i}; multiplication is dual to
the Kronecker coproduct e_n -> sum_{lam} s_lam (x) s_lam'.  Ghost components,
the images of the power sums, diagonalize both, so a product is taken on the
ghosts; Newton's identity gives the ghosts from the components in O(n^2)
steps and brings them back (Macdonald, I.2).

Components here are plain Python ints (exact); the symbolic side of the
story, the formal group law on the e-coordinates, lives in ``hopf``.
"""

from functools import cache
from itertools import permutations
from numbers import Rational

from ._exact import accumulate, monomial_product
from .errors import DomainError, IntegralityError
from .partitions import Partition, conjugate
from .symfun import merge_parts

EPoly = dict[Partition, int]  # integer polynomial in e_1, e_2, ...; key = index multiset


@cache
def schur_in_e(lam: Partition) -> EPoly:
    """s_lam as an integer polynomial in the e_i (dual Jacobi-Trudi)."""
    if not lam:
        return {(): 1}
    conj = conjugate(lam)
    m = len(conj)
    out: EPoly = {}
    for perm in permutations(range(m)):
        sign = 1
        for i in range(m):
            for j in range(i + 1, m):
                if perm[i] > perm[j]:
                    sign = -sign
        key = []
        dead = False
        for i in range(m):
            r = conj[i] - (i + 1) + (perm[i] + 1)
            if r < 0:
                dead = True
                break
            if r > 0:
                key.append(r)
        if dead:
            continue
        k = tuple(sorted(key, reverse=True))
        out[k] = out.get(k, 0) + sign
    return {k: c for k, c in out.items() if c}


@cache
def power_in_e(n: int) -> EPoly:
    """p_n in the e_i by the Newton recursion
    p_n = (-1)^(n-1) n e_n + sum_{k<n} (-1)^(k-1) e_k p_{n-k}."""
    if n == 0:
        return {(): 1}
    out: EPoly = {(n,): (-1) ** (n - 1) * n}
    for k in range(1, n):
        e_k_p = monomial_product(power_in_e(n - k), {(k,): 1}, merge_parts)
        accumulate(out, e_k_p, (-1) ** (k - 1))
    return out


def _ghosts(comps) -> list[int]:
    """The ghost components w_1..w_n of a_1..a_n = comps, by the Newton
    recursion that ``power_in_e`` expands symbolically:
    w_n = sum_{k<n} (-1)^(k-1) a_k w_{n-k} + (-1)^(n-1) n a_n."""
    w: list[int] = []
    for n in range(1, len(comps) + 1):
        total = n * comps[n - 1]
        if not n & 1:
            total = -total
        for k in range(1, n):
            term = comps[k - 1] * w[n - k - 1]
            total += term if k & 1 else -term
        w.append(total)
    return w


def _integer(c) -> int:
    """c as an int, or DomainError naming c when it is no integer."""
    if isinstance(c, Rational) and c.denominator == 1:
        return int(c)
    raise DomainError(f"Witt vector component {c!r} is not an integer")


class WittVector:
    """Integer components a_1..a_n: the images of e_1..e_n."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        self.comps = tuple(c if type(c) is int else _integer(c) for c in comps)

    @classmethod
    def zero(cls, length: int):
        return cls((0,) * length)

    @classmethod
    def one(cls, length: int):
        return cls((1,) + (0,) * (length - 1))

    def __len__(self):
        return len(self.comps)

    def __eq__(self, other):
        return isinstance(other, WittVector) and self.comps == other.comps

    def __hash__(self):
        return hash(self.comps)

    def __repr__(self):
        return "(" + ",".join(str(c) for c in self.comps) + ")"

    def _check(self, other):
        if type(other) is not type(self):
            raise DomainError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if len(self.comps) != len(other.comps):
            raise DomainError("Witt vectors have different lengths")

    def __add__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        a = (1,) + self.comps
        b = (1,) + other.comps
        out = []
        for n in range(1, len(self.comps) + 1):
            out.append(sum(a[i] * b[n - i] for i in range(n + 1)))
        return WittVector(out)

    def __mul__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        return WittVector.from_ghosts(
            [x * y for x, y in zip(_ghosts(self.comps), _ghosts(other.comps))]
        )

    @classmethod
    def from_ghosts(cls, ghosts) -> "WittVector":
        """Inverse of the ghost map, by n e_n = sum_{k=1..n} (-1)^(k-1) e_{n-k} p_k."""
        e = [1]
        for n in range(1, len(ghosts) + 1):
            total = 0
            for k in range(1, n + 1):
                term = e[n - k] * ghosts[k - 1]
                total += term if k & 1 else -term
            q, r = divmod(total, n)
            if r:
                raise IntegralityError(f"ghosts not integral: {n}*e_{n} = {total}, remainder {r}")
            e.append(q)
        return cls(e[1:])

    def ghost(self, n: int) -> int:
        """Image of p_n: the n-th ghost component."""
        if not 1 <= n <= len(self.comps):
            raise DomainError(f"ghost index {n} out of range 1..{len(self.comps)}")
        return _ghosts(self.comps[:n])[-1]

    def ghosts(self) -> tuple[int, ...]:
        return tuple(_ghosts(self.comps))

