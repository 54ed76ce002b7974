"""Truncated big Witt vectors.

A length-n Witt vector over a commutative coefficient ring stores the images
of e_1..e_n under an algebra map out of symmetric functions.  Addition is
dual to the coproduct e_n -> sum e_i (x) e_{n-i}; multiplication is dual to
the Kronecker coproduct e_n -> sum_{lam} s_lam (x) s_lam'; ghost components
are the images of the power sums and diagonalize both operations.

Components here are plain Python ints (exact); the symbolic side of the
story, the formal group law on the e-coordinates, lives in ``hopf``.
"""

from functools import cache
from itertools import permutations

from .errors import DomainError
from .partitions import Partition, conjugate, partitions

EPoly = dict[Partition, int]  # integer polynomial in e_1, e_2, ...; key = index multiset


def _epoly_add(a: EPoly, b: EPoly, scale: int = 1) -> EPoly:
    out = dict(a)
    for k, c in b.items():
        n = out.get(k, 0) + scale * c
        if n:
            out[k] = n
        else:
            out.pop(k, None)
    return out


def _epoly_mul(a: EPoly, b: EPoly) -> EPoly:
    out: EPoly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(sorted(ka + kb, reverse=True))
            n = out.get(k, 0) + ca * cb
            if n:
                out[k] = n
            else:
                out.pop(k, None)
    return out


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
        n = out.get(k, 0) + sign
        if n:
            out[k] = n
        else:
            out.pop(k, None)
    return out


@cache
def power_in_e(n: int) -> EPoly:
    """p_n in the e_i by the Newton recursion
    p_n = (-1)^(n-1) n e_n + sum_{k<n} (-1)^(k-1) e_k p_{n-k}."""
    if n == 0:
        return {(): 1}
    out: EPoly = {(n,): (-1) ** (n - 1) * n}
    for k in range(1, n):
        term = _epoly_mul({(k,): (-1) ** (k - 1)}, power_in_e(n - k))
        out = _epoly_add(out, term)
    return out


def evaluate_epoly(poly: EPoly, comps) -> int:
    """Evaluate at e_i = comps[i-1] (and e_0 = 1)."""
    total = 0
    for key, coeff in poly.items():
        val = coeff
        for i in key:
            if i > len(comps):
                val = 0
                break
            val *= comps[i - 1]
        total += val
    return total


class WittVector:
    """Integer components a_1..a_n: the images of e_1..e_n."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        self.comps = tuple(int(c) for c in comps)

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
        out = []
        for n in range(1, len(self.comps) + 1):
            total = 0
            for lam in partitions(n):
                sa = evaluate_epoly(schur_in_e(lam), self.comps)
                if not sa:
                    continue
                sb = evaluate_epoly(schur_in_e(conjugate(lam)), other.comps)
                total += sa * sb
            out.append(total)
        return WittVector(out)

    def ghost(self, n: int) -> int:
        """Image of p_n: the n-th ghost component."""
        if not 1 <= n <= len(self.comps):
            raise DomainError(f"ghost index {n} out of range 1..{len(self.comps)}")
        return evaluate_epoly(power_in_e(n), self.comps)

    def ghosts(self) -> tuple[int, ...]:
        return tuple(self.ghost(n) for n in range(1, len(self.comps) + 1))

