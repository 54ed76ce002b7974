"""The integer-only inner loops: symmetric-group characters and the ribbons
they recurse on, partition enumeration and PBW word rewriting.

Everything here works on plain tuples of ints so results are hashable and
safe to memoize.  Callers reach these functions through the module
(``kernels.character`` and so on), never by importing the names.
"""

from functools import cache

_char_cache: dict = {}


def backend() -> str:
    """Name of the kernel implementation, always 'pure'.

    There is one implementation; the name is kept because benchmark run
    records report it.
    """
    return "pure"


def character(lam: tuple, mu: tuple) -> int:
    """Irreducible symmetric-group character value chi^lam_mu.

    Murnaghan-Nakayama recursion: the signed sum over the mu_1-ribbons
    (border strips) R of lam of chi^{lam - R}_{mu_2, mu_3, ...} (``ribbons``).
    Requires sum(lam) == sum(mu); both weakly decreasing positive tuples.
    """
    if not lam:
        return 1
    key = (lam, mu)
    val = _char_cache.get(key)
    if val is not None:
        return val
    total = 0
    for sub, sign in ribbons(lam, mu[0], -1):
        # recurse through the module-level name: the benchmark's tracer wraps
        # it, and kernels.character.calls counts every recursion step
        total += sign * character(sub, mu[1:])
    _char_cache[key] = total
    return total


@cache
def ribbons(p: tuple, m: int, d: int) -> tuple:
    """The partitions p + R (d = 1) or p - R (d = -1) over the m-ribbons R,
    each with the sign (-1)^ht(R).  On the bead form of p, with beads at
    p_i + n - i for n = len(p) + m rows, a ribbon moves one bead m places onto
    a free place, and its height is the number of beads it passes."""
    n = len(p) + m
    beads = {part + n - 1 - i for i, part in enumerate(p + (0,) * m)}
    out = []
    for b in sorted(beads):
        t = b + d * m
        if t >= 0 and t not in beads:
            moved = sorted(beads - {b} | {t}, reverse=True)
            q = tuple(x - n + 1 + i for i, x in enumerate(moved) if x > n - 1 - i)
            height = sum(min(b, t) < x < max(b, t) for x in beads)
            out.append((q, -1 if height & 1 else 1))
    return tuple(out)


def partitions_of(n: int) -> list:
    """All partitions of n as tuples, in descending lexicographic order."""
    if n == 0:
        return [()]
    out = []
    stack = [((), n, n)]
    while stack:
        prefix, remaining, cap = stack.pop()
        if remaining == 0:
            out.append(prefix)
            continue
        top = min(cap, remaining)
        # push smallest first so the largest part is explored first overall
        for first in range(1, top + 1):
            stack.append((prefix + (first,), remaining - first, first))
    return out


def normalize_product(w1: tuple, w2: tuple, comm: dict) -> dict:
    """Product of two normal-ordered PBW words, as {normal word: int coeff}.

    Symbols are ints encoding (level << 16) | basis_index; a word is normal
    when weakly increasing.  Same-level symbols of distinct basis elements
    obey  T_l(u) T_l(v) = T_l(v) T_l(u) + T_l(uv - vu);  ``comm`` maps the
    basis-index pair (u, v) with u > v to a tuple of (basis index, integer)
    pairs expanding uv - vu.  Distinct levels commute outright.  Each
    correction strictly shortens the word, so rewriting terminates.
    """
    result: dict = {}
    stack = [(w1 + w2, 1)]
    while stack:
        word, coeff = stack.pop()
        m = len(word)
        i = 0
        buf = list(word)
        while True:
            while i < m - 1 and buf[i] <= buf[i + 1]:
                i += 1
            if i >= m - 1:
                result[tuple(buf)] = result.get(tuple(buf), 0) + coeff
                break
            a = buf[i]
            b = buf[i + 1]
            if (a >> 16) == (b >> 16):
                pair = (a & 0xFFFF, b & 0xFFFF)
                corr = comm.get(pair)
                if corr:
                    level = a & ~0xFFFF
                    head = tuple(buf[:i])
                    tail = tuple(buf[i + 2:])
                    for u, c in corr:
                        stack.append((head + (level | u,) + tail, coeff * c))
            buf[i], buf[i + 1] = b, a
            if i > 0:
                i -= 1
    return {w: c for w, c in result.items() if c}
