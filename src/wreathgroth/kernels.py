"""The integer-only inner loops: symmetric-group characters, partition
enumeration and PBW word rewriting.

Everything here works on plain tuples of ints so results are hashable and
safe to memoize.  Callers reach these functions through the module
(``kernels.character`` and so on), never by importing the names.
"""

_char_cache: dict = {}


def backend() -> str:
    """Name of the kernel implementation, always 'pure'.

    There is one implementation; the name is kept because benchmark run
    records report it.
    """
    return "pure"


def character(lam: tuple, mu: tuple) -> int:
    """Irreducible symmetric-group character value chi^lam_mu.

    Murnaghan-Nakayama recursion on beta-numbers (first-column hook lengths):
    removing a border strip of size k from lam is the same as moving one bead
    b -> b-k, with sign (-1)^(number of beads strictly between them).
    Requires sum(lam) == sum(mu); both weakly decreasing positive tuples.
    """
    if not lam:
        return 1
    key = (lam, mu)
    val = _char_cache.get(key)
    if val is not None:
        return val
    k = mu[0]
    rest = mu[1:]
    n = len(lam)
    beta = [lam[i] + n - 1 - i for i in range(n)]
    bset = set(beta)
    total = 0
    for i in range(n):
        b = beta[i]
        b2 = b - k
        if b2 < 0 or b2 in bset:
            continue
        crossed = 0
        for j in range(i + 1, n):
            if beta[j] > b2:
                crossed += 1
        nb = sorted(beta, reverse=True)
        nb.remove(b)
        nb.append(b2)
        nb.sort(reverse=True)
        newlam = []
        for idx, bb in enumerate(nb):
            part = bb - (n - 1 - idx)
            if part > 0:
                newlam.append(part)
        # recurse through the module-level name: the benchmark's tracer wraps
        # it, and kernels.character.calls counts every recursion step
        sub = character(tuple(newlam), rest)
        total += -sub if crossed & 1 else sub
    _char_cache[key] = total
    return total


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
