"""Partitions, multipartitions and symmetric-group characters.

A partition is a tuple of weakly decreasing positive ints; () is the unique
partition of 0.  A multipartition over an ordered label list is a tuple of
partitions, one slot per label (empty slots hold ()); the text form
``{U:[2,1];V:[1]}`` omits empty slots.

Everything is a pure function of immutable values; the character cache is
shared and append-only, so concurrent lookup-or-compute is harmless.
"""

from functools import cache
from math import factorial

from .errors import ConfigError, DomainError
from . import kernels

Partition = tuple[int, ...]
MultiPartition = tuple[Partition, ...]


def make_partition(parts) -> Partition:
    """Canonical form: strip zeros, reject negatives and increasing runs."""
    parts = tuple(int(x) for x in parts if x != 0)
    for i, x in enumerate(parts):
        if x < 0:
            raise DomainError(f"negative part {x} in partition {list(parts)}")
        if i and parts[i - 1] < x:
            raise DomainError(f"parts not weakly decreasing: {list(parts)}")
    return parts


def size(p: Partition) -> int:
    return sum(p)


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not p:
        return ()
    cols = [0] * p[0]
    for part in p:
        for i in range(part):
            cols[i] += 1
    return tuple(cols)


def multiplicities(p: Partition) -> dict[int, int]:
    m: dict[int, int] = {}
    for part in p:
        m[part] = m.get(part, 0) + 1
    return m


def z_factor(p: Partition) -> int:
    """z_p = prod_i m_i! * i^m_i; the centralizer order of cycle type p."""
    out = 1
    for i, m in multiplicities(p).items():
        out *= factorial(m) * i**m
    return out


def epsilon_sign(p: Partition) -> int:
    """(-1)^(|p| - length(p)): the sign of a permutation of cycle type p."""
    return -1 if (size(p) - len(p)) & 1 else 1


def mn_character(lam: Partition, mu: Partition) -> int:
    """Character of the Specht module S^lam at cycle type mu."""
    if size(lam) != size(mu):
        raise DomainError(f"size mismatch: |{list(lam)}| != |{list(mu)}|")
    return kernels.character(lam, mu)


def _desc_key(p: Partition) -> tuple[int, ...]:
    return tuple(-x for x in p)


def mp_sort_key(mp: MultiPartition):
    """Graded order: total size first, then slotwise descending-lex parts."""
    return (mp_total(mp), tuple(_desc_key(p) for p in mp))


@cache
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order."""
    return tuple(kernels.partitions_of(n))


@cache
def multipartitions(num_labels: int, n: int) -> tuple[MultiPartition, ...]:
    """All assignments of partitions to the labels with total size exactly n."""
    if num_labels == 0:
        return ((),) if n == 0 else ()
    out = []
    for first in range(n, -1, -1):
        for p in partitions(first):
            for rest in multipartitions(num_labels - 1, n - first):
                out.append((p,) + rest)
    return tuple(out)


def multipartitions_upto(num_labels: int, n: int) -> list[MultiPartition]:
    out: list[MultiPartition] = []
    for k in range(n + 1):
        out.extend(multipartitions(num_labels, k))
    return out


def mp_total(mp: MultiPartition) -> int:
    return sum(map(sum, mp))


def mp_empty(num_labels: int) -> MultiPartition:
    return ((),) * num_labels


def mp_single(num_labels: int, slot: int, p: Partition) -> MultiPartition:
    mp = [()] * num_labels
    mp[slot] = p
    return tuple(mp)


# ---------------------------------------------------------------------------
# text forms: `[3,2,1]` and `{U:[2,1];V:[1]}`

def format_partition(p: Partition) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ConfigError(f"partition literal must look like [3,2,1]: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ()
    try:
        parts = [int(x) for x in body.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad partition literal {text!r}") from exc
    try:
        out = make_partition(parts)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    if len(out) != len(parts):
        raise ConfigError(f"zero parts not allowed in literal {text!r}")
    return out


def format_multipartition(mp: MultiPartition, labels: tuple[str, ...]) -> str:
    items = [
        f"{labels[i]}:{format_partition(p)}" for i, p in enumerate(mp) if p
    ]
    return "{" + ";".join(items) + "}"


def parse_multipartition(text: str, labels: tuple[str, ...]) -> MultiPartition:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ConfigError(f"multipartition literal must look like {{U:[1]}}: {text!r}")
    body = text[1:-1].strip()
    slots: list[Partition] = [()] * len(labels)
    if not body:
        return tuple(slots)
    for item in body.split(";"):
        if ":" not in item:
            raise ConfigError(f"expected label:[parts] in {item!r}")
        name, _, ptext = item.partition(":")
        name = name.strip()
        if name not in labels:
            raise ConfigError(f"unknown basis label {name!r}; ring has {list(labels)}")
        idx = labels.index(name)
        if slots[idx]:
            raise ConfigError(f"label {name!r} given twice in {text!r}")
        slots[idx] = parse_partition(ptext)
    return tuple(slots)
