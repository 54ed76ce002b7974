from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

import wreathgroth
from wreathgroth import partitions as pt
from wreathgroth.errors import ConfigError, DomainError


def test_make_partition_canonical():
    assert pt.make_partition([3, 2, 0, 0]) == (3, 2)
    assert pt.make_partition([]) == ()
    with pytest.raises(DomainError):
        pt.make_partition([1, 2])
    with pytest.raises(DomainError):
        pt.make_partition([2, -1])


def test_conjugate_examples():
    assert pt.conjugate(()) == ()
    assert pt.conjugate((2, 1)) == (2, 1)
    # transpose of the 4-box diagram [3,1], done by hand
    assert pt.conjugate((3, 1)) == (2, 1, 1)


@given(st.integers(0, 8))
def test_conjugate_involution(n):
    for p in pt.partitions(n):
        assert pt.conjugate(pt.conjugate(p)) == p


def test_z_factor():
    assert pt.z_factor(()) == 1
    assert pt.z_factor((1, 1, 1)) == 6
    assert pt.z_factor((3, 1, 1)) == 6  # 2! * 1^2 * 1! * 3^1


def test_z_factor_counts_centralizers():
    # z_p * #{permutations of cycle type p} = n!
    from itertools import permutations

    def cycle_type(perm):
        seen = [False] * len(perm)
        parts = []
        for i in range(len(perm)):
            if seen[i]:
                continue
            ln = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            parts.append(ln)
        return tuple(sorted(parts, reverse=True))

    for n in range(1, 8):
        counts = {}
        if n <= 6:
            for perm in permutations(range(n)):
                ct = cycle_type(perm)
                counts[ct] = counts.get(ct, 0) + 1
        else:
            # counting formula n!/z_p is what we are checking at small n;
            # at n=7 just check the identity against it directly
            counts = {p: factorial(n) // pt.z_factor(p) for p in pt.partitions(n)}
        for p in pt.partitions(n):
            assert pt.z_factor(p) * counts[p] == factorial(n)


def test_epsilon_sign():
    assert pt.epsilon_sign(()) == 1
    assert pt.epsilon_sign((2,)) == -1
    assert pt.epsilon_sign((3, 2)) == -1  # (-1)^(5-2)


def pad_first_row(p, n):
    """Prepend a first row of size n - |p|, giving a partition of n.

    Requires n >= |p| + p[0] so the result is weakly decreasing.
    """
    least = sum(p) + (p[0] if p else 0)
    if n < least:
        raise DomainError(f"n={n} too small to pad {list(p)}; need n >= {least}")
    return (n - sum(p),) + p


def hook_length_dimension(p) -> int:
    """dim S^p by the hook length formula (independent check on characters)."""
    if not p:
        return 1
    conj = pt.conjugate(p)
    out = factorial(sum(p))
    for i, row in enumerate(p):
        for j in range(row):
            out //= row - j + conj[j] - i - 1
    return out


def test_pad_first_row():
    assert pad_first_row((), 5) == (5,)
    assert pad_first_row((2, 1), 6) == (3, 2, 1)
    with pytest.raises(DomainError, match="need n >= 5"):
        pad_first_row((2, 1), 4)


def test_character_one_row_and_one_column():
    for n in range(1, 7):
        for mu in pt.partitions(n):
            assert pt.mn_character((n,), mu) == 1
            assert pt.mn_character((1,) * n, mu) == pt.epsilon_sign(mu)


def test_character_standard_value():
    # dimension of the (2,1) Specht module = number of standard tableaux = 2
    assert pt.mn_character((2, 1), (1, 1, 1)) == 2


def test_character_dimension_matches_hook_lengths():
    for n in range(1, 8):
        for lam in pt.partitions(n):
            assert pt.mn_character(lam, (1,) * n) == hook_length_dimension(lam)


def test_character_size_mismatch():
    with pytest.raises(DomainError):
        pt.mn_character((2,), (1,))


def test_character_orthogonality():
    for n in range(0, 7):
        ps = pt.partitions(n)
        for lam in ps:
            for kappa in ps:
                total = sum(
                    Fraction(
                        pt.mn_character(lam, mu) * pt.mn_character(kappa, mu),
                        pt.z_factor(mu),
                    )
                    for mu in ps
                )
                assert total == (1 if lam == kappa else 0)


def test_partition_enumeration():
    assert pt.partitions(0) == ((),)
    assert len(pt.partitions(4)) == 5
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected):
        assert len(pt.partitions(n)) == count
        assert len(set(pt.partitions(n))) == count
        for p in pt.partitions(n):
            assert sum(p) == n
    # descending lexicographic order
    assert pt.partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_multipartition_enumeration():
    assert pt.multipartitions(2, 2) == (
        ((2,), ()),
        ((1, 1), ()),
        ((1,), (1,)),
        ((), (2,)),
        ((), (1, 1)),
    )


def test_multipartition_count_against_brute_force():
    # independent oracle: pair up partitions of complementary sizes
    for num_labels in (1, 2, 3):
        for n in range(5):
            found = pt.multipartitions(num_labels, n)
            assert len(found) == len(set(found))

            def brute(k, m):
                if k == 0:
                    return [()] if m == 0 else []
                return [
                    (p,) + rest
                    for t in range(m + 1)
                    for p in pt.partitions(t)
                    for rest in brute(k - 1, m - t)
                ]

            assert sorted(found) == sorted(brute(num_labels, n))
            for mp in found:
                assert pt.mp_total(mp) == n


def test_text_forms():
    assert pt.format_partition((3, 2, 1)) == "[3,2,1]"
    assert pt.parse_partition("[3,2,1]") == (3, 2, 1)
    assert pt.parse_partition("[]") == ()
    labels = ("U", "V")
    assert pt.format_multipartition(((2, 1), ()), labels) == "{U:[2,1]}"
    assert pt.parse_multipartition("{U:[2,1];V:[1]}", labels) == ((2, 1), (1,))
    assert pt.parse_multipartition("{}", labels) == ((), ())
    with pytest.raises(ConfigError):
        pt.parse_partition("[2,3]")
    with pytest.raises(ConfigError):
        pt.parse_multipartition("{W:[1]}", labels)


def test_partition_counts_match_known_values():
    counts = [len(pt.partitions(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_backend_is_pure():
    assert wreathgroth.backend() == "pure"
