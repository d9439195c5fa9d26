"""Symmetric-group combinatorics against independently coded oracles.

The oracles below share no code path with the package: partitions come
from a different recursion, dimensions from the branching rule instead
of hook lengths, and characters from coefficient extraction in the
product of power sums with the Vandermonde alternant instead of the
border-strip recursion.
"""

import csv
import math
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duallab import symcomb
from duallab.symcomb import (
    CharacterTable,
    CycleType,
    Partition,
    character,
    conjugacy_classes,
    cycle_type_of_permutation,
    dimension,
    enumerate_partitions,
)

MAX_P = 6


# -- oracles ---------------------------------------------------------------


def oracle_partitions(n, cap=None):
    """Ascending-order partition recursion, returned as sorted-desc tuples."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    out = []
    for largest in range(1, min(n, cap) + 1):
        for rest in oracle_partitions(n - largest, largest):
            out.append(tuple(sorted((largest, *rest), reverse=True)))
    return sorted(set(out), reverse=True)


@lru_cache(maxsize=None)
def oracle_dim(parts: tuple) -> int:
    """Branching rule: sum of dimensions over removable corners."""
    if sum(parts) <= 1:
        return 1
    total = 0
    for i, row in enumerate(parts):
        if i + 1 < len(parts) and parts[i + 1] == row:
            continue  # not a corner
        smaller = tuple(x for x in (*parts[:i], row - 1, *parts[i + 1 :]) if x)
        total += oracle_dim(smaller)
    return total


@lru_cache(maxsize=None)
def _count_power_sum_coeff(mu: tuple, target: tuple) -> int:
    """Coefficient of x^target in prod_j (x_1^mu_j + ... + x_k^mu_j)."""
    if not mu:
        return 1 if all(t == 0 for t in target) else 0
    part, rest = mu[0], mu[1:]
    total = 0
    for i, t in enumerate(target):
        if t >= part:
            reduced = (*target[:i], t - part, *target[i + 1 :])
            total += _count_power_sum_coeff(rest, reduced)
    return total


def oracle_character(lam: tuple, mu: tuple) -> int:
    """Frobenius formula: coefficient of x^(lam + delta) in a_delta p_mu."""
    k = max(len(lam), 1)
    padded = (*lam, *(0,) * (k - len(lam)))
    delta = tuple(range(k - 1, -1, -1))
    target = tuple(padded[i] + delta[i] for i in range(k))
    total = 0
    for w in permutations(range(k)):
        sign = _perm_sign(w)
        shifted = tuple(target[i] - delta[w[i]] for i in range(k))
        if any(e < 0 for e in shifted):
            continue
        total += sign * _count_power_sum_coeff(tuple(mu), shifted)
    return total


def _perm_sign(w) -> int:
    sign = 1
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] > w[j]:
                sign = -sign
    return sign


def oracle_class_size(mu: tuple) -> int:
    p = sum(mu)
    centralizer = 1
    for k in set(mu):
        m = mu.count(k)
        centralizer *= k**m * math.factorial(m)
    return math.factorial(p) // centralizer


def oracle_cycle_type(perm: tuple) -> tuple:
    left = set(range(len(perm)))
    lengths = []
    while left:
        start = min(left)
        k, n = start, 0
        while True:
            left.discard(k)
            k = perm[k]
            n += 1
            if k == start:
                break
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def partitions_up_to(p_max):
    for p in range(p_max + 1):
        yield from enumerate_partitions(p)


# -- Partition basics --------------------------------------------------------


class TestPartition:
    def test_rejects_increasing_parts(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_empty_partition(self):
        empty = Partition(())
        assert empty.weight == 0
        assert empty.length == 0
        assert dimension(empty) == 1

    def test_weight_and_length(self):
        lam = Partition((3, 2, 2))
        assert lam.weight == 7
        assert lam.length == 3

    def test_conjugate_known(self):
        assert Partition((3, 1)).conjugate().parts == (2, 1, 1)
        assert Partition((2, 2)).conjugate().parts == (2, 2)

    @given(st.integers(0, MAX_P))
    def test_conjugate_involution(self, p):
        for lam in enumerate_partitions(p):
            assert lam.conjugate().conjugate() == lam


class TestEnumeratePartitions:
    def test_matches_oracle(self):
        for p in range(MAX_P + 1):
            got = [lam.parts for lam in enumerate_partitions(p)]
            assert got == oracle_partitions(p)

    def test_known_counts(self):
        counts = [len(enumerate_partitions(p)) for p in range(8)]
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15]

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            enumerate_partitions(-1)


# -- dimensions ---------------------------------------------------------------


class TestDimension:
    def test_matches_branching_oracle(self):
        for lam in partitions_up_to(MAX_P):
            assert dimension(lam) == oracle_dim(lam.parts)

    def test_known_values(self):
        assert dimension(Partition((2, 1))) == 2
        assert dimension(Partition((3, 2, 1))) == 16
        assert dimension(Partition((4, 2))) == 9

    @given(st.integers(1, MAX_P))
    def test_squares_sum_to_factorial(self, p):
        total = sum(dimension(lam) ** 2 for lam in enumerate_partitions(p))
        assert total == math.factorial(p)

    @given(st.integers(1, MAX_P))
    def test_conjugate_same_dimension(self, p):
        for lam in enumerate_partitions(p):
            assert dimension(lam) == dimension(lam.conjugate())


# -- characters ---------------------------------------------------------------


class TestCharacter:
    def test_matches_frobenius_oracle(self):
        # full cross-check on every (irrep, class) pair through weight 5
        for p in range(1, 6):
            for lam in enumerate_partitions(p):
                for mu in enumerate_partitions(p):
                    assert character(lam, CycleType(mu.parts)) == oracle_character(
                        lam.parts, mu.parts
                    ), (lam, mu)

    def test_frobenius_spot_checks_p6(self):
        cases = [((3, 2, 1), (2, 2, 2)), ((4, 2), (3, 2, 1)), ((2, 2, 1, 1), (6,))]
        for lam, mu in cases:
            assert character(Partition(lam), CycleType(mu)) == oracle_character(lam, mu)

    def test_identity_class_gives_dimension(self):
        for p in range(1, MAX_P + 1):
            ident = CycleType((1,) * p)
            for lam in enumerate_partitions(p):
                assert character(lam, ident) == dimension(lam)

    def test_weight_mismatch_raises(self):
        with pytest.raises(ValueError):
            character(Partition((2,)), CycleType((3,)))

    @given(st.integers(1, MAX_P))
    def test_row_orthogonality(self, p):
        # sum over classes of |C| chi_l chi_m = p! delta_lm, exactly in Z
        classes = conjugacy_classes(p)
        parts = enumerate_partitions(p)
        for i, lam in enumerate(parts):
            for nu in parts[i:]:
                total = sum(
                    size * character(lam, c) * character(nu, c)
                    for c, size in classes
                )
                assert total == (math.factorial(p) if lam == nu else 0)

    @given(st.integers(1, MAX_P))
    def test_conjugate_twists_by_sign(self, p):
        for lam in enumerate_partitions(p):
            for c, _ in conjugacy_classes(p):
                sign = (-1) ** (p - len(c.parts))
                assert character(lam.conjugate(), c) == sign * character(lam, c)


# -- conjugacy classes ---------------------------------------------------------


class TestConjugacyClasses:
    def test_sizes_match_oracle(self):
        for p in range(1, MAX_P + 1):
            for c, size in conjugacy_classes(p):
                assert size == oracle_class_size(c.parts)

    def test_sizes_sum_to_group_order(self):
        for p in range(1, MAX_P + 1):
            assert sum(s for _, s in conjugacy_classes(p)) == math.factorial(p)

    def test_exhaustive_against_s4(self):
        # count elements of each cycle type by enumerating S_4 outright
        from collections import Counter

        counter = Counter()
        for perm in permutations(range(4)):
            counter[oracle_cycle_type(perm)] += 1
        for c, size in conjugacy_classes(4):
            assert counter[c.parts] == size

    @given(st.permutations(list(range(6))))
    def test_cycle_type_of_permutation(self, perm):
        got = cycle_type_of_permutation(tuple(perm))
        assert got.parts == oracle_cycle_type(tuple(perm))

    def test_cycle_types_are_memoized_for_lists_and_tuples(self):
        symcomb._cycle_type.cache_clear()
        perms = list(permutations(range(7)))
        first = [cycle_type_of_permutation(p) for p in perms]
        # list input shares the tuple's entry; S_7 fits without evictions
        again = [cycle_type_of_permutation(list(p)) for p in perms]
        info = symcomb._cycle_type.cache_info()
        assert again == first and (info.hits, info.misses) == (5040, 5040)

    def test_character_is_memoized(self):
        character.cache_clear()
        lam, c = Partition((3, 2, 1)), CycleType((3, 3))
        assert [character(lam, c) for _ in range(3)] == [-2, -2, -2]
        assert character.cache_info().misses == 1


# -- character table -------------------------------------------------------------


class TestCharacterTable:
    def test_entries_match_character(self):
        table = CharacterTable.build(5)
        for i, lam in enumerate(table.partitions):
            for j, c in enumerate(table.classes):
                assert table.values[i][j] == character(lam, c)

    def test_value_lookup(self):
        table = CharacterTable.build(4)
        assert table.value(Partition((2, 2)), CycleType((2, 1, 1))) == 0
        assert table.value(Partition((4,)), CycleType((4,))) == 1

    @settings(deadline=None)
    @given(st.integers(1, MAX_P))
    def test_column_orthogonality_integer_exact(self, p):
        assert CharacterTable.build(p).column_orthogonality_defect() == 0

    def test_second_orthogonality_by_hand(self):
        # column relation: sum_lam chi(c) chi(c') = centralizer * delta
        p = 5
        table = CharacterTable.build(p)
        for j, (c, size) in enumerate(zip(table.classes, table.class_sizes)):
            for k in range(len(table.classes)):
                total = sum(row[j] * row[k] for row in table.values)
                expected = math.factorial(p) // size if j == k else 0
                assert total == expected

    def test_csv_roundtrip(self, tmp_path):
        table = CharacterTable.build(3)
        path = tmp_path / "table.csv"
        table.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        # header, class-size row, then one row per irreducible label
        assert len(rows) == 2 + len(table.partitions)
        assert rows[0][1:] == [str(c) for c in table.classes]
        assert rows[1][0] == "class_size"
        assert [int(x) for x in rows[1][1:]] == list(table.class_sizes)
        body = rows[2:]
        for i, lam in enumerate(table.partitions):
            assert body[i][0] == str(lam)
            assert [int(x) for x in body[i][1:]] == list(table.values[i])

    def test_build_speed_p6(self):
        import time

        start = time.perf_counter()
        table = CharacterTable.build(6)
        assert time.perf_counter() - start < 5.0
        assert len(table.partitions) == 11

    def test_regular_representation_decomposition(self):
        # dim-weighted character sums vanish off the identity class
        p = 5
        table = CharacterTable.build(p)
        dims = [dimension(lam) for lam in table.partitions]
        for j, c in enumerate(table.classes):
            total = sum(d * row[j] for d, row in zip(dims, table.values))
            assert total == (math.factorial(p) if c.parts == (1,) * p else 0)
