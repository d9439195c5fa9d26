"""Symmetric-group combinatorics: partitions, characters, conjugacy classes.

Everything here is exact integer arithmetic.  Characters come from the
Murnaghan-Nakayama recursion evaluated on first-column hook coordinates
(beta numbers), dimensions from the hook-length formula, and class sizes
from the centralizer order.  These feed the Young projections and the
trace tables downstream.

Classes
-------
Partition
    Weakly decreasing tuple of positive integers.
CycleType
    A partition reinterpreted as the cycle lengths of a conjugacy class.
CharacterTable
    Full integer character table of the symmetric group S_p.

Functions
---------
enumerate_partitions
    All partitions of p in lexicographically decreasing order.
dimension
    Number of standard Young tableaux (hook-length formula).
character
    Irreducible character value via Murnaghan-Nakayama.
conjugacy_classes
    Cycle types with class sizes.
permutation_cycles
    Cycles of an explicit permutation, each from its smallest point.
cycle_type_of_permutation
    Cycle type of an explicit permutation, as a CycleType.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing sequence of positive integers.

    Parameters
    ----------
    parts : tuple of int
        The parts, largest first.  The empty tuple is the unique
        partition of 0.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(x) for x in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(x < 1 for x in parts):
            raise ValueError(f"parts must be positive, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")

    @property
    def weight(self) -> int:
        """Sum of the parts."""
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self.parts:
            return Partition(())
        cols = tuple(
            sum(1 for x in self.parts if x > j) for j in range(self.parts[0])
        )
        return Partition(cols)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.parts) + ")"


class CycleType(Partition):
    """A partition of p read as cycle lengths of a class of S_p."""


def enumerate_partitions(p: int) -> list[Partition]:
    """All partitions of ``p``, lexicographically decreasing.

    The order starts at the single-row partition ``(p)`` and ends at the
    single-column partition ``(1, ..., 1)``; ``p = 0`` yields the empty
    partition only.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    return [Partition(t) for t in _partition_tuples(p, p)]


def _partition_tuples(n: int, max_part: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    for first in range(min(n, max_part), 0, -1):
        out.extend((first, *rest) for rest in _partition_tuples(n - first, first))
    return out


def dimension(lam: Partition) -> int:
    """Number of standard Young tableaux of shape ``lam``.

    Hook-length formula: p! divided by the product of all hook lengths.
    The division is exact in integers.
    """
    parts = lam.parts
    if not parts:
        return 1
    conj = lam.conjugate().parts
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return math.factorial(lam.weight) // hooks


@lru_cache(maxsize=4096)
def character(lam: Partition, c: Partition) -> int:
    """Irreducible character of S_p indexed by ``lam`` at class ``c``.

    Murnaghan-Nakayama recursion on beta numbers: removing a border
    strip of length t moves one beta number down by t, with sign
    (-1)^(strip height - 1), the height being the count of beta numbers
    jumped over.  Memoized: a Young projection asks once per permutation.
    """
    if lam.weight != c.weight:
        raise ValueError(
            f"partition weight {lam.weight} != cycle type weight {c.weight}"
        )
    rows = max(len(lam.parts), 1)
    padded = lam.parts + (0,) * (rows - len(lam.parts))
    beta = tuple(sorted(padded[i] + (rows - 1 - i) for i in range(rows)))
    cycles = tuple(sorted(c.parts, reverse=True))
    return _mn_recurse(beta, cycles)


@lru_cache(maxsize=None)
def _mn_recurse(beta: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1
    t, rest = cycles[0], cycles[1:]
    occupied = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in occupied:
            continue
        height = sum(1 for x in beta if nb < x < b)
        moved = tuple(sorted(occupied - {b} | {nb}))
        term = _mn_recurse(moved, rest)
        total += -term if height % 2 else term
    return total


def conjugacy_classes(p: int) -> list[tuple[CycleType, int]]:
    """Cycle types of S_p with their class sizes.

    Sizes are p! over the centralizer order prod_k k^(m_k) * m_k! where
    m_k counts parts equal to k; they sum to p!.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    out = []
    for lam in enumerate_partitions(p):
        mult: dict[int, int] = {}
        for part in lam.parts:
            mult[part] = mult.get(part, 0) + 1
        centralizer = 1
        for k, m in mult.items():
            centralizer *= k**m * math.factorial(m)
        out.append((CycleType(lam.parts), math.factorial(p) // centralizer))
    return out


@lru_cache(maxsize=1024)
def permutation_cycles(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Cycles of a permutation in one-line form on 0..m-1, each from its
    smallest point: (k, perm(k), perm(perm(k)), ...)."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        k, cycle = start, []
        while not seen[k]:
            seen[k] = True
            cycle.append(k)
            k = perm[k]
        if cycle:
            out.append(tuple(cycle))
    return tuple(out)


def cycle_type_of_permutation(perm: tuple[int, ...]) -> CycleType:
    """Cycle type of a permutation given in one-line form on 0..m-1."""
    return _cycle_type(tuple(perm))


@lru_cache(maxsize=8192)  # S_7's 5,040 permutations fit
def _cycle_type(perm: tuple[int, ...]) -> CycleType:
    return CycleType(tuple(sorted((len(c) for c in permutation_cycles(perm)), reverse=True)))


@dataclass(frozen=True)
class CharacterTable:
    """Integer character table of S_p.

    Rows are indexed by the irreducible labels (partitions), columns by
    conjugacy classes (cycle types), both in the order of
    :func:`enumerate_partitions`.
    """

    p: int
    partitions: tuple[Partition, ...]
    classes: tuple[CycleType, ...]
    class_sizes: tuple[int, ...]
    values: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, p: int) -> "CharacterTable":
        partitions = tuple(enumerate_partitions(p))
        pairs = conjugacy_classes(p)
        classes = tuple(c for c, _ in pairs)
        sizes = tuple(s for _, s in pairs)
        values = tuple(
            tuple(character(lam, c) for c in classes) for lam in partitions
        )
        return cls(p, partitions, classes, sizes, values)

    def value(self, lam: Partition, c: Partition) -> int:
        i = self.partitions.index(Partition(lam.parts))
        j = self.classes.index(CycleType(c.parts))
        return self.values[i][j]

    def column_orthogonality_defect(self) -> int:
        """Largest deviation from the column orthogonality relations.

        sum_lam chi(c) * chi(c') equals p!/|c| when c = c' and 0
        otherwise; returns max |lhs - rhs| over all column pairs, so 0
        means the table is exactly orthogonal.
        """
        fact = math.factorial(self.p)
        worst = 0
        for j, size_j in enumerate(self.class_sizes):
            for k in range(len(self.classes)):
                lhs = sum(row[j] * row[k] for row in self.values)
                rhs = fact // size_j if j == k else 0
                worst = max(worst, abs(lhs - rhs))
        return worst

    def to_csv(self, path: str | Path) -> None:
        """Write the table as CSV: one row per partition, one column per class."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["partition"] + [str(c) for c in self.classes])
            writer.writerow(["class_size"] + [str(s) for s in self.class_sizes])
            for lam, row in zip(self.partitions, self.values):
                writer.writerow([str(lam)] + [str(v) for v in row])
