"""Ordered positive root systems of the complex simple Lie algebras.

Each of the nine families (A, B, C, D, E6, E7, E8, F4, G2) is materialised
as an ordered list of integer vectors in Z^rank.  F4 contains half-integer
roots, so every system carries a global denominator (2 for F4, 1 otherwise)
and stores ``denominator * root`` componentwise; all downstream arithmetic
is pure integer and zero signed sums are invariant under that scaling.

The order of the list is part of the public contract (sign vectors and
certificates are indexed by position): root patterns are emitted top to
bottom in the order listed below per family, and within a pattern
lexicographically on the index tuple (i), (i, j) or (i, j, k).  The eight
F4 half-roots are ordered lexicographically on their sign pattern, plus
before minus, applied to the last three coordinates.  G2 is a fixed
six-element list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidRankError, ResourceLimitError

# Admissible rank ranges; anything else is rejected, never remapped to an
# isomorphic family (e.g. C2 is not treated as B2).
_RANK_RANGES = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True, order=True)
class FamilyRank:
    """A family letter plus rank, validated on construction."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _RANK_RANGES:
            raise InvalidRankError(f"unknown family {self.family!r}")
        lo, hi = _RANK_RANGES[self.family]
        if type(self.rank) is not int or self.rank < lo or (hi is not None and self.rank > hi):
            raise InvalidRankError(f"{self.family}{self.rank} is outside the admissible range")

    @classmethod
    def parse(cls, text: str) -> "FamilyRank":
        """Parse compact labels such as ``'E6'`` or ``'A12'``."""
        text = text.strip()
        if len(text) < 2:
            raise InvalidRankError(f"cannot parse family/rank from {text!r}")
        try:
            rank = int(text[1:])
        except ValueError as exc:
            raise InvalidRankError(f"cannot parse rank from {text!r}") from exc
        return cls(text[0].upper(), rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class RootSystem:
    """An ordered positive root system in scaled integer coordinates."""

    id: FamilyRank
    roots: np.ndarray = field(repr=False)  # (r, ambient_dim) int64, read-only
    denominator: int

    @property
    def r(self) -> int:
        return self.roots.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.roots.shape[1]


# The results table: every system the CLI ``table`` reports, in print order.
CATALOGUE: tuple[FamilyRank, ...] = tuple(
    FamilyRank(family, n)
    for family, ranks in (("A", range(1, 9)), ("B", range(2, 7)), ("C", range(3, 9)),
                          ("D", range(4, 9)), ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,)))
    for n in ranks
)


def int64_array(values, error: type[Exception]) -> np.ndarray:
    """``values`` as an int64 array, raising ``error`` unless every entry is
    an integer (not a bool) that int64 holds exactly: floats are refused,
    never truncated, and large unsigned values never wrap."""
    arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if arr.dtype.kind not in "iu" and not (
        arr.dtype.kind == "O"
        and all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in arr.flat)
    ):
        raise error("entries must be integers")
    if arr.size and not -(1 << 63) <= int(arr.min()) <= int(arr.max()) < 1 << 63:
        raise error("entries must fit in int64")
    return arr.astype(np.int64, copy=False)


def system_parts(system) -> tuple[np.ndarray, int]:
    """Roots and denominator of a RootSystem, or of any integer matrix of
    row vectors (denominator 1)."""
    if isinstance(system, RootSystem):
        return system.roots, system.denominator
    roots = int64_array(system, DimensionMismatchError)
    if roots.ndim != 2 or roots.shape[0] == 0 or roots.shape[1] == 0:
        raise DimensionMismatchError("expected a non-empty (r, m) integer matrix")
    return roots, 1


def exact_products(signs: np.ndarray, roots: np.ndarray) -> list[list[int]]:
    """The rows of ``signs @ roots`` as exact Python ints, for a 2-D int64
    ``signs`` with entries in {-1, 0, 1} over r < 2^31 roots.

    int64 products wrap once r * max|a| reaches 2^63, so past that bound
    each entry of ``roots`` is split as ``(high << 31) + low``: the parts
    ``roots >> 31`` sum to below r * 2^32 and the low 31 bits to below
    r * 2^31, so neither product wraps."""
    if max(-int(roots.min()), int(roots.max())) * roots.shape[0] < 1 << 63:
        return (signs @ roots).tolist()
    high = (signs @ (roots >> 31)).tolist()
    low = (signs @ (roots & (2**31 - 1))).tolist()
    return [[(h << 31) + lo for h, lo in zip(hs, ls)] for hs, ls in zip(high, low)]


def root_count(fr: FamilyRank) -> int:
    """Number of positive roots, by closed form (no list is materialised)."""
    n = fr.rank
    if fr.family == "A":
        return n * (n + 1) // 2
    if fr.family in ("B", "C"):
        return n * n
    if fr.family == "D":
        return n * (n - 1)
    if fr.family == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    if fr.family == "F":
        return 24
    return 6  # G2


def _pairs(n: int):
    return itertools.combinations(range(n), 2)


def _build_rows(fr: FamilyRank) -> tuple[list[list[int]], int]:
    """Return (rows, denominator) for the family's scaled root list."""
    n = fr.rank
    rows: list[list[int]] = []

    def basis(i: int, value: int = 1) -> list[int]:
        v = [0] * n
        v[i] = value
        return v

    if fr.family == "A":
        for i, j in _pairs(n):
            v = basis(i)
            v[j] -= 1
            rows.append(v)
        for i in range(n):
            v = [1] * n
            v[i] += 1
            rows.append(v)
        return rows, 1

    if fr.family in ("B", "C", "D", "F"):
        for i, j in _pairs(n):
            v = basis(i)
            v[j] -= 1
            rows.append(v)
        for i, j in _pairs(n):
            v = basis(i)
            v[j] += 1
            rows.append(v)
        if fr.family == "B":
            for i in range(n):
                rows.append(basis(i))
            return rows, 1
        if fr.family == "C":
            for i in range(n):
                rows.append(basis(i, 2))
            return rows, 1
        if fr.family == "D":
            return rows, 1
        # F4: scale everything by 2 so the eight half-roots become integral.
        rows = [[2 * x for x in v] for v in rows]
        for i in range(4):
            rows.append(basis(i, 2))
        for signs in itertools.product((1, -1), repeat=3):
            rows.append([1, signs[0], signs[1], signs[2]])
        return rows, 2

    if fr.family == "E":
        for i, j in _pairs(n):
            v = basis(i)
            v[j] -= 1
            rows.append(v)
        for i, j, k in itertools.combinations(range(n), 3):
            v = [0] * n
            v[i] = v[j] = v[k] = 1
            rows.append(v)
        if n == 6:
            rows.append([1] * 6)
        elif n == 7:
            for i in range(7):
                v = [1] * 7
                v[i] -= 1
                rows.append(v)
        else:
            for i in range(8):
                v = [1] * 8
                v[i] += 1
                rows.append(v)
            for i, j in _pairs(8):
                v = [1] * 8
                v[i] -= 1
                v[j] -= 1
                rows.append(v)
        return rows, 1

    # G2, exactly in the canonical printed order.
    return [[1, 0], [0, 1], [-1, -1], [1, -1], [1, 2], [2, 1]], 1


def positive_roots(fr: FamilyRank) -> RootSystem:
    """Construct the ordered positive root system for an admissible id.

    Deterministic: repeated calls return identical ordered lists.  The size
    is checked against ``sigsum.DEFAULT_MEMORY_BUDGET`` before anything is
    built: the row lists and the int64 matrix take about 16 bytes an entry.
    """
    from . import sigsum  # sigsum imports this module

    estimate = 16 * root_count(fr) * fr.rank
    if estimate > sigsum.DEFAULT_MEMORY_BUDGET:
        raise ResourceLimitError(
            f"the roots of {fr} would need about {estimate} bytes "
            f"(> budget {sigsum.DEFAULT_MEMORY_BUDGET})"
        )
    rows, denominator = _build_rows(fr)
    roots = np.array(rows, dtype=np.int64)
    roots.setflags(write=False)
    if roots.shape[0] != root_count(fr):
        raise AssertionError(f"root count mismatch for {fr}")
    return RootSystem(id=fr, roots=roots, denominator=denominator)


def root_index_map(system: RootSystem) -> dict[tuple[int, ...], int]:
    """Map each scaled coordinate tuple to its position in the canonical order."""
    # Row by row, so no second full copy of the roots is held at once.
    return {tuple(row.tolist()): i for i, row in enumerate(system.roots)}


def format_root_list(system: RootSystem) -> str:
    """Bit-exact text form: header ``family rank r ambient_dim denominator``,
    then one root per line as space-separated scaled integers."""
    fr = system.id
    lines = [f"{fr.family} {fr.rank} {system.r} {system.ambient_dim} {system.denominator}"]
    for row in system.roots:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"
