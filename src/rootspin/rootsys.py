"""Ordered positive root systems of the complex simple Lie algebras.

Each of the nine families (A, B, C, D, E6, E7, E8, F4, G2) is materialised
as an ordered list of integer vectors in Z^rank.  F4 contains half-integer
roots, so every system carries a global denominator (2 for F4, 1 otherwise)
and stores ``denominator * root`` componentwise; all downstream arithmetic
is pure integer and zero signed sums are invariant under that scaling.

A root is stored as a sparse row: a tuple of ``(coordinate, value)`` pairs
over its nonzero coordinates, in increasing coordinate order, with Python
int entries.  Every classical root has at most two nonzeros except the n
roots ``nu + l_i`` of type A, so the existence path (the 2L obstruction,
the certificate lookups and checks, exact signed sums) does work in the
number of nonzeros, and so does the oracle.  ``RootSystem.roots`` is the
dense (r, ambient_dim) int64 view that only the numpy engines read (brute
force, meet-in-the-middle, enumeration and the witness search): it is built
from the rows on first use, once its 8 * r * ambient_dim bytes are checked
against the memory budget, and cached read-only.

Every byte estimate of the package, the kernels' included, is checked by
``check_budget`` against ``memory_budget()`` before it is allocated.

Every library entry point takes a ``RootSystem`` or a bare integer matrix
of row vectors, and turns it into a ``RootSystem`` with ``as_system``
before anything else: a bare matrix becomes an unnamed system (``id`` is
None, denominator 1) whose dense view is the validated matrix itself and
whose sparse rows are built from it on first use, so an engine that
refuses its r has built none.

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
import resource
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, InternalCheckError, InvalidRankError, ResourceLimitError

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

DEFAULT_MEMORY_BUDGET = 8 << 30  # bytes


def memory_budget() -> int:
    """The bytes an allocation is checked against: ``DEFAULT_MEMORY_BUDGET``,
    or, when a soft address-space limit (``RLIMIT_AS``) is set, the part of
    it the process has not mapped yet, if that is less.  So a capped run is
    refused by its estimate, not by numpy failing to allocate mid-walk."""
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY:
        return DEFAULT_MEMORY_BUDGET
    try:
        with open("/proc/self/statm") as statm:
            mapped = int(statm.read().split()[0]) * resource.getpagesize()
    except OSError:  # no procfs: the limit alone
        mapped = 0
    return min(DEFAULT_MEMORY_BUDGET, soft - mapped)


def check_budget(need: int, budget: int, what: str) -> None:
    """Refuse ``what`` when the ``need`` bytes it would take exceed ``budget``."""
    if need > budget:
        raise ResourceLimitError(
            f"{what} would need about {shown(need)} bytes (> budget {budget})"
        )


def is_int(value) -> bool:
    """True for a Python or numpy integer; bools are not integers here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# At most 617 digits: under the 640 below which str() never refuses an int.
_SHOWN_BITS = 2048


def shown(value) -> str:
    """``value`` as an error text names it: its repr, but an integer
    (``is_int``) in decimal, or, past ``_SHOWN_BITS`` bits, by its sign and
    bit length, since ``str`` refuses an int of more than
    ``sys.get_int_max_str_digits()`` digits."""
    if not is_int(value):
        return repr(value)
    value = int(value)
    if value.bit_length() <= _SHOWN_BITS:
        return str(value)
    return f"{'-' * (value < 0)}<{value.bit_length()}-bit integer>"


def check_limit(limit, name: str) -> int:
    """An engine's largest admitted r as a Python int, refused unless it is
    an integer (not a bool) >= 0."""
    if not is_int(limit) or limit < 0:
        raise DimensionMismatchError(f"{name} must be an integer >= 0, got {shown(limit)}")
    return int(limit)


@dataclass(frozen=True, order=True)
class FamilyRank:
    """A family letter plus rank, validated on construction."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _RANK_RANGES:
            raise InvalidRankError(f"unknown family {shown(self.family)}")
        lo, hi = _RANK_RANGES[self.family]
        if not is_int(self.rank):
            raise InvalidRankError(f"a rank must be an integer, not {type(self.rank).__name__}")
        object.__setattr__(self, "rank", int(self.rank))
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise InvalidRankError(f"{self} is outside the admissible range")

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
        return f"{self.family}{shown(self.rank)}"

    def __repr__(self) -> str:
        return f"FamilyRank(family={self.family!r}, rank={shown(self.rank)})"


Row = tuple[tuple[int, int], ...]  # (coordinate, value) pairs, nonzero values only


@dataclass(frozen=True)
class RootSystem:
    """An ordered positive root system in scaled integer coordinates;
    ``id`` is None for a system made from a bare matrix."""

    id: FamilyRank | None
    rows: tuple[Row, ...] = field(repr=False)
    ambient_dim: int
    denominator: int

    @property
    def r(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:
        return str(self.id or f"the unnamed {self.r} x {self.ambient_dim} matrix")

    @cached_property
    def roots(self) -> np.ndarray:
        """The dense (r, ambient_dim) int64 matrix of the rows, read-only,
        built on first use once its size is checked against the budget."""
        need = 8 * self.r * self.ambient_dim
        check_budget(need, memory_budget(), f"the dense roots of {self}")
        roots = np.zeros((self.r, self.ambient_dim), dtype=np.int64)
        for i, row in enumerate(self.rows):
            for c, x in row:
                roots[i, c] = x
        roots.setflags(write=False)
        return roots


# The results table: every system the CLI ``table`` reports, in print order.
CATALOGUE: tuple[FamilyRank, ...] = tuple(
    FamilyRank(family, n)
    for family, ranks in (("A", range(1, 9)), ("B", range(2, 7)), ("C", range(3, 9)),
                          ("D", range(4, 9)), ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,)))
    for n in ranks
)


def integer_array(values, error: type[Exception]) -> np.ndarray:
    """``values`` as an array, raising ``error`` unless every entry is an
    integer (``is_int``) of any size: floats are refused, never truncated."""
    arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if arr.dtype.kind not in "iu" and not (arr.dtype.kind == "O" and all(map(is_int, arr.flat))):
        raise error("entries must be integers")
    return arr


def int64_array(values, error: type[Exception]) -> np.ndarray:
    """``values`` as an int64 array, raising ``error`` unless every entry is
    an integer that int64 holds exactly: large unsigned values never wrap."""
    arr = integer_array(values, error)
    if arr.size and not -(1 << 63) <= int(arr.min()) <= int(arr.max()) < 1 << 63:
        raise error("entries must fit in int64")
    return arr.astype(np.int64, copy=False)


def sparse_rows(matrix) -> list[Row]:
    """The rows of a dense integer matrix as sparse rows of Python ints."""
    return [tuple((c, int(x)) for c, x in enumerate(row) if x) for row in matrix]


class _MatrixSystem(RootSystem):
    """An unnamed RootSystem whose dense view is a validated int64 matrix:
    its r is the matrix's, and its sparse rows are built on first use."""

    def __init__(self, roots: np.ndarray) -> None:
        self.__dict__.update(id=None, ambient_dim=roots.shape[1], denominator=1, roots=roots)

    @property
    def r(self) -> int:
        return self.roots.shape[0]

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        return tuple(sparse_rows(self.roots.tolist()))


def as_system(system) -> RootSystem:
    """A RootSystem as it is; any other value must be a non-empty integer
    matrix of row vectors, validated once by ``int64_array``, and becomes an
    unnamed RootSystem (denominator 1).  Its dense view is that validated
    array, with no second copy or budget check; a caller's int64 array is
    used as it is and left writeable.  Its sparse rows are built when first
    read, not here."""
    if isinstance(system, RootSystem):
        return system
    roots = int64_array(system, DimensionMismatchError)
    if roots.ndim != 2 or roots.shape[0] == 0 or roots.shape[1] == 0:
        raise DimensionMismatchError("expected a non-empty (r, m) integer matrix")
    return _MatrixSystem(roots)


def row_sum(rows, m: int, terms) -> list[int]:
    """Exact ``sum(s * rows[i])`` over the ``(i, s)`` terms, as m Python ints."""
    total = [0] * m
    for i, s in terms:
        for c, x in rows[i]:
            total[c] += s * x
    return total


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


def _nonzeros(fr: FamilyRank) -> int:
    """Nonzero entries of the roots, by closed form (an upper bound for E, F, G)."""
    n = fr.rank
    if fr.family == "A":
        return n * (n - 1) + n * n
    if fr.family in ("B", "C"):
        return 2 * n * (n - 1) + n
    if fr.family == "D":
        return 2 * n * (n - 1)
    return root_count(fr) * n


def _rows_bytes(fr: FamilyRank) -> int:
    """Upper bound on the bytes ``positive_roots`` allocates for ``fr``.

    A row is a tuple: 40 bytes and 8 per nonzero, plus one slot in the list
    it is built in and one in the tuple it ends in (17 bytes with the list's
    over-allocation), so 64 a row bounds the fixed part.  The pairs are
    shared: at most four distinct values per coordinate, each pair with its
    table entry and coordinate int under 256 bytes.  16 KiB covers the
    builder's own small objects.
    """
    return 64 * root_count(fr) + 8 * _nonzeros(fr) + 1024 * fr.rank + (16 << 10)


def _build_rows(fr: FamilyRank) -> tuple[list[Row], int]:
    """Return (sparse rows, denominator) for the family's scaled root list.

    Each distinct (coordinate, value) pair is one shared tuple."""
    n = fr.rank
    shared: dict[tuple[int, int], tuple[int, int]] = {}

    def row(*entries: tuple[int, int]) -> Row:
        return tuple(shared.setdefault(e, e) for e in entries if e[1])

    def dense(values) -> Row:
        return row(*enumerate(values))

    def ones(*changes: tuple[int, int]) -> Row:
        """The all-ones vector with the given coordinates changed."""
        v = [1] * n
        for c, x in changes:
            v[c] += x
        return dense(v)

    rows = [row((i, 1), (j, -1)) for i, j in _pairs(n)]
    if fr.family == "A":
        rows += [ones((i, 1)) for i in range(n)]
        return rows, 1

    if fr.family in ("B", "C", "D", "F"):
        rows += [row((i, 1), (j, 1)) for i, j in _pairs(n)]
        if fr.family == "B":
            return rows + [row((i, 1)) for i in range(n)], 1
        if fr.family == "C":
            return rows + [row((i, 2)) for i in range(n)], 1
        if fr.family == "D":
            return rows, 1
        # F4: scale everything by 2 so the eight half-roots become integral.
        rows = [row(*((c, 2 * x) for c, x in v)) for v in rows]
        rows += [row((i, 2)) for i in range(4)]
        rows += [dense((1, *signs)) for signs in itertools.product((1, -1), repeat=3)]
        return rows, 2

    if fr.family == "E":
        rows += [row((i, 1), (j, 1), (k, 1)) for i, j, k in itertools.combinations(range(n), 3)]
        if n == 6:
            rows.append(ones())
        elif n == 7:
            rows += [ones((i, -1)) for i in range(7)]
        else:
            rows += [ones((i, 1)) for i in range(8)]
            rows += [ones((i, -1), (j, -1)) for i, j in _pairs(8)]
        return rows, 1

    # G2, exactly in the canonical printed order.
    return [dense(v) for v in ((1, 0), (0, 1), (-1, -1), (1, -1), (1, 2), (2, 1))], 1


def positive_roots(fr: FamilyRank) -> RootSystem:
    """Construct the ordered positive root system for an admissible id.

    Deterministic: repeated calls return identical ordered lists.  The size
    of the sparse rows (``_rows_bytes``) is checked against the memory
    budget (``check_budget``) before anything is built.
    """
    check_budget(_rows_bytes(fr), memory_budget(), f"the roots of {fr}")
    rows, denominator = _build_rows(fr)
    if len(rows) != root_count(fr):
        raise InternalCheckError(f"root count mismatch for {fr}")
    return RootSystem(id=fr, rows=tuple(rows), ambient_dim=fr.rank, denominator=denominator)


def format_root_list(system: RootSystem) -> str:
    """Bit-exact text form: header ``family rank r ambient_dim denominator``,
    then one root per line as space-separated scaled integers."""
    fr = system.id
    if fr is None:
        raise InvalidRankError(f"{system} has no family and rank for the header")
    m = system.ambient_dim
    lines = [f"{fr.family} {fr.rank} {system.r} {m} {system.denominator}"]
    for row in system.rows:
        text = ["0"] * m
        for c, x in row:
            text[c] = str(x)
        lines.append(" ".join(text))
    return "\n".join(lines) + "\n"
