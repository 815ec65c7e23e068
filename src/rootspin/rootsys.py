"""Ordered positive root systems of the complex simple Lie algebras.

Each of the nine families (A, B, C, D, E6, E7, E8, F4, G2) is materialised
as an ordered list of integer vectors in Z^rank.  F4 contains half-integer
roots, so every system carries a global denominator (2 for F4, 1 otherwise)
and stores ``denominator * root`` componentwise; all downstream arithmetic
is pure integer and zero signed sums are invariant under that scaling.

A root is stored as a sparse row: a tuple of ``(coordinate, value)`` pairs
over its nonzero coordinates, in increasing coordinate order, with Python
int entries.  ``check_row`` is the rule every row meets, and ``RootSystem``
applies it to each row it is given, so every system is valid.  Only
``positive_roots`` makes a named system (``id`` a FamilyRank), so an id
names the system's own rows.  The ambient dimension m is checked once, where
a system is made: the budget must hold one dense sum of its rows, the m
Python ints that ``row_sum`` returns, so every system is summable and no
reader of m checks it again.  Every classical root has at most two nonzeros
except the n roots ``nu + l_i`` of type A, so the existence path (the 2L
obstruction, the certificate checks, exact signed sums) does work in the
number of nonzeros, and so does the oracle.  ``RootSystem.roots`` is the
dense (r, ambient_dim) int64 view that only the numpy engines read (brute
force, meet-in-the-middle, enumeration and the witness search).  A system
stores the view it was made from, and its r; the other view is built from
it on first use, once its size is checked against the memory budget, and
cached: the dense view read-only, in 8 * r * ambient_dim bytes.

Every byte estimate of the package, the kernels' included, is checked by
``check_budget`` against ``memory_budget()`` before it is allocated.

Every library entry point takes a ``RootSystem`` or a bare integer matrix
of row vectors, and turns it into a ``RootSystem`` with ``as_system``
before anything else: a bare matrix becomes an unnamed system (``id`` is
None, denominator 1) that stores the validated matrix as its dense view,
so an engine that refuses its r has built no sparse rows.  Its rows are
built from a read-only copy of the matrix, which then replaces it as the
dense view, so the two views always agree.  It equals, and hashes like,
the system made from the same rows.

The order of the list is part of the public contract (sign vectors and
certificates are indexed by position).  With l_1, ..., l_n the coordinates
and nu = l_1 + ... + l_n, each family's roots are patterns (``PATTERNS``),
emitted in this order (``root_patterns``), and within a pattern
lexicographically on the subscripts (i), (i, j) or (i, j, k), i < j < k:

    A   l_i - l_j, nu + l_i
    B   l_i - l_j, l_i + l_j, l_i
    C   l_i - l_j, l_i + l_j, 2l_i
    D   l_i - l_j, l_i + l_j
    E6  l_i - l_j, l_i + l_j + l_k, nu
    E7  l_i - l_j, l_i + l_j + l_k, nu - l_i
    E8  l_i - l_j, l_i + l_j + l_k, nu + l_i, nu - l_i - l_j
    F4  l_i - l_j, l_i + l_j, l_i, then the eight half roots

F4's roots are stored doubled; its half roots (l_1 +- l_2 +- l_3 +- l_4)/2
are ordered lexicographically on their sign pattern, plus before minus.  G2
is a fixed six-element list.  So a root's position is its pattern's offset
plus the rank of its subscripts, and ``root_indexer`` computes it without
building the roots: that is how the certificates name their roots.
"""

from __future__ import annotations

import itertools
import resource
from functools import cached_property, total_ordering
from math import comb

import numpy as np

from .errors import (
    DimensionMismatchError, IndexOutOfRangeError, InternalCheckError, InvalidRankError,
    ResourceLimitError,
)

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


class Record:
    """Base of the package's immutable value classes.

    A subclass names its fields, in order, in ``__match_args__`` and stores
    them through ``__dict__``, in its own ``__init__`` but for the one field
    it does not take, ``RootSystem.id``.  Two records are equal, and hash
    alike, when they are of the same class and their fields are equal; the
    repr names every field; assigning or deleting an attribute raises
    ``AttributeError``.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Postponed evaluation keeps ``-> None`` as the string 'None'; store
        # None itself, so that inspect.signature shows it bare.
        cls.__init__.__annotations__["return"] = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class FamilyRank(Record):
    """A family letter plus rank, validated on construction; ordered by
    family, then rank."""

    __match_args__ = ("family", "rank")

    def __init__(self, family: str, rank: int) -> None:
        if not isinstance(family, str) or family not in _RANK_RANGES:
            raise InvalidRankError(f"unknown family {shown(family)}")
        lo, hi = _RANK_RANGES[family]
        if not is_int(rank):
            raise InvalidRankError(f"a rank must be an integer, not {type(rank).__name__}")
        self.__dict__.update(family=family, rank=int(rank))
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise InvalidRankError(f"{self} is outside the admissible range")

    @classmethod
    def parse(cls, text: str) -> "FamilyRank":
        """Parse compact labels such as ``'E6'`` or ``'A12'``."""
        if not isinstance(text, str):
            raise InvalidRankError(f"a family and rank label must be a string, not "
                                   f"{type(text).__name__}")
        text = text.strip()
        if len(text) < 2:
            raise InvalidRankError(f"cannot parse family/rank from {text!r}")
        try:
            rank = int(text[1:])
        except ValueError as exc:
            raise InvalidRankError(f"cannot parse rank from {text!r}") from exc
        return cls(text[0].upper(), rank)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() < other._values()

    def __str__(self) -> str:
        return f"{self.family}{shown(self.rank)}"

    def __repr__(self) -> str:
        return f"FamilyRank(family={self.family!r}, rank={shown(self.rank)})"


def check_family_rank(fr) -> FamilyRank:
    """``fr`` itself, refused with ``InvalidRankError`` unless it is a FamilyRank."""
    if not isinstance(fr, FamilyRank):
        raise InvalidRankError(f"expected a FamilyRank, got {type(fr).__name__}")
    return fr


Row = tuple[tuple[int, int], ...]  # (coordinate, value) pairs, nonzero values only


def check_row(row, m: int) -> dict[int, int]:
    """The sparse row ``row`` as a ``{coordinate: value}`` dict of Python
    ints, in the row's order: an iterable of ``(coordinate, value)`` pairs
    of integers (``is_int``; numpy integers become Python ints) over
    distinct coordinates in ``[0, m)``, with nonzero values.  Anything else
    raises ``DimensionMismatchError``.  This is the one copy of the row
    rule: ``RootSystem`` applies it to every row it is given, and
    ``sigsum.hnf`` to each row as it inserts it."""
    v = {}
    try:
        for c, x in row:
            if type(c) is not int or type(x) is not int:
                if not (is_int(c) and is_int(x)):
                    raise DimensionMismatchError("sparse row entries must be integers")
                c, x = int(c), int(x)
            if not 0 <= c < m or not x or c in v:
                raise DimensionMismatchError(
                    f"sparse rows need distinct coordinates in [0, {shown(m)}) and nonzero values"
                )
            v[c] = x
    except (TypeError, ValueError):
        raise DimensionMismatchError("a sparse row entry is not a pair") from None
    return v


def _check_summable(m: int) -> None:
    """Refuse, before any row is read, an ambient dimension ``m`` whose one
    dense row sum would outgrow the budget: 16 bytes a coordinate, the
    8-byte slot of the list ``row_sum`` builds and as much again for its
    entries, which are mostly zero or small and so shared."""
    check_budget(16 * m, memory_budget(), f"a row sum in dimension {shown(m)}")


class RootSystem(Record):
    """An ordered positive root system in scaled integer coordinates;
    ``id`` is the FamilyRank of a system made by ``positive_roots``, and
    None for every other: the constructor takes no id.

    Every system is valid: ``ambient_dim`` and ``denominator`` must be
    integers >= 1, and ``rows`` a non-empty iterable of rows that
    ``check_row`` admits (else ``DimensionMismatchError``).  An
    ``ambient_dim`` whose one dense row sum the memory budget cannot hold
    raises ``ResourceLimitError`` before any row is read.  The rows are
    stored as a tuple of ``(coordinate, value)`` tuples of Python ints,
    each row in increasing coordinate order, and ``r`` as their number.
    ``as_system`` stores a matrix as ``roots`` instead; each view is built
    from the other when first read."""

    __match_args__ = ("id", "rows", "ambient_dim", "denominator")

    def __init__(self, rows: tuple[Row, ...], ambient_dim: int, denominator: int) -> None:
        for name, value in (("ambient dimension", ambient_dim), ("denominator", denominator)):
            if not is_int(value) or value < 1:
                raise DimensionMismatchError(
                    f"the {name} must be an integer >= 1, got {shown(value)}"
                )
        m = int(ambient_dim)
        _check_summable(m)
        try:
            rows = tuple(tuple(sorted(check_row(row, m).items())) for row in rows)
        except TypeError:
            raise DimensionMismatchError("the rows must be an iterable of sparse rows") from None
        if not rows:
            raise DimensionMismatchError("a root system needs at least one row")
        self.__dict__.update(id=None, rows=rows, r=len(rows), ambient_dim=m,
                             denominator=int(denominator))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(id={self.id!r}, ambient_dim={self.ambient_dim!r}, "
                f"denominator={self.denominator!r})")

    def __str__(self) -> str:
        return str(self.id or f"the unnamed {shown(self.r)} x {shown(self.ambient_dim)} matrix")

    @cached_property
    def roots(self) -> np.ndarray:
        """The dense (r, ambient_dim) int64 matrix of the rows, read-only,
        built on first use once its size is checked against the budget; an
        entry that int64 does not hold raises ``DimensionMismatchError``."""
        need = 8 * self.r * self.ambient_dim
        check_budget(need, memory_budget(), f"the dense roots of {self}")
        roots = np.zeros((self.r, self.ambient_dim), dtype=np.int64)
        try:
            for i, row in enumerate(self.rows):
                for c, x in row:
                    roots[i, c] = x
        except OverflowError:
            raise DimensionMismatchError(f"the dense roots of {self} must fit in int64") from None
        roots.setflags(write=False)
        return roots

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        """The sparse rows of the dense view, built on first use once their
        size is checked against the budget.  The dense view is first
        replaced by a read-only copy, 8 bytes a coordinate, that the rows
        are built from, so a caller who later writes to the matrix the
        system was made from changes neither view.  A row's list from
        ``tolist`` and its tuple take 96 bytes and 8 a coordinate, and a
        nonzero its pair, value and coordinate, under 128 bytes."""
        r, m = self.roots.shape
        need = r * (96 + 16 * m) + 128 * int(np.count_nonzero(self.roots))
        check_budget(need, memory_budget(), f"the sparse rows of {self}")
        roots = self.roots.copy()
        roots.setflags(write=False)
        self.__dict__["roots"] = roots
        return tuple(sparse_rows(roots.tolist()))


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


def as_system(system) -> RootSystem:
    """A RootSystem as it is; any other value must be a non-empty integer
    matrix of row vectors, validated once by ``int64_array``, and becomes an
    unnamed RootSystem (denominator 1), once its m passes the check every
    system's does.  Its dense view is that validated array, with no second
    copy or budget check, until its sparse rows are first read: they are
    budgeted and built from a read-only copy that becomes the dense view."""
    if isinstance(system, RootSystem):
        return system
    roots = int64_array(system, DimensionMismatchError)
    if roots.ndim != 2 or roots.shape[0] == 0 or roots.shape[1] == 0:
        raise DimensionMismatchError("expected a non-empty (r, m) integer matrix")
    _check_summable(roots.shape[1])
    system = RootSystem.__new__(RootSystem)
    system.__dict__.update(id=None, roots=roots, r=roots.shape[0], ambient_dim=roots.shape[1],
                           denominator=1)
    return system


def row_sum(rows, m: int, terms) -> list[int]:
    """Exact ``sum(s * rows[i])`` over the ``(i, s)`` terms, as m Python ints.
    It checks no budget: the m of every system was checked when it was made."""
    total = [0] * m
    for i, s in terms:
        for c, x in rows[i]:
            total[c] += s * x
    return total


def root_count(fr: FamilyRank) -> int:
    """Number of positive roots, by closed form (no list is materialised);
    anything but a FamilyRank raises ``InvalidRankError``."""
    n = check_family_rank(fr).rank
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


def weyl_order_v2(fr: FamilyRank) -> int:
    """The exponent of 2 in the order of the Weyl group, by closed form, so
    that no order is built at any rank; anything but a FamilyRank raises
    ``InvalidRankError``.

    |W| is (n+1)! for A_n, 2^n n! for B_n and C_n and 2^(n-1) n! for D_n,
    and Legendre's formula gives v2(m!) = m - (the number of 1 bits of m).
    """
    n = check_family_rank(fr).rank
    if fr.family == "A":
        return n + 1 - (n + 1).bit_count()
    if fr.family in ("B", "C"):
        return n + n - n.bit_count()
    if fr.family == "D":
        return n - 1 + n - n.bit_count()
    return {"E6": 7, "E7": 10, "E8": 14, "F4": 7, "G2": 2}[str(fr)]


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
    table entry, its coordinate int and the list slots that hold it by
    coordinate under 256 bytes.  16 KiB covers the builder's own small
    objects.
    """
    return 64 * root_count(fr) + 8 * _nonzeros(fr) + 1024 * fr.rank + (16 << 10)


# The roots of each family other than G2, as patterns in l_1, ..., l_n and
# nu = l_1 + ... + l_n, in the order ``positive_roots`` emits them.  A
# pattern is nu's coefficient and its subscripts' coefficients: the roots of
# "l_i - l_j" are l_i - l_j for every 1 <= i < j <= n.  F4's list is scaled
# by 2 and followed by its eight half roots.
PATTERNS: dict[str, tuple[int, tuple[int, ...]]] = {
    "l_i - l_j": (0, (1, -1)),
    "l_i + l_j": (0, (1, 1)),
    "l_i": (0, (1,)),
    "2l_i": (0, (2,)),
    "l_i + l_j + l_k": (0, (1, 1, 1)),
    "nu": (1, ()),
    "nu + l_i": (1, (1,)),
    "nu - l_i": (1, (-1,)),
    "nu - l_i - l_j": (1, (-1, -1)),
}
_ORDER = {
    "A": ("l_i - l_j", "nu + l_i"),
    "B": ("l_i - l_j", "l_i + l_j", "l_i"),
    "C": ("l_i - l_j", "l_i + l_j", "2l_i"),
    "D": ("l_i - l_j", "l_i + l_j"),
    "E6": ("l_i - l_j", "l_i + l_j + l_k", "nu"),
    "E7": ("l_i - l_j", "l_i + l_j + l_k", "nu - l_i"),
    "E8": ("l_i - l_j", "l_i + l_j + l_k", "nu + l_i", "nu - l_i - l_j"),
    "F4": ("l_i - l_j", "l_i + l_j", "l_i"),
    "G2": (),
}


def root_patterns(fr: FamilyRank) -> tuple[str, ...]:
    """The names of ``fr``'s root patterns (keys of ``PATTERNS``), in the
    order ``positive_roots`` emits them; anything but a FamilyRank raises
    ``InvalidRankError``."""
    return _ORDER.get(check_family_rank(fr).family) or _ORDER[str(fr)]


def root_indexer(fr: FamilyRank, pattern: str):
    """The function that gives the position in ``positive_roots(fr)`` of the
    root of ``pattern`` (a key of ``PATTERNS``) with the subscripts
    i < j < k, from 1 to n, found without building the roots.

    A position is the number of roots of the patterns before ``pattern``
    plus the rank of the subscripts among the increasing t-tuples, in
    lexicographic order: C(n, t) - 1 - sum over p of C(n - s_p, t - p),
    for the t subscripts s_0 < s_1 < ... (p from 0).  Anything but a
    FamilyRank raises ``InvalidRankError``; a pattern that ``fr`` does not
    have, or subscripts that are not t increasing integers in 1..n, raise
    ``IndexOutOfRangeError``.
    """
    patterns = root_patterns(fr)
    if pattern not in patterns:
        raise IndexOutOfRangeError(f"{fr} has no roots {pattern!r}")
    n, t = fr.rank, len(PATTERNS[pattern][1])
    # the position of the pattern's last root
    last = sum(comb(n, len(PATTERNS[name][1])) for name in patterns[:patterns.index(pattern) + 1]) - 1

    def refuse(subscripts):
        raise IndexOutOfRangeError(
            f"the roots {pattern} of {fr} take {t} increasing subscripts in 1..{shown(n)}, "
            f"not ({', '.join(map(shown, subscripts))})"
        )

    def index(*subscripts: int) -> int:
        if len(subscripts) != t:
            refuse(subscripts)
        at, s = last, 0
        for p, next_s in enumerate(subscripts):
            if type(next_s) is not int or not s < next_s <= n:
                refuse(subscripts)
            s = next_s
            at -= comb(n - s, t - p)
        return at

    return index


def _build_rows(fr: FamilyRank) -> tuple[list[Row], int]:
    """Return (sparse rows, denominator) for the family's scaled root list,
    pattern by pattern (``root_patterns``).

    Each distinct (coordinate, value) pair is one shared tuple."""
    n = fr.rank
    shared: dict[tuple[int, int], tuple[int, int]] = {}

    def dense(values) -> Row:
        return tuple(shared.setdefault(e, e) for e in enumerate(values) if e[1])

    if fr.family == "G":  # exactly in the canonical printed order
        return [dense(v) for v in ((1, 0), (0, 1), (-1, -1), (1, -1), (1, 2), (2, 1))], 1
    scale = 2 if fr.family == "F" else 1  # so that F4's eight half roots are integral
    rows: list[Row] = []
    for name in root_patterns(fr):
        nu, coefficients = PATTERNS[name]
        subscripts = itertools.combinations(range(n), len(coefficients))
        if nu:
            for changed in subscripts:
                v = [nu] * n
                for c, x in zip(changed, coefficients):
                    v[c] += x
                rows.append(dense(v))
        else:
            # entries[p][c] is the pair (c, coefficient p), so a row is a lookup per subscript
            entries = [[shared.setdefault(e, e) for e in ((c, scale * x) for c in range(n))]
                       for x in coefficients]
            rows += [tuple(map(list.__getitem__, entries, subs)) for subs in subscripts]
    if scale == 2:
        rows += [dense((1, *signs)) for signs in itertools.product((1, -1), repeat=3)]
    return rows, scale


def positive_roots(fr: FamilyRank) -> RootSystem:
    """Construct the ordered positive root system for an admissible id.

    Deterministic: repeated calls return identical ordered lists.  The size
    of the sparse rows (``_rows_bytes``) is checked against the memory
    budget (``check_budget``) before anything is built.  Anything but a
    FamilyRank raises ``InvalidRankError``.
    """
    check_family_rank(fr)
    check_budget(_rows_bytes(fr), memory_budget(), f"the roots of {fr}")
    rows, denominator = _build_rows(fr)
    if len(rows) != root_count(fr):
        raise InternalCheckError(f"root count mismatch for {fr}")
    # Valid as built, so stored as ``as_system`` stores its matrix, without
    # ``RootSystem.__init__``'s checks: the rows keep their shared pairs,
    # and ``_rows_bytes`` >= 16 * rank already budgets a row sum.
    system = RootSystem.__new__(RootSystem)
    system.__dict__.update(id=fr, rows=tuple(rows), r=len(rows), ambient_dim=fr.rank,
                           denominator=denominator)
    return system


def format_root_list(system: RootSystem) -> str:
    """Bit-exact text form: header ``family rank r ambient_dim denominator``,
    then one root per line as space-separated scaled integers.

    ``system`` goes through ``as_system``, so anything but a RootSystem or an
    integer matrix raises ``DimensionMismatchError``; an unnamed system has
    no header and raises ``InvalidRankError``.  The text, about 2 * m
    characters a line for r lines, built once as lines and once joined, is
    checked against the budget before any line is built."""
    system = as_system(system)
    fr = system.id
    if fr is None:
        raise InvalidRankError(f"{system} has no family and rank for the header")
    m = system.ambient_dim
    check_budget(4 * m * system.r, memory_budget(), f"the root list of {system}")
    lines = [f"{fr.family} {fr.rank} {system.r} {m} {system.denominator}"]
    for row in system.rows:
        text = ["0"] * m
        for c, x in row:
            text[c] = str(x)
        lines.append(" ".join(text))
    return "\n".join(lines) + "\n"
