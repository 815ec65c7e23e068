"""Existence and exact counting of zero signed root sums.

Given roots a_1..a_r (rows of an integer matrix), the central question is
whether signs e_i in {+1, -1} exist with sum(e_i * a_i) = 0, and in how many
ways.  Three routes are implemented and cross-checked:

* ``count_bruteforce``: exhaustive enumeration of the 2^(r-1) sign vectors
  with root 0 positive, doubled (blocked prefix x suffix scans).
* ``count_mitm``: meet-in-the-middle with pruning and deduplication.  The
  roots are sorted by their last nonzero coordinate; each half is walked
  from its outer end to the split, keeping every distinct partial sum with
  its multiplicity and dropping those that can no longer reach zero
  (``_kernels.pruned_tables``), and the two tables are joined on their
  common keys, each a sum packed into W int64 words (one word for every
  catalogue system).  The right half, where that pruning bites deepest,
  is walked first and sets the split: it stops once its next doubling
  could outgrow the table the roots left could give.  The sums of a half
  are closed under negation, so a table holds one sign-canonical state per
  pair {s, -s}; a left pair meets the negated right pair exactly where
  both tables hold its key, and counts twice unless it is the zero sum.
  The witness search walks the same halves, split in the middle, and
  recurses into each of them.
* ``obstruction_2L``: a necessary condition for existence.  Since
  e_i * a_i = a_i (mod 2L) for L the lattice generated by the roots, any
  zero signed sum forces sum(a_i) into 2L.  Both the sum and the lattice
  are taken over the sparse rows (``rootsys``), in Python ints, so the
  dense matrix is never built for it.  ``hnf`` checks each root as it
  reads it, with no pre-pass or copy of the rows, and inserts the roots one
  at a time into a Hermite-normal-form basis of at most m vectors, kept
  reduced after every change, so a root already in the lattice reduces to
  zero in a few steps and is skipped; membership in 2L is decided exactly
  by reducing sum(a_i) against the doubled basis down to zero
  (``LatticeBasis._member``, which takes the sum as the list of Python ints
  it already is, past the input checks of ``LatticeBasis.contains``).

Every entry point takes a ``RootSystem`` or a bare integer matrix and
turns it into a ``RootSystem`` first (``rootsys.as_system``); each engine
compares ``system.r`` with its limit before it reads the dense view
``system.roots``, which only brute force, meet-in-the-middle, enumeration
and the witness search read.  So ``exists_strong_dependence`` on a named
system calls no numpy function: the obstruction, the certificate and the
check of its witness all run on the sparse rows in Python ints, and the
witness is a tuple of Python ints on every route.  numpy is still imported
with this module, for the engines.

``count(system, method, max_r)`` is the one counting entry point.
``choose_engine`` holds the ``auto`` rule (brute force when r <= 20 and
r <= max_r, meet-in-the-middle otherwise) and each engine's default limit
(26 and 48); a caller that needs the limit asks it.

All counts are exact Python integers; no floating point enters any path.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import _kernels, certs
from .errors import (
    DimensionMismatchError,
    InternalCheckError,
    LengthMismatchError,
    ResourceLimitError,
)
from .rootsys import as_system, int64_array, integer_array, is_int, row_sum, sparse_rows

METHOD_BRUTE = "brute_force"
METHOD_MITM = "meet_in_middle"
METHOD_OBSTRUCTION = "obstruction"
METHOD_CERTIFICATE = "certificate"

DEFAULT_BRUTE_LIMIT = 26
DEFAULT_MITM_LIMIT = 48
AUTO_BRUTE_MAX = 20  # auto: brute force up to this r, meet-in-the-middle above
ENUMERATION_LIMIT = 16
METHODS = ("auto", "brute", "mitm")  # the engines ``count`` may be asked for


@dataclass(frozen=True)
class CountResult:
    """Exact count of a counting run, with method and resource metadata."""

    value: int
    method: str
    elapsed: float
    memory_peak: int | None = None

    def __post_init__(self) -> None:
        # Negating every sign maps zero sums to zero sums without fixed points.
        if self.value % 2 != 0:
            raise InternalCheckError(f"exact count {self.value} is odd")


@dataclass(frozen=True)
class LatticeBasis:
    """Column-style Hermite normal form basis of an integer lattice.

    ``columns[j]`` is a basis vector; pivot rows strictly increase, pivots
    are positive, and entries left of a pivot are reduced modulo the pivot.
    """

    columns: tuple[tuple[int, ...], ...]
    pivot_rows: tuple[int, ...]
    ambient_dim: int

    def contains(self, vector, multiple: int = 1) -> bool:
        """Exact membership of ``vector`` in ``multiple * L``; ``vector`` is
        refused unless it is a sequence of ``ambient_dim`` integers, and
        ``multiple`` unless it is a nonzero integer.  The inputs are checked
        here and converted to Python ints; ``_member`` decides."""
        if not is_int(multiple) or not multiple:
            raise DimensionMismatchError("the multiple must be a nonzero integer")
        arr = integer_array(vector, DimensionMismatchError)
        if arr.shape != (self.ambient_dim,):
            raise DimensionMismatchError("vector length does not match lattice dimension")
        return self._member([int(x) for x in arr.tolist()], int(multiple))

    def _member(self, v: list[int], multiple: int) -> bool:
        """``contains`` on a list of ``ambient_dim`` Python ints and a nonzero
        Python int, unchecked: the vector is reduced against the multiplied
        basis, pivot by pivot, down to zero or to a remainder."""
        for col, row in zip(self.columns, self.pivot_rows):
            pivot = multiple * col[row]
            if v[row] % pivot != 0:
                return False
            c = v[row] // pivot
            if c:
                v = [a - c * multiple * b for a, b in zip(v, col)]
        return all(x == 0 for x in v)


@dataclass(frozen=True)
class ObstructionResult:
    passed: bool
    reason: str | None = None


@dataclass(frozen=True)
class ExistenceResult:
    exists: bool
    witness: tuple[int, ...] | None
    obstruction: ObstructionResult
    method: str
    certificate: certs.CertificateFamily | None = None


def signs_vector(signs) -> np.ndarray:
    arr = int64_array(signs, LengthMismatchError)
    if arr.ndim != 1 or not np.all(np.abs(arr) == 1):
        raise LengthMismatchError("signs must be a flat vector over {+1, -1}")
    return arr


def signs_from_mask(mask: int, r: int) -> np.ndarray:
    """Sign vector for an enumeration index: bit t set means sign of root t is -1."""
    return np.array([-1 if (mask >> t) & 1 else 1 for t in range(r)], dtype=np.int64)


def signed_sum(system, signs) -> np.ndarray:
    """Exact signed sum of the scaled roots, as a length-m int64 vector.

    The sum is taken over the sparse rows in Python ints; when an entry
    does not fit in int64 it raises ``ResourceLimitError`` instead of
    returning a wrapped value.
    """
    system = as_system(system)
    eps = signs_vector(signs)
    if eps.shape[0] != system.r:
        raise LengthMismatchError(f"expected {system.r} signs, got {eps.shape[0]}")
    total = row_sum(system.rows, system.ambient_dim, enumerate(eps.tolist()))
    if not all(-(1 << 63) <= x < 1 << 63 for x in total):
        raise ResourceLimitError("signed sum does not fit in int64")
    return np.array(total, dtype=np.int64)


def count_bruteforce(system, limit_r: int = DEFAULT_BRUTE_LIMIT) -> CountResult:
    """Exact count of zero signed sums by exhaustive enumeration: the sign
    vectors with root 0 positive are scanned, and negation doubles them."""
    system = as_system(system)
    if system.r > limit_r:
        raise ResourceLimitError(f"brute force needs r <= {limit_r}, got r = {system.r}")
    start = time.perf_counter()
    value, estimate = _kernels.count_zero_full(system.roots)
    return CountResult(value, METHOD_BRUTE, time.perf_counter() - start, estimate)


def _common_keys(lk: np.ndarray, rk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in two sorted key tables of the keys both hold."""
    if not rk.shape[0]:
        lk = lk[:0]
    at = np.searchsorted(rk, lk)
    np.minimum(at, rk.shape[0] - 1, out=at)
    il = np.flatnonzero(rk[at] == lk)
    return il, at[il]


def _join_counts(left: tuple[np.ndarray, np.ndarray], right: tuple[np.ndarray, np.ndarray]) -> int:
    """Zero sums of the two halves together, from their canonical tables.

    A common key v != 0 stands for the left sums v and -v, each met by the
    right sum of opposite sign: 2 * c_L * c_R zero sums.  The zero key, first
    in both tables when both hold it, stands for one sum: z_L * z_R.
    """
    il, ir = _common_keys(left[0], right[0])
    a, b = left[1][il], right[1][ir]
    step = _kernels.JOIN_CHUNK
    total = 2 * sum(
        sum(map(operator.mul, a[i:i + step].tolist(), b[i:i + step].tolist()))
        for i in range(0, a.shape[0], step)
    )
    if il.size and not left[0][il[0]:il[0] + 1].view(np.uint8).any():
        total -= int(a[0]) * int(b[0])
    return total


def _check_mitm_limits(r: int, limit_r: int) -> None:
    """Refuse a walk of r roots past ``limit_r``, or one that no split keeps
    to halves of at most ``_kernels.HALF_MAX`` roots, whose multiplicities
    stay int64: the least larger half is ceil(r/2)."""
    if r > limit_r:
        raise ResourceLimitError(f"meet-in-the-middle needs r <= {limit_r}, got r = {r}")
    k = (r + 1) // 2
    cap = _kernels.HALF_MAX
    if k > cap:
        raise ResourceLimitError(
            f"meet-in-the-middle counts a half of at most {cap} roots in int64, got {k}"
        )


def _walk_halves(roots: np.ndarray, k: int | None = None):
    """Sort permutation, split, tables and byte estimate of the walk, on
    roots within ``_check_mitm_limits``.  Sorted by their last nonzero
    coordinate, the roots of each half finish their coordinates early, so
    the pruning of ``pruned_tables`` bites, and bites deepest in the right
    half, which then takes more of the roots: ``pruned_tables`` chooses the
    split from its table sizes unless ``k`` fixes it."""
    last = roots.shape[1] - 1 - np.argmax(roots[:, ::-1] != 0, axis=1)
    order = np.argsort(last, kind="stable")
    left, right, estimate, k = _kernels.pruned_tables(roots[order], k)
    return order, k, left, right, estimate


def count_mitm(system, limit_r: int = DEFAULT_MITM_LIMIT) -> CountResult:
    """Exact count by meet-in-the-middle, at the split the walk chooses
    from its table sizes; agrees with brute force everywhere."""
    system = as_system(system)
    _check_mitm_limits(system.r, limit_r)
    start = time.perf_counter()
    _, _, left, right, estimate = _walk_halves(system.roots)
    value = _join_counts(left, right)
    return CountResult(value, METHOD_MITM, time.perf_counter() - start, estimate)


def choose_engine(r: int, method: str = "auto", max_r: int | None = None) -> tuple[str, int]:
    """The engine ``count`` runs on r roots, and the largest r it may count.

    ``auto`` takes brute force when r <= 20 and r <= max_r, otherwise
    meet-in-the-middle.  ``max_r=None`` keeps the engine's own limit
    (26 for brute force, 48 for meet-in-the-middle).
    """
    if method not in METHODS:
        raise ValueError(f"unknown counting method {method!r}")
    if method == "auto":
        brute = r <= AUTO_BRUTE_MAX and (max_r is None or r <= max_r)
        method = "brute" if brute else "mitm"
    default = DEFAULT_BRUTE_LIMIT if method == "brute" else DEFAULT_MITM_LIMIT
    return method, default if max_r is None else max_r


def count(system, method: str = "auto", max_r: int | None = None) -> CountResult:
    """Exact count by the engine ``choose_engine`` picks, within its limit.

    On a named system the count must reach the published lower bound
    (``certs.lower_bound``) and be zero exactly when the bound is, or
    ``InternalCheckError`` is raised; a bare matrix has no bound.
    """
    system = as_system(system)
    engine, limit = choose_engine(system.r, method, max_r)
    # Looked up as module globals at call time, so a wrapped engine runs.
    result = (count_bruteforce if engine == "brute" else count_mitm)(system, limit)
    if system.id is not None:
        bound = certs.lower_bound(system.id)
        if result.value < bound or (result.value == 0) != (bound == 0):
            raise InternalCheckError(
                f"{system.id}: exact count {result.value} contradicts lower bound {bound}"
            )
    return result


def enumerate_zero_signs(system) -> list[np.ndarray]:
    """All sign vectors with zero signed sum, for r <= ENUMERATION_LIMIT."""
    system = as_system(system)
    r = system.r
    if r > ENUMERATION_LIMIT:
        raise ResourceLimitError(f"witness enumeration needs r <= {ENUMERATION_LIMIT}, got r = {r}")
    return [signs_from_mask(int(mask), r) for mask in _zero_masks(system.roots)]


def _zero_masks(roots: np.ndarray) -> np.ndarray:
    """Sign masks of the zero signed sums of at most 16 roots, in order."""
    # The table of the empty half holds one key: that of the zero sum.
    deltas, _ = _kernels.key_packing(roots)
    keys, zero, _ = _kernels._split_tables(deltas, roots.shape[0])
    return np.flatnonzero(keys == zero)


def _subtract(v: dict[int, int], q: int, b: dict[int, int]) -> None:
    """v -= q * b in place, on sparse {row: entry} vectors without zeros."""
    for row, x in b.items():
        y = v.get(row, 0) - q * x
        if y:
            v[row] = y
        else:
            del v[row]


def _reduce_at(v: dict[int, int], rows: list[int], basis: dict[int, dict[int, int]]) -> None:
    """Reduce the entries of ``v`` at the given pivot rows, in increasing
    order, into [0, pivot): each step changes only rows after its own."""
    for row in rows:
        q = v.get(row, 0) // basis[row][row]
        if q:
            _subtract(v, q, basis[row])


def _rereduce(basis: dict[int, dict[int, int]], i: int) -> None:
    """Restore the reduced form after the basis vector at pivot ``i`` changed.

    Vectors with later pivots are untouched; the vector at ``i`` and every
    earlier one whose entry at ``i`` leaves [0, pivot) are reduced again.
    """
    pivots = sorted(basis)
    at = pivots.index(i)
    later = pivots[at + 1:]
    b = basis[i]
    _reduce_at(b, later, basis)
    for k in pivots[:at]:
        q = basis[k].get(i, 0) // b[i]
        if q:
            _subtract(basis[k], q, b)
            _reduce_at(basis[k], later, basis)


def hnf(vectors, ambient_dim: int | None = None) -> LatticeBasis:
    """Reduced column Hermite normal form of the lattice the vectors generate.

    ``vectors`` are the rows of a non-empty 2-D integer matrix, as a list or
    an array, with entries of any size; a float, bool or string entry, or
    any other shape, raises ``DimensionMismatchError``.  When
    ``ambient_dim`` is given they are a sequence of sparse rows, each an
    iterable of ``(coordinate, value)`` pairs over distinct coordinates
    (``RootSystem.rows``), instead: an ``ambient_dim`` that is negative or
    not an integer, a ``vectors`` with no length (a scalar, a generator),
    an entry that is not a pair of integers, a coordinate outside
    ``[0, ambient_dim)``, a zero value or a repeated coordinate raises
    ``DimensionMismatchError``.  There is no pre-pass: each row is checked
    pair by pair as it is read into the sparse vector that is inserted,
    numpy integers becoming Python ints.  Dense rows are converted once
    into sparse ones and read by the same loop.  The vectors are inserted
    one at a time into a basis of at most m sparse vectors, one per pivot
    row.
    A vector is reduced at its leading row by the basis vector with that
    pivot; when the pivot does not divide the entry, Euclid's steps between
    the two leave their gcd as the new pivot and the remainder goes on.  A
    vector reduced to zero already lies in the lattice and is skipped; one
    whose leading row has no pivot becomes a basis vector with a positive
    pivot.  After every change the entries at later pivot rows are reduced
    back into [0, pivot), so the basis is the unique reduced HNF at every
    step, whatever the input order, and a difference of two basis vectors
    reduces to zero in a few steps.

    Pure Python integer arithmetic throughout; intermediates never overflow.
    """
    m = ambient_dim
    if m is None:
        dense = integer_array(vectors, DimensionMismatchError)
        if dense.ndim != 2 or not dense.shape[0]:
            raise DimensionMismatchError("expected a non-empty (r, m) integer matrix")
        m = dense.shape[1]
        vectors = sparse_rows(dense.tolist())
    else:
        if not is_int(m) or m < 0:
            raise DimensionMismatchError("the ambient dimension must be an integer >= 0")
        m = int(m)
        try:
            size = len(vectors)
        except TypeError:
            raise DimensionMismatchError("sparse rows must be a sequence of rows") from None
        if not size:
            raise DimensionMismatchError("need at least one vector")
    basis: dict[int, dict[int, int]] = {}  # pivot row -> {row: entry}
    for row in vectors:
        v = {}
        try:
            for c, x in row:
                if type(c) is not int or type(x) is not int:
                    if not (is_int(c) and is_int(x)):
                        raise DimensionMismatchError("sparse row entries must be integers")
                    c, x = int(c), int(x)
                if not 0 <= c < m or not x or c in v:
                    raise DimensionMismatchError(
                        f"sparse rows need distinct coordinates in [0, {m}) and nonzero values"
                    )
                v[c] = x
        except (TypeError, ValueError):
            raise DimensionMismatchError("a sparse row entry is not a pair") from None
        while v:
            i = min(v)
            b = basis.get(i)
            if b is None:
                basis[i] = v if v[i] > 0 else {k: -x for k, x in v.items()}
                _rereduce(basis, i)
                break
            merged = False
            while True:
                q, rem = divmod(v[i], b[i])
                if q:
                    _subtract(v, q, b)
                if not rem:
                    break
                b, v, merged = v, b, True
            if merged:
                basis[i] = b
                _rereduce(basis, i)
    pivots = sorted(basis)
    return LatticeBasis(
        columns=tuple(tuple(basis[p].get(k, 0) for k in range(m)) for p in pivots),
        pivot_rows=tuple(pivots),
        ambient_dim=m,
    )


def obstruction_2L(system) -> ObstructionResult:
    """Necessary condition for a zero signed sum: sum(a_i) must lie in 2L.

    Fail certifies non-existence; Pass never asserts existence.  The sum
    and the basis are both taken over the sparse rows, exactly, and the sum
    goes to the membership test as the list of Python ints it is.
    """
    system = as_system(system)
    total = row_sum(system.rows, system.ambient_dim, enumerate(repeat(1, system.r)))
    basis = hnf(system.rows, system.ambient_dim)
    if basis._member(total, 2):
        return ObstructionResult(True)
    return ObstructionResult(
        False, "sum of all roots is not in twice the root lattice"
    )


def _search_witness(roots: np.ndarray) -> np.ndarray | None:
    """One zero signed sum, or None, by the walk of ``count_mitm`` split
    in the middle, so that each subproblem has about half the roots: a
    chosen split recurses deeper, and took longer on F4 and A8.

    A key both pruned tables hold is a canonical sum v: the left half
    reaches v and -v, and so does the right half, so the right half cancels
    the left sum v.  The same search finds zero sums of the left half with -v
    put first and of the right half with v; times the sign of its extra
    root, each gives its half's signs.  |v| is at most either half's weight,
    so neither is heavier than the whole.  The zero key sorts first, so v is
    often 0.  At r <= 16 the search takes the first zero mask of the full
    table and builds one sign vector."""
    if roots.shape[0] <= ENUMERATION_LIMIT:
        masks = _zero_masks(roots)[:1]
        return signs_from_mask(int(masks[0]), roots.shape[0]) if masks.size else None
    order, k, left, right, _ = _walk_halves(roots, (roots.shape[0] + 1) // 2)
    il, _ = _common_keys(left[0], right[0])
    if not il.size:
        return None
    ordered = roots[order]
    v = _kernels.key_vector(ordered, left[0][il[0]:il[0] + 1])
    left = right = None  # the searches below need none of the tables
    halves = [_search_witness(np.vstack(h)) for h in ((-v, ordered[:k]), (v, ordered[k:]))]
    signs = np.concatenate([s[1:] * s[0] for s in halves])[np.argsort(order)]
    if np.any(signs @ roots != 0):
        raise InternalCheckError("witness reconstruction produced a non-zero sum")
    return signs


def exists_strong_dependence(system) -> ExistenceResult:
    """Decide existence of a zero signed sum, with a proof either way.

    The 2L obstruction runs first; its failure proves non-existence.  A
    catalogued root system is then proved both ways: the obstruction must
    pass exactly when its family has a verified block certificate, which
    supplies the witness, which is checked by its exact signed sum over the
    sparse rows; no numpy function runs on this route.  An unnamed system (a
    bare matrix) that passes the obstruction goes to a witness search on the
    walk of ``count_mitm``, within its limits and recursive past r = 16.
    On both routes the witness is a tuple of Python ints +-1, one per root,
    or None when no zero sum exists.
    """
    system = as_system(system)
    obstruction = obstruction_2L(system)
    if system.id is not None:
        cert = certs.certificate(system)
        if obstruction.passed and cert is None:
            raise InternalCheckError(f"{system.id}: obstruction passed but no certificate exists")
        if cert is not None and not obstruction.passed:
            raise InternalCheckError(f"{system.id}: certificate exists but the obstruction failed")
        if cert is None:
            return ExistenceResult(False, None, obstruction, METHOD_OBSTRUCTION)
        witness = certs.assembled_witness(cert)
        if any(row_sum(system.rows, system.ambient_dim, enumerate(witness))):
            raise InternalCheckError(f"certificate witness for {system.id} does not verify")
        return ExistenceResult(True, witness, obstruction, METHOD_CERTIFICATE, cert)
    if not obstruction.passed:
        return ExistenceResult(False, None, obstruction, METHOD_OBSTRUCTION)
    _check_mitm_limits(system.r, DEFAULT_MITM_LIMIT)
    signs = _search_witness(system.roots)
    witness = None if signs is None else tuple(signs.tolist())
    return ExistenceResult(witness is not None, witness, obstruction, METHOD_MITM)
