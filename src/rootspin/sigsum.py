"""Existence and exact counting of zero signed root sums.

Given roots a_1..a_r (rows of an integer matrix), the central question is
whether signs e_i in {+1, -1} exist with sum(e_i * a_i) = 0, and in how many
ways.  Three routes are implemented and cross-checked:

* ``count_bruteforce``: full 2^r enumeration (blocked prefix x suffix scans).
* ``count_mitm``: meet-in-the-middle; enumerate both halves and join their
  key tables by multiplicity.  A half's table is closed under negation, so
  a left sum meets the negated right sum exactly where both tables hold its
  key (see ``_kernels``, which decides the one key kind of a system).
* ``obstruction_2L``: a necessary condition for existence.  Since
  e_i * a_i = a_i (mod 2L) for L the lattice generated by the roots, any
  zero signed sum forces sum(a_i) into 2L.  ``hnf`` inserts the roots one
  at a time into a Hermite-normal-form basis of at most m vectors, kept
  reduced after every change, so a root already in the lattice reduces to
  zero in a few steps and is skipped; membership in 2L is decided exactly
  by reducing sum(a_i) against the doubled basis down to zero.

``count(system, method, max_r)`` is the one counting entry point.
``choose_engine`` holds the ``auto`` rule (brute force when r <= 20 and
r <= max_r, meet-in-the-middle otherwise) and each engine's default limit
(26 and 48); a caller that needs the limit asks it.

All counts are exact Python integers; no floating point enters any path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import _kernels, certs
from .errors import (
    DimensionMismatchError,
    InternalCheckError,
    LengthMismatchError,
    ResourceLimitError,
)
from .rootsys import RootSystem, int64_array, system_parts

METHOD_BRUTE = "brute_force"
METHOD_MITM = "meet_in_middle"
METHOD_OBSTRUCTION = "obstruction"
METHOD_CERTIFICATE = "certificate"

DEFAULT_BRUTE_LIMIT = 26
DEFAULT_MITM_LIMIT = 48
AUTO_BRUTE_MAX = 20  # auto: brute force up to this r, meet-in-the-middle above
ENUMERATION_LIMIT = 16
DEFAULT_MEMORY_BUDGET = 8 << 30  # bytes


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
        """Exact membership of ``vector`` in ``multiple * L``."""
        v = [int(x) for x in vector]
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError("vector length does not match lattice dimension")
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
    witness: np.ndarray | None
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
    """Exact signed sum of the scaled roots (length-m integer vector)."""
    roots, _ = system_parts(system)
    eps = signs_vector(signs)
    if eps.shape[0] != roots.shape[0]:
        raise LengthMismatchError(f"expected {roots.shape[0]} signs, got {eps.shape[0]}")
    return eps @ roots


def count_bruteforce(system, limit_r: int = DEFAULT_BRUTE_LIMIT) -> CountResult:
    """Exact count of zero signed sums by full 2^r enumeration."""
    roots, _ = system_parts(system)
    r = roots.shape[0]
    if r > limit_r:
        raise ResourceLimitError(f"brute force needs r <= {limit_r}, got r = {r}")
    start = time.perf_counter()
    value = _kernels.count_zero_full(roots, DEFAULT_MEMORY_BUDGET)
    return CountResult(value, METHOD_BRUTE, time.perf_counter() - start)


def mitm_split(roots: np.ndarray) -> int:
    """Contiguous split point for the meet-in-the-middle halves: the first
    ceil(r/2) roots, which minimises the enumeration.  The key strides come
    from all roots, so no split changes the key range or the table sizes."""
    return (roots.shape[0] + 1) // 2


def _join_counts(left_keys: np.ndarray, right_keys: np.ndarray) -> int:
    """Sum of multiplicity products over the keys both tables hold."""
    ul, cl = np.unique(left_keys, return_counts=True)
    ur, cr = np.unique(right_keys, return_counts=True)
    _, il, ir = np.intersect1d(ul, ur, assume_unique=True, return_indices=True)
    return sum(int(a) * int(b) for a, b in zip(cl[il], cr[ir]))


def count_mitm(system, limit_r: int = DEFAULT_MITM_LIMIT) -> CountResult:
    """Exact count by meet-in-the-middle; agrees with brute force everywhere."""
    roots, _ = system_parts(system)
    r = roots.shape[0]
    if r > limit_r:
        raise ResourceLimitError(f"meet-in-the-middle needs r <= {limit_r}, got r = {r}")
    start = time.perf_counter()
    left, right, estimate = _kernels.key_tables(roots, mitm_split(roots), DEFAULT_MEMORY_BUDGET)
    value = _join_counts(left, right)
    return CountResult(value, METHOD_MITM, time.perf_counter() - start, estimate)


def choose_engine(r: int, method: str = "auto", max_r: int | None = None) -> tuple[str, int]:
    """The engine ``count`` runs on r roots, and the largest r it may count.

    ``auto`` takes brute force when r <= 20 and r <= max_r, otherwise
    meet-in-the-middle.  ``max_r=None`` keeps the engine's own limit
    (26 for brute force, 48 for meet-in-the-middle).
    """
    if method not in ("auto", "brute", "mitm"):
        raise ValueError(f"unknown counting method {method!r}")
    if method == "auto":
        brute = r <= AUTO_BRUTE_MAX and (max_r is None or r <= max_r)
        method = "brute" if brute else "mitm"
    default = DEFAULT_BRUTE_LIMIT if method == "brute" else DEFAULT_MITM_LIMIT
    return method, default if max_r is None else max_r


def count(system, method: str = "auto", max_r: int | None = None) -> CountResult:
    """Exact count by the engine ``choose_engine`` picks, within its limit."""
    roots, _ = system_parts(system)
    engine, limit = choose_engine(roots.shape[0], method, max_r)
    # Looked up as module globals at call time, so a wrapped engine runs.
    if engine == "brute":
        return count_bruteforce(system, limit)
    return count_mitm(system, limit)


def enumerate_zero_signs(system) -> list[np.ndarray]:
    """All sign vectors with zero signed sum, for r <= ENUMERATION_LIMIT."""
    roots, _ = system_parts(system)
    r = roots.shape[0]
    if r > ENUMERATION_LIMIT:
        raise ResourceLimitError(f"witness enumeration needs r <= {ENUMERATION_LIMIT}, got r = {r}")
    # The table of the empty half holds one key: that of the zero sum.
    keys, zero, _ = _kernels.key_tables(roots, r, DEFAULT_MEMORY_BUDGET)
    return [signs_from_mask(int(mask), r) for mask in np.flatnonzero(keys == zero)]


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


def hnf(vectors) -> LatticeBasis:
    """Reduced column Hermite normal form of the lattice the vectors generate.

    The vectors are inserted one at a time into a basis of at most m sparse
    vectors, one per pivot row.  A vector is reduced at its leading row by
    the basis vector with that pivot; when the pivot does not divide the
    entry, Euclid's steps between the two leave their gcd as the new pivot
    and the remainder goes on.  A vector reduced to zero already lies in the
    lattice and is skipped; one whose leading row has no pivot becomes a
    basis vector with a positive pivot.  After every change the entries at
    later pivot rows are reduced back into [0, pivot), so the basis is the
    unique reduced HNF at every step, whatever the input order, and a
    difference of two basis vectors reduces to zero in a few steps.

    Pure Python integer arithmetic throughout; intermediates never overflow.
    """
    if isinstance(vectors, np.ndarray) and vectors.dtype.kind in "iu":
        rows = vectors.tolist()
    else:
        rows = [[int(x) for x in v] for v in vectors]
    if not rows:
        raise DimensionMismatchError("need at least one vector")
    m = len(rows[0])
    if any(len(v) != m for v in rows):
        raise DimensionMismatchError("vectors must share a common length")
    basis: dict[int, dict[int, int]] = {}  # pivot row -> {row: entry}
    for row in rows:
        v = dict(zip(compress(range(m), row), filter(None, row)))
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


def _column_sums(roots: np.ndarray) -> list[int]:
    """Exact column sums of an int64 matrix with r < 2^31 rows: the parts
    ``roots >> 31`` sum to below r * 2^32, the low 31 bits to below r * 2^31."""
    high = (roots >> 31).sum(axis=0).tolist()
    low = (roots & (2**31 - 1)).sum(axis=0).tolist()
    return [(h << 31) + lo for h, lo in zip(high, low)]


def obstruction_2L(system) -> ObstructionResult:
    """Necessary condition for a zero signed sum: sum(a_i) must lie in 2L.

    Fail certifies non-existence; Pass never asserts existence.
    """
    roots, _ = system_parts(system)
    total = _column_sums(roots)
    basis = hnf(roots)
    if basis.contains(total, multiple=2):
        return ObstructionResult(True)
    return ObstructionResult(
        False, "sum of all roots is not in twice the root lattice"
    )


def _search_witness(roots: np.ndarray) -> np.ndarray | None:
    """Meet-in-the-middle early-exit search for one zero signed sum."""
    r = roots.shape[0]
    k = mitm_split(roots)
    left, right, _ = _kernels.key_tables(roots, k, DEFAULT_MEMORY_BUDGET)
    common = np.intersect1d(left, right)
    if common.size == 0:
        return None
    # Reversing the right table negates its sums: the last right index
    # holding the key is the complement of the first one holding its negation.
    mask_l = int(np.flatnonzero(left == common[:1])[0])
    mask_r = int(np.flatnonzero(right == common[:1])[-1])
    signs = np.concatenate((signs_from_mask(mask_l, k), -signs_from_mask(mask_r, r - k)))
    if np.any(signs @ roots != 0):
        raise InternalCheckError("witness reconstruction produced a non-zero sum")
    return signs


def exists_strong_dependence(system) -> ExistenceResult:
    """Decide existence of a zero signed sum, with a proof either way.

    The 2L obstruction runs first; its failure proves non-existence.  A
    catalogued root system is then proved both ways: the obstruction must
    pass exactly when its family has a verified block certificate, which
    supplies the witness.  Any other matrix that passes the obstruction goes
    to a meet-in-the-middle early-exit search.
    """
    roots, _ = system_parts(system)
    obstruction = obstruction_2L(roots)
    if isinstance(system, RootSystem):
        cert = certs.certificate(system)
        if obstruction.passed and cert is None:
            raise InternalCheckError(f"{system.id}: obstruction passed but no certificate exists")
        if cert is not None and not obstruction.passed:
            raise InternalCheckError(f"{system.id}: certificate exists but the obstruction failed")
        if cert is None:
            return ExistenceResult(False, None, obstruction, METHOD_OBSTRUCTION)
        witness = certs.assembled_witness(cert)
        if np.any(signed_sum(system, witness) != 0):
            raise InternalCheckError(f"certificate witness for {system.id} does not verify")
        return ExistenceResult(True, witness, obstruction, METHOD_CERTIFICATE, cert)
    if not obstruction.passed:
        return ExistenceResult(False, None, obstruction, METHOD_OBSTRUCTION)
    r = roots.shape[0]
    if r > DEFAULT_MITM_LIMIT:
        raise ResourceLimitError(f"witness search needs r <= {DEFAULT_MITM_LIMIT}, got r = {r}")
    witness = _search_witness(roots)
    return ExistenceResult(witness is not None, witness, obstruction, METHOD_MITM)
