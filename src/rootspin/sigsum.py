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
  zero signed sum forces sum(a_i) into 2L; membership is decided exactly
  with a Hermite-normal-form basis and integer back-substitution.

All counts are exact Python integers; no floating point enters any path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import _kernels, certs
from .errors import (
    DimensionMismatchError,
    InternalCheckError,
    LengthMismatchError,
    ResourceLimitError,
)
from .rootsys import RootSystem, int64_array, system_parts

KIND_EXACT = "exact"
KIND_LOWER_BOUND = "lower_bound"
KIND_EXISTS_ONLY = "exists_only"
KIND_ZERO = "zero"

METHOD_BRUTE = "brute_force"
METHOD_MITM = "meet_in_middle"
METHOD_OBSTRUCTION = "obstruction"
METHOD_CERTIFICATE = "certificate"

DEFAULT_BRUTE_LIMIT = 26
DEFAULT_MITM_LIMIT = 48
DEFAULT_MEMORY_BUDGET = 8 << 30  # bytes


@dataclass(frozen=True)
class CountResult:
    """Outcome of a counting run, with method and resource metadata."""

    kind: str
    value: int
    method: str
    elapsed: float
    memory_peak: int | None = None

    def __post_init__(self) -> None:
        if self.kind == KIND_EXACT and self.value % 2 != 0:
            raise InternalCheckError(f"exact count {self.value} is odd")
        if self.kind == KIND_ZERO and self.value != 0:
            raise InternalCheckError("zero result carries a non-zero value")


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


def count_bruteforce(
    system,
    limit_r: int = DEFAULT_BRUTE_LIMIT,
) -> CountResult:
    """Exact count of zero signed sums by full 2^r enumeration."""
    roots, _ = system_parts(system)
    r = roots.shape[0]
    if r > limit_r:
        raise ResourceLimitError(f"brute force needs r <= {limit_r}, got r = {r}")
    start = time.perf_counter()
    value = _kernels.count_zero_full(roots, DEFAULT_MEMORY_BUDGET)
    return CountResult(KIND_EXACT, value, METHOD_BRUTE, time.perf_counter() - start)


def mitm_split(roots: np.ndarray) -> int:
    """Contiguous split point for the meet-in-the-middle halves.

    Enumeration cost fixes the candidates to the count-optimal points
    floor(r/2) and ceil(r/2); between those, the one balancing the halves'
    total coordinate magnitude wins (smaller packed key ranges), and a tie
    takes the first ceil(r/2) roots.
    """
    r = roots.shape[0]
    if r < 2:
        return r
    weights = [int(w) for w in np.abs(roots.astype(object)).sum(axis=1)]
    total = sum(weights)
    half_point = (r + 1) // 2
    best_k = half_point
    best = None
    for k in {r // 2, half_point}:
        score = (abs(total - 2 * sum(weights[:k])), abs(k - half_point))
        if best is None or score < best:
            best = score
            best_k = k
    return best_k


def _join_counts(left_keys: np.ndarray, right_keys: np.ndarray) -> int:
    """Sum of multiplicity products over the keys both tables hold."""
    ul, cl = np.unique(left_keys, return_counts=True)
    ur, cr = np.unique(right_keys, return_counts=True)
    _, il, ir = np.intersect1d(ul, ur, assume_unique=True, return_indices=True)
    return sum(int(a) * int(b) for a, b in zip(cl[il], cr[ir]))


def count_mitm(
    system,
    limit_r: int = DEFAULT_MITM_LIMIT,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> CountResult:
    """Exact count by meet-in-the-middle; agrees with brute force everywhere."""
    roots, _ = system_parts(system)
    r = roots.shape[0]
    if r > limit_r:
        raise ResourceLimitError(f"meet-in-the-middle needs r <= {limit_r}, got r = {r}")
    start = time.perf_counter()
    left, right, estimate = _kernels.key_tables(roots, mitm_split(roots), memory_budget)
    value = _join_counts(left, right)
    return CountResult(KIND_EXACT, value, METHOD_MITM, time.perf_counter() - start, estimate)


def enumerate_zero_signs(system, limit_r: int = 16) -> list[np.ndarray]:
    """All sign vectors with zero signed sum, for small systems."""
    roots, _ = system_parts(system)
    r = roots.shape[0]
    if r > limit_r:
        raise ResourceLimitError(f"witness enumeration needs r <= {limit_r}, got r = {r}")
    # The table of the empty half holds one key: that of the zero sum.
    keys, zero, _ = _kernels.key_tables(roots, r, DEFAULT_MEMORY_BUDGET)
    return [signs_from_mask(int(mask), r) for mask in np.flatnonzero(keys == zero)]


def hnf(vectors) -> LatticeBasis:
    """Column HNF of the integer lattice generated by the given vectors.

    Pure Python integer arithmetic throughout; intermediates never overflow.
    """
    cols = [[int(x) for x in v] for v in vectors]
    if not cols:
        raise DimensionMismatchError("need at least one vector")
    m = len(cols[0])
    if any(len(c) != m for c in cols):
        raise DimensionMismatchError("vectors must share a common length")
    ncols = len(cols)
    pivot_col = 0
    pivot_rows: list[int] = []
    for row in range(m):
        if pivot_col == ncols:
            break
        if all(cols[j][row] == 0 for j in range(pivot_col, ncols)):
            continue
        # Euclidean elimination until a single non-zero entry remains in this
        # row among the unpivoted columns.
        while True:
            nz = [j for j in range(pivot_col, ncols) if cols[j][row] != 0]
            j_min = min(nz, key=lambda j: abs(cols[j][row]))
            cols[pivot_col], cols[j_min] = cols[j_min], cols[pivot_col]
            if len(nz) == 1:
                break
            p = cols[pivot_col][row]
            for j in range(pivot_col + 1, ncols):
                if cols[j][row]:
                    q = cols[j][row] // p
                    if q:
                        cols[j] = [a - q * b for a, b in zip(cols[j], cols[pivot_col])]
        if cols[pivot_col][row] < 0:
            cols[pivot_col] = [-x for x in cols[pivot_col]]
        p = cols[pivot_col][row]
        for j in range(pivot_col):
            q = cols[j][row] // p
            if q:
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[pivot_col])]
        pivot_rows.append(row)
        pivot_col += 1
    return LatticeBasis(
        columns=tuple(tuple(c) for c in cols[:pivot_col]),
        pivot_rows=tuple(pivot_rows),
        ambient_dim=m,
    )


def obstruction_2L(system) -> ObstructionResult:
    """Necessary condition for a zero signed sum: sum(a_i) must lie in 2L.

    Fail certifies non-existence; Pass never asserts existence.
    """
    roots, _ = system_parts(system)
    total = [int(x) for x in np.asarray(roots, dtype=object).sum(axis=0)]
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


def exists_strong_dependence(
    system,
    limit_r: int = DEFAULT_MITM_LIMIT,
) -> ExistenceResult:
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
        cert = certs.certificate(system.id)
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
    if r > limit_r:
        raise ResourceLimitError(f"witness search needs r <= {limit_r}, got r = {r}")
    witness = _search_witness(roots)
    if witness is None:
        return ExistenceResult(False, None, obstruction, METHOD_MITM)
    return ExistenceResult(True, witness, obstruction, METHOD_MITM)
