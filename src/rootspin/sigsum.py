"""Existence and exact counting of zero signed root sums.

Given roots a_1..a_r (rows of an integer matrix), the central question is
whether signs e_i in {+1, -1} exist with sum(e_i * a_i) = 0, and in how many
ways.  Three routes are implemented and cross-checked:

* ``count_bruteforce``: exhaustive enumeration of the 2^(r-1) sign vectors
  with root 0 positive, doubled (blocked prefix x suffix scans).
* ``count_mitm``: meet-in-the-middle with pruning and deduplication.
  ``_kernels.pruned_tables`` sorts the roots by their last nonzero
  coordinate and walks each half from its outer end to the split, keeping
  every distinct partial sum with its multiplicity and dropping those that
  can no longer reach zero; the two tables are joined on their
  common keys, each a sum packed into W int64 words (one word for every
  catalogue system).  The right half, where that pruning bites deepest,
  is walked first and sets the split: it stops once its next doubling
  could outgrow the table the roots left could give.  The sums of a half
  are closed under negation, so a table holds one sign-canonical state per
  pair {s, -s}; a left pair meets the negated right pair exactly where
  both tables hold its key, and counts twice unless it is the zero sum.
  The witness search walks the same halves, split in the middle,
  recurses into each of them and recombines their signs in Python ints.
* ``obstruction_2L``: a necessary condition for existence.  Since
  e_i * a_i = a_i (mod 2L) for L the lattice generated by the roots, any
  zero signed sum forces sum(a_i) into 2L.  Both the sum and the lattice
  are taken over the sparse rows (``rootsys``), in Python ints, so the
  dense matrix is never built for it.  ``hnf`` checks each root as it
  reads it (``rootsys.check_row``), with no pre-pass or copy of the rows,
  and inserts the roots one at a time into a Hermite-normal-form basis of
  at most m vectors, kept
  reduced after every change, so a root already in the lattice reduces to
  zero in a few steps and is skipped; membership in 2L is decided exactly
  by reducing sum(a_i), a list of Python ints, against the doubled basis
  down to zero (``LatticeBasis.contains``, whose input checks call no
  numpy function on a list).

Every entry point takes a ``RootSystem`` or a bare integer matrix and
turns it into a ``RootSystem`` first (``rootsys.as_system``); each engine
compares ``system.r`` with its limit before it reads the dense view
``system.roots``, which only brute force, meet-in-the-middle, enumeration
and the witness search read.  So ``exists_strong_dependence`` on a named
system calls no numpy function: the obstruction, the certificate and the
check of its witness all run on the sparse rows in Python ints.  One exact
sum checks the witness of both routes, a tuple of Python ints +-1 like each
enumerated vector.  numpy is still imported with this module, for the engines.

``analyze(system, method, max_r)``, the library's and the CLI's one
pipeline, proves existence, then counts with ``count`` where a zero sum
exists.  ``choose_engine`` holds ``count``'s ``auto`` rule (brute force when
r <= 20 and r <= max_r, else meet-in-the-middle) and its limits, 26 and 48.

All counts are exact Python integers; no floating point enters any path.
"""

from __future__ import annotations

import operator
import time
from itertools import repeat

import numpy as np

from . import _kernels, certs, rootsys
from .errors import (
    DimensionMismatchError,
    InternalCheckError,
    LengthMismatchError,
    ResourceLimitError,
)
from .rootsys import (
    Record, as_system, check_budget, check_limit, check_row, int64_array,
    integer_array, is_int, row_sum, shown, sparse_rows, weyl_order_v2,
)

METHOD_BRUTE = "brute_force"
METHOD_MITM = "meet_in_middle"
METHOD_OBSTRUCTION = "obstruction"
METHOD_CERTIFICATE = "certificate"

DEFAULT_BRUTE_LIMIT = 26
DEFAULT_MITM_LIMIT = 48
AUTO_BRUTE_MAX = 20  # auto: brute force up to this r, meet-in-the-middle above
ENUMERATION_LIMIT = 16
METHODS = ("auto", "brute", "mitm")  # the engines ``count`` may be asked for


class CountResult(Record):
    """Exact count of a counting run, with method and resource metadata."""

    __match_args__ = ("value", "method", "elapsed", "memory_peak")

    def __init__(self, value: int, method: str, elapsed: float,
                 memory_peak: int | None = None) -> None:
        self.__dict__.update(value=value, method=method, elapsed=elapsed, memory_peak=memory_peak)
        # Negating every sign maps zero sums to zero sums without fixed points.
        if value % 2 != 0:
            raise InternalCheckError(f"exact count {shown(value)} is odd")


class LatticeBasis(Record):
    """Column-style Hermite normal form basis of an integer lattice.

    ``columns[j]`` is a basis vector; pivot rows strictly increase, pivots
    are positive, and entries left of a pivot are reduced modulo the pivot.
    """

    __match_args__ = ("columns", "pivot_rows", "ambient_dim")

    def __init__(self, columns: tuple[tuple[int, ...], ...], pivot_rows: tuple[int, ...],
                 ambient_dim: int) -> None:
        self.__dict__.update(columns=columns, pivot_rows=pivot_rows, ambient_dim=ambient_dim)

    def contains(self, vector, multiple: int = 1) -> bool:
        """Exact membership of ``vector`` in ``multiple * L``, by reducing it
        against the multiplied basis, pivot by pivot.  ``vector`` must be a
        list, tuple or 1-D array of ``ambient_dim`` integers, and ``multiple``
        a nonzero integer; no numpy function runs on a list or tuple."""
        if not is_int(multiple) or not multiple:
            raise DimensionMismatchError("the multiple must be a nonzero integer")
        if isinstance(vector, np.ndarray):
            vector = vector.tolist()
        if not (isinstance(vector, (list, tuple)) and len(vector) == self.ambient_dim
                and all(map(is_int, vector))):
            raise DimensionMismatchError(f"the vector must be a list, tuple or 1-D array of "
                                         f"{shown(self.ambient_dim)} integers")
        v, multiple = [int(x) for x in vector], int(multiple)
        for col, row in zip(self.columns, self.pivot_rows):
            pivot = multiple * col[row]
            if v[row] % pivot != 0:
                return False
            c = v[row] // pivot
            if c:
                v = [a - c * multiple * b for a, b in zip(v, col)]
        return all(x == 0 for x in v)


class ObstructionResult(Record):
    """Whether the sum of the roots lies in 2L, and if not, why."""

    __match_args__ = ("passed", "reason")

    def __init__(self, passed: bool, reason: str | None = None) -> None:
        self.__dict__.update(passed=passed, reason=reason)


class ExistenceResult(Record):
    """Whether a zero signed sum exists, with its witness and both proofs."""

    __match_args__ = ("exists", "witness", "obstruction", "method", "certificate")

    def __init__(self, exists: bool, witness: tuple[int, ...] | None,
                 obstruction: ObstructionResult, method: str,
                 certificate: certs.CertificateFamily | None = None) -> None:
        self.__dict__.update(exists=exists, witness=witness, obstruction=obstruction,
                             method=method, certificate=certificate)


def signs_from_mask(mask: int, r: int) -> tuple[int, ...]:
    """Sign tuple of Python ints for an enumeration index: bit t set means root t gets -1."""
    return tuple(-1 if (mask >> t) & 1 else 1 for t in range(r))


def signed_sum(system, signs) -> np.ndarray:
    """Exact signed sum of the scaled roots, as a length-m int64 vector.

    The sum is taken over the sparse rows in Python ints; when an entry
    does not fit in int64 it raises ``ResourceLimitError`` instead of
    returning a wrapped value.
    """
    system = as_system(system)
    eps = int64_array(signs, LengthMismatchError)
    # nonzero and within [-1, 1], checked with no array allocated
    if (eps.ndim != 1 or np.count_nonzero(eps) < eps.size
            or eps.size and not -1 <= eps.min() <= eps.max() <= 1):
        raise LengthMismatchError("signs must be a flat vector over {+1, -1}")
    if eps.shape[0] != system.r:
        raise LengthMismatchError(f"expected {system.r} signs, got {eps.shape[0]}")
    total = row_sum(system.rows, system.ambient_dim, enumerate(eps.tolist()))
    if not all(-(1 << 63) <= x < 1 << 63 for x in total):
        raise ResourceLimitError("signed sum does not fit in int64")
    return np.array(total, dtype=np.int64)


def count_bruteforce(system, limit_r: int = DEFAULT_BRUTE_LIMIT) -> CountResult:
    """Exact count of zero signed sums by exhaustive enumeration: the sign
    vectors with root 0 positive are scanned, and negation doubles them."""
    limit_r = check_limit(limit_r, "limit_r")
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


def count_mitm(system, limit_r: int = DEFAULT_MITM_LIMIT) -> CountResult:
    """Exact count by meet-in-the-middle, at the split the walk chooses
    from its table sizes; agrees with brute force everywhere."""
    limit_r = check_limit(limit_r, "limit_r")
    system = as_system(system)
    _check_mitm_limits(system.r, limit_r)
    start = time.perf_counter()
    _, _, left, right, estimate = _kernels.pruned_tables(system.roots)
    value = _join_counts(left, right)
    return CountResult(value, METHOD_MITM, time.perf_counter() - start, estimate)


def choose_engine(r: int, method: str = "auto", max_r: int | None = None) -> tuple[str, int]:
    """The engine ``count`` runs on r roots, and the largest r it may count.

    ``auto`` takes brute force when r <= 20 and r <= max_r, otherwise
    meet-in-the-middle.  ``max_r=None`` keeps the engine's own limit
    (26 for brute force, 48 for meet-in-the-middle); any other ``max_r``
    must be an integer >= 0 (``rootsys.check_limit``).
    """
    if not isinstance(method, str) or method not in METHODS:
        raise ValueError(f"unknown counting method {shown(method)}")
    if max_r is not None:
        max_r = check_limit(max_r, "max_r")
    if method == "auto":
        brute = r <= AUTO_BRUTE_MAX and (max_r is None or r <= max_r)
        method = "brute" if brute else "mitm"
    default = DEFAULT_BRUTE_LIMIT if method == "brute" else DEFAULT_MITM_LIMIT
    return method, default if max_r is None else max_r


def count(system, method: str = "auto", max_r: int | None = None) -> CountResult:
    """Exact count by the engine ``choose_engine`` picks, within its limit;
    past it, zero when ``obstruction_2L`` fails, else the engine's refusal.

    On a named system the count must reach the published lower bound
    (``certs.lower_bound``), be zero exactly when the bound is, and be
    divisible by the 2-part of the Weyl group's order
    (``rootsys.weyl_order_v2``), or ``InternalCheckError`` is raised; a bare
    matrix has no bound.

    The Weyl group W permutes the roots, so it acts on the zero sums, each a
    choice of one root from every pair +-a.  An involution of W is a product
    of reflections in mutually orthogonal roots b_1, ..., b_k (Carter,
    Compositio Math. 25, 1972, Lemma 5), so it sends b_1 to -b_1 and moves
    every zero sum: no stabiliser has even order, and every orbit, so the
    count, is divisible by the 2-part of |W|.
    """
    system = as_system(system)
    engine, limit = choose_engine(system.r, method, max_r)
    start = time.perf_counter()
    if system.r > limit and not obstruction_2L(system).passed:
        # Past the limit, a failed 2L obstruction still proves the count zero.
        result = CountResult(0, METHOD_OBSTRUCTION, time.perf_counter() - start)
    else:
        # Looked up as module globals at call time, so a wrapped engine runs.
        result = (count_bruteforce if engine == "brute" else count_mitm)(system, limit)
    if system.id is not None:
        bound = certs.lower_bound(system.id)
        if result.value < bound or (result.value == 0) != (bound == 0):
            raise InternalCheckError(
                f"{system.id}: exact count {result.value} contradicts lower bound {bound}"
            )
        divisor = 1 << weyl_order_v2(system.id)
        if result.value % divisor:
            raise InternalCheckError(
                f"{system.id}: exact count {result.value} is not divisible by {divisor}, "
                f"the 2-part of the Weyl group's order"
            )
    return result


def enumerate_zero_signs(system) -> list[tuple[int, ...]]:
    """All zero-sum sign tuples of Python ints, in mask order, for r <=
    ENUMERATION_LIMIT.  Brute force's scan counts them first, and before
    any is built the budget is checked for the scan's estimate plus 64 + 8r
    bytes a zero sum: its mask (8), its tuple (40 + 8r) and its list slot
    (under 16).  That also covers what ``_kernels.zero_masks`` holds past
    the scan: one block's indices, 16 bytes a zero sum of the block, which
    has half of them at most, and 12 bytes a mask."""
    system = as_system(system)
    r = system.r
    if r > ENUMERATION_LIMIT:
        raise ResourceLimitError(f"witness enumeration needs r <= {ENUMERATION_LIMIT}, got r = {r}")
    zeros, estimate = _kernels.count_zero_full(system.roots)
    check_budget(estimate + zeros * (64 + 8 * r), rootsys.memory_budget(),
                 f"the {zeros} zero sign vectors of {system}")
    return [signs_from_mask(int(mask), r) for mask in _kernels.zero_masks(system.roots)]


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
    or a row that ``rootsys.check_row`` refuses raises
    ``DimensionMismatchError``.  There is no pre-pass: each row is checked
    by ``check_row`` as it is read into the sparse vector that is inserted,
    numpy integers becoming Python ints.  Dense rows are converted once
    into sparse ones and read by the same loop.  The vectors are inserted
    one at a time into a basis of at most m sparse vectors, one per pivot
    row.  The basis ends as dense columns of m ints, so their size is
    checked against the memory budget (``rootsys.check_budget``) before any
    vector is read: a huge ``ambient_dim`` raises ``ResourceLimitError`` at
    once.
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
        size, m = dense.shape
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
    # The basis ends as at most min(size, m) dense columns of m ints, each a
    # tuple grown from a generator by resizing: 16 bytes a slot.
    check_budget(16 * min(size, m) * m, rootsys.memory_budget(),
                 f"a Hermite normal form basis in dimension {shown(m)}")
    basis: dict[int, dict[int, int]] = {}  # pivot row -> {row: entry}
    for row in vectors:
        v = check_row(row, m)
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
    is a list of Python ints, which ``contains`` checks without numpy.
    """
    system = as_system(system)
    total = row_sum(system.rows, system.ambient_dim, enumerate(repeat(1, system.r)))
    basis = hnf(system.rows, system.ambient_dim)
    if basis.contains(total, 2):
        return ObstructionResult(True)
    return ObstructionResult(
        False, "sum of all roots is not in twice the root lattice"
    )


def _search_witness(roots: np.ndarray) -> tuple[int, ...] | None:
    """One zero signed sum as a tuple of Python ints, or None, by the walk
    of ``count_mitm`` split in the middle, so that each subproblem has about
    half the roots: a chosen split recurses deeper, and took longer on F4 and A8.

    A key both pruned tables hold is a canonical sum v: the left half
    reaches v and -v, and so does the right half, so the right half cancels
    the left sum v.  The same search finds zero sums of the left half with -v
    put first and of the right half with v; times the sign of its extra
    root, each gives its half's signs, recombined in Python ints.  |v| is at
    most either half's weight, so neither is heavier than the whole.  The
    zero key sorts first, so v is often 0.  At r <= 16 the search takes the
    least zero mask of the exhaustive scan (``_kernels.least_zero_mask``)
    and builds one sign vector.  The caller checks the final sum, which any
    wrong recombination leaves nonzero."""
    if roots.shape[0] <= ENUMERATION_LIMIT:
        mask = _kernels.least_zero_mask(roots)
        return None if mask is None else signs_from_mask(mask, roots.shape[0])
    order, k, left, right, _ = _kernels.pruned_tables(roots, (roots.shape[0] + 1) // 2)
    il, _ = _common_keys(left[0], right[0])
    if not il.size:
        return None
    ordered = roots[order]
    v = _kernels.key_vector(ordered, left[0][il[0]:il[0] + 1])
    left = right = None  # the searches below need none of the tables
    halves = [_search_witness(np.vstack(h)) for h in ((-v, ordered[:k]), (v, ordered[k:]))]
    signs = [s * h[0] for h in halves for s in h[1:]]  # sign of root order[p] at p
    return tuple(signs[p] for p in np.argsort(order).tolist())


def exists_strong_dependence(system) -> ExistenceResult:
    """Decide existence of a zero signed sum, with a proof either way.

    The 2L obstruction runs first; its failure proves non-existence.  A
    catalogued root system is then proved both ways: the obstruction must
    pass exactly when its family has a verified block certificate, which
    supplies the witness; no numpy function runs on this route.  An unnamed
    system (a bare matrix) that passes the obstruction goes to a witness
    search on the walk of ``count_mitm``, within its limits and recursive
    past r = 16.  Either witness, a tuple of Python ints +-1 per root or None,
    is checked by one exact signed sum over the rows (else InternalCheckError).
    """
    system = as_system(system)
    obstruction = obstruction_2L(system)
    cert, witness, method = None, None, METHOD_OBSTRUCTION
    if system.id is not None:
        cert = certs.certificate(system)
        if obstruction.passed != (cert is not None):
            raise InternalCheckError(f"{system.id}: the obstruction and the certificate disagree")
        if cert is not None:
            witness, method = certs.assembled_witness(cert), METHOD_CERTIFICATE
    elif obstruction.passed:
        _check_mitm_limits(system.r, DEFAULT_MITM_LIMIT)
        witness, method = _search_witness(system.roots), METHOD_MITM
    if witness is not None and any(row_sum(system.rows, system.ambient_dim, enumerate(witness))):
        raise InternalCheckError("the witness's signed sum over the roots is not zero")
    return ExistenceResult(witness is not None, witness, obstruction, method, cert)


def analyze(system, method: str = "auto", max_r: int | None = None):
    """``(existence, count, refusal)``: ``exists_strong_dependence``, then, where
    a zero sum exists, ``count`` within the engine's limit (``auto`` skips past
    it) or None, and a forced engine's ``ResourceLimitError`` as its text."""
    system = as_system(system)
    _, limit = choose_engine(system.r, method, max_r)
    existence = exists_strong_dependence(system)
    if not existence.exists or (method == "auto" and system.r > limit):
        return existence, None, None
    try:
        return existence, count(system, method, max_r), None
    except ResourceLimitError as exc:
        return existence, None, str(exc)
