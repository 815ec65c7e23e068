"""Enumeration kernels behind the exact counters.

Every engine works on key tables built by ``key_tables``: the signed sums
of a run of roots over all 2^h sign masks, one key per sum, so that equal
keys mean equal sums.  Each system gets one key kind, decided here alone:

* packed keys: whenever the coordinate box fits, a signed sum vector is
  packed into a single int64 key.  Coordinate c gets radix ``2*B_c + 1``
  where ``B_c = sum_i |a_ic|``, so a root contributes a fixed key delta and
  the zero vector is exactly key 0.
* row keys: systems whose box exceeds 62 bits keep whole int64 sum
  vectors, each row viewed as one ``np.void`` value of ``8*m`` bytes.

A table is indexed by sign mask (bit t set = root t negative), so negating
every sign reverses it: a sum of one table meets its negation in another
exactly when its key occurs in both, and no engine negates a key.  The
meet-in-the-middle join and the witness intersection (in ``sigsum``) and
the blocked prefix x suffix scan (here) are each written once, for both
kinds.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceLimitError

# int64 key budget: strictly below 2^62 so the +-2*delta walk never wraps.
_KEY_BITS = 62
# Bytes of keys in one suffix block of the full scan: 2^22 packed keys.
_SCAN_BLOCK_BYTES = 32 << 20


def key_packing(roots: np.ndarray) -> np.ndarray | None:
    """Per-root int64 key deltas, or None when the box exceeds the key budget."""
    bounds = [int(b) for b in np.abs(roots.astype(object)).sum(axis=0)]
    capacity = math.prod(2 * b + 1 for b in bounds)
    if capacity >= (1 << _KEY_BITS):
        return None
    strides = []
    s = 1
    for b in bounds:
        strides.append(s)
        s *= 2 * b + 1
    deltas = [sum(int(x) * st for x, st in zip(row, strides)) for row in roots.tolist()]
    return np.array(deltas, dtype=np.int64)


def check_vector_bounds(roots: np.ndarray) -> None:
    """Unpacked tables hold int64 sums; refuse inputs that could wrap."""
    bound = max((int(b) for b in np.abs(roots.astype(object)).sum(axis=0)), default=0)
    if bound >= (1 << _KEY_BITS):
        raise ResourceLimitError("coordinate magnitudes too large for exact int64 enumeration")


def signed_sum_keys(deltas: np.ndarray) -> np.ndarray:
    """All 2^h packed signed-sum keys, indexed by sign mask (bit t set = root t negative)."""
    keys = np.zeros(1, dtype=np.int64)
    for d in deltas:
        keys = np.concatenate((keys + d, keys - d))
    return keys


def signed_sum_table(roots: np.ndarray) -> np.ndarray:
    """Unpacked (2^h, m) signed-sum table, same index convention."""
    check_vector_bounds(roots)
    sums = np.zeros((1, roots.shape[1]), dtype=np.int64)
    for row in roots:
        sums = np.concatenate((sums + row, sums - row))
    return sums


def _key_bytes(roots: np.ndarray, deltas: np.ndarray | None) -> int:
    return 8 if deltas is not None else 8 * roots.shape[1]


def _split_tables(roots, deltas, k, memory_budget):
    r = roots.shape[0]
    # both tables plus the sort and unique copies of a join
    estimate = ((1 << k) + (1 << (r - k))) * _key_bytes(roots, deltas) * 3
    if estimate > memory_budget:
        raise ResourceLimitError(
            f"signed-sum tables would need about {estimate} bytes (> budget {memory_budget})"
        )
    if deltas is not None:
        return signed_sum_keys(deltas[:k]), signed_sum_keys(deltas[k:]), estimate
    row = np.dtype((np.void, 8 * roots.shape[1]))
    left = signed_sum_table(roots[:k]).view(row).ravel()
    right = signed_sum_table(roots[k:]).view(row).ravel()
    return left, right, estimate


def key_tables(
    roots: np.ndarray, k: int, memory_budget: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Key tables of the signed sums of ``roots[:k]`` and ``roots[k:]``, and
    the byte estimate checked against ``memory_budget`` before either is built."""
    return _split_tables(roots, key_packing(roots), k, memory_budget)


def count_zero_full(roots: np.ndarray, memory_budget: int) -> int:
    """Exact number of sign vectors with zero signed sum, by full 2^r enumeration.

    Every (prefix, suffix) sign combination is inspected exactly once, so the
    work is genuinely Theta(2^r); the suffix block holds ``_SCAN_BLOCK_BYTES``
    of keys at most.
    """
    r = roots.shape[0]
    deltas = key_packing(roots)
    q = min(r, (_SCAN_BLOCK_BYTES // _key_bytes(roots, deltas)).bit_length() - 1)
    prefix, suffix, _ = _split_tables(roots, deltas, r - q, memory_budget)
    return sum(int(np.count_nonzero(suffix == key)) for key in prefix)
