"""Enumeration kernels behind the exact counters.

The engines work on key tables of signed sums, one key per sum, so that
equal keys mean equal sums.  ``_split_tables`` enumerates runs of roots over
all 2^h sign masks (brute force, enumeration); ``pruned_tables`` walks each
meet-in-the-middle half one root at a time, keeping the distinct sums that
can still reach zero with their multiplicities (counting, witness search).
Each system gets one key kind, decided here alone (``key_vector`` decodes):

* packed keys: whenever the coordinate box fits, a signed sum vector is
  packed into a single int64 key.  Coordinate c gets radix ``2*B_c + 1``
  where ``B_c = sum_i |a_ic|``, so a root contributes a fixed key delta and
  the zero vector is exactly key 0.
* row keys: systems whose box exceeds 62 bits keep whole int64 sum
  vectors, each row viewed as one ``np.void`` value of ``8*m`` bytes.

A full table holds every signed sum, indexed by sign mask (bit t set =
root t negative).  The signed sums of a run of roots are closed under
negation, and pruning is symmetric, so a pruned table holds one state per
pair {s, -s}: the sign-canonical sum (``|key|`` for packed keys, the row
with its first nonzero coordinate positive for row keys), counted by the
sign vectors that reach s, as many as reach -s.  The zero sum is its own
pair and sorts first in both kinds.  Either way a sum of one table meets
its negation in another exactly when its key occurs in both.  The
sorted-key lookup of the join and the witness search (in ``sigsum``), the
walk and the blocked prefix x suffix scan (here) are each written once, for
both kinds.  The scan compares every prefix key with every suffix key
exactly once, in blocks that stay in cache: a suffix table of at most
256 KiB of keys, and a few prefix keys at a time broadcast against it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceLimitError

# int64 key budget: strictly below 2^62 so the +-2*delta walk never wraps.
_KEY_BITS = 62
# Bytes of keys in the suffix table of the full scan: 2^15 packed keys.
_SUFFIX_BLOCK_BYTES = 256 << 10
# Bytes of booleans one broadcast compare of the full scan produces.
_COMPARE_BLOCK_BYTES = 512 << 10
# Matched multiplicities the join multiplies at a time as Python ints.
JOIN_CHUNK = 1 << 14


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
    """All 2^h signed sums of the rows of ``deltas``, indexed by sign mask
    (bit t set = root t negative): packed keys from key deltas, or a
    (2^h, m) table from root rows, whose caller checks the bounds of the
    whole matrix (``check_vector_bounds``)."""
    keys = np.zeros((1,) + deltas.shape[1:], dtype=np.int64)
    for d in deltas:
        keys = np.concatenate((keys + d, keys - d))
    return keys


def key_vector(roots: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The signed sum of ``roots`` a one-key slice of their table stands for."""
    if key.dtype.kind == "V":
        return key.view(np.int64).copy()
    rest, v = int(key[0]), []
    for b in np.abs(roots).sum(axis=0).tolist():
        v.append((rest + b) % (2 * b + 1) - b)
        rest = (rest - v[-1]) // (2 * b + 1)
    return np.array(v, np.int64)


def _walk_bytes(states: int, unit: int) -> int:
    """Upper bound on the bytes one doubling of ``states`` holds at once.

    Each state costs ``unit`` bytes (key and multiplicity); N <= 2 * states
    candidates.  The worst moment is a gather while its source is alive:
    candidates and gathered copy (2N units) with the sort permutation
    (8N) or the dedupe masks and starts (9N).  Pruning holds less: the
    candidates (N units), the shifted keys and one decoded digit (16N) and
    two masks (2N); so does the argsort with its buffer (12N).  So does
    making row keys sign-canonical, beside the candidates: a ``cand != 0``
    mask of m bytes a candidate with its first-nonzero indices (8N), then
    those indices, the gathered entries (8N) and a sign mask (N).
    """
    return 2 * states * (2 * unit + 10)


def pruned_tables(roots: np.ndarray, k: int, memory_budget: int) -> tuple[tuple, tuple, int]:
    """Deduplicated signed-sum tables of ``roots[:k]`` and ``roots[k:]``,
    pruned to the sums that can still reach zero.

    The left half is walked from the first root, the right half from the
    last, one doubling per root.  A state ``(key, multiplicity)`` stands for
    the pair {s, -s} of partial sums, each reached by ``multiplicity`` sign
    vectors; it becomes the canonical keys of ``s - d`` and ``s + d``, the
    two runs are merged by a stable argsort and equal keys are summed with
    ``np.add.reduceat`` in int64.  The zero sum is its own pair: its state
    steps to {d, -d} once, not twice, and a state that lands on zero (from
    {d, -d}, or from zero when d = 0) counts twice.  A partial sum is
    dropped when a coordinate exceeds in absolute value the weight
    ``sum |a_uc|`` of the roots not yet walked in either half; the bound is
    symmetric in s and -s, so it acts on whole pairs.  Only coordinates
    whose walked weight exceeds their remaining weight can bind, and only
    those are decoded.

    Returns ``((keys, counts), (keys, counts), estimate)``: both tables
    sorted by canonical key (row keys as ``np.void``), so a zero key comes
    first, and the largest byte estimate checked against ``memory_budget``
    before each doubling and the join.
    """
    r, m = roots.shape
    deltas = key_packing(roots)
    if deltas is None:
        check_vector_bounds(roots)
    u = _key_bytes(roots, deltas)
    unit = u + 8
    prefix = np.concatenate((np.zeros((1, m), np.int64), np.cumsum(np.abs(roots), axis=0)))
    total = prefix[-1]
    box = total.tolist()
    radix = [2 * b + 1 for b in box]
    stride = [math.prod(radix[:c]) for c in range(m)]
    offset = sum(b * st for b, st in zip(box, stride))
    row = np.dtype((np.void, u))
    # held throughout: the sorted roots, their prefix weights and key deltas,
    # and the walk's Python objects and array headers
    base = 128 * roots.size + (64 << 10)
    estimate = 0

    def sort_keys(keys: np.ndarray) -> np.ndarray:
        return keys if deltas is not None else keys.view(row).ravel()

    def check(need: int) -> None:
        nonlocal estimate
        estimate = max(estimate, need)
        if need > memory_budget:
            raise ResourceLimitError(
                f"signed-sum tables would need about {need} bytes (> budget {memory_budget})"
            )

    def prune(cand: np.ndarray, binding: np.ndarray, remaining: np.ndarray) -> np.ndarray:
        """Mask of the candidates whose binding coordinates all satisfy
        ``|s_c| <= remaining_c``, read as ``0 <= s_c + R_c <= 2 R_c``."""
        keep = np.ones(cand.shape[0], bool)
        digit = np.empty(cand.shape[0], np.int64)
        shifted = cand + offset if deltas is not None else None
        for c in binding.tolist():
            bound = int(remaining[c])
            if deltas is None:
                np.add(cand[:, c], bound, out=digit)
            else:
                # digit c of key + offset is s_c + B_c
                np.floor_divide(shifted, stride[c], out=digit)
                if c < m - 1:
                    np.remainder(digit, radix[c], out=digit)
                digit -= box[c] - bound
            keep &= digit.view(np.uint64) <= 2 * bound
        return keep

    def canonical(cand: np.ndarray) -> None:
        """Replace each sum by the one of {s, -s} with a nonnegative key, in place."""
        if deltas is not None:
            np.abs(cand, out=cand)
            return
        first = (cand != 0).argmax(axis=1)[:, None]
        negative = np.take_along_axis(cand, first, axis=1) < 0
        np.negative(cand, out=cand, where=negative)

    def walk(steps, held: int):
        keys = np.zeros(1 if deltas is not None else (1, m), np.int64)
        counts = np.ones(1, np.int64)
        for i, walked, remaining in steps:
            n = counts.shape[0]
            check(held + _walk_bytes(n, unit))
            d = roots[i] if deltas is None else deltas[i]
            # the zero state, first when present, has one successor pair
            z = int(n > 0 and not keys[0].any())
            cand = np.empty((2 * n - z,) + keys.shape[1:], np.int64)
            np.subtract(keys, d, out=cand[:n])
            np.add(keys[z:], d, out=cand[n:])
            keys = None
            counts = np.concatenate((counts, counts[z:]))
            binding = np.flatnonzero(walked > remaining)
            if binding.size:
                keep = prune(cand, binding, remaining)
                cand, counts = cand[keep], counts[keep]
                keep = None
            canonical(cand)
            perm = np.argsort(sort_keys(cand), kind="stable")
            cand, counts = cand[perm], counts[perm]
            perm = None
            view = sort_keys(cand)
            edge = np.ones(view.shape[0], bool)
            edge[1:] = view[1:] != view[:-1]
            if edge.all():
                keys = cand
            else:
                starts = np.flatnonzero(edge)
                keys, counts = cand[starts], np.add.reduceat(counts, starts)
            cand = view = edge = starts = None
            # zero is reached from the pair {d, -d} as d - d and -d + d (from
            # zero itself when d = 0), so each landing counts twice
            if keys.shape[0] and not keys[0].any():
                counts[0] *= 2
        return keys, counts

    left = walk(((i, prefix[i + 1], total - prefix[i + 1]) for i in range(k)), base)
    nl = left[1].shape[0]
    right_steps = ((i, total - prefix[i], prefix[i]) for i in range(r - 1, k - 1, -1))
    right = walk(right_steps, base + nl * unit)
    nr = right[1].shape[0]
    # the join: positions of the left keys with the gathered right keys and
    # a mask (u + 9 bytes a left key), or with the matched indices and
    # counts (40); and one chunk of matched counts as two Python-int lists
    check(base + (nl + nr) * unit + nl * max(u + 9, 40) + min(nl, nr, JOIN_CHUNK) * 80)
    return (sort_keys(left[0]), left[1]), (sort_keys(right[0]), right[1]), estimate


def _key_bytes(roots: np.ndarray, deltas: np.ndarray | None) -> int:
    return 8 if deltas is not None else 8 * roots.shape[1]


def _split_tables(roots, deltas, k, memory_budget, scratch=0):
    r = roots.shape[0]
    if deltas is None:
        check_vector_bounds(roots)
    # both tables, where the last doubling of one holds its old table, the
    # two shifted copies and the new table (2.5 tables); and the caller's
    # scratch bytes
    estimate = ((1 << k) + (1 << (r - k))) * _key_bytes(roots, deltas) * 4 + scratch
    if estimate > memory_budget:
        raise ResourceLimitError(
            f"signed-sum tables would need about {estimate} bytes (> budget {memory_budget})"
        )
    if deltas is not None:
        return signed_sum_keys(deltas[:k]), signed_sum_keys(deltas[k:]), estimate
    row = np.dtype((np.void, 8 * roots.shape[1]))
    left = signed_sum_keys(roots[:k]).view(row).ravel()
    right = signed_sum_keys(roots[k:]).view(row).ravel()
    return left, right, estimate


def count_zero_full(roots: np.ndarray, memory_budget: int) -> tuple[int, int]:
    """Exact number of sign vectors with zero signed sum, by full 2^r
    enumeration, and the byte estimate checked against ``memory_budget``.

    The last q roots form a suffix table of at most ``_SUFFIX_BLOCK_BYTES``
    of keys, the first r - q a prefix table.  Each step broadcasts a run of
    prefix keys against the whole suffix table, a boolean block of at most
    ``_COMPARE_BLOCK_BYTES``, and counts its equal pairs.  Every (prefix,
    suffix) pair is compared exactly once, so the work is genuinely
    Theta(2^r); only the memory traffic is blocked.
    """
    r = roots.shape[0]
    deltas = key_packing(roots)
    q = min(r, (_SUFFIX_BLOCK_BYTES // _key_bytes(roots, deltas)).bit_length() - 1)
    prefix, suffix, estimate = _split_tables(roots, deltas, r - q, memory_budget,
                                             _COMPARE_BLOCK_BYTES)
    step = max(1, _COMPARE_BLOCK_BYTES >> q)
    value = sum(
        int(np.count_nonzero(prefix[i:i + step, None] == suffix))
        for i in range(0, prefix.shape[0], step)
    )
    return value, estimate
