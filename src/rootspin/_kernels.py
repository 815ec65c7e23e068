"""Enumeration kernels behind the exact counters.

The engines work on key tables of signed sums, one key per sum, so that
equal keys mean equal sums.  ``_split_tables`` enumerates runs of roots over
all 2^h sign masks (brute force; enumeration, through ``zero_masks``);
``pruned_tables`` sorts the roots by their last nonzero coordinate, walks
each meet-in-the-middle half one root at a time, keeping the distinct sums
that can still reach zero with their multiplicities, and chooses the split
from its table sizes (counting, witness search).

A key is W int64 words, laid out by ``key_packing`` alone (``key_vector``
decodes).  Coordinate c gets radix ``2*B_c + 1`` where ``B_c = sum_i
|a_ic|``, and the coordinates are packed in order into a word while its
capacity stays below 2^62, so a root contributes a fixed delta of W words
and the zero vector is exactly the zero key.  W = 1 whenever the whole
coordinate box fits 62 bits, as it does for every catalogue system; W <= m
always.  A table of n keys is an (n, W) int64 array, sorted and compared
through one 1-D view: its int64 column at W = 1, one ``np.void`` of
``8*W`` bytes a key otherwise.

A full table holds every signed sum, indexed by sign mask (bit t set =
root t negative).  The signed sums of a run of roots are closed under
negation, and pruning is symmetric, so a pruned table holds one state per
pair {s, -s}: the sign-canonical sum, whose first nonzero word is positive
(``|key|`` at W = 1), counted by the sign vectors that reach s, as many as
reach -s.  The zero sum is its own pair and sorts first.  A sum of one
table meets its negation in another exactly when its key occurs in both.
The sorted-key lookup of the join and the witness search (in ``sigsum``),
the walk and the blocked prefix x suffix scan (here) are each written once,
for every W.  The scan is exhaustive over the sign vectors with root 0
positive, and doubles: negation pairs off the others.  It compares every
such prefix key with every suffix key exactly once, in blocks that stay in
cache: a suffix table of at most ``_BLOCK_BYTES`` (128 KiB) of keys, and a
few prefix keys at a time broadcast against it, at most ``_BLOCK_BYTES`` of
booleans a step.  ``signed_sum_keys`` builds each table in place.  Its
tables are int32 when a key takes one word and the largest, ``sum_i
|delta_i|``, fits in 31 bits, so the block holds twice as many keys.

Each call reads ``rootsys.memory_budget()`` once and checks every table
estimate against it with ``rootsys.check_budget`` before allocating.
"""

from __future__ import annotations

import numpy as np

from . import rootsys
from .errors import ResourceLimitError

# Word capacity budget: strictly below 2^62, so a word plus its offset never wraps.
_KEY_BITS = 62
# Bytes of the full scan's suffix table (2^15 int32 or 2^14 int64 keys) and
# of the booleans each of its broadcast compares produces.  In process on a
# 2-core Xeon, D6's scan takes about 90 ms; a 256 KiB table with 512 KiB
# compares takes 83 ms but holds 768 KiB more, and 64 KiB blocks take 105 ms.
_BLOCK_BYTES = 128 << 10
# Bytes a table estimate adds for what a call holds besides its tables and
# scratch: the packed deltas and numpy's small temporaries.  tracemalloc
# sees 3-4 KiB of them on every catalogue and hostile matrix of the tests.
_ALLOWANCE = 64 << 10
# Matched multiplicities the join multiplies at a time as Python ints.
JOIN_CHUNK = 1 << 14
# Roots in a meet-in-the-middle half: multiplicities up to 2^62 stay int64.
HALF_MAX = 62


def key_packing(roots: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Per-root key deltas, shape (r, W), and each coordinate's (word, stride).

    Coordinate c has radix ``2*B_c + 1`` with ``B_c = sum_i |a_ic|``.  The
    coordinates are packed in order into the current word while its
    capacity, the product of its radices, stays below 2^62; otherwise the
    coordinate starts a new word.  A coordinate alone in its word needs only
    ``B_c < 2^62``, so every sum of these roots has W int64 words.
    """
    bounds = [int(b) for b in np.abs(roots.astype(object)).sum(axis=0)]
    if max(bounds) >= (1 << _KEY_BITS):
        raise ResourceLimitError("coordinate magnitudes too large for exact int64 enumeration")
    places, word, capacity = [], -1, 1 << _KEY_BITS  # full: coordinate 0 opens word 0
    for b in bounds:
        if capacity * (2 * b + 1) >= (1 << _KEY_BITS):
            word, capacity = word + 1, 1
        places.append((word, capacity))
        capacity *= 2 * b + 1
    deltas = [[0] * (word + 1) for _ in range(roots.shape[0])]
    for row, delta in zip(roots.tolist(), deltas):
        for x, (w, stride) in zip(row, places):
            delta[w] += x * stride
    return np.array(deltas, dtype=np.int64), places


def signed_sum_keys(deltas: np.ndarray) -> np.ndarray:
    """All 2^h signed sums of the rows of ``deltas``, one (2^h, W) table of
    their dtype indexed by sign mask (bit t set = root t negative).  It is
    built in place: root t subtracts its delta from rows 0..2^t - 1 into
    rows 2^t..2^(t+1) - 1, then adds it to rows 0..2^t - 1, so no doubling
    holds a second table."""
    keys = np.zeros((1 << deltas.shape[0], deltas.shape[1]), dtype=deltas.dtype)
    n = 1
    for d in deltas:
        np.subtract(keys[:n], d, out=keys[n:2 * n])
        keys[:n] += d
        n *= 2
    return keys


def _flat(keys: np.ndarray) -> np.ndarray:
    """The 1-D view a (n, W) key table is sorted and compared by: its
    column at W = 1, one ``np.void`` of 8*W bytes a key otherwise."""
    if keys.shape[1] == 1:
        return keys[:, 0]
    return keys.view((np.void, 8 * keys.shape[1])).ravel()


def key_vector(roots: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The signed sum of ``roots`` a one-key slice of their table stands for."""
    words, v = key.view(np.int64).tolist(), []
    for b, (w, stride) in zip(np.abs(roots).sum(axis=0).tolist(), key_packing(roots)[1]):
        if stride == 1:
            rest = words[w]
        v.append((rest + b) % (2 * b + 1) - b)
        rest = (rest - v[-1]) // (2 * b + 1)
    return np.array(v, np.int64)


def _walk_bytes(states: int, unit: int) -> int:
    """Upper bound on the bytes one doubling of ``states`` holds at once.

    Each state costs ``unit`` bytes (W key words and a multiplicity); N <=
    2 * states candidates.  The worst moment is a gather while its source is
    alive: candidates and gathered copy (2N units) with the sort permutation
    (8N) or the dedupe masks and starts (9N).  Pruning holds less: the
    candidates and their shifted words (2N units), one decoded digit (8N)
    and two masks (2N); so does the argsort with its buffer (12N).  So does
    making keys sign-canonical, beside the candidates: per word, the
    leading nonzero word so far, its zero mask and its update (17N), then
    a sign mask (N).
    """
    return 2 * states * (2 * unit + 10)


def pruned_tables(roots: np.ndarray, k: int | None = None) -> tuple:
    """Deduplicated signed-sum tables of the two halves of ``roots``,
    pruned to the sums that can still reach zero, and the split k.

    The roots are first sorted, stably, by their last nonzero coordinate:
    the roots of each half then finish their coordinates early, so the
    weight bound below bites.

    The right half is walked first, from the last root, then the left half
    from the first, one doubling per root.  A state ``(key, multiplicity)``
    stands for the pair {s, -s} of partial sums, each reached by
    ``multiplicity`` sign vectors; it becomes the canonical keys of ``s - d``
    and ``s + d``, the two runs are merged by a stable argsort and equal
    keys are summed with ``np.add.reduceat`` in int64.  The zero sum is its
    own pair: its state steps to {d, -d} once, not twice, and a state that
    lands on zero (from {d, -d}, or from zero when d = 0) counts twice.  A
    partial sum is dropped when a coordinate exceeds in absolute value the
    weight ``sum |a_uc|`` of the roots not yet walked in either half; the
    bound is symmetric in s and -s, so it acts on whole pairs.  Only
    coordinates whose walked weight exceeds their remaining weight can
    bind, and only those are decoded, each from its own word.

    Unless ``k`` is given, the right walk chooses it: it stops before root
    i, so that k = i + 1, once one more doubling could give it more states
    than the 2^i pairs of the i + 1 roots left (``2n > 2^i``).  It also
    stops at ``HALF_MAX`` roots, so multiplicities stay int64, and leaves
    the left half at least ceil(r/4) roots, so that a recursion on the
    halves shrinks.  For r <= 2 * HALF_MAX (``sigsum._check_mitm_limits``)
    the left half then has at most HALF_MAX roots too, since 2n never
    reaches 2^62.  On an unprunable matrix that is the middle split; the
    right half, at the end of the sorted roots, prunes deepest and takes
    more of them.

    Returns ``(order, k, (keys, counts), (keys, counts), estimate)``: the
    stable sort permutation, so that the halves are ``roots[order][:k]``
    and ``roots[order][k:]``, the split, both tables sorted by their 1-D
    key view, so a zero key comes first, and the largest byte estimate
    checked against the memory budget before each doubling and the join.
    """
    budget = rootsys.memory_budget()
    last = roots.shape[1] - 1 - np.argmax(roots[:, ::-1] != 0, axis=1)
    order = np.argsort(last, kind="stable")
    roots = roots[order]
    r, m = roots.shape
    deltas, places = key_packing(roots)
    words = deltas.shape[1]
    unit = 8 * words + 8
    prefix = np.concatenate((np.zeros((1, m), np.int64), np.cumsum(np.abs(roots), axis=0)))
    total = prefix[-1]
    box = total.tolist()
    radix = [2 * b + 1 for b in box]
    offset = np.zeros(words, np.int64)
    for b, (w, stride) in zip(box, places):
        offset[w] += b * stride
    # held throughout: the sorted roots, their prefix weights and key deltas,
    # and the walk's Python objects and array headers
    base = 128 * roots.size + (64 << 10)
    estimate = 0

    def check(need: int) -> None:
        nonlocal estimate
        estimate = max(estimate, need)
        rootsys.check_budget(need, budget, "signed-sum tables")

    def prune(cand: np.ndarray, binding: np.ndarray, remaining: np.ndarray) -> np.ndarray:
        """Mask of the candidates whose binding coordinates all satisfy
        ``|s_c| <= remaining_c``, read as ``0 <= s_c + R_c <= 2 R_c``."""
        keep = np.ones(cand.shape[0], bool)
        digit = np.empty(cand.shape[0], np.int64)
        shifted = cand + offset
        for c in binding.tolist():
            w, stride = places[c]
            bound = int(remaining[c])
            # digit c of its word plus the word's offset is s_c + B_c
            np.floor_divide(shifted[:, w], stride, out=digit)
            if c < m - 1 and places[c + 1][0] == w:
                np.remainder(digit, radix[c], out=digit)
            digit -= box[c] - bound
            keep &= digit.view(np.uint64) <= 2 * bound
        return keep

    def canonical(cand: np.ndarray) -> None:
        """Replace each sum by the one of {s, -s} whose first nonzero word
        is positive (``|key|`` at W = 1), in place."""
        lead = cand[:, 0]
        for w in range(1, words):
            lead = np.where(lead == 0, cand[:, w], lead)
        np.negative(cand, out=cand, where=(lead < 0)[:, None])

    def rows(view: np.ndarray) -> np.ndarray:
        """The (n, W) int64 words under a 1-D key view."""
        return view.view(np.int64).reshape(-1, words)

    def walk(steps, held: int, stop=lambda i, n: False):
        """States after each step ``(i, walked, remaining)`` in turn, up to
        the first root i at which ``stop(i, n)`` holds, and the roots walked."""
        keys = np.zeros((1, words), np.int64)
        counts = np.ones(1, np.int64)
        done = 0
        for i, walked, remaining in steps:
            n = counts.shape[0]
            if stop(i, n):
                break
            done += 1
            check(held + _walk_bytes(n, unit))
            d = deltas[i]
            # the zero state, first when present, has one successor pair
            z = int(n > 0 and not any(keys[0].tolist()))
            cand = np.empty((2 * n - z, words), np.int64)
            np.subtract(keys, d, out=cand[:n])
            np.add(keys[z:], d, out=cand[n:])
            keys = None
            counts = np.concatenate((counts, counts[z:]))
            binding = np.flatnonzero(walked > remaining)
            if binding.size:
                keep = prune(cand, binding, remaining)
                cand, counts = rows(_flat(cand)[keep]), counts[keep]
                keep = None
            canonical(cand)
            view = _flat(cand)
            perm = np.argsort(view, kind="stable")
            view, counts = view[perm], counts[perm]
            cand = perm = None
            edge = np.ones(view.shape[0], bool)
            edge[1:] = view[1:] != view[:-1]
            if not edge.all():
                starts = np.flatnonzero(edge)
                view, counts = view[starts], np.add.reduceat(counts, starts)
            keys = rows(view)
            view = edge = starts = None
            # zero is reached from the pair {d, -d} as d - d and -d + d (from
            # zero itself when d = 0), so each landing counts twice
            if keys.shape[0] and not any(keys[0].tolist()):
                counts[0] *= 2
        return keys, counts, done

    def stop(i: int, n: int) -> bool:
        """Whether the right walk, holding n states, ends before root i
        when it chooses the split: at HALF_MAX roots, or once its next
        doubling could outgrow the 2^i pairs of the roots left."""
        return k is None and (r - 1 - i >= HALF_MAX or 2 * n > 1 << i)

    lo = (r + 3) // 4 if k is None else k
    right_steps = ((i, total - prefix[i], prefix[i]) for i in range(r - 1, lo - 1, -1))
    *right, taken = walk(right_steps, base, stop)
    split = r - taken
    nr = right[1].shape[0]
    left_steps = ((i, prefix[i + 1], total - prefix[i + 1]) for i in range(split))
    *left, _ = walk(left_steps, base + nr * unit)
    nl = left[1].shape[0]
    # the join: positions of the left keys with the gathered right keys and
    # a mask (8W + 9 bytes a left key), or with the matched indices and
    # counts (40); and one chunk of matched counts as two Python-int lists
    check(base + (nl + nr) * unit + nl * max(8 * words + 9, 40) + min(nl, nr, JOIN_CHUNK) * 80)
    return order, split, (_flat(left[0]), left[1]), (_flat(right[0]), right[1]), estimate


def _split_tables(deltas, k, scratch=0, half=False):
    """Key tables of the signed sums of ``deltas[:k]`` and ``deltas[k:]``,
    of the dtype of ``deltas`` and each indexed by sign mask, and the byte
    estimate checked against the memory budget before either is built.  With
    ``half`` (k >= 1) root 0 is held positive: the first table is
    ``signed_sum_keys(deltas[1:k]) + deltas[0]``, 2^(k-1) keys, indexed by
    the sign mask of roots 1..k-1."""
    r, words = deltas.shape
    # both tables once (each is built in place), the caller's scratch bytes
    # and _ALLOWANCE
    estimate = ((1 << (k - half)) + (1 << (r - k))) * deltas.itemsize * words + scratch + _ALLOWANCE
    rootsys.check_budget(estimate, rootsys.memory_budget(), "signed-sum tables")
    prefix = signed_sum_keys(deltas[int(half):k])
    if half:
        prefix += deltas[0]
    return _flat(prefix), _flat(signed_sum_keys(deltas[k:])), estimate


def zero_masks(roots: np.ndarray) -> np.ndarray:
    """Sign masks of the zero signed sums of at most 16 roots, in order."""
    # The table of the empty half holds one key: that of the zero sum.  The
    # scratch is the compare's mask, a byte a key, and at most one int64
    # index a key.
    r = roots.shape[0]
    keys, zero, _ = _split_tables(key_packing(roots)[0], r, 9 << r)
    return np.flatnonzero(keys == zero)


def count_zero_full(roots: np.ndarray) -> tuple[int, int]:
    """Exact number of sign vectors with zero signed sum, by exhaustive
    enumeration, and the byte estimate checked against the memory budget.

    Negating every sign pairs the sign vectors off without fixed points and
    keeps a zero sum zero, so the count is twice the number of zero sums
    with root 0 positive: only those 2^(r-1) sign vectors are scanned.  The
    last q roots form a suffix table of at most ``_BLOCK_BYTES`` of keys,
    the first r - q >= 1 a prefix table with root 0 positive.  The
    tables are built and compared in int32 when W = 1 and the largest key,
    ``sum_i |delta_i|``, fits in 31 bits, so the suffix block holds twice
    as many keys.  Each step broadcasts a run of prefix keys against the
    whole suffix table, a boolean block of at most ``_BLOCK_BYTES``, and
    counts its equal pairs.  Every (prefix, suffix) pair is compared
    exactly once, so the work is Theta(2^(r-1)); only the memory traffic is
    blocked.
    """
    r = roots.shape[0]
    deltas, _ = key_packing(roots)
    if deltas.shape[1] == 1 and sum(abs(d) for d in deltas[:, 0].tolist()) < 1 << 31:
        deltas = deltas.astype(np.int32)  # no signed sum leaves int32
    q = min(r - 1, (_BLOCK_BYTES // deltas[0].nbytes).bit_length() - 1)
    prefix, suffix, estimate = _split_tables(deltas, r - q, _BLOCK_BYTES, True)
    step = max(1, _BLOCK_BYTES >> q)
    value = sum(
        int(np.count_nonzero(prefix[i:i + step, None] == suffix))
        for i in range(0, prefix.shape[0], step)
    )
    return 2 * value, estimate
