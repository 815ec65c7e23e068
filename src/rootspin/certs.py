"""Explicit zero-signed-sum certificates per family.

A certificate is a list of blocks; each block is a partial sign assignment
over a disjoint subset of root indices whose partial signed sum is zero,
and together the blocks cover every root index exactly once.  Flipping any
subset of blocks therefore yields 2^{#blocks} distinct full sign vectors
with zero signed sum, which lower-bounds the number of solutions.

Every block formula is translated once into (index, sign) pairs against the
canonical root order; ``verify`` re-checks the result by direct coordinate
summation, independently of the translation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError
from .rootsys import FamilyRank, RootSystem, positive_roots, root_index_map

Block = tuple[tuple[int, int], ...]  # ((root_index, sign), ...)


@dataclass(frozen=True)
class CertificateFamily:
    system_id: FamilyRank
    blocks: tuple[Block, ...]

    @property
    def lower_bound(self) -> int:
        """Number of zero signed sums certified by the blocks alone."""
        return 2 ** len(self.blocks)


def lower_bound(fr: FamilyRank) -> int:
    """Published lower bound on the count of zero signed sums (0 = none exist).

    For E6, F4 and G2 this is the exact count; for E8 it is 369600, which is
    strictly larger than what the assembled certificate's blocks certify.
    """
    n = fr.rank
    if fr.family == "A":
        return 2 ** (n // 2) if n % 2 == 0 else 0
    if fr.family == "B":
        return 0
    if fr.family == "C":
        return 2 ** ((n + 1) // 4) if n % 4 in (0, 3) else 0
    if fr.family == "D":
        return 2 ** ((n + 1) // 4) if n % 4 in (0, 1) else 0
    if fr.family == "E":
        return {6: 13697920, 7: 0, 8: 369600}[n]
    if fr.family == "F":
        return 34432
    return 4  # G2


def _alternating_blocks(k: int, pair_idx, extra_idx) -> list[list[tuple[int, int]]]:
    """Blocks over difference roots of 2k indices plus one extra root per index.

    ``pair_idx(i, j)`` resolves the root behaving like l_i - l_j (1-based,
    i < j <= 2k) and ``extra_idx(i)`` the extra root attached to index i.
    The identities are linear, so they survive any such reinterpretation of
    the symbols (used verbatim for even A ranks and index-shifted inside E8).
    """
    blocks: list[list[tuple[int, int]]] = []
    for l in range(1, k):
        block: list[tuple[int, int]] = []
        for j in range(2 * l + 1, 2 * k + 1):
            block.append((pair_idx(2 * l, j), (-1) ** j))
        for j in range(2 * l + 2, 2 * k + 1):
            block.append((pair_idx(2 * l + 1, j), -((-1) ** j)))
        blocks.append(block)
    tail = [(extra_idx(1), 1)]
    for j in range(2, 2 * k + 1):
        s = (-1) ** j
        tail.append((pair_idx(1, j), -s))
        tail.append((extra_idx(j), -s))
    blocks.append(tail)
    return blocks


def _lookup(system: RootSystem):
    """Signed-index root lookup, with 1-based indices into the coordinates.

    ``at(*terms, base=0)`` starts from ``base`` in every coordinate and adds
    l_i for each term i and subtracts l_j for each term -j: ``at(i, -j)`` is
    l_i - l_j, ``at(i, i)`` is 2 l_i and ``at(-i, -j, base=1)`` is
    nu - l_i - l_j.
    """
    n = system.ambient_dim
    idx = root_index_map(system)

    def at(*terms: int, base: int = 0) -> int:
        v = [base] * n
        for t in terms:
            v[abs(t) - 1] += 1 if t > 0 else -1
        return idx[tuple(v)]

    return at


def _blocks_a(system: RootSystem) -> list[list[tuple[int, int]]]:
    at = _lookup(system)
    return _alternating_blocks(
        system.id.rank // 2, lambda i, j: at(i, -j), lambda i: at(i, base=1)
    )


def _blocks_c(system: RootSystem) -> list[list[tuple[int, int]]]:
    n = system.id.rank
    k, eps = divmod(n, 4)
    if eps not in (0, 3):
        raise AssertionError("C blocks exist only for n = 0, 3 mod 4")
    at = _lookup(system)
    blocks = []
    for l in range(k):
        a, b, c, d = 4 * l + 1, 4 * l + 2, 4 * l + 3, 4 * l + 4
        block = [(at(a, -b), 1), (at(a, b), 1)]
        for j in range(a + 2, n + 1):
            block += [(at(a, j), 1), (at(a, -j), -1)]
        block += [(at(b, -c), 1), (at(b, c), 1)]
        for j in range(b + 2, n + 1):
            block += [(at(b, j), -1), (at(b, -j), 1)]
        for j in range(c + 1, n + 1):
            block += [(at(c, j), 1), (at(c, -j), -1)]
        for j in range(d + 1, n + 1):
            block += [(at(d, j), -1), (at(d, -j), 1)]
        block += [(at(a, a), -1), (at(b, b), -1), (at(c, c), -1), (at(d, d), -1)]
        blocks.append(block)
    if eps == 3:
        p, q, s = 4 * k + 1, 4 * k + 2, 4 * k + 3
        blocks.append(
            [
                (at(p, -q), 1),
                (at(p, -s), -1),
                (at(q, -s), 1),
                (at(p, q), 1),
                (at(p, s), 1),
                (at(q, s), 1),
                (at(p, p), -1),
                (at(q, q), -1),
                (at(s, s), -1),
            ]
        )
    return blocks


def _blocks_d(system: RootSystem) -> list[list[tuple[int, int]]]:
    n = system.id.rank
    k, eps = divmod(n, 4)
    if eps not in (0, 1):
        raise AssertionError("D blocks exist only for n = 0, 1 mod 4")
    at = _lookup(system)
    blocks = []
    for l in range(k):
        a, b, c, d = 4 * l + 1, 4 * l + 2, 4 * l + 3, 4 * l + 4
        block: list[tuple[int, int]] = []
        # Alternating signs use the literal global subscript j.
        for j in range(a + 1, n + 1):
            s = (-1) ** j
            block += [(at(a, -j), s), (at(a, j), -s)]
        block += [(at(b, -c), 1), (at(b, c), 1)]
        for j in range(b + 2, n + 1):
            s = (-1) ** j
            block += [(at(b, -j), -s), (at(b, j), s)]
        block += [(at(c, -d), -1), (at(c, d), -1)]
        for j in range(c + 2, n + 1):
            s = (-1) ** j
            block += [(at(c, -j), s), (at(c, j), -s)]
        for j in range(d + 1, n + 1):
            s = (-1) ** j
            block += [(at(d, -j), -s), (at(d, j), s)]
        blocks.append(block)
    return blocks


# Explicit sign lists for the one-block exceptional certificates, in
# canonical root order.
_E6_PAIR_SIGNS = (-1, 1, 1, 1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, 1)
_E6_TRIPLE_SIGNS = (
    -1, -1, -1, -1, -1, 1, 1, 1, 1, -1,
    1, -1, 1, 1, -1, -1, 1, 1, -1, -1,
)
_E6_SIGNS = _E6_PAIR_SIGNS + _E6_TRIPLE_SIGNS + (1,)
_F4_MINUS_SIGNS = (-1, -1, -1, -1, -1, -1)
_F4_PLUS_SIGNS = (-1, 1, -1, 1, 1, -1)
_F4_SINGLE_SIGNS = (1, -1, -1, -1)
_F4_HALF_SIGNS = (1, 1, 1, 1, -1, 1, 1, 1)
_F4_SIGNS = _F4_MINUS_SIGNS + _F4_PLUS_SIGNS + _F4_SINGLE_SIGNS + _F4_HALF_SIGNS
_G2_SIGNS = (1, 1, 1, -1, -1, 1)


def _one_block(signs: tuple[int, ...]):
    """Builder for a certificate whose single block is the whole sign list."""
    return lambda system: [list(enumerate(signs))]


def _blocks_e8(system: RootSystem) -> list[list[tuple[int, int]]]:
    at = _lookup(system)

    # All triples minus all (nu - l_i - l_j): both sum to 21*nu.
    bulk = [
        (at(i, j, k), 1)
        for i in range(1, 9)
        for j in range(i + 1, 9)
        for k in range(j + 1, 9)
    ]
    bulk += [(at(-i, -j, base=1), -1) for i in range(1, 9) for j in range(i + 1, 9)]

    # Alternating identity tying the l_1 - l_j fan to the nu + l_i fan.
    fan = [(at(1, -j), (-1) ** j) for j in range(2, 9)]
    fan += [(at(i, base=1), (-1) ** i) for i in range(1, 9)]

    # The 21 remaining differences among indices 2..8 carry the shifted
    # even-rank-6 construction, reading l_{i+1} - l_8 for the extra roots.
    shifted = _alternating_blocks(
        3,
        lambda i, j: at(i + 1, -(j + 1)),
        lambda i: at(i + 1, -8),
    )
    return [bulk, fan] + shifted


def certificate(system: FamilyRank | RootSystem) -> CertificateFamily | None:
    """Verified block certificate, or None exactly when no zero sum exists.

    Takes a root system already built, or an id whose system is then built
    once; the blocks index into it and are verified against it.
    """
    fr = system.id if isinstance(system, RootSystem) else system
    n = fr.rank
    build = {
        "A": _blocks_a if n % 2 == 0 else None,
        "B": None,
        "C": _blocks_c if n % 4 in (0, 3) else None,
        "D": _blocks_d if n % 4 in (0, 1) else None,
        "E": {6: _one_block(_E6_SIGNS), 7: None, 8: _blocks_e8}.get(n),
        "F": _one_block(_F4_SIGNS),
        "G": _one_block(_G2_SIGNS),
    }[fr.family]
    if build is None:
        return None
    if not isinstance(system, RootSystem):
        system = positive_roots(fr)
    cert = CertificateFamily(fr, tuple(tuple(b) for b in build(system)))
    ok, diagnostic = verify_report(system, cert)
    if not ok:
        raise InternalCheckError(f"certificate construction for {fr} is broken: {diagnostic}")
    return cert


def verify_report(system: RootSystem, cert: CertificateFamily) -> tuple[bool, str]:
    """Check a certificate against a system; returns (ok, diagnostic)."""
    if cert.system_id != system.id:
        return False, f"certificate for {cert.system_id} applied to {system.id}"
    seen: set[int] = set()
    for b, block in enumerate(cert.blocks):
        indices = [i for i, _ in block]
        if any(i < 0 or i >= system.r for i in indices):
            return False, f"block {b} references a root index out of range"
        if len(set(indices)) != len(indices) or seen.intersection(indices):
            return False, f"block {b} overlaps another block or repeats an index"
        seen.update(indices)
        if any(s not in (-1, 1) for _, s in block):
            return False, f"block {b} carries a sign outside {{+1, -1}}"
        partial = np.zeros(system.ambient_dim, dtype=np.int64)
        for i, s in block:
            partial += s * system.roots[i]
        if np.any(partial != 0):
            return False, f"block {b} has non-zero partial sum {partial.tolist()}"
    if len(seen) != system.r:
        return False, f"blocks cover {len(seen)} of {system.r} root indices"
    return True, "ok"


def verify(system: RootSystem, cert: CertificateFamily) -> bool:
    """True iff the blocks partition the index range and each sums to zero."""
    return verify_report(system, cert)[0]


def assembled_witness(cert: CertificateFamily) -> np.ndarray:
    """The full sign vector taking every block in its + orientation."""
    r = sum(len(b) for b in cert.blocks)
    signs = np.zeros(r, dtype=np.int64)
    for block in cert.blocks:
        for i, s in block:
            signs[i] = s
    if np.any(signs == 0):
        raise InternalCheckError("certificate blocks do not cover all roots")
    return signs
