"""Explicit zero-signed-sum certificates per family.

A certificate is a list of blocks; each block is a partial sign assignment
over a disjoint subset of root indices whose partial signed sum is zero,
and together the blocks cover every root index exactly once.  Flipping any
subset of blocks therefore yields 2^{#blocks} distinct full sign vectors
with zero signed sum, which lower-bounds the number of solutions.

Every block formula is translated once into (index, sign) pairs against the
canonical root order; ``verify`` re-checks the result by direct coordinate
summation over the sparse rows, independently of the translation.  Nothing
here uses numpy: the blocks, the checks and the assembled witness are all
Python ints.
"""

from __future__ import annotations

from .errors import DimensionMismatchError, InternalCheckError, InvalidRankError
from .rootsys import (
    FamilyRank, Record, RootSystem, as_system, check_family_rank, is_int, positive_roots, row_sum,
)

Block = tuple[tuple[int, int], ...]  # ((root_index, sign), ...)


class CertificateFamily(Record):
    """The blocks of a zero-signed-sum certificate for the system ``system_id``."""

    __match_args__ = ("system_id", "blocks")

    def __init__(self, system_id: FamilyRank, blocks: tuple[Block, ...]) -> None:
        self.__dict__.update(system_id=system_id, blocks=blocks)

    @property
    def lower_bound(self) -> int:
        """Number of zero signed sums certified by the blocks alone."""
        return 2 ** len(self.blocks)


def _bound_parts(fr: FamilyRank) -> tuple[int, int]:
    """The published lower bound as (c, k), meaning c * 2^k, so that existence
    (c != 0) is read without building 2^k, which a huge rank cannot hold;
    anything but a FamilyRank raises ``InvalidRankError``."""
    n = check_family_rank(fr).rank
    if fr.family == "A":
        return (1, n // 2) if n % 2 == 0 else (0, 0)
    if fr.family == "B":
        return 0, 0
    if fr.family == "C":
        return (1, (n + 1) // 4) if n % 4 in (0, 3) else (0, 0)
    if fr.family == "D":
        return (1, (n + 1) // 4) if n % 4 in (0, 1) else (0, 0)
    if fr.family == "E":
        return {6: 13697920, 7: 0, 8: 369600}[n], 0
    if fr.family == "F":
        return 34432, 0
    return 4, 0  # G2


def lower_bound(fr: FamilyRank) -> int:
    """Published lower bound on the count of zero signed sums (0 = none exist).

    For E6, F4 and G2 this is the exact count; for E8 it is 369600, which is
    strictly larger than what the assembled certificate's blocks certify.
    Anything but a FamilyRank raises ``InvalidRankError``.
    """
    c, k = _bound_parts(fr)
    return c << k


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
    nu - l_i - l_j.  The vector is looked up as the sparse row it stands for.
    """
    n = system.ambient_dim
    idx = {row: i for i, row in enumerate(system.rows)}

    def at(*terms: int, base: int = 0) -> int:
        v = dict.fromkeys(range(n), base) if base else {}
        for t in terms:
            c = abs(t) - 1
            v[c] = v.get(c, 0) + (1 if t > 0 else -1)
        return idx[tuple(sorted((c, x) for c, x in v.items() if x))]

    return at


def _blocks_a(system: RootSystem) -> list[list[tuple[int, int]]]:
    at = _lookup(system)
    return _alternating_blocks(
        system.id.rank // 2, lambda i, j: at(i, -j), lambda i: at(i, base=1)
    )


def _blocks_c(system: RootSystem) -> list[list[tuple[int, int]]]:
    n = system.id.rank
    k, eps = divmod(n, 4)
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
    at = _lookup(system)
    blocks = []
    for l in range(n // 4):
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


# Block builders of the systems ``lower_bound`` certifies: the classical by family.
_BUILDERS = {"A": _blocks_a, "C": _blocks_c, "D": _blocks_d, "E6": _one_block(_E6_SIGNS),
             "E8": _blocks_e8, "F4": _one_block(_F4_SIGNS), "G2": _one_block(_G2_SIGNS)}


def certificate(system: FamilyRank | RootSystem) -> CertificateFamily | None:
    """Verified block certificate, or None exactly when no zero sum exists,
    that is when ``lower_bound`` is 0, decided before any root is built and
    without building the bound itself.

    Takes a root system already built, or an id whose system is then built
    once; the blocks index into it and are verified against it.  An
    unnamed system (``id`` None) has no family, so it is refused, and so is
    anything but a RootSystem or a FamilyRank, each with ``InvalidRankError``.
    """
    fr = system.id if isinstance(system, RootSystem) else system
    if fr is None:
        raise InvalidRankError(f"{system} has no family and rank to certify")
    if not _bound_parts(fr)[0]:
        return None
    if not isinstance(system, RootSystem):
        system = positive_roots(fr)
    build = _BUILDERS.get(fr.family) or _BUILDERS[str(fr)]
    cert = CertificateFamily(fr, tuple(tuple(b) for b in build(system)))
    ok, diagnostic = verify_report(system, cert)
    if not ok:
        raise InternalCheckError(f"certificate construction for {fr} is broken: {diagnostic}")
    return cert


def _check_certificate(cert) -> CertificateFamily:
    if not isinstance(cert, CertificateFamily):
        raise DimensionMismatchError(f"expected a CertificateFamily, got {type(cert).__name__}")
    return cert


def verify_report(system: RootSystem, cert: CertificateFamily) -> tuple[bool, str]:
    """Check a certificate against a system; returns (ok, diagnostic), also
    for blocks that ``assembled_witness`` refuses, whose text it reports.

    ``system`` goes through ``as_system``; anything but a RootSystem or an
    integer matrix, or a ``cert`` that is not a CertificateFamily, raises
    ``DimensionMismatchError``."""
    system = as_system(system)
    if _check_certificate(cert).system_id != system.id:
        return False, f"certificate for {cert.system_id} applied to {system}"
    try:
        witness = assembled_witness(cert)
    except InternalCheckError as exc:
        return False, str(exc)
    if len(witness) != system.r:
        return False, f"blocks cover {len(witness)} of {system.r} root indices"
    for b, block in enumerate(cert.blocks):
        partial = row_sum(system.rows, system.ambient_dim, block)
        if any(partial):
            return False, f"block {b} has non-zero partial sum {partial}"
    return True, "ok"


def verify(system: RootSystem, cert: CertificateFamily) -> bool:
    """True iff the blocks partition the index range and each sums to zero;
    raises ``DimensionMismatchError`` where ``verify_report`` does."""
    return verify_report(system, cert)[0]


def assembled_witness(cert: CertificateFamily) -> tuple[int, ...]:
    """The full sign vector taking every block in its + orientation, as a
    tuple of Python ints +-1, one per root.

    The blocks must cover the indices 0..r-1 once each, r being their total
    size: a block list that is not a sequence, a block that is not a
    sequence of (index, sign) pairs, an index or sign that is not an integer
    (a bool included), an index out of range or repeated, or a sign other
    than +-1, raises ``InternalCheckError`` naming the block.  A ``cert``
    that is not a CertificateFamily raises ``DimensionMismatchError``.
    """
    blocks = _check_certificate(cert).blocks
    b = None  # the block being read, None while the list itself is
    try:
        len(blocks)  # a sequence, so the two passes read the same blocks
        r = 0
        for b, block in enumerate(blocks):
            r += len(block)
        signs = [0] * r  # r indices, each in range and new: every root is covered
        for b, block in enumerate(blocks):
            for i, s in block:
                if not ((type(i) is int or is_int(i)) and (type(s) is int or is_int(s))):
                    raise InternalCheckError(
                        f"block {b} holds a root index or sign that is not an integer"
                    )
                if not 0 <= i < r:
                    raise InternalCheckError(f"block {b} references a root index out of range")
                if signs[i]:
                    raise InternalCheckError(
                        f"block {b} overlaps another block or repeats an index"
                    )
                if s not in (-1, 1):
                    raise InternalCheckError(f"block {b} carries a sign outside {{+1, -1}}")
                signs[i] = int(s)
    except (TypeError, ValueError):
        if b is None:
            raise InternalCheckError("certificate blocks are not a sequence of blocks") from None
        raise InternalCheckError(f"block {b} is not a sequence of (index, sign) pairs") from None
    return tuple(signs)
