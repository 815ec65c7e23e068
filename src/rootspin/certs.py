"""Explicit zero-signed-sum certificates per family.

A certificate is a list of blocks; each block is a partial sign assignment
over a disjoint subset of root indices whose partial signed sum is zero,
and together the blocks cover every root index exactly once.  Flipping any
subset of blocks therefore yields 2^{#blocks} distinct full sign vectors
with zero signed sum, which lower-bounds the number of solutions.

Every block formula names its roots by pattern and subscripts, such as
l_a - l_j, and ``rootsys.root_indexer`` turns each into its position in the
canonical root order by arithmetic: no root is built or looked up, and no
map over the rows is made.  Each builder takes the family and rank and
builds its blocks once, as tuples of (index, sign) pairs.
``verify_report`` re-checks the result by summing every block over the
sparse rows, independently of how the indices were found.  Nothing here
uses numpy: the blocks, the checks and the assembled witness are all Python
ints.
"""

from __future__ import annotations

from functools import cached_property

from .errors import DimensionMismatchError, InternalCheckError, InvalidRankError
from .rootsys import (
    FamilyRank, Record, RootSystem, as_system, check_family_rank, is_int,
    positive_roots, root_indexer, row_sum,
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

    @cached_property
    def witness(self) -> tuple[int, ...]:
        """The blocks assembled into one sign vector on first read, and
        kept: ``verify_report`` and ``assembled_witness`` return this tuple."""
        return _assemble(self.blocks)


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


def _alternating_blocks(k: int, pair, extra) -> tuple[Block, ...]:
    """Blocks over difference roots of 2k indices plus one extra root per index.

    ``pair(i, j)`` is the index of the root behaving like l_i - l_j (1-based,
    i < j <= 2k) and ``extra(i)`` that of the extra root attached to index i.
    The identities are linear, so they survive any such reinterpretation of
    the symbols (used verbatim for even A ranks and index-shifted inside E8).
    """

    def block(l: int):
        for j in range(2 * l + 1, 2 * k + 1):
            yield pair(2 * l, j), (-1) ** j
        for j in range(2 * l + 2, 2 * k + 1):
            yield pair(2 * l + 1, j), -((-1) ** j)

    def tail():
        yield extra(1), 1
        for j in range(2, 2 * k + 1):
            s = (-1) ** j
            yield pair(1, j), -s
            yield extra(j), -s

    return (*(tuple(block(l)) for l in range(1, k)), tuple(tail()))


def _blocks_a(fr: FamilyRank) -> tuple[Block, ...]:
    minus, nu_plus = (root_indexer(fr, p) for p in ("l_i - l_j", "nu + l_i"))
    return _alternating_blocks(fr.rank // 2, minus, nu_plus)


def _blocks_c(fr: FamilyRank) -> tuple[Block, ...]:
    n = fr.rank
    k, eps = divmod(n, 4)
    minus, plus, double = (root_indexer(fr, p) for p in ("l_i - l_j", "l_i + l_j", "2l_i"))

    def block(a: int):
        b, c, d = a + 1, a + 2, a + 3
        yield minus(a, b), 1
        yield plus(a, b), 1
        for j in range(a + 2, n + 1):
            yield plus(a, j), 1
            yield minus(a, j), -1
        yield minus(b, c), 1
        yield plus(b, c), 1
        for j in range(b + 2, n + 1):
            yield plus(b, j), -1
            yield minus(b, j), 1
        for j in range(c + 1, n + 1):
            yield plus(c, j), 1
            yield minus(c, j), -1
        for j in range(d + 1, n + 1):
            yield plus(d, j), -1
            yield minus(d, j), 1
        for i in (a, b, c, d):
            yield double(i), -1

    blocks = tuple(tuple(block(4 * l + 1)) for l in range(k))
    if eps == 3:
        p, q, s = 4 * k + 1, 4 * k + 2, 4 * k + 3
        blocks += ((
            (minus(p, q), 1), (minus(p, s), -1), (minus(q, s), 1),
            (plus(p, q), 1), (plus(p, s), 1), (plus(q, s), 1),
            (double(p), -1), (double(q), -1), (double(s), -1),
        ),)
    return blocks


def _blocks_d(fr: FamilyRank) -> tuple[Block, ...]:
    n = fr.rank
    minus, plus = (root_indexer(fr, p) for p in ("l_i - l_j", "l_i + l_j"))

    def block(a: int):
        # Alternating signs use the literal global subscript j.
        b, c, d = a + 1, a + 2, a + 3
        for j in range(a + 1, n + 1):
            s = (-1) ** j
            yield minus(a, j), s
            yield plus(a, j), -s
        yield minus(b, c), 1
        yield plus(b, c), 1
        for j in range(b + 2, n + 1):
            s = (-1) ** j
            yield minus(b, j), -s
            yield plus(b, j), s
        yield minus(c, d), -1
        yield plus(c, d), -1
        for j in range(c + 2, n + 1):
            s = (-1) ** j
            yield minus(c, j), s
            yield plus(c, j), -s
        for j in range(d + 1, n + 1):
            s = (-1) ** j
            yield minus(d, j), -s
            yield plus(d, j), s

    return tuple(tuple(block(4 * l + 1)) for l in range(n // 4))


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
    return lambda fr: (tuple(enumerate(signs)),)


def _blocks_e8(fr: FamilyRank) -> tuple[Block, ...]:
    minus, triple, nu_plus, nu_minus = (
        root_indexer(fr, p) for p in ("l_i - l_j", "l_i + l_j + l_k", "nu + l_i", "nu - l_i - l_j")
    )
    pairs = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)]

    # All triples minus all (nu - l_i - l_j): both sum to 21*nu.
    bulk = (
        *((triple(i, j, k), 1) for i, j in pairs for k in range(j + 1, 9)),
        *((nu_minus(i, j), -1) for i, j in pairs),
    )

    # Alternating identity tying the l_1 - l_j fan to the nu + l_i fan.
    fan = (
        *((minus(1, j), (-1) ** j) for j in range(2, 9)),
        *((nu_plus(i), (-1) ** i) for i in range(1, 9)),
    )

    # The 21 remaining differences among indices 2..8 carry the shifted
    # even-rank-6 construction, reading l_{i+1} - l_8 for the extra roots.
    shifted = _alternating_blocks(3, lambda i, j: minus(i + 1, j + 1), lambda i: minus(i + 1, 8))
    return (bulk, fan, *shifted)


# Block builders of the systems ``lower_bound`` certifies, the classical by
# family; each takes the id and returns its blocks.
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
    cert = CertificateFamily(fr, build(fr))
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
        witness = cert.witness
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
    The vector is assembled once per certificate and kept on it
    (``CertificateFamily.witness``).
    """
    return _check_certificate(cert).witness


def _assemble(blocks) -> tuple[int, ...]:
    """The witness of ``blocks``, refused as ``assembled_witness`` says."""
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
