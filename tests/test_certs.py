"""Certificate constructions and the published lower bounds.

Claims covered:
    - every existence family in the tested range yields a certificate whose
      blocks are disjoint, covering, and individually sum to zero
    - block counts and bounds match the closed forms (A: n/2 blocks,
      C: floor((n+1)/4), D: floor((n+1)/4), E8: 5 blocks)
    - non-existence families return None
    - verify rejects mismatched systems, tampered signs and broken covers,
      and reports an index or sign that is not an integer (a float, a bool,
      a string) as a diagnostic, not an exception; numpy integers verify
    - verify reports a block list or block that is not a sequence (None,
      an int, a generator), or an entry that does not unpack into an
      (index, sign) pair, as a diagnostic, not an exception
    - an unnamed system (a bare matrix) gets no certificate: it is refused
      with a RootspinError, and verify rejects it by name
    - the assembled witnesses are genuine zero signed sums, including E8,
      and tuples of Python ints +-1, from numpy integer blocks too
    - assembling a witness refuses an index that is negative, out of range,
      repeated or not an integer (a bool included), a sign that is not the
      integer +-1, and a block that is not a sequence of pairs, with an
      InternalCheckError whose text names the block, as verify reports it
    - a certificate builds its root system once and none for non-existence,
      and none when it is given the system already built
"""

import numpy as np
import pytest

from rootspin import (
    CertificateFamily,
    FamilyRank,
    InternalCheckError,
    RootspinError,
    assembled_witness,
    certificate,
    count_bruteforce,
    lower_bound,
    positive_roots,
    signed_sum,
    verify,
)
from rootspin import certs, rootsys
from rootspin.certs import verify_report

EXISTENCE_IDS = (
    [("A", n) for n in range(2, 11, 2)]
    + [("C", n) for n in (3, 4, 7, 8, 11, 12)]
    + [("D", n) for n in (4, 5, 8, 9, 12, 13)]
    + [("E", 6), ("E", 8), ("F", 4), ("G", 2)]
)

NON_EXISTENCE_IDS = (
    [("A", n) for n in (1, 3, 5, 7, 9)]
    + [("B", n) for n in range(2, 7)]
    + [("C", n) for n in (5, 6, 9, 10)]
    + [("D", n) for n in (6, 7, 10, 11)]
    + [("E", 7)]
)


@pytest.mark.parametrize("family,rank", EXISTENCE_IDS)
def test_certificates_verify(family, rank):
    fr = FamilyRank(family, rank)
    cert = certificate(fr)
    assert cert is not None
    system = positive_roots(fr)
    assert verify(system, cert)
    witness = assembled_witness(cert)
    assert not signed_sum(system, witness).any()


@pytest.mark.parametrize("family,rank", NON_EXISTENCE_IDS)
def test_no_certificate_for_non_existence(family, rank):
    assert certificate(FamilyRank(family, rank)) is None


def test_a4_block_structure():
    cert = certificate(FamilyRank("A", 4))
    assert len(cert.blocks) == 2
    assert cert.lower_bound == 4 == 2 ** (4 // 2)


def test_c3_single_tail_block():
    cert = certificate(FamilyRank("C", 3))
    assert len(cert.blocks) == 1
    assert cert.lower_bound == 2
    assert len(cert.blocks[0]) == 9  # every C3 root appears in the tail


def test_d4_block_verifies():
    fr = FamilyRank("D", 4)
    cert = certificate(fr)
    assert len(cert.blocks) == 1
    assert verify(positive_roots(fr), cert)


def test_e8_assembly():
    cert = certificate(FamilyRank("E", 8))
    assert len(cert.blocks) == 5
    sizes = sorted(len(b) for b in cert.blocks)
    assert sizes == [3, 7, 11, 15, 84]
    assert sum(sizes) == 120
    witness = assembled_witness(cert)
    assert not signed_sum(positive_roots(FamilyRank("E", 8)), witness).any()


def test_block_counts_match_bound_formula():
    for family, rank in EXISTENCE_IDS:
        fr = FamilyRank(family, rank)
        cert = certificate(fr)
        if family in ("A", "C", "D"):
            assert cert.lower_bound == lower_bound(fr), fr


@pytest.mark.parametrize(
    "family,rank,expected",
    [
        ("E", 8, 369600),
        ("A", 6, 8),
        ("E", 7, 0),
        ("A", 4, 4),
        ("C", 4, 2),
        ("C", 7, 4),
        ("D", 4, 2),
        ("D", 5, 2),
        ("E", 6, 13697920),
        ("F", 4, 34432),
        ("G", 2, 4),
        ("B", 5, 0),
        ("A", 5, 0),
        ("C", 6, 0),
        ("D", 7, 0),
    ],
)
def test_lower_bounds(family, rank, expected):
    assert lower_bound(FamilyRank(family, rank)) == expected


def test_exact_counts_reach_lower_bounds(catalogue):
    for name, system in catalogue.items():
        bound = lower_bound(system.id)
        if bound and system.r <= 26:
            assert count_bruteforce(system).value >= bound, name


def test_published_dimensions_are_tight(catalogue):
    # For these three the published bound is the exact dimension.
    from rootspin import count_mitm

    for name in ("G2", "F4", "E6"):
        system = catalogue[name]
        assert count_mitm(system).value == lower_bound(system.id), name


def test_verify_rejects_system_mismatch():
    e6_cert = certificate(FamilyRank("E", 6))
    f4 = positive_roots(FamilyRank("F", 4))
    ok, diagnostic = verify_report(f4, e6_cert)
    assert not ok and "applied to" in diagnostic


def test_unnamed_system_has_no_certificate():
    g2 = positive_roots(FamilyRank("G", 2))
    unnamed = rootsys.as_system(g2.roots)
    with pytest.raises(RootspinError, match="the unnamed 6 x 2 matrix has no family"):
        certificate(unnamed)
    ok, diagnostic = verify_report(unnamed, certificate(g2))
    assert not ok and diagnostic == "certificate for G2 applied to the unnamed 6 x 2 matrix"


def test_verify_rejects_tampered_sign():
    fr = FamilyRank("G", 2)
    cert = certificate(fr)
    bad = CertificateFamily(fr, ((tuple(cert.blocks[0][:-1]) + ((5, -cert.blocks[0][-1][1]),)),))
    ok, diagnostic = verify_report(positive_roots(fr), bad)
    assert not ok and "non-zero partial sum" in diagnostic


def test_verify_rejects_incomplete_cover():
    fr = FamilyRank("G", 2)
    bad = CertificateFamily(fr, (((0, 1), (1, 1), (2, 1)),))
    ok, diagnostic = verify_report(positive_roots(fr), bad)
    assert not ok


def test_verify_rejects_overlapping_blocks():
    fr = FamilyRank("G", 2)
    cert = certificate(fr)
    bad = CertificateFamily(fr, (cert.blocks[0], cert.blocks[0]))
    ok, diagnostic = verify_report(positive_roots(fr), bad)
    assert not ok and "overlaps" in diagnostic


def _retyped(cert, b, at, index=None, sign=None):
    """``cert`` with the entry ``at`` of block ``b`` given another index or sign."""
    blocks = [list(block) for block in cert.blocks]
    i, s = blocks[b][at]
    blocks[b][at] = (i if index is None else index(i), s if sign is None else sign(s))
    return CertificateFamily(cert.system_id, tuple(map(tuple, blocks)))


@pytest.mark.parametrize(
    "retype",
    [dict(index=float), dict(index=bool), dict(index=str), dict(sign=float), dict(sign=bool),
     dict(sign=np.bool_), dict(sign=lambda s: None)],
    ids=["float_index", "bool_index", "str_index", "float_sign", "bool_sign", "numpy_bool_sign",
         "none_sign"],
)
def test_verify_rejects_entries_that_are_not_integers(retype):
    # a float index raised a bare TypeError from row_sum; a sign of 1.0 and
    # an index of True (root 1) verified as "ok"
    fr = FamilyRank("A", 4)
    cert = certificate(fr)
    at = [i for i, _ in cert.blocks[1]].index(1)  # root 1, signed +1: bool keeps both
    ok, diagnostic = verify_report(positive_roots(fr), _retyped(cert, 1, at, **retype))
    assert (ok, diagnostic) == (False, "block 1 holds a root index or sign that is not an integer")


def test_verify_accepts_numpy_integers():
    fr = FamilyRank("A", 4)
    cert = certificate(fr)
    blocks = tuple(tuple((np.int64(i), np.int8(s)) for i, s in block) for block in cert.blocks)
    assert verify_report(positive_roots(fr), CertificateFamily(fr, blocks)) == (True, "ok")


@pytest.mark.parametrize("family,rank,builds", [("A", 6, 1), ("C", 7, 1), ("D", 8, 1), ("E", 8, 1),
                                                ("G", 2, 1), ("B", 4, 0), ("E", 7, 0)])
def test_roots_built_once_per_certificate(monkeypatch, family, rank, builds):
    calls = []

    def counting(fr):
        calls.append(fr)
        return positive_roots(fr)

    monkeypatch.setattr(certs, "positive_roots", counting)
    fr = FamilyRank(family, rank)
    by_id = certificate(fr)
    assert len(calls) == builds
    # A system already built is reused: no roots are built again.
    calls.clear()
    assert certificate(positive_roots(fr)) == by_id
    assert calls == []


def test_every_block_sums_to_zero_individually(catalogue):
    for name in ("A8", "C7", "C8", "D8", "E8"):
        system = catalogue[name]
        cert = certificate(system.id)
        for block in cert.blocks:
            partial = np.zeros(system.ambient_dim, dtype=np.int64)
            for i, s in block:
                partial += s * system.roots[i]
            assert not partial.any(), (name, block)


@pytest.mark.parametrize(
    "blocks,b",
    [((((0,),),), 0), (((5,),), 0), ((None,), 0), ((((0, 1, 2),),), 0), ("first", 1)],
    ids=["short_entry", "int_entry", "none_block", "long_entry", "second_block"],
)
def test_verify_reports_blocks_that_are_not_pairs(blocks, b):
    # each raised a bare ValueError or TypeError
    fr = FamilyRank("A", 4)
    if blocks == "first":
        blocks = certificate(fr).blocks[:1] + (None,)
    bad = CertificateFamily(fr, blocks)
    system = positive_roots(fr)
    diagnostic = f"block {b} is not a sequence of (index, sign) pairs"
    assert verify_report(system, bad) == (False, diagnostic)
    assert not verify(system, bad)


@pytest.mark.parametrize(
    "blocks,diagnostic",
    [
        (None, "certificate blocks are not a sequence of blocks"),
        (5, "certificate blocks are not a sequence of blocks"),
        ((block for block in certificate(FamilyRank("G", 2)).blocks),
         "certificate blocks are not a sequence of blocks"),
        ([None], "block 0 is not a sequence of (index, sign) pairs"),
        ([((0, 1), (3, 1)), ((i, 1) for i in (1, 2, 4, 5))],
         "block 1 is not a sequence of (index, sign) pairs"),
    ],
    ids=["none_list", "int_list", "generator_list", "none_block", "generator_block"],
)
def test_verify_reports_block_lists_it_cannot_read(blocks, diagnostic):
    # None and 5 raised a bare TypeError; a generator block was read up by
    # the type pass and then seen as empty; a generator block list passed
    # here, but assembled_witness read it up sizing it and gave all zeros
    fr = FamilyRank("G", 2)
    assert verify_report(positive_roots(fr), CertificateFamily(fr, blocks)) == (False, diagnostic)


def test_assembled_witness_is_a_tuple_of_python_ints(catalogue):
    for name, system in catalogue.items():
        cert = certificate(system)
        if cert is None:
            continue
        witness = assembled_witness(cert)
        assert type(witness) is tuple and len(witness) == system.r, name
        assert all(type(s) is int and s in (-1, 1) for s in witness), name
    a4 = certificate(FamilyRank("A", 4))
    blocks = tuple(tuple((np.int64(i), np.int8(s)) for i, s in block) for block in a4.blocks)
    from_numpy = assembled_witness(CertificateFamily(a4.system_id, blocks))
    assert from_numpy == assembled_witness(a4)
    assert all(type(s) is int for s in from_numpy)


_NOT_INTEGER = "block 0 holds a root index or sign that is not an integer"


@pytest.mark.parametrize(
    "block,message",
    [
        (((0, 1), (-1, -1)), "block 0 references a root index out of range"),
        (((0, 1), (2, -1)), "block 0 references a root index out of range"),
        (((0, 1), (True, -1)), _NOT_INTEGER),
        (((0, 1), (1.0, -1)), _NOT_INTEGER),
        (((0, 1), ("1", -1)), _NOT_INTEGER),
        (((0, 1), (0, -1)), "block 0 overlaps another block or repeats an index"),
        (((0, 1.0), (1, -1)), _NOT_INTEGER),
        (((0, True), (1, -1)), _NOT_INTEGER),
        (((0, np.bool_(True)), (1, -1)), _NOT_INTEGER),
        (((0, 2), (1, -1)), r"block 0 carries a sign outside {\+1, -1}"),
        (((0, 0), (1, -1)), r"block 0 carries a sign outside {\+1, -1}"),
        (((0, None), (1, -1)), _NOT_INTEGER),
    ],
    ids=["negative_index", "index_out_of_range", "bool_index", "float_index", "str_index",
         "repeated_index", "float_sign", "bool_sign", "numpy_bool_sign", "sign_two", "sign_zero",
         "none_sign"],
)
def test_assembled_witness_refuses_what_does_not_cover_the_roots(block, message):
    # -1 wrapped round to root 1, True stood for root 1, 1.0 was coerced to
    # 1, and 2 raised a bare IndexError
    with pytest.raises(InternalCheckError, match=message):
        assembled_witness(CertificateFamily(FamilyRank("A", 2), (block,)))


@pytest.mark.parametrize("blocks", [(None,), (((0,),),), (((0, 1, 2),),), ((5,),)],
                         ids=["none_block", "short_entry", "long_entry", "int_entry"])
def test_assembled_witness_refuses_blocks_that_are_not_pairs(blocks):
    # each raised a bare TypeError or ValueError
    with pytest.raises(InternalCheckError,
                       match=r"block 0 is not a sequence of \(index, sign\) pairs"):
        assembled_witness(CertificateFamily(FamilyRank("A", 2), blocks))
