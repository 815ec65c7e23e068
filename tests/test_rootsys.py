"""Root system construction.

Claims covered:
    - the published lists are reproduced exactly (G2 verbatim, A2/F4 spot checks)
    - cardinalities match the closed forms for every family
    - scaled coordinates stay within {-2..2}; F4 is the only denominator-2 system
    - the canonical order is deterministic and roots are pairwise distinct
    - inadmissible ranks are rejected, never remapped; a numpy integer is a
      rank, stored as a Python int, and a bool, float or string is refused
      by its type
    - a system over the memory budget is refused before any root is built
    - an error text names an integer past 2048 bits by its sign and bit
      length, so a caller's huge integer raises the documented error, never
      the bare ValueError of an int too long for ``str``: at every site that
      formats one (generator index, axis, rank, mask, coefficient, limit,
      family rank, budget need, counting method, count, lattice dimension)
    - the reprs of ``FamilyRank``, ``SpinorElement`` and ``Scalar`` name
      such an integer the same way
    - a root count that misses its closed form is an InternalCheckError
    - the catalogue lists the 29 results-table ids once, in print order
    - the plain text interchange format is bit-exact
"""

import sys
from fractions import Fraction

import numpy as np
import pytest

from rootspin import (
    CountResult,
    DimensionMismatchError,
    FamilyRank,
    IndexOutOfRangeError,
    InternalCheckError,
    InvalidRankError,
    LatticeBasis,
    ResourceLimitError,
    Scalar,
    SpinorElement,
    act_e,
    act_x,
    certificate,
    count,
    format_root_list,
    invariant_dimension,
    positive_roots,
    root_count,
)
from rootspin.rootsys import CATALOGUE, shown

G2_ROOTS = [[1, 0], [0, 1], [-1, -1], [1, -1], [1, 2], [2, 1]]


def test_g2_exact_list():
    system = positive_roots(FamilyRank("G", 2))
    assert system.roots.tolist() == G2_ROOTS
    assert system.denominator == 1
    assert system.ambient_dim == 2


def test_a2_exact_list():
    system = positive_roots(FamilyRank("A", 2))
    assert system.roots.tolist() == [[1, -1], [2, 1], [1, 2]]


def test_f4_shape_and_scaling():
    system = positive_roots(FamilyRank("F", 4))
    assert system.r == 24  # 6 + 6 + 4 + 8 pattern instances
    assert system.denominator == 2
    rows = system.roots.tolist()
    assert rows[12] == [2, 0, 0, 0]  # first single root, scaled
    assert rows[16] == [1, 1, 1, 1]  # first half-root (+,+,+)
    assert rows[23] == [1, -1, -1, -1]  # last half-root (-,-,-)


@pytest.mark.parametrize(
    "family,rank,expected",
    [
        ("A", 1, 1),
        ("A", 5, 15),
        ("B", 3, 9),
        ("C", 7, 49),
        ("D", 6, 30),
        ("E", 6, 36),
        ("E", 7, 63),
        ("E", 8, 120),
        ("F", 4, 24),
        ("G", 2, 6),
    ],
)
def test_root_count_closed_form(family, rank, expected):
    fr = FamilyRank(family, rank)
    assert root_count(fr) == expected
    assert positive_roots(fr).r == expected


def test_counts_match_formula_across_catalogue(catalogue):
    for name, system in catalogue.items():
        assert system.r == root_count(system.id), name


def test_entries_bounded_and_distinct(catalogue):
    for name, system in catalogue.items():
        assert np.abs(system.roots).max() <= 2, name
        assert np.all(np.any(system.roots != 0, axis=1)), name
        seen = {tuple(row) for row in system.roots.tolist()}
        assert len(seen) == system.r, name


def test_denominator_only_for_f4(catalogue):
    for name, system in catalogue.items():
        assert system.denominator == (2 if name == "F4" else 1), name


def test_order_is_deterministic():
    a = positive_roots(FamilyRank("E", 7))
    b = positive_roots(FamilyRank("E", 7))
    assert a.roots.tolist() == b.roots.tolist()


def test_roots_are_read_only():
    system = positive_roots(FamilyRank("A", 3))
    with pytest.raises(ValueError):
        system.roots[0, 0] = 5


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("F", 5), ("G", 1), ("G", 3), ("H", 4),
     ("A", True)],
)
def test_inadmissible_ranks_rejected(family, rank):
    with pytest.raises(InvalidRankError):
        FamilyRank(family, rank)


def test_numpy_integer_ranks_are_ranks():
    fr = FamilyRank("A", np.int64(3))
    assert fr == FamilyRank("A", 3) and hash(fr) == hash(FamilyRank("A", 3))
    assert type(fr.rank) is int
    assert positive_roots(FamilyRank("D", np.int32(5))).r == 20


@pytest.mark.parametrize("rank,kind", [(True, "bool"), (3.0, "float"), ("3", "str")])
def test_ranks_that_are_not_integers_refused_by_type(rank, kind):
    with pytest.raises(InvalidRankError, match=f"must be an integer, not {kind}"):
        FamilyRank("A", rank)


HUGE = 10**5000  # 16610 bits, past the 4300 digits str() prints by default
G2 = positive_roots(FamilyRank("G", 2))


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: act_x(HUGE, SpinorElement.unit(2)), IndexOutOfRangeError),
        (lambda: act_e(HUGE, 1, SpinorElement.unit(2)), IndexOutOfRangeError),
        (lambda: act_e(0, HUGE, SpinorElement.unit(2)), IndexOutOfRangeError),
        (lambda: act_x(HUGE * 10, SpinorElement(HUGE)), IndexOutOfRangeError),
        (lambda: SpinorElement(-HUGE), DimensionMismatchError),
        (lambda: SpinorElement(10**5, {1 << 16000: 1}), DimensionMismatchError),
        (lambda: SpinorElement(3, {0: HUGE}), DimensionMismatchError),
        (lambda: SpinorElement(HUGE, {-1: 1}), IndexOutOfRangeError),
        (lambda: count(G2, "auto", -HUGE), DimensionMismatchError),
        (lambda: count(G2, HUGE), ValueError),
        (lambda: invariant_dimension(G2, -HUGE), DimensionMismatchError),
        (lambda: FamilyRank("E", HUGE), InvalidRankError),
        (lambda: FamilyRank("A", -HUGE), InvalidRankError),
        (lambda: FamilyRank(HUGE, 1), InvalidRankError),
        (lambda: certificate(FamilyRank("A", HUGE)), ResourceLimitError),
        (lambda: CountResult(HUGE + 1, "brute_force", 0.0), InternalCheckError),
        (lambda: LatticeBasis((), (), HUGE).contains([0]), DimensionMismatchError),
    ],
    ids=["act_x_index", "act_e_index", "act_e_axis", "index_past_huge_rank", "element_rank",
         "element_mask", "element_coefficient", "mask_past_huge_rank", "count_limit",
         "count_method", "oracle_limit", "family_rank", "negative_family_rank", "family",
         "certificate_budget", "odd_count", "lattice_dimension"],
)
def test_huge_integers_named_by_bit_length(call, error):
    with pytest.raises(error, match=r"<\d+-bit integer>"):
        call()


def test_huge_integers_in_reprs():
    # each raised a bare ValueError
    assert repr(FamilyRank("A", HUGE)) == "FamilyRank(family='A', rank=<16610-bit integer>)"
    assert repr(SpinorElement(HUGE)) == "SpinorElement(rank=<16610-bit integer>, terms={})"
    assert repr(Scalar(HUGE, -HUGE)) == "Scalar(<16610-bit integer>, -<16610-bit integer>, 0, 0)"
    # smaller values read as before: str of each Fraction, dict repr of the terms
    half = Scalar(Fraction(-1, 2), 3, Fraction(4, 6))
    assert repr(half) == "Scalar(-1/2, 3, 2/3, 0)"
    assert repr(SpinorElement(3, {5: half})) == "SpinorElement(rank=3, terms={5: Scalar(-1/2, 3, 2/3, 0)})"


def test_shown_names_integers_in_decimal_up_to_2048_bits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the least limit Python admits
    try:
        assert shown((1 << 2048) - 1) == str((1 << 2048) - 1)
        assert shown(-(1 << 2048)) == "-<2049-bit integer>"
        assert shown(HUGE) == "<16610-bit integer>"
    finally:
        sys.set_int_max_str_digits(limit)
    assert shown(np.int64(-5)) == "-5"
    assert [shown(v) for v in ("x", True, 1.5, None)] == ["'x'", "True", "1.5", "None"]


def test_oversized_system_refused_before_building(monkeypatch):
    # A20000: 200 010 000 sparse roots, about 16 GB by the estimate.
    from rootspin import rootsys

    def refuse(_):
        raise AssertionError("roots were built before the budget check")

    monkeypatch.setattr(rootsys, "_build_rows", refuse)
    with pytest.raises(ResourceLimitError, match="the roots of A20000 "):
        positive_roots(FamilyRank("A", 20000))


def test_root_count_mismatch_is_an_internal_error(monkeypatch):
    # raised a bare AssertionError, outside RootspinError
    from rootspin import rootsys

    build = rootsys._build_rows
    monkeypatch.setattr(rootsys, "_build_rows", lambda fr: (build(fr)[0][1:], build(fr)[1]))
    with pytest.raises(InternalCheckError, match="^root count mismatch for A3$"):
        positive_roots(FamilyRank("A", 3))


def test_catalogue_ids():
    labels = [str(fr) for fr in CATALOGUE]
    assert len(labels) == len(set(labels)) == 29
    assert labels[:2] == ["A1", "A2"] and labels[-5:] == ["E6", "E7", "E8", "F4", "G2"]


def test_parse_labels():
    assert FamilyRank.parse("e6") == FamilyRank("E", 6)
    assert FamilyRank.parse("A12") == FamilyRank("A", 12)
    with pytest.raises(InvalidRankError):
        FamilyRank.parse("E")
    with pytest.raises(InvalidRankError):
        FamilyRank.parse("Ax")


def test_text_format_g2():
    text = format_root_list(positive_roots(FamilyRank("G", 2)))
    assert text == "G 2 6 2 1\n1 0\n0 1\n-1 -1\n1 -1\n1 2\n2 1\n"


def test_text_format_f4_header():
    text = format_root_list(positive_roots(FamilyRank("F", 4)))
    assert text.splitlines()[0] == "F 4 24 4 2"
    assert text.endswith("\n")
