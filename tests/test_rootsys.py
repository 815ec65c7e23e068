"""Root system construction.

Claims covered:
    - the published lists are reproduced exactly (G2 verbatim, A2/F4 spot checks)
    - cardinalities match the closed forms for every family
    - scaled coordinates stay within {-2..2}; F4 is the only denominator-2 system
    - the canonical order is deterministic and roots are pairwise distinct
    - inadmissible ranks are rejected, never remapped; a numpy integer is a
      rank, stored as a Python int, and a bool, float or string is refused
      by its type
    - every function that takes a family and rank refuses anything but a
      FamilyRank with InvalidRankError, and FamilyRank refuses a family or
      label that is not a string the same way
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
    - ``root_indexer`` gives every root of every pattern its position in
      ``positive_roots``, on the catalogue and on large A, B, C and D ranks,
      and refuses a pattern the family lacks or subscripts that are not
      increasing integers in 1..n with IndexOutOfRangeError
    - ``weyl_order_v2`` is the exponent of 2 in |W|, the Weyl group's order
      by its closed form, on A1-A10, B2-B8, C3-C8, D4-D8, E6-E8, F4 and G2
    - the plain text interchange format is bit-exact; it refuses what is
      not a root system or an integer matrix with DimensionMismatchError,
      and a text the memory budget cannot hold with ResourceLimitError
      before any line is built, tracing under 1 MiB
    - ``RootSystem`` refuses, tracing under 1 MiB, an ambient dimension or
      denominator that is not an integer >= 1, a row that breaks the row
      rule (``rootsys.check_row``: a zero value, a repeated coordinate or
      one outside [0, m), a bool or float entry, an entry that is not a
      pair), and rows that are not iterable or empty; it stores numpy
      integers as Python ints, so an exact signed sum past int64 is
      refused, not wrapped, and each row in increasing coordinate order
    - ``RootSystem`` takes no id: a call that passes one, such as D4's id
      with A2's rows, raises TypeError, and the system made from A2's rows
      is unnamed and counts as a bare matrix does
    - the rows ``positive_roots`` builds, stored without those checks, pass
      the row rule on every catalogue id and lattice workload rank
"""

import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import factorial

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
    RootSystem,
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
    signed_sum,
)
from rootspin import certs, rootsys
from rootspin.rootsys import CATALOGUE, PATTERNS, root_indexer, root_patterns, shown

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


@pytest.mark.parametrize(
    "call",
    [lambda: positive_roots("A3"), lambda: root_count("A3"), lambda: certs.lower_bound(None),
     lambda: certificate("A3"), lambda: FamilyRank.parse(5), lambda: FamilyRank(["A"], 3)],
    ids=["positive_roots", "root_count", "lower_bound", "certificate", "parse", "family_list"],
)
def test_family_rank_arguments_refused_by_type(call):
    # each raised a bare AttributeError or TypeError
    with pytest.raises(InvalidRankError):
        call()


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


@pytest.mark.parametrize("system", [None, "G2", [[1.5, 0]]], ids=["none", "str", "float"])
def test_text_format_refuses_what_is_not_a_system(system):
    # None raised a bare AttributeError
    with pytest.raises(DimensionMismatchError):
        format_root_list(system)


def test_text_format_checks_its_size_first(monkeypatch):
    # under a 1 MiB budget A81's rows fit (about 416,200 bytes), its 3321
    # lines of 2 * 81 characters do not; each line was built as a list of
    # m strings, unchecked
    monkeypatch.setattr(rootsys, "memory_budget", lambda: 1 << 20)
    tracemalloc.start()
    try:
        system = positive_roots(FamilyRank("A", 81))
        with pytest.raises(ResourceLimitError,
                           match="the root list of A81 would need about 1076004 bytes"):
            format_root_list(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_root_indexer_places_every_root(catalogue):
    large = [positive_roots(FamilyRank(f, n)) for f, n in (("A", 41), ("B", 30), ("C", 33),
                                                             ("D", 37))]
    for system in [*catalogue.values(), *large]:
        fr = system.id
        positions = []
        for pattern in root_patterns(fr):
            nu, coefficients = PATTERNS[pattern]
            index = root_indexer(fr, pattern)
            for subscripts in combinations(range(1, fr.rank + 1), len(coefficients)):
                v = [nu] * fr.rank
                for s, x in zip(subscripts, coefficients):
                    v[s - 1] += x
                positions.append(index(*subscripts))
                row = tuple((c, system.denominator * x) for c, x in enumerate(v) if x)
                assert system.rows[positions[-1]] == row, (fr, pattern, subscripts)
        # F4's eight half roots follow its patterns; G2 is a fixed list
        assert positions == list(range({"F4": 16, "G2": 0}.get(str(fr), system.r))), fr


@pytest.mark.parametrize(
    "pattern,subscripts",
    [("l_i + l_j", (1, 2)), ("l_i - l_j", (2, 1)), ("l_i - l_j", (1, 1)), ("l_i - l_j", (0, 1)),
     ("l_i - l_j", (1, 5)), ("l_i - l_j", (1,)), ("nu + l_i", (1, 2)), ("nu + l_i", ()),
     ("nu + l_i", (5,)), ("nu + l_i", (1.0,)), ("nu + l_i", (True,)), ("l_i - l_j", (1, 2.0)),
     ("l_i - l_j", (1, 10**5000))],
    ids=["absent_pattern", "decreasing", "repeated", "zero", "past_n", "too_few", "too_many",
         "none", "single_past_n", "float", "bool", "float_pair", "huge"],
)
def test_root_indexer_refuses_what_names_no_root(pattern, subscripts):
    with pytest.raises(IndexOutOfRangeError):
        root_indexer(FamilyRank("A", 4), pattern)(*subscripts)


def test_root_indexer_refuses_what_is_not_a_family_rank():
    with pytest.raises(InvalidRankError):
        root_indexer("A4", "l_i - l_j")


def _weyl_order(fr: FamilyRank) -> int:
    n = fr.rank
    if fr.family == "A":
        return factorial(n + 1)
    if fr.family in ("B", "C"):
        return 2**n * factorial(n)
    if fr.family == "D":
        return 2 ** (n - 1) * factorial(n)
    return {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}[str(fr)]


WEYL_IDS = [FamilyRank(f, n) for f, ranks in (("A", range(1, 11)), ("B", range(2, 9)),
                                              ("C", range(3, 9)), ("D", range(4, 9)),
                                              ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,)))
            for n in ranks]


@pytest.mark.parametrize("fr", WEYL_IDS, ids=str)
def test_weyl_order_v2_is_the_two_part_of_the_order(fr):
    order = _weyl_order(fr)
    v = rootsys.weyl_order_v2(fr)
    assert order % 2**v == 0 and order // 2**v % 2 == 1


ONE_ROW = (((0, 1),),)


@pytest.mark.parametrize(
    "args,error",
    [
        ((ONE_ROW, -1, 1), DimensionMismatchError),
        ((ONE_ROW, 0, 1), DimensionMismatchError),
        ((ONE_ROW, 1.5, 1), DimensionMismatchError),
        (((((3, 1),),), 2, 1), DimensionMismatchError),
        (((((0, 0),),), 1, 1), DimensionMismatchError),
        (((((0, 1), (0, 2)),), 1, 1), DimensionMismatchError),
        (((((0, True),),), 1, 1), DimensionMismatchError),
        (((((0, 1.0),),), 1, 1), DimensionMismatchError),
        (((((0, 1, 2),),), 1, 1), DimensionMismatchError),
        (((5,), 1, 1), DimensionMismatchError),
        ((None, 1, 1), DimensionMismatchError),
        (((), 1, 1), DimensionMismatchError),
        ((ONE_ROW, 1, 0), DimensionMismatchError),
        ((ONE_ROW, 1, 1.5), DimensionMismatchError),
    ],
    ids=["m_negative", "m_zero", "m_float", "coordinate_past_m", "zero_value",
         "repeated_coordinate", "bool_entry", "float_entry", "triple", "scalar_row", "rows_none",
         "no_rows", "denominator_zero", "denominator_float"],
)
def test_root_system_refuses_what_is_not_a_system(args, error):
    # m = -1, 0 or 1.5 and a coordinate past m made obstruction_2L raise a
    # bare IndexError or TypeError, and a zero denominator cartan_act
    # ZeroDivisionError
    tracemalloc.start()
    try:
        with pytest.raises(error):
            RootSystem(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_root_system_stores_python_ints():
    big = np.int64(2**62)
    system = RootSystem([[(np.int32(0), big)], ((0, big),)], np.int64(1), np.int8(1))
    assert system.rows == (((0, 2**62),), ((0, 2**62),))
    assert RootSystem([[(2, -1), (0, 3)]], 3, 1).rows == (((0, 3), (2, -1)),)
    assert type(system.rows) is tuple and all(type(row) is tuple for row in system.rows)
    assert all(type(x) is int for row in system.rows for pair in row for x in pair)
    assert type(system.ambient_dim) is int and type(system.denominator) is int
    # the int64 rows wrapped to [-2**63] with a RuntimeWarning
    with pytest.raises(ResourceLimitError, match="signed sum does not fit in int64"):
        signed_sum(system, [1, 1])


def test_built_rows_pass_the_row_rule(catalogue, lattice_ranks):
    # ``positive_roots`` stores its rows without the constructor's checks
    systems = [*catalogue.values(), *(positive_roots(FamilyRank(f, n)) for f, n in lattice_ranks)]
    for system in systems:
        m = system.ambient_dim
        for row in system.rows:
            assert type(row) is tuple and all(type(pair) is tuple for pair in row)
            assert tuple(rootsys.check_row(row, m).items()) == row


# Each id names a family whose rows differ from those it is given: the
# engines that read the id raised InternalCheckError, blaming the program,
# while the obstruction and the oracle answered for the rows.
MISLABELS = [("D4", "A2"), ("G2", "A2"), ("A2", "B2"), ("C3", "B3")]


@pytest.mark.parametrize("label,rows", MISLABELS, ids=[f"{a}_with_{b}" for a, b in MISLABELS])
def test_root_system_takes_no_id(label, rows):
    system = positive_roots(FamilyRank.parse(rows))
    with pytest.raises(TypeError):
        RootSystem(FamilyRank.parse(label), system.rows, system.ambient_dim, system.denominator)
    with pytest.raises(TypeError):
        RootSystem(system.rows, system.ambient_dim, system.denominator,
                   id=FamilyRank.parse(label))


def test_hand_built_system_is_unnamed():
    a2 = positive_roots(FamilyRank("A", 2))
    system = RootSystem(a2.rows, 2, 1)
    assert system.id is None and system != a2
    assert count(system).value == count(a2.roots).value == 2
