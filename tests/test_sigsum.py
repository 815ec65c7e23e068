"""Signed-sum engine: exact counting, HNF lattice work, the 2L obstruction.

Claims covered:
    - signed_sum reproduces the hand-checked zero combinations (G2, A2)
    - brute force and meet-in-the-middle agree with the published counts
      (G2=4, F4=34432, E6=13697920) and with each other on small systems
    - packed int64 keys and unpacked row keys give identical brute and
      MITM counts, and identical signed sums for every sign mask
    - HNF examples: the index-3 planar lattice, diagonal and identity input
    - the HNF of every catalogue system, and of A72, B69, C68 and D69, has
      full rank and the root lattice's index
    - every generator lies in the lattice spanned by its own HNF basis
    - obstruction fails exactly where parity arguments say it must,
      and a Fail always implies a zero brute-force count
    - the obstruction's column sums are exact for every int64 entry
    - the obstruction on A160 and C120 passes within 3 s each
    - the existence pipeline returns verified witnesses or obstruction proofs,
      and on catalogued systems the certificate, after checking that the
      obstruction passes exactly when a certificate exists
    - ``count`` runs brute force up to r = 20 (and r <= max_r) and
      meet-in-the-middle above, with each engine's limit, and looks the
      engines up at call time
    - resource limits are exercised, and every engine checks the memory
      budget before it builds a table
    - every engine runs on row keys past the key budget: counts, zero sign
      vectors and a verified witness
    - matrix and sign entries must be integers that int64 holds exactly
"""

import math
import time

import numpy as np
import pytest

from rootspin import (
    DimensionMismatchError,
    FamilyRank,
    InternalCheckError,
    LengthMismatchError,
    ResourceLimitError,
    count_bruteforce,
    count_mitm,
    enumerate_zero_signs,
    exists_strong_dependence,
    hnf,
    invariant_dimension,
    obstruction_2L,
    positive_roots,
    signed_sum,
)
from rootspin import _kernels, certs, sigsum
from rootspin.rootsys import CATALOGUE


def _sys(family, rank):
    return positive_roots(FamilyRank(family, rank))


class TestSignedSum:
    def test_g2_zero_combination(self):
        assert signed_sum(_sys("G", 2), [1, 1, 1, -1, -1, 1]).tolist() == [0, 0]

    def test_a2_zero_combination(self):
        assert signed_sum(_sys("A", 2), [1, -1, 1]).tolist() == [0, 0]

    def test_negating_all_signs_negates_the_sum(self):
        system = _sys("B", 3)
        eps = np.array([1, -1, 1, 1, -1, 1, -1, -1, 1])
        assert np.array_equal(signed_sum(system, -eps), -signed_sum(system, eps))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            signed_sum(_sys("G", 2), [1, 1, 1])

    def test_signs_must_be_unit(self):
        with pytest.raises(LengthMismatchError):
            signed_sum(_sys("A", 2), [1, 0, 1])

    @pytest.mark.parametrize(
        "signs",
        [[1.9, 1, 1, -1, -1, 1], [True, 1, 1, -1, -1, 1], ["1", 1, 1, -1, -1, 1],
         [2**64 + 1, 1, 1, -1, -1, 1]],
        ids=["float", "bool", "str", "huge"],
    )
    def test_signs_must_be_integers(self, signs):
        with pytest.raises(LengthMismatchError):
            signed_sum(_sys("G", 2), signs)


# Entries that are not integers int64 holds exactly.  A float must be
# refused, not truncated: [[1.9, 0], [1, 0]] has no zero signed sum, but
# truncated to [[1, 0], [1, 0]] it has two.
_BAD_MATRICES = {
    "float": [[1.9, 0], [1, 0]],
    "half": [[0.5, 0], [0.5, 0]],
    "bool": [[True, 1], [1, 0]],
    "str": [["1", 0], [1, 0]],
    "two_to_63": [[2**63, 0], [1, 0]],
    "uint64_two_to_63": np.array([[2**63, 0], [1, 0]], dtype=np.uint64),
    "float_array": np.array([[1.0, 0.0], [1.0, 0.0]]),
}
_MATRIX_ENTRY_POINTS = {
    "count_bruteforce": count_bruteforce,
    "count_mitm": count_mitm,
    "exists_strong_dependence": exists_strong_dependence,
    "enumerate_zero_signs": enumerate_zero_signs,
    "obstruction_2L": obstruction_2L,
    "signed_sum": lambda roots: signed_sum(roots, [1, -1]),
    "invariant_dimension": invariant_dimension,
}


class TestInputEntries:
    @pytest.mark.parametrize("entry", _MATRIX_ENTRY_POINTS)
    @pytest.mark.parametrize("matrix", _BAD_MATRICES)
    def test_non_int64_entries_refused(self, entry, matrix):
        with pytest.raises(DimensionMismatchError):
            _MATRIX_ENTRY_POINTS[entry](_BAD_MATRICES[matrix])

    def test_integer_dtypes_accepted(self):
        roots = [[1, 1], [1, 1], [2, 2]]
        for matrix in (roots, np.array(roots, dtype=np.int8), np.array(roots, dtype=np.uint64),
                       np.array(roots, dtype=object)):
            assert count_bruteforce(matrix).value == count_mitm(matrix).value == 2


class TestCounting:
    def test_g2_count(self):
        assert count_bruteforce(_sys("G", 2)).value == 4

    def test_g2_solution_set(self):
        sols = {tuple(s) for s in enumerate_zero_signs(_sys("G", 2))}
        assert sols == {
            (1, 1, 1, -1, -1, 1),
            (-1, -1, -1, 1, 1, -1),
            (1, 1, 1, 1, 1, -1),
            (-1, -1, -1, -1, -1, 1),
        }

    def test_a1_count_zero(self):
        assert count_bruteforce(_sys("A", 1)).value == 0

    def test_f4_count_both_engines(self):
        system = _sys("F", 4)
        assert count_bruteforce(system).value == 34432
        assert count_mitm(system).value == 34432

    def test_e6_count_mitm(self):
        result = count_mitm(_sys("E", 6))
        assert result.value == 13697920
        assert result.method == sigsum.METHOD_MITM

    def test_b2_zero(self):
        assert count_mitm(_sys("B", 2)).value == 0

    def test_result_metadata(self):
        result = count_bruteforce(_sys("G", 2))
        assert result.method == sigsum.METHOD_BRUTE
        assert result.elapsed >= 0.0

    def test_matrix_input_accepted(self):
        assert count_bruteforce([[1, -1], [1, 1], [2, 0]]).value == 2

    def test_brute_limit(self):
        with pytest.raises(ResourceLimitError):
            count_bruteforce(_sys("E", 6))

    def test_mitm_limit(self):
        with pytest.raises(ResourceLimitError):
            count_mitm(_sys("E", 8))

    @pytest.mark.parametrize(
        "engine",
        [
            lambda _: exists_strong_dependence([[1, 1], [2, 3], [3, 4]]),
            count_bruteforce,
            enumerate_zero_signs,
            count_mitm,
        ],
        ids=["witness_search", "brute_force", "enumeration", "mitm"],
    )
    def test_default_memory_budget_checked_before_tables(self, engine, monkeypatch):
        # G2 is built first: its roots alone exceed the budget below.
        g2 = _sys("G", 2)
        # 64 bytes: below the smallest of the four estimates, the witness
        # search's 144 (tables of 4 and 2 keys, 8 bytes each, times 3).
        monkeypatch.setattr(sigsum, "DEFAULT_MEMORY_BUDGET", 64)

        def refuse(_):
            raise AssertionError("a table was built before the budget check")

        monkeypatch.setattr(_kernels, "signed_sum_keys", refuse)
        monkeypatch.setattr(_kernels, "signed_sum_table", refuse)
        with pytest.raises(ResourceLimitError, match="signed-sum tables"):
            engine(g2)


class TestCountEntryPoint:
    # ``sigsum.count`` picks the engine; ``choose_engine`` is its rule.
    def test_auto_rule_at_the_brute_force_boundary(self):
        assert sigsum.choose_engine(20) == ("brute", 26)
        assert sigsum.choose_engine(21) == ("mitm", 48)
        assert sigsum.choose_engine(20, max_r=20) == ("brute", 20)
        assert sigsum.choose_engine(21, max_r=30) == ("mitm", 30)

    def test_auto_rule_with_max_r_below_r(self):
        assert sigsum.choose_engine(20, max_r=19) == ("mitm", 19)
        assert sigsum.choose_engine(10, max_r=0) == ("mitm", 0)

    def test_forced_engines_keep_their_limits(self):
        assert sigsum.choose_engine(36, "brute") == ("brute", 26)
        assert sigsum.choose_engine(6, "mitm") == ("mitm", 48)
        assert sigsum.choose_engine(6, "brute", max_r=3) == ("brute", 3)

    def test_unknown_method_refused(self):
        with pytest.raises(ValueError):
            sigsum.choose_engine(6, "dp")

    def test_count_runs_the_chosen_engine(self):
        d5, a6 = _sys("D", 5), _sys("A", 6)  # r = 20 and r = 21
        assert sigsum.count(d5).method == sigsum.METHOD_BRUTE
        assert sigsum.count(a6).method == sigsum.METHOD_MITM
        assert sigsum.count(d5).value == sigsum.count(d5, "mitm").value
        assert sigsum.count(a6).value == sigsum.count(a6, "brute").value
        with pytest.raises(ResourceLimitError, match="meet-in-the-middle needs r <= 19"):
            sigsum.count(d5, max_r=19)

    def test_engines_looked_up_at_call_time(self, monkeypatch):
        # A wrapper put on the module attribute must be the one that runs.
        calls = []
        for name in ("count_bruteforce", "count_mitm"):
            engine = getattr(sigsum, name)
            monkeypatch.setattr(
                sigsum, name,
                lambda *args, engine=engine, name=name: calls.append(name) or engine(*args),
            )
        sigsum.count(_sys("G", 2))
        sigsum.count(_sys("G", 2), "mitm")
        assert calls == ["count_bruteforce", "count_mitm"]


def _stretch_past_key_budget(roots):
    """Multiply the first coordinate by the least power of two that makes
    ``key_packing`` refuse the system.  The stretch is an injective linear
    map, so it keeps the zero set (and every equality of signed sums)."""
    for shift in range(_kernels._KEY_BITS):
        stretched = roots.copy()
        stretched[:, 0] <<= shift
        if _kernels.key_packing(stretched) is None:
            _kernels.check_vector_bounds(stretched)
            return stretched
    raise AssertionError("no stretch of the first coordinate exceeds the key budget")


class TestBackends:
    # Two key kinds ship, both built by ``_kernels.key_tables`` and run
    # through the same join and scan: packed int64 keys
    # (``signed_sum_keys``) and row keys, the unpacked int64 vectors of
    # ``signed_sum_table`` viewed as ``np.void``.  The packed side runs on the
    # system as given, the row side on its stretch past the 62-bit key budget.
    @pytest.mark.parametrize("name", ["A4", "B3", "C3", "D4", "G2", "F4"])
    def test_counts_identical_across_backends(self, name, catalogue):
        roots = catalogue[name].roots
        assert _kernels.key_packing(roots) is not None
        stretched = _stretch_past_key_budget(roots)
        assert _kernels.key_packing(stretched) is None
        packed = (count_bruteforce(roots).value, count_mitm(roots).value)
        unpacked = (count_bruteforce(stretched).value, count_mitm(stretched).value)
        assert packed == unpacked
        brute, mitm = packed
        assert brute == mitm

    def test_key_tables_identical_across_backends(self):
        roots = positive_roots(FamilyRank("B", 3)).roots
        r = roots.shape[0]
        deltas = _kernels.key_packing(roots)
        assert deltas is not None
        stretched = _stretch_past_key_budget(roots)
        assert _kernels.key_packing(stretched) is None
        keys = _kernels.signed_sum_keys(deltas)
        rows = _kernels.signed_sum_table(stretched)
        signs = np.array([sigsum.signs_from_mask(mask, r) for mask in range(1 << r)])
        assert np.array_equal(keys, signs @ deltas)
        assert np.array_equal(rows, signs @ stretched)
        # Faithful packing: equal keys exactly where the signed sums are equal.
        distinct_keys = set(keys.tolist())
        distinct_rows = {tuple(row) for row in rows.tolist()}
        pairs = set(zip(keys.tolist(), map(tuple, rows.tolist())))
        assert len(distinct_keys) == len(distinct_rows) == len(pairs) == 136
        assert np.array_equal(keys == 0, np.all(rows == 0, axis=1))

    def test_mitm_split_is_count_optimal(self, catalogue):
        for name in ("E6", "A8", "F4"):
            roots = catalogue[name].roots
            k = sigsum.mitm_split(roots)
            assert k in (roots.shape[0] // 2, (roots.shape[0] + 1) // 2), name


class TestKeyOverflow:
    # Stretching one coordinate by 2^55 blows the packed 62-bit key budget,
    # forcing the generic vector-keyed fallback; being an injective linear
    # image of SMALL, the stretched system has exactly the same zero set.
    SMALL = [[2, 1], [2, -1], [0, 2], [4, 0], [1, 0], [1, 1]]
    BIG = [[c0 << 55, c1] for c0, c1 in SMALL]

    def test_packing_refused(self):
        assert _kernels.key_packing(np.array(self.BIG, dtype=np.int64)) is None
        assert _kernels.key_packing(np.array(self.SMALL, dtype=np.int64)) is not None

    def test_engines_agree_unpacked(self):
        brute = count_bruteforce(self.BIG).value
        assert brute == count_mitm(self.BIG).value

    def test_unpacked_matches_small_equivalent(self):
        assert count_bruteforce(self.BIG).value == count_bruteforce(self.SMALL).value

    # SMALL fails the obstruction, so its engines only ever agree on 0; the
    # stretch of G2 has zero sums and reaches every engine on row keys.
    G2 = positive_roots(FamilyRank("G", 2)).roots
    G2_BIG = _stretch_past_key_budget(G2)

    def test_zero_sums_counted_unpacked(self):
        assert count_bruteforce(self.G2_BIG).value == 4
        assert count_mitm(self.G2_BIG).value == 4

    def test_zero_signs_enumerated_unpacked(self):
        found = {tuple(s) for s in enumerate_zero_signs(self.G2_BIG)}
        assert found == {tuple(s) for s in enumerate_zero_signs(self.G2)}
        assert len(found) == 4

    def test_witness_found_unpacked(self):
        result = exists_strong_dependence(self.G2_BIG)
        assert result.exists and result.method == sigsum.METHOD_MITM
        assert not signed_sum(self.G2_BIG, result.witness).any()
        assert not signed_sum(self.G2, result.witness).any()


class TestHNF:
    def test_planar_index_three_lattice(self):
        basis = hnf([(1, -1), (2, 1), (1, 2)])
        assert basis.columns == ((1, 2), (0, 3))
        assert basis.pivot_rows == (0, 1)

    def test_already_reduced_inputs(self):
        assert hnf([(2, 0), (0, 2)]).columns == ((2, 0), (0, 2))
        assert hnf([(1, 0), (0, 1)]).columns == ((1, 0), (0, 1))

    def test_generators_lie_in_their_own_lattice(self, catalogue):
        for name in ("A4", "B4", "C5", "D5", "E7", "F4", "G2"):
            system = catalogue[name]
            basis = hnf(system.roots)
            for row in system.roots.tolist():
                assert basis.contains(row), (name, row)

    def test_shape_invariants(self, catalogue):
        for name in ("B3", "E6", "F4"):
            basis = hnf(catalogue[name].roots)
            assert list(basis.pivot_rows) == sorted(basis.pivot_rows)
            for j, (col, row) in enumerate(zip(basis.columns, basis.pivot_rows)):
                pivot = col[row]
                assert pivot > 0
                assert all(col[i] == 0 for i in range(row))
                for left in basis.columns[:j]:
                    assert 0 <= left[row] < pivot

    def test_zero_lattice(self):
        basis = hnf([(0, 0), (0, 0)])
        assert basis.columns == ()
        assert basis.contains([0, 0])
        assert not basis.contains([1, 0])

    def test_membership_with_multiple(self):
        basis = hnf([(1, 0), (0, 1)])
        assert basis.contains([4, -2], multiple=2)
        assert not basis.contains([3, 0], multiple=2)

    @pytest.mark.parametrize(
        "fr",
        list(CATALOGUE) + [FamilyRank(f, n) for f, n in (("A", 72), ("B", 69), ("C", 68), ("D", 69))],
        ids=str,
    )
    def test_rank_and_index(self, fr):
        # The root lattice has full rank; its index in Z^n (the product of
        # the pivots) is n + 1 for A_n in these coordinates, 1 for B_n and
        # G2, 2 for C_n and D_n, 3 for E6..E8 and 8 for the doubled F4.
        index = {"A": fr.rank + 1, "B": 1, "C": 2, "D": 2, "E": 3, "F": 8, "G": 1}[fr.family]
        basis = hnf(positive_roots(fr).roots)
        assert len(basis.columns) == fr.rank
        assert math.prod(col[row] for col, row in zip(basis.columns, basis.pivot_rows)) == index


class TestObstruction:
    def test_b4_fails(self):
        assert not obstruction_2L(_sys("B", 4)).passed

    def test_c5_fails(self):
        result = obstruction_2L(_sys("C", 5))
        assert not result.passed
        assert result.reason

    def test_g2_passes(self):
        assert obstruction_2L(_sys("G", 2)).passed

    def test_matches_existence_across_catalogue(self, catalogue):
        from rootspin import lower_bound

        for name, system in catalogue.items():
            expected = lower_bound(system.id) > 0
            assert obstruction_2L(system).passed == expected, name

    def test_fail_implies_zero_count(self, catalogue):
        for name, system in catalogue.items():
            if system.r <= 26 and not obstruction_2L(system).passed:
                assert count_bruteforce(system).value == 0, name

    def test_column_sums_exact_over_int64(self):
        rows = [[-2**63, 2**62 + 3 * k, 2**63 - 1 - k] for k in range(40)]
        rng = np.random.default_rng(5)
        rows += rng.integers(-2**63, 2**63 - 1, size=(24, 3), endpoint=True).tolist()
        expected = [sum(col) for col in zip(*rows)]
        # Every total lies outside int64, where a plain int64 sum would wrap.
        assert all(abs(total) > 2**63 for total in expected)
        assert sigsum._column_sums(np.array(rows, dtype=np.int64)) == expected
        # The obstruction sees the exact total: 2 * -2^63 lies in 2L = 2^64 Z.
        assert obstruction_2L([[-2**63], [-2**63]]).passed
        assert not obstruction_2L([[-2**63], [2**62]]).passed

    @pytest.mark.parametrize("family,rank", [("A", 160), ("C", 120)])
    def test_large_rank_time_budget(self, family, rank):
        # 12 880 and 14 400 roots: about 0.3 s each with the incremental HNF
        # on a 2-core Xeon, where whole-matrix elimination took 6 to 12 s.
        system = _sys(family, rank)
        start = time.perf_counter()
        result = obstruction_2L(system)
        elapsed = time.perf_counter() - start
        assert result.passed
        assert elapsed < 3.0, f"{family}{rank} obstruction took {elapsed:.2f} s"


class TestExistence:
    @pytest.mark.parametrize(
        "family,rank,expected",
        [("C", 3, True), ("E", 7, False), ("D", 5, True), ("A", 6, True), ("B", 6, False)],
    )
    def test_catalogue_cases(self, family, rank, expected):
        result = exists_strong_dependence(_sys(family, rank))
        assert result.exists is expected
        if expected:
            assert result.witness is not None
            assert not signed_sum(_sys(family, rank), result.witness).any()
            assert result.certificate == certs.certificate(FamilyRank(family, rank))
        else:
            assert result.witness is None
            assert result.certificate is None
            assert not result.obstruction.passed

    def test_obstruction_pass_without_certificate_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(certs, "certificate", lambda fr: None)
        with pytest.raises(InternalCheckError, match="no certificate"):
            exists_strong_dependence(_sys("G", 2))

    def test_certificate_despite_obstruction_failure_is_an_internal_error(self, monkeypatch):
        # B3 fails the obstruction; a certificate there must be refused even
        # though the obstruction alone would already settle non-existence.
        g2_cert = certs.certificate(FamilyRank("G", 2))
        monkeypatch.setattr(certs, "certificate", lambda fr: g2_cert)
        with pytest.raises(InternalCheckError, match="obstruction failed"):
            exists_strong_dependence(_sys("B", 3))

    def test_e8_via_certificate(self):
        result = exists_strong_dependence(_sys("E", 8))
        assert result.exists and result.method == sigsum.METHOD_CERTIFICATE
        assert not signed_sum(_sys("E", 8), result.witness).any()

    def test_search_on_raw_matrix(self):
        # No catalogue certificate available: the pipeline must fall through
        # to the meet-in-the-middle search.  (1,1) + (2,3) - (3,4) = 0.
        roots = [[1, 1], [2, 3], [3, 4]]
        result = exists_strong_dependence(roots)
        assert result.exists and result.method == sigsum.METHOD_MITM
        assert not (np.asarray(result.witness) @ np.asarray(roots)).any()

    def test_search_negative_on_raw_matrix(self):
        # sum = 18*(1,1) lies in 2L, but 16 > 1+1 rules out any zero sum,
        # so the exhausted search itself is the proof of non-existence.
        result = exists_strong_dependence([[1, 1], [1, 1], [16, 16]])
        assert not result.exists
        assert result.obstruction.passed
        assert result.method == sigsum.METHOD_MITM

    def test_obstruction_pass_is_not_existence(self):
        # sum = (24,0) lies in 2L, yet 16 > 1+1+2+4 rules out any zero sum.
        roots = [[1, 0], [1, 0], [2, 0], [4, 0], [16, 0]]
        assert obstruction_2L(roots).passed
        result = exists_strong_dependence(roots)
        assert not result.exists and result.method == sigsum.METHOD_MITM
