"""Signed-sum engine: exact counting, HNF lattice work, the 2L obstruction.

Claims covered:
    - signed_sum reproduces the hand-checked zero combinations (G2, A2),
      is exact where partial sums leave int64, and refuses a sum past it
    - brute force and meet-in-the-middle agree with the published counts
      (G2=4, F4=34432, E6=13697920) and with each other on small systems
    - one-word keys and keys of several int64 words give identical brute
      and MITM counts, and identical signed sums for every sign mask;
      ``key_vector`` decodes every key of both back to its signed sum
    - the key layout: a coordinate of weight 2^62 - 1 sits alone in its
      word, weight 2^62 is refused, and a word splits where its capacity
      would reach 2^62; engines on each agree with the sign matrix
    - HNF examples: the index-3 planar lattice, diagonal and identity input
    - the HNF of every catalogue system, and of A72, B69, C68 and D69, has
      full rank and the root lattice's index
    - every generator lies in the lattice spanned by its own HNF basis
    - obstruction fails exactly where parity arguments say it must,
      and a Fail always implies a zero brute-force count
    - the obstruction's column sums are exact for every int64 entry
    - the obstruction on A160 and C120 passes within 3 s each
    - the obstruction passes exactly where ``certs.lower_bound`` is nonzero,
      and builds one basis per system, on every catalogue id and every rank
      the lattice workload of ``perfbench/run.py`` picks from
    - the existence pipeline returns verified witnesses or obstruction proofs,
      and on catalogued systems the certificate, after checking that the
      obstruction passes exactly when a certificate exists; past r = 16 the
      witness search recurses on the walked halves (see test_properties);
      the witness is a tuple of Python ints +-1 on both routes, and a
      witness of either route whose signed sum is not zero is the same
      internal error; a disagreement of obstruction and certificate is
      one internal error whichever side passes
    - ``count`` runs brute force up to r = 20 (and r <= max_r) and
      meet-in-the-middle above, with each engine's limit, and looks the
      engines up at call time; a method that is not one of the names of
      ``sigsum.METHODS`` as a string, an array of them included, is refused
      with ValueError; on a named system a count below the
      published lower bound, or nonzero where the bound is 0, is an
      internal error, and so is a count that the 2-part of the Weyl group's
      order does not divide: D4's count plus 2, 66, passes the bound and the
      oddness check and is caught naming 64; a bare matrix is not checked
    - past its engine's limit ``count`` answers 0 by the obstruction where
      the 2L obstruction fails (B60 under every method, B6 under
      ``max_r=20``, 49 roots [1]) without building the dense roots, and
      refuses where it passes (E8, C8, A4 under ``max_r=0``, 50 roots
      [2]); brute force and meet-in-the-middle keep their own refusals
    - ``analyze`` on a bare matrix proves existence by the witness search,
      counts within the limit and, with no bound to fall back on, gives
      None past it, or a forced engine's refusal as text; it refuses an
      unknown method or a bad ``max_r`` before it proves existence
    - a limit of brute force or meet-in-the-middle, or a ``max_r`` of
      ``count``, that is not an integer >= 0 is refused; numpy integers
      are integers and ``max_r=None`` keeps each engine's own limit
    - resource limits are exercised, and every engine checks the memory
      budget before it builds a table; under an address-space limit the
      budget is what of the limit the process has not mapped yet
    - every estimate goes through ``rootsys.check_budget`` before the memory
      it covers is allocated: brute force, meet-in-the-middle, enumeration,
      the bare-matrix witness search, the sparse rows and the dense view;
      an engine's ``memory_peak`` is the largest need it checked
    - the checked byte estimate bounds the tracemalloc peak of meet-in-the-
      middle and brute force, pruned or not, on one-word keys and on keys
      of up to 4 words, and brute force reports it as ``memory_peak``, at
      most twice its peak on F4, D6 and A6; where
      the left walk's last doubling sets it, it counts the right table held
      through that walk, without which it falls below the peak; the
      witness search's peak stays within the largest estimate its walks and
      scans checked, and it runs the exhaustive scan only on a whole
      subproblem of at most 16 roots, where it builds one sign vector
    - the walk's tables hold one sign-canonical state per pair {s, -s}:
      nonnegative one-word keys (A9: half the distinct sums each half
      keeps, zero counted once), multi-word keys whose first nonzero word
      is positive, the zero key first
    - the walk chooses its split: the middle one where nothing prunes, with
      the same estimate as the split fixed there; a right half that prunes
      takes more roots (A9 within 1 MiB, A10 within 4 MiB); halves of at
      most 62 roots and a left half of at least ceil(r/4); the witness
      search takes the middle split and each subproblem is smaller
    - brute force equals the zero rows of ``signs @ roots`` over all 2^r
      sign vectors for r = 1..18, on one word and on two, and its one table
      pair holds 2^(r-1) (prefix, suffix) pairs, those with root 0 positive;
      so it does with a zero root 0, with root 0 minus root 1, at r = 1,
      and with a largest key of 2^31 - 1 (int32 keys, 2^15 a suffix table)
      and 2^31 (int64 keys, 2^14); the suffix table and each compare block
      stay within ``_BLOCK_BYTES``
    - enumeration reads the same scan: its masks equal the zero rows of
      ``signs @ roots`` for r = 1..18 on int32, int64 and two-word keys,
      with a zero row, and on the all-zero 16 x 2 matrix (all 65536); its
      scan's estimate at r = 16 is 327,684 bytes (int32) and 327,744 (two
      words); the witness base case's least zero mask is the first of them
    - enumeration counts its zero sums first and checks the scan, the
      masks and the sign tuples against the budget before it builds any:
      its checked estimate bounds its traced peak on the all-zero 16 x 2
      and all-ones 16 x 1 matrices, and under a 1 MiB budget the first is
      refused tracing under 1 MiB; the witness base case keeps no list of
      masks, and its estimate, the scan and one block's ``np.nonzero``
      indices, bounds its peak on both, under 1 MiB
    - both engines refuse a matrix whose column weights reach 2^62, before
      any table or doubling, however the halves would split it
    - meet-in-the-middle past r = 48 equals the values of two independent
      routes (D8, C8, A10, D9), stays exact where products of multiplicities
      exceed int64, and refuses a half over 62 roots before any table
    - every engine runs on keys past one word: counts, zero sign vectors
      and a verified witness
    - matrix and sign entries must be integers that int64 holds exactly,
      at every entry point; numpy integers are integers, bools are not; a
      matrix that is not a non-empty 2-D one is refused, and so is an odd
      exact count
    - ``hnf`` takes only a non-empty 2-D integer matrix, with entries of any
      size, and ``LatticeBasis.contains`` only a vector of integers and a
      nonzero integer multiple: floats, bools and strings are refused,
      never truncated or parsed, and so is anything that is not a flat
      sequence of ``ambient_dim`` integers; ``hnf`` refuses an empty
      sequence of sparse rows
    - past r = 16 the witness search ends with None when the walked halves
      share no key
    - a dense size is checked before it is allocated: ``hnf(rows, 2**80)``
      is refused, and so is a hand-built system of 2**80, 10**9, 2**40,
      10**5000 or 2**62 coordinates where it is made, for its one row sum,
      before ``obstruction_2L``, ``signed_sum``, ``invariant_dimension``,
      ``exists_strong_dependence``, ``verify_report`` or
      ``format_root_list`` reads it: ResourceLimitError at once, tracing
      under 1 MiB
"""

import math
import os
import re
from fractions import Fraction
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rootspin import (
    DimensionMismatchError,
    FamilyRank,
    InternalCheckError,
    LengthMismatchError,
    ResourceLimitError,
    SpinorElement,
    cartan_act,
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
from rootspin import _kernels, certs, rootsys, sigsum
from rootspin.rootsys import CATALOGUE


def _sys(family, rank):
    return positive_roots(FamilyRank(family, rank))


# Limits every engine refuses: 6.5 was compared as a number, True acted as
# 1, "x" and None raised a bare TypeError, and -1 read "needs r <= -1".
BAD_LIMITS = pytest.mark.parametrize(
    "bad", [6.5, True, "x", None, -1, np.float64(6.0)],
    ids=["float", "bool", "str", "none", "negative", "np_float"],
)


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

    def test_exact_past_int64_or_refused(self):
        # 4 * 2^62 = 2^64 wraps to 0 in int64
        for rows, signs in (
            ([[2**62]] * 4, [1, 1, 1, 1]),
            ([[2**62, 1]] * 4, [1, 1, 1, 1]),
            ([[2**62], [2**62]], [1, 1]),
        ):
            with pytest.raises(ResourceLimitError):
                signed_sum(rows, signs)
        # partial sums leave int64, the totals do not
        rows = [[2**62, 1], [2**62, 1], [2**62 - 1, 1], [-2**62, 1]]
        assert signed_sum(rows, [1, 1, 1, 1]).tolist() == [2**63 - 1, 4]
        assert signed_sum([[2**62]] * 4, [1, 1, -1, -1]).tolist() == [0]
        assert signed_sum([[2**62], [2**62]], [-1, -1]).tolist() == [-2**63]

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
    "numpy_bool": [[np.bool_(True), 1], [1, 0]],
    "bool_array": np.array([[True, False], [True, True]]),
}
_MATRIX_ENTRY_POINTS = {
    "count": sigsum.count,
    "count_bruteforce": count_bruteforce,
    "count_mitm": count_mitm,
    "exists_strong_dependence": exists_strong_dependence,
    "enumerate_zero_signs": enumerate_zero_signs,
    "obstruction_2L": obstruction_2L,
    "signed_sum": lambda roots: signed_sum(roots, [1, -1]),
    "invariant_dimension": invariant_dimension,
    "cartan_act": lambda roots: cartan_act(roots, [0, 0], SpinorElement(2)),
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
                       np.array(roots, dtype=object), np.array(roots, dtype=np.int32),
                       [[np.int32(x) for x in row] for row in roots]):
            assert count_bruteforce(matrix).value == count_mitm(matrix).value == 2

    @pytest.mark.parametrize(
        "matrix", [[1, 2], [[]], np.zeros((0, 2), np.int64)], ids=["flat", "no_columns", "no_rows"]
    )
    def test_matrices_that_are_not_non_empty_2d_refused(self, matrix):
        with pytest.raises(DimensionMismatchError, match="non-empty"):
            sigsum.count(matrix)

    def test_odd_count_is_an_internal_error(self):
        # negating every sign pairs the zero sums off
        with pytest.raises(InternalCheckError, match="exact count 3 is odd"):
            sigsum.CountResult(3, sigsum.METHOD_BRUTE, 0.0)


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

    @BAD_LIMITS
    def test_brute_limit_must_be_an_integer_at_least_zero(self, bad):
        with pytest.raises(DimensionMismatchError, match="limit_r must be an integer >= 0"):
            count_bruteforce(_sys("G", 2), bad)
        assert count_bruteforce(_sys("G", 2), np.int64(6)).value == 4

    @BAD_LIMITS
    def test_mitm_limit_must_be_an_integer_at_least_zero(self, bad):
        with pytest.raises(DimensionMismatchError, match="limit_r must be an integer >= 0"):
            count_mitm(_sys("G", 2), bad)
        assert count_mitm(_sys("G", 2), np.int64(6)).value == 4

    @pytest.mark.parametrize(
        "engine,make",
        [
            (exists_strong_dependence, lambda: rootsys.as_system([[1, 1], [2, 3], [3, 4]])),
            (exists_strong_dependence, lambda: rootsys.as_system(_hostile(24, 1, 10**9))),
            (count_bruteforce, lambda: _sys("G", 2)),
            (enumerate_zero_signs, lambda: _sys("G", 2)),
            (count_mitm, lambda: _sys("G", 2)),
        ],
        ids=["witness_search", "witness_search_r24", "brute_force", "enumeration", "mitm"],
    )
    def test_default_memory_budget_checked_before_tables(self, engine, make, monkeypatch):
        # The system is built first, both its views too: they alone exceed
        # the budget below, and a bare matrix's rows are budgeted.
        system = make()
        assert len(system.rows) == system.roots.shape[0]
        # 64 bytes: below the smallest of the five estimates, the three-root
        # witness search's 288 (its enumeration: tables of 8 keys and 1 key,
        # 8 bytes each, times 4).  At r = 24 the search walks its halves.
        monkeypatch.setattr(rootsys, "DEFAULT_MEMORY_BUDGET", 64)

        def refuse(_):
            raise AssertionError("a table was built before the budget check")

        monkeypatch.setattr(_kernels, "signed_sum_keys", refuse)
        with pytest.raises(ResourceLimitError, match="signed-sum tables"):
            engine(system)


class TestMemoryBudget:
    def test_default_without_a_lower_address_space_limit(self, monkeypatch):
        for soft in (resource.RLIM_INFINITY, 1 << 50):
            monkeypatch.setattr(resource, "getrlimit", lambda _, soft=soft: (soft, soft))
            assert rootsys.memory_budget() == rootsys.DEFAULT_MEMORY_BUDGET

    def test_address_space_limit_alone_without_procfs(self, monkeypatch):
        def no_procfs(*_):
            raise OSError("no /proc/self/statm")

        monkeypatch.setattr(rootsys.resource, "getrlimit", lambda _: (1 << 30, 1 << 30))
        monkeypatch.setattr(rootsys, "open", no_procfs, raising=False)
        assert rootsys.memory_budget() == 1 << 30

    def test_address_space_limit_less_what_is_mapped(self):
        # The cap is set in the child alone.
        cap = 512 << 20

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        result = subprocess.run(
            [sys.executable, "-c", "from rootspin import rootsys; print(rootsys.memory_budget())"],
            env=dict(os.environ, PYTHONPATH=str(Path(rootsys.__file__).parents[1])),
            preexec_fn=limit, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        # numpy and the interpreter already map tens of MiB of the cap
        assert 0 < int(result.stdout) < cap - (16 << 20)


def _logged(fn, events):
    """``fn``, appending "alloc" to ``events`` before each call."""
    return lambda *args, **kwargs: events.append("alloc") or fn(*args, **kwargs)


class _NumpyLogging:
    """numpy, with one function logged by ``_logged``."""

    def __init__(self, name, events):
        setattr(self, name, _logged(getattr(np, name), events))

    def __getattr__(self, name):
        return getattr(np, name)


class TestBudgetGate:
    # Every estimate goes through ``rootsys.check_budget`` before the memory
    # it covers is allocated: the full tables (``signed_sum_keys``), the
    # candidates of each walk doubling (``np.empty`` in ``_kernels``), the
    # sparse rows (``_build_rows``) and the dense view (``np.zeros`` in
    # ``rootsys``).  Each system's rows and dense view are built before the
    # spy goes in, so an engine's checks are its tables' alone.

    @pytest.fixture
    def events(self, monkeypatch):
        log, check = [], rootsys.check_budget

        def spy(need, budget, what):
            log.append(("check", need))
            check(need, budget, what)

        monkeypatch.setattr(rootsys, "check_budget", spy)
        monkeypatch.setattr(_kernels, "signed_sum_keys", _logged(_kernels.signed_sum_keys, log))
        monkeypatch.setattr(rootsys, "_build_rows", _logged(rootsys._build_rows, log))
        monkeypatch.setattr(_kernels, "np", _NumpyLogging("empty", log))
        return log

    @staticmethod
    def _checked_first(events):
        """The needs checked; asserts that a check comes before the first
        allocation."""
        assert "alloc" in events
        assert events[0] != "alloc" and events[0][0] == "check"
        return [e[1] for e in events if e != "alloc"]

    @pytest.mark.parametrize(
        "engine,family,rank",
        [
            (count_bruteforce, "F", 4),
            (count_bruteforce, "D", 6),
            (count_mitm, "E", 6),
            (count_mitm, "A", 9),
            (count_mitm, "C", 7),
        ],
    )
    def test_engine_peak_is_its_largest_check(self, engine, family, rank, events):
        system = _sys(family, rank)
        assert system.roots.shape[0] == system.r
        events.clear()
        result = engine(system, limit_r=system.r)
        assert result.memory_peak == max(self._checked_first(events))

    def test_enumeration(self, events):
        g2 = _sys("G", 2)
        assert g2.roots.shape == (6, 2)
        events.clear()
        assert len(enumerate_zero_signs(g2)) == 4
        self._checked_first(events)

    def test_bare_matrix_witness_search(self, events):
        result = exists_strong_dependence(_hostile(24, 1, 10**9))
        assert result.exists and result.method == sigsum.METHOD_MITM
        self._checked_first(events)

    def test_positive_roots(self, events):
        positive_roots(FamilyRank("B", 3))
        assert self._checked_first(events) == [rootsys._rows_bytes(FamilyRank("B", 3))]

    def test_dense_view(self, events, monkeypatch):
        system = _sys("A", 10)
        events.clear()
        monkeypatch.setattr(rootsys, "np", _NumpyLogging("zeros", events))
        assert system.roots.shape == (55, 10)
        assert self._checked_first(events) == [4400]


def _hostile(r, m, bound, seed=7):
    """Seeded random matrix with entries in +-bound whose last row is minus
    the sum of the others: its partial sums are nearly all distinct, so
    nothing prunes or merges, yet zero sums exist."""
    rng = np.random.default_rng(seed)
    roots = rng.integers(-bound, bound, size=(r, m), endpoint=True)
    roots[-1] = -roots[:-1].sum(axis=0)
    return roots


def _traced_peak(fn):
    """Result and tracemalloc peak of ``fn()``, traced on a second call so
    that one-time imports and caches of the first are not counted."""
    fn()
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryEstimate:
    # The byte estimate an engine checks against the budget must bound what
    # it really allocates (tracemalloc sees numpy's buffers).
    @pytest.mark.parametrize("name", ["G2", "F4", "E6", "A9", "C7", "D8"])
    def test_mitm_estimate_bounds_traced_peak(self, name):
        roots = positive_roots(FamilyRank.parse(name)).roots
        result, peak = _traced_peak(lambda: count_mitm(roots, limit_r=56))
        assert peak <= result.memory_peak < (1 << 30)

    # Wide keys: making a candidate canonical walks its words.
    @pytest.mark.parametrize(
        "shape,words",
        [((32, 1, 10**9), 1), ((30, 3, 10**6), 2), ((30, 12, 10**3), 3), ((34, 16, 100), 4)],
        ids=["packed", "rows", "rows_12", "rows_16"],
    )
    def test_mitm_estimate_bounds_traced_peak_unpruned(self, shape, words):
        roots = _hostile(*shape)
        assert _words(roots) == words
        result, peak = _traced_peak(lambda: count_mitm(roots))
        assert result.value >= 2  # all signs equal, and their negation
        assert peak <= result.memory_peak

    def test_mitm_estimate_holds_the_right_table_through_the_left_walk(self):
        # Coordinate 0 is nonzero on root 16 alone, which the walk puts last
        # in the left half: the left walk's last doubling holds 2^15 states
        # beside the right table and then prunes them all, so the join holds
        # the right table alone and that doubling sets the estimate.  Less
        # the right table held through it, the estimate is below the peak.
        rng = np.random.default_rng(34)
        roots = np.zeros((34, 2), np.int64)
        roots[:, 1] = rng.integers(1, 10**6, size=34, endpoint=True) * rng.choice([-1, 1], 34)
        roots[16, 0] = 1
        _, k, left, right, _ = _kernels.pruned_tables(roots)
        assert (k, left[0].shape[0], _words(roots)) == (17, 0, 1)
        result, peak = _traced_peak(lambda: count_mitm(roots))
        held = 16 * right[0].shape[0]  # a one-word key and a multiplicity a state
        assert result.value == 0
        assert result.memory_peak - held < peak <= result.memory_peak

    @pytest.mark.parametrize("engine", [count_bruteforce], ids=["brute_force"])
    @pytest.mark.parametrize(
        "shape", [(24, 1, 10**9), (24, 3, 10**6), (24, 1, 10**6)], ids=["packed", "rows", "narrow"]
    )
    def test_table_estimate_bounds_traced_peak(self, engine, shape, monkeypatch):
        roots = _hostile(*shape)
        assert _words(roots) == (2 if shape[1] == 3 else 1)
        if shape[1] == 1:  # one column: its weight is the largest key
            assert (int(np.abs(roots).sum()) < 1 << 31) == (shape[2] == 10**6)
        estimates = []
        scan = _kernels._scan_tables

        def spy(*args):
            tables = scan(*args)
            estimates.append(tables[3])
            return tables

        monkeypatch.setattr(_kernels, "_scan_tables", spy)
        _, peak = _traced_peak(lambda: engine(roots))
        assert len(estimates) == 2  # one table pair a call
        assert peak <= estimates[-1]

    @pytest.mark.parametrize("name", ["F4", "D6", "A6"])
    def test_brute_estimate_within_twice_traced_peak(self, name):
        # The tables once, one compare block and a fixed allowance: charged
        # four times over, the tables took the estimate to 2.5x the peak, and
        # a capped run was refused at about twice its need.
        roots = positive_roots(FamilyRank.parse(name)).roots
        result, peak = _traced_peak(lambda: count_bruteforce(roots, limit_r=30))
        assert peak <= result.memory_peak <= 2 * peak

    @pytest.mark.parametrize(
        "shape",
        [(24, 1, 10**9), (24, 3, 10**6), (32, 1, 10**9), (30, 3, 10**6)],
        ids=["packed_24", "rows_24", "packed_32", "rows_30"],
    )
    def test_witness_search_estimate_bounds_traced_peak(self, shape, monkeypatch):
        # The search walks its halves with ``pruned_tables`` and runs the
        # exhaustive scan only on a whole subproblem of at most 16 roots.
        roots = _hostile(*shape)
        assert _words(roots) == (2 if shape[1] == 3 else 1)
        estimates, scanned = [], []
        pruned, scan = _kernels.pruned_tables, _kernels._scan_tables

        def pruned_spy(*args):
            tables = pruned(*args)
            estimates.append(tables[4])
            return tables

        def scan_spy(subproblem):
            scanned.append(subproblem.shape[0])
            tables = scan(subproblem)
            estimates.append(tables[3])
            return tables

        monkeypatch.setattr(_kernels, "pruned_tables", pruned_spy)
        monkeypatch.setattr(_kernels, "_scan_tables", scan_spy)
        witness, peak = _traced_peak(lambda: sigsum._search_witness(roots))
        assert not (witness @ roots).any()
        assert scanned and all(r <= sigsum.ENUMERATION_LIMIT for r in scanned)
        assert peak <= max(estimates)

    @pytest.mark.parametrize(
        "roots,limit_r",
        [
            (positive_roots(FamilyRank("F", 4)).roots, 26),
            (positive_roots(FamilyRank("D", 6)).roots, 30),
            (_hostile(26, 3, 10**6), 26),
        ],
        ids=["F4", "D6", "rows_26x3"],
    )
    def test_brute_estimate_bounds_traced_peak(self, roots, limit_r):
        result, peak = _traced_peak(lambda: count_bruteforce(roots, limit_r=limit_r))
        assert peak <= result.memory_peak


def _pairs_kept(half, other):
    """Pairs {s, -s} of the signed sums of ``half`` that ``other`` can
    cancel (every |s_c| at most its weight in c), zero one pair on its own;
    counted on distinct rows (``np.unique``), with no key table.  The rows
    of ``half`` are added in order; a partial sum past the weight of
    ``other`` and the rows still to come cannot end within ``other``'s, so
    it is dropped at once."""
    rest = np.abs(half).sum(axis=0) + np.abs(other).sum(axis=0)
    sums = np.zeros((1, half.shape[1]), np.int64)
    for a in half:
        rest = rest - np.abs(a)
        sums = np.vstack((sums + a, sums - a))
        sums = np.unique(sums[(np.abs(sums) <= rest).all(axis=1)], axis=0)
    zero = int((~sums.any(axis=1)).any())
    return (sums.shape[0] + zero) // 2


class TestCanonicalTables:
    # The walk keeps one state per pair {s, -s}: a one-word key is |key|, a
    # key of several words has its first nonzero word positive, and the zero
    # key, its own pair, sorts first.
    def test_packed_tables_hold_nonnegative_keys(self):
        roots = positive_roots(FamilyRank("A", 9)).roots
        order, k, left, right, _ = _kernels.pruned_tables(roots)
        assert (left[0] >= 0).all() and (right[0] >= 0).all()
        ordered = roots[order]
        # one state per pair {s, -s} of the sums each half keeps; each half
        # is walked from its outer end, where the weight bound bites
        assert left[0].shape[0] == _pairs_kept(ordered[:k], ordered[k:])
        assert right[0].shape[0] == _pairs_kept(ordered[k:][::-1], ordered[:k])

    def test_row_key_tables_hold_canonical_rows(self):
        roots = _stretch_past_key_budget(positive_roots(FamilyRank("E", 6)).roots)
        words = _words(roots)
        assert words > 1
        _, _, left, right, _ = _kernels.pruned_tables(roots)
        for keys, _ in (left, right):
            rows = keys.view(np.int64).reshape(keys.shape[0], words)
            nonzero = rows.any(axis=1)
            first = np.take_along_axis(rows, (rows != 0).argmax(axis=1)[:, None], axis=1)
            assert (first[nonzero] > 0).all()
            assert nonzero[1:].all()
        assert sigsum._join_counts(left, right) == 13697920


class TestWitnessBaseCase:
    # At r <= 16 the search takes the least zero mask of the exhaustive
    # scan and builds one sign vector, not every zero sign vector.
    @pytest.mark.parametrize("r", [16, 48])
    def test_one_sign_vector_per_base_case(self, r, monkeypatch):
        roots = np.ones((r, 1), np.int64)
        bases, built = [], []
        scan, from_mask = _kernels._scan_tables, sigsum.signs_from_mask
        monkeypatch.setattr(_kernels, "_scan_tables",
                            lambda sub: bases.append(sub.shape[0]) or scan(sub))
        monkeypatch.setattr(sigsum, "signs_from_mask",
                            lambda *args: built.append(args[0]) or from_mask(*args))
        witness = sigsum._search_witness(roots)
        assert not (witness @ roots).any()
        assert len(built) == len(bases) >= 1


def _zero_masks_by_sign_matrix(roots):
    """Reference enumeration with no key table: every sign vector as a row
    of a +-1 matrix, and the masks of the zero rows of ``signs @ roots``,
    in increasing order."""
    r = roots.shape[0]
    bits = (np.arange(1 << r)[:, None] >> np.arange(r)) & 1
    return np.flatnonzero(~((1 - 2 * bits) @ roots).any(axis=1))


def _zero_sums_by_sign_matrix(roots):
    """Reference count: the number of those zero rows."""
    return _zero_masks_by_sign_matrix(roots).size


def _brute_tables(roots, monkeypatch):
    """Brute-force count of ``roots`` and the one table pair it scanned."""
    tables = []
    scan = _kernels._scan_tables

    def spy(*args):
        tables.append(scan(*args))
        return tables[-1]

    monkeypatch.setattr(_kernels, "_scan_tables", spy)
    value = count_bruteforce(roots).value
    assert len(tables) == 1
    return value, tables[0][0], tables[0][1]


class TestBruteAgainstSignMatrix:
    # r = 1..18 runs below, at and above the suffix table's root count
    # (15 for int32 keys, 13 for two words), with prefix tables shorter
    # than one compare block and, at r = 18, as long as one (longer ones in
    # ``test_scan_stays_within_one_block``).  Brute force scans the sign
    # vectors with root 0 positive, each (prefix, suffix) pair once.
    @pytest.mark.parametrize("kind", ["packed", "rows"])
    @pytest.mark.parametrize("r", range(1, 19))
    def test_counts_equal_reference(self, r, kind, monkeypatch):
        rng = np.random.default_rng(1000 + r)
        m = 1 + r % 3
        roots = rng.integers(-2, 2, size=(r, m), endpoint=True)
        # a nonzero first column, so that stretching it takes a second word
        roots[:, 0] = rng.choice([-2, -1, 1, 2], size=r)
        if kind == "rows":
            roots = _stretch_past_key_budget(roots)
        assert _words(roots) == (2 if kind == "rows" else 1)
        value, prefix, suffix = _brute_tables(roots, monkeypatch)
        assert value == _zero_sums_by_sign_matrix(roots)
        assert prefix.shape[0] * suffix.shape[0] == 1 << (r - 1)


class TestBruteHalfCube:
    # The scan holds root 0 positive and doubles; its keys are int32 when
    # they take one word and the largest, sum_i |delta_i|, fits in 31 bits.
    @pytest.mark.parametrize(
        "weight,suffix_keys,value",
        [((1 << 31) - 1, 1 << 15, 0), (1 << 31, 1 << 14, 34)],
        ids=["int32", "int64"],
    )
    def test_largest_key_decides_key_width(self, weight, suffix_keys, value, monkeypatch):
        # one column, so the largest key is the column weight: 17 roots of
        # 2^26 and one that brings the weight to ``weight``.  A sum of all
        # signs but one of the 17 cancels 15 * 2^26, which only 2^31 reaches.
        roots = np.full((18, 1), 1 << 26, np.int64)
        roots[-1] = weight - 17 * (1 << 26)
        assert int(np.abs(roots).sum()) == weight and _words(roots) == 1
        counted, prefix, suffix = _brute_tables(roots, monkeypatch)
        assert counted == _zero_sums_by_sign_matrix(roots) == value
        assert suffix.shape[0] == suffix_keys
        assert prefix.shape[0] * suffix.shape[0] == 1 << 17

    @pytest.mark.parametrize("kind", ["packed", "rows"])
    @pytest.mark.parametrize("first", ["zero", "minus_next"])
    @pytest.mark.parametrize("r", [3, 9, 17, 18])
    def test_first_root_zero_or_minus_the_next(self, r, first, kind, monkeypatch):
        rng = np.random.default_rng(2000 + r)
        roots = rng.integers(-2, 2, size=(r, 2), endpoint=True)
        roots[:, 0] = rng.choice([-2, -1, 1, 2], size=r)
        roots[0] = 0 if first == "zero" else -roots[1]
        # the last root cancels the others, so zero sums exist
        roots[-1] = -roots[:-1].sum(axis=0)
        if kind == "rows":
            roots = _stretch_past_key_budget(roots)
        assert _words(roots) == (2 if kind == "rows" else 1)
        value, prefix, suffix = _brute_tables(roots, monkeypatch)
        assert value == _zero_sums_by_sign_matrix(roots) > 0
        assert prefix.shape[0] * suffix.shape[0] == 1 << (r - 1)

    @pytest.mark.parametrize(
        "root,value",
        [([0], 2), ([3], 0), ([0, 0, 0], 2), ([0, -1, 0], 0), ([1 << 40, 0], 0), ([0] * 4, 2)],
    )
    def test_one_root(self, root, value, monkeypatch):
        roots = np.array([root], np.int64)
        counted, prefix, suffix = _brute_tables(roots, monkeypatch)
        assert counted == _zero_sums_by_sign_matrix(roots) == value
        assert (prefix.shape[0], suffix.shape[0]) == (1, 1)

    @pytest.mark.parametrize("width,key_bytes", [("int32", 4), ("int64", 8), ("two_words", 16)])
    @pytest.mark.parametrize("r", [3, 14, 21])
    def test_scan_stays_within_one_block(self, r, width, key_bytes, monkeypatch):
        # The suffix table is the most keys of its width that fit the block,
        # and each boolean compare block fits it too; the compares hold one
        # byte per (prefix, suffix) pair, each pair once.  At r = 21 every
        # width has more prefix keys than one compare block takes.
        rng = np.random.default_rng(3000 + r)
        roots = rng.integers(-2, 2, size=(r, 2), endpoint=True)
        roots[:, 0] = rng.choice([-2, -1, 1, 2], size=r)
        if width == "int64":
            roots[0, 0] = 1 << 31  # one word, but a largest key past 31 bits
        elif width == "two_words":
            roots = _stretch_past_key_budget(roots)
        want = count_mitm(roots).value
        compared = []
        count_nonzero = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero",
                            lambda block: compared.append(block.nbytes) or count_nonzero(block))
        value, prefix, suffix = _brute_tables(roots, monkeypatch)
        assert value == want
        assert suffix.dtype.itemsize == key_bytes
        assert suffix.shape[0] == min(1 << (r - 1), _kernels._BLOCK_BYTES // key_bytes)
        assert suffix.nbytes <= _kernels._BLOCK_BYTES
        assert max(compared) <= _kernels._BLOCK_BYTES
        assert sum(compared) == prefix.shape[0] * suffix.shape[0] == 1 << (r - 1)


class TestZeroMasks:
    # Enumeration reads brute force's scan: a prefix key i equal to suffix
    # key s is the zero mask i << 1 | (s << k) ^ flip, root 0 positive and
    # the suffix signs negated, and each mask's complement is one too.  The
    # prefix holds k = 1 root while 2^(r-1) keys fit one suffix table, so
    # r = 1..18 has k = 1 and k > 1 on each key width.
    @pytest.mark.parametrize("width,key_bytes", [("int32", 4), ("int64", 8), ("two_words", 16)])
    @pytest.mark.parametrize("r", range(1, 19))
    def test_masks_equal_reference(self, r, width, key_bytes):
        rng = np.random.default_rng(4000 + r)
        roots = rng.integers(-2, 2, size=(r, 2), endpoint=True)
        roots[:, 0] = rng.choice([-2, -1, 1, 2], size=r)
        if r > 1:  # the last root cancels the others, so zero sums exist
            roots[-1] = -roots[:-1].sum(axis=0)
        if width == "int64":
            roots[0, 0] = 1 << 31  # one word, but a largest key past 31 bits
        elif width == "two_words":
            roots = _stretch_past_key_budget(roots)
        prefix, suffix, _, _ = _kernels._scan_tables(roots)
        assert suffix.dtype.itemsize == key_bytes
        assert prefix.shape[0] * suffix.shape[0] == 1 << (r - 1)
        masks = _kernels.zero_masks(roots)
        assert masks.dtype == np.int64
        assert np.array_equal(masks, _zero_masks_by_sign_matrix(roots))
        assert _kernels.least_zero_mask(roots) == (int(masks[0]) if masks.size else None)

    @pytest.mark.parametrize("r", [1, 3, 17])
    def test_zero_row(self, r):
        roots = np.random.default_rng(5000 + r).integers(-2, 2, size=(r, 2), endpoint=True)
        roots[r // 2] = 0  # every zero sum comes with both of its signs
        roots[-1] = -roots[:-1].sum(axis=0)  # so zero sums exist
        masks = _kernels.zero_masks(roots)
        assert masks.size and np.array_equal(masks, _zero_masks_by_sign_matrix(roots))
        assert _kernels.least_zero_mask(roots) == masks[0]

    def test_all_zero_matrix(self):
        masks = _kernels.zero_masks(np.zeros((16, 2), np.int64))
        assert np.array_equal(masks, np.arange(1 << 16))
        assert _kernels.least_zero_mask(np.zeros((16, 2), np.int64)) == 0

    @pytest.mark.parametrize(
        "roots,estimate",
        [
            (np.ones((16, 1), np.int64), 327_684),
            (np.random.default_rng(16).integers(-10**6, 10**6, size=(16, 3)), 327_744),
        ],
        ids=["int32", "two_words"],
    )
    def test_estimate_at_r16(self, roots, estimate):
        # The tables once, one compare block and the allowance: 2^15 int32
        # suffix keys and one prefix key, or 2^13 and 4 keys of two words.
        # The full 2^16 table with its compare scratch took 1,179,656 bytes
        # and 1,703,952.
        assert _kernels._scan_tables(roots)[3] == estimate


def _largest_need(fn, monkeypatch):
    """Result and tracemalloc peak of ``fn()``, and the largest need it
    checked against the budget, in ``_kernels`` or ``sigsum``."""
    needs = []
    check = rootsys.check_budget

    def spy(need, budget, what):
        needs.append(need)
        check(need, budget, what)

    monkeypatch.setattr(rootsys, "check_budget", spy)
    monkeypatch.setattr(sigsum, "check_budget", spy)
    result, peak = _traced_peak(fn)
    return result, peak, max(needs)


# Every compare of the all-zero matrix's scan is a zero sum, and about a
# fifth of the all-ones matrix's are.
OUTPUT_HEAVY = {"zeros_16x2": np.zeros((16, 2), np.int64), "ones_16x1": np.ones((16, 1), np.int64)}


class TestEnumerationOutput:
    # Enumeration counts first and checks the masks and sign tuples it will
    # build; the witness base case keeps no mask list.  Both used to check
    # only the scan's 327,684 bytes: the all-zero matrix traced 12,100,512
    # and 2,232,116 bytes, the all-ones one 2,374,152 and 546,804.
    @pytest.mark.parametrize("name", OUTPUT_HEAVY)
    def test_enumeration_estimate_bounds_traced_peak(self, name, monkeypatch):
        roots = OUTPUT_HEAVY[name]
        signs, peak, need = _largest_need(lambda: enumerate_zero_signs(roots), monkeypatch)
        assert len(signs) == count_bruteforce(roots).value
        assert peak <= need

    @pytest.mark.parametrize("name", OUTPUT_HEAVY)
    def test_base_case_estimate_bounds_traced_peak(self, name, monkeypatch):
        roots = OUTPUT_HEAVY[name]
        witness, peak, need = _largest_need(lambda: sigsum._search_witness(roots), monkeypatch)
        assert witness == enumerate_zero_signs(roots)[0]
        assert peak <= need < 1 << 20

    def test_enumeration_refused_before_its_output(self, monkeypatch):
        roots = OUTPUT_HEAVY["zeros_16x2"]
        monkeypatch.setattr(rootsys, "memory_budget", lambda: 1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="the 65536 zero sign vectors of the "
                                                         "unnamed 16 x 2 matrix would need"):
                enumerate_zero_signs(roots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        # the base case keeps one mask, so it runs within the same budget
        assert sigsum._search_witness(roots) == (1,) * 16


class TestPastR48:
    # Values found by two routes independent of this engine: a one-way
    # pruned partial-sum DP and Freudenthal's recursion for the multiplicity
    # of the zero weight in V_rho; D9's by this engine at the middle split
    # and by a sum of the character of V_rho over a finite torus.
    @pytest.mark.parametrize(
        "name,value",
        [
            ("D8", 458377052160),
            ("C8", 43303946649600),
            ("A10", 48251508480),
            ("D9", 3533153672724480),
        ],
    )
    def test_counts_agree_with_independent_routes(self, name, value):
        system = positive_roots(FamilyRank.parse(name))
        assert count_mitm(system, limit_r=system.r).value == value

    def test_counts_exact_past_int64_products(self):
        # 124 equal roots: halves of 62 with multiplicities up to C(62, 31),
        # whose products exceed int64; the count is C(124, 62).
        assert count_mitm([[1]] * 124, limit_r=124).value == math.comb(124, 62)

    def test_half_over_62_roots_refused_before_tables(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("a table was built for a half over 62 roots")

        monkeypatch.setattr(_kernels, "pruned_tables", refuse)
        a16 = positive_roots(FamilyRank("A", 16))  # r = 136, halves of 68
        with pytest.raises(ResourceLimitError, match="at most 62 roots"):
            count_mitm(a16, limit_r=200)
        with pytest.raises(ResourceLimitError, match="at most 62 roots"):
            count_mitm([[1]] * 126, limit_r=126)


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
        # an array of "auto" counted by brute force, and one of two names
        # raised numpy's ambiguous truth value error
        for method in ("dp", np.array(["auto"]), np.array(["auto", "brute"])):
            with pytest.raises(ValueError, match="unknown counting method"):
                sigsum.choose_engine(6, method)
            with pytest.raises(ValueError, match="unknown counting method"):
                sigsum.count(_sys("G", 2), method)
            with pytest.raises(ValueError, match="unknown counting method"):
                sigsum.analyze(_sys("B", 3), method)  # refused before existence

    @pytest.mark.parametrize("bad", [6.5, True, "x", -1, np.float64(6.0)],
                             ids=["float", "bool", "str", "negative", "np_float"])
    def test_max_r_must_be_an_integer_at_least_zero(self, bad):
        g2 = _sys("G", 2)
        for method in sigsum.METHODS:
            with pytest.raises(DimensionMismatchError, match="max_r must be an integer >= 0"):
                sigsum.count(g2, method, bad)
            with pytest.raises(DimensionMismatchError, match="max_r must be an integer >= 0"):
                sigsum.analyze(g2, method, bad)
        assert sigsum.choose_engine(6, max_r=np.int64(6)) == ("brute", 6)
        assert sigsum.count(g2, max_r=None).value == sigsum.count(g2, max_r=np.int32(6)).value == 4

    def test_count_runs_the_chosen_engine(self):
        d5, a6 = _sys("D", 5), _sys("A", 6)  # r = 20 and r = 21
        assert sigsum.count(d5).method == sigsum.METHOD_BRUTE
        assert sigsum.count(a6).method == sigsum.METHOD_MITM
        assert sigsum.count(d5).value == sigsum.count(d5, "mitm").value
        assert sigsum.count(a6).value == sigsum.count(a6, "brute").value
        with pytest.raises(ResourceLimitError, match="meet-in-the-middle needs r <= 19"):
            sigsum.count(d5, max_r=19)

    def test_past_the_limit_a_failed_obstruction_counts_zero(self):
        # count(B60) refused ("meet-in-the-middle needs r <= 48") the zero
        # that the 2L obstruction proves
        b60, b6 = _sys("B", 60), _sys("B", 6)  # r = 3600 and r = 36
        for method in sigsum.METHODS:
            result = sigsum.count(b60, method)
            assert (result.value, result.method) == (0, sigsum.METHOD_OBSTRUCTION), method
        assert "roots" not in vars(b60)
        assert sigsum.count(b6, max_r=20).method == sigsum.METHOD_OBSTRUCTION
        assert sigsum.count(b6).method == sigsum.METHOD_MITM  # within the limit, unchanged
        assert sigsum.count([[1]] * 49).method == sigsum.METHOD_OBSTRUCTION  # 49 is not in 2Z
        # where the obstruction passes, and in the engines, the refusal stands
        for args, match in [((_sys("E", 8),), "r <= 48, got r = 120"),
                            ((_sys("C", 8),), "r <= 48, got r = 64"),
                            ((_sys("A", 4), "auto", 0), "r <= 0, got r = 10"),
                            (([[2]] * 50,), "r <= 48, got r = 50")]:
            with pytest.raises(ResourceLimitError, match=f"meet-in-the-middle needs {match}$"):
                sigsum.count(*args)
        with pytest.raises(ResourceLimitError, match="brute force needs r <= 26, got r = 3600"):
            count_bruteforce(b60)
        with pytest.raises(ResourceLimitError, match="meet-in-the-middle needs r <= 48"):
            count_mitm(b60)

    def test_analyze_on_a_bare_matrix(self):
        # no id: the witness search proves existence, and no bound stands
        # in for a count that did not run
        roots = [[1, 1], [2, 3], [3, 4]]
        existence, result, refusal = sigsum.analyze(roots)
        assert (existence.exists, existence.method, existence.certificate) == (
            True, sigsum.METHOD_MITM, None)
        assert (result.value, result.method, refusal) == (2, sigsum.METHOD_BRUTE, None)
        assert sigsum.analyze(roots, max_r=0)[1:] == (None, None)
        assert sigsum.analyze(roots, "mitm", 0)[1:] == (
            None, "meet-in-the-middle needs r <= 0, got r = 3")

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

    @pytest.mark.parametrize("family,rank,bound", [("G", 2, 4), ("B", 3, 0)])
    def test_count_checks_the_published_bound(self, monkeypatch, family, rank, bound):
        # 2 is below G2's bound 4, and nonzero where B3's bound is 0.
        monkeypatch.setattr(sigsum, "count_bruteforce",
                            lambda *_: sigsum.CountResult(2, sigsum.METHOD_BRUTE, 0.0))
        system = _sys(family, rank)
        message = f"^{family}{rank}: exact count 2 contradicts lower bound {bound}$"
        with pytest.raises(InternalCheckError, match=message):
            sigsum.count(system)
        # A bare matrix has no bound to contradict.
        assert sigsum.count(system.roots).value == 2

    def test_count_checks_the_two_part_of_the_weyl_order(self, monkeypatch):
        # 66 is even, nonzero and above D4's published bound 2: only the
        # 2-part of |W(D4)| = 192 catches it.
        d4 = _sys("D", 4)
        true = sigsum.count(d4).value
        assert true == 64 and certs.lower_bound(d4.id) == 2
        monkeypatch.setattr(sigsum, "count_bruteforce",
                            lambda *_: sigsum.CountResult(true + 2, sigsum.METHOD_BRUTE, 0.0))
        message = "^D4: exact count 66 is not divisible by 64, the 2-part of the Weyl group's order$"
        with pytest.raises(InternalCheckError, match=message):
            sigsum.count(d4)
        assert sigsum.count(d4.roots).value == 66


def _words(roots):
    """The int64 words of a key of ``roots``."""
    return _kernels.key_packing(roots)[0].shape[1]


def _stretch_past_key_budget(roots):
    """Multiply the first coordinate by the least power of two that takes
    the keys of the system past one word.  A one-column matrix never leaves
    one word, so its column is first appended again.  Both maps, s -> (s, s)
    and the stretch, are injective and linear, so they keep the zero set
    (and every equality of signed sums)."""
    if roots.shape[1] == 1:
        roots = np.hstack((roots, roots))
    for shift in range(_kernels._KEY_BITS):
        stretched = roots.copy()
        stretched[:, 0] <<= shift
        if _words(stretched) > 1:
            return stretched
    raise AssertionError("no stretch of the first coordinate takes a second word")


class TestBackends:
    # A key is W int64 words, built by ``_kernels.signed_sum_keys`` and the
    # walk and run through the same join and scan; tables are sorted by the
    # int64 column at W = 1 and by one ``np.void`` of 8*W bytes otherwise.
    # The one-word side runs on the system as given, the other on its
    # stretch past one word.
    @pytest.mark.parametrize("name", ["A4", "B3", "C3", "D4", "G2", "F4"])
    def test_counts_identical_across_backends(self, name, catalogue):
        roots = catalogue[name].roots
        assert _words(roots) == 1
        stretched = _stretch_past_key_budget(roots)
        assert _words(stretched) > 1
        packed = (count_bruteforce(roots).value, count_mitm(roots).value)
        unpacked = (count_bruteforce(stretched).value, count_mitm(stretched).value)
        assert packed == unpacked
        brute, mitm = packed
        assert brute == mitm

    def test_key_tables_identical_across_backends(self):
        roots = positive_roots(FamilyRank("B", 3)).roots
        r = roots.shape[0]
        deltas, _ = _kernels.key_packing(roots)
        assert deltas.shape[1] == 1
        stretched = _stretch_past_key_budget(roots)
        wide, _ = _kernels.key_packing(stretched)
        assert wide.shape[1] > 1
        keys = _kernels.signed_sum_keys(deltas)[:, 0]
        rows = _kernels.signed_sum_keys(wide)
        signs = np.array([sigsum.signs_from_mask(mask, r) for mask in range(1 << r)])
        assert np.array_equal(keys, (signs @ deltas)[:, 0])
        assert np.array_equal(rows, signs @ wide)
        # Faithful packing: equal keys exactly where the signed sums are equal.
        sums = [tuple(v) for v in (signs @ stretched).tolist()]
        distinct_keys = set(keys.tolist())
        distinct_rows = {tuple(row) for row in rows.tolist()}
        pairs = set(zip(keys.tolist(), map(tuple, rows.tolist()), sums))
        assert len(distinct_keys) == len(distinct_rows) == len(set(sums)) == len(pairs) == 136
        assert np.array_equal(keys == 0, np.all(rows == 0, axis=1))



class TestChosenSplit:
    # ``pruned_tables`` walks the right half first and stops before root i
    # once its next doubling could outgrow the 2^i pairs of the roots left
    # (2n > 2^i), with both halves at most 62 roots and the left half at
    # least ceil(r/4); the witness search fixes the middle split.
    @pytest.mark.parametrize(
        "shape,middle_estimate",
        [
            ((32, 1, 10**9), 3732928),
            ((30, 3, 10**6), 2634360),
            ((34, 16, 100), 8434895),
            ((24, 1, 10**9), 379360),
            ((24, 3, 10**6), 348928),
            ((24, 1, 10**6), 378944),
            ((40, 3, 10**6), 47486584),
            ((44, 4, 1000), 152372320),
        ],
        ids=["packed", "rows", "rows_16", "packed_24", "rows_24", "narrow_24", "rows_40", "rows_44"],
    )
    def test_unprunable_matrices_keep_the_middle_split(self, shape, middle_estimate):
        # Nothing prunes, so each half doubles and the walk stops at the
        # middle.  ``middle_estimate`` is the estimate of the split fixed at
        # ceil(r/2) with the left half walked first.
        r = shape[0]
        _, k, _, _, estimate = _kernels.pruned_tables(_hostile(*shape))
        assert k in (r // 2, (r + 1) // 2)
        assert estimate == middle_estimate

    @pytest.mark.parametrize("shape", [(25, 1, 10**9), (31, 3, 10**6)], ids=["packed", "rows"])
    def test_odd_unprunable_matrices_split_below_the_middle(self, shape):
        # With r = 2h + 1, the right walk holds 2^(h-1) pairs before root
        # h - 1, and 2n = 2^h > 2^(h-1): the left half takes h roots.
        r = shape[0]
        roots = _hostile(*shape)
        _, k, left, right, _ = _kernels.pruned_tables(roots)
        _, _, mid_left, mid_right, _ = _kernels.pruned_tables(roots, (r + 1) // 2)
        assert k == r // 2
        assert sigsum._join_counts(left, right) == sigsum._join_counts(mid_left, mid_right) >= 2

    def test_a_heavy_last_root_moves_the_split(self):
        # The last row, minus the sum of the others, is the heaviest: walked
        # first, it lets the weight bound bite in the right half, which then
        # takes more roots than the middle split gives it (1650560 bytes).
        roots = _hostile(30, 12, 10**3)
        _, k, left, right, estimate = _kernels.pruned_tables(roots)
        _, _, mid_left, mid_right, mid_estimate = _kernels.pruned_tables(roots, 15)
        assert k < 15 and estimate < mid_estimate == 1650560
        assert sigsum._join_counts(left, right) == sigsum._join_counts(mid_left, mid_right) == 2

    @pytest.mark.parametrize("name,mib", [("A9", 1), ("A10", 4)])
    def test_type_a_estimate(self, name, mib):
        # At the middle split the left half (23 and 28 roots) kept 60038 and
        # 280974 states, for estimates of 3.73 and 17.6 MiB.
        system = positive_roots(FamilyRank.parse(name))
        result = count_mitm(system, limit_r=system.r)
        assert result.memory_peak <= mib << 20

    @pytest.mark.parametrize("r,k", [(40, 10), (100, 38), (124, 62)])
    def test_split_at_its_bounds(self, r, k):
        # Equal roots keep j // 2 + 1 states after j, so 2n > 2^i never
        # stops the right walk: it ends at the floor ceil(r/4) (r = 40), at
        # 62 roots (r = 100), or at both (r = 124).
        _, split, left, right, _ = _kernels.pruned_tables(np.ones((r, 1), np.int64))
        assert split == k
        assert sigsum._join_counts(left, right) == math.comb(r, r // 2)

    @pytest.mark.parametrize("name", ["E6", "A8", "r48"])
    def test_witness_subproblems_shrink(self, name, monkeypatch):
        # Each recursive call of the search has fewer roots than its caller,
        # and every walk of the search takes the middle split.
        if name == "r48":
            roots = _hostile(48, 2, 2)
        else:
            roots = positive_roots(FamilyRank.parse(name)).roots.copy()
        search, walk = sigsum._search_witness, _kernels.pruned_tables
        callers, walks = [], []

        def search_spy(sub):
            assert not callers or sub.shape[0] < callers[-1]
            callers.append(sub.shape[0])
            try:
                return search(sub)
            finally:
                callers.pop()

        def walk_spy(sub, *args):
            walks.append((sub.shape[0], *args))
            return walk(sub, *args)

        monkeypatch.setattr(sigsum, "_search_witness", search_spy)
        monkeypatch.setattr(_kernels, "pruned_tables", walk_spy)
        witness = search_spy(roots)
        assert not (witness @ roots).any()
        assert walks and all(args == [(r + 1) // 2] for r, *args in walks)


class TestKeyOverflow:
    # Stretching one coordinate by 2^55 takes a key past one 62-bit word,
    # so the second coordinate starts a word of its own; being an injective
    # linear image of SMALL, the stretched system has exactly the same zero
    # set.
    SMALL = [[2, 1], [2, -1], [0, 2], [4, 0], [1, 0], [1, 1]]
    BIG = [[c0 << 55, c1] for c0, c1 in SMALL]

    def test_packing_takes_two_words(self):
        assert _kernels.key_packing(np.array(self.BIG, dtype=np.int64))[1] == [(0, 1), (1, 1)]
        assert _kernels.key_packing(np.array(self.SMALL, dtype=np.int64))[1] == [(0, 1), (0, 21)]

    def test_engines_agree_unpacked(self):
        brute = count_bruteforce(self.BIG).value
        assert brute == count_mitm(self.BIG).value

    def test_unpacked_matches_small_equivalent(self):
        assert count_bruteforce(self.BIG).value == count_bruteforce(self.SMALL).value

    # SMALL fails the obstruction, so its engines only ever agree on 0; the
    # stretch of G2 has zero sums and reaches every engine on two words.
    G2 = positive_roots(FamilyRank("G", 2)).roots
    G2_BIG = _stretch_past_key_budget(G2)

    def test_zero_sums_counted_unpacked(self):
        assert count_bruteforce(self.G2_BIG).value == 4
        assert count_mitm(self.G2_BIG).value == 4

    def test_zero_signs_enumerated_unpacked(self):
        found = {tuple(s) for s in enumerate_zero_signs(self.G2_BIG)}
        assert found == {tuple(s) for s in enumerate_zero_signs(self.G2)}
        assert len(found) == 4

    def test_column_weight_over_key_budget_refused_before_tables(self, monkeypatch):
        # Column 0 weighs 24 * big, about 1.1 * 2^62, while any 20 of its
        # rows weigh less than 2^62: a rule applied to each half would
        # accept the matrix for some splits and not for others.  Brute
        # force builds tables; the walk checks ``_walk_bytes`` before each
        # doubling.
        big = int(1.1 * 2**62 / 24)
        roots = [[big, 1, 0]] * 12 + [[-big, 0, 1]] * 12

        def refuse(*_):
            raise AssertionError("a table was built before the bound check")

        monkeypatch.setattr(_kernels, "signed_sum_keys", refuse)
        monkeypatch.setattr(_kernels, "_walk_bytes", refuse)
        for engine in (count_bruteforce, count_mitm):
            with pytest.raises(ResourceLimitError, match="too large for exact int64"):
                engine(roots)

    def test_witness_found_unpacked(self):
        result = exists_strong_dependence(self.G2_BIG)
        assert result.exists and result.method == sigsum.METHOD_MITM
        assert not signed_sum(self.G2_BIG, result.witness).any()
        assert not signed_sum(self.G2, result.witness).any()


def _decodes_every_key(roots):
    """``key_vector`` gives back ``signs @ roots`` for every key of the full
    table of ``roots``, indexed by sign mask."""
    r = roots.shape[0]
    keys = _kernels.signed_sum_keys(_kernels.key_packing(roots)[0])
    signs = np.array([sigsum.signs_from_mask(mask, r) for mask in range(1 << r)])
    decoded = [_kernels.key_vector(roots, keys[i]) for i in range(1 << r)]
    return np.array_equal(decoded, signs @ roots)


class TestKeyLayout:
    # ``key_packing`` packs the coordinates in order into a word while its
    # capacity, the product of their radices 2*B_c + 1, stays below 2^62; a
    # coordinate alone in its word needs only B_c < 2^62.  Radices are odd,
    # so a capacity is never exactly 2^62.  Every case is counted by both
    # engines and by the sign matrix, and every key decodes.
    A = 1 << 60

    @pytest.mark.parametrize(
        "column,value",
        [([A, A, A, A - 1], 0), ([A, A, A - 1, A - 1], 8)],
        ids=["weight_2^62-1", "weight_2^62-2"],
    )
    def test_coordinate_alone_in_its_word(self, column, value):
        roots = np.array([[a, 1] for a in column] + [[0, 1], [0, 1]], dtype=np.int64)
        assert _kernels.key_packing(roots)[1] == [(0, 1), (1, 1)]
        assert count_bruteforce(roots).value == count_mitm(roots).value == value
        assert _zero_sums_by_sign_matrix(roots) == value
        assert _decodes_every_key(roots)

    def test_weight_2_to_the_62_refused(self):
        roots = [[self.A, 1]] * 4
        for engine in (count_bruteforce, count_mitm):
            with pytest.raises(ResourceLimitError, match="too large for exact int64"):
                engine(roots)

    # 2^62 - 3 = 37 * R: column 1 weighs 18 (radix 37), column 0 weighs
    # (R - 1) / 2 for a capacity of 2^62 - 3, or 2 more for one past 2^62.
    R = (2**62 - 3) // 37

    @pytest.mark.parametrize("extra,places", [(0, [(0, 1), (0, R)]), (1, [(0, 1), (1, 1)])],
                             ids=["capacity_2^62-3", "capacity_past_2^62"])
    def test_word_splits_where_its_capacity_reaches_2_to_the_62(self, extra, places):
        p, q = 1 << 54, (self.R - 1) // 4 - (1 << 54) + extra
        column0 = [p, p, q, q, 0, 0, 0, 0]
        column1 = [3, 3, 0, 0, 4, 4, 2, 2]
        roots = np.array([column0, column1], dtype=np.int64).T
        assert _kernels.key_packing(roots)[1] == places
        assert count_bruteforce(roots).value == count_mitm(roots).value == 16
        assert _zero_sums_by_sign_matrix(roots) == 16
        assert _decodes_every_key(roots)

    @pytest.mark.parametrize("name", ["B3", "G2"])
    def test_key_vector_round_trip(self, name, catalogue):
        roots = catalogue[name].roots
        stretched = _stretch_past_key_budget(roots)
        assert _words(roots) == 1 and _words(stretched) == 2
        assert _decodes_every_key(roots)
        assert _decodes_every_key(stretched)


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
        "vectors",
        [np.array([[1.9, 0]]), [[1.5]], [["3"]], [[True, 2]], [[np.bool_(True)]],
         np.array([[True]]), None, 5, [1, 2, 3], np.zeros((2, 2, 2), dtype=np.int64), [],
         [[1, 2], [3]]],
        ids=["float_array", "float", "str", "bool", "numpy_bool", "bool_array", "none",
             "scalar", "flat", "three_d", "empty", "ragged"],
    )
    def test_refuses_all_but_an_integer_matrix(self, vectors):
        # 1.9 and 1.5 would truncate to 1, "3" would parse as 3
        with pytest.raises(DimensionMismatchError):
            hnf(vectors)

    def test_empty_sparse_rows_refused(self):
        with pytest.raises(DimensionMismatchError, match="at least one vector"):
            hnf([], 3)

    def test_membership_refuses_all_but_integers(self):
        basis = hnf([(1, 0), (0, 1)])
        for vector in ([1.5, 0], [True, 0], ["1", 0], 5, None, [[1, 0]], [1, 0, 0], [1],
                       (x for x in (1, 0)), {0: 1, 1: 0}, {0, 1}, b"\x01\x00", "10",
                       np.array(1), [[1, 0], [0, 1]], [[1], [0, 1]], [np.float64(1), 0],
                       [np.bool_(True), 0], [Fraction(1), 0], [None, 0]):
            with pytest.raises(DimensionMismatchError):
                basis.contains(vector)

    @pytest.mark.parametrize(
        "multiple", [0, 1.5, 2.0, True, np.bool_(True), "2", None],
        ids=["zero", "float", "integral_float", "bool", "numpy_bool", "str", "none"],
    )
    def test_membership_refuses_all_but_a_nonzero_integer_multiple(self, multiple):
        # 0 divided by zero, 1.5 answered False and True acted as 1
        basis = hnf([(1, 0), (0, 1)])
        with pytest.raises(DimensionMismatchError):
            basis.contains([2, 0], multiple=multiple)

    def test_membership_with_negative_and_numpy_multiples(self):
        basis = hnf([(2, 0), (0, 3)])
        assert basis.contains([4, -6], multiple=-2)
        assert not basis.contains([2, 0], multiple=-2)
        assert basis.contains([2**70, 3 * 2**64], multiple=np.int64(2**62))

    def test_integers_of_any_size_accepted(self):
        basis = hnf([[2**100, np.int32(3)], [1, 0]])
        assert basis.columns == ((1, 0), (0, 3))
        assert basis.contains([2**70, np.int64(-6)], multiple=2)
        assert hnf(np.array([[2**63 + 5, 1]], dtype=np.uint64)).columns == ((2**63 + 5, 1),)

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
        system = rootsys.as_system(np.array(rows, dtype=np.int64))
        total = rootsys.row_sum(system.rows, system.ambient_dim, ((i, 1) for i in range(len(rows))))
        assert total == expected
        # The obstruction sees the exact total: 2 * -2^63 lies in 2L = 2^64 Z.
        assert obstruction_2L([[-2**63], [-2**63]]).passed
        assert not obstruction_2L([[-2**63], [2**62]]).passed

    def test_agrees_with_the_published_existence(self, catalogue, lattice_ranks):
        # certs.lower_bound shares no lattice code: on these systems the
        # obstruction passes exactly where a zero signed sum exists
        systems = list(catalogue.values()) + [_sys(f, n) for f, n in lattice_ranks]
        outcomes = set()
        for system in systems:
            passed = obstruction_2L(system).passed
            assert passed == (certs.lower_bound(system.id) > 0), str(system)
            outcomes.add(passed)
        assert outcomes == {True, False}

    def test_builds_one_basis_per_system(self, catalogue, lattice_ranks, monkeypatch):
        built = []
        monkeypatch.setattr(sigsum, "hnf", lambda *args: built.append(hnf(*args)) or built[-1])
        for system in list(catalogue.values()) + [_sys(f, n) for f, n in lattice_ranks]:
            built.clear()
            obstruction_2L(system)
            assert len(built) == 1, str(system)

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

    @pytest.mark.parametrize(
        "roots",
        [_sys("D", 5), [[1, 1], [2, 3], [3, 4]], _sys("A", 6).roots],
        ids=["certificate", "search", "search_r21"],
    )
    def test_witness_is_a_tuple_of_python_ints(self, roots):
        witness = exists_strong_dependence(roots).witness
        assert type(witness) is tuple
        assert all(type(s) is int and s in (-1, 1) for s in witness)
        assert not signed_sum(roots, witness).any()

    @pytest.mark.parametrize("route", ["certificate", "search"])
    def test_certificate_witness_must_sum_to_zero(self, route, monkeypatch):
        # Both routes' witnesses meet one exact check, with one text: the
        # certificate's on G2, the search's on G2's bare matrix.
        g2 = _sys("G", 2)
        good = certs.assembled_witness(certs.certificate(g2))
        bad = tuple(-s if i == 0 else s for i, s in enumerate(good))
        if route == "certificate":
            monkeypatch.setattr(certs, "assembled_witness", lambda cert: bad)
        else:
            monkeypatch.setattr(sigsum, "_search_witness", lambda roots: bad)
            g2 = g2.roots.copy()
        with pytest.raises(InternalCheckError,
                           match="^the witness's signed sum over the roots is not zero$"):
            exists_strong_dependence(g2)

    def test_obstruction_pass_without_certificate_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(certs, "certificate", lambda fr: None)
        with pytest.raises(InternalCheckError,
                           match="^G2: the obstruction and the certificate disagree$"):
            exists_strong_dependence(_sys("G", 2))

    def test_certificate_despite_obstruction_failure_is_an_internal_error(self, monkeypatch):
        # B3 fails the obstruction; a certificate there must be refused even
        # though the obstruction alone would already settle non-existence.
        g2_cert = certs.certificate(FamilyRank("G", 2))
        monkeypatch.setattr(certs, "certificate", lambda fr: g2_cert)
        with pytest.raises(InternalCheckError,
                           match="^B3: the obstruction and the certificate disagree$"):
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

    def test_search_negative_past_the_enumeration_limit(self):
        # sum = 118 lies in 2L = 2Z, but 100 > 16 + 2 rules out any zero
        # sum; at r = 18 the search walks its halves, which share no key.
        roots = [[1]] * 16 + [[100], [2]]
        assert obstruction_2L(roots).passed
        result = exists_strong_dependence(roots)
        assert (result.exists, result.witness, result.method) == (False, None, sigsum.METHOD_MITM)

    def test_obstruction_pass_is_not_existence(self):
        # sum = (24,0) lies in 2L, yet 16 > 1+1+2+4 rules out any zero sum.
        roots = [[1, 0], [1, 0], [2, 0], [4, 0], [16, 0]]
        assert obstruction_2L(roots).passed
        result = exists_strong_dependence(roots)
        assert not result.exists and result.method == sigsum.METHOD_MITM


def _wide(m):
    """A one-root system of ``m`` coordinates."""
    return rootsys.RootSystem((((0, 1),),), m, 1)


def _made(m):
    """The text that refuses a system of ``m`` coordinates where it is made."""
    return re.escape(f"a row sum in dimension {rootsys.shown(m)} ")


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: hnf([((0, 1),)], 2**80), "a Hermite normal form basis in dimension"),
        (lambda: hnf([((0, 1),)], 10**9), "a Hermite normal form basis in dimension"),
        (lambda: obstruction_2L(_wide(2**80)), _made(2**80)),
        (lambda: obstruction_2L(_wide(10**9)), _made(10**9)),
        (lambda: signed_sum(_wide(2**80), [1]), _made(2**80)),
        (lambda: signed_sum(_wide(10**9), [-1]), _made(10**9)),
        (lambda: exists_strong_dependence(_wide(2**40)), _made(2**40)),
        (lambda: obstruction_2L(_wide(10**5000)), _made(10**5000)),
        (lambda: invariant_dimension(_wide(2**80)), _made(2**80)),
        (lambda: certs.verify_report(_wide(10**9),
                                     certs.CertificateFamily(FamilyRank("A", 1), (((0, 1),),))),
         _made(10**9)),
        (lambda: rootsys.format_root_list(_wide(2**62)), _made(2**62)),
    ],
    ids=["hnf_2_80", "hnf_10_9", "obstruction_2_80", "obstruction_10_9", "signed_sum_2_80",
         "signed_sum_10_9", "existence_2_40", "obstruction_10_5000", "oracle_2_80",
         "verify_report_10_9", "format_root_list_2_62"],
)
def test_dense_sizes_checked_before_allocation(call, match):
    # hnf ran past 30 s under a 2 GB cap; the sums raised a bare
    # OverflowError at 2**80 and a bare MemoryError at 10**9 and 2**40,
    # and format_root_list a bare MemoryError at 2**62
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=match):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
