"""Sparse root rows and the dense view built from them.

Claims covered:
    - on every catalogue id and on seeded hostile matrices (zero columns,
      repeated and negated rows, entries near +-2^62), the HNF of the sparse
      rows equals the HNF of the dense matrix, and ``obstruction_2L`` and
      ``signed_sum`` give the same result on the sparse rows as on the dense
      matrix; the signed sum equals an exact Python-int reference, or both
      refuse a total outside int64
    - ``hnf(rows, m)`` refuses rows with no length (an int, a generator),
      an entry that is not an integer, a coordinate outside [0, m), a zero
      value, a repeated coordinate, an entry that is not a pair (a dict row
      included) and an m that is negative or not an integer, reads numpy
      integers as Python ints and a row that is a generator of pairs as
      the tuple it yields
    - ``hnf`` checks each row as it inserts it, with no copy of the rows:
      on D69 the tracemalloc peak of ``obstruction_2L`` stays at most
      0.25 MiB
    - the dense view equals the rows it is built from, and is checked
      against the memory budget before it is allocated; a hand-built row
      with an entry past int64 is refused with DimensionMismatchError
    - the existence path never builds the dense view: on D69 the tracemalloc
      peak of ``exists_strong_dependence`` stays below 8 * r * m bytes, the
      size of the dense matrix alone
    - ``positive_roots``' byte estimate bounds its tracemalloc peak for A, B,
      C and D at two ranks each
    - a bare matrix becomes an unnamed RootSystem, of that class itself,
      whose dense view, once its rows are built, is a read-only copy of
      the caller's array, left writeable, so a later write to the array
      changes neither view; it equals,
      and hashes like, the system made from its sparse rows, and its r is
      read, and refuses assignment, with no rows built; every entry point
      gives the same results on a catalogue system's roots passed bare as
      on the system, the bare input proving existence by the witness search
    - every engine compares r with its limit before the dense view is
      built: on A100 (r = 5050) each refuses and leaves no dense view
    - a bare matrix's sparse rows are built on first read: brute force,
      meet-in-the-middle and the oracle refuse a 5050 x 100 matrix without
      building them
    - readers of the id handle an unnamed system: the dense view's refusal
      names its shape and ``format_root_list`` refuses it
    - a bare matrix's sparse rows are checked against the memory budget
      before they are built: under a 1 MiB budget, ``obstruction_2L``,
      ``exists_strong_dependence`` and ``signed_sum`` refuse a 200000 x 10
      matrix, each allocating under 1 MiB and building no rows; on dense,
      all-one, sparse and wide, past-2^31 and all-zero matrices their byte
      estimate is at least the tracemalloc peak of building them and at
      most twice it
"""

import tracemalloc

import numpy as np
import pytest

from rootspin import (
    DimensionMismatchError,
    FamilyRank,
    InvalidRankError,
    ResourceLimitError,
    RootSystem,
    Scalar,
    SpinorElement,
    cartan_act,
    count_bruteforce,
    count_mitm,
    enumerate_zero_signs,
    exists_strong_dependence,
    format_root_list,
    hnf,
    invariant_dimension,
    obstruction_2L,
    positive_roots,
    signed_sum,
)
from rootspin import rootsys, sigsum
from rootspin.rootsys import CATALOGUE


def _as_system(matrix: np.ndarray) -> RootSystem:
    """A RootSystem holding the sparse rows of an arbitrary integer matrix."""
    rows = tuple(rootsys.sparse_rows(matrix.tolist()))
    return RootSystem(rows, matrix.shape[1], 1)


def _hostile(seed: int, huge: bool) -> np.ndarray:
    """Seeded matrix with a zero column, repeated and negated rows, and, when
    ``huge``, entries within a few units of +-2^62."""
    rng = np.random.default_rng(seed)
    r, m = int(rng.integers(3, 9)), int(rng.integers(2, 6))
    matrix = rng.integers(-3, 3, size=(r, m), endpoint=True).astype(object)
    if huge:
        near = rng.integers(0, 4, size=(r, m), endpoint=True)
        sign = rng.choice([-1, 1], size=(r, m))
        keep = rng.random((r, m)) < 0.5
        matrix = np.where(keep, matrix, sign * ((1 << 62) - near))
    matrix[:, rng.integers(m)] = 0
    matrix = np.vstack([matrix, matrix[:2], -matrix[1:3]])
    return np.array(matrix.tolist(), dtype=np.int64)


def _outcome(fn):
    try:
        return fn()
    except ResourceLimitError as exc:
        return ResourceLimitError, str(exc)


def _exact_sum(matrix: np.ndarray, signs: list[int]):
    total = [sum(s * row[c] for s, row in zip(signs, matrix.tolist()))
             for c in range(matrix.shape[1])]
    if all(-(1 << 63) <= x < 1 << 63 for x in total):
        return total
    return ResourceLimitError, "signed sum does not fit in int64"


def _assert_sparse_equals_dense(system: RootSystem, signs: list[int]) -> None:
    dense = system.roots
    assert hnf(system.rows, system.ambient_dim) == hnf(dense)
    assert obstruction_2L(system) == obstruction_2L(dense)
    on_rows = _outcome(lambda: signed_sum(system, signs).tolist())
    assert on_rows == _outcome(lambda: signed_sum(dense, signs).tolist())
    assert on_rows == _exact_sum(dense, signs)


class TestSparseEqualsDense:
    @pytest.mark.parametrize("fr", CATALOGUE, ids=str)
    def test_catalogue(self, fr, catalogue):
        system = catalogue[str(fr)]
        assert system.roots.shape == (system.r, system.ambient_dim)
        assert rootsys.sparse_rows(system.roots.tolist()) == list(system.rows)
        signs = np.random.default_rng(system.r).choice([-1, 1], size=system.r).tolist()
        _assert_sparse_equals_dense(system, signs)
        _assert_sparse_equals_dense(system, [1] * system.r)

    @pytest.mark.parametrize("huge", [False, True], ids=["small", "near_2^62"])
    @pytest.mark.parametrize("seed", range(6))
    def test_hostile(self, seed, huge):
        matrix = _hostile(seed, huge)
        system = _as_system(matrix)
        assert np.array_equal(system.roots, matrix)
        assert not system.roots.flags.writeable
        assert all(x for row in system.rows for _, x in row)
        signs = np.random.default_rng(seed).choice([-1, 1], size=system.r).tolist()
        _assert_sparse_equals_dense(system, signs)

    def test_hostile_matrices_are_hostile(self):
        # The zero column, the repeated and the negated rows are really
        # there, and some all-plus sum of the huge kind leaves int64.
        leaves_int64 = []
        for seed in range(6):
            for huge in (False, True):
                matrix = _hostile(seed, huge)
                r = matrix.shape[0] - 4
                assert (matrix == 0).all(axis=0).any()
                assert (matrix[r:r + 2] == matrix[:2]).all()
                assert (matrix[r + 2:] == -matrix[1:3]).all()
                assert (np.abs(matrix) >= (1 << 62) - 4).any() == huge
                total = _exact_sum(matrix, [1] * matrix.shape[0])
                leaves_int64.append(total[0] is ResourceLimitError)
        assert any(leaves_int64)


class TestSparseHNFInput:
    # ``hnf(rows, m)`` checks its rows as the dense form checks a matrix.
    @pytest.mark.parametrize(
        "rows,m",
        [
            ([((0, 1.5),)], 1),
            ([((0, True),)], 1),
            ([((0, "3"),)], 1),
            ([((0, None),)], 1),
            ([((0.0, 3),)], 1),
            ([((0, 3),)], 1.0),
            ([((0, 3),), ((5, 1),)], 2),
            ([((2, 1),)], 2),
            ([((-1, 3),)], 2),
            ([((0, 0),)], 1),
            ([((0, 1), (0, 2))], 2),
            ([((0, 1, 2),)], 2),
            ([((0,),)], 2),
            ([5], 2),
            ([(), ()], -1),
            ([(), ()], True),
            ([{0: 1}], 2),
        ],
        ids=["float", "bool", "str", "none", "float_coordinate", "float_m", "coordinate_past_m",
             "coordinate_m", "negative_coordinate", "zero_value", "repeated_coordinate", "triple", "single",
             "scalar_row", "negative_m", "bool_m", "dict_row"],
    )
    def test_refuses_all_but_integer_pairs_in_range(self, rows, m):
        # 1.5 would stay in the basis, row 5 would become a pivot of a
        # 2-dimensional lattice, and a zero value a zero pivot
        with pytest.raises(DimensionMismatchError):
            hnf(rows, m)

    @pytest.mark.parametrize(
        "rows", [lambda: 5, lambda: (((0, 1),) for _ in range(2))], ids=["int", "generator"]
    )
    def test_refuses_rows_without_a_length(self, rows):
        # ``len(vectors)`` raised a bare TypeError on both
        with pytest.raises(DimensionMismatchError):
            hnf(rows(), 2)

    def test_numpy_integers_become_python_ints(self):
        basis = hnf([((np.int64(1), np.int32(2)),), ((0, 2**80),)], np.int64(2))
        assert basis == hnf([(0, 2), (2**80, 0)])
        assert all(type(x) is int for x in (*basis.pivot_rows, *sum(basis.columns, ())))

    def test_empty_rows_span_the_zero_lattice(self):
        assert hnf([(), ()], 2) == hnf([(0, 0)])

    def test_a_row_may_be_any_iterable_of_pairs(self):
        # a generator row raised a bare TypeError from ``len(row)``
        pairs = ((0, 2), (1, 3))
        assert hnf([(pair for pair in pairs)], 2) == hnf([pairs], 2) == hnf([(2, 3)])

    def test_obstruction_checks_rows_without_copying_them(self):
        # the pre-pass that flattened every row peaked at 0.79 MiB on D69,
        # more than the 0.30 MB the rows themselves hold
        system = positive_roots(FamilyRank("D", 69))
        obstruction_2L(system)
        tracemalloc.start()
        try:
            result = obstruction_2L(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed
        assert peak <= 0.25 * 2**20, peak


class TestDenseView:
    def test_built_once_and_cached(self):
        system = positive_roots(FamilyRank("B", 3))
        assert "roots" not in vars(system)
        assert system.roots is system.roots

    def test_checked_against_the_budget_before_it_is_built(self, monkeypatch):
        system = positive_roots(FamilyRank("A", 10))  # 55 x 10: 4400 bytes
        monkeypatch.setattr(rootsys, "DEFAULT_MEMORY_BUDGET", 4399)
        with pytest.raises(ResourceLimitError, match="dense roots of A10 would need about 4400 "):
            system.roots
        assert "roots" not in vars(system)
        monkeypatch.setattr(rootsys, "DEFAULT_MEMORY_BUDGET", 4400)
        assert system.roots.shape == (55, 10)

    def test_entries_past_int64_refused(self):
        # a hand-built row of 2**63 raised a bare OverflowError in each engine
        system = RootSystem((((0, 2**63),),) * 2, 1, 1)
        for engine in (sigsum.count, count_mitm, enumerate_zero_signs, exists_strong_dependence):
            with pytest.raises(DimensionMismatchError, match="2 x 1 matrix must fit in int64"):
                engine(system)
        assert "roots" not in vars(system)

    def test_refusal_names_an_unnamed_matrix(self, monkeypatch):
        system = RootSystem(positive_roots(FamilyRank("A", 10)).rows, 10, 1)
        monkeypatch.setattr(rootsys, "DEFAULT_MEMORY_BUDGET", 4399)
        with pytest.raises(ResourceLimitError, match="of the unnamed 55 x 10 matrix would need"):
            system.roots

    @pytest.mark.parametrize(
        "engine,match",
        [
            (sigsum.count, "meet-in-the-middle needs r <= 48, got r = 5050"),
            (count_bruteforce, "brute force needs r <= 26, got r = 5050"),
            (count_mitm, "meet-in-the-middle needs r <= 48, got r = 5050"),
            (lambda s: count_mitm(s, limit_r=10**4), "a half of at most 62 roots in int64, got 2525"),
            (enumerate_zero_signs, "enumeration needs r <= 16, got r = 5050"),
            (invariant_dimension, "2\\^5050 exceeds limit 2\\^14"),
        ],
        ids=["count", "brute_force", "mitm", "mitm_half", "enumeration", "oracle"],
    )
    def test_limits_checked_before_it_is_built(self, engine, match):
        system = positive_roots(FamilyRank("A", 100))
        with pytest.raises(ResourceLimitError, match=match):
            engine(system)
        assert "roots" not in vars(system)

    def test_existence_path_never_builds_it(self):
        system = positive_roots(FamilyRank("D", 69))
        dense_bytes = 8 * system.r * system.ambient_dim
        exists_strong_dependence(system)
        tracemalloc.start()
        try:
            result = exists_strong_dependence(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exists and result.certificate is not None
        assert "roots" not in vars(system)
        assert peak < dense_bytes, (peak, dense_bytes)


class TestRowsEstimate:
    @pytest.mark.parametrize(
        "fr",
        [FamilyRank(f, n) for f, ranks in (("A", (20, 72)), ("B", (20, 69)), ("C", (20, 68)),
                                           ("D", (20, 69))) for n in ranks],
        ids=str,
    )
    def test_estimate_bounds_traced_peak(self, fr):
        positive_roots(fr)  # not counting one-time imports and caches
        tracemalloc.start()
        try:
            system = positive_roots(fr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = rootsys._rows_bytes(fr)
        assert system.r == rootsys.root_count(fr)
        assert peak <= estimate, (peak, estimate)
        # The dense lists' estimate it replaces was 16 bytes an entry.
        assert estimate < 16 * system.r * fr.rank


def _matrix(shape: str) -> np.ndarray:
    """A seeded integer matrix of the named shape."""
    rng = np.random.default_rng(len(shape))
    if shape == "dense":
        return rng.integers(-3, 3, size=(2000, 40), endpoint=True)
    if shape == "ones":
        return np.ones((3000, 10), np.int64)
    if shape == "sparse":  # coordinates past 256 are ints of their own
        keep = rng.random((300, 1000)) < 0.01
        return np.where(keep, rng.integers(1, 1000, size=(300, 1000)), 0)
    if shape == "past_2_31":  # values that are ints of their own
        keep = rng.random((200, 600)) < 0.5
        return np.where(keep, rng.integers(1 << 31, 1 << 40, size=(200, 600)), 0)
    return np.zeros((3000, 10), np.int64)


class TestUnnamedSystems:
    def test_bare_matrix_becomes_an_unnamed_system(self):
        g2 = positive_roots(FamilyRank("G", 2))
        assert rootsys.as_system(g2) is g2
        matrix = g2.roots.copy()
        unnamed = rootsys.as_system(matrix)
        assert type(unnamed) is RootSystem
        assert unnamed.r == 6 and "rows" not in vars(unnamed)
        with pytest.raises(AttributeError):
            unnamed.r = 7
        # a second class for matrices made this False for the same rows
        hand_built = RootSystem(rootsys.sparse_rows(matrix.tolist()), 2, 1)
        assert unnamed == hand_built and hash(unnamed) == hash(hand_built)
        assert (unnamed.id, unnamed.rows, unnamed.denominator) == (None, g2.rows, 1)
        assert not np.shares_memory(unnamed.roots, matrix) and matrix.flags.writeable
        assert not unnamed.roots.flags.writeable
        assert str(unnamed) == "the unnamed 6 x 2 matrix"
        with pytest.raises(InvalidRankError, match="the unnamed 6 x 2 matrix has no family"):
            format_root_list(unnamed)

    def test_views_agree_after_the_caller_writes_the_matrix(self):
        matrix = np.array([[1, 0], [0, 1], [1, 1]])
        system = rootsys.as_system(matrix)
        assert obstruction_2L(system).passed and count_mitm(system).value == 2
        matrix[2] = [2, 2]
        # both views keep the matrix the rows were built from
        assert obstruction_2L(system).passed and count_mitm(system).value == 2
        assert not obstruction_2L(matrix).passed and count_mitm(matrix).value == 0

    @pytest.mark.parametrize(
        "engine,match",
        [
            (count_bruteforce, "brute force needs r <= 26, got r = 5050"),
            (count_mitm, "meet-in-the-middle needs r <= 48, got r = 5050"),
            (invariant_dimension, "2\\^5050 exceeds limit 2\\^14"),
        ],
        ids=["brute_force", "mitm", "oracle"],
    )
    def test_limits_checked_before_rows_are_built(self, engine, match, monkeypatch):
        matrix = np.random.default_rng(5050).integers(-3, 3, size=(5050, 100), endpoint=True)
        system = rootsys.as_system(matrix)
        with pytest.raises(ResourceLimitError, match=match):
            engine(system)
        assert "rows" not in vars(system)

        def no_rows(matrix):
            raise AssertionError("sparse rows built")

        monkeypatch.setattr(rootsys, "sparse_rows", no_rows)
        with pytest.raises(ResourceLimitError, match=match):
            engine(matrix)

    @pytest.mark.parametrize("engine", ["obstruction", "existence", "signed_sum"])
    def test_rows_checked_against_the_budget_before_they_are_built(self, engine, monkeypatch):
        # the rows were built with no check: a 158.7 MiB peak under a 1 MiB budget
        system = rootsys.as_system(np.ones((200_000, 10), np.int64))
        signs = np.ones(system.r, np.int64)
        call = {"obstruction": obstruction_2L, "existence": exists_strong_dependence,
                "signed_sum": lambda s: signed_sum(s, signs)}[engine]
        monkeypatch.setattr(rootsys, "DEFAULT_MEMORY_BUDGET", 1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="sparse rows of the unnamed 200000 x 10"):
                call(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "rows" not in vars(system)
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("shape", ["dense", "ones", "sparse", "past_2_31", "zero"])
    def test_rows_estimate_bounds_traced_peak(self, shape, monkeypatch):
        matrix = _matrix(shape)
        rootsys.as_system(matrix[:2]).rows  # not counting one-time caches
        system = rootsys.as_system(matrix)
        tracemalloc.start()
        try:
            rows = system.rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == tuple(rootsys.sparse_rows(matrix.tolist()))
        # refused under its peak, so the estimate is at least the peak
        monkeypatch.setattr(rootsys, "DEFAULT_MEMORY_BUDGET", peak - 1)
        with pytest.raises(ResourceLimitError, match="the sparse rows of the unnamed"):
            rootsys.as_system(matrix).rows
        # built under twice its peak, so the estimate is at most that
        monkeypatch.setattr(rootsys, "DEFAULT_MEMORY_BUDGET", 2 * peak)
        assert rootsys.as_system(matrix).rows == rows

    @pytest.mark.parametrize("name", ["A2", "B3", "C3", "G2", "A4", "D4", "D5"])
    def test_engines_agree_on_bare_roots(self, name, catalogue):
        system = catalogue[name]
        matrix = system.roots.copy()
        r = system.r
        signs = np.random.default_rng(r).choice([-1, 1], size=r).tolist()
        direction = list(range(1, system.ambient_dim + 1))
        eta = SpinorElement(r, {0: Scalar.of(1), 5: Scalar(b=2)})
        engines = [
            lambda s: sigsum.count(s).value,
            lambda s: count_mitm(s).value,
            lambda s: signed_sum(s, signs).tolist(),
            obstruction_2L,
            lambda s: cartan_act(s, direction, eta),
        ]
        if r <= sigsum.DEFAULT_BRUTE_LIMIT:
            engines.append(lambda s: count_bruteforce(s).value)
        if r <= sigsum.ENUMERATION_LIMIT:
            engines.append(lambda s: [list(v) for v in enumerate_zero_signs(s)])
        if r <= 14:
            engines.append(invariant_dimension)
        for engine in engines:
            assert engine(matrix) == engine(system)
        named, bare = exists_strong_dependence(system), exists_strong_dependence(matrix)
        assert (bare.exists, bare.obstruction, bare.certificate) == (
            named.exists, named.obstruction, None)
        if bare.exists:
            assert bare.method == sigsum.METHOD_MITM
            assert not signed_sum(matrix, bare.witness).any()
        assert matrix.flags.writeable and np.array_equal(matrix, system.roots)
