"""Sparse root rows and the dense view built from them.

Claims covered:
    - on every catalogue id and on seeded hostile matrices (zero columns,
      repeated and negated rows, entries near +-2^62), the HNF of the sparse
      rows equals the HNF of the dense matrix, and ``obstruction_2L`` and
      ``signed_sum`` give the same result on the sparse rows as on the dense
      matrix; the signed sum equals an exact Python-int reference, or both
      refuse a total outside int64
    - the dense view equals the rows it is built from, and is checked
      against the memory budget before it is allocated
    - the existence path never builds the dense view: on D69 the tracemalloc
      peak of ``exists_strong_dependence`` stays below 8 * r * m bytes, the
      size of the dense matrix alone
    - ``positive_roots``' byte estimate bounds its tracemalloc peak for A, B,
      C and D at two ranks each
"""

import tracemalloc

import numpy as np
import pytest

from rootspin import (
    FamilyRank,
    ResourceLimitError,
    RootSystem,
    exists_strong_dependence,
    hnf,
    obstruction_2L,
    positive_roots,
    signed_sum,
)
from rootspin import rootsys, sigsum
from rootspin.rootsys import CATALOGUE


def _as_system(matrix: np.ndarray) -> RootSystem:
    """A RootSystem holding the sparse rows of an arbitrary integer matrix."""
    rows = tuple(rootsys.sparse_rows(matrix.tolist()))
    return RootSystem(FamilyRank("A", 1), rows, matrix.shape[1], 1)


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


class TestDenseView:
    def test_built_once_and_cached(self):
        system = positive_roots(FamilyRank("B", 3))
        assert "roots" not in vars(system)
        assert system.roots is system.roots

    def test_checked_against_the_budget_before_it_is_built(self, monkeypatch):
        system = positive_roots(FamilyRank("A", 10))  # 55 x 10: 4400 bytes
        monkeypatch.setattr(sigsum, "DEFAULT_MEMORY_BUDGET", 4399)
        with pytest.raises(ResourceLimitError, match="dense roots of A10 would need about 4400 "):
            system.roots
        assert "roots" not in vars(system)
        monkeypatch.setattr(sigsum, "DEFAULT_MEMORY_BUDGET", 4400)
        assert system.roots.shape == (55, 10)

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
