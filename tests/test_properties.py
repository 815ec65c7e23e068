"""Randomised invariants of the counting engines and the oracle.

Each property runs 100 randomised trials (hypothesis), on small integer
root matrices where exhaustive counting is cheap:

    - exact counts are even, and the two engines always agree (dual route),
      also with r up to 20 and entries up to 1e6, where nothing prunes, on
      one-word keys and on the keys of a stretch past one word
    - counts are invariant under negating a root, permuting the list,
      and applying a fixed unimodular transform
    - a failed obstruction forces a zero count (soundness)
    - existence always comes with a verifying witness, and agrees with
      the positivity of the exact count, also for r = 17..36, where the
      witness search recurses on the walked halves (one word and more)
    - with zero roots and roots beside their negations put in (r up to 21),
      brute force equals meet-in-the-middle and the witness verifies, on
      one word and more
    - the solution set is closed under global sign flip
    - the torus action stays diagonal with purely imaginary eigenvalues
    - the oracle's tagged blocks count what brute force counts, on one
      partial block, one full block and several blocks (r up to 10)
    - the HNF is the unique reduced basis of the lattice: unchanged under a
      row permutation, under appending an integer combination of the rows
      and when recomputed from its own basis (entries past 2^63 included)
    - under the project's warning filters, a failing property fails its own
      test and the session goes on (no INTERNALERROR)
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from rootspin import (
    count_bruteforce,
    count_mitm,
    enumerate_zero_signs,
    exists_strong_dependence,
    hnf,
    invariant_dimension,
    obstruction_2L,
    signed_sum,
)
from rootspin.spinor import SpinorElement, cartan_act
from test_sigsum import _stretch_past_key_budget

_coord = st.integers(min_value=-3, max_value=3)


@st.composite
def root_matrices(draw, max_r=8, max_m=3, coord=_coord, min_r=1):
    m = draw(st.integers(1, max_m))
    r = draw(st.integers(min_r, max_r))
    rows = draw(
        st.lists(
            st.lists(coord, min_size=m, max_size=m).filter(any),
            min_size=r,
            max_size=r,
        )
    )
    return np.array(rows, dtype=np.int64)


# Fixed unimodular transforms per dimension (determinant +-1).
_UNIMODULAR = {
    1: np.array([[-1]]),
    2: np.array([[1, 1], [0, 1]]),
    3: np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
}

common = settings(max_examples=100, deadline=None)


@common
@given(root_matrices())
def test_engines_agree_and_count_is_even(roots):
    brute = count_bruteforce(roots).value
    assert brute == count_mitm(roots).value
    assert brute % 2 == 0


@common
@given(root_matrices(max_r=20, max_m=4, coord=st.integers(-10**6, 10**6)))
def test_engines_agree_where_nothing_prunes(roots):
    # Entries up to 1e6: partial sums are nearly all distinct, so the walk
    # neither prunes nor merges much; the stretch forces a second word.
    brute = count_bruteforce(roots).value
    assert count_mitm(roots).value == brute
    stretched = _stretch_past_key_budget(roots)
    assert count_mitm(stretched).value == count_bruteforce(stretched).value == brute


@common
@given(root_matrices(), st.data())
def test_negating_one_root_preserves_count(roots, data):
    k = data.draw(st.integers(0, roots.shape[0] - 1))
    flipped = roots.copy()
    flipped[k] = -flipped[k]
    assert count_bruteforce(roots).value == count_bruteforce(flipped).value


@common
@given(root_matrices(), st.randoms(use_true_random=False))
def test_permuting_roots_preserves_count(roots, rng):
    order = list(range(roots.shape[0]))
    rng.shuffle(order)
    assert count_bruteforce(roots).value == count_bruteforce(roots[order]).value


@common
@given(root_matrices())
def test_unimodular_transform_preserves_count(roots):
    transformed = roots @ _UNIMODULAR[roots.shape[1]].T
    assert count_bruteforce(roots).value == count_bruteforce(transformed).value


@common
@given(root_matrices())
def test_obstruction_soundness(roots):
    if not obstruction_2L(roots).passed:
        assert count_bruteforce(roots).value == 0


@common
@given(root_matrices())
def test_existence_agrees_with_count_and_witness_verifies(roots):
    result = exists_strong_dependence(roots)
    assert result.exists == (count_bruteforce(roots).value > 0)
    if result.exists:
        assert not signed_sum(roots, result.witness).any()


@common
@given(root_matrices(min_r=17, max_r=36))
def test_witness_search_past_enumeration_agrees_with_count(roots):
    # Past r = 16 the search walks its halves and recurses on each half
    # with one extra root; on one word and on the words of a stretch.
    assume(roots[:, 0].any())
    for matrix in (roots, _stretch_past_key_budget(roots)):
        result = exists_strong_dependence(matrix)
        assert result.exists == (count_mitm(matrix).value > 0)
        if result.exists:
            assert not signed_sum(matrix, result.witness).any()


@st.composite
def matrices_with_zero_pairs(draw):
    """Root matrices with zero roots and roots beside their negations: in the
    walk's one-state-per-pair tables the zero sum is its own pair, a zero
    root doubles every count and a root then its negation lands on zero."""
    rows = draw(root_matrices(max_r=9)).tolist()
    m = len(rows[0])
    beside = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    rows = [r for row, b in zip(rows, beside) for r in ([row, [-x for x in row]] if b else [row])]
    for at in draw(st.lists(st.integers(0, len(rows)), max_size=3)):
        rows.insert(at, [0] * m)
    return np.array(rows, dtype=np.int64)


@common
@given(matrices_with_zero_pairs())
@example(np.array([[1, 0], [0, 0], [-1, 0], [1, 1], [0, 0], [1, 1]]))
@example(np.array([[1]] * 8 + [[0]] * 3 + [[-1]] * 8))
def test_engines_and_witness_agree_with_zero_pairs(roots):
    assume(roots[:, 0].any())
    for matrix in (roots, _stretch_past_key_budget(roots)):
        brute = count_bruteforce(matrix).value
        assert count_mitm(matrix).value == brute
        result = exists_strong_dependence(matrix)
        assert result.exists == (brute > 0)
        if result.exists:
            assert not signed_sum(matrix, result.witness).any()


@common
@given(root_matrices(max_r=6))
def test_solution_set_closed_under_global_flip(roots):
    solutions = {tuple(s) for s in enumerate_zero_signs(roots)}
    assert solutions == {tuple(-np.array(s)) for s in solutions}


@common
@given(root_matrices())
def test_generators_lie_in_own_hnf_lattice(roots):
    basis = hnf(roots)
    for row in roots.tolist():
        assert basis.contains(row)
    assert basis.contains(roots.sum(axis=0))


@st.composite
def lattice_generators(draw):
    """Up to 8 vectors of length up to 6, entries in +-50, zero rows allowed;
    half the time a list whose entries are shifted past 2^63."""
    m = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-50, 50), min_size=m, max_size=m),
                         min_size=1, max_size=8))
    if draw(st.booleans()):
        shift = draw(st.integers(58, 72))
        return [[x << shift for x in row] for row in rows]
    return np.array(rows, dtype=np.int64)


def assert_reduced_hnf(basis):
    assert list(basis.pivot_rows) == sorted(set(basis.pivot_rows))
    for j, (col, row) in enumerate(zip(basis.columns, basis.pivot_rows)):
        pivot = col[row]
        assert pivot > 0
        assert all(col[i] == 0 for i in range(row))
        for left in basis.columns[:j]:
            assert 0 <= left[row] < pivot


@common
@given(lattice_generators(), st.randoms(use_true_random=False))
def test_hnf_unique_under_row_permutation(vectors, rng):
    basis = hnf(vectors)
    assert_reduced_hnf(basis)
    order = list(range(len(vectors)))
    rng.shuffle(order)
    assert hnf([vectors[i] for i in order]) == basis


@common
@given(lattice_generators(), st.data())
def test_hnf_unique_when_a_combination_is_appended(vectors, data):
    rows = [[int(x) for x in v] for v in vectors]
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    combination = [sum(c * v[k] for c, v in zip(coeffs, rows)) for k in range(len(rows[0]))]
    assert hnf(rows + [combination]) == hnf(vectors)


@common
@given(lattice_generators())
def test_hnf_of_its_own_basis_is_itself(vectors):
    basis = hnf(vectors)
    if basis.columns:
        assert hnf(basis.columns) == basis
    else:
        assert not any(any(v) for v in vectors)


@common
@given(
    root_matrices(max_r=5, max_m=3),
    st.integers(0, (1 << 5) - 1),
    st.lists(st.fractions(max_denominator=6), min_size=3, max_size=3),
)
def test_cartan_action_diagonal_purely_imaginary(roots, mask_seed, xs):
    r, m = roots.shape
    mask = mask_seed & ((1 << r) - 1)
    out = cartan_act(roots, [Fraction(x) for x in xs[:m]], SpinorElement.monomial(r, mask))
    assert set(out.terms) <= {mask}
    for coeff in out.terms.values():
        assert coeff.a == 0 and coeff.c == 0 and coeff.d == 0


@common
@given(root_matrices(max_r=10))
@example(np.array([[1, 0], [0, 1], [-1, -1], [1, -1], [1, 2], [2, 1]]))
@example(np.array([[1, -1, 0], [0, 1, -1], [1, 0, -1], [2, 1, 1], [1, 2, 1],
                   [1, 1, 2], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]))
def test_oracle_blocks_match_brute_force(roots):
    assert invariant_dimension(roots) == count_bruteforce(roots).value


_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_runs_after_the_failure():
    pass
"""


def test_failing_property_fails_one_test(tmp_path):
    # Run under this project's pytest configuration (its filterwarnings).
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    (tmp_path / "test_failing.py").write_text(_FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider",
         "-q", str(tmp_path / "test_failing.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
