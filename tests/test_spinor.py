"""Exterior-algebra oracle.

Claims covered:
    - Scalar implements Q[i, sqrt(2)] exactly (i^2 = -1, sqrt(2)^2 = 2,
      and the dedicated fast transforms agree with generic multiplication)
    - generator actions reproduce the hand-checked contractions/wedges,
      Koszul signs included; a generator index that is not an integer (a
      bool included) is refused, and a numpy integer acts as its int
    - paired real generators act by +-i depending on membership, and the
      full Clifford anticommutation relations hold on all monomials (r <= 5)
    - the torus action is diagonal with purely imaginary eigenvalues
    - joint-kernel dimensions equal the combinatorial counts (the central
      cross-validation) and are closed under monomial complement
    - Scalar arithmetic agrees with a reference on 4-tuples of Fractions,
      and equal values built by different routes compare and hash equal
    - each of the oracle's three self-checks (sqrt(2) parts cancel, the
      paired action is diagonal, its eigenvalue is +-i) fires when the
      action is broken, in the library and as exit 1 of `oracle`
    - the oracle builds no Fraction; torus directions take only ints and
      Fractions, and masks outside 0..2^rank - 1 are refused
    - the one-pass act_e equals (act_x +- act_y) scaled by 1/sqrt(2) or
      i/sqrt(2) on random multi-term elements, partner masks and
      cancelled terms included
    - the tagged blocks of invariant_dimension give every monomial the
      eigen signs it has alone, one _rotation_term per generator and block;
      a moved tag is caught as "not diagonal"; the zero test is exact past
      int64; and the D4 run stays under 1 MiB traced
"""

import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from rootspin import (
    DimensionMismatchError,
    FamilyRank,
    IndexOutOfRangeError,
    InternalCheckError,
    ResourceLimitError,
    count_bruteforce,
    invariant_dimension,
    positive_roots,
)
from rootspin import spinor
from rootspin.cli import main
from rootspin.spinor import (
    I_SQRT2,
    ONE,
    ZERO,
    Scalar,
    SpinorElement,
    act_e,
    act_x,
    act_y,
    cartan_act,
)


def mono(rank, *indices):
    mask = 0
    for i in indices:
        mask |= 1 << i
    return SpinorElement.monomial(rank, mask)


class TestScalar:
    def test_ring_relations(self):
        i = Scalar(0, 1, 0, 0)
        rt2 = Scalar(0, 0, 1, 0)
        assert i * i == Scalar.of(-1)
        assert rt2 * rt2 == Scalar.of(2)
        assert i * rt2 == Scalar(0, 0, 0, 1)
        assert I_SQRT2 * I_SQRT2 == Scalar.of(-2)

    def test_fast_transforms_match_generic_product(self):
        samples = [
            Scalar(Fraction(1, 2), -2, Fraction(3, 4), 5),
            Scalar(0, 1, 1, 0),
            Scalar(-1, 0, 0, Fraction(-7, 3)),
        ]
        inv_rt2 = Scalar(0, 0, Fraction(1, 2), 0)
        i_inv_rt2 = Scalar(0, 0, 0, Fraction(1, 2))
        for s in samples:
            assert s.times_i_sqrt2() == s * I_SQRT2
            assert s.times_i_sqrt2(-1) == -(s * I_SQRT2)
            assert s.times_inv_sqrt2() == s * inv_rt2
            assert s.times_i_inv_sqrt2() == s * i_inv_rt2
            assert s.times_rational(Fraction(3, 7)) == s * Scalar.of(Fraction(3, 7))

    def test_zero_detection(self):
        assert Scalar().is_zero
        assert not Scalar(0, 0, 1, 0).is_zero
        assert Scalar(1, 2, 0, 0).in_gaussian_part
        assert not Scalar(0, 0, 0, 1).in_gaussian_part


class TestGeneratorActions:
    def test_contract_single_factor(self):
        assert act_x(0, mono(3, 0)) == SpinorElement.monomial(3, 0, I_SQRT2)

    def test_contract_with_koszul_sign(self):
        # passing one factor flips the sign: -i*sqrt(2) * y_0
        result = act_x(1, mono(3, 0, 1))
        assert result == SpinorElement.monomial(3, 0b001, Scalar(0, 0, 0, -1))

    def test_contract_absent_index(self):
        assert act_x(2, mono(3, 0, 1)).is_zero

    def test_wedge_unit(self):
        assert act_y(0, SpinorElement.unit(3)) == SpinorElement.monomial(3, 1, I_SQRT2)

    def test_wedge_square_is_zero(self):
        assert act_y(0, mono(3, 0)).is_zero

    def test_wedge_reorders_with_sign(self):
        result = act_y(1, mono(3, 0))
        assert result == SpinorElement.monomial(3, 0b011, Scalar(0, 0, 0, -1))

    def test_index_validation(self):
        with pytest.raises(IndexOutOfRangeError):
            act_x(3, mono(3, 0))
        with pytest.raises(IndexOutOfRangeError):
            act_e(0, 3, mono(3, 0))

    @pytest.mark.parametrize("j", [True, False, 0.0, 1.5, "0", None], ids=repr)
    @pytest.mark.parametrize("act", [act_x, act_y, lambda j, eta: act_e(j, 1, eta)],
                             ids=["act_x", "act_y", "act_e"])
    def test_index_that_is_not_an_integer_refused(self, act, j):
        # True acted as generator 1; 0.0 and 1.5 raised a bare TypeError
        with pytest.raises(IndexOutOfRangeError, match="is not an integer"):
            act(j, mono(3, 0))

    @pytest.mark.parametrize("act", [act_x, act_y, lambda j, eta: act_e(j, 1, eta)],
                             ids=["act_x", "act_y", "act_e"])
    def test_numpy_index_acts_as_its_int(self, act):
        # np.int64 masks reached the terms
        eta = mono(3, 0) + mono(3, 1)
        result = act(np.int64(1), eta)
        assert result == act(1, eta)
        assert all(type(mask) is int for mask in result.terms)

    def test_linearity(self):
        eta = mono(4, 0, 2) + mono(4, 1).scaled(Scalar.of(Fraction(2, 3)))
        split = act_y(3, mono(4, 0, 2)) + act_y(3, mono(4, 1).scaled(Scalar.of(Fraction(2, 3))))
        assert act_y(3, eta) == split


class TestPairedAction:
    @pytest.mark.parametrize("mask", range(8))
    @pytest.mark.parametrize("j", range(3))
    def test_eigenvalue_is_plus_minus_i(self, mask, j):
        term = act_e(j, 1, act_e(j, 2, SpinorElement.monomial(3, mask)))
        assert list(term.terms) == [mask]
        coeff = term.terms[mask]
        expected_b = -1 if (mask >> j) & 1 else 1
        assert (coeff.a, coeff.b, coeff.c, coeff.d) == (0, expected_b, 0, 0)

    def test_generator_squares_to_minus_one(self):
        for mask, j, axis in product(range(8), range(3), (1, 2)):
            eta = SpinorElement.monomial(3, mask)
            assert act_e(j, axis, act_e(j, axis, eta)) == eta.scaled(Scalar.of(-1))

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_anticommutation_relations(self, r):
        gens = [(j, axis) for j in range(r) for axis in (1, 2)]
        for mask in range(1 << r):
            eta = SpinorElement.monomial(r, mask)
            for (j, a), (k, b) in product(gens, gens):
                anti = act_e(j, a, act_e(k, b, eta)) + act_e(k, b, act_e(j, a, eta))
                if (j, a) == (k, b):
                    assert anti == eta.scaled(Scalar.of(-2)), (mask, j, a)
                else:
                    assert anti.is_zero, (mask, j, a, k, b)


class TestCartanAction:
    def test_g2_on_unit(self):
        g2 = positive_roots(FamilyRank("G", 2))
        result = cartan_act(g2, [1, 0], SpinorElement.unit(6))
        # (i/2) * (sum of first coordinates) = (i/2) * 4 = 2i
        assert result == SpinorElement.monomial(6, 0, Scalar(0, 2, 0, 0))

    def test_zero_direction(self):
        g2 = positive_roots(FamilyRank("G", 2))
        assert cartan_act(g2, [0, 0], mono(6, 1, 3)).is_zero

    def test_a2_balanced_monomial_is_annihilated(self):
        # y_{1}: the middle root equals the sum of the other two.
        a2 = positive_roots(FamilyRank("A", 2))
        for X in ([1, 0], [0, 1], [Fraction(2, 3), Fraction(-1, 5)]):
            assert cartan_act(a2, X, mono(3, 1)).is_zero

    def test_diagonal_with_purely_imaginary_eigenvalue(self):
        c3 = positive_roots(FamilyRank("C", 3))
        for mask in (0, 0b101, 0b111111000, 0b100000001):
            eta = SpinorElement.monomial(9, mask)
            out = cartan_act(c3, [Fraction(1, 2), -2, Fraction(7, 3)], eta)
            assert set(out.terms) <= {mask}
            for coeff in out.terms.values():
                assert coeff.a == 0 and coeff.c == 0 and coeff.d == 0

    def test_dimension_mismatch(self):
        g2 = positive_roots(FamilyRank("G", 2))
        with pytest.raises(DimensionMismatchError):
            cartan_act(g2, [1, 0, 0], SpinorElement.unit(6))
        with pytest.raises(DimensionMismatchError):
            cartan_act(g2, [1, 0], SpinorElement.unit(5))


class TestInvariantDimension:
    @pytest.mark.parametrize(
        "family,rank,expected", [("G", 2, 4), ("A", 1, 0), ("B", 2, 0)]
    )
    def test_known_dimensions(self, family, rank, expected):
        assert invariant_dimension(positive_roots(FamilyRank(family, rank))) == expected

    @pytest.mark.parametrize("name", ["A2", "A3", "B3", "C3", "D4"])
    def test_matches_combinatorial_count(self, name, catalogue):
        system = catalogue[name]
        assert invariant_dimension(system) == count_bruteforce(system).value

    def test_complement_symmetry(self):
        a2 = positive_roots(FamilyRank("A", 2))
        annihilated = set()
        for mask in range(8):
            eta = SpinorElement.monomial(3, mask)
            if all(cartan_act(a2, X, eta).is_zero for X in ([1, 0], [0, 1])):
                annihilated.add(mask)
        assert annihilated == {mask ^ 0b111 for mask in annihilated}
        assert len(annihilated) == 2

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            invariant_dimension(positive_roots(FamilyRank("E", 6)))
        with pytest.raises(ResourceLimitError):
            invariant_dimension(positive_roots(FamilyRank("A", 5)), limit_r=14)


# Reference arithmetic on 4-tuples of Fractions (a, b, c, d), meaning
# a + b*i + c*sqrt(2) + d*i*sqrt(2).


def ref_mul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 - b1 * b2 + 2 * c1 * c2 - 2 * d1 * d2,
        a1 * b2 + b1 * a2 + 2 * c1 * d2 + 2 * d1 * c2,
        a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def parts(s):
    return (s.a, s.b, s.c, s.d)


_rationals = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.builds(lambda n, k: Fraction(n, 2**k), st.integers(-1000, 1000), st.integers(0, 12)),
    st.integers(-(10**30), 10**30).map(Fraction),
)
_tuples = st.tuples(_rationals, _rationals, _rationals, _rationals)


class TestScalarReference:
    @settings(max_examples=200, deadline=None)
    @given(_tuples, _tuples)
    def test_ring_operations(self, x, y):
        sx, sy = Scalar(*x), Scalar(*y)
        assert parts(sx) == x
        cases = [
            (sx + sy, tuple(u + v for u, v in zip(x, y))),
            (sx - sy, tuple(u - v for u, v in zip(x, y))),
            (-sx, tuple(-u for u in x)),
            (sx * sy, ref_mul(x, y)),
        ]
        for got, want in cases:
            assert parts(got) == want
            # built by another route, the same value is the same Scalar
            assert got == Scalar(*want) and hash(got) == hash(Scalar(*want))

    @settings(max_examples=200, deadline=None)
    @given(_tuples, _rationals)
    def test_transforms(self, x, q):
        s = Scalar(*x)
        half = Fraction(1, 2)
        cases = [
            (s.times_i_sqrt2(), ref_mul(x, (0, 0, 0, 1))),
            (s.times_i_sqrt2(-1), ref_mul(x, (0, 0, 0, -1))),
            (s.times_inv_sqrt2(), ref_mul(x, (0, 0, half, 0))),
            (s.times_i_inv_sqrt2(), ref_mul(x, (0, 0, 0, half))),
            (s.times_rational(q), tuple(u * q for u in x)),
            (s.times_rational(int(q.numerator)), tuple(u * q.numerator for u in x)),
        ]
        for got, want in cases:
            assert parts(got) == want
            assert got == Scalar(*want) and hash(got) == hash(Scalar(*want))

    @settings(max_examples=100, deadline=None)
    @given(_tuples)
    def test_equal_values_by_different_routes(self, x):
        s = Scalar(*x)
        routes = [
            (s.times_inv_sqrt2().times_inv_sqrt2(), s.times_rational(Fraction(1, 2))),
            (s.times_i_sqrt2().times_i_sqrt2(), s.times_rational(-2)),
            (s.times_i_inv_sqrt2().times_i_sqrt2(), -s),
            (s + s, s * Scalar.of(2)),
            (s * ONE, s),
            (s - s, ZERO),
        ]
        for u, v in routes:
            assert u == v and hash(u) == hash(v)
        assert (s - s).is_zero
        assert len({s, s * ONE, s + ZERO}) == 1

    def test_half_by_two_routes(self):
        halved = Scalar.of(1).times_inv_sqrt2().times_inv_sqrt2()
        assert halved == Scalar(Fraction(1, 2))
        assert hash(halved) == hash(Scalar(Fraction(1, 2)))
        assert {halved: 1}[Scalar.of(Fraction(2, 4))] == 1


class TestSelfChecks:
    """Each check of the oracle fires when the algebra is broken on G2."""

    @pytest.fixture
    def g2(self):
        return positive_roots(FamilyRank("G", 2))

    def _fails(self, g2, match):
        with pytest.raises(InternalCheckError, match=match):
            invariant_dimension(g2)
        result = CliRunner().invoke(main, ["oracle", "G", "2"])
        assert result.exit_code == 1
        assert "internal error:" in result.stderr

    def test_uncancelled_sqrt2(self, g2, monkeypatch):
        # e_1 loses its 1/sqrt(2): the paired action keeps a factor sqrt(2)
        monkeypatch.setattr(Scalar, "times_inv_sqrt2", lambda self: self)
        self._fails(g2, r"sqrt\(2\) components failed to cancel")

    def test_non_diagonal(self, g2, monkeypatch):
        # e^{(j+1)}_1 e^{(j)}_2 moves the monomial to another one
        real = spinor.act_e
        monkeypatch.setattr(
            spinor, "act_e",
            lambda j, axis, eta: real((j + 1) % eta.rank if axis == 1 else j, axis, eta),
        )
        self._fails(g2, "not diagonal")

    def test_eigenvalue_not_plus_minus_i(self, g2, monkeypatch):
        # e_2 loses its factor i: the paired action has eigenvalue +-1
        monkeypatch.setattr(Scalar, "times_i_inv_sqrt2", Scalar.times_inv_sqrt2)
        self._fails(g2, r"is not \+-i")

    def test_moved_tag(self, g2, monkeypatch):
        # e^{(j)}_1 also toggles tag bit j + r: every low half still equals
        # its tag, but the term now sits under another monomial's tag
        real = spinor.act_e

        def moved(j, axis, eta):
            out = real(j, axis, eta)
            if axis == 2:
                return out
            tag = 1 << (j + eta.rank // 2)
            return SpinorElement(eta.rank, {m ^ tag: s for m, s in out.terms.items()})

        monkeypatch.setattr(spinor, "act_e", moved)
        self._fails(g2, "not diagonal")


def test_oracle_builds_no_fraction(monkeypatch, catalogue):
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(spinor, "Fraction", CountingFraction)
    assert Scalar.of(3).a == 3 and built  # the spy sees the module's Fractions
    built.clear()
    assert invariant_dimension(catalogue["D4"]) == 64
    assert built == []


class TestInputChecks:
    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), "x", None, True, 0.5, np.float64(1.0), np.bool_(True), 1j],
        ids=["nan", "inf", "str", "none", "bool", "float", "np_float", "np_bool", "complex"],
    )
    def test_cartan_direction_refuses_non_rationals(self, bad):
        g2 = positive_roots(FamilyRank("G", 2))
        with pytest.raises(DimensionMismatchError):
            cartan_act(g2, [1, bad], SpinorElement.unit(6))
        with pytest.raises(DimensionMismatchError):
            cartan_act(g2, [bad, 0], SpinorElement.unit(6))

    def test_cartan_direction_must_be_a_sequence(self):
        g2 = positive_roots(FamilyRank("G", 2))
        with pytest.raises(DimensionMismatchError):
            cartan_act(g2, None, SpinorElement.unit(6))

    def test_cartan_direction_accepts_ints_and_fractions(self):
        g2 = positive_roots(FamilyRank("G", 2))
        eta = mono(6, 1, 4)
        want = cartan_act(g2, [Fraction(3), Fraction(-2)], eta)
        assert not want.is_zero
        assert cartan_act(g2, [3, -2], eta) == want
        assert cartan_act(g2, np.array([3, -2], dtype=np.int64), eta) == want
        assert cartan_act(g2, [np.int32(3), Fraction(-4, 2)], eta) == want

    @pytest.mark.parametrize("mask", [128, 64, -1, True, "3", 1.0])
    def test_masks_outside_range_refused(self, mask):
        with pytest.raises(IndexOutOfRangeError):
            SpinorElement.monomial(6, mask)
        with pytest.raises(IndexOutOfRangeError):
            SpinorElement(6, {0: ONE, mask: ONE})

    def test_masks_inside_range_accepted(self):
        assert list(SpinorElement.monomial(6, 63).terms) == [63]
        assert list(SpinorElement.monomial(6, np.int64(5)).terms) == [5]
        assert list(SpinorElement.unit(0).terms) == [0]
        with pytest.raises(IndexOutOfRangeError):
            SpinorElement.monomial(0, 1)
        with pytest.raises(DimensionMismatchError):
            SpinorElement(-1)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def act_e_cases(draw):
    """(j, axis, eta): up to 8 terms of rank <= 5, often with the partner
    m ^ 2^j of each mask, and sometimes with terms cancelled by a sum."""
    r = draw(st.integers(1, 5))
    j = draw(st.integers(0, r - 1))
    masks = set(draw(st.lists(st.integers(0, (1 << r) - 1), max_size=8)))
    if draw(st.booleans()):
        masks |= {m ^ (1 << j) for m in masks}
    coeffs = st.tuples(_small, _small, _small, _small).map(lambda c: Scalar(*c))
    eta = SpinorElement(r, {m: draw(coeffs) for m in sorted(masks)})
    if draw(st.booleans()):
        gone = draw(st.sets(st.sampled_from(sorted(masks)))) if masks else set()
        eta = eta - SpinorElement(r, {m: eta.terms[m] for m in gone if m in eta.terms})
    return j, draw(st.sampled_from((1, 2))), eta


_INV_SQRT2 = Scalar(0, 0, Fraction(1, 2), 0)
_I_INV_SQRT2 = Scalar(0, 0, 0, Fraction(1, 2))


class TestOnePassActE:
    @settings(max_examples=100, deadline=None)
    @given(act_e_cases())
    def test_equals_definition(self, case):
        j, axis, eta = case
        if axis == 1:
            want = (act_x(j, eta) + act_y(j, eta)).scaled(_INV_SQRT2)
        else:
            want = (act_x(j, eta) - act_y(j, eta)).scaled(_I_INV_SQRT2)
        assert act_e(j, axis, eta) == want

    def test_partner_masks_and_cancelled_terms(self):
        # y_0 and y_0 y_1 are partners under j = 1; the sum cancels y_1
        eta = mono(2, 0) + mono(2, 0, 1).scaled(Scalar.of(3)) + mono(2, 1) - mono(2, 1)
        assert set(eta.terms) == {0b01, 0b11}
        for axis, scale, sign in ((1, _INV_SQRT2, 1), (2, _I_INV_SQRT2, -1)):
            want = (act_x(1, eta) + act_y(1, eta).scaled(Scalar.of(sign))).scaled(scale)
            assert act_e(1, axis, eta) == want
            assert set(want.terms) == {0b01, 0b11}


class TestTaggedBlocks:
    @pytest.mark.parametrize("name", ["G2", "B3", "A4"])
    def test_eigen_signs_match_single_monomials(self, name, catalogue, monkeypatch):
        system = catalogue[name]
        r = system.r
        signs, calls = [], []
        row_sum, rotation = spinor.row_sum, spinor._rotation_term

        def spy_row_sum(rows, m, terms):
            terms = list(terms)
            signs.append([s for _, s in terms])
            return row_sum(rows, m, terms)

        def spy_rotation(j, eta):
            calls.append(j)
            return rotation(j, eta)

        monkeypatch.setattr(spinor, "row_sum", spy_row_sum)
        monkeypatch.setattr(spinor, "_rotation_term", spy_rotation)
        invariant_dimension(system)
        n_blocks = -(-(1 << r) // spinor._BLOCK)
        assert len(calls) == r * n_blocks
        want = [
            [rotation(j, SpinorElement.monomial(r, mask)).terms[mask].b for j in range(r)]
            for mask in range(1 << r)
        ]
        assert signs == want

    def test_zero_test_exact_past_int64(self):
        # int64 reads 4 * 2^62 as 0, which would add the two constant sign
        # vectors to the 6 balanced ones; the engines refuse this matrix
        assert invariant_dimension([[2**62]] * 4) == 6
        with pytest.raises(ResourceLimitError):
            count_bruteforce([[2**62]] * 4)

    def test_traced_peak_on_d4(self, catalogue):
        system = catalogue["D4"]
        tracemalloc.start()
        try:
            assert invariant_dimension(system) == 64
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20
