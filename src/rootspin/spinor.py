"""Independent oracle: the 2^r-dimensional exterior-algebra model.

The torus action on spinors is modelled on the exterior algebra of the
span of generators y_0..y_{r-1}.  Raising/lowering generators act by

    x_j . eta = i*sqrt(2) * (x_j contract eta)
    y_j . eta = i*sqrt(2) * (y_j wedge eta)

over the exact ring Q[i, sqrt(2)], with the standard Koszul sign
convention.  The real generators e^{(j)}_1, e^{(j)}_2 are recovered as
e_1 = (x_j + y_j)/sqrt(2), e_2 = i*(x_j - y_j)/sqrt(2), and the torus acts
through (1/2) * sum_j a_j(X) e^{(j)}_1 e^{(j)}_2.  A monomial is scaled by
-(i/2) * (sum of roots inside the monomial - sum of roots outside)(X), so
kernels of all basis directions count exactly the zero signed root sums.
Everything here is computed from the algebra itself, giving a route to
that count that is independent of the combinatorial engine.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InternalCheckError,
    ResourceLimitError,
)
from .rootsys import system_parts

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def _raw(a, b, c, d) -> "Scalar":
    # Internal constructor for components that are already exact Fractions.
    s = Scalar.__new__(Scalar)
    s.a = a
    s.b = b
    s.c = c
    s.d = d
    return s


class Scalar:
    """Exact element a + b*i + c*sqrt(2) + d*i*sqrt(2) of Q[i, sqrt(2)]."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=_ZERO, b=_ZERO, c=_ZERO, d=_ZERO):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.c = Fraction(c)
        self.d = Fraction(d)

    @classmethod
    def of(cls, value) -> "Scalar":
        return cls(Fraction(value))

    def __add__(self, other: "Scalar") -> "Scalar":
        return _raw(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return _raw(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Scalar":
        return _raw(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return _raw(
            a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar)
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return f"Scalar({self.a}, {self.b}, {self.c}, {self.d})"

    # Dedicated transforms for the multipliers the generator actions use;
    # each is the closed form of __mul__ against a fixed one-component value.

    def times_i_sqrt2(self, sign: int = 1) -> "Scalar":
        if sign > 0:
            return _raw(-2 * self.d, 2 * self.c, -self.b, self.a)
        return _raw(2 * self.d, -2 * self.c, self.b, -self.a)

    def times_inv_sqrt2(self) -> "Scalar":
        return _raw(self.c, self.d, self.a * _HALF, self.b * _HALF)

    def times_i_inv_sqrt2(self) -> "Scalar":
        return _raw(-self.d, self.c, -self.b * _HALF, self.a * _HALF)

    def times_rational(self, q: Fraction) -> "Scalar":
        return _raw(self.a * q, self.b * q, self.c * q, self.d * q)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    @property
    def in_gaussian_part(self) -> bool:
        """True when the sqrt(2) components vanish (element of Q[i])."""
        return self.c == 0 and self.d == 0


ZERO = Scalar()
ONE = Scalar.of(1)
I = Scalar(b=Fraction(1))
I_SQRT2 = Scalar(d=Fraction(1))


class SpinorElement:
    """Finitely supported map from monomials (index bitmasks) to Scalars."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict[int, Scalar] | None = None):
        self.rank = rank
        self.terms = {m: s for m, s in (terms or {}).items() if not s.is_zero}

    @classmethod
    def monomial(cls, rank: int, mask: int, coeff: Scalar = ONE) -> "SpinorElement":
        return cls(rank, {mask: coeff})

    @classmethod
    def unit(cls, rank: int) -> "SpinorElement":
        return cls(rank, {0: ONE})

    def _merged(self, other: "SpinorElement", flip: bool) -> "SpinorElement":
        if self.rank != other.rank:
            raise DimensionMismatchError("elements live in different exterior algebras")
        out = dict(self.terms)
        for m, s in other.terms.items():
            out[m] = out.get(m, ZERO) + (-s if flip else s)
        return SpinorElement(self.rank, out)

    def __add__(self, other: "SpinorElement") -> "SpinorElement":
        return self._merged(other, flip=False)

    def __sub__(self, other: "SpinorElement") -> "SpinorElement":
        return self._merged(other, flip=True)

    def scaled(self, factor: Scalar) -> "SpinorElement":
        return SpinorElement(self.rank, {m: factor * s for m, s in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpinorElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"SpinorElement(rank={self.rank}, terms={self.terms})"

    @property
    def is_zero(self) -> bool:
        return not self.terms


def _check_index(j: int, eta: SpinorElement) -> None:
    if not 0 <= j < eta.rank:
        raise IndexOutOfRangeError(f"generator index {j} outside 0..{eta.rank - 1}")


def _koszul_sign(mask: int, j: int) -> int:
    """Parity of generators below position j inside the monomial."""
    return -1 if (mask & ((1 << j) - 1)).bit_count() % 2 else 1


def act_x(j: int, eta: SpinorElement) -> SpinorElement:
    """Contraction generator: i*sqrt(2) * (x_j contract eta)."""
    _check_index(j, eta)
    out: dict[int, Scalar] = {}
    bit = 1 << j
    for mask, coeff in eta.terms.items():
        if mask & bit:
            # toggling one bit is injective, so keys never collide
            out[mask ^ bit] = coeff.times_i_sqrt2(_koszul_sign(mask, j))
    return SpinorElement(eta.rank, out)


def act_y(j: int, eta: SpinorElement) -> SpinorElement:
    """Creation generator: i*sqrt(2) * (y_j wedge eta); kills repeated factors."""
    _check_index(j, eta)
    out: dict[int, Scalar] = {}
    bit = 1 << j
    for mask, coeff in eta.terms.items():
        if not mask & bit:
            out[mask | bit] = coeff.times_i_sqrt2(_koszul_sign(mask, j))
    return SpinorElement(eta.rank, out)


def act_e(j: int, axis: int, eta: SpinorElement) -> SpinorElement:
    """Clifford action of the real generator e^{(j)}_axis, axis in {1, 2}."""
    _check_index(j, eta)
    if axis == 1:
        combo = act_x(j, eta) + act_y(j, eta)
        return SpinorElement(
            eta.rank, {m: s.times_inv_sqrt2() for m, s in combo.terms.items()}
        )
    if axis == 2:
        combo = act_x(j, eta) - act_y(j, eta)
        return SpinorElement(
            eta.rank, {m: s.times_i_inv_sqrt2() for m, s in combo.terms.items()}
        )
    raise IndexOutOfRangeError(f"axis must be 1 or 2, got {axis}")


def _rotation_term(j: int, eta: SpinorElement) -> SpinorElement:
    """e^{(j)}_1 e^{(j)}_2 applied to eta; must collapse into Q[i]."""
    term = act_e(j, 1, act_e(j, 2, eta))
    for coeff in term.terms.values():
        if not coeff.in_gaussian_part:
            raise InternalCheckError("sqrt(2) components failed to cancel in a paired action")
    return term


def cartan_act(system, X, eta: SpinorElement) -> SpinorElement:
    """Action of the torus direction X: (1/2) sum_j a_j(X) e^{(j)}_1 e^{(j)}_2."""
    roots, den = system_parts(system)
    r, m = roots.shape
    xs = [Fraction(v) for v in X]
    if len(xs) != m:
        raise DimensionMismatchError(f"expected {m} coordinates, got {len(xs)}")
    if eta.rank != r:
        raise DimensionMismatchError("element rank does not match the number of roots")
    total = SpinorElement(eta.rank)
    for j in range(r):
        weight = sum(int(c) * x for c, x in zip(roots[j], xs)) / den
        if weight == 0:
            continue
        total = total + SpinorElement(
            eta.rank,
            {
                m_: s.times_rational(weight * _HALF)
                for m_, s in _rotation_term(j, eta).terms.items()
            },
        )
    return total


def invariant_dimension(system, limit_r: int = 14) -> int:
    """Dimension of the joint kernel of all torus directions.

    Walks every monomial, extracts the +-i eigenvalue of each paired
    generator action from the algebra itself (verifying along the way that
    the action really is diagonal with purely imaginary eigenvalue), and
    tests annihilation exactly.
    """
    roots, _ = system_parts(system)
    r, m = roots.shape
    if r > limit_r:
        raise ResourceLimitError(f"representation dimension 2^{r} exceeds limit 2^{limit_r}")
    dimension = 0
    for mask in range(1 << r):
        eta = SpinorElement.monomial(r, mask)
        combined = np.zeros(m, dtype=np.int64)
        for j in range(r):
            term = _rotation_term(j, eta)
            if set(term.terms) != {mask}:
                raise InternalCheckError("paired generator action is not diagonal")
            coeff = term.terms[mask]
            if coeff.a != 0 or abs(coeff.b) != 1:
                raise InternalCheckError(f"paired action eigenvalue {coeff} is not +-i")
            combined += int(coeff.b) * roots[j]
        if not combined.any():
            dimension += 1
    return dimension
