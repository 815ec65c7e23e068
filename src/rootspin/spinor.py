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

A ring element is stored as four Python-int numerators over one positive
int denominator, (a + b*i + c*sqrt(2) + d*i*sqrt(2)) / q, always in lowest
terms, so equality and hashing compare plain int tuples.  Every value the
generator actions produce lies in 2^-k Z[i, sqrt(2)]: multiplying by
i*sqrt(2), 1/sqrt(2) or i/sqrt(2) permutes the numerators and doubles some
of them or the denominator, and no ``Fraction`` is built on that path.
``fractions`` (with the ``decimal`` it loads) is imported only where a
``Fraction`` crosses the API: a component, factor or coordinate that is not
an int, a component read back, and the weights of ``cartan_act``.  Ints
carry ``numerator`` and ``denominator`` too, so ``ZERO``, ``ONE`` and the
oracle import nothing.

``invariant_dimension`` applies each generator to a block of ``_BLOCK``
monomials at once instead of to one monomial at a time.  A block is one
element of rank 2r whose terms are e_{(m << r) | m}: the monomial's own
mask m sits in the high r bits as a tag.  The generators j < r act on the
low bits only, and their Koszul signs count only bits below j, so each
term is acted on exactly as if it stood alone, and terms with different
tags can never meet.  Each check then reads the single term whose key is
(m << r) | m.  Blocks bound the live terms by ``_BLOCK``, where one
element of all 2^r monomials would hold 2^r.

Scalars are immutable, so ``act_e`` computes each product once per
distinct (coefficient, Koszul sign) within a call and gives every term
with that key the same object.  A block starts with every coefficient
``ONE`` and each action multiplies by a unit, so it holds a few shared
Scalars instead of one per term; every check still reads every term.

The roots enter only through their sparse rows (``RootSystem.rows``): each
monomial's signed root sum is taken with ``rootsys.row_sum`` in Python
ints, so the zero test is exact for entries of any size, and a bare matrix
is first made a ``RootSystem`` by ``rootsys.as_system``.  No numpy here.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import islice
from math import gcd, lcm

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InternalCheckError,
    ResourceLimitError,
)
from .rootsys import as_system, check_limit, is_int, row_sum, shown

_ZERO_PARTS = (0, 0, 0, 0, 1)
# Monomials per tagged block of invariant_dimension (module docstring).
# A block holds a few shared Scalars, not one per term, so 256 peaks no
# higher in RSS than 64 on D4 and runs faster; 1024 runs no faster.
_BLOCK = 256
DEFAULT_ORACLE_LIMIT = 14  # largest r invariant_dimension runs on by default


def _raw(a: int, b: int, c: int, d: int, q: int) -> "Scalar":
    # Internal constructor for parts already in lowest terms with q > 0.
    s = Scalar.__new__(Scalar)
    s._parts = (a, b, c, d, q)
    return s


def _reduced(a: int, b: int, c: int, d: int, q: int) -> "Scalar":
    # Lowest terms for q > 0; zero comes out as (0, 0, 0, 0) / 1.
    g = gcd(a, b, c, d, q)
    if g == 1:
        return _raw(a, b, c, d, q)
    return _raw(a // g, b // g, c // g, d // g, q // g)


def _rational(x, what: str):
    """``x`` as a Python int or a ``Fraction``, refused unless it is an
    integer (not a bool) or a ``Fraction``: never a float or a string.
    Both read back ``numerator`` and ``denominator``."""
    if is_int(x):
        return int(x)
    from fractions import Fraction

    if isinstance(x, Fraction):
        return x
    raise DimensionMismatchError(f"{what} must be integers or Fractions, got {x!r}")


class Scalar:
    """Exact element a + b*i + c*sqrt(2) + d*i*sqrt(2) of Q[i, sqrt(2)].

    The components ``a``, ``b``, ``c`` and ``d`` read back as exact
    ``Fraction``s; inside, they are int numerators over one denominator.
    Each component must be an integer or a ``Fraction``.
    """

    __slots__ = ("_parts",)

    def __init__(self, a=0, b=0, c=0, d=0):
        parts = [_rational(v, "Scalar components") for v in (a, b, c, d)]
        q = lcm(*(p.denominator for p in parts))
        self._parts = _reduced(*(p.numerator * (q // p.denominator) for p in parts), q)._parts

    @classmethod
    def of(cls, value) -> "Scalar":
        return cls(value)

    def _component(self, index: int) -> "Fraction":
        from fractions import Fraction

        return Fraction(self._parts[index], self._parts[4])

    a = property(lambda self: self._component(0))
    b = property(lambda self: self._component(1))
    c = property(lambda self: self._component(2))
    d = property(lambda self: self._component(3))

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        a1, b1, c1, d1, q1 = self._parts
        a2, b2, c2, d2, q2 = other._parts
        if q1 == q2:
            return _reduced(a1 + a2, b1 + b2, c1 + c2, d1 + d2, q1)
        return _reduced(a1 * q2 + a2 * q1, b1 * q2 + b2 * q1,
                        c1 * q2 + c2 * q1, d1 * q2 + d2 * q1, q1 * q2)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + -other if isinstance(other, Scalar) else NotImplemented

    def __neg__(self) -> "Scalar":
        a, b, c, d, q = self._parts
        return _raw(-a, -b, -c, -d, q)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        a1, b1, c1, d1, q1 = self._parts
        a2, b2, c2, d2, q2 = other._parts
        return _reduced(
            a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            q1 * q2,
        )

    def __eq__(self, other) -> bool:
        return self._parts == other._parts if isinstance(other, Scalar) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        # Each component as str(Fraction) gives it, its ints through ``shown``.
        q = self._parts[4]
        texts = []
        for n in self._parts[:4]:
            g = gcd(n, q)
            texts.append(shown(n // g) + ("" if g == q else f"/{shown(q // g)}"))
        return f"Scalar({', '.join(texts)})"

    # Dedicated transforms for the multipliers the generator actions use;
    # each is the closed form of __mul__ against a fixed one-component value.
    # With gcd(a, b, c, d, q) = 1, no odd prime can divide a result, and a
    # factor 2 can only come from a and b (and q) being even: that one
    # parity test keeps every result in lowest terms without a gcd.

    def times_i_sqrt2(self, sign: int = 1) -> "Scalar":
        """Product with i*sqrt(2), or with -i*sqrt(2) when ``sign`` is negative."""
        a, b, c, d, q = self._parts
        if sign < 0:
            a, b, c, d = -a, -b, -c, -d
        if (a | b | q) & 1:
            return _raw(-2 * d, 2 * c, -b, a, q)
        return _raw(-d, c, -b // 2, a // 2, q // 2)

    def times_inv_sqrt2(self) -> "Scalar":
        a, b, c, d, q = self._parts
        if (a | b) & 1:
            return _raw(2 * c, 2 * d, a, b, 2 * q)
        return _raw(c, d, a // 2, b // 2, q)

    def times_i_inv_sqrt2(self) -> "Scalar":
        a, b, c, d, q = self._parts
        if (a | b) & 1:
            return _raw(-2 * d, 2 * c, -b, a, 2 * q)
        return _raw(-d, c, -b // 2, a // 2, q)

    def times_rational(self, value) -> "Scalar":
        """Product with an int or ``Fraction``, through its numerator and denominator."""
        value = _rational(value, "rational factors")
        a, b, c, d, q = self._parts
        n = value.numerator
        return _reduced(a * n, b * n, c * n, d * n, q * value.denominator)

    @property
    def is_zero(self) -> bool:
        return self._parts == _ZERO_PARTS

    @property
    def in_gaussian_part(self) -> bool:
        """True when the sqrt(2) components vanish (element of Q[i])."""
        return self._parts[2] == 0 and self._parts[3] == 0


ZERO = Scalar()
ONE = Scalar.of(1)
I_SQRT2 = Scalar(d=1)


def _element(rank: int, terms: dict[int, Scalar]) -> "SpinorElement":
    # Internal constructor: masks already in range, no zero coefficient.
    e = SpinorElement.__new__(SpinorElement)
    e.rank = rank
    e.terms = terms
    return e


class SpinorElement:
    """Finitely supported map from monomials (index bitmasks) to Scalars."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict[int, Scalar] | None = None):
        if not is_int(rank) or rank < 0:
            raise DimensionMismatchError(f"rank must be a non-negative integer, got {shown(rank)}")
        if terms is None:
            terms = {}
        elif not isinstance(terms, Mapping):
            raise DimensionMismatchError(
                f"terms must map monomial masks to Scalars, got {type(terms).__name__}"
            )
        rank = int(rank)
        kept: dict[int, Scalar] = {}
        for m, s in terms.items():
            # m >> rank == 0 builds no 2^rank
            if not (is_int(m) and int(m) >> rank == 0):
                raise IndexOutOfRangeError(f"a monomial mask is outside 0..2^{shown(rank)} - 1")
            if not isinstance(s, Scalar):
                raise DimensionMismatchError(
                    f"coefficient of mask {shown(m)} must be a Scalar, got {shown(s)}"
                )
            if not s.is_zero:
                kept[int(m)] = s
        self.rank = rank
        self.terms = kept

    @classmethod
    def monomial(cls, rank: int, mask: int, coeff: Scalar = ONE) -> "SpinorElement":
        return cls(rank, {mask: coeff})

    @classmethod
    def unit(cls, rank: int) -> "SpinorElement":
        return cls(rank, {0: ONE})

    def _merged(self, other: "SpinorElement", flip: bool) -> "SpinorElement":
        if not isinstance(other, SpinorElement):
            return NotImplemented
        if self.rank != other.rank:
            raise DimensionMismatchError("elements live in different exterior algebras")
        out = dict(self.terms)
        for m, s in other.terms.items():
            if flip:
                s = -s
            prev = out.get(m)
            out[m] = s if prev is None else prev + s
        # terms can cancel here, so the zero filter stays
        return _element(self.rank, {m: s for m, s in out.items() if not s.is_zero})

    def __add__(self, other: "SpinorElement") -> "SpinorElement":
        return self._merged(other, flip=False)

    def __sub__(self, other: "SpinorElement") -> "SpinorElement":
        return self._merged(other, flip=True)

    def scaled(self, factor: Scalar) -> "SpinorElement":
        if not isinstance(factor, Scalar):
            raise DimensionMismatchError(f"a factor must be a Scalar, got {type(factor).__name__}")
        # Q[i, sqrt(2)] is a field: a product is zero only when the factor is.
        if factor.is_zero:
            return _element(self.rank, {})
        return _element(self.rank, {m: factor * s for m, s in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpinorElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        terms = ", ".join(f"{shown(m)}: {s!r}" for m, s in self.terms.items())
        return f"SpinorElement(rank={shown(self.rank)}, terms={{{terms}}})"

    @property
    def is_zero(self) -> bool:
        return not self.terms


def _check_index(j: int, eta: SpinorElement) -> int:
    """``j`` as a Python int: an integer (not a bool) in 0..rank-1 of the element ``eta``."""
    if not isinstance(eta, SpinorElement):
        raise DimensionMismatchError(f"expected a SpinorElement, got {type(eta).__name__}")
    if not is_int(j):
        raise IndexOutOfRangeError(f"generator index {j!r} is not an integer")
    if not 0 <= j < eta.rank:
        raise IndexOutOfRangeError(f"generator index {shown(j)} outside 0..{shown(eta.rank - 1)}")
    return int(j)


def _koszul_sign(mask: int, j: int) -> int:
    """Parity of generators below position j inside the monomial."""
    return -1 if (mask & ((1 << j) - 1)).bit_count() % 2 else 1


# The generator actions multiply nonzero terms by units, so their results
# have no zero term and go through the internal constructor.


def act_x(j: int, eta: SpinorElement) -> SpinorElement:
    """Contraction generator: i*sqrt(2) * (x_j contract eta)."""
    j = _check_index(j, eta)
    out: dict[int, Scalar] = {}
    bit = 1 << j
    for mask, coeff in eta.terms.items():
        if mask & bit:
            # toggling one bit is injective, so keys never collide
            out[mask ^ bit] = coeff.times_i_sqrt2(_koszul_sign(mask, j))
    return _element(eta.rank, out)


def act_y(j: int, eta: SpinorElement) -> SpinorElement:
    """Creation generator: i*sqrt(2) * (y_j wedge eta); kills repeated factors."""
    j = _check_index(j, eta)
    out: dict[int, Scalar] = {}
    bit = 1 << j
    for mask, coeff in eta.terms.items():
        if not mask & bit:
            out[mask | bit] = coeff.times_i_sqrt2(_koszul_sign(mask, j))
    return _element(eta.rank, out)


def act_e(j: int, axis: int, eta: SpinorElement) -> SpinorElement:
    """Clifford action of the real generator e^{(j)}_axis, axis in {1, 2}.

    e_1 = (x_j + y_j)/sqrt(2) and e_2 = i*(x_j - y_j)/sqrt(2), taken in one
    pass: a term with bit j set is contracted, any other is wedged (negated
    for e_2), and each is scaled at once.  Both send mask to mask ^ bit, so
    keys never collide and no term cancels.
    """
    j = _check_index(j, eta)
    if not is_int(axis) or axis not in (1, 2):
        raise IndexOutOfRangeError(f"axis must be 1 or 2, got {shown(axis)}")
    scale, wedge = (Scalar.times_inv_sqrt2, 1) if axis == 1 else (Scalar.times_i_inv_sqrt2, -1)
    out: dict[int, Scalar] = {}
    bit = 1 << j
    below = bit - 1
    # Terms with equal coefficients and signs share one product (module docstring).
    shared = {1: {}, -1: {}}
    for mask, coeff in eta.terms.items():
        sign = -1 if (mask & below).bit_count() & 1 else 1
        if not mask & bit:
            sign *= wedge
        products = shared[sign]
        parts = coeff._parts
        product = products.get(parts)
        if product is None:
            product = products[parts] = scale(coeff.times_i_sqrt2(sign))
        out[mask ^ bit] = product
    return _element(eta.rank, out)


def _rotation_term(j: int, eta: SpinorElement) -> SpinorElement:
    """e^{(j)}_1 e^{(j)}_2 applied to eta; must collapse into Q[i]."""
    term = act_e(j, 1, act_e(j, 2, eta))
    if any(c._parts[2] or c._parts[3] for c in term.terms.values()):
        raise InternalCheckError("sqrt(2) components failed to cancel in a paired action")
    return term


def _direction(X, m: int) -> list:
    """The m coordinates of a torus direction: ints (not bools) and Fractions
    only.  At most m + 1 are read, so a longer or endless X is refused
    without being read through."""
    try:
        xs = list(islice(X, m + 1))
    except TypeError:
        raise DimensionMismatchError(
            "a torus direction must be a sequence of coordinates"
        ) from None
    if len(xs) != m:
        got = len(xs) if len(xs) < m else "more"
        raise DimensionMismatchError(f"expected {m} coordinates, got {got}")
    return [_rational(x, "torus coordinates") for x in xs]


def cartan_act(system, X, eta: SpinorElement) -> SpinorElement:
    """Action of the torus direction X: (1/2) sum_j a_j(X) e^{(j)}_1 e^{(j)}_2."""
    system = as_system(system)
    r, m = system.r, system.ambient_dim
    xs = _direction(X, m)
    if not isinstance(eta, SpinorElement) or eta.rank != r:
        raise DimensionMismatchError(f"expected a SpinorElement of rank {r}")
    from fractions import Fraction

    total = SpinorElement(eta.rank)
    for j in range(r):
        weight = Fraction(sum(x * xs[c] for c, x in system.rows[j]), 2 * system.denominator)
        if weight == 0:
            continue
        total = total + _element(
            eta.rank,
            {m_: s.times_rational(weight) for m_, s in _rotation_term(j, eta).terms.items()},
        )
    return total


def invariant_dimension(system, limit_r: int = DEFAULT_ORACLE_LIMIT) -> int:
    """Dimension of the joint kernel of all torus directions.

    Walks every monomial, extracts the +-i eigenvalue of each paired
    generator action from the algebra itself (verifying along the way that
    the action really is diagonal with purely imaginary eigenvalue), and
    tests annihilation exactly.  The monomials go through in tagged blocks
    of ``_BLOCK`` (module docstring), one ``_rotation_term`` per generator
    and block; every check still applies to each monomial on its own, and
    each monomial's signed root sum is tested for zero over the sparse rows.
    """
    limit_r = check_limit(limit_r, "limit_r")
    system = as_system(system)
    r = system.r
    if r > limit_r:
        raise ResourceLimitError(f"representation dimension 2^{r} exceeds limit 2^{limit_r}")
    dimension = 0
    for start in range(0, 1 << r, _BLOCK):
        keys = [(m << r) | m for m in range(start, min(start + _BLOCK, 1 << r))]
        block = _element(2 * r, dict.fromkeys(keys, ONE))
        eigen_signs = []
        for j in range(r):
            terms = _rotation_term(j, block).terms
            if len(terms) != len(keys):
                raise InternalCheckError("paired generator action is not diagonal")
            column = []
            for key in keys:
                coeff = terms.get(key)
                if coeff is None:
                    raise InternalCheckError("paired generator action is not diagonal")
                a, b, _, _, q = coeff._parts
                if q != 1 or a != 0 or abs(b) != 1:
                    raise InternalCheckError(f"paired action eigenvalue {coeff} is not +-i")
                column.append(b)
            eigen_signs.append(column)
        for signs in zip(*eigen_signs):
            dimension += not any(row_sum(system.rows, system.ambient_dim, enumerate(signs)))
    return dimension
