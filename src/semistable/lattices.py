"""Exact arithmetic for corank-one quotient lattices and fractional blowup weights.

A cyclic quotient germ of index n with action weights (1, -1, a) carries the
lattice of monomial valuations on x, y, z (t always weighs 1)

    N = Z^3 + Z * (1/n)(1, -1, a),    gcd(a, n) = 1,

a corank-one extension of the integer lattice.  The vectors

    g = (1/n)(1, -1, a),   e2,   e3

are a Z-basis of N, since e1 = n*g + e2 - a*e3.  A rational vector v has
coordinates (n*v1, v1 + v2, v3 - a*v1) in this basis, so v lies in N iff
they are integers, and a nonzero member is primitive iff they are coprime.
One private core, `_coordinates`, computes them on the integers of v = m/d.
The public checks, `is_admissible` and the rank-2 cones of the resolution
module call it, and the case-T scan takes its closed form on the residue
class it walks.  No floating point: inputs are `int`s or `Fraction`s,
anything else is a TypeError (`_exact`).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import DomainRejection

Vector = tuple[Fraction, ...]

_INTEGER = re.compile(r"-?[0-9]+")  # ASCII digits only: no "+", "_", spaces or other scripts


def _exact(value, integral: bool = False):
    """value if it is an int (not a bool) or, unless integral, a Fraction; else TypeError."""
    if type(value) is int or (not integral and type(value) is Fraction):
        return value
    kind = "an integer" if integral else "an integer or a Fraction"
    raise TypeError(f"expected {kind}, got {value!r}")


def integer(text: str) -> int:
    """Read an integer written -?[0-9]+; any other text is a ValueError."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer of the form -?[0-9]+")
    return int(text)


def natural(text: str) -> int:
    """Read a nonnegative integer written [0-9]+; any other text is a ValueError."""
    if text.startswith("-"):
        raise ValueError(f"{text!r} is not a nonnegative integer of the form [0-9]+")
    return integer(text)


def ratio_to_str(p: int, q: int) -> str:
    """Serialize the rational p/q (q > 0) in lowest terms as "p/q", or "p" when q is 1."""
    g = gcd(p, q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def fraction_to_str(x: Fraction | int) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    x = Fraction(_exact(x))
    return ratio_to_str(x.numerator, x.denominator)


def to_vector(entries, dim: int) -> Vector:
    """An exact vector of ints and Fractions, checking its length."""
    v = tuple(Fraction(_exact(e)) for e in entries)
    if len(v) != dim:
        raise ValueError(f"expected a vector of dimension {dim}, got {len(v)}")
    return v


class _Checked:
    """A NamedTuple mixin: `_make` (so `_replace`), `copy` and `pickle` build through `__new__`."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):  # pickle protocols 0 and 1 would call tuple.__new__
        return type(self), tuple(self)


class _QuotientLatticeFields(NamedTuple):
    n: int
    a: int


class QuotientLattice(_Checked, _QuotientLatticeFields):
    """The weight lattice Z^3 + Z*(1/n)(1, -1, a) with gcd(a, n) = 1."""

    __slots__ = ()

    def __new__(cls, n: int, a: int):
        n, a = _exact(n, integral=True), _exact(a, integral=True)
        if n < 1:
            raise ValueError("index n must be a positive integer")
        if gcd(a, n) != 1:
            raise ValueError(f"gcd(a, n) must be 1, got a={a}, n={n}")
        return super().__new__(cls, n, a)


def _scaled(v: Vector) -> tuple[tuple[int, ...], int]:
    """Write a rational vector as m/d with d its exact common denominator."""
    d = lcm(*(c.denominator for c in v))
    return tuple(c.numerator * (d // c.denominator) for c in v), d


def _coordinates(n: int, a: int, m: tuple[int, ...], d: int) -> tuple[int, int, int] | None:
    """Coordinates of m/d in the basis g = (1/n)(1, -1, a), e2, e3, or None off the lattice."""
    c1, c2, c3 = n * m[0], m[0] + m[1], m[2] - a * m[0]
    if c1 % d or c2 % d or c3 % d:
        return None
    return c1 // d, c2 // d, c3 // d


def lattice_contains(lattice: QuotientLattice, v) -> bool:
    """Whether the rational vector v lies in the lattice."""
    m, d = _scaled(to_vector(v, 3))
    return _coordinates(lattice.n, lattice.a, m, d) is not None


def is_primitive(lattice: QuotientLattice, v) -> bool:
    """Whether v is primitive in the lattice, i.e. v/p leaves it for every prime p."""
    v = to_vector(v, 3)
    m, d = _scaled(v)
    if not any(m):
        raise ValueError("the zero vector is not primitive")
    coordinates = _coordinates(lattice.n, lattice.a, m, d)
    if coordinates is None:
        raise ValueError(f"{v} does not lie in the lattice")
    return gcd(*coordinates) == 1


def fibre_quotient(k: int, n: int, a: int) -> tuple[int, int]:
    """(r, q) of the case-T fibre quotient 1/(k*n^2)(1, k*n*a - 1), with 0 <= q < r.

    q is 0 when r = 1.  Otherwise every prime p of r divides k*n, so
    q = -1 mod p: q is a unit mod r, and 1 <= q < r
    (`tests/test_lattices.py` checks this over all integers k, n, a).
    """
    r = k * n * n
    if r <= 1:
        return r, 0
    return r, (k * n * a - 1) % r


def mu_n_character(lattice: QuotientLattice, exponents) -> int:
    """Character of the monomial x^i y^j z^k t^l under the 1/n(1,-1,a,0) action.

    Returns (i - j + a*k) mod n for the exponent (i, j, k, l); the base
    parameter t contributes 0.
    """
    i, j, k, l = (_exact(e, integral=True) for e in exponents)
    if min(i, j, k, l) < 0:
        raise ValueError("exponents must be nonnegative")
    return (i - j + lattice.a * k) % lattice.n


class _WeightVectorFields(NamedTuple):
    numerators: tuple[int, int, int]
    denominator: int


class WeightVector(_Checked, _WeightVectorFields):
    """A fractional weight (1/d)(a1, a2, a3) on the chart coordinates x, y, z.

    Entries are strictly positive with gcd 1, so d is the exact common
    denominator and the representation is canonical.  Rational vectors whose
    integer content exceeds 1 (e.g. (2, 2, 2)) admit no such form and are
    rejected: they are never primitive in any ambient lattice.
    """

    __slots__ = ()

    def __new__(cls, numerators: tuple[int, int, int], denominator: int = 1):
        nums = tuple(_exact(c, integral=True) for c in numerators)
        if len(nums) != 3 or any(c <= 0 for c in nums):
            raise ValueError("weight entries must be three positive integers")
        if _exact(denominator, integral=True) < 1:
            raise ValueError("weight denominator must be positive")
        if gcd(gcd(nums[0], nums[1]), nums[2]) != 1:
            raise ValueError(f"weight entries must be coprime, got {nums}")
        return super().__new__(cls, nums, denominator)

    @classmethod
    def _proven(cls, numerators: tuple[int, int, int], denominator: int) -> "WeightVector":
        """The weight of ints the caller proved valid (positive, coprime, d >= 1), unchecked."""
        return tuple.__new__(cls, (numerators, denominator))

    @classmethod
    def from_fractions(cls, fracs) -> "WeightVector":
        nums, d = _scaled(to_vector(fracs, 3))
        return cls(nums, d)  # gcd(nums) > 1 fails validation, as it should

    @property
    def fractions(self) -> Vector:
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    def __str__(self) -> str:
        (a1, a2, a3), d = self
        return f"({a1},{a2},{a3})" if d == 1 else f"(1/{d})({a1},{a2},{a3})"

    def to_json(self) -> dict:
        return {
            "numerators": list(self.numerators),
            "denominator": self.denominator,
            "vector": [ratio_to_str(c, self.denominator) for c in self.numerators],
        }


def parse_weight(text: str) -> WeightVector:
    """Parse "a1,a2,a3" or "a1,a2,a3/d" into a WeightVector.

    Entries and d are read by `integer`: malformed text raises ValueError;
    integers that make no weight vector (e.g. "2,2,2" or "1,5,3/0") raise
    DomainRejection.
    """
    body, slash, denom = text.partition("/")
    parts = body.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated entries, got {text!r}")
    nums = tuple(integer(p) for p in parts)
    d = integer(denom) if slash else 1
    try:
        return WeightVector(nums, d)
    except ValueError as exc:
        raise DomainRejection(str(exc)) from None
