"""Exact arithmetic for corank-one quotient lattices and fractional blowup weights.

A cyclic quotient germ of index n with action weights (1, -1, a) carries the
monomial-valuation lattice

    N = Z^dim + Z * (1/n)(1, -1, a[, 0]),    gcd(a, n) = 1,  dim in {3, 4},

a corank-one extension of the integer lattice.  Membership and primitivity
are decided on integers.  Write a rational vector as m/d with d its exact
common denominator, so gcd(d, m) = 1.  Then m/d lies in N iff

    d | n,   m1 + m2 = 0,   m3 = a*m1   [and m4 = 0]     (mod d).

A member m/d is primitive unless m/(d*p) is a member for some prime p; only
primes dividing gcd(m) or e = n/d can do that, and for a prime p | e not
dividing gcd(m) it means the same congruences hold mod d*p.  One private
core (`_contains`, `_primitive`) carries these congruences for rational
vectors and for `WeightVector`s alike.  No floating point anywhere; the
`fractions.Fraction` entry points convert to m/d once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Vector = tuple[Fraction, ...]


def ratio_to_str(p: int, q: int) -> str:
    """Serialize the rational p/q (q > 0) in lowest terms as "p/q", or "p" when q is 1."""
    g = gcd(p, q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def fraction_to_str(x: Fraction | int) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    return ratio_to_str(x.numerator, x.denominator)


def fraction_from_str(s: str | int) -> Fraction:
    return Fraction(s)


def to_vector(entries, dim: int | None = None) -> Vector:
    """Coerce a sequence of rationals to an exact vector, checking its length."""
    v = tuple(Fraction(e) for e in entries)
    if dim is not None and len(v) != dim:
        raise ValueError(f"expected a vector of dimension {dim}, got {len(v)}")
    return v


def prime_factors(m: int) -> list[int]:
    """Distinct prime divisors of |m|, by trial division (inputs here are small)."""
    m = abs(m)
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out.append(m)
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@dataclass(frozen=True)
class QuotientLattice:
    """The lattice Z^dim + Z*(1/n)(1, -1, a[, 0]) with gcd(a, n) = 1."""

    dim: int
    n: int
    a: int

    def __post_init__(self):
        if self.dim not in (3, 4):
            raise ValueError("lattice dimension must be 3 or 4")
        if self.n < 1:
            raise ValueError("index n must be a positive integer")
        if gcd(self.a, self.n) != 1:
            raise ValueError(f"gcd(a, n) must be 1, got a={self.a}, n={self.n}")

    @property
    def generator(self) -> Vector:
        g = (1, -1, self.a, 0)[: self.dim]
        return tuple(Fraction(c, self.n) for c in g)


def _scaled(v: Vector) -> tuple[tuple[int, ...], int]:
    """Write a rational vector as m/d with d its exact common denominator."""
    d = lcm(*(c.denominator for c in v))
    return tuple(c.numerator * (d // c.denominator) for c in v), d


def _contains(n: int, a: int, m: tuple[int, ...], d: int) -> bool:
    """Whether m/d lies in Z^dim + Z*(1/n)(1, -1, a[, 0]); d is exact for m.

    n*(m/d) must be j*(1, -1, a[, 0]) mod n; with n = d*e the first slot
    pins j = e*m1, which leaves the congruences below mod d.
    """
    return (
        n % d == 0
        and (m[0] + m[1]) % d == 0
        and (m[2] - a * m[0]) % d == 0
        and (len(m) == 3 or m[3] % d == 0)
    )


def _primitive(n: int, a: int, m: tuple[int, ...], d: int) -> bool:
    """Whether the member m/d is primitive: m/(d*p) leaves the lattice for every prime p.

    For p | gcd(m), m/(d*p) is (m/p)/d; otherwise d*p is its exact
    denominator, which must divide n.  So only primes of gcd(m)*(n/d) count.
    """
    content = gcd(*m)
    for p in prime_factors(content * (n // d)):
        if content % p == 0:
            if _contains(n, a, tuple(c // p for c in m), d):
                return False
        elif _contains(n, a, m, d * p):
            return False
    return True


def lattice_contains(lattice: QuotientLattice, v) -> bool:
    """Whether the rational vector v lies in the lattice."""
    m, d = _scaled(to_vector(v, lattice.dim))
    return _contains(lattice.n, lattice.a, m, d)


def is_primitive(lattice: QuotientLattice, v) -> bool:
    """Whether v is primitive in the lattice, i.e. v/p leaves it for every prime p."""
    v = to_vector(v, lattice.dim)
    m, d = _scaled(v)
    if not any(m):
        raise ValueError("the zero vector is not primitive")
    if not _contains(lattice.n, lattice.a, m, d):
        raise ValueError(f"{v} does not lie in the lattice")
    return _primitive(lattice.n, lattice.a, m, d)


def mu_n_character(lattice: QuotientLattice, exponents) -> int:
    """Character of the monomial with the given exponents under the 1/n(1,-1,a[,0]) action.

    Returns (i - j + a*k) mod n for exponents (i, j, k[, l]); the fourth slot
    (the base parameter t) contributes 0.
    """
    exps = tuple(exponents)
    if len(exps) != lattice.dim:
        raise ValueError(f"expected {lattice.dim} exponents, got {len(exps)}")
    if any(e < 0 for e in exps):
        raise ValueError("exponents must be nonnegative")
    i, j, k = exps[0], exps[1], exps[2]
    return (i - j + lattice.a * k) % lattice.n


@dataclass(frozen=True)
class WeightVector:
    """A fractional weight (1/d)(a1, a2, a3) on the chart coordinates x, y, z.

    Entries are strictly positive with gcd 1, so d is the exact common
    denominator and the representation is canonical.  Rational vectors whose
    integer content exceeds 1 (e.g. (2, 2, 2)) admit no such form and are
    rejected: they are never primitive in any ambient lattice.
    """

    numerators: tuple[int, int, int]
    denominator: int = 1

    def __post_init__(self):
        nums = tuple(int(c) for c in self.numerators)
        object.__setattr__(self, "numerators", nums)
        if len(nums) != 3 or any(c <= 0 for c in nums):
            raise ValueError("weight entries must be three positive integers")
        if self.denominator < 1:
            raise ValueError("weight denominator must be positive")
        if gcd(gcd(nums[0], nums[1]), nums[2]) != 1:
            raise ValueError(f"weight entries must be coprime, got {nums}")

    @classmethod
    def from_fractions(cls, fracs) -> "WeightVector":
        v = to_vector(fracs, 3)
        d = 1
        for c in v:
            d = d * c.denominator // gcd(d, c.denominator)
        nums = tuple(int(c * d) for c in v)
        return cls(nums, d)  # gcd(nums) > 1 fails validation, as it should

    @property
    def fractions(self) -> Vector:
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    @property
    def extended(self) -> Vector:
        """The blowup weights on (x, y, z, t); t always carries weight 1."""
        return self.fractions + (Fraction(1),)

    def __str__(self) -> str:
        body = "(" + ",".join(str(c) for c in self.numerators) + ")"
        if self.denominator == 1:
            return body
        return f"(1/{self.denominator}){body}"

    def to_json(self) -> dict:
        return {
            "numerators": list(self.numerators),
            "denominator": self.denominator,
            "vector": [ratio_to_str(c, self.denominator) for c in self.numerators],
        }


def weight_in_lattice(lattice: QuotientLattice, w: WeightVector) -> bool:
    if lattice.dim != 3:
        raise ValueError("weights live in the dimension-3 lattice")
    return _contains(lattice.n, lattice.a, w.numerators, w.denominator)


def weight_is_primitive(lattice: QuotientLattice, w: WeightVector) -> bool:
    if lattice.dim != 3:
        raise ValueError("weights live in the dimension-3 lattice")
    if not _contains(lattice.n, lattice.a, w.numerators, w.denominator):
        raise ValueError(f"{w.fractions} does not lie in the lattice")
    return _primitive(lattice.n, lattice.a, w.numerators, w.denominator)


def parse_weight(text: str) -> WeightVector:
    """Parse "a1,a2,a3" or "a1,a2,a3/d" into a WeightVector."""
    body, _, denom = text.partition("/")
    parts = [p.strip() for p in body.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated entries, got {text!r}")
    nums = tuple(int(p) for p in parts)
    d = int(denom) if denom else 1
    return WeightVector(nums, d)
