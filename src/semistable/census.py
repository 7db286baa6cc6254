"""Singularity census of the blown-up family along the exceptional divisor.

Only case T carries census templates.  A record is admissible and
semistable by construction (see the contractions module), so the census
reads w0 = (1/d)(a1, a2, a3) off its lattice coordinates
(`lattices._coordinates`), (e*a1, k*e*a3, (a3 - a*a1)/d) with e = n/d,
which are integers (membership) and coprime (primitivity).  As
a2 = k*n*a3 - a1 and gcd(a1, a2, a3) = 1, gcd(a1, a3) = 1.  So:

  * d | n: a prime of d and a1 would divide a2 (as d | a1 + a2) and a3 (as
    d | a3 - a*a1), so gcd(a1, d) = 1, and d | n*a1 gives d | n.
  * the origin weight a1^(-1)*a3 mod d is b = a mod d, as a3 = a*a1 (mod d),
    and a unit, as gcd(a, n) = 1.
  * a corner weight c is integral, being a coordinate, and a unit mod r.
    At (1:0:0:0), r = e*a1: a prime of a1 and c divides a3, against
    gcd(a1, a3) = 1, and a prime of e and c divides all three coordinates,
    against primitivity.  (0:1:0:0) reads the mirrored weight (a2, a1, a3)
    in the lattice of (1/n)(1,-1,-a), with coordinates (e*a2, k*e*a3,
    (a3 + a*a2)/d): a2 plays a1's part, and (a3 + a*a2)/d =
    (a3 - a*a1)/d + a*k*e*a3 agrees with the first c mod e.

The census expects the perturbation in the reduced shape

    t*g = sum_i  b_i(t) * z^(i*n) * t^((k-i)*e*a3),     0 <= i <= k-1,

with b_i a polynomial tail in t.  (A coordinate change can always empty the
i = k-1 column, but every census formula below is valid verbatim with it
present, so it is accepted.)  Anything outside this grid raises
UnsupportedForm: reducing general g to the shape takes an analytic
coordinate change this library does not perform, and refusing is sound
while guessing is not.

With c_i = b_i(0), the t-chart of the exceptional divisor is

    U = (x'y' + h(z') = 0) in (1/d)(a1, a2, a3),
    h(z') = P(z'^n),  P(u) = u^k + sum_i c_i * u^i,

and the census reads off three kinds of points:

  * interior: one A_(l-1) entry for each multiplicity l >= 2 of h, counted
    by the degree of the multiplicity-l squarefree factor (= roots in the
    algebraic closure, conjugate roots grouped in one entry).  h is never
    built: P = u^l_fibre * Q with Q(0) != 0, and u = z'^n is unramified
    away from 0, so a Yun factor (deg, l) of Q gives n*deg roots of
    multiplicity l; z' = 0 has multiplicity l_fibre*n.  When d > 1 it
    belongs to the origin entry instead, and the nonzero roots fall in
    mu_d-orbits of size d.
  * origin (d > 1 only): the chart origin is a quotient germ
    (xy + z^(l*n) = 0) in (1/d)(1,-1,b), itself of fibre type
    (k', n', a') = (l*e, d, b).  The surface reading uses the least l with
    c_l != 0; the series reading (least i with b_i != 0) is reported
    alongside and a divergence between the two is flagged.
  * corners: (1:0:0:0) and (0:1:0:0) carry the pair germs
    (xy = 0) in 1/(e*a1)(1,-1,(a3-a*a1)/d) and
    (xy = 0) in 1/(e*a2)(1,-1,(a3+a*a2)/d).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .contractions import ContractionRecord
from .errors import DomainRejection, UnsupportedForm
from .lattices import _coordinates, fibre_quotient
from .polynomials import squarefree_multiplicities


class ReducedPerturbation(NamedTuple):
    """Leading data of a reduced perturbation: c_i = b_i(0) and the l-indices."""

    k: int
    n: int
    e: int
    c: tuple[tuple[int, Fraction], ...]  # (i, c_i) with c_i != 0, ascending i
    l_series: int | None  # least i with b_i != 0 as a (truncated) series
    caveat: str | None

    @property
    def l_fibre(self) -> int:
        """Least i with c_i != 0; k when every c_i vanishes (h = z^(k*n))."""
        return self.c[0][0] if self.c else self.k


def reduced_g_coefficients(record: ContractionRecord) -> ReducedPerturbation:
    """The c_i and the series index of the record's perturbation.

    Raises DomainRejection outside case T, and UnsupportedForm when t*g has
    monomials off the reduced grid: x or y, or z^kz with kz > (k-1)*n (n
    divides kz, as t*g is invariant and a is a unit mod n).
    """
    germ = record.germ
    if germ.case != "T":
        raise DomainRejection("census templates cover only the xy + z^(k*n) family")
    k, n = germ.k, germ.n
    e = n // record.w0.denominator  # d divides n for an admissible w0
    a3 = record.w0.numerators[2]
    i_max = k - 1

    c: dict[int, Fraction] = {}
    columns = set()  # the i with b_i != 0: each monomial is a distinct term of its b_i
    for (i, j, kz, l), coeff in germ.tg.items():
        if i or j:
            raise UnsupportedForm(
                f"monomial with exponents {(i, j, kz, l)} involves x or y; "
                "the census needs the reduced shape t*g = sum b_i z^(i*n) t^((k-i)*e*a3)"
            )
        idx = kz // n
        if idx > i_max:
            raise UnsupportedForm(
                f"z-exponent {kz} exceeds the reduced bound {i_max}*{n}"
            )
        columns.add(idx)
        if l == (k - idx) * e * a3:  # weight w(f), the least; kz = idx*n, so one monomial
            c[idx] = coeff

    c_items = tuple(sorted(c.items()))
    caveat = None
    if germ.tg.is_zero:
        caveat = "perturbation is zero to the supplied order"
    elif not c_items:
        caveat = "every leading coefficient b_i(0) vanishes in the supplied terms"
    return ReducedPerturbation(
        k=k, n=n, e=e, c=c_items,
        l_series=min(columns) if columns else None,
        caveat=caveat,
    )


class InteriorEntry(NamedTuple):
    """deg-many A_(l-1) points (roots counted in the algebraic closure)."""

    l: int
    count: int

    @property
    def type_label(self) -> str:
        return f"A{self.l - 1}"

    def to_json(self) -> dict:
        return {"type": self.type_label, "count": self.count, "l": self.l}


def _interior(record: ContractionRecord, red: ReducedPerturbation) -> tuple[InteriorEntry, ...]:
    """A-type points of the t-chart away from its quotient origin.

    Multiple roots of h(z') of multiplicity l give A_(l-1) points, read off
    Q(u) = P(u)/u^l_fibre; for d > 1 the z' = 0 root is the origin entry's.
    """
    l_fib = red.l_fibre
    q = [0] * (red.k - l_fib) + [1]
    for i, value in red.c:
        q[i - l_fib] = value
    counts = {mult: red.n * degree for degree, mult in squarefree_multiplicities(q)}
    if record.w0.denominator == 1 and l_fib:
        counts[l_fib * red.n] = counts.get(l_fib * red.n, 0) + 1
    return tuple(InteriorEntry(l=mult, count=count)
                 for mult, count in sorted(counts.items()) if mult >= 2)


class OriginEntry(NamedTuple):
    """Quotient-deformation germ at the origin of the t-chart (index case d > 1)."""

    index: int  # d
    b: int
    z_power: int  # l_fibre * n
    quotient: tuple[int, int, int]  # fibre type (k', n', a') = (l_fibre*e, d, b)
    r: int
    q: int
    l_fibre: int
    l_series: int | None
    divergent: bool
    deformation: str
    caveat: str | None

    def to_json(self) -> dict:
        return {
            "surface": {
                "equation": f"xy + z^{self.z_power} = 0",
                "index": self.index,
                "weights": [1, -1, self.b],
            },
            "quotient": {
                "k": self.quotient[0],
                "n": self.quotient[1],
                "a": self.quotient[2],
                "r": self.r,
                "q": self.q,
            },
            "l_fibre": self.l_fibre,
            "l_series": self.l_series,
            "divergent": self.divergent,
            "deformation": self.deformation,
            "caveat": self.caveat,
        }


def _origin(record: ContractionRecord, red: ReducedPerturbation) -> OriginEntry | None:
    """Quotient germ at the chart origin; None when it is smooth.  The caller ensures d > 1."""
    d = record.w0.denominator
    l_fib = red.l_fibre
    if l_fib == 0:
        return None  # c_0 != 0: the chart origin misses the surface
    b = record.germ.a % d  # a1^(-1)*a3 = a (mod d) on the lattice
    k_prime, n_prime, a_prime = l_fib * red.e, d, b
    r, q = fibre_quotient(k_prime, n_prime, a_prime)
    l_show = red.l_series if red.l_series is not None else l_fib
    deformation = (
        f"xy + z^{l_show * red.n} + t*g(z^{d}, t) = 0  in  (1/{d})(1,-1,{b},0)"
    )
    return OriginEntry(
        index=d,
        b=b,
        z_power=l_fib * red.n,
        quotient=(k_prime, n_prime, a_prime),
        r=r,
        q=q,
        l_fibre=l_fib,
        l_series=red.l_series,
        divergent=red.l_series is not None and red.l_series != l_fib,
        deformation=deformation,
        caveat=red.caveat,
    )


class CornerEntry(NamedTuple):
    """Pair germ (xy = 0) in (1/r)(1,-1,c) at a coordinate point of E."""

    point: str
    r: int
    c: int

    @property
    def smooth(self) -> bool:
        return self.r == 1

    def to_json(self) -> dict:
        return {
            "point": self.point,
            "r": self.r,
            "weights": [1, -1, self.c],
            "equation": "xy = 0",
            "smooth": self.smooth,
        }


def _corners(record: ContractionRecord) -> tuple[CornerEntry, CornerEntry]:
    """The corner quotients at (1:0:0:0) and (0:1:0:0), from lattice coordinates of w0."""
    a1, a2, a3 = record.w0.numerators
    d = record.w0.denominator
    n, a = record.germ.n, record.germ.a
    r1, _, c1 = _coordinates(n, a, (a1, a2, a3), d)
    r2, _, c2 = _coordinates(n, -a, (a2, a1, a3), d)
    return (
        CornerEntry(point="(1:0:0:0)", r=r1, c=c1 % r1),
        CornerEntry(point="(0:1:0:0)", r=r2, c=c2 % r2),
    )


class SingularityCensus(NamedTuple):
    interior: tuple[InteriorEntry, ...]
    origin: OriginEntry | None
    corners: tuple[CornerEntry, CornerEntry]

    def to_json(self) -> dict:
        return {
            "interior": [entry.to_json() for entry in self.interior],
            "origin": self.origin.to_json() if self.origin else None,
            "corners": [corner.to_json() for corner in self.corners],
        }


def census(record: ContractionRecord) -> SingularityCensus:
    """Full census of the family along E: interior A-points, origin germ, corners."""
    red = reduced_g_coefficients(record)
    return SingularityCensus(
        interior=_interior(record, red),
        origin=_origin(record, red) if record.w0.denominator > 1 else None,
        corners=_corners(record),
    )
