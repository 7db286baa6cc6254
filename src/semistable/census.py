"""Singularity census of the blown-up family along the exceptional divisor.

Only case T carries census templates.  Write n = d*e with d the weight
denominator.  The census expects the perturbation in the reduced shape

    t*g = sum_i  b_i(t) * z^(i*n) * t^((k-i)*e*a3),     0 <= i <= k-1,

with b_i a polynomial tail in t.  (A coordinate change can always empty the
i = k-1 column, but every census formula below is valid verbatim with it
present, so it is accepted.)  Anything outside this grid raises
UnsupportedForm: reducing general g to the shape takes an analytic
coordinate change this library does not perform, and refusing is sound
while guessing is not.

With c_i = b_i(0), the t-chart of the exceptional divisor is

    U = (x'y' + h(z') = 0) in (1/d)(a1, a2, a3),
    h(z') = z'^(k*n) + sum_i c_i * z'^(i*n),

and the census reads off three kinds of points:

  * interior: one A_(l-1) entry for each multiplicity l >= 2 of h, counted
    by the degree of the multiplicity-l squarefree factor (= roots in the
    algebraic closure, conjugate roots grouped in one entry).  When d > 1
    the z' = 0 root belongs to the origin entry instead, and the nonzero
    roots fall in mu_d-orbits of size d.
  * origin (d > 1 only): the chart origin is a quotient germ
    (xy + z^(l*n) = 0) in (1/d)(1,-1,b), b = a1^(-1) * a3 mod d, itself of
    fibre type (k', n', a') = (l*e, d, b).  The surface reading uses the
    least l with c_l != 0; the series reading (least i with b_i != 0) is
    reported alongside and a divergence between the two is flagged.
  * corners: (1:0:0:0) and (0:1:0:0) carry the pair germs
    (xy = 0) in 1/(e*a1)(1,-1,(a3-a*a1)/d) and
    (xy = 0) in 1/(e*a2)(1,-1,(a*a2+a3)/d); both fractions are integral for
    every admissible weight (checked, as an internal invariant).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .contractions import ContractionRecord
from .errors import DomainRejection, InternalError, UnsupportedForm
from .lattices import fibre_quotient
from .polynomials import squarefree_multiplicities


class ReducedPerturbation(NamedTuple):
    """Leading data of a reduced perturbation: c_i = b_i(0), t-orders of b_i, l-indices."""

    k: int
    n: int
    e: int
    a3: int
    c: tuple[tuple[int, Fraction], ...]  # (i, c_i) with c_i != 0, ascending i
    series_orders: tuple[tuple[int, int], ...]  # (i, ord_t b_i) for b_i != 0
    l_series: int | None  # least i with b_i != 0 as a (truncated) series
    caveat: str | None

    @property
    def l_fibre(self) -> int:
        """Least i with c_i != 0; k when every c_i vanishes (h = z^(k*n))."""
        return self.c[0][0] if self.c else self.k

    def chart_polynomial(self) -> list[Fraction]:
        """Coefficients of h(z') = z'^(k*n) + sum c_i z'^(i*n), constant term first."""
        h = [Fraction(0)] * (self.k * self.n) + [Fraction(1)]
        for i, value in self.c:
            h[i * self.n] = value
        return h


def reduced_g_coefficients(record: ContractionRecord) -> ReducedPerturbation:
    """Extract the c_i and series orders from a reduced-shape perturbation.

    Raises UnsupportedForm when t*g has monomials off the reduced grid
    (involving x or y, or z-exponents that are not i*n with i <= k-1).  No
    t-exponent lies below the grid: a record has w(t*g) >= w(f).
    """
    germ = record.germ
    if germ.case != "T":
        raise DomainRejection("census templates cover only the xy + z^(k*n) family")
    k, n = germ.k, germ.n
    d = record.w0.denominator
    if n % d:
        raise InternalError(f"the weight denominator {d} must divide the index {n}")
    e = n // d
    a3 = record.w0.numerators[2]
    i_max = k - 1

    c: dict[int, Fraction] = {}
    orders: dict[int, int] = {}
    for (i, j, kz, l), coeff in germ.tg.items():
        if i or j:
            raise UnsupportedForm(
                f"monomial with exponents {(i, j, kz, l)} involves x or y; "
                "the census needs the reduced shape t*g = sum b_i z^(i*n) t^((k-i)*e*a3)"
            )
        if kz % n != 0:
            raise UnsupportedForm(
                f"z-exponent {kz} is off the z^{n} grid of the reduced shape"
            )
        idx = kz // n
        if idx > i_max:
            raise UnsupportedForm(
                f"z-exponent {kz} exceeds the reduced bound {i_max}*{n}"
            )
        t_min = (k - idx) * e * a3  # w(z^kz * t^l) >= w(f) in a record
        if l < t_min:
            raise InternalError(f"monomial z^{kz}*t^{l} of a record lies below w(f)")
        order = l - t_min  # b_idx = sum coeff * t^(l - t_min)
        if idx not in orders or order < orders[idx]:
            orders[idx] = order
        if l == t_min:
            c[idx] = c.get(idx, Fraction(0)) + coeff

    c_items = tuple(sorted((i, v) for i, v in c.items() if v != 0))
    caveat = None
    if germ.tg.is_zero:
        caveat = "perturbation is zero to the supplied order"
    elif not c_items:
        caveat = "every leading coefficient b_i(0) vanishes in the supplied terms"
    return ReducedPerturbation(
        k=k, n=n, e=e, a3=a3, c=c_items,
        series_orders=tuple(sorted(orders.items())),
        l_series=min(orders) if orders else None,
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

    Multiple roots of h(z') of multiplicity l give A_(l-1) points; for d > 1
    the z' = 0 root is stripped first (it is the origin entry's business).
    """
    h = red.chart_polynomial()
    if record.w0.denominator > 1:
        h = h[red.l_fibre * red.n:]  # z'^(l_fibre*n) is the least power of z' in h
    return tuple(  # Yun yields the multiplicities in ascending order
        InteriorEntry(l=mult, count=degree)
        for degree, mult in squarefree_multiplicities(h)
        if mult >= 2
    )


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
    germ = record.germ
    a1, _, a3 = record.w0.numerators
    b = (pow(a1, -1, d) * a3) % d
    if gcd(b, d) != 1:
        raise InternalError(f"origin weight b={b} must be a unit mod {d}")
    k_prime, n_prime, a_prime = l_fib * red.e, d, b
    r, q = fibre_quotient(k_prime, n_prime, a_prime)
    l_show = red.l_series if red.l_series is not None else l_fib
    deformation = (
        f"xy + z^{l_show * germ.n} + t*g(z^{d}, t) = 0  in  (1/{d})(1,-1,{b},0)"
    )
    return OriginEntry(
        index=d,
        b=b,
        z_power=l_fib * germ.n,
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


def corner_singularities(record: ContractionRecord) -> tuple[CornerEntry, CornerEntry]:
    """The two corner quotients at (1:0:0:0) and (0:1:0:0)."""
    germ = record.germ
    if germ.case != "T":
        raise DomainRejection("corner templates cover only the xy + z^(k*n) family")
    a1, a2, a3 = record.w0.numerators
    d = record.w0.denominator
    e = germ.n // d
    a = germ.a
    corners = []
    for point, r, numerator in (
        ("(1:0:0:0)", e * a1, a3 - a * a1),
        ("(0:1:0:0)", e * a2, a * a2 + a3),
    ):
        if numerator % d:
            raise InternalError("corner weight must be integral for admissible w0")
        c = (numerator // d) % r if r > 1 else 0
        if r > 1 and gcd(c, r) != 1:
            raise InternalError(f"corner weight {c} must be a unit mod {r}")
        corners.append(CornerEntry(point=point, r=r, c=c))
    return corners[0], corners[1]


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
        corners=corner_singularities(record),
    )
