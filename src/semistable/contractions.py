"""Admissible blowup weights, discrepancies, and contraction records.

A contraction of a germ (f + t*g = 0) in 1/n(1,-1,a,0) is the weighted
blowup of x, y, z, t with weights (w0, 1).  Case T admits every w0 that is
primitive in Z^3 + Z*(1/n)(1,-1,a) and makes f = xy + z^(k*n) homogeneous
(a1 + a2 = k*n*a3); there are infinitely many, so enumeration is exhaustive
only inside a user-supplied bound on max(a_i)/d.  The D and E cases each
admit exactly one weight vector:

    D_m  (m-1, m-2, 2)       E6  (6, 4, 3)
    E7   (9, 6, 4)           E8  (15, 10, 6)

The discrepancy of the exceptional divisor is

    sum(blowup weights) - valuation(f + t*g) - 1  =  sum(a_i)/d - lambda

for w0 = (1/d)(a1, a2, a3), the adjunction value for a hypersurface inside a
weighted blowup.  The two agree because f and t*g share no monomial (each
monomial of t*g has t-degree >= 1), so a semistable pair has valuation
lambda = w(f).  `verify_cover` recomputes the left side on the index-one
cover, and the resolution module matches it to the rank-2 toric picture.

A record is its germ and weight: lambda, the discrepancy, the ambient
P(a1, a2, a3, d) and E are read off them.  In case T, lambda = w(xy) =
(a1 + a2)/d = k*n*a3/d, so the discrepancy is a3/d, and d is its exact
denominator.  Lattice membership makes the coordinates
(n*a1, a1 + a2, a3 - a*a1)/d integers (see `lattices._coordinates`).  A
prime of d and a1 would then divide a2 and a3, against gcd(a1, a2, a3) = 1,
so a1 is a unit mod d and d | n.  So a, a unit mod n, is one mod d, and so
is a3 = a*a1 (mod d).  In the D and E cases w0 is integral and d = 1.  The
cover module builds on this.

A record is checked once, when it is built: `ContractionRecord(germ, w0)`
raises NonAdmissibleWeight for a weight `is_admissible` refuses and
SemistabilityViolation when w(t*g) < w(f), and `_replace`, `copy` and
`pickle` all build through it, so every record that exists is admissible
and semistable and no consumer checks it again.  One private decision,
`_decide`, grades t*g once per weight against the d*lambda it is handed:
the least (scaled weight, exponent) pair of t*g is both the verdict and
the witness of an unstable weight.  The constructor and enumeration share
it.  The constructor values f; case-T enumeration reads d*lambda = k*n*a3
off the weight and trusts its scan for admissibility (the scan builds each
weight it proved valid past `WeightVector`'s checks), so a rejected weight
formats no message and a passing one becomes a record that keeps its
d*lambda.  All of it runs on integers (valuations scaled by the weight
denominator d, see the polynomials module): records sort by the integer
lambda, and `to_json` writes lambda and the discrepancy from d*lambda.
`Fraction(scaled, d)` is built only where `lam` or `discrepancy` is read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .errors import DomainRejection, NonAdmissibleWeight, SemistabilityViolation
from .germs import GermSpec
from .lattices import (
    WeightVector,
    _Checked,
    _coordinates,
    _exact,
    ratio_to_str,
)
from .polynomials import (
    Exponent,
    SparsePoly,
    format_poly,
    min_weight_monomial,
    poly_to_json,
    scaled_graded_piece,
    scaled_valuation,
)


# Candidate (a1, a3) slots one case-T scan may visit; the 0.5 s runtime gate
# admissible_weights_T(5, 2, 1, 160) needs at most 61,824 of them.
_MAX_SCAN = 100_000


def admissible_weights_T(n: int, a: int, k: int, bound) -> list[WeightVector]:
    """All admissible case-T weights with max entry (1/d)*a_i <= bound.

    For every divisor d = n/e of n with e <= 2*bound/k (no other d has a
    row, as k*n <= a1 + a2 <= 2*d*bound), scans the positive solutions of
    a1 + a2 = k*n*a3 with entries <= d*bound.  Lattice membership of
    (a1, a2, a3)/d is a3 = a*a1 (mod d) once d | a1 + a2, so a1 only runs
    over the residue class a^(-1)*a3 mod d.  Coprime entries make d the
    exact denominator, so no weight is found twice, and such a member is
    primitive iff its lattice coordinates (e*a1, k*e*a3, (a3 - a*a1)/d)
    (see `lattices._coordinates`) are coprime, i.e. iff
    gcd(e, (a3 - a*a1)/d) = 1.  Exhaustive within the bound; sorted
    lexicographically as rational vectors, through the exact integer key
    n*(a1, a2, a3)/d.  A scan past _MAX_SCAN raises DomainRejection.
    """
    n, a, k = (_exact(v, integral=True) for v in (n, a, k))
    if n < 1 or gcd(a, n) != 1:
        raise ValueError(f"invalid quotient data n={n}, a={a}")
    if k < 1:
        raise ValueError("k must be a positive integer")
    bound = Fraction(_exact(bound))
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    scans, work = [], 0
    for e in range(1, min(n, int(2 * bound / k)) + 1):
        if n % e == 0:
            d = n // e
            cap = int(d * bound)  # entries a_i <= d*bound
            rows = min(cap, 2 * cap // (k * n))  # k*n*a3 = a1 + a2 <= 2*cap
            work += rows * (cap // d + 1)
            if work > _MAX_SCAN:  # stop the walk: the range of e can be huge
                raise DomainRejection(
                    f"bound {bound} spans {work} candidates, over the limit {_MAX_SCAN}"
                )
            scans.append((d, e, cap, rows))
    found, proven = [], WeightVector._proven
    for d, e, cap, rows in scans:
        a_inverse = pow(a, -1, d)
        for a3 in range(1, rows + 1):
            total = k * n * a3
            low = max(1, total - cap)  # a2 = total - a1 <= cap
            start = low + (a_inverse * a3 - low) % d
            for a1 in range(start, min(cap, total - 1) + 1, d):
                a2 = total - a1
                # gcd(a1, a3) = gcd(a1, a2, a3), as a2 = k*n*a3 - a1.  Then the
                # coordinates (e*a1, k*e*a3, c3) are coprime iff gcd(e, c3) = 1:
                # a prime dividing a1 and c3 = (a3 - a*a1)/d also divides a3.
                # So the entries are positive and coprime and d is exact: the
                # weight is proven, and its checks are not run again.
                if gcd(a1, a3) == 1 and gcd(e, (a3 - a * a1) // d) == 1:
                    found.append(((e * a1, e * a2, e * a3), proven((a1, a2, a3), d)))
    found.sort(key=itemgetter(0))
    return [w for _, w in found]


_DE_TABLE = {
    "E6": (6, 4, 3),
    "E7": (9, 6, 4),
    "E8": (15, 10, 6),
}


def fixed_weights_DE(case: str, m: int | None = None) -> WeightVector:
    """The unique admissible weight vector for a D or E germ."""
    if case == "D":
        if m is None or _exact(m, integral=True) < 4:
            raise ValueError("case D needs m >= 4")
        w = WeightVector((m - 1, m - 2, 2))
    elif case in _DE_TABLE:
        w = WeightVector(_DE_TABLE[case])
    else:
        raise ValueError(f"no fixed weights for case {case!r}")
    return w


_NON_NORMAL = (
    "non-normal fibre germs admit no contraction enumeration; "
    "the classification assumes a normal special fibre"
)


def is_admissible(germ: GermSpec, w0: WeightVector) -> tuple[bool, str | None]:
    """Whether w0 is an admissible blowup weight for the germ; returns (ok, reason)."""
    if germ.case == "N":
        return False, _NON_NORMAL
    if germ.case == "T":
        a1, a2, a3 = w0.numerators
        if a1 + a2 != germ.k * germ.n * a3:
            return False, (
                f"f is not homogeneous for {w0}: "
                f"{a1} + {a2} != {germ.k * germ.n} * {a3}"
            )
        coordinates = _coordinates(germ.n, germ.a, w0.numerators, w0.denominator)
        if coordinates is None:
            return False, f"{w0} does not lie in Z^3 + Z*(1/{germ.n})(1,-1,{germ.a})"
        if gcd(*coordinates) != 1:
            return False, f"{w0} is imprimitive in the extended lattice"
        return True, None
    expected = fixed_weights_DE(germ.case, germ.m)
    if w0 != expected:
        return False, f"case {germ.case} admits only w0 = {expected}"
    return True, None


def _decide(germ: GermSpec, w0: WeightVector, scaled_lam: int) -> tuple[int, Exponent] | None:
    """None when w(t*g) >= w(f) = scaled_lam/d, else the witness (d*w(t*g), exponent).

    w0 is trusted to be admissible and scaled_lam to be d*w(f).  t*g is graded
    once: its least (scaled weight, exponent) pair, `min_weight_monomial`'s,
    is both the verdict and the witness.
    """
    if germ.tg.is_zero:
        return None
    lowest = min_weight_monomial(w0, germ.tg)
    return lowest if lowest[0] < scaled_lam else None


class _ContractionFields(NamedTuple):
    germ: GermSpec
    w0: WeightVector


class ContractionRecord(_Checked, _ContractionFields):
    """The weighted blowup of a germ with weights (w0, 1), and its exceptional divisor.

    E lives in the weighted projective space P(a1, a2, a3, d) and is cut out
    by f(X, Y, Z) + T * g_(lam-1)(X, Y, Z, T), where g_(lam-1) is the graded
    piece of g in weight lam - 1 (possibly zero) and lam = w(f).  d*lam and
    d*discrepancy are kept when the record is built, and E on first use, in
    the instance __dict__ (so this subclass declares no __slots__), which
    equality and hashing never read.  Construction checks the pair:
    NonAdmissibleWeight for a weight `is_admissible` refuses,
    SemistabilityViolation (with the witness monomial) when w(t*g) < w(f).
    """

    _scaled_lam: int  # d * lam
    _scaled_discrepancy: int  # d * discrepancy = sum(a_i) - d*lam, as w(f + t*g) = lam

    def __new__(cls, germ: GermSpec, w0: WeightVector):
        ok, reason = is_admissible(germ, w0)
        if not ok:
            raise NonAdmissibleWeight(reason)
        scaled_lam = scaled_valuation(w0, germ.f)
        witness = _decide(germ, w0, scaled_lam)
        if witness is not None:
            d = w0.denominator
            scaled_tg, exp = witness
            raise SemistabilityViolation(
                f"w(t*g) = {ratio_to_str(scaled_tg, d)} < "
                f"w(f) = {ratio_to_str(scaled_lam, d)}; "
                f"witness monomial {format_poly(SparsePoly.monomial(exp, germ.tg._terms[exp]))}",
                witness=exp,
            )
        return cls._decided(germ, w0, scaled_lam)

    @classmethod
    def _decided(cls, germ: GermSpec, w0: WeightVector, scaled_lam: int) -> "ContractionRecord":
        """The record of a pair `_decide` found semistable, w0 admissible; keeps d*lam."""
        record = super().__new__(cls, germ, w0)
        record._scaled_lam = scaled_lam
        record._scaled_discrepancy = sum(w0.numerators) - scaled_lam
        return record

    @property
    def lam(self) -> Fraction:
        return Fraction(self._scaled_lam, self.w0.denominator)

    @property
    def discrepancy(self) -> Fraction:
        return Fraction(self._scaled_discrepancy, self.w0.denominator)

    @property
    def ambient(self) -> tuple[int, int, int, int]:
        return (*self.w0.numerators, self.w0.denominator)

    @cached_property
    def E_equation(self) -> SparsePoly:
        if self.germ.tg.is_zero:
            return self.germ.f
        piece = scaled_graded_piece(self.w0, self.germ.tg, self._scaled_lam)  # t * g_(lam-1)
        return self.germ.f + piece

    @property
    def contraction_status(self) -> str:
        return "divisorial-contraction" if self.germ.rho_one else "pending-rho"

    def to_json(self) -> dict:
        return self._json(self.germ.to_json(), *_E_json(self.E_equation))

    def _json(self, germ, E_equation, E_equation_str) -> dict:
        """`to_json` around the given germ and E entries, which `enumerate` renders once."""
        d = self.w0.denominator
        return {
            "germ": germ,
            "w0": self.w0.to_json(),
            "lambda": ratio_to_str(self._scaled_lam, d),
            "discrepancy": ratio_to_str(self._scaled_discrepancy, d),
            "ambient": list(self.ambient),
            "E_equation": E_equation,
            "E_equation_str": E_equation_str,
            "semistable_ok": True,  # an unstable weight has no record
            "contraction_status": self.contraction_status,
        }


def _E_json(E: SparsePoly) -> tuple[list[dict], str]:
    """The `E_equation` and `E_equation_str` entries of a record's JSON."""
    return poly_to_json(E), format_poly(E, ("X", "Y", "Z", "T"))


def build_contraction(germ: GermSpec, w0: WeightVector) -> ContractionRecord:
    """The contraction record of an admissible, semistable weight.

    Raises NonAdmissibleWeight for a weight `is_admissible` refuses, and
    SemistabilityViolation, carrying the witness monomial, when
    w(t*g) < w(f).
    """
    return ContractionRecord(germ, w0)


def enumerate_contractions(germ: GermSpec, bound=None):
    """All contraction records of the germ within the bound.

    Returns (records, rejected) where rejected lists the admissible weights
    whose blowup fails semistability, with the witnessing monomial.  Case T
    needs a bound; D and E germs have a single record and ignore it.
    """
    if germ.case == "N":
        raise DomainRejection(_NON_NORMAL)
    if germ.case == "T":
        if bound is None:
            raise ValueError("case-T enumeration needs a bound")
        kn = germ.k * germ.n  # d*lambda = a1 + a2 = k*n*a3, so f is not graded per weight
        decisions = [
            (w, kn * w.numerators[2])
            for w in admissible_weights_T(germ.n, germ.a, germ.k, bound)
        ]
    else:
        w = fixed_weights_DE(germ.case, germ.m)
        decisions = [(w, scaled_valuation(w, germ.f))]
    records, rejected = [], []
    for w, scaled_lam in decisions:  # admissible by construction; a rejection formats no message
        witness = _decide(germ, w, scaled_lam)
        if witness is None:
            records.append(ContractionRecord._decided(germ, w, scaled_lam))
        else:
            rejected.append((w, witness[1]))
    # Weights arrive sorted, so a stable sort by lambda orders by (lambda, w0).
    # lambda = d*lambda/d is an integer: k*e*a3 in case T, and d = 1 in D and E.
    records.sort(key=lambda r: r._scaled_lam // r.w0.denominator)
    return records, rejected
