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

    sum(blowup weights) - valuation(f + t*g) - 1,

the adjunction value for a hypersurface inside a weighted blowup; it is
cross-checked against the index-one cover (see the cover module) and the
rank-2 toric picture (see the resolution module).

Everything per weight runs on integers.  The scan walks the one residue
class of a1 that the lattice congruence allows, and valuations are compared
scaled by the weight denominator d (see the polynomials module): lambda,
the semistability test, its witness, the graded piece at lambda - 1 and
the discrepancy.  `Fraction(scaled, d)` is built only when a record is
assembled.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .errors import DomainRejection, InternalError, NonAdmissibleWeight, SemistabilityViolation
from .germs import GermSpec, normal_form
from .lattices import (
    QuotientLattice,
    WeightVector,
    divisors,
    fraction_to_str,
    ratio_to_str,
    weight_in_lattice,
    weight_is_primitive,
)
from .polynomials import (
    SparsePoly,
    format_poly,
    is_homogeneous,
    min_weight_monomial,
    poly_to_json,
    scaled_graded_piece,
    scaled_valuation,
)


def admissible_weights_T(n: int, a: int, k: int, bound) -> list[WeightVector]:
    """All admissible case-T weights with max entry (1/d)*a_i <= bound.

    For every divisor d of n, scans the positive solutions of
    a1 + a2 = k*n*a3 with entries <= d*bound.  Lattice membership of
    (a1, a2, a3)/d is a3 = a*a1 (mod d) once d | a1 + a2, so a1 only runs
    over the residue class a^(-1)*a3 mod d; coprime candidates that are
    primitive in Z^3 + Z*(1/n)(1,-1,a) are kept.  Exhaustive within the
    bound; sorted lexicographically as rational vectors, through the exact
    integer key n*(a1, a2, a3)/d.
    """
    if n < 1 or gcd(a, n) != 1:
        raise ValueError(f"invalid quotient data n={n}, a={a}")
    if k < 1:
        raise ValueError("k must be a positive integer")
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    lattice = QuotientLattice(n, a)
    found = []
    for d in divisors(n):
        e = n // d
        cap = int(d * bound)  # entries a_i <= d*bound
        a_inverse = pow(a, -1, d)
        for a3 in range(1, cap + 1):
            total = k * n * a3
            low = max(1, total - cap)  # a2 = total - a1 <= cap
            start = low + (a_inverse * a3 - low) % d
            for a1 in range(start, min(cap, total - 1) + 1, d):
                a2 = total - a1
                if gcd(a1, a2, a3) != 1:
                    continue
                w = WeightVector((a1, a2, a3), d)
                if weight_is_primitive(lattice, w):
                    found.append(((e * a1, e * a2, e * a3), w))
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
        if m is None or m < 4:
            raise ValueError("case D needs m >= 4")
        w = WeightVector((m - 1, m - 2, 2))
    elif case in _DE_TABLE:
        w = WeightVector(_DE_TABLE[case])
    else:
        raise ValueError(f"no fixed weights for case {case!r}")
    homogeneous, _ = is_homogeneous(w, normal_form(case, 1, None, m))
    if not homogeneous:
        raise InternalError(f"the {case} normal form is not homogeneous for {w}")
    return w


def is_admissible(germ: GermSpec, w0: WeightVector) -> tuple[bool, str | None]:
    """Whether w0 is an admissible blowup weight for the germ; returns (ok, reason)."""
    if germ.case == "N":
        return False, (
            "non-normal fibre germs admit no contraction enumeration; "
            "the classification assumes a normal special fibre"
        )
    if germ.case == "T":
        a1, a2, a3 = w0.numerators
        if a1 + a2 != germ.k * germ.n * a3:
            return False, (
                f"f is not homogeneous for {w0}: "
                f"{a1} + {a2} != {germ.k * germ.n} * {a3}"
            )
        lattice = germ.weight_lattice
        if not weight_in_lattice(lattice, w0):
            return False, f"{w0} does not lie in Z^3 + Z*(1/{germ.n})(1,-1,{germ.a})"
        if not weight_is_primitive(lattice, w0):
            return False, f"{w0} is imprimitive in the extended lattice"
        return True, None
    expected = fixed_weights_DE(germ.case, germ.m)
    if w0 != expected:
        return False, f"case {germ.case} admits only w0 = {expected}"
    return True, None


class ContractionRecord(NamedTuple):
    """One weighted blowup of a germ, with its exceptional divisor data.

    E lives in the weighted projective space P(a1, a2, a3, d) and is cut out
    by f(X, Y, Z) + T * g_(lam-1)(X, Y, Z, T), where g_(lam-1) is the graded
    piece of g in weight lam - 1 (possibly zero) and lam = w(f).
    """

    germ: GermSpec
    w0: WeightVector
    lam: Fraction
    discrepancy: Fraction
    ambient: tuple[int, int, int, int]
    E_equation: SparsePoly
    semistable_ok: bool
    contraction_status: str

    def to_json(self) -> dict:
        return {
            "germ": self.germ.to_json(),
            "w0": self.w0.to_json(),
            "lambda": fraction_to_str(self.lam),
            "discrepancy": fraction_to_str(self.discrepancy),
            "ambient": list(self.ambient),
            "E_equation": poly_to_json(self.E_equation),
            "E_equation_str": format_poly(self.E_equation, ("X", "Y", "Z", "T")),
            "semistable_ok": self.semistable_ok,
            "contraction_status": self.contraction_status,
        }


def build_contraction(germ: GermSpec, w0: WeightVector) -> ContractionRecord:
    """Assemble the contraction record for an admissible weight.

    Raises NonAdmissibleWeight for a weight `is_admissible` refuses, and
    rejects the pair when w(t*g) < w(f): the witnessing monomial is carried
    on the raised SemistabilityViolation.
    """
    ok, reason = is_admissible(germ, w0)
    if not ok:
        raise NonAdmissibleWeight(reason)
    d = w0.denominator
    lam_scaled = scaled_valuation(w0, germ.f)
    if germ.tg.is_zero:
        piece = SparsePoly()
    else:
        tg_scaled = scaled_valuation(w0, germ.tg)
        if tg_scaled < lam_scaled:
            exp, coeff = min_weight_monomial(w0, germ.tg)
            raise SemistabilityViolation(
                f"w(t*g) = {ratio_to_str(tg_scaled, d)} < "
                f"w(f) = {ratio_to_str(lam_scaled, d)}; "
                f"witness monomial {format_poly(SparsePoly.monomial(exp, coeff))}",
                witness=exp,
            )
        piece = scaled_graded_piece(w0, germ.g, lam_scaled - d)  # weight lam - 1
    # d times the discrepancy sum(w0, 1) - w(f + t*g) - 1; the 1s cancel
    discrepancy_scaled = sum(w0.numerators) - scaled_valuation(w0, germ.equation)
    if discrepancy_scaled <= 0:
        raise DomainRejection(
            f"discrepancy {ratio_to_str(discrepancy_scaled, d)} is not positive; "
            "the pair is not terminal"
        )
    return ContractionRecord(
        germ=germ,
        w0=w0,
        lam=Fraction(lam_scaled, d),
        discrepancy=Fraction(discrepancy_scaled, d),
        ambient=(*w0.numerators, d),
        E_equation=germ.f + piece.times_t(),
        semistable_ok=True,
        contraction_status="divisorial-contraction" if germ.rho_one else "pending-rho",
    )


def enumerate_contractions(germ: GermSpec, bound=None):
    """All contraction records of the germ within the bound.

    Returns (records, rejected) where rejected lists the admissible weights
    whose blowup fails semistability, with the witnessing monomial.  Case T
    needs a bound; D and E germs have a single record and ignore it.
    """
    if germ.case == "N":
        raise DomainRejection(
            "non-normal fibre germs admit no contraction enumeration; "
            "the classification assumes a normal special fibre"
        )
    if germ.case == "T":
        if bound is None:
            raise ValueError("case-T enumeration needs a bound")
        weights = admissible_weights_T(germ.n, germ.a, germ.k, bound)
    else:
        weights = [fixed_weights_DE(germ.case, germ.m)]
    records, rejected = [], []
    for w in weights:
        try:
            records.append(build_contraction(germ, w))
        except SemistabilityViolation as exc:
            rejected.append((w, exc.witness))
    # weights arrive sorted, so a stable sort by lambda orders by (lambda, w0)
    records.sort(key=lambda r: r.lam)
    return records, rejected
