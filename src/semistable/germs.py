"""Normal forms of one-parameter smoothing germs and their fibre singularities.

A germ is a hypersurface family  (f(x,y,z) + t*g(x,y,z,t) = 0)  inside the
cyclic quotient 1/n(1,-1,a,0), with t the base-curve parameter.  The normal
fibre cases are:

    T      f = xy + z^(k*n),  n arbitrary, gcd(a, n) = 1
    D_m    f = x^2 + y^2*z + z^(m-1),  m >= 4,  index 1
    E6     f = x^2 + y^3 + z^4,  index 1
    E7     f = x^2 + y^3 + y*z^3,  index 1
    E8     f = x^2 + y^3 + z^5,  index 1

There is also the non-normal-fibre germ

    N      f = xy,  n arbitrary, gcd(a, n) = 1,

whose special fibre (xy = 0) is a pair of planes; the validator accepts it
for classification display, but it admits no contraction enumeration (the
classification assumes a normal fibre).

The validator takes inputs already in normal form; it performs no analytic
coordinate changes.  Case T with a "-" sign on z^(k*n) is accepted and
normalized to "+" (the two presentations agree after a unit rescaling of z
over an algebraically closed field).  The fibre of a case-T germ is the
cyclic quotient surface  A^2_{u,v} / (1/(k*n^2))(1, k*n*a - 1)  under the
monomial dictionary x = u^(kn), y = v^(kn), z = uv.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd

from .errors import GermRejection, InternalError
from .lattices import QuotientLattice
from .polynomials import SparsePoly, is_mu_n_invariant, poly_from_json, poly_to_json

CASES = ("T", "D", "E6", "E7", "E8", "N")

_E_FORMS = {
    "E6": {(2, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 4, 0): 1},
    "E7": {(2, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 1, 3, 0): 1},
    "E8": {(2, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 5, 0): 1},
}


def normal_form(case: str, n: int = 1, k: int | None = None, m: int | None = None) -> SparsePoly:
    """The fibre equation f for the given case, as a 4-variable polynomial."""
    if case == "T":
        return SparsePoly({(1, 1, 0, 0): 1, (0, 0, k * n, 0): 1}, dim=4)
    if case == "N":
        return SparsePoly({(1, 1, 0, 0): 1}, dim=4)
    if case == "D":
        return SparsePoly({(2, 0, 0, 0): 1, (0, 2, 1, 0): 1, (0, 0, m - 1, 0): 1}, dim=4)
    if case in _E_FORMS:
        return SparsePoly(_E_FORMS[case], dim=4)
    raise ValueError(f"unknown case {case!r}")


@dataclass(frozen=True)
class GermSpec:
    """A validated germ: index n, action weight a on z, case data, perturbation t*g.

    f, g and the equation f + t*g are built once per germ, on first use.
    """

    n: int
    a: int
    case: str
    k: int | None
    m: int | None
    tg: SparsePoly
    rho_one: bool = False

    @cached_property
    def f(self) -> SparsePoly:
        return normal_form(self.case, self.n, self.k, self.m)

    @cached_property
    def g(self) -> SparsePoly:
        return SparsePoly(
            {(i, j, kz, l - 1): c for (i, j, kz, l), c in self.tg.items()}, dim=4
        )

    @cached_property
    def equation(self) -> SparsePoly:
        """The total-space equation f + t*g."""
        return self.f + self.tg

    @property
    def weight_lattice(self) -> QuotientLattice:
        return QuotientLattice(3, self.n, self.a)

    @property
    def character_lattice(self) -> QuotientLattice:
        return QuotientLattice(4, self.n, self.a)

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "a": self.a,
            "case": self.case,
            "g": poly_to_json(self.g),
            "rho_one": self.rho_one,
        }
        if self.k is not None:
            out["k"] = self.k
        if self.m is not None:
            out["m"] = self.m
        return out


def _parse_raw(raw) -> GermSpec:
    if not isinstance(raw, dict):
        raise GermRejection("germ input must be a JSON object")
    try:
        n = int(raw["n"])
        a = int(raw["a"])
        case = str(raw["case"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GermRejection(f"malformed germ input: {exc}") from None
    k = int(raw["k"]) if raw.get("k") is not None else None
    m = int(raw["m"]) if raw.get("m") is not None else None
    sign = raw.get("sign", "+")
    if sign not in ("+", "-"):
        raise GermRejection(f"sign must be '+' or '-', got {sign!r}")
    g_data = raw.get("g", [])
    try:
        g = poly_from_json(g_data, dim=4)
    except (KeyError, TypeError, ValueError) as exc:
        raise GermRejection(f"malformed perturbation g: {exc}") from None
    rho_one = bool(raw.get("rho_one", False))
    return GermSpec(n=n, a=a, case=case, k=k, m=m, tg=g.times_t(), rho_one=rho_one)


def validate_germ(raw) -> GermSpec:
    """Validate a raw germ (JSON-shaped dict or GermSpec) against the normal forms.

    Checks gcd(a, n) = 1, the case parameters, that the perturbation enters
    only through t*g, and that f + t*g is invariant under the 1/n(1,-1,a,0)
    action.  Isolatedness is not decided here (see isolatedness_probe); a
    validated germ carries it as asserted.  Idempotent on valid input.
    """
    germ = raw if isinstance(raw, GermSpec) else _parse_raw(raw)

    if germ.n < 1:
        raise GermRejection(f"index n must be positive, got {germ.n}")
    if gcd(germ.a, germ.n) != 1:
        raise GermRejection(f"gcd(a, n) must be 1, got a={germ.a}, n={germ.n}")
    a = germ.a % germ.n if germ.n > 1 else 0
    if germ.case not in CASES:
        raise GermRejection(f"case must be one of {CASES}, got {germ.case!r}")
    if germ.case == "T":
        if germ.k is None or germ.k < 1:
            raise GermRejection("case T needs an integer k >= 1")
    elif germ.case != "N":
        if germ.n != 1:
            raise GermRejection(f"case {germ.case} exists only at index 1")
        if germ.case == "D" and (germ.m is None or germ.m < 4):
            raise GermRejection("case D needs an integer m >= 4")
        if germ.case != "D" and germ.m is not None:
            raise GermRejection(f"case {germ.case} takes no parameter m")
    if germ.case != "T" and germ.k is not None:
        raise GermRejection(f"case {germ.case} takes no parameter k")
    if germ.case == "N" and germ.m is not None:
        raise GermRejection("case N takes no parameter m")

    if germ.tg.dim != 4:
        raise GermRejection("the perturbation lives in (x, y, z, t)")
    for exp, _ in germ.tg.items():
        if exp[3] < 1:
            raise GermRejection(
                f"perturbation monomial {exp} is not divisible by t; "
                "it enters the germ only as t*g"
            )

    germ = replace(germ, a=a)
    lattice = germ.character_lattice
    if not is_mu_n_invariant(lattice, germ.tg):
        bad = next(
            e for e, _ in germ.tg.items()
            if (e[0] - e[1] + a * e[2]) % germ.n != 0
        )
        raise GermRejection(
            f"perturbation is not invariant: monomial {bad} has nonzero character"
        )
    if not is_mu_n_invariant(lattice, germ.f):
        raise InternalError(f"normal form of case {germ.case} is not mu_n-invariant")
    return germ


@dataclass(frozen=True)
class FibreQuotientData:
    """Cyclic quotient data of a case-T fibre: A^2/(1/r)(1, q) with its chart dictionary."""

    r: int
    q: int
    dictionary: tuple[tuple[str, tuple[int, int]], ...]

    @property
    def duval_label(self) -> str | None:
        if self.r == 1:
            return "smooth"
        if self.q == self.r - 1:
            return f"A{self.r - 1}"
        return None

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "q": self.q,
            "dictionary": {name: list(exp) for name, exp in self.dictionary},
            "duval_label": self.duval_label,
        }


def fibre_singularity(germ: GermSpec):
    """Singularity of the special fibre: quotient data for case T, a label otherwise."""
    if germ.case == "N":
        return "non-normal (xy = 0, two planes)"
    if germ.case == "T":
        kn = germ.k * germ.n
        r = germ.k * germ.n ** 2
        if r == 1:
            q = 0
        else:
            q = (germ.k * germ.n * germ.a - 1) % r
            if not (1 <= q < r and gcd(q, r) == 1):
                raise InternalError(f"fibre quotient 1/{r}(1,{q}) is not normalized")
        dictionary = (("x", (kn, 0)), ("y", (0, kn)), ("z", (1, 1)))
        return FibreQuotientData(r=r, q=q, dictionary=dictionary)
    if germ.case == "D":
        return f"D{germ.m}"
    return germ.case


# guards for the Groebner step; past these the probe just reports inconclusive
_PROBE_MAX_TERMS = 120
_PROBE_MAX_DEGREE = 60


def isolatedness_probe(germ: GermSpec, t_order: int | None = None) -> str:
    """One-sided isolatedness check on f + t*g.

    Returns "verified" only when the Jacobian ideal of the (optionally
    t-truncated) equation is certified zero-dimensional, so the total space
    has at worst finitely many singular points; otherwise "inconclusive".
    Never returns "false": a truncated or oversized input may hide
    isolatedness the probe cannot see.
    """
    F = germ.equation if t_order is None else germ.f + germ.tg.t_truncated(t_order)
    if len(F) > _PROBE_MAX_TERMS:
        return "inconclusive"
    if max(sum(e) for e, _ in F.items()) > _PROBE_MAX_DEGREE:
        return "inconclusive"

    import sympy

    symbols = sympy.symbols("x y z t")
    expr = sympy.Integer(0)
    for exp, coeff in F.items():
        mono = sympy.Integer(1)
        for s, e in zip(symbols, exp):
            mono *= s ** e
        expr += sympy.Rational(coeff.numerator, coeff.denominator) * mono
    system = [expr] + [sympy.diff(expr, s) for s in symbols]
    system = [p for p in system if p != 0]
    try:
        basis = sympy.groebner(system, *symbols, order="grevlex")
    except Exception:
        return "inconclusive"
    if any(p == 1 for p in basis.exprs):
        return "verified"  # empty singular locus
    return "verified" if basis.is_zero_dimensional else "inconclusive"
