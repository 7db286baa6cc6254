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

whose special fibre (xy = 0) is a pair of planes; GermSpec accepts it for
classification display, but it admits no contraction enumeration (the
classification assumes a normal fibre).

GermSpec takes germs already in normal form; it performs no analytic
coordinate changes.  The JSON reader accepts case T with a "-" sign on
z^(k*n) and normalizes it to "+" (the two presentations agree after a unit
rescaling of z over an algebraically closed field).  The fibre of a case-T
germ is the cyclic quotient surface  A^2_{u,v} / (1/(k*n^2))(1, k*n*a - 1)
under the monomial dictionary x = u^(kn), y = v^(kn), z = uv.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import NamedTuple

from .errors import GermRejection
from .lattices import QuotientLattice, _Checked, _exact, fibre_quotient, mu_n_character
from .polynomials import SparsePoly, poly_from_json, poly_to_json

CASES = ("T", "D", "E6", "E7", "E8", "N")

_E_FORMS = {
    "E6": {(2, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 4, 0): 1},
    "E7": {(2, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 1, 3, 0): 1},
    "E8": {(2, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 5, 0): 1},
}


def normal_form(case: str, n: int = 1, k: int | None = None, m: int | None = None) -> SparsePoly:
    """The fibre equation f for the given case, as a 4-variable polynomial."""
    n, k, m = (v if v is None else _exact(v, integral=True) for v in (n, k, m))
    if case == "T":
        return SparsePoly({(1, 1, 0, 0): 1, (0, 0, k * n, 0): 1})
    if case == "N":
        return SparsePoly({(1, 1, 0, 0): 1})
    if case == "D":
        return SparsePoly({(2, 0, 0, 0): 1, (0, 2, 1, 0): 1, (0, 0, m - 1, 0): 1})
    if case in _E_FORMS:
        return SparsePoly(_E_FORMS[case])
    raise ValueError(f"unknown case {case!r}")


class _GermFields(NamedTuple):
    n: int
    a: int
    case: str
    k: int | None
    m: int | None
    tg: SparsePoly
    rho_one: bool = False


class GermSpec(_Checked, _GermFields):
    """A germ in normal form: index n, action weight a on z, case data, perturbation t*g.

    The constructor takes ints (not bools) n, a, k, m, a SparsePoly tg and
    a bool rho_one (else TypeError).  It checks n >= 1, gcd(a, n) = 1, the
    case parameters, that t divides tg and that t*g is invariant under
    1/n(1,-1,a,0), as every normal form f is (else GermRejection), and
    stores a mod n.  Isolatedness is only asserted (see isolatedness_probe).

    f, g and the equation f + t*g are built once per germ, on first use.
    They are cached in the instance __dict__ (so this subclass declares no
    __slots__), which equality and hashing never read.
    """

    def __new__(cls, n, a, case, k, m, tg, rho_one=False):
        for value in (n, a, k, m):
            if value is not None:
                _exact(value, integral=True)
        if not isinstance(tg, SparsePoly):
            raise TypeError(f"tg must be a SparsePoly, got {tg!r}")
        if type(rho_one) is not bool:
            raise TypeError(f"rho_one must be a bool, got {rho_one!r}")
        if n < 1:
            raise GermRejection(f"index n must be positive, got {n}")
        if gcd(a, n) != 1:
            raise GermRejection(f"gcd(a, n) must be 1, got a={a}, n={n}")
        a %= n
        if case not in CASES:
            raise GermRejection(f"case must be one of {CASES}, got {case!r}")
        if case not in ("T", "N") and n != 1:
            raise GermRejection(f"case {case} exists only at index 1")
        for name, value in (("k", k), ("m", m)):  # T takes k >= 1, D takes m >= 4
            least = {("T", "k"): 1, ("D", "m"): 4}.get((case, name))
            if least is None and value is not None:
                raise GermRejection(f"case {case} takes no parameter {name}")
            if least is not None and (value is None or value < least):
                raise GermRejection(f"case {case} needs an integer {name} >= {least}")
        for exp, _ in tg.items():
            if exp[3] < 1:
                raise GermRejection(
                    f"perturbation monomial {exp} is not divisible by t; "
                    "it enters the germ only as t*g"
                )
        lattice = QuotientLattice(n, a)
        bad = next((e for e, _ in tg.items() if mu_n_character(lattice, e)), None)
        if bad is not None:
            raise GermRejection(
                f"perturbation is not invariant: monomial {bad} has nonzero character"
            )
        return super().__new__(cls, n, a, case, k, m, tg, rho_one)

    @cached_property
    def f(self) -> SparsePoly:
        return normal_form(self.case, self.n, self.k, self.m)

    @cached_property
    def g(self) -> SparsePoly:
        return SparsePoly({(i, j, kz, l - 1): c for (i, j, kz, l), c in self.tg.items()})

    @cached_property
    def equation(self) -> SparsePoly:
        """The total-space equation f + t*g."""
        return self.f + self.tg

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


_GERM_KEYS = ("n", "a", "case", "k", "m", "sign", "g", "rho_one")


def _json_int(value, name: str) -> int:
    """A JSON integer as given: floats, strings and booleans are rejected, not coerced."""
    if type(value) is not int:  # bool is a subclass of int
        raise GermRejection(f"{name} must be an integer, got {value!r}")
    return value


def validate_germ(raw) -> GermSpec:
    """Read a germ from its JSON object; a GermSpec, valid by construction, is returned as is.

    A key outside _GERM_KEYS or a value of the wrong JSON type raises
    GermRejection, never a coercion; GermSpec checks the rest.
    """
    if isinstance(raw, GermSpec):
        return raw
    if not isinstance(raw, dict):
        raise GermRejection("germ input must be a JSON object")
    unknown = [key for key in raw if key not in _GERM_KEYS]
    if unknown:  # a misspelt optional key would otherwise read as its default
        raise GermRejection(
            f"unknown germ key {unknown[0]!r} (allowed: {', '.join(_GERM_KEYS)})"
        )
    try:
        n, a, case = raw["n"], raw["a"], str(raw["case"])
    except KeyError as exc:
        raise GermRejection(f"malformed germ input: missing {exc}") from None
    n, a = _json_int(n, "n"), _json_int(a, "a")
    k = _json_int(raw["k"], "k") if raw.get("k") is not None else None
    m = _json_int(raw["m"], "m") if raw.get("m") is not None else None
    sign = raw.get("sign", "+")
    if sign not in ("+", "-"):
        raise GermRejection(f"sign must be '+' or '-', got {sign!r}")
    try:
        g = poly_from_json(raw.get("g", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise GermRejection(f"malformed perturbation g: {exc}") from None
    rho_one = raw.get("rho_one", False)
    if type(rho_one) is not bool:
        raise GermRejection(f"rho_one must be true or false, got {rho_one!r}")
    return GermSpec(n=n, a=a, case=case, k=k, m=m, tg=g.times_t(), rho_one=rho_one)


class FibreQuotientData(NamedTuple):
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
        r, q = fibre_quotient(germ.k, germ.n, germ.a)
        dictionary = (("x", (kn, 0)), ("y", (0, kn)), ("z", (1, 1)))
        return FibreQuotientData(r=r, q=q, dictionary=dictionary)
    if germ.case == "D":
        return f"D{germ.m}"
    return germ.case


# guards for the Groebner step; past these the probe just reports inconclusive
_PROBE_MAX_TERMS = 120
_PROBE_MAX_DEGREE = 60
# Work units one probe may spend on its Groebner basis (see _groebner.py): about
# 1-2 us each on a 2-vCPU Xeon, so about 2 s at most.  No germ of the sympy
# oracle test (tests/test_isolatedness.py) needs more than 130,000.
_PROBE_WORK_BUDGET = 1_000_000


def isolatedness_probe(germ: GermSpec, t_order: int | None = None) -> str:
    """One-sided isolatedness check on f + t*g.

    Returns "verified" only when the Jacobian ideal (F, dF/dx, dF/dy, dF/dz,
    dF/dt) of the (optionally t-truncated) equation F is certified
    zero-dimensional by an exact grevlex Groebner basis over Q, so the total
    space has at worst finitely many singular points; otherwise
    "inconclusive".  Never returns "false": a truncated or oversized input,
    or one whose basis needs more than _PROBE_WORK_BUDGET work units, may
    hide isolatedness the probe cannot see.  The verdict depends only on
    the input.
    """
    F = germ.equation if t_order is None else germ.f + germ.tg.t_truncated(t_order)
    if len(F) > _PROBE_MAX_TERMS:
        return "inconclusive"
    if max(sum(e) for e, _ in F.items()) > _PROBE_MAX_DEGREE:
        return "inconclusive"

    terms = F._terms
    system = [terms] + [
        {e[:v] + (e[v] - 1,) + e[v + 1:]: c * e[v] for e, c in terms.items() if e[v]}
        for v in range(4)
    ]
    # imported on use: a process that does not probe neither loads nor,
    # without cached bytecode, compiles the Groebner code
    from ._groebner import Buchberger, BudgetExhausted

    try:
        heads = Buchberger(_PROBE_WORK_BUDGET).leading_monomials(system)
    except BudgetExhausted:
        return "inconclusive"
    if (0, 0, 0, 0) in heads:
        return "verified"  # empty singular locus
    # zero-dimensional iff every variable has a pure power among the heads
    pure = {v for e in heads for v, d in enumerate(e) if d and d == sum(e)}
    return "verified" if len(pure) == 4 else "inconclusive"
