"""Sparse polynomials in x, y, z, t over exact rationals, with weighted gradings.

Every polynomial lives in the four variables of the germs, x, y, z and the
base-curve parameter t: monomials are exponent tuples (i, j, k, l),
coefficients are `fractions.Fraction`, and no zero coefficient is ever
stored.  The weight (1/d)(a1, a2, a3) assigns (1/d)(a1*i + a2*j + a3*k) + l
to the exponent (i, j, k, l); t always weighs 1.  Gradings are computed on
the scaled weight d*(that) = a1*i + a2*j + a3*k + d*l, an integer, so
valuation, homogeneity and the graded piece are integer min / filter
computations.  `valuation` and `is_homogeneous` hand out `Fraction(scaled, d)`
only at their return; `valuation_with_weights` computes in the number type
of the weights it is given, so integer weights give an integer.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ZeroPolynomialError
from .lattices import QuotientLattice, WeightVector, _exact, fraction_to_str, mu_n_character

VAR_NAMES = ("x", "y", "z", "t")

Exponent = tuple[int, int, int, int]

_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")  # "p" or "p/q"; ASCII digits only
_ZERO = Fraction(0)


class SparsePoly:
    """Immutable sparse polynomial in x, y, z, t: exponents (i, j, k, l) to nonzero rationals.

    Exponents are ints and coefficients ints or Fractions; the zero polynomial is SparsePoly().
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict[Exponent, Fraction] = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(_exact(e, integral=True) for e in exp)
            if len(exp) != 4 or min(exp) < 0:
                raise ValueError(f"exponent {exp} is not four nonnegative slots (x, y, z, t)")
            c = data.get(exp, _ZERO) + _exact(coeff)
            if c:
                data[exp] = c
            else:
                data.pop(exp, None)
        object.__setattr__(self, "_terms", data)

    def __setattr__(self, name, value):
        raise AttributeError(f"SparsePoly is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SparsePoly is immutable: cannot delete {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not setattr
        return SparsePoly, (self._terms,)

    @classmethod
    def monomial(cls, exp, coeff=1) -> "SparsePoly":
        return cls({tuple(exp): coeff})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        out = dict(self._terms)
        for exp, c in other._terms.items():
            out[exp] = out.get(exp, _ZERO) + c
        return SparsePoly(out)

    def times_t(self) -> "SparsePoly":
        """Multiply by t."""
        return SparsePoly({(i, j, k, l + 1): c for (i, j, k, l), c in self._terms.items()})

    def t_truncated(self, order: int) -> "SparsePoly":
        """Drop every monomial with t-exponent above `order`."""
        return SparsePoly({e: c for e, c in self._terms.items() if e[3] <= order})

    def __repr__(self) -> str:
        return f"SparsePoly({format_poly(self)})"


def format_poly(p: SparsePoly, names: tuple[str, ...] = VAR_NAMES) -> str:
    """Human-readable rendering, highest exponents first, exact coefficients."""
    if p.is_zero:
        return "0"
    pieces = []
    for exp, coeff in sorted(p._terms.items(), reverse=True):
        mono = "*".join(
            n if e == 1 else f"{n}^{e}" for n, e in zip(names, exp) if e > 0
        )
        if not mono:
            body = fraction_to_str(coeff)
        elif coeff == 1:
            body = mono
        elif coeff == -1:
            body = f"-{mono}"
        else:
            body = f"{fraction_to_str(coeff)}*{mono}"
        if pieces and not body.startswith("-"):
            pieces.append("+ " + body)
        elif pieces:
            pieces.append("- " + body[1:])
        else:
            pieces.append(body)
    return " ".join(pieces)


def poly_to_json(p: SparsePoly) -> list[dict]:
    return [
        {"coeff": fraction_to_str(c), "exp": list(e)} for e, c in p.items()
    ]


def poly_from_json(data) -> SparsePoly:
    """Read a list of {"coeff", "exp"} monomials, strictly.

    Exponents must be integers and coefficients strings of the form "p" or
    "p/q" (an optional minus sign, ASCII digits); any other shape, key or
    string, or a zero denominator, raises TypeError or ValueError.
    """
    if not isinstance(data, list):
        raise TypeError(f"expected a list of monomials, got {data!r}")
    terms = {}
    for entry in data:
        if not isinstance(entry, dict):
            raise TypeError(f"a monomial must be an object, got {entry!r}")
        unknown = [key for key in entry if key not in ("coeff", "exp")]
        if unknown:
            raise ValueError(f"unknown monomial key {unknown[0]!r} (allowed: coeff, exp)")
        exp = tuple(entry["exp"])  # SparsePoly checks the exponents
        coeff = entry["coeff"]
        if not isinstance(coeff, str):
            raise TypeError(f"coefficient must be a rational string, got {coeff!r}")
        if not _RATIONAL.fullmatch(coeff):
            raise ValueError(f"coefficient {coeff!r} is not of the form p or p/q")
        try:
            value = Fraction(coeff)
        except ZeroDivisionError:
            raise ValueError(f"coefficient {coeff!r} has a zero denominator") from None
        terms[exp] = terms.get(exp, Fraction(0)) + value
    return SparsePoly(terms)


# ----------------------------------------------------------------------------
# weighted gradings


def scaled_monomial_weight(w: WeightVector, exp) -> int:
    """d times the weight of the monomial: a1*i + a2*j + a3*k + d*l."""
    a1, a2, a3 = w.numerators
    return a1 * exp[0] + a2 * exp[1] + a3 * exp[2] + w.denominator * exp[3]


def scaled_valuation(w: WeightVector, h: SparsePoly) -> int:
    """d times the valuation of h: the least scaled monomial weight."""
    if h.is_zero:
        raise ZeroPolynomialError("the zero polynomial has infinite valuation")
    return min(scaled_monomial_weight(w, e) for e in h._terms)


def valuation(w: WeightVector, h: SparsePoly) -> Fraction:
    """Minimum monomial weight of h; the order of vanishing along the exceptional divisor."""
    return Fraction(scaled_valuation(w, h), w.denominator)


def valuation_with_weights(weights, h: SparsePoly) -> int | Fraction:
    """Least sum(w_i * e_i) over the monomials of h, one weight per variable.

    Exact in the weights as given: integer weights give an int, `Fraction`s
    a `Fraction`.  There is one weight for each of x, y, z, t.
    """
    weights = tuple(_exact(w) for w in weights)
    if len(weights) != 4:
        raise ValueError(f"expected 4 weights, got {len(weights)}")
    if h.is_zero:
        raise ZeroPolynomialError("the zero polynomial has infinite valuation")
    return min(sum(w * e for w, e in zip(weights, exp)) for exp in h._terms)


def min_weight_monomial(w: WeightVector, h: SparsePoly) -> tuple[Exponent, Fraction]:
    """A lowest-weight monomial of h (deterministic: smallest exponent tuple wins ties)."""
    if h.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no monomials")
    return min(
        h._terms.items(),
        key=lambda item: (scaled_monomial_weight(w, item[0]), item[0]),
    )


def is_homogeneous(w: WeightVector, h: SparsePoly) -> tuple[bool, Fraction | None]:
    """Whether all monomials of h share one weight; returns (True, weight) if so."""
    if h.is_zero:
        raise ZeroPolynomialError("homogeneity is undefined for the zero polynomial")
    values = {scaled_monomial_weight(w, e) for e in h._terms}
    if len(values) == 1:
        return True, Fraction(values.pop(), w.denominator)
    return False, None


def scaled_graded_piece(w: WeightVector, h: SparsePoly, scaled_value: int) -> SparsePoly:
    """The graded piece of h of scaled weight scaled_value (possibly zero)."""
    terms = {
        e: c for e, c in h._terms.items()
        if scaled_monomial_weight(w, e) == scaled_value
    }
    return SparsePoly(terms)


def is_mu_n_invariant(lattice: QuotientLattice, h: SparsePoly) -> bool:
    """Whether every monomial of h has character 0 under the 1/n(1,-1,a,0) action."""
    return all(mu_n_character(lattice, e) == 0 for e in h._terms)


# ----------------------------------------------------------------------------
# univariate squarefree decomposition (Yun), for root-multiplicity censuses


def _trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _monic(cs: list[Fraction]) -> list[Fraction]:
    lead = cs[-1]
    return [c / lead for c in cs]


def _deriv(cs: list[Fraction]) -> list[Fraction]:
    return _trim([i * c for i, c in enumerate(cs)][1:])


def _divmod_dense(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den):
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        q[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        _trim(num)
        if not num:
            break
    return _trim(q), num


def _gcd_dense(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = list(a), list(b)
    while b:
        _, r = _divmod_dense(a, b)
        a, b = b, r
    return _monic(a)


def _sub_dense(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _trim(out)


def squarefree_multiplicities(coefficients) -> list[tuple[int, int]]:
    """Yun decomposition h = prod s_i^i: returns (deg s_i, i) for each nonconstant s_i.

    h is given by its coefficients (ints or Fractions), constant term first.
    Roots of multiplicity i number deg s_i in the algebraic closure; roots are
    never located, only counted by factor degree.  Constant input yields [].
    """
    cs = _trim([Fraction(_exact(c)) for c in coefficients])
    if not cs:
        raise ZeroPolynomialError("zero polynomial")
    if len(cs) == 1:
        return []
    f = _monic(cs)
    df = _deriv(f)
    g = _gcd_dense(f, df)
    if len(g) == 1:
        return [(len(f) - 1, 1)]
    out = []
    b, _ = _divmod_dense(f, g)
    c, _ = _divmod_dense(df, g)
    d = _sub_dense(c, _deriv(b))
    i = 1
    while len(b) > 1:
        s = _gcd_dense(b, d) if d else _monic(list(b))
        if len(s) > 1:
            out.append((len(s) - 1, i))
        b, _ = _divmod_dense(b, s)
        c, _ = _divmod_dense(d, s) if d else ([], [])
        d = _sub_dense(c, _deriv(b))
        i += 1
    return out
