"""Sparse polynomials in x, y, z, t over exact rationals, with weighted gradings.

Every polynomial lives in the four variables of the germs, x, y, z and the
base-curve parameter t: monomials are exponent tuples (i, j, k, l),
coefficients are `fractions.Fraction`, and no zero coefficient is ever
stored.  The weight (1/d)(a1, a2, a3) assigns (1/d)(a1*i + a2*j + a3*k) + l
to the exponent (i, j, k, l); t always weighs 1.  Gradings are computed on
the scaled weight d*(that) = a1*i + a2*j + a3*k + d*l, an integer, so the
valuation and the graded pieces are integer min / filter computations over
one kernel, `_graded`; a caller that needs the rational valuation builds
`Fraction(scaled, d)` itself.  `valuation_with_weights`
grades in the number type of the weights it is given (integers give an int).
The census's univariate squarefree decomposition runs over Z, by the primitive
remainder sequence (Collins 1967, Brown 1971; see `_gcd`).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .errors import UnsupportedForm, ZeroPolynomialError
from .lattices import WeightVector, _exact, fraction_to_str

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
        order = _exact(order, integral=True)
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


def _graded(weights, h: SparsePoly) -> list[tuple[int | Fraction, Exponent]]:
    """(sum(w_i * e_i), e) for each exponent e of h; a weight passes (a1, a2, a3, d).

    The zero polynomial has no grade (its valuation would be infinite).
    """
    if h.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no weighted monomials")
    w1, w2, w3, w4 = weights
    return [(w1 * e[0] + w2 * e[1] + w3 * e[2] + w4 * e[3], e) for e in h._terms]


def scaled_valuation(w: WeightVector, h: SparsePoly) -> int:
    """d times the valuation of h: the least scaled monomial weight."""
    return min(grade for grade, _ in _graded((*w.numerators, w.denominator), h))


def valuation_with_weights(weights, h: SparsePoly) -> int | Fraction:
    """Least sum(w_i * e_i) over the monomials of h, one weight per variable.

    Exact in the weights as given: integer weights give an int, `Fraction`s
    a `Fraction`.  There is one weight for each of x, y, z, t.
    """
    weights = tuple(_exact(w) for w in weights)
    if len(weights) != 4:
        raise ValueError(f"expected 4 weights, got {len(weights)}")
    return min(grade for grade, _ in _graded(weights, h))


def min_weight_monomial(w: WeightVector, h: SparsePoly) -> tuple[int, Exponent]:
    """(d*weight, exponent) of a lowest-weight monomial of h: the least such pair.

    So the weight is d times the valuation of h, and the smallest exponent
    tuple wins ties.
    """
    return min(_graded((*w.numerators, w.denominator), h))


def scaled_graded_piece(w: WeightVector, h: SparsePoly, scaled_value: int) -> SparsePoly:
    """The graded piece of h (nonzero) of scaled weight scaled_value, possibly zero."""
    graded = _graded((*w.numerators, w.denominator), h)
    return SparsePoly({e: h._terms[e] for grade, e in graded if grade == scaled_value})


# ----------------------------------------------------------------------------
# univariate squarefree decomposition (Yun), for root-multiplicity censuses

# Work units one decomposition may spend, about 1 s on a 2-vCPU Xeon (a dense Q(u) of degree
# 200 needs 63,200,000, one of degree 300 more).  An entry x*c - y*c' of a pseudo-division or
# quotient costs 3 plus the product of the 64-bit words of the largest x and the largest y.
_YUN_WORK_BUDGET = 80_000_000


def _trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _primitive(cs: list[int]) -> list[int]:  # nonzero cs over its content, leading term > 0
    content = gcd(*cs) if cs[-1] > 0 else -gcd(*cs)
    return [c // content for c in cs]


def _deriv(cs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(cs)][1:]


def _charge(left: int, entries: int, a: list[int], b: list[int]) -> int:
    wa, wb = (1 + max(map(int.bit_length, cs), default=0) // 64 for cs in (a, b))
    if entries * (3 + wa * wb) > left:
        raise UnsupportedForm(f"Yun's decomposition past {_YUN_WORK_BUDGET} work units")
    return left - entries * (3 + wa * wb)


def _quotient(a: list[int], b: list[int], left: int) -> tuple[list[int], int]:
    """a / b for a primitive b | a over Q, so over Z (Gauss's lemma), and the work left."""
    a, m = list(a), len(b)
    left = _charge(left, max(len(a) - m + 1, 0) * m, a, b)
    for shift in range(len(a) - m, -1, -1):  # each term of a / b takes the place it clears
        c = a[shift + m - 1] // b[-1]
        a[shift:shift + m] = [x - c * y for x, y in zip(a[shift:shift + m], b[:-1])] + [c]
    return a[m - 1:], left


def _gcd(a: list[int], b: list[int], left: int) -> tuple[list[int], int]:
    """The primitive gcd of a (nonzero) and b, and the work left: pseudo-remainders by content."""
    while len(b) > 1:
        lc, m = b[-1], len(b)
        while len(a) >= m:
            left = _charge(left, len(a), a, b)
            c, shift = a[-1], len(a) - m
            a = _trim([lc * x for x in a[:shift]] + [lc * x - c * y for x, y in zip(a[shift:], b)])
        a, b = b, _primitive(a) if a else []
    return _primitive(b or a), left


def squarefree_multiplicities(coefficients) -> list[tuple[int, int]]:
    """Yun decomposition h = prod s_i^i: returns (deg s_i, i) for each nonconstant s_i.

    h is given by its coefficients (ints or Fractions), constant term first.  Roots of
    multiplicity i number deg s_i in the algebraic closure; roots are never located, only
    counted by factor degree.  Constant input yields [].  It runs over Z, and raises
    UnsupportedForm past _YUN_WORK_BUDGET work units.
    """
    cs = _trim([_exact(c) for c in coefficients])
    if not cs:
        raise ZeroPolynomialError("zero polynomial")
    scale = lcm(*(c.denominator for c in cs))
    f = _primitive([c.numerator * (scale // c.denominator) for c in cs])
    out, b, d, i, left = [], f, _deriv(f), 0, _YUN_WORK_BUDGET
    while len(b) > 1:  # s is gcd(f, f') at i = 0, then the factor of multiplicity i
        s, left = _gcd(b, d, left)
        if i and len(s) > 1:
            out.append((len(s) - 1, i))
        b, left = _quotient(b, s, left)
        d, left = _quotient(d, s, left)
        d = _trim([x - y for x, y in zip_longest(d, _deriv(b), fillvalue=0)])
        i += 1
    return out
