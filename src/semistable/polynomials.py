"""Sparse polynomials in x, y, z[, t] over exact rationals, with weighted gradings.

Monomials are exponent tuples of a fixed dimension (3 or 4 per polynomial),
coefficients are `fractions.Fraction`, and no zero coefficient is ever
stored.  The weight (1/d)(a1, a2, a3) assigns (1/d)(a1*i + a2*j + a3*k) + l
to the exponent (i, j, k, l); the fourth coordinate is the base-curve
parameter t and always weighs 1.  Gradings are computed on the scaled
weight d*(that) = a1*i + a2*j + a3*k + d*l, an integer, so valuation,
homogeneity and the graded decomposition are integer min / group-by
computations.  `monomial_weight`, `valuation` and the graded pieces hand out
`Fraction(scaled, d)` only at their return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ZeroPolynomialError
from .lattices import QuotientLattice, WeightVector, fraction_to_str, mu_n_character

VAR_NAMES = ("x", "y", "z", "t")

Exponent = tuple[int, ...]


class SparsePoly:
    """Immutable sparse polynomial: a map from exponent tuples to nonzero rationals."""

    __slots__ = ("dim", "_terms")

    def __init__(self, terms=None, dim: int | None = None):
        data: dict[Exponent, Fraction] = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for exp, coeff in items:
                exp = tuple(int(e) for e in exp)
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                if dim is None:
                    dim = len(exp)
                elif len(exp) != dim:
                    raise ValueError("mixed exponent dimensions in one polynomial")
                c = data.get(exp, Fraction(0)) + Fraction(coeff)
                if c:
                    data[exp] = c
                else:
                    data.pop(exp, None)
        if dim is None:
            raise ValueError("dimension required for the zero polynomial")
        if dim not in (3, 4):
            raise ValueError("polynomials live in 3 or 4 variables")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_terms", data)

    @classmethod
    def zero(cls, dim: int = 4) -> "SparsePoly":
        return cls({}, dim=dim)

    @classmethod
    def monomial(cls, exp, coeff=1, dim: int | None = None) -> "SparsePoly":
        return cls({tuple(exp): Fraction(coeff)}, dim=dim)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self._terms.items())

    def coefficient(self, exp) -> Fraction:
        return self._terms.get(tuple(exp), Fraction(0))

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __hash__(self):
        return hash((self.dim, frozenset(self._terms.items())))

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self._terms)
        for exp, c in other._terms.items():
            s = out.get(exp, Fraction(0)) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return SparsePoly(out, dim=self.dim)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly({e: -c for e, c in self._terms.items()}, dim=self.dim)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return SparsePoly.zero(self.dim)
            return SparsePoly(
                {e: c * other for e, c in self._terms.items()}, dim=self.dim
            )
        if not isinstance(other, SparsePoly):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return SparsePoly(out, dim=self.dim)

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "SparsePoly":
        if m < 0:
            raise ValueError("negative power")
        out = SparsePoly.monomial((0,) * self.dim, 1)
        for _ in range(m):
            out = out * self
        return out

    def times_t(self) -> "SparsePoly":
        """Multiply by t (dimension-4 polynomials only)."""
        if self.dim != 4:
            raise ValueError("t lives in the fourth slot")
        return SparsePoly(
            {(i, j, k, l + 1): c for (i, j, k, l), c in self._terms.items()}, dim=4
        )

    def t_truncated(self, order: int) -> "SparsePoly":
        """Drop every monomial with t-exponent above `order`."""
        if self.dim != 4:
            raise ValueError("t lives in the fourth slot")
        return SparsePoly(
            {e: c for e, c in self._terms.items() if e[3] <= order}, dim=4
        )

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


def poly_from_json(data, dim: int = 4) -> SparsePoly:
    terms = {}
    for entry in data:
        exp = tuple(int(e) for e in entry["exp"])
        coeff = Fraction(str(entry["coeff"]))
        terms[exp] = terms.get(exp, Fraction(0)) + coeff
    return SparsePoly(terms, dim=dim)


# ----------------------------------------------------------------------------
# weighted gradings


def weighted_exponent_value(weights, exp) -> Fraction:
    """Weight of a monomial for an arbitrary per-variable weight tuple."""
    if len(weights) != len(exp):
        raise ValueError("weights / exponent dimension mismatch")
    return sum((Fraction(w) * e for w, e in zip(weights, exp)), Fraction(0))


def scaled_monomial_weight(w: WeightVector, exp) -> int:
    """d times the weight of the monomial: a1*i + a2*j + a3*k [+ d*l]."""
    a1, a2, a3 = w.numerators
    if len(exp) == 4:
        return a1 * exp[0] + a2 * exp[1] + a3 * exp[2] + w.denominator * exp[3]
    if len(exp) == 3:
        return a1 * exp[0] + a2 * exp[1] + a3 * exp[2]
    raise ValueError("exponent must have 3 or 4 entries")


def monomial_weight(w: WeightVector, exp) -> Fraction:
    """(1/d)(a1*i + a2*j + a3*k) + l;  the t-exponent, when present, weighs 1."""
    return Fraction(scaled_monomial_weight(w, tuple(exp)), w.denominator)


def scaled_valuation(w: WeightVector, h: SparsePoly) -> int:
    """d times the valuation of h: the least scaled monomial weight."""
    if h.is_zero:
        raise ZeroPolynomialError("the zero polynomial has infinite valuation")
    return min(scaled_monomial_weight(w, e) for e in h._terms)


def valuation(w: WeightVector, h: SparsePoly) -> Fraction:
    """Minimum monomial weight of h; the order of vanishing along the exceptional divisor."""
    return Fraction(scaled_valuation(w, h), w.denominator)


def valuation_with_weights(weights, h: SparsePoly) -> Fraction:
    if h.is_zero:
        raise ZeroPolynomialError("the zero polynomial has infinite valuation")
    return min(weighted_exponent_value(weights, e) for e, _ in h.items())


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


@dataclass(frozen=True)
class GradedPiece:
    weight: Fraction
    part: SparsePoly


def graded_decomposition(w: WeightVector, h: SparsePoly) -> list[GradedPiece]:
    """Split h into graded pieces of strictly increasing weight; they sum back to h."""
    if h.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no graded pieces")
    buckets: dict[int, dict] = {}
    for e, c in h.items():
        buckets.setdefault(scaled_monomial_weight(w, e), {})[e] = c
    return [
        GradedPiece(Fraction(val, w.denominator), SparsePoly(terms, dim=h.dim))
        for val, terms in sorted(buckets.items())
    ]


def scaled_graded_piece(w: WeightVector, h: SparsePoly, scaled_value: int) -> SparsePoly:
    """The graded piece of h of scaled weight scaled_value (possibly zero)."""
    terms = {
        e: c for e, c in h._terms.items()
        if scaled_monomial_weight(w, e) == scaled_value
    }
    return SparsePoly(terms, dim=h.dim)


def graded_piece(w: WeightVector, h: SparsePoly, value: Fraction) -> SparsePoly:
    """The single graded piece of h with the given weight (possibly zero)."""
    scaled = Fraction(value) * w.denominator
    if scaled.denominator != 1:
        return SparsePoly.zero(h.dim)  # no monomial weight lies off (1/d)Z
    return scaled_graded_piece(w, h, scaled.numerator)


def is_mu_n_invariant(lattice: QuotientLattice, h: SparsePoly) -> bool:
    """Whether every monomial of h has character 0 under the 1/n(1,-1,a[,0]) action."""
    if lattice.dim != h.dim:
        raise ValueError("lattice / polynomial dimension mismatch")
    return all(mu_n_character(lattice, e) == 0 for e, _ in h.items())


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


def _univariate_coefficients(h: SparsePoly) -> list[Fraction]:
    """Dense coefficient list of a genuinely univariate polynomial."""
    if h.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    used = [s for s in range(h.dim) if any(e[s] > 0 for e, _ in h.items())]
    if len(used) > 1:
        raise ValueError("polynomial is not univariate")
    if not used:
        return [next(c for _, c in h.items())]
    var = used[0]
    degree = max(e[var] for e, _ in h.items())
    cs = [Fraction(0)] * (degree + 1)
    for e, c in h.items():
        cs[e[var]] = c
    return cs


def _sub_dense(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _trim(out)


def squarefree_multiplicities(h: SparsePoly) -> list[tuple[int, int]]:
    """Yun decomposition h = prod s_i^i: returns (deg s_i, i) for each nonconstant s_i.

    Roots of multiplicity i number deg s_i in the algebraic closure; roots are
    never located, only counted by factor degree.  Constant input yields [].
    """
    cs = _univariate_coefficients(h)
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
