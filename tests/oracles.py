"""Brute-force reference implementations, independent of the library's fast paths.

Membership scans every residue j instead of solving the congruence chain;
primitivity tries a fixed prime list instead of factoring the content; the
weight enumeration below rechecks every filter on its own; valuations sum
Fraction weights monomial by monomial; the census oracle asks sympy's
squarefree factorization and the isolatedness oracle sympy's Groebner basis.
Slow and dumb on purpose.  `reduced_T_records` draws the random records the
census and cover properties run on, `t_power_germs` the germs the
enumeration property scans; `poly_product` and `dense_product` build
the products the polynomial tests need, since the library keeps no ring
product.
"""

from fractions import Fraction
from math import floor, gcd

from hypothesis import strategies as st

import semistable as ss
from semistable.germs import _PROBE_MAX_DEGREE, _PROBE_MAX_TERMS

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
          61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]


def oracle_contains(n, a, v):
    gen = [Fraction(1, n), Fraction(-1, n), Fraction(a, n)]
    for j in range(n):
        if all((Fraction(c) - j * g).denominator == 1 for c, g in zip(v, gen)):
            return True
    return False


def oracle_primitive(n, a, v):
    assert oracle_contains(n, a, v)
    biggest = max(abs(Fraction(c) * n) for c in v)
    assert biggest < PRIMES[-1] ** 2, "prime list too short for this input"
    for p in PRIMES:
        if p > biggest:
            break
        if oracle_contains(n, a, tuple(Fraction(c) / p for c in v)):
            return False
    return True


def oracle_contains2(r, q, v):
    """Whether the plane vector v lies in Z^2 + Z*(1/r)(1, q), scanning every j."""
    return any(
        (Fraction(v[0]) - Fraction(j, r)).denominator == 1
        and (Fraction(v[1]) - Fraction(j * q, r)).denominator == 1
        for j in range(r)
    )


def brute_force_weights_T(n, a, k, bound):
    """All admissible case-T weight vectors, as a set of rational triples.

    Scans (a1, a2, a3, d) with d | n and entries <= d*bound (bound may be a
    Fraction).  Coprime entries
    lose nothing: a triple with content g > 1 either rewrites over a smaller
    divisor of n (and is scanned there) or is divisible in the lattice.
    """
    out = set()
    for d in range(1, n + 1):
        if n % d:
            continue
        cap = floor(d * bound)
        for a3 in range(1, cap + 1):
            for a1 in range(1, cap + 1):
                a2 = k * n * a3 - a1
                if not 1 <= a2 <= cap:
                    continue
                if gcd(gcd(a1, a2), a3) != 1:
                    continue
                v = (Fraction(a1, d), Fraction(a2, d), Fraction(a3, d))
                if not oracle_contains(n, a, v):
                    continue
                if not oracle_primitive(n, a, v):
                    continue
                out.add(v)
    return out


def oracle_valuation(weights, exponents):
    """Least weight sum(w_i * e_i) over the exponents, with t weighing 1 in slot 4."""
    full = [Fraction(w) for w in weights] + [Fraction(1)]
    return min(sum((w * e for w, e in zip(full, exp)), Fraction(0)) for exp in exponents)


def poly_product(*factors):
    """The product of SparsePolys in x, y, z, t, monomial by monomial."""
    terms = {(0, 0, 0, 0): Fraction(1)}
    for factor in factors:
        out = {}
        for e1, c1 in terms.items():
            for e2, c2 in factor.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        terms = out
    return ss.SparsePoly(terms)


def dense_product(*factors):
    """The product of univariate coefficient lists, constant term first."""
    out = [Fraction(1)]
    for factor in factors:
        prod = [Fraction(0)] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor):
                prod[i + j] += a * b
        out = prod
    return out


def oracle_interior(record):
    """(l, count) of the census's interior entries, from sympy's sqf_list.

    h(z) = z^(k*n) + the t-order-minimal coefficients of t*g, read from the
    germ; for d > 1 the power of z dividing h is stripped (that root belongs
    to the origin entry).  Each multiplicity l >= 2 gives one entry whose
    count is the degree of its squarefree factor.
    """
    import sympy

    germ, (_, _, a3), d = record.germ, record.w0.numerators, record.w0.denominator
    k, n, e = germ.k, germ.n, germ.n // d
    z = sympy.Symbol("z")
    h = z ** (k * n)
    for (_, _, kz, l), coeff in germ.tg.items():
        if l == (k - kz // n) * e * a3:
            h += sympy.Rational(coeff.numerator, coeff.denominator) * z ** kz
    h = sympy.Poly(h, z)
    if d > 1:
        h = h.exquo(sympy.Poly(z ** min(m for (m,) in h.monoms()), z))
    _, factors = sympy.sqf_list(h)
    return [(mult, factor.degree()) for factor, mult in factors if mult >= 2]


@st.composite
def reduced_T_records(draw, max_n=6, max_k=3):
    """A valid case-T record whose t*g has the census's reduced shape.

    t*g = sum_i c_i z^(i*n) t^((k-i)*e*a3) for P(u) = u^k + sum_i c_i u^i =
    prod (u - r_j) over k drawn roots, repeated roots and u = 0 included,
    so h(z) = P(z^n) often has multiple roots; sometimes plus a
    higher-order tail t^(k*e*a3 + 1).
    """
    n = draw(st.integers(1, max_n))
    a = draw(st.sampled_from([a for a in range(n) if gcd(a, n) == 1]))
    k = draw(st.integers(1, max_k))
    w = draw(st.sampled_from(ss.admissible_weights_T(n, a, k, 3)))
    root = st.sampled_from([0, 1, -1, 2, Fraction(-1, 2)])
    roots = draw(st.lists(root, min_size=k, max_size=k))
    P = [Fraction(1)]  # ascending coefficients of prod (u - r)
    for r in roots:
        P = [prev - r * c for prev, c in zip([Fraction(0)] + P, P + [Fraction(0)])]
    e, a3 = n // w.denominator, w.numerators[2]
    g = [
        {"coeff": ss.fraction_to_str(P[i]), "exp": [0, 0, i * n, (k - i) * e * a3 - 1]}
        for i in range(k) if P[i]
    ]
    if draw(st.booleans()):
        g.append({"coeff": "1", "exp": [0, 0, 0, k * e * a3]})
    germ = ss.validate_germ({"n": n, "a": a, "case": "T", "k": k, "g": g})
    return ss.build_contraction(germ, w)


@st.composite
def t_power_germs(draw, max_n=6, max_k=3):
    """A case-T germ with t*g = sum of c * z^(i*n) * t^l, 0 <= i <= k-1, 1 <= l <= 12.

    The terms are those of `reduced_T_records` with free t-exponents, so a
    scan to a small bound meets weights on both sides of w(t*g) >= w(f):
    z^(i*n) * t^l has weight i*e*a3 + l against lambda = k*e*a3.  Terms may
    tie in weight, which exercises the witness tie rule.
    """
    n = draw(st.integers(1, max_n))
    a = draw(st.sampled_from([a for a in range(n) if gcd(a, n) == 1]))
    k = draw(st.integers(1, max_k))
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, k - 1), st.integers(1, 12)),
        st.sampled_from(["1", "-1", "2", "-1/2"]),
        max_size=6,
    ))
    g = [{"coeff": c, "exp": [0, 0, i * n, l - 1]} for (i, l), c in terms.items()]
    return ss.validate_germ({"n": n, "a": a, "case": "T", "k": k, "g": g})


def oracle_isolatedness(germ, t_order=None):
    """The isolatedness probe computed by sympy's Groebner basis: the same
    guards and verdict rule as `isolatedness_probe`, with no work bound."""
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
