"""Brute-force reference implementations, independent of the library's fast paths.

Membership scans every residue j instead of solving the congruence chain;
primitivity tries a fixed prime list instead of factoring the content; the
weight enumeration below rechecks every filter on its own; valuations sum
Fraction weights monomial by monomial.  Slow and dumb on purpose.
"""

from fractions import Fraction
from math import floor, gcd

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
          61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]


def oracle_contains(n, a, v, dim=3):
    gen = [Fraction(1, n), Fraction(-1, n), Fraction(a, n), Fraction(0)][:dim]
    for j in range(n):
        if all((Fraction(c) - j * g).denominator == 1 for c, g in zip(v, gen)):
            return True
    return False


def oracle_primitive(n, a, v, dim=3):
    assert oracle_contains(n, a, v, dim)
    biggest = max(abs(Fraction(c) * n) for c in v)
    assert biggest < PRIMES[-1] ** 2, "prime list too short for this input"
    for p in PRIMES:
        if p > biggest:
            break
        if oracle_contains(n, a, tuple(Fraction(c) / p for c in v), dim):
            return False
    return True


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
