"""The integer kernel against the brute-force oracles.

Lattice membership and primitivity run on integer congruences, the case-T
scan walks one residue class per a3, and valuations compare scaled integer
weights.  Each is checked here against the slow Fraction reference in
oracles.py: fixed configs with d > 1 and composite e = n/d, then random
inputs drawn by hypothesis.
"""

import time
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

import semistable as ss
from semistable import SparsePoly, WeightVector
from oracles import brute_force_weights_T, oracle_contains, oracle_primitive, oracle_valuation

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def quotient_data(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    a = draw(st.sampled_from([a for a in range(n) if gcd(a, n) == 1]))
    return n, a


def weights(max_entry=24, max_d=15):
    numerators = st.tuples(*[st.integers(1, max_entry)] * 3).filter(lambda t: gcd(*t) == 1)
    return st.builds(WeightVector, numerators, st.integers(1, max_d))


def test_composite_cofactor_configs_match_bruteforce():
    # e = n/d runs over 1, 2, 3, 4, 5, 6, 9 and 12 across these, squares included
    for n, a, k, bound in [(12, 5, 1, 6), (30, 7, 1, 4), (36, 5, 1, 6)]:
        found = ss.admissible_weights_T(n, a, k, bound)
        assert {w.fractions for w in found} == brute_force_weights_T(n, a, k, bound)
        assert any(w.denominator > 1 and n // w.denominator > 1 for w in found)


def test_fraction_bound_matches_bruteforce():
    bound = Fraction(7, 2)
    for n, a, k in [(2, 1, 1), (6, 1, 2), (12, 5, 1)]:
        found = ss.admissible_weights_T(n, a, k, bound)
        assert {w.fractions for w in found} == brute_force_weights_T(n, a, k, bound)
        assert all(max(w.fractions) <= bound for w in found)
    assert ss.admissible_weights_T(2, 1, 1, bound) != ss.admissible_weights_T(2, 1, 1, 3)


@PROPERTY
@given(quotient_data(), st.integers(1, 3), st.integers(0, 8), st.integers(1, 3))
def test_scan_matches_bruteforce(data, k, numerator, denominator):
    n, a = data
    bound = Fraction(numerator, denominator)
    found = ss.admissible_weights_T(n, a, k, bound)
    assert {w.fractions for w in found} == brute_force_weights_T(n, a, k, bound)
    keys = [w.fractions for w in found]
    assert keys == sorted(keys)


@PROPERTY
@given(quotient_data(), weights())
def test_weight_checks_match_oracle(data, w):
    n, a = data  # w.denominator need not divide n
    lattice = ss.QuotientLattice(3, n, a)
    member = ss.weight_in_lattice(lattice, w)
    assert member == oracle_contains(n, a, w.fractions)
    if member:
        assert ss.weight_is_primitive(lattice, w) == oracle_primitive(n, a, w.fractions)


@PROPERTY
@given(
    quotient_data(),
    st.sampled_from([3, 4]),
    st.lists(st.integers(-12, 12), min_size=4, max_size=4),
    st.integers(1, 15),
)
def test_rational_vector_checks_match_oracle(data, dim, numerators, denominator):
    # arbitrary sign, content and denominator; the dimension-4 slot too
    n, a = data
    lattice = ss.QuotientLattice(dim, n, a)
    v = tuple(Fraction(c, denominator) for c in numerators[:dim])
    member = ss.lattice_contains(lattice, v)
    assert member == oracle_contains(n, a, v, dim)
    if member and any(v):
        assert ss.is_primitive(lattice, v) == oracle_primitive(n, a, v, dim)


@PROPERTY
@given(
    weights(max_entry=12, max_d=6),
    st.lists(st.tuples(*[st.integers(0, 5)] * 4), min_size=1, max_size=6),
)
def test_valuation_matches_naive_sum(w, exponents):
    h = SparsePoly({exp: 1 for exp in exponents}, dim=4)
    assert ss.valuation(w, h) == oracle_valuation(w.fractions, exponents)
    for exp in exponents:
        assert ss.monomial_weight(w, exp) == oracle_valuation(w.fractions, [exp])
        assert ss.monomial_weight(w, exp[:3]) == oracle_valuation(w.fractions, [exp[:3]])


def test_scan_runtime_budget():
    start = time.perf_counter()
    found = ss.admissible_weights_T(5, 2, 1, 160)
    elapsed = time.perf_counter() - start
    assert len(found) == 15583
    assert elapsed < 0.5, f"admissible_weights_T(5, 2, 1, 160) took {elapsed:.2f}s, budget 0.5s"
