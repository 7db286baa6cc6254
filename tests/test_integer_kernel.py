"""The integer kernel against the brute-force oracles.

Lattice membership and primitivity read the coordinates of a vector in the
basis (1/n)(1, -1, a), e2, e3 of Z^3 + Z*(1/n)(1, -1, a): a member has
integer coordinates, and a primitive one coprime coordinates.  The case-T
scan walks one residue class per a3 and takes the gcd of a candidate's
coordinates, and valuations compare scaled integer weights.  Each is
checked here against the slow Fraction reference in oracles.py, which
scans residues and tries primes instead: fixed configs with d > 1 and
composite e = n/d, then random inputs drawn by hypothesis, with n up to 12
and, for membership and primitivity, also 25, 49, 64 and 97 (large prime
and prime-power factors).
"""

import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import semistable as ss
from semistable import SparsePoly, WeightVector
from semistable.polynomials import scaled_valuation
from oracles import brute_force_weights_T, oracle_contains, oracle_primitive, oracle_valuation

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def quotient_data(draw, indices=st.integers(1, 12) | st.sampled_from([25, 49, 64, 97])):
    n = draw(indices)
    a = draw(st.sampled_from([a for a in range(n) if gcd(a, n) == 1]))
    return n, a


def weights(max_entry=24, max_d=15):
    numerators = st.tuples(*[st.integers(1, max_entry)] * 3).filter(lambda t: gcd(*t) == 1)
    return st.builds(WeightVector, numerators, st.integers(1, max_d))


def test_composite_cofactor_configs_match_bruteforce():
    # e = n/d runs over 1, 2, 3, 4, 5, 6, 7, 9 and 12 across these, squares
    # included, and n = 25, 49, 64 are prime powers
    for n, a, k, bound in [(12, 5, 1, 6), (30, 7, 1, 4), (36, 5, 1, 6),
                           (25, 7, 1, 4), (49, 3, 1, 4), (64, 5, 1, 3)]:
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
@given(quotient_data(st.integers(1, 12)), st.integers(1, 3), st.integers(0, 8), st.integers(1, 3))
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
    lattice = ss.QuotientLattice(n, a)
    member = ss.lattice_contains(lattice, w.fractions)
    assert member == oracle_contains(n, a, w.fractions)
    if member:
        assert ss.is_primitive(lattice, w.fractions) == oracle_primitive(n, a, w.fractions)


@PROPERTY
@given(
    quotient_data(),
    st.lists(st.integers(-12, 12), min_size=3, max_size=3),
    st.integers(1, 15),
)
def test_rational_vector_checks_match_oracle(data, numerators, denominator):
    # arbitrary sign, content and denominator
    n, a = data
    lattice = ss.QuotientLattice(n, a)
    v = tuple(Fraction(c, denominator) for c in numerators)
    member = ss.lattice_contains(lattice, v)
    assert member == oracle_contains(n, a, v)
    if member and any(v):
        assert ss.is_primitive(lattice, v) == oracle_primitive(n, a, v)


@PROPERTY
@given(
    weights(max_entry=12, max_d=6),
    st.lists(st.tuples(*[st.integers(0, 5)] * 4), min_size=1, max_size=6),
)
def test_valuation_matches_naive_sum(w, exponents):
    h = SparsePoly({exp: 1 for exp in exponents})
    d = w.denominator
    assert Fraction(scaled_valuation(w, h), d) == oracle_valuation(w.fractions, exponents)
    for exp in exponents:
        monomial = SparsePoly.monomial(exp)
        assert Fraction(scaled_valuation(w, monomial), d) == oracle_valuation(w.fractions, [exp])


@PROPERTY
@given(
    st.tuples(*[st.integers(1, 12)] * 3),
    st.integers(1, 6),
    st.lists(st.tuples(*[st.integers(0, 5)] * 4), min_size=1, max_size=6),
)
def test_valuation_with_integer_weights_matches_oracle(numerators, c, exponents):
    # lifted weights c*(w0, 1) as on the index-one cover, w0 = numerators/c
    h = SparsePoly({exp: 1 for exp in exponents})
    value = ss.valuation_with_weights((*numerators, c), h)
    assert type(value) is int
    assert value == c * oracle_valuation([Fraction(m, c) for m in numerators], exponents)


@PROPERTY
@given(st.lists(st.integers(1, 9), max_size=6))
def test_valuation_with_weights_rejects_mismatched_lengths(weights):
    if len(weights) == 4:
        weights.append(1)
    h = SparsePoly.monomial((1, 1, 1, 1))
    with pytest.raises(ValueError, match="expected 4 weights"):
        ss.valuation_with_weights(weights, h)


def test_scan_runtime_budget():
    start = time.perf_counter()
    found = ss.admissible_weights_T(5, 2, 1, 160)
    elapsed = time.perf_counter() - start
    assert len(found) == 15583
    assert elapsed < 0.5, f"admissible_weights_T(5, 2, 1, 160) took {elapsed:.2f}s, budget 0.5s"
    # the walk visits e = n/d <= 2*bound/k only, so a 31-digit index costs no more
    n = 10**30 + 57
    start = time.perf_counter()
    found = ss.admissible_weights_T(n, 1, 1, 2)
    elapsed = time.perf_counter() - start
    assert found == [
        ss.WeightVector(w, n) for w in ((1, n - 1, 1), (n + 2, n - 2, 2), (n + 3, 2 * n - 3, 3))
    ]
    assert elapsed < 0.1, f"admissible_weights_T(10**30 + 57, 1, 1, 2) took {elapsed:.3f}s"


def test_census_runtime_budget():
    # the census reads P(u) of degree k, not h(z) = P(z^n) of degree k*n, and g = [] makes
    # P = u^k: its only root z = 0 has multiplicity k*n, a closed form
    germ = ss.validate_germ({"n": 1, "a": 0, "case": "T", "k": 10**6, "g": []})
    record = ss.build_contraction(germ, ss.WeightVector((1, 10**6 - 1, 1)))
    start = time.perf_counter()
    found = ss.census(record)
    elapsed = time.perf_counter() - start
    assert [entry.type_label for entry in found.interior] == ["A999999"]
    assert found.interior[0].count == 1
    assert elapsed < 0.1, f"census at k = 10**6 took {elapsed:.3f}s, budget 0.1s"
