import random
from fractions import Fraction

import pytest

import semistable as ss
from oracles import oracle_contains, oracle_primitive


def frac(*entries):
    return tuple(Fraction(e) for e in entries)


def test_contains_examples():
    L = ss.QuotientLattice(2, 1)
    assert ss.lattice_contains(L, frac("1/2", "5/2", "3/2"))
    assert not ss.lattice_contains(L, frac("1/2", 1, "1/2"))
    assert ss.lattice_contains(L, frac(0, 0, 0))
    assert ss.lattice_contains(ss.QuotientLattice(5, 2), frac(0, 0, 0))


def test_contains_integer_vectors_always():
    for n, a in [(1, 0), (2, 1), (3, 2), (5, 2)]:
        L = ss.QuotientLattice(n, a)
        assert ss.lattice_contains(L, (1, 4, 7))


def test_contains_dimension_mismatch():
    L = ss.QuotientLattice(2, 1)
    with pytest.raises(ValueError):
        ss.lattice_contains(L, (1, 2))
    with pytest.raises(ValueError):
        ss.lattice_contains(L, (1, 2, 3, 4))


def test_invalid_lattice_data():
    with pytest.raises(ValueError):
        ss.QuotientLattice(2, 2)  # gcd(a, n) != 1
    with pytest.raises(ValueError):
        ss.QuotientLattice(0, 1)  # index n < 1


def test_primitive_examples():
    L = ss.QuotientLattice(2, 1)
    assert ss.is_primitive(L, frac("1/2", "5/2", "3/2"))
    assert not ss.is_primitive(L, (1, 1, 1))  # halves into the lattice
    assert not ss.is_primitive(ss.QuotientLattice(1, 0), (2, 4, 6))


def test_primitive_preconditions():
    L = ss.QuotientLattice(2, 1)
    with pytest.raises(ValueError):
        ss.is_primitive(L, (0, 0, 0))
    with pytest.raises(ValueError):
        ss.is_primitive(L, frac("1/2", 1, "1/2"))  # not in the lattice


def test_character_examples():
    L2 = ss.QuotientLattice(2, 1)
    assert ss.mu_n_character(L2, (1, 1, 0, 0)) == 0
    assert ss.mu_n_character(L2, (0, 0, 2, 0)) == 0
    L5 = ss.QuotientLattice(5, 2)
    assert ss.mu_n_character(L5, (0, 0, 1, 0)) == 2


def test_character_additive():
    rng = random.Random(11)
    L = ss.QuotientLattice(7, 3)
    for _ in range(100):
        m1 = tuple(rng.randrange(6) for _ in range(4))
        m2 = tuple(rng.randrange(6) for _ in range(4))
        product = tuple(x + y for x, y in zip(m1, m2))
        assert ss.mu_n_character(L, product) == (
            ss.mu_n_character(L, m1) + ss.mu_n_character(L, m2)
        ) % 7


def _random_member(rng, L):
    j = rng.randrange(L.n)
    u = [rng.randrange(-5, 6) for _ in range(3)]
    generator = (Fraction(1, L.n), Fraction(-1, L.n), Fraction(L.a, L.n))
    return tuple(Fraction(c) + j * g for c, g in zip(u, generator))


def test_closure_under_integer_multiples():
    rng = random.Random(3)
    for n, a in [(2, 1), (3, 1), (3, 2), (5, 2), (6, 5)]:
        L = ss.QuotientLattice(n, a)
        for _ in range(40):
            v = _random_member(rng, L)
            assert ss.lattice_contains(L, v)
            m = rng.randrange(-4, 5)
            assert ss.lattice_contains(L, tuple(m * c for c in v))


def test_members_scale_to_integers():
    rng = random.Random(5)
    for n, a in [(2, 1), (5, 3)]:
        L = ss.QuotientLattice(n, a)
        for _ in range(40):
            v = _random_member(rng, L)
            assert all((n * c).denominator == 1 for c in v)


def test_membership_and_primitivity_match_bruteforce():
    for n, a in [(1, 0), (2, 1), (3, 1), (3, 2), (5, 2)]:
        L = ss.QuotientLattice(n, a)
        for d in ss.lattices.divisors(n):
            for a1 in range(1, 13):
                for a2 in range(1, 13):
                    for a3 in range(1, 13):
                        v = (Fraction(a1, d), Fraction(a2, d), Fraction(a3, d))
                        member = ss.lattice_contains(L, v)
                        assert member == oracle_contains(n, a, v)
                        if member:
                            assert ss.is_primitive(L, v) == oracle_primitive(n, a, v)


def test_weight_vector_invariants():
    w = ss.WeightVector((1, 5, 3), 2)
    assert w.fractions == frac("1/2", "5/2", "3/2")
    assert str(w) == "(1/2)(1,5,3)"
    assert str(ss.WeightVector((6, 4, 3))) == "(6,4,3)"
    with pytest.raises(ValueError):
        ss.WeightVector((2, 2, 2))  # content 2
    with pytest.raises(ValueError):
        ss.WeightVector((1, -1, 3))
    with pytest.raises(ValueError):
        ss.WeightVector((0, 1, 1))
    with pytest.raises(ValueError):
        ss.WeightVector((1, 1, 1), 0)


def test_weight_from_fractions_round_trip():
    w = ss.WeightVector.from_fractions(frac("1/2", "5/2", "3/2"))
    assert w == ss.WeightVector((1, 5, 3), 2)
    with pytest.raises(ValueError):
        ss.WeightVector.from_fractions(frac(2, 2, 2))


def test_weight_lattice_checks():
    L = ss.QuotientLattice(2, 1)
    assert ss.weight_in_lattice(L, ss.WeightVector((1, 5, 3), 2))
    assert not ss.weight_in_lattice(L, ss.WeightVector((1, 2, 1), 2))
    assert ss.weight_is_primitive(L, ss.WeightVector((1, 1, 1), 2))


def test_parse_weight():
    assert ss.parse_weight("1,5,3/2") == ss.WeightVector((1, 5, 3), 2)
    assert ss.parse_weight("6,4,3") == ss.WeightVector((6, 4, 3))
    for malformed in ("1,5", "a,b,c", "1,5,3/", "1_0,5,3", "+1,5,3", " 1,5,3", "1,5,3/2 ",
                      "\u0661,14,3/5", "1,5,3/\u0662", "1,5,3/+2", "1.0,5,3"):
        with pytest.raises(ValueError) as info:
            ss.parse_weight(malformed)
        assert not isinstance(info.value, ss.DomainRejection)
    for not_a_weight in ("2,2,2", "1,5,3/0", "-1,5,3", "1,5,3/-2"):
        with pytest.raises(ss.DomainRejection):
            ss.parse_weight(not_a_weight)


def test_fraction_serialization():
    assert ss.fraction_to_str(Fraction(3, 2)) == "3/2"
    assert ss.fraction_to_str(Fraction(4, 2)) == "2"
    assert ss.fraction_to_str(7) == "7"
    assert ss.fraction_to_str(Fraction(-5, 10)) == "-1/2"
    assert ss.fraction_to_str(Fraction(-5)) == "-5"


def test_library_inputs_are_exact():
    # ints (not bools) and Fractions only: a float, string or bool is a TypeError
    L = ss.QuotientLattice(2, 1)
    for v in ((0.5, 2.5, 1.5), ("1/2", "5/2", "3/2"), (True, 1, 1)):
        with pytest.raises(TypeError):
            ss.lattice_contains(L, v)
        with pytest.raises(TypeError):
            ss.is_primitive(L, v)
    for numerators, denominator in (((1.0, 5, 3), 2), ((True, 5, 3), 2), ((1, 5, 3), 2.0),
                                    ((1, 5, 3), True), ((Fraction(1), 5, 3), 2)):
        with pytest.raises(TypeError):
            ss.WeightVector(numerators, denominator)
    with pytest.raises(TypeError):
        ss.WeightVector.from_fractions((0.5, 2.5, 1.5))
    with pytest.raises(TypeError):
        ss.SurfaceCone(4, 1, rays=((1.0, 0), (0, 1)))
    h = ss.SparsePoly({(1, 1, 0, 0): 1, (0, 0, 2, 0): 1})
    for weights in ((0.1, 0.2, 0.3, 1), (True, 1, 1, 1)):
        with pytest.raises(TypeError):
            ss.valuation_with_weights(weights, h)
    for entries in ([2.0, 3], [2, True], [Fraction(2), 3]):
        with pytest.raises(TypeError):
            ss.hj_evaluate(entries)
    for bound in (2.5, True, "3"):
        with pytest.raises(TypeError):
            ss.admissible_weights_T(2, 1, 1, bound)
    assert ss.lattice_contains(L, (Fraction(1, 2), 5 * Fraction(1, 2), 3 * Fraction(1, 2)))
