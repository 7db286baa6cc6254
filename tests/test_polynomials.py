import copy
import pickle
import random
from fractions import Fraction

import pytest

import semistable as ss
from semistable import SparsePoly
from semistable.polynomials import min_weight_monomial, scaled_graded_piece
from oracles import dense_product, poly_product

W = ss.WeightVector


def monomial_weight(w, exp):
    return ss.valuation(w, SparsePoly.monomial(exp))


def test_monomial_weight_examples():
    w = W((1, 5, 3), 2)
    assert monomial_weight(w, (1, 1, 0, 0)) == 3  # xy
    assert monomial_weight(w, (0, 0, 2, 0)) == 3  # z^2
    assert monomial_weight(w, (0, 0, 0, 0)) == 0
    assert monomial_weight(W((1, 1, 1)), (0, 0, 0, 7)) == 7  # t^7


def test_valuation_examples():
    assert ss.valuation(W((6, 4, 3)), ss.normal_form("E6")) == 12
    assert ss.valuation(W((15, 10, 6)), ss.normal_form("E8")) == 30
    assert ss.valuation(W((1, 1, 1)), SparsePoly({(0, 0, 0, 7): 1})) == 7
    for zero_valuation in (
        lambda: ss.valuation(W((1, 1, 1)), SparsePoly()),
        lambda: ss.valuation_with_weights((1, 1, 1, 1), SparsePoly()),
        lambda: min_weight_monomial(W((1, 1, 1)), SparsePoly()),
    ):
        with pytest.raises(ss.ZeroPolynomialError):
            zero_valuation()


def test_homogeneity_examples():
    ok, weight = ss.is_homogeneous(W((4, 3, 2)), ss.normal_form("D", m=5))
    assert ok and weight == 8
    ok, weight = ss.is_homogeneous(W((9, 6, 4)), ss.normal_form("E7"))
    assert ok and weight == 18
    mixed = SparsePoly({(1, 0, 0, 0): 1, (0, 0, 2, 0): 1})
    assert ss.is_homogeneous(W((1, 1, 1)), mixed) == (False, None)
    with pytest.raises(ss.ZeroPolynomialError):
        ss.is_homogeneous(W((1, 1, 1)), SparsePoly())


def graded_pieces(w, h):
    """(weight, piece) for each weight of a monomial of h, ascending."""
    scaled = sorted({int(w.denominator * monomial_weight(w, e)) for e, _ in h.items()})
    return [(Fraction(s, w.denominator), scaled_graded_piece(w, h, s)) for s in scaled]


def test_graded_decomposition_examples():
    h = SparsePoly({(1, 1, 0, 0): 1, (0, 0, 3, 0): 1})
    pieces = graded_pieces(W((1, 1, 1)), h)
    assert [(weight, len(part)) for weight, part in pieces] == [(2, 1), (3, 1)]

    h = SparsePoly({(1, 1, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 3): 1})
    pieces = graded_pieces(W((1, 5, 3), 2), h)
    assert pieces == [(3, h)]

    h = SparsePoly({(1, 1, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 1, 2): 1, (0, 0, 0, 3): 1})
    assert [weight for weight, _ in graded_pieces(W((2, 1, 1)), h)] == [3]
    # a weight no monomial has gives the zero piece
    assert scaled_graded_piece(W((1, 5, 3), 2), h, 5).is_zero


def _random_sparse(rng, terms=4, positive=False):
    data = {}
    for _ in range(terms):
        exp = tuple(rng.randrange(4) for _ in range(4))
        coeff = rng.randrange(1, 7) if positive else rng.randrange(-6, 7) or 1
        data[exp] = coeff
    return SparsePoly(data)


def _random_weight(rng):
    while True:
        nums = tuple(rng.randrange(1, 9) for _ in range(3))
        try:
            return W(nums, rng.choice([1, 1, 2, 3]))
        except ValueError:
            continue


def test_valuation_additive_on_positive_products():
    rng = random.Random(19)
    for _ in range(60):
        w = _random_weight(rng)
        h1 = _random_sparse(rng, positive=True)
        h2 = _random_sparse(rng, positive=True)
        product = poly_product(h1, h2)
        assert ss.valuation(w, product) == ss.valuation(w, h1) + ss.valuation(w, h2)


def test_graded_pieces_sum_to_whole():
    rng = random.Random(23)
    for _ in range(40):
        w = _random_weight(rng)
        h = _random_sparse(rng, terms=6)
        if h.is_zero:
            continue
        pieces = graded_pieces(w, h)
        total = SparsePoly()
        for weight, part in pieces:
            ok, value = ss.is_homogeneous(w, part)
            assert ok and value == weight
            total = total + part
        assert total == h
        assert ss.valuation(w, h) == pieces[0][0]


def test_mu_invariance_examples():
    L = ss.QuotientLattice(2, 1)
    h = SparsePoly({(1, 1, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 3): 1})
    assert ss.is_mu_n_invariant(L, h)
    assert not ss.is_mu_n_invariant(L, SparsePoly({(0, 0, 1, 0): 1}))
    trivial = ss.QuotientLattice(1, 0)
    assert ss.is_mu_n_invariant(trivial, SparsePoly({(0, 0, 1, 0): 5, (1, 0, 0, 2): 3}))


def test_squarefree_examples():
    # coefficient lists, constant term first
    assert ss.squarefree_multiplicities([2, -3, 0, 1]) == [(1, 1), (1, 2)]
    for k in (1, 2, 5, 9):
        assert ss.squarefree_multiplicities([0] * k + [1]) == [(1, k)]
    assert ss.squarefree_multiplicities([1, 0, 1]) == [(2, 1)]
    assert ss.squarefree_multiplicities([Fraction(1, 2), 0, 0, 0]) == []  # trailing zeros
    assert ss.squarefree_multiplicities([5]) == []
    for zero in ([], [0], [Fraction(0), 0]):
        with pytest.raises(ss.ZeroPolynomialError):
            ss.squarefree_multiplicities(zero)
    for inexact in ([1.0, 1], ["1", 1], [True, 1], [1, 0.5]):
        with pytest.raises(TypeError):
            ss.squarefree_multiplicities(inexact)


def test_squarefree_against_constructed_products():
    rng = random.Random(31)
    for _ in range(30):
        roots = rng.sample(range(-9, 10), rng.randrange(1, 5))
        expected = {}
        factors = [[rng.choice([1, 2, -3])]]
        for root in roots:
            mult = rng.randrange(1, 5)
            factors += [[-root, 1]] * mult
            expected[mult] = expected.get(mult, 0) + 1
        h = dense_product(*factors)
        got = ss.squarefree_multiplicities(h)
        assert got == [(expected[mult], mult) for mult in sorted(expected)]
        assert sum(deg * mult for deg, mult in got) == len(h) - 1


def test_squarefree_degree_bookkeeping_with_conjugate_roots():
    # (z^2 + 1)^2 * (z - 1): conjugate double pair plus a simple rational root
    h = dense_product([1, 0, 1], [1, 0, 1], [-1, 1])
    assert ss.squarefree_multiplicities(h) == [(1, 1), (2, 2)]


def test_poly_json_round_trip():
    h = SparsePoly({(1, 1, 0, 0): 1, (0, 0, 2, 0): Fraction(-3, 2)})
    data = ss.poly_to_json(h)
    assert {"coeff": "-3/2", "exp": [0, 0, 2, 0]} in data
    assert ss.poly_from_json(data) == h


def test_poly_arithmetic_and_formatting():
    x = SparsePoly.monomial((1, 0, 0, 0))
    h = poly_product(x, x) + SparsePoly({(0, 0, 1, 0): -2, (0, 0, 0, 0): Fraction(1, 3)})
    assert ss.format_poly(h) == "x^2 - 2*z + 1/3"
    assert ss.format_poly(SparsePoly({(0, 1, 0, 0): -1, (0, 0, 0, 2): -1})) == "-y - t^2"
    assert (h + SparsePoly({e: -c for e, c in h.items()})).is_zero
    assert ss.format_poly(SparsePoly()) == "0"


def test_sparse_poly_inputs_are_exact():
    # exponents are four nonnegative ints, coefficients ints or Fractions
    for terms in ({(0, 0, 0, 1.5): 1}, {(0, 0, 0, True): 1}, {(0, 0, 0, 1): 0.1},
                  {(0, 0, 0, 1): "1/3"}, {(0, 0, 0, 1): True}):
        with pytest.raises(TypeError):
            SparsePoly(terms)
    with pytest.raises(TypeError):
        SparsePoly.monomial((0, 0, 1, 0), 0.5)
    for terms in ({(1, 0, 0): 1}, {(1, 0, 0, 0, 0): 1}, {(0, 0, -1, 0): 1}):
        with pytest.raises(ValueError):
            SparsePoly(terms)
    h = SparsePoly({(0, 0, 0, 1): Fraction(1, 10), (1, 1, 0, 0): 2})
    assert ss.format_poly(h) == "2*x*y + 1/10*t"


def test_times_t_shifts_exponent():
    g = SparsePoly({(0, 0, 1, 1): -3, (0, 0, 0, 2): 2})
    assert g.times_t() == SparsePoly({(0, 0, 1, 2): -3, (0, 0, 0, 3): 2})


def test_valuation_with_explicit_weights():
    h = SparsePoly({(1, 1, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 3): 1})
    assert ss.valuation_with_weights((1, 5, 3, 2), h) == 6
    assert type(ss.valuation_with_weights((1, 5, 3, 2), h)) is int
    half = Fraction(1, 2)
    assert ss.valuation_with_weights((half, 5 * half, 3 * half, 1), h) == 3


def test_sparse_poly_is_immutable():
    h = SparsePoly({(1, 1, 0, 0): 1, (0, 0, 2, 0): 1})
    for name, value in (("_terms", {}), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(h, name, value)
    with pytest.raises(AttributeError):
        delattr(h, "_terms")
    assert h == SparsePoly({(1, 1, 0, 0): 1, (0, 0, 2, 0): 1})
    for again in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert again == h and hash(again) == hash(h)
