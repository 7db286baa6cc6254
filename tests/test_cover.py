from dataclasses import replace
from fractions import Fraction

import pytest

import semistable as ss
from semistable import WeightVector


def germ_T(n, a, k, g_terms=None):
    return ss.validate_germ({"n": n, "a": a, "case": "T", "k": k, "g": g_terms or []})


def test_cover_data_quadric():
    germ = germ_T(2, 1, 1, [{"coeff": "1", "exp": [0, 0, 0, 2]}])
    record = ss.build_contraction(germ, WeightVector((1, 5, 3), 2))
    data = ss.cover_data(record)
    assert data.d == 2 and data.e == 1
    assert data.lifted_weights == (1, 5, 3, 2)
    assert data.covered_discrepancy == 4
    # independent recomputation: (1+5+3+2) - 6 - 1 on the cover equation
    equation = record.germ.f + record.germ.tg
    assert ss.valuation_with_weights(data.lifted_weights, equation) == 6
    assert ss.verify_cover(record)


def test_cover_trivial_at_index_one():
    record = ss.build_contraction(germ_T(1, 0, 3), WeightVector((2, 1, 1)))
    data = ss.cover_data(record)
    assert data.d == 1 and data.e == 1
    assert data.covered_discrepancy == record.discrepancy == 1
    assert data.lifted_weights == (2, 1, 1, 1)
    assert ss.verify_cover(record)


def test_cover_trivial_for_E8():
    germ = ss.validate_germ(
        {"n": 1, "a": 0, "case": "E8", "g": [{"coeff": "1", "exp": [0, 0, 0, 29]}]}
    )
    record = ss.build_contraction(germ, ss.fixed_weights_DE("E8"))
    data = ss.cover_data(record)
    assert data.d == 1 and data.covered_discrepancy == 1
    assert ss.verify_cover(record)


def test_cover_fixture_family_is_insensitive_to_t_order():
    # xy + z^2 + t^N for N >= 3 with weights (1/2)(1,5,3): the numerical
    # cover data never sees N (finer properties of the cover do, but they
    # are out of scope and not decided here)
    for N in (3, 4, 5):
        germ = germ_T(2, 1, 1, [{"coeff": "1", "exp": [0, 0, 0, N - 1]}])
        record = ss.build_contraction(germ, WeightVector((1, 5, 3), 2))
        assert record.discrepancy == Fraction(3, 2)
        data = ss.cover_data(record)
        assert data.lifted_weights == (1, 5, 3, 2)
        assert data.covered_discrepancy == 4
        assert ss.verify_cover(record)


def test_cover_sweep_over_enumerations():
    for n, a in [(2, 1), (3, 1), (3, 2), (5, 2)]:
        for k in (1, 2):
            germ = germ_T(n, a, k)
            for w in ss.admissible_weights_T(n, a, k, 4):
                record = ss.build_contraction(germ, w)
                data = ss.cover_data(record)
                assert n % data.d == 0
                assert data.e * data.d == n
                assert Fraction(record.discrepancy * data.d).denominator == 1
                assert data.covered_discrepancy == record.discrepancy * data.d + data.d - 1
                assert data.covered_discrepancy >= 1
                assert ss.verify_cover(record)


def test_inconsistent_record_raises_internal_error():
    # a discrepancy with denominator 3 cannot come from an index-2 germ
    germ = germ_T(2, 1, 1, [{"coeff": "1", "exp": [0, 0, 0, 2]}])
    record = ss.build_contraction(germ, WeightVector((1, 5, 3), 2))
    broken = replace(record, discrepancy=Fraction(4, 3))
    with pytest.raises(ss.InternalError):
        ss.cover_data(broken)
    assert not issubclass(ss.InternalError, (ValueError, ss.DomainRejection))
