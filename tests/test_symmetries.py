"""Metamorphic checks: symmetries of the germ that the classification must respect.

Each maps a germ to another whose records, rejections and censuses are
known from the first ones, so one draw checks every output at once with
no oracle.

  * Mirror x <-> y takes (n, a, g(x, y, z, t)) to (n, -a, g(y, x, z, t))
    and the weight (a1, a2, a3)/d to (a2, a1, a3)/d.  lambda, the
    discrepancy, the cover and the interior census stay; the two corners
    swap, and the origin's 1/r(1, q) becomes 1/r(1, q) or 1/r(1, q^-1),
    the same germ.
  * Rescaling t -> s*t multiplies each coefficient of t*g by s to its
    t-degree.  Weights and valuations do not see coefficients, and the
    roots of the census's P(u) all scale by s^(e*a3), so every record,
    lambda, discrepancy and census stays.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import semistable as ss
from semistable import SparsePoly, WeightVector
from oracles import dense_T_records, reduced_T_records, t_power_germs


def mirrored(germ):
    return germ._replace(
        a=-germ.a, tg=SparsePoly({(j, i, k, l): c for (i, j, k, l), c in germ.tg.items()})
    )


def swapped(w):
    a1, a2, a3 = w.numerators
    return WeightVector((a2, a1, a3), w.denominator)


def census_or_none(record):
    try:
        return ss.census(record)
    except ss.UnsupportedForm:
        return None


@st.composite
def germs_with_xy_terms(draw):
    """`t_power_germs`, sometimes with an invariant x^n*t^l or x*y*t^l term, which x <-> y moves."""
    germ = draw(t_power_germs())
    extra = draw(st.sampled_from([None, (germ.n, 0, 0), (1, 1, 0)]))
    if extra is None:
        return germ
    term = SparsePoly.monomial((*extra, draw(st.integers(1, 12))), Fraction(draw(st.sampled_from([1, -2]))))
    return germ._replace(tg=germ.tg + term)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(germs_with_xy_terms() | reduced_T_records().map(lambda record: record.germ),
       st.integers(1, 4))
def test_mirror_x_y_maps_records_to_records(germ, bound):
    # reduced_T_records' germs plant repeated roots, so the interior census is not empty
    records, rejected = ss.enumerate_contractions(germ, bound)
    mirror_records, mirror_rejected = ss.enumerate_contractions(mirrored(germ), bound)
    assert {w for w, _ in mirror_rejected} == {swapped(w) for w, _ in rejected}
    by_w0 = {record.w0: record for record in mirror_records}
    assert set(by_w0) == {swapped(record.w0) for record in records}
    for record in records:
        mirror = by_w0[swapped(record.w0)]
        assert (mirror.lam, mirror.discrepancy) == (record.lam, record.discrepancy)
        cover, mirror_cover = ss.cover_data(record), ss.cover_data(mirror)
        assert mirror_cover._replace(lifted_weights=None) == cover._replace(lifted_weights=None)
        assert ss.verify_cover(mirror) and ss.verify_cover(record)
        data, mirror_data = census_or_none(record), census_or_none(mirror)
        assert (data is None) == (mirror_data is None)
        if data is None:
            continue
        assert mirror_data.interior == data.interior
        corners = [(c.r, c.c) for c in data.corners]
        assert [(c.r, c.c) for c in mirror_data.corners] == corners[::-1]
        assert (data.origin is None) == (mirror_data.origin is None)
        if data.origin is not None:
            r, q, mirror_q = data.origin.r, data.origin.q, mirror_data.origin.q
            assert mirror_data.origin.r == r
            assert mirror_q == q or (mirror_q * q) % r == 1 % r


@pytest.mark.parametrize("s", [2, -3, Fraction(1, 2)])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(record=reduced_T_records() | dense_T_records())
def test_rescaling_t_keeps_records_and_census(s, record):
    germ = record.germ
    scaled = germ._replace(tg=SparsePoly({e: c * Fraction(s) ** e[3] for e, c in germ.tg.items()}))
    again = ss.build_contraction(scaled, record.w0)
    assert (again.lam, again.discrepancy) == (record.lam, record.discrepancy)
    assert ss.census(again) == ss.census(record)
    records, rejected = ss.enumerate_contractions(germ, 2)
    scaled_records, scaled_rejected = ss.enumerate_contractions(scaled, 2)
    assert scaled_rejected == rejected
    assert [(r.w0, r.lam, r.discrepancy, ss.census(r)) for r in scaled_records] == [
        (r.w0, r.lam, r.discrepancy, ss.census(r)) for r in records
    ]
