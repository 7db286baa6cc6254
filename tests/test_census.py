from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import semistable as ss
from semistable import SurfaceCone, WeightVector
from oracles import dense_T_records, oracle_interior, reduced_T_records

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def record_T(n, a, k, w, g_terms=None):
    germ = ss.validate_germ({"n": n, "a": a, "case": "T", "k": k, "g": g_terms or []})
    return ss.build_contraction(germ, WeightVector(*w))


CUBIC = record_T(
    1, 0, 3, ((2, 1, 1),),
    [{"coeff": "-3", "exp": [0, 0, 1, 1]}, {"coeff": "2", "exp": [0, 0, 0, 2]}],
)
QUARTIC = record_T(2, 1, 2, ((1, 3, 1), 2), [{"coeff": "5", "exp": [0, 0, 0, 1]}])


def test_reduced_coefficients_cubic():
    red = ss.reduced_g_coefficients(CUBIC)
    assert dict(red.c) == {1: Fraction(-3), 0: Fraction(2)}
    assert red.l_series == 0 and red.l_fibre == 0
    assert red.caveat is None


def test_reduced_coefficients_quartic():
    red = ss.reduced_g_coefficients(QUARTIC)
    assert dict(red.c) == {0: Fraction(5)}
    assert red.l_series == 0 and red.l_fibre == 0
    assert (red.k, red.n, red.e) == (2, 2, 1)


def test_reduced_rejects_off_grid_monomials():
    with pytest.raises(ss.UnsupportedForm, match="x or y"):
        ss.reduced_g_coefficients(
            record_T(1, 0, 3, ((2, 1, 1),), [{"coeff": "1", "exp": [1, 0, 0, 5]}])
        )
    with pytest.raises(ss.UnsupportedForm, match="reduced bound"):
        ss.reduced_g_coefficients(
            record_T(1, 0, 2, ((1, 1, 1),), [{"coeff": "1", "exp": [0, 0, 2, 2]}])
        )
    # a z-power off the z^n grid has nonzero character, so no germ carries one
    with pytest.raises(ss.GermRejection, match="not invariant"):
        ss.GermSpec(n=2, a=1, case="T", k=2, m=None, tg=ss.SparsePoly({(0, 0, 1, 4): 1}))


def test_reduced_tracks_series_tails():
    # b_1 = -3 + t, b_0 = 2t: c_1 = -3, c_0 = 0, l_series = 0 via the t^4 tail?
    # no: the b_0 column starts at t^3; its tail t^4 keeps c_0 = 0 but b_0 != 0.
    record = record_T(
        1, 0, 3, ((2, 1, 1),),
        [
            {"coeff": "-3", "exp": [0, 0, 1, 1]},
            {"coeff": "1", "exp": [0, 0, 1, 2]},
            {"coeff": "2", "exp": [0, 0, 0, 3]},
        ],
    )
    red = ss.reduced_g_coefficients(record)
    assert dict(red.c) == {1: Fraction(-3)}
    assert red.l_series == 0
    assert red.l_fibre == 1


def test_interior_census_cubic():
    entries = ss.census(CUBIC).interior
    assert [(e.l, e.count, e.type_label) for e in entries] == [(2, 1, "A1")]


def test_interior_census_degenerate_double_root():
    # k = 2, t*g = t^3: c_0 = 0, h = z^2, one A1 at the chart coordinate 0
    record = record_T(1, 0, 2, ((1, 1, 1),), [{"coeff": "1", "exp": [0, 0, 0, 2]}])
    entries = ss.census(record).interior
    assert [(e.l, e.count) for e in entries] == [(2, 1)]


def test_interior_census_squarefree_chart():
    # h = z^3 + 1 has three simple roots
    record = record_T(1, 0, 3, ((2, 1, 1),), [{"coeff": "1", "exp": [0, 0, 0, 2]}])
    assert ss.census(record).interior == ()
    assert ss.census(QUARTIC).interior == ()


def test_interior_census_conjugate_points_grouped():
    # h = z^4 - 2z^2 + 1 = (z^2-1)^2: double roots at +-1, one entry of count 2
    record = record_T(
        1, 0, 4, ((1, 3, 1),),
        [{"coeff": "-2", "exp": [0, 0, 2, 1]}, {"coeff": "1", "exp": [0, 0, 0, 3]}],
    )
    entries = ss.census(record).interior
    assert [(e.l, e.count) for e in entries] == [(2, 2)]


@PROPERTY
@given(reduced_T_records())
def test_interior_multiplicities_match_sympy(record):
    interior = ss.census(record).interior
    assert [(entry.l, entry.count) for entry in interior] == sorted(oracle_interior(record))


@PROPERTY
@given(reduced_T_records(max_n=12, max_k=5))
def test_interior_multiplicities_match_sympy_on_a_wider_draw(record):
    # deg h = k*n reaches 60, while the census runs Yun on Q(u) of degree <= 5
    interior = ss.census(record).interior
    assert [(entry.l, entry.count) for entry in interior] == sorted(oracle_interior(record))


@PROPERTY
@given(dense_T_records())
def test_interior_multiplicities_match_sympy_on_dense_draws(record):
    # Q(u) reaches degree 60, dense, with planted repeated factors
    interior = ss.census(record).interior
    assert [(entry.l, entry.count) for entry in interior] == sorted(oracle_interior(record))


def test_origin_entry_absent_for_index_one():
    assert ss.census(CUBIC).origin is None


def test_origin_entry_absent_when_constant_term_survives():
    assert ss.census(QUARTIC).origin is None


def test_origin_entry_quartic_with_z_column():
    # t*g = z^2 t: l = 1 survives, origin is (xy + z^2 = 0) in (1/2)(1,-1,1)
    record = record_T(2, 1, 2, ((1, 3, 1), 2), [{"coeff": "1", "exp": [0, 0, 2, 0]}])
    entry = ss.census(record).origin
    assert entry is not None
    assert entry.index == 2 and entry.b == 1
    assert entry.z_power == 2
    assert entry.quotient == (1, 2, 1)
    assert (entry.r, entry.q) == (4, 1)
    assert entry.l_fibre == 1 and entry.l_series == 1 and not entry.divergent


def test_origin_divergence_flag():
    # b_0 = t only: l_series = 0 but c_0 = 0, so the fibre reading jumps to k
    record = record_T(2, 1, 2, ((1, 3, 1), 2), [{"coeff": "1", "exp": [0, 0, 0, 2]}])
    entry = ss.census(record).origin
    assert entry is not None
    assert entry.l_series == 0 and entry.l_fibre == 2
    assert entry.divergent
    assert entry.caveat is not None


def test_corner_examples():
    first, second = ss.census(CUBIC).corners
    assert (first.r, first.c, first.smooth) == (2, 1, False)
    assert second.smooth

    first, second = ss.census(QUARTIC).corners
    assert first.smooth
    assert (second.r, second.c) == (3, 2)

    both = ss.census(record_T(1, 0, 2, ((1, 1, 1),))).corners
    assert both[0].smooth and both[1].smooth


def test_corner_integrality_across_enumeration():
    for n, a, k in [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 2, 2), (4, 1, 1), (5, 2, 1)]:
        germ = ss.validate_germ({"n": n, "a": a, "case": "T", "k": k, "g": []})
        for w in ss.admissible_weights_T(n, a, k, 4):
            record = ss.build_contraction(germ, w)
            for corner in ss.census(record).corners:
                assert corner.r >= 1
                if corner.r > 1:
                    assert 1 <= corner.c < corner.r
                    assert gcd(corner.c, corner.r) == 1


def test_census_assembles_and_serializes():
    data = ss.census(CUBIC)
    payload = data.to_json()
    assert payload["interior"] == [{"type": "A1", "count": 1, "l": 2}]
    assert payload["origin"] is None
    assert payload["corners"][0] == {
        "point": "(1:0:0:0)",
        "r": 2,
        "weights": [1, -1, 1],
        "equation": "xy = 0",
        "smooth": False,
    }
    assert payload["corners"][1]["smooth"]


def test_census_counts_are_consistent_with_squarefree_oracle():
    # one entry per multiple squarefree factor of h(z), and no more roots than deg h = k*n
    entries = ss.census(CUBIC).interior
    assert [(entry.l, entry.count) for entry in entries] == sorted(oracle_interior(CUBIC))
    assert sum(entry.count for entry in entries) <= CUBIC.germ.k * CUBIC.germ.n


def test_census_refuses_de_cases():
    e6 = ss.validate_germ(
        {"n": 1, "a": 0, "case": "E6", "g": [{"coeff": "1", "exp": [0, 0, 0, 11]}]}
    )
    record = ss.build_contraction(e6, ss.fixed_weights_DE("E6"))
    with pytest.raises(ss.DomainRejection):
        ss.census(record)
    d4 = ss.validate_germ({"n": 1, "a": 0, "case": "D", "m": 4, "g": []})
    with pytest.raises(ss.DomainRejection, match="census templates"):
        ss.census(ss.build_contraction(d4, ss.fixed_weights_DE("D", 4)))


def test_index_one_path_reproduces_plain_census():
    # the index-n formulas specialize to the index-1 ones: d = 1, e = n
    record = record_T(1, 0, 3, ((2, 1, 1),),
                      [{"coeff": "-3", "exp": [0, 0, 1, 1]},
                       {"coeff": "2", "exp": [0, 0, 0, 2]}])
    red = ss.reduced_g_coefficients(record)
    assert (red.e, red.n) == (1, 1)
    first, second = ss.census(record).corners
    # index-1 closed form: 1/a1(1,-1,a3) and 1/a2(1,-1,a3)
    assert (first.r, first.c) == (2, 1 % 2)
    assert second.r == 1


# a record of {"n": 5, "a": 2, "case": "T", "k": 1, "g": []}, to be rebuilt by hand
INDEX_FIVE = record_T(5, 2, 1, ((3, 2, 1), 5))


@pytest.mark.parametrize(
    "w0, reason",
    [
        (WeightVector((1, 4, 1), 5), "does not lie in"),
        (WeightVector((1, 9, 2), 2), "does not lie in"),
        (WeightVector((1, 9, 2)), "imprimitive"),
        (WeightVector((1, 1, 1)), "not homogeneous"),
    ],
)
def test_census_rejects_a_hand_built_weight(w0, reason):
    # no record of an inadmissible weight exists for the census or the cover to see
    _, expected = ss.is_admissible(INDEX_FIVE.germ, w0)
    for build in (lambda: INDEX_FIVE._replace(w0=w0),
                  lambda: ss.ContractionRecord(INDEX_FIVE.germ, w0)):
        with pytest.raises(ss.NonAdmissibleWeight, match=reason) as info:
            build()
        assert str(info.value) == expected


@pytest.mark.parametrize("t_power", [3, 4])
def test_census_rejects_a_hand_built_unstable_pair(t_power):
    # t*g = t^3 or t^4 lies below w(f) = 5 for w0 = (1, 4, 5): no record of the pair exists
    record = record_T(1, 0, 1, ((1, 4, 5),))
    germ = ss.validate_germ(
        {"n": 1, "a": 0, "case": "T", "k": 1, "g": [{"coeff": "1", "exp": [0, 0, 0, t_power - 1]}]}
    )
    messages = set()
    for build in (lambda: record._replace(germ=germ),
                  lambda: ss.build_contraction(germ, record.w0)):
        with pytest.raises(ss.SemistabilityViolation) as info:
            build()
        assert info.value.witness == (0, 0, 0, t_power)
        messages.add(str(info.value))
    assert messages == {f"w(t*g) = {t_power} < w(f) = 5; witness monomial t^{t_power}"}


@st.composite
def fibre_configs(draw):
    n = draw(st.integers(1, 12))
    a = draw(st.sampled_from([a for a in range(n) if gcd(a, n) == 1]))
    return n, a, draw(st.integers(1, 4)), draw(st.integers(0, 6))


@PROPERTY
@given(fibre_configs())
def test_corners_are_the_subdivided_fibre_cones(config):
    # the corners of E are the torus-fixed points of F on the subdivided fibre
    n, a, k, bound = config
    germ = ss.validate_germ({"n": n, "a": a, "case": "T", "k": k, "g": []})
    cone = ss.fibre_cone(k, n, a)
    records, rejected = ss.enumerate_contractions(germ, bound)
    assert not rejected
    for record in records:
        c1, c2 = ss.census(record).corners
        left, right, F = ss.toric_subdivide(cone, ss.weight_to_ray(k, n, record.w0))
        assert right == SurfaceCone(c1.r, -pow(c1.c, -1, c1.r))
        assert left == SurfaceCone(c2.r, -c2.c)
        assert F == record.discrepancy - 1
