from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import semistable as ss
from semistable import SparsePoly, WeightVector
from oracles import brute_force_weights_T, t_power_germs


def germ_T(n, a, k, g_terms=None, rho_one=False):
    return ss.validate_germ(
        {"n": n, "a": a, "case": "T", "k": k, "g": g_terms or [], "rho_one": rho_one}
    )


def germ_DE(case, m=None, g_terms=None):
    raw = {"n": 1, "a": 0, "case": case, "g": g_terms or []}
    if m is not None:
        raw["m"] = m
    return ss.validate_germ(raw)


QUADRIC = germ_T(2, 1, 1, [{"coeff": "1", "exp": [0, 0, 0, 2]}])


def test_enumeration_examples():
    assert [w.fractions for w in ss.admissible_weights_T(1, 0, 2, 3)] == [
        (1, 1, 1),
        (1, 3, 2),
        (3, 1, 2),
    ]

    found = {w.fractions for w in ss.admissible_weights_T(2, 1, 1, 3)}
    assert (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)) in found
    assert (Fraction(1, 2), Fraction(5, 2), Fraction(3, 2)) in found
    assert (1, 1, 1) not in found  # divisible by (1/2)(1,1,1) in the lattice

    found = {w.fractions for w in ss.admissible_weights_T(2, 1, 2, 2)}
    assert (Fraction(1, 2), Fraction(3, 2), Fraction(1, 2)) in found


def test_enumeration_bound_zero_is_empty():
    assert ss.admissible_weights_T(1, 0, 2, 0) == []


def test_enumeration_is_sorted_and_validated():
    for n, a, k in [(2, 1, 1), (3, 1, 1), (3, 2, 2)]:
        lattice = ss.QuotientLattice(n, a)
        weights = ss.admissible_weights_T(n, a, k, 4)
        keys = [w.fractions for w in weights]
        assert keys == sorted(keys)
        for w in weights:
            a1, a2, a3 = w.numerators
            assert a1 + a2 == k * n * a3
            assert ss.weight_in_lattice(lattice, w)
            assert ss.weight_is_primitive(lattice, w)
            assert max(w.fractions) <= 4


def test_enumeration_matches_bruteforce_oracle():
    for n, a, k in [(2, 1, 2), (3, 2, 1), (4, 1, 1)]:
        fast = {w.fractions for w in ss.admissible_weights_T(n, a, k, 4)}
        assert fast == brute_force_weights_T(n, a, k, 4)


def test_fixed_weights_table():
    assert ss.fixed_weights_DE("E6") == WeightVector((6, 4, 3))
    assert ss.fixed_weights_DE("E7") == WeightVector((9, 6, 4))
    assert ss.fixed_weights_DE("E8") == WeightVector((15, 10, 6))
    assert ss.fixed_weights_DE("D", 7) == WeightVector((6, 5, 2))
    assert ss.fixed_weights_DE("D", 4) == WeightVector((3, 2, 2))
    with pytest.raises(ValueError):
        ss.fixed_weights_DE("D", 3)
    with pytest.raises(ValueError):
        ss.fixed_weights_DE("A")


def discrepancy(germ, w0):
    return ss.build_contraction(germ, w0).discrepancy


def test_discrepancy_examples():
    assert discrepancy(QUADRIC, WeightVector((1, 5, 3), 2)) == Fraction(3, 2)

    e8 = germ_DE("E8", g_terms=[{"coeff": "1", "exp": [0, 0, 0, 29]}])
    assert discrepancy(e8, WeightVector((15, 10, 6))) == 1

    quartic = germ_T(2, 1, 2, [{"coeff": "1", "exp": [0, 0, 0, 1]}])
    assert discrepancy(quartic, WeightVector((1, 3, 1), 2)) == Fraction(1, 2)


def test_discrepancy_rejects_inadmissible_weights():
    with pytest.raises(ss.NonAdmissibleWeight):
        discrepancy(QUADRIC, WeightVector((1, 2, 1), 2))  # not in the lattice
    with pytest.raises(ss.NonAdmissibleWeight):
        discrepancy(QUADRIC, WeightVector((1, 1, 3), 2))  # not homogeneous
    with pytest.raises(ss.NonAdmissibleWeight):
        discrepancy(germ_DE("E6"), WeightVector((6, 4, 3), 2))


def test_build_contraction_cubic_example():
    cubic = germ_T(
        1, 0, 3,
        [{"coeff": "-3", "exp": [0, 0, 1, 1]}, {"coeff": "2", "exp": [0, 0, 0, 2]}],
    )
    record = ss.build_contraction(cubic, WeightVector((2, 1, 1)))
    assert record.lam == 3
    assert record.discrepancy == 1
    assert record.ambient == (2, 1, 1, 1)
    assert record.E_equation == SparsePoly(
        {(1, 1, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 1, 2): -3, (0, 0, 0, 3): 2}
    )


def test_build_contraction_quartic_example():
    quartic = germ_T(2, 1, 2, [{"coeff": "5", "exp": [0, 0, 0, 1]}])
    record = ss.build_contraction(quartic, WeightVector((1, 3, 1), 2))
    assert record.lam == 2
    assert record.discrepancy == Fraction(1, 2)
    assert record.ambient == (1, 3, 1, 2)
    assert record.E_equation == SparsePoly(
        {(1, 1, 0, 0): 1, (0, 0, 4, 0): 1, (0, 0, 0, 2): 5}
    )


def test_build_contraction_zero_perturbation_keeps_f():
    germ = germ_T(1, 0, 2)
    record = ss.build_contraction(germ, WeightVector((1, 3, 2)))
    assert record.E_equation == germ.f
    assert record.semistable_ok


def test_E_equation_is_homogeneous_of_weight_lambda():
    cases = [
        (QUADRIC, WeightVector((1, 5, 3), 2)),
        (germ_T(2, 1, 2, [{"coeff": "5", "exp": [0, 0, 0, 1]}]), WeightVector((1, 3, 1), 2)),
        (germ_DE("E6", g_terms=[{"coeff": "1", "exp": [0, 0, 0, 11]}]), WeightVector((6, 4, 3))),
    ]
    for germ, w in cases:
        record = ss.build_contraction(germ, w)
        homogeneous, value = ss.is_homogeneous(record.w0, record.E_equation)
        assert homogeneous and value == record.lam


def test_semistability_violation_carries_witness():
    e6 = germ_DE("E6", g_terms=[{"coeff": "1", "exp": [0, 0, 0, 1]}])  # t*g = t^2
    with pytest.raises(ss.SemistabilityViolation) as info:
        ss.build_contraction(e6, WeightVector((6, 4, 3)))
    assert info.value.witness == (0, 0, 0, 2)


def test_status_follows_rho_flag():
    pending = ss.build_contraction(germ_T(1, 0, 2), WeightVector((1, 1, 1)))
    assert pending.contraction_status == "pending-rho"
    divisorial = ss.build_contraction(
        germ_T(1, 0, 2, rho_one=True), WeightVector((1, 1, 1))
    )
    assert divisorial.contraction_status == "divisorial-contraction"


def test_de_lambda_and_discrepancy_sweep():
    for case, m, lam in (
        [("D", m, 2 * m - 2) for m in range(4, 13)]
        + [("E6", None, 12), ("E7", None, 18), ("E8", None, 30)]
    ):
        germ = germ_DE(case, m, [{"coeff": "1", "exp": [0, 0, 0, lam - 1]}])
        record = ss.build_contraction(germ, ss.fixed_weights_DE(case, m))
        assert record.lam == lam
        assert record.discrepancy == 1


def test_enumerate_contractions():
    records, rejected = ss.enumerate_contractions(germ_T(1, 0, 2), 3)
    assert [r.w0.fractions for r in records] == [(1, 1, 1), (1, 3, 2), (3, 1, 2)]
    assert rejected == []
    keys = [(r.lam, r.w0.fractions) for r in records]
    assert keys == sorted(keys)

    # a perturbation of weight 3 kills every weight with lam > 3
    germ = germ_T(1, 0, 2, [{"coeff": "1", "exp": [0, 0, 0, 2]}])
    records, rejected = ss.enumerate_contractions(germ, 3)
    assert [r.w0.fractions for r in records] == [(1, 1, 1)]
    assert [w.fractions for w, _ in rejected] == [(1, 3, 2), (3, 1, 2)]

    single, none_rejected = ss.enumerate_contractions(
        germ_DE("E6", g_terms=[{"coeff": "1", "exp": [0, 0, 0, 11]}])
    )
    assert len(single) == 1 and single[0].w0 == WeightVector((6, 4, 3))
    assert none_rejected == []

    with pytest.raises(ValueError):
        ss.enumerate_contractions(germ_T(1, 0, 2))


# at w0 = (1,3,2), lambda = 4: z*t and t^3 tie at weight 3 (the witness is t^3, the
# least exponent), and z*t (weight 3) lies below t^5 (the witness is z*t, the least weight)
TIED = germ_T(1, 0, 2, [{"coeff": "1", "exp": [0, 0, 0, 2]}, {"coeff": "1", "exp": [0, 0, 1, 0]}])
LOWER = germ_T(1, 0, 2, [{"coeff": "1", "exp": [0, 0, 0, 4]}, {"coeff": "1", "exp": [0, 0, 1, 0]}])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(t_power_germs(), st.integers(1, 4))
@example(TIED, 3)
@example(LOWER, 3)
def test_enumeration_decides_each_weight_as_build_contraction_does(germ, bound):
    # enumeration trusts its scan; build_contraction checks every weight anew
    records, rejected = ss.enumerate_contractions(germ, bound)
    scanned = ss.admissible_weights_T(germ.n, germ.a, germ.k, bound)
    decided = [r.w0 for r in records] + [w for w, _ in rejected]
    assert sorted(decided) == sorted(scanned)
    for record in records:
        w = record.w0
        assert record == ss.build_contraction(germ, w)
        # the discrepancy formula that lambda replaced: sum(w0, 1) - w(f + t*g) - 1
        assert record.discrepancy == sum(w.fractions) + 1 - ss.valuation(w, germ.equation) - 1
    for w, witness in rejected:
        with pytest.raises(ss.SemistabilityViolation) as info:
            ss.build_contraction(germ, w)
        assert info.value.witness == witness


def test_discrepancy_matches_toric_surface_discrepancy():
    # the 3-fold discrepancy equals psi(alpha) on the fibre cone, so the
    # inserted surface divisor has discrepancy a - 1
    for n, a, k in [(1, 0, 2), (2, 1, 1), (2, 1, 2), (3, 1, 1)]:
        germ = germ_T(n, a, k)
        cone = ss.fibre_cone(k, n, a)
        for w in ss.admissible_weights_T(n, a, k, 4):
            record = ss.build_contraction(germ, w)
            ray = ss.weight_to_ray(k, n, w)
            _, _, f_disc = ss.toric_subdivide(cone, ray)
            assert f_disc == record.discrepancy - 1


def test_ordinary_double_point_blowup_has_discrepancy_one():
    # xy + z^2 + t^2 = 0 blown up with weights (1,1,1,1)
    odp = germ_T(1, 0, 2, [{"coeff": "1", "exp": [0, 0, 0, 1]}])
    record = ss.build_contraction(odp, WeightVector((1, 1, 1)))
    assert record.discrepancy == 1
    assert record.E_equation == SparsePoly(
        {(1, 1, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 1}
    )


def test_non_normal_fibre_germ_is_display_only():
    germ = ss.validate_germ({"n": 3, "a": 1, "case": "N",
                             "g": [{"coeff": "1", "exp": [0, 0, 0, 1]}]})
    ok, reason = ss.is_admissible(germ, WeightVector((1, 1, 1)))
    assert not ok and "normal" in reason
    with pytest.raises(ss.DomainRejection):
        ss.enumerate_contractions(germ, 3)
    with pytest.raises(ss.NonAdmissibleWeight):
        ss.build_contraction(germ, WeightVector((1, 1, 1)))


def test_record_json_shape():
    record = ss.build_contraction(QUADRIC, WeightVector((1, 5, 3), 2))
    data = record.to_json()
    assert data["lambda"] == "3"
    assert data["discrepancy"] == "3/2"
    assert data["ambient"] == [1, 5, 3, 2]
    assert data["E_equation_str"] == "X*Y + Z^2 + T^3"
