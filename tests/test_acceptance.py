"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest -v -s tests/test_acceptance.py` to see one line per
criterion; each test also enforces its runtime budget.  The last two
tests are runtime gates of the census on dense chart polynomials.
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

import semistable as ss
from semistable import WeightVector
from oracles import brute_force_weights_T, dense_T_record, oracle_interior, oracle_valuation

DE_CASES = [("D", m) for m in range(4, 13)] + [("E6", None), ("E7", None), ("E8", None)]
DE_LAMBDA = {"E6": 12, "E7": 18, "E8": 30}
ORACLE_CONFIGS = [
    (1, 0, 1), (1, 0, 2), (1, 0, 3),
    (2, 1, 1), (2, 1, 2),
    (3, 1, 1), (3, 2, 2),
    (5, 2, 1),
]


def _stopwatch(limit):
    start = time.perf_counter()

    def check(label):
        elapsed = time.perf_counter() - start
        assert elapsed < limit, f"{label} took {elapsed:.2f}s, budget {limit}s"
        return elapsed

    return check


def _germ_T(n, a, k, g_terms=None):
    return ss.validate_germ({"n": n, "a": a, "case": "T", "k": k, "g": g_terms or []})


def _germ_DE(case, m, lam):
    raw = {"n": 1, "a": 0, "case": case,
           "g": [{"coeff": "1", "exp": [0, 0, 0, lam - 1]}]}  # t*g = t^lam, generic
    if m is not None:
        raw["m"] = m
    return ss.validate_germ(raw)


def _quadric_germ():
    return _germ_T(2, 1, 1, [{"coeff": "1", "exp": [0, 0, 0, 2]}])


def _cubic_census_record():
    germ = _germ_T(1, 0, 3, [{"coeff": "-3", "exp": [0, 0, 1, 1]},
                             {"coeff": "2", "exp": [0, 0, 0, 2]}])
    return ss.build_contraction(germ, WeightVector((2, 1, 1)))


def _quartic_census_record():
    germ = _germ_T(2, 1, 2, [{"coeff": "7", "exp": [0, 0, 0, 1]}])  # c0 = 7 != 0
    return ss.build_contraction(germ, WeightVector((1, 3, 1), 2))


def _all_records():
    """Every record emitted across criteria 1-6, rebuilt deterministically."""
    records = []
    for case, m in DE_CASES:
        lam = DE_LAMBDA.get(case, 2 * m - 2 if m else None)
        germ = _germ_DE(case, m, lam)
        records.append(ss.build_contraction(germ, ss.fixed_weights_DE(case, m)))
    quadric = _quadric_germ()
    records.append(ss.build_contraction(quadric, WeightVector((1, 5, 3), 2)))
    records.append(_cubic_census_record())
    records.append(_quartic_census_record())
    for n, a, k in ORACLE_CONFIGS:
        germ = _germ_T(n, a, k)
        for w in ss.admissible_weights_T(n, a, k, 6):
            records.append(ss.build_contraction(germ, w))
    return records


def _monomial_weights(w, h):
    return {oracle_valuation(w.fractions, [e]) for e, _ in h.items()}


def test_criterion_1_de_weight_tables():
    check = _stopwatch(1.0)
    for m in range(4, 13):
        w = ss.fixed_weights_DE("D", m)
        assert w == WeightVector((m - 1, m - 2, 2))
        assert _monomial_weights(w, ss.normal_form("D", m=m)) == {2 * m - 2}  # homogeneous
    for case, expected in [("E6", (6, 4, 3)), ("E7", (9, 6, 4)), ("E8", (15, 10, 6))]:
        w = ss.fixed_weights_DE(case)
        assert w == WeightVector(expected)
        assert _monomial_weights(w, ss.normal_form(case)) == {DE_LAMBDA[case]}
    elapsed = check("criterion 1")
    print(f"\nACCEPTANCE 1 PASS: D/E weight tables and lambda values exact ({elapsed:.2f}s)")


def test_criterion_2_discrepancy_cross_validation():
    check = _stopwatch(1.0)
    for case, m in DE_CASES:
        lam = DE_LAMBDA.get(case, 2 * m - 2 if m else None)
        germ = _germ_DE(case, m, lam)
        assert ss.build_contraction(germ, ss.fixed_weights_DE(case, m)).discrepancy == 1
    record = ss.build_contraction(_quadric_germ(), WeightVector((1, 5, 3), 2))
    assert record.discrepancy == Fraction(3, 2)
    data = ss.cover_data(record)
    assert data.lifted_weights == (1, 5, 3, 2)
    assert data.covered_discrepancy == 4  # a*d + d - 1
    equation = record.germ.f + record.germ.tg  # independent recomputation
    direct = sum(data.lifted_weights) - ss.valuation_with_weights(
        data.lifted_weights, equation
    ) - 1
    assert direct == 4
    assert ss.verify_cover(record)
    elapsed = check("criterion 2")
    print(f"ACCEPTANCE 2 PASS: discrepancies 1 and 3/2 with cover check a~=4 ({elapsed:.2f}s)")


def test_criterion_3_enumeration_oracle_equivalence():
    check = _stopwatch(10.0)
    for n, a, k in ORACLE_CONFIGS:
        fast = {w.fractions for w in ss.admissible_weights_T(n, a, k, 6)}
        slow = brute_force_weights_T(n, a, k, 6)
        assert fast == slow, f"enumeration mismatch for (n,a,k)=({n},{a},{k})"
    half = Fraction(1, 2)
    found = {w.fractions for w in ss.admissible_weights_T(2, 1, 1, 6)}
    assert (half, half, half) in found
    assert (Fraction(1), Fraction(1), Fraction(1)) not in found
    elapsed = check("criterion 3")
    print(f"ACCEPTANCE 3 PASS: enumeration matches brute force on 8 configs, bound 6 ({elapsed:.2f}s)")


def test_criterion_4_census_reproduction():
    check = _stopwatch(1.0)
    cubic = ss.census(_cubic_census_record())
    assert [(e.l, e.count, e.type_label) for e in cubic.interior] == [(2, 1, "A1")]
    assert cubic.origin is None
    assert (cubic.corners[0].r, cubic.corners[0].c) == (2, 1)
    assert not cubic.corners[0].smooth
    assert cubic.corners[1].smooth

    quartic = ss.census(_quartic_census_record())
    assert quartic.interior == ()
    assert quartic.origin is None  # c0 != 0: smooth at the chart origin
    assert quartic.corners[0].smooth
    assert (quartic.corners[1].r, quartic.corners[1].c) == (3, 2)
    elapsed = check("criterion 4")
    print(f"ACCEPTANCE 4 PASS: censuses of the cubic and quartic instances exact ({elapsed:.2f}s)")


def test_criterion_5_hj_round_trip():
    check = _stopwatch(5.0)
    for r in range(2, 201):
        for q in range(1, r):
            if gcd(q, r) != 1:
                continue
            entries = ss.hj_expansion(r, q)
            assert all(b >= 2 for b in entries)
            assert ss.hj_evaluate(entries) == Fraction(r, q)
        assert ss.hj_expansion(r, r - 1) == [2] * (r - 1)
    elapsed = check("criterion 5")
    print(f"ACCEPTANCE 5 PASS: HJ round-trip exact for all r <= 200 ({elapsed:.2f}s)")


def test_criterion_6_surface_threefold_consistency():
    check = _stopwatch(5.0)
    k, n, a = 1, 2, 1
    cone = ss.fibre_cone(k, n, a)
    assert (cone.r, cone.q) == (4, 1)
    weights = ss.admissible_weights_T(n, a, k, 6)
    assert weights
    mapped = set()
    for w in weights:
        ray = ss.weight_to_ray(k, n, w)
        assert cone.contains_ray(ray)
        assert cone.ray_is_primitive(ray)
        assert ray[0] > 0 and ray[1] > 0
        _, _, f_disc = ss.toric_subdivide(cone, ray)
        assert f_disc > -1
        assert ss.ray_to_weight(k, n, ray) == w
        mapped.add(ray)
    box = set()
    for p1 in range(1, 13):  # weight entries <= 6  <=>  ray entries <= 3 = 12/4
        for p2 in range(1, 13):
            ray = (Fraction(p1, 4), Fraction(p2, 4))
            if cone.contains_ray(ray) and cone.ray_is_primitive(ray):
                box.add(ray)
    assert mapped == box
    elapsed = check("criterion 6")
    print(f"ACCEPTANCE 6 PASS: weights <-> primitive interior rays of 1/4(1,1) ({elapsed:.2f}s)")


def test_criterion_7_invariant_sweep():
    check = _stopwatch(10.0)
    records = _all_records()
    assert len(records) > 50
    for record in records:
        germ = record.germ
        assert record.discrepancy > 0
        assert ss.verify_cover(record)
        if not germ.tg.is_zero:
            assert min(_monomial_weights(record.w0, germ.tg)) >= record.lam
        lattice = ss.QuotientLattice(germ.n, germ.a)
        assert all(ss.mu_n_character(lattice, e) == 0 for e, _ in (germ.f + germ.tg).items())
        if germ.case == "T":
            a1, a2, a3 = record.w0.numerators
            d = record.w0.denominator
            assert (a3 - germ.a * a1) % d == 0
            assert (germ.a * a2 + a3) % d == 0
            for corner in ss.census(record).corners:
                if corner.r > 1:
                    assert gcd(corner.c, corner.r) == 1
    elapsed = check("criterion 7")
    print(f"ACCEPTANCE 7 PASS: invariants hold across {len(records)} records ({elapsed:.2f}s)")


def _dense_census_record(k):
    """n = 1, a = 0, w0 = (1, k-1, 1) and t*g = sum_i c_i z^i t^(k-i): k random c_i, denominators <= 6."""
    rng = random.Random(k)
    P = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6)) for _ in range(k)]
    return dense_T_record(P + [Fraction(1)])


def test_dense_census_runtime():
    # Yun by Euclid over Q let the remainders swell: this census took 38 s
    record = _dense_census_record(100)
    check = _stopwatch(1.0)
    data = ss.census(record)
    elapsed = check("degree-100 dense census")
    assert [(e.l, e.count) for e in data.interior] == sorted(oracle_interior(record))
    print(f"DENSE CENSUS PASS: 100-term germ in {elapsed:.2f}s")


def test_yun_work_budget():
    check = _stopwatch(2.0)
    with pytest.raises(ss.UnsupportedForm, match="work units"):
        ss.census(_dense_census_record(400))
    elapsed = check("degree-400 refusal")
    # below the budget: a dense degree-200 Q(u), and one long Euclid step
    assert ss.census(_dense_census_record(200)).interior == ()
    assert ss.squarefree_multiplicities([1] + [0] * 199_999 + [1]) == [(200_000, 1)]
    # exact quotients are charged too: Q = (u^100000 + 1)^2, from a two-term germ, has a
    # cheap gcd, and the quotients by it take 2*10^10 products
    check = _stopwatch(1.0)
    Q = [1] + [0] * 99_999 + [2] + [0] * 99_999 + [1]
    with pytest.raises(ss.UnsupportedForm, match="work units"):
        ss.census(dense_T_record(Q))
    check("refusal of (u^100000 + 1)^2")
    print(f"YUN BUDGET PASS: degree 400 refused in {elapsed:.2f}s, degree 200 decomposed")
