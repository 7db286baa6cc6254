"""The in-process isolatedness probe against sympy's Groebner basis.

`oracles.oracle_isolatedness` runs the same guards and verdict rule on
sympy's `groebner`; the probe must agree with it on random valid germs, on
every probe germ of the benchmark pool, and must stop within its work budget
on an input sympy does not finish in 30 s.
"""

import time
from math import gcd

from hypothesis import given, settings, strategies as st

import semistable as ss
from oracles import oracle_isolatedness

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

COEFFS = ("1", "-1", "2", "-3", "1/2")


def _mono(coeff, exp):
    return {"coeff": coeff, "exp": list(exp)}


@st.composite
def valid_germs(draw):
    """A valid germ with up to three g terms, g exponents at most (2, 2, 3, 3)."""
    case = draw(st.sampled_from(("T", "N", "D", "E6", "E7", "E8")))
    raw = {"case": case, "n": 1, "a": 0}
    if case in ("T", "N"):
        n = draw(st.integers(1, 4))
        raw.update(n=n, a=draw(st.sampled_from([a for a in range(n) if gcd(a, n) == 1])))
    if case == "T":
        raw["k"] = draw(st.integers(1, 4))
    if case == "D":
        raw["m"] = draw(st.integers(4, 8))
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3), st.integers(0, 3))
    terms = draw(st.lists(st.tuples(st.sampled_from(COEFFS), exps), max_size=3))
    # keep the invariant monomials: x^i y^j z^k t^l has character i - j + a*k mod n
    raw["g"] = [
        _mono(c, e) for c, e in terms if (e[0] - e[1] + raw["a"] * e[2]) % raw["n"] == 0
    ]
    return ss.validate_germ(raw)


@PROPERTY
@given(germ=valid_germs(), t_order=st.sampled_from((None, 1, 2, 3)))
def test_probe_matches_sympy_oracle(germ, t_order):
    assert ss.isolatedness_probe(germ, t_order) == oracle_isolatedness(germ, t_order)


def _rho(raw):
    return [{**raw, "rho_one": rho} for rho in (False, True)]


def _case_t(n, a, k, g):
    return {"n": n, "a": a, "case": "T", "k": k, "g": g}


def _index_one(case, terms, **params):
    return {"n": 1, "a": 0, "case": case, **params, "g": [_mono(c, e) for c, e in terms]}


# the 22 germs that `classify --probe` runs on in the benchmark pool
POOL_PROBE_GERMS = [
    *_rho(_case_t(5, 2, 1, [])),
    *(raw for c in ("1", "-1", "2", "-3/2")
      for raw in _rho(_case_t(5, 2, 1, [_mono(c, (0, 0, 0, 1))]))),
    *_rho(_case_t(2, 1, 1, [_mono("1", (0, 0, 0, 2))])),
    *_rho(_case_t(1, 0, 3, [_mono("-3", (0, 0, 1, 1)), _mono("2", (0, 0, 0, 2))])),
    *_rho(_index_one("E6", [("1", (0, 0, 0, 11))])),
    *_rho(_index_one("D", [("1", (0, 0, 0, 5))], m=4)),
    *_rho(_case_t(5, 2, 1, [_mono("1", (0, 0, 0, 1))])),
    *_rho(_index_one("E8", [("1", (0, 0, 0, 29))])),
]


def test_probe_matches_sympy_oracle_on_pool_germs():
    assert len(POOL_PROBE_GERMS) == 22
    for raw in POOL_PROBE_GERMS:
        germ = ss.validate_germ(raw)
        assert ss.isolatedness_probe(germ) == oracle_isolatedness(germ), raw


# verified germs whose interreduced Jacobian system is not yet a Groebner
# basis, so the verdict rests on S-pairs and the Gebauer-Moller update
S_PAIR_GERMS = [
    _case_t(1, 0, 4, [_mono("-3", (2, 2, 0, 1)), _mono("-3", (0, 0, 0, 3))]),
    _case_t(1, 0, 1, [
        _mono("1/2", (2, 1, 1, 3)), _mono("-3", (1, 2, 3, 1)), _mono("-1", (0, 0, 1, 3)),
    ]),
    _index_one("D", [("-3", (0, 1, 0, 1))], m=7),
    _index_one("D", [("1", (0, 2, 2, 3)), ("1", (0, 0, 0, 3))], m=8),
    _index_one("E6", [("-3", (2, 0, 1, 0)), ("2", (0, 1, 0, 0))]),
    _index_one("E6", [("-3", (1, 1, 0, 3)), ("1", (0, 0, 2, 0)), ("-3", (0, 0, 0, 1))]),
    _index_one("E6", [("-1", (2, 1, 3, 1)), ("2", (0, 0, 0, 1))]),
    _index_one("E7", [("1/2", (1, 0, 0, 0)), ("1/2", (0, 0, 2, 3))]),
    _index_one("E8", [("1/2", (2, 0, 1, 0)), ("1/2", (0, 1, 0, 0))]),
    _index_one("E8", [("1/2", (2, 0, 2, 3)), ("2", (2, 0, 0, 2)), ("-1", (0, 0, 0, 2))]),
]


def test_probe_verifies_germs_that_need_s_pairs():
    for raw in S_PAIR_GERMS:
        germ = ss.validate_germ(raw)
        assert ss.isolatedness_probe(germ) == "verified" == oracle_isolatedness(germ), raw


# sympy's groebner runs past 30 s on this germ
HOSTILE_E8 = {
    "n": 1, "a": 0, "case": "E8",
    "g": [
        _mono("-2", (1, 2, 3, 0)), _mono("4", (0, 3, 2, 1)), _mono("-2", (3, 3, 3, 1)),
        _mono("-2", (1, 3, 0, 0)), _mono("-3", (0, 2, 0, 2)), _mono("2", (3, 3, 3, 3)),
        _mono("-3", (2, 0, 0, 1)), _mono("2", (1, 2, 3, 2)),
    ],
}


def test_probe_stops_within_its_work_budget():
    germ = ss.validate_germ(HOSTILE_E8)
    start = time.perf_counter()
    assert ss.isolatedness_probe(germ) == "inconclusive"
    assert time.perf_counter() - start < 10.0
