import re

import pytest

import semistable as ss
from semistable import SparsePoly


def raw_T(n, a, k, g=None, **extra):
    return {"n": n, "a": a, "case": "T", "k": k, "g": g or [], **extra}


QUADRIC = raw_T(2, 1, 1, [{"coeff": "1", "exp": [0, 0, 0, 2]}])  # xy+z^2+t^3


def test_validate_quadric_germ():
    germ = ss.validate_germ(QUADRIC)
    assert germ.case == "T" and germ.n == 2 and germ.k == 1
    assert germ.f == SparsePoly({(1, 1, 0, 0): 1, (0, 0, 2, 0): 1})
    assert germ.tg == SparsePoly({(0, 0, 0, 3): 1})
    assert germ.g == SparsePoly({(0, 0, 0, 2): 1})


def test_validate_rejects_noncoprime_action():
    with pytest.raises(ss.GermRejection):
        ss.validate_germ(raw_T(2, 2, 1))


def test_validate_rejects_noninvariant_perturbation():
    # g = z*t: the monomial z*t^2 has character a = 1 mod 3
    with pytest.raises(ss.GermRejection, match="invariant"):
        ss.validate_germ(raw_T(3, 1, 1, [{"coeff": "1", "exp": [0, 0, 1, 1]}]))


def test_validate_normalizes_action_weight():
    germ = ss.validate_germ(raw_T(2, 3, 1))
    assert germ.a == 1


def test_validate_accepts_either_sign():
    plus = ss.validate_germ({**QUADRIC, "sign": "+"})
    minus = ss.validate_germ({**QUADRIC, "sign": "-"})
    assert plus == minus
    with pytest.raises(ss.GermRejection):
        ss.validate_germ({**QUADRIC, "sign": "*"})


def test_validate_case_parameters():
    with pytest.raises(ss.GermRejection):
        ss.validate_germ(raw_T(1, 0, 0))  # k < 1
    with pytest.raises(ss.GermRejection):
        ss.validate_germ({"n": 1, "a": 0, "case": "D", "m": 3, "g": []})
    with pytest.raises(ss.GermRejection):
        ss.validate_germ({"n": 2, "a": 1, "case": "E6", "g": []})  # index > 1
    with pytest.raises(ss.GermRejection):
        ss.validate_germ({"n": 1, "a": 0, "case": "E6", "k": 2, "g": []})
    with pytest.raises(ss.GermRejection):
        ss.validate_germ({"n": 1, "a": 0, "case": "Q", "g": []})
    germ = ss.validate_germ({"n": 1, "a": 0, "case": "D", "m": 4, "g": []})
    assert germ.f == SparsePoly({(2, 0, 0, 0): 1, (0, 2, 1, 0): 1, (0, 0, 3, 0): 1})


def test_validate_rejects_t_free_perturbation():
    bare = ss.GermSpec(n=1, a=0, case="T", k=2, m=None,
                       tg=SparsePoly({(1, 0, 0, 0): 1}))
    with pytest.raises(ss.GermRejection, match="divisible by t"):
        ss.validate_germ(bare)


def test_validate_accepts_t_free_monomials_in_g():
    # g itself may be t-free (say a generic linear form); t*g is still t-divisible
    raw = {"n": 1, "a": 0, "case": "E8",
           "g": [{"coeff": "1", "exp": [1, 0, 0, 0]}, {"coeff": "2", "exp": [0, 0, 0, 0]}]}
    germ = ss.validate_germ(raw)
    assert germ.tg == SparsePoly({(1, 0, 0, 1): 1, (0, 0, 0, 1): 2})


def test_validate_idempotent():
    once = ss.validate_germ(QUADRIC)
    twice = ss.validate_germ(once)
    assert once == twice


def test_normal_forms_are_invariant():
    for raw in [QUADRIC, raw_T(3, 2, 2), raw_T(5, 2, 1), raw_T(1, 0, 4)]:
        germ = ss.validate_germ(raw)
        assert ss.is_mu_n_invariant(germ.weight_lattice, germ.f)
        assert ss.is_mu_n_invariant(germ.weight_lattice, germ.f + germ.tg)


def test_fibre_singularity_examples():
    fib = ss.fibre_singularity(ss.validate_germ(QUADRIC))
    assert (fib.r, fib.q) == (4, 1)
    assert fib.duval_label is None

    fib = ss.fibre_singularity(ss.validate_germ(raw_T(1, 0, 2)))
    assert (fib.r, fib.q) == (2, 1)
    assert fib.duval_label == "A1"

    label = ss.fibre_singularity(ss.validate_germ({"n": 1, "a": 0, "case": "D", "m": 4, "g": []}))
    assert label == "D4"
    label = ss.fibre_singularity(ss.validate_germ({"n": 1, "a": 0, "case": "E7", "g": []}))
    assert label == "E7"


def test_fibre_dictionary_identity():
    # x*y and z^(k*n) agree as monomials in u, v
    for raw in [QUADRIC, raw_T(3, 1, 2), raw_T(1, 0, 3)]:
        germ = ss.validate_germ(raw)
        fib = ss.fibre_singularity(germ)
        exps = dict(fib.dictionary)
        kn = germ.k * germ.n
        assert tuple(x + y for x, y in zip(exps["x"], exps["y"])) == tuple(
            kn * c for c in exps["z"]
        )
        assert fib.r == germ.k * germ.n ** 2


def test_fibre_smooth_when_r_is_one():
    fib = ss.fibre_singularity(ss.validate_germ(raw_T(1, 0, 1)))
    assert fib.r == 1 and fib.duval_label == "smooth"


def test_probe_verified_on_quadric():
    germ = ss.validate_germ(QUADRIC)
    assert ss.isolatedness_probe(germ) == "verified"


def test_probe_inconclusive_on_product_family():
    # g = 0: the family is a product, singular along the whole t-axis
    germ = ss.validate_germ(raw_T(1, 0, 2))
    assert ss.isolatedness_probe(germ) == "inconclusive"


def test_probe_size_guards_are_inconclusive():
    # xy + z + t*g is smooth, so only the term and degree guards stop "verified"
    many_terms = [{"coeff": "1", "exp": [0, 0, 0, l]} for l in range(120)]
    assert ss.isolatedness_probe(ss.validate_germ(raw_T(1, 0, 1, many_terms))) == "inconclusive"
    high_degree = [{"coeff": "1", "exp": [0, 0, 0, 60]}]
    assert ss.isolatedness_probe(ss.validate_germ(raw_T(1, 0, 1, high_degree))) == "inconclusive"
    low_degree = [{"coeff": "1", "exp": [0, 0, 0, 59]}]
    assert ss.isolatedness_probe(ss.validate_germ(raw_T(1, 0, 1, low_degree))) == "verified"


def test_probe_verified_on_E8_with_generic_linear_g():
    raw = {"n": 1, "a": 0, "case": "E8",
           "g": [{"coeff": "1", "exp": [1, 0, 0, 0]},
                 {"coeff": "1", "exp": [0, 1, 0, 0]},
                 {"coeff": "1", "exp": [0, 0, 1, 0]},
                 {"coeff": "1", "exp": [0, 0, 0, 1]}]}
    germ = ss.validate_germ(raw)
    assert ss.isolatedness_probe(germ) == "verified"


def test_probe_truncation_is_exposed():
    germ = ss.validate_germ(QUADRIC)
    # truncating away the whole perturbation leaves the non-isolated product
    assert ss.isolatedness_probe(germ, t_order=2) == "inconclusive"
    assert ss.isolatedness_probe(germ, t_order=3) == "verified"


def test_non_normal_fibre_case_accepted_for_display():
    germ = ss.validate_germ({"n": 3, "a": 1, "case": "N",
                             "g": [{"coeff": "1", "exp": [0, 0, 3, 0]}]})
    assert germ.f == SparsePoly({(1, 1, 0, 0): 1})
    assert "non-normal" in ss.fibre_singularity(germ)
    with pytest.raises(ss.GermRejection):
        ss.validate_germ({"n": 3, "a": 1, "case": "N", "k": 1, "g": []})


def test_validate_rejects_non_object_input():
    with pytest.raises(ss.GermRejection):
        ss.validate_germ([1, 2, 3])


@pytest.mark.parametrize(
    "raw",
    [
        raw_T(5.7, 2, 1),
        raw_T(2, 1, True),
        raw_T(2, 1, 1, rho_one="false"),
        raw_T(2, 1, 1, [{"coeff": "1", "exp": [0, 0, 0, 2.9]}]),
        raw_T(2, 1, 1, [{"coeff": 0.5, "exp": [0, 0, 0, 2]}]),
    ],
    ids=["float-n", "bool-k", "string-rho_one", "float-exponent", "float-coeff"],
)
def test_validate_rejects_instead_of_coercing(raw):
    with pytest.raises(ss.GermRejection):
        ss.validate_germ(raw)


# Fraction() accepts all of these; the JSON contract allows only "p" and "p/q"
# with ASCII digits ("\u0661" is ARABIC-INDIC DIGIT ONE, which \d matches).
NOT_RATIONAL_STRINGS = ["0.5", "1e3", " 1/2 ", "1_000", "+1", "1/-2", "", "\u0661", "1/\u0662"]


@pytest.mark.parametrize(
    "raw, message",
    [
        (raw_T(2, 1, 1, [{"coeff": "1/0", "exp": [0, 0, 0, 2]}]), "'1/0' has a zero denominator"),
        (raw_T(2, 1, 1, rho_on=True), "unknown germ key 'rho_on'"),
        ({**raw_T(2, 1, 1), "g": {}}, "expected a list of monomials"),
        (raw_T(2, 1, 1, [{"coeff": "1", "exp": [0, 0, 0, 2], "exq": 1}]), "unknown monomial key 'exq'"),
        *(
            (
                raw_T(2, 1, 1, [{"coeff": text, "exp": [0, 0, 0, 2]}]),
                re.escape(f"{text!r} is not of the form p or p/q"),
            )
            for text in NOT_RATIONAL_STRINGS
        ),
    ],
    ids=["zero-denominator", "misspelt-key", "g-object", "monomial-key",
         *(f"coeff-{text!r}" for text in NOT_RATIONAL_STRINGS)],
)
def test_validate_rejects_outside_the_json_contract(raw, message):
    with pytest.raises(ss.GermRejection, match=message):
        ss.validate_germ(raw)


def test_germ_json_round_trip():
    germ = ss.validate_germ(QUADRIC)
    again = ss.validate_germ(germ.to_json())
    assert germ == again
