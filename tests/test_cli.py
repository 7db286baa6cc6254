import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semistable as ss
from semistable.cli import main

QUADRIC = {
    "n": 2, "a": 1, "case": "T", "k": 1,
    "g": [{"coeff": "1", "exp": [0, 0, 0, 2]}],
    "rho_one": False,
}
CUBIC = {
    "n": 1, "a": 0, "case": "T", "k": 3,
    "g": [{"coeff": "-3", "exp": [0, 0, 1, 1]}, {"coeff": "2", "exp": [0, 0, 0, 2]}],
    "rho_one": True,
}
E6 = {
    "n": 1, "a": 0, "case": "E6",
    "g": [{"coeff": "1", "exp": [0, 0, 0, 11]}],
    "rho_one": True,
}


@pytest.fixture
def germ_file(tmp_path):
    def write(payload, name="germ.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return write


def test_classify_quadric(germ_file, capsys):
    assert main(["classify", germ_file(QUADRIC)]) == 0
    out = capsys.readouterr().out
    assert "verdict: valid" in out
    assert "1/4(1,1)" in out
    assert "resolution: [-4]" in out
    assert "isolatedness: asserted" in out


def test_classify_duval_fibre(germ_file, capsys):
    path = germ_file({"n": 1, "a": 0, "case": "D", "m": 4, "g": []})
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "Du Val D4" in out
    assert "fork" in out


def test_classify_non_normal_fibre_display_only(germ_file, capsys):
    path = germ_file({"n": 3, "a": 1, "case": "N",
                      "g": [{"coeff": "1", "exp": [0, 0, 0, 1]}]})
    assert main(["classify", path]) == 0
    assert "non-normal" in capsys.readouterr().out
    assert main(["enumerate", path, "--bound", "2"]) == 2


def test_classify_smooth_fibre(germ_file, capsys):
    assert main(["classify", germ_file({"n": 1, "a": 0, "case": "T", "k": 1, "g": []})]) == 0
    out = capsys.readouterr().out
    assert "fibre: cyclic quotient 1/1(1,0)  [smooth]" in out
    assert "resolution: empty graph (smooth)" in out


def test_classify_probe_flag(germ_file, capsys):
    assert main(["classify", germ_file(QUADRIC), "--probe"]) == 0
    assert "isolatedness: verified" in capsys.readouterr().out


def test_classify_rejects_bad_germ(germ_file, capsys):
    path = germ_file({"n": 2, "a": 2, "case": "T", "k": 1, "g": []})
    assert main(["classify", path]) == 2
    assert "gcd" in capsys.readouterr().err


def test_missing_file_is_parse_failure(capsys):
    assert main(["classify", "/nonexistent/germ.json"]) == 3


def test_malformed_json_is_parse_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["classify", str(path)]) == 3


def test_undecodable_germ_file_is_parse_failure(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["classify", str(path)]) == 3


@pytest.mark.parametrize("k", [[1], "x"], ids=["list", "string"])
def test_malformed_k_is_a_germ_rejection(germ_file, capsys, k):
    assert main(["classify", germ_file({**QUADRIC, "k": k})]) == 2
    assert "k must be an integer" in capsys.readouterr().err


def test_germ_outside_the_json_contract_is_a_rejection(germ_file, capsys):
    germ = {**QUADRIC, "g": [{"coeff": "1/0", "exp": [0, 0, 0, 2]}]}
    assert main(["classify", germ_file(germ)]) == 2
    assert "zero denominator" in capsys.readouterr().err
    for text in ("0.5", "1e3", " 1/2 ", "1_000", "+1", "\u0661"):
        germ = {**QUADRIC, "g": [{"coeff": text, "exp": [0, 0, 0, 2]}]}
        assert main(["classify", germ_file(germ)]) == 2
        assert f"{text!r} is not of the form p or p/q" in capsys.readouterr().err


def test_negative_trunc_order_is_parse_failure(germ_file, capsys):
    assert main(["classify", germ_file(QUADRIC), "--probe", "--trunc-order", "-1"]) == 3
    assert "--trunc-order: invalid natural value: '-1'" in capsys.readouterr().err


def test_closed_stdout_exits_1_without_traceback(germ_file):
    """A reader that stops early (`| head -1`) ends the run with exit 1 and an empty stderr."""
    path = germ_file({"n": 5, "a": 2, "case": "T", "k": 1, "g": []})  # ~390 kB of text
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    child = subprocess.Popen(
        [sys.executable, "-m", "semistable.cli", "enumerate", path, "--bound", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert child.stdout.readline().startswith(b"germ: case T")
        child.stdout.close()  # the rest no longer fits the pipe, so a write fails
        err = child.stderr.read()
        assert child.wait(timeout=60) == 1
    finally:
        child.kill()
        child.wait()
    assert err == b""


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_library_errors_are_not_parse_failures(germ_file, monkeypatch, error):
    def broken(germ):
        raise error("library bug")

    monkeypatch.setattr("semistable.germs.fibre_singularity", broken)
    with pytest.raises(error, match="library bug"):
        main(["classify", germ_file(QUADRIC)])


def test_resolve_prints_expansion(capsys):
    assert main(["resolve", "5", "2"]) == 0
    assert capsys.readouterr().out.strip() == "[3,2]"


def test_resolve_rejects_noncoprime(capsys):
    assert main(["resolve", "4", "2"]) == 2


def test_resolve_bad_arguments(capsys):
    assert main(["resolve", "five", "2"]) == 3


@pytest.mark.parametrize("r,q", [("1_0", "3"), ("10", "+3"), (" 5", "2"), ("5", "\u0662"),
                                 ("5 ", "2"), ("5.0", "2"), ("", "2")])
def test_integer_arguments_are_ascii_digits(r, q, capsys):
    # -?[0-9]+ and nothing else: Python's int() would accept each of these
    assert main(["resolve", r, q]) == 3
    assert "invalid integer value" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["enumerate", "--bound"], ["classify", "--probe", "--trunc-order"]])
@pytest.mark.parametrize("value", ["1_6", "+4", "-5", " 4", "\u0664", "4.0"])
def test_nonnegative_arguments_are_ascii_digits(germ_file, flag, value, capsys):
    command, *options = flag
    assert main([command, germ_file(E6), *options, value]) == 3
    assert "invalid natural value" in capsys.readouterr().err


def test_enumerate_E6(germ_file, capsys):
    assert main(["enumerate", germ_file(E6)]) == 0
    out = capsys.readouterr().out
    assert "records: 1" in out
    assert "w0 = (6,4,3)" in out
    assert "discrepancy = 1" in out
    assert "status: divisorial-contraction" in out


def test_enumerate_needs_bound_for_case_T(germ_file, capsys):
    assert main(["enumerate", germ_file(QUADRIC)]) == 3


def test_enumerate_negative_bound_is_parse_failure(germ_file, capsys):
    assert main(["enumerate", germ_file(QUADRIC), "--bound", "-1"]) == 3
    assert "--bound: invalid natural value: '-1'" in capsys.readouterr().err


def test_enumerate_bound_zero(germ_file, capsys):
    assert main(["enumerate", germ_file(QUADRIC), "--bound", "0"]) == 0
    assert "records: 0" in capsys.readouterr().out


def test_enumerate_json_round_trips(germ_file, capsys):
    assert main(["enumerate", germ_file(QUADRIC), "--bound", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound"] == 3
    weights = [tuple(r["w0"]["numerators"]) + (r["w0"]["denominator"],)
               for r in payload["records"]]
    assert (1, 1, 1, 2) in weights
    assert (1, 5, 3, 2) in weights
    for record in payload["records"]:
        assert record["cover"]["verified"] is True
        # rationals are strings, never floats
        assert isinstance(record["discrepancy"], str)
        # the germ echo revalidates to the same germ
        assert ss.validate_germ(record["germ"]) == ss.validate_germ(QUADRIC)


def test_enumerate_reports_semistability_rejections(germ_file, capsys):
    germ = {"n": 1, "a": 0, "case": "T", "k": 2,
            "g": [{"coeff": "1", "exp": [0, 0, 0, 2]}]}
    assert main(["enumerate", germ_file(germ), "--bound", "3"]) == 0
    out = capsys.readouterr().out
    assert "records: 1" in out
    assert "rejected: (1,3,2)" in out


def test_blowup_record(germ_file, capsys):
    assert main(["blowup", germ_file(QUADRIC), "--weights", "1,5,3/2"]) == 0
    out = capsys.readouterr().out
    assert "discrepancy = 3/2" in out
    assert "P(1,5,3,2)" in out
    assert "a~=4" in out


def test_blowup_rejects_inadmissible_weights(germ_file, capsys):
    assert main(["blowup", germ_file(QUADRIC), "--weights", "1,2,1/2"]) == 2
    path = germ_file({"n": 5, "a": 2, "case": "T", "k": 1, "g": []})
    for weights, reason in (
        ("1,9,2/2", "does not lie in Z^3 + Z*(1/5)(1,-1,2)"),
        ("3,2,1", "is imprimitive in the extended lattice"),
    ):
        capsys.readouterr()
        assert main(["blowup", path, "--weights", weights]) == 2
        assert reason in capsys.readouterr().err


def test_blowup_rejects_semistability_violation(germ_file, capsys):
    germ = {"n": 1, "a": 0, "case": "E6", "g": [{"coeff": "1", "exp": [0, 0, 0, 1]}]}
    assert main(["blowup", germ_file(germ), "--weights", "6,4,3"]) == 2
    assert "witness" in capsys.readouterr().err


def test_weights_parse_failures(germ_file, capsys):
    assert main(["blowup", germ_file(QUADRIC), "--weights", "1,5"]) == 3
    assert main(["blowup", germ_file(QUADRIC), "--weights", "a,b,c"]) == 3
    for text in ("1,5,3/", "1_0,5,3/2", "\u0661,14,3/5", "1, 5, 3/2", "+1,5,3/2"):
        assert main(["blowup", germ_file(QUADRIC), "--weights", text]) == 3
    # well-formed but never a weight vector: a domain rejection
    for text in ("2,2,2", "1,-5,3/2", "-1,5,3/2", "1,5,3/0"):
        assert main(["blowup", germ_file(QUADRIC), f"--weights={text}"]) == 2


def test_census_cubic(germ_file, capsys):
    assert main(["census", germ_file(CUBIC), "--weights", "2,1,1"]) == 0
    out = capsys.readouterr().out
    assert "interior: 1 x A1 (l=2)" in out
    assert "corner (1:0:0:0): (xy = 0) in (1/2)(1,-1,1)" in out
    assert "corner (0:1:0:0): smooth" in out


def test_census_json_matches_library(germ_file, capsys):
    assert main(["census", germ_file(CUBIC), "--weights", "2,1,1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    germ = ss.validate_germ(CUBIC)
    record = ss.build_contraction(germ, ss.WeightVector((2, 1, 1)))
    assert payload["census"] == ss.census(record).to_json()


def test_census_unsupported_form_rejected(germ_file, capsys):
    germ = {"n": 1, "a": 0, "case": "T", "k": 3,
            "g": [{"coeff": "1", "exp": [1, 0, 0, 5]}]}
    assert main(["census", germ_file(germ), "--weights", "2,1,1"]) == 2


def test_cover_quadric(germ_file, capsys):
    assert main(["cover", germ_file(QUADRIC), "--weights", "1,5,3/2"]) == 0
    out = capsys.readouterr().out
    assert "cover degree d = 2" in out
    assert "lifted weights: (1, 5, 3, 2)" in out
    assert "covered discrepancy a~ = 4" in out
    assert "verified: yes" in out


def test_output_is_deterministic(germ_file, capsys):
    path = germ_file(QUADRIC)
    for flags in ([], ["--json"]):
        assert main(["enumerate", path, "--bound", "3", *flags]) == 0
        first = capsys.readouterr().out
        assert main(["enumerate", path, "--bound", "3", *flags]) == 0
        assert capsys.readouterr().out == first
