import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import semistable as ss
from semistable import polynomials
from semistable.cli import _json, main
from oracles import t_power_germs

SRC = str(Path(__file__).resolve().parent.parent / "src")

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


def test_deeply_nested_json_is_parse_failure(tmp_path, capsys):
    # json.load recurses once per nesting level: past the recursion limit, exit 3, no traceback
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main(["classify", str(path)]) == 3
    assert "cannot read germ file" in capsys.readouterr().err


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


def test_trunc_order_without_probe_is_parse_failure(germ_file, capsys):
    assert main(["classify", germ_file(QUADRIC), "--trunc-order", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --trunc-order needs --probe\n"


def _close_stdout_after_one_line(path, env):
    """Run `enumerate` in both modes, closing its stdout after the first line."""
    for flags, first in (([], b"germ: case T"), (["--json"], b"{\n")):
        with subprocess.Popen(  # closes both pipes on exit
            [sys.executable, "-m", "semistable.cli", "enumerate", path, "--bound", "40", *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as child:
            try:
                assert child.stdout.readline().startswith(first)
                child.stdout.close()  # the rest no longer fits the pipe, so a write fails
                err = child.stderr.read()
                assert child.wait(timeout=60) == 1
            finally:
                child.kill()
                child.wait()
        assert err == b""


def test_closed_stdout_exits_1_without_traceback(germ_file):
    """A reader that stops early (`| head -1`) ends the run with exit 1 and an empty stderr."""
    path = germ_file({"n": 5, "a": 2, "case": "T", "k": 1, "g": []})  # ~390 kB of text
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    _close_stdout_after_one_line(path, {**env, "PYTHONPATH": SRC})


def test_closed_unbuffered_stdout_exits_1_without_traceback(germ_file):
    # with PYTHONUNBUFFERED=1 every write of the stream is a write(2) that can fail
    path = germ_file({"n": 5, "a": 2, "case": "T", "k": 1, "g": []})
    _close_stdout_after_one_line(path, {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": "1"})


T_GERM = {"n": 1, "a": 0, "case": "T", "k": 1, "g": []}


# prints the peak RSS of the one child it runs; a child's ru_maxrss counts its
# spawner's resident set too, so the spawner is a bare `python -S`
PEAK_RSS = (
    "import resource, subprocess, sys; "
    "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True); "
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)


def test_enumerate_json_streams_in_the_memory_of_text(germ_file):
    """`--json` holds one rendered record at a time, as text mode does."""
    path = germ_file(T_GERM)  # 12,231 records: 21 MB of JSON
    env = {**os.environ, "PYTHONPATH": SRC}
    peaks = []
    for flags in ([], ["--json"]):
        command = [sys.executable, "-m", "semistable.cli", "enumerate", path, "--bound", "200"]
        done = subprocess.run(
            [sys.executable, "-S", "-c", PEAK_RSS, *command, *flags],
            capture_output=True, env=env, check=True, timeout=120,
        )
        peaks.append(int(done.stdout))
    text, as_json = peaks
    assert as_json <= 1.5 * text, f"ru_maxrss: {as_json} with --json against {text} in text"


@pytest.mark.parametrize(
    "argv, limit, germ",
    [(["enumerate", "{germ}", "--bound", "1000000000"], "over the limit 100000", T_GERM),
     (["resolve", "1000000001", "1000000000"], "more than 100000 curves", T_GERM),
     (["classify", "{germ}"], "more than 100000 curves",
      {"n": 1, "a": 0, "case": "D", "m": 100001, "g": []})],
    ids=["enumerate", "resolve", "classify-D"],
)
def test_hostile_sizes_exit_2_at_once(germ_file, argv, limit, germ):
    """Work limits stop a huge bound, quotient or Du Val graph before the work starts."""
    path = germ_file(germ)
    env = {**os.environ, "PYTHONPATH": SRC}
    argv = [path if arg == "{germ}" else arg for arg in argv]
    command = [sys.executable, "-m", "semistable.cli", *argv]
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert done.returncode == 2 and done.stdout == b""
    assert limit in done.stderr.decode()
    assert elapsed < 1.0, f"{argv[0]} took {elapsed:.2f}s to exit 2"


HUGE_N = 10**30 + 57
HUGE_W0 = f"1,{HUGE_N - 1},1/{HUGE_N}"


@pytest.mark.parametrize(
    "argv, line",
    [(["enumerate", "{germ}", "--bound", "1"], "records: 1 (bound 1)"),
     (["blowup", "{germ}", "--weights", HUGE_W0], "interior: no A-type points"),
     (["census", "{germ}", "--weights", HUGE_W0], "interior: no A-type points")],
    ids=["enumerate", "blowup", "census"],
)
def test_a_31_digit_index_renders_its_record(germ_file, argv, line, capsys):
    # the census never builds h(z) of degree k*n, so no list of n entries is asked for
    path = germ_file({"n": HUGE_N, "a": 1, "case": "T", "k": 1, "g": []})
    assert main([path if arg == "{germ}" else arg for arg in argv]) == 0
    assert line in capsys.readouterr().out.splitlines()


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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(t_power_germs(), st.integers(0, 5))
@example(ss.validate_germ({"n": 5, "a": 2, "case": "T", "k": 1,
                           "g": [{"coeff": "-3/2", "exp": [0, 0, 0, 1]}]}), 5)  # rejects 14 of 16
def test_enumerate_writes_rejections_as_their_dict_form(germ, bound):
    # rejected weights are written from their integers, not through str(w0) or _json
    _, rejected = ss.enumerate_contractions(germ, bound)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "germ.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(germ.to_json(), handle)
        outs = []
        for flags in ([], ["--json"]):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["enumerate", path, "--bound", str(bound), *flags]) == 0
            outs.append(out.getvalue())
    text, as_json = outs
    assert [line for line in text.splitlines() if line.startswith("rejected: ")] == [
        f"rejected: {w} violates w(t*g) >= w(f), witness exponent {witness}"
        for w, witness in rejected
    ]
    assert as_json == json.dumps(json.loads(as_json), indent=2, sort_keys=True) + "\n"
    block = [{"w0": w.to_json(), "witness_exponent": list(witness)} for w, witness in rejected]
    block = _json(block, "\n  ")
    assert as_json.endswith(f'\n  "rejected": {block}\n}}\n')


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


def test_census_past_the_work_budget(germ_file, capsys, monkeypatch):
    # Yun's decomposition of the cubic's Q(u) = (u - 1)^2 (u + 2) takes more than 5 work units
    monkeypatch.setattr(polynomials, "_YUN_WORK_BUDGET", 5)
    path = germ_file(CUBIC)
    assert main(["census", path, "--weights", "2,1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rejected: Yun's decomposition past 5 work units\n"
    assert main(["enumerate", path, "--bound", "2"]) == 0
    out = capsys.readouterr().out
    assert "    census: unsupported form (Yun's decomposition past 5 work units)" in out.splitlines()
    assert main(["enumerate", path, "--bound", "2", "--json"]) == 0
    notes = {r["census_note"] for r in json.loads(capsys.readouterr().out)["records"]}
    assert notes == {"Yun's decomposition past 5 work units"}


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


# JSON values of the kinds the payloads hold, with the edge cases of the encoder
JSON_TEXT = st.text(st.characters() | st.sampled_from("\x00\x1f\x7f\"\\/\u2028\xe9\U0001f600"))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.sampled_from([0, 1, True, False])
    | st.integers(-10**80, 10**80) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
@example("\x00\u2028\xe9")
@example(1)
@example(True)
@example([True, 1, False, 0, [], {}, [[]], {"": {}}])
def test_json_writer_matches_the_standard_library(value):
    assert _json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [1.5, {"a": [Fraction(1, 2)]}, [0, (1, 2)], {"b": {1: "one"}}],
    ids=["float", "Fraction", "tuple", "int-key"],
)
def test_json_writer_refuses_other_values(value):
    with pytest.raises(TypeError):
        _json(value)


def test_json_writer_refuses_a_str_subclass_key_of_a_shape_it_has_written():
    class Key(str):
        pass

    for plain, subclass in [
        ({"a": 1, "b": [2]}, {Key("a"): 1, "b": [2]}),
        ([{"a": 1, "b": [2]}], [{"a": 1, Key("b"): [2]}]),
    ]:
        assert _json(plain) == json.dumps(plain, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _json(subclass)
