"""Byte-exact stdout of every subcommand, in text and --json modes.

Each case runs `semistable.cli.main` on a germ file and compares stdout with
`tests/golden/<name>.txt`.  The expected files pin the rendering, so a change
to how output is built must leave them passing unchanged.
"""

import json
from pathlib import Path

import pytest

from semistable.cli import main

GOLDEN = Path(__file__).parent / "golden"

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
# t^2 breaks semistability once a3 >= 2 (a `rejected:` line); the x*y*t term
# is off the census grid, so every record carries an `unsupported form` note
MIXED = {
    "n": 1, "a": 0, "case": "T", "k": 2,
    "g": [{"coeff": "1", "exp": [0, 0, 0, 2]}, {"coeff": "1", "exp": [1, 1, 0, 1]}],
}
D4 = {"n": 1, "a": 0, "case": "D", "m": 4, "g": []}
E6 = {
    "n": 1, "a": 0, "case": "E6",
    "g": [{"coeff": "1", "exp": [0, 0, 0, 11]}],
    "rho_one": True,
}
N3 = {"n": 3, "a": 1, "case": "N", "g": [{"coeff": "1", "exp": [0, 0, 0, 1]}]}
BARE = {"n": 2, "a": 1, "case": "T", "k": 1, "g": []}

CASES = {
    "classify_T": (QUADRIC, ["classify"]),
    "classify_D": (D4, ["classify"]),
    "classify_E6": (E6, ["classify"]),
    "classify_N": (N3, ["classify"]),
    "probe_quadric": (QUADRIC, ["classify", "--probe"]),
    "probe_bare": (BARE, ["classify", "--probe"]),
    "probe_cubic": (CUBIC, ["classify", "--probe"]),
    "probe_trunc2": (QUADRIC, ["classify", "--probe", "--trunc-order", "2"]),
    "enumerate_T_origin": (QUADRIC, ["enumerate", "--bound", "3"]),
    "enumerate_T_mixed": (MIXED, ["enumerate", "--bound", "3"]),
    "enumerate_E6": (E6, ["enumerate"]),
    "enumerate_bound0": (QUADRIC, ["enumerate", "--bound", "0"]),
    "blowup_T": (QUADRIC, ["blowup", "--weights", "1,5,3/2"]),
    "blowup_E6": (E6, ["blowup", "--weights", "6,4,3"]),
    "census_cubic": (CUBIC, ["census", "--weights", "2,1,1"]),
    "census_origin": (QUADRIC, ["census", "--weights", "1,1,1/2"]),
    "cover_T": (QUADRIC, ["cover", "--weights", "1,5,3/2"]),
    "resolve": (None, ["resolve", "5", "2"]),
}


def _argv(germ, args, path):
    """Insert the germ file after the subcommand, as the CLI expects it."""
    if germ is None:
        return list(args)
    path.write_text(json.dumps(germ), encoding="utf-8")
    return [args[0], str(path), *args[1:]]


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, mode, tmp_path, capsys):
    germ, args = CASES[name]
    argv = _argv(germ, args, tmp_path / "germ.json")
    if mode == "json":
        argv.append("--json")
    assert main(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / f"{name}.{mode}.txt").read_bytes()
