"""The record and value types: immutable, compared field by field, stable repr.

They are `typing.NamedTuple`s (the validated ones subclass a NamedTuple
base), so importing the command line must not load `dataclasses`; the
isolatedness probe runs in-process, so it must not load sympy.  The package
namespace is lazy: each subcommand loads only the modules it runs.  The
public surface is pinned name by name, and the sources hold no `assert`.
"""

import ast
import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import semistable as ss

ROOT = Path(__file__).resolve().parent.parent

QUADRIC = {"n": 2, "a": 1, "case": "T", "k": 1, "g": [{"coeff": "1", "exp": [0, 0, 0, 2]}]}
BARE = {"n": 2, "a": 1, "case": "T", "k": 1, "g": []}
CUBIC = {
    "n": 1, "a": 0, "case": "T", "k": 3,
    "g": [{"coeff": "-3", "exp": [0, 0, 1, 1]}, {"coeff": "2", "exp": [0, 0, 0, 2]}],
}
GERM_REPR = "GermSpec(n=2, a=1, case='T', k=1, m=None, tg=SparsePoly(t^3), rho_one=False)"


def record(raw=QUADRIC, weights=((1, 5, 3), 2)):
    return ss.build_contraction(ss.validate_germ(raw), ss.WeightVector(*weights))


CASES = {
    "QuotientLattice": (lambda: ss.QuotientLattice(5, 2), "QuotientLattice(n=5, a=2)"),
    "WeightVector": (
        lambda: ss.WeightVector((1, 5, 3), 2),
        "WeightVector(numerators=(1, 5, 3), denominator=2)",
    ),
    "SurfaceCone": (
        lambda: ss.SurfaceCone(5, 7),
        "SurfaceCone(r=5, q=2)",
    ),
    "GermSpec": (lambda: ss.validate_germ(QUADRIC), GERM_REPR),
    "FibreQuotientData": (
        lambda: ss.fibre_singularity(ss.validate_germ(QUADRIC)),
        "FibreQuotientData(r=4, q=1, dictionary=(('x', (2, 0)), ('y', (0, 2)), ('z', (1, 1))))",
    ),
    "ContractionRecord": (
        record,
        f"ContractionRecord(germ={GERM_REPR}, "
        "w0=WeightVector(numerators=(1, 5, 3), denominator=2))",
    ),
    "CoverData": (
        lambda: ss.cover_data(record()),
        "CoverData(d=2, e=1, lifted_weights=(1, 5, 3, 2), covered_discrepancy=4)",
    ),
    "ReducedPerturbation": (
        lambda: ss.reduced_g_coefficients(record()),
        "ReducedPerturbation(k=1, n=2, e=1, c=((0, Fraction(1, 1)),), "
        "l_series=0, caveat=None)",
    ),
    "InteriorEntry": (
        lambda: ss.census(record(CUBIC, ((1, 2, 1), 1))).interior[0],
        "InteriorEntry(l=2, count=1)",
    ),
    "OriginEntry": (
        lambda: ss.census(record(BARE)).origin,
        "OriginEntry(index=2, b=1, z_power=2, quotient=(1, 2, 1), r=4, q=1, l_fibre=1, "
        "l_series=None, divergent=False, "
        "deformation='xy + z^2 + t*g(z^2, t) = 0  in  (1/2)(1,-1,1,0)', "
        "caveat='perturbation is zero to the supplied order')",
    ),
    "CornerEntry": (
        lambda: ss.census(record()).corners[1],
        "CornerEntry(point='(0:1:0:0)', r=5, c=4)",
    ),
    "SingularityCensus": (
        lambda: ss.census(record()),
        "SingularityCensus(interior=(), origin=None, "
        "corners=(CornerEntry(point='(1:0:0:0)', r=1, c=0), "
        "CornerEntry(point='(0:1:0:0)', r=5, c=4)))",
    ),
    "GraphVertex": (
        lambda: ss.GraphVertex(-2, "C1"),
        "GraphVertex(self_intersection=-2, label='C1')",
    ),
    "DualGraph": (
        lambda: ss.duval_graph("A2"),
        "DualGraph(vertices=(GraphVertex(self_intersection=-2, label='E1'), "
        "GraphVertex(self_intersection=-2, label='E2')), edges=((0, 1),), fork=None)",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_value_type_contract(name):
    build, expected_repr = CASES[name]
    value, again = build(), build()
    assert type(value).__name__ == name
    for field in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert value == again and value is not again
    assert hash(value) == hash(again)
    assert repr(value) == expected_repr


def test_germ_cached_properties_survive():
    germ = ss.validate_germ(QUADRIC)
    assert type(germ) is ss.GermSpec
    f, g, equation = germ.f, germ.g, germ.equation
    assert germ.f is f and germ.g is g and germ.equation is equation
    assert equation == f + germ.tg
    fresh = ss.validate_germ(QUADRIC)  # nothing cached yet
    assert germ == fresh and hash(germ) == hash(fresh)
    assert fresh.equation == equation


def test_record_reads_its_values_off_germ_and_weight():
    value = record()
    assert type(value)._fields == ("germ", "w0")
    assert value.lam == 3 and value.discrepancy == Fraction(3, 2)
    assert value.ambient == (1, 5, 3, 2)
    assert repr(value.E_equation) == "SparsePoly(x*y + z^2 + t^3)"
    assert value.contraction_status == "pending-rho"
    assert value.E_equation is value.E_equation  # built once
    # a replaced weight carries no stale cached value
    other = value._replace(w0=ss.WeightVector((1, 1, 1), 2))
    assert other.lam == 1 and other.discrepancy == Fraction(1, 2)


def test_every_way_to_a_record_checks_it():
    germ = ss.validate_germ({"n": 5, "a": 2, "case": "T", "k": 1, "g": []})
    records, _ = ss.enumerate_contractions(germ, 2)
    value = records[-1]
    assert value.E_equation is not None  # cached in __dict__, which a clone rebuilds, not copies
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is ss.ContractionRecord
        assert clone == value and clone.E_equation == value.E_equation


# a value of each checked type, a field that breaks its contract, and the error
BAD_FIELD = {
    "QuotientLattice": (
        lambda: ss.QuotientLattice(5, 2), {"n": 0}, ValueError, "index n must be a positive",
    ),
    "WeightVector": (
        lambda: ss.WeightVector((1, 5, 3), 2), {"denominator": 0}, ValueError,
        "weight denominator must be positive",
    ),
    "SurfaceCone": (lambda: ss.SurfaceCone(5, 2), {"q": 5}, ValueError, "gcd"),
    "GermSpec": (
        lambda: ss.validate_germ(QUADRIC), {"n": 3, "case": "E6", "k": None},
        ss.GermRejection, "case E6 exists only at index 1",
    ),
    "ContractionRecord": (
        record, {"w0": ss.WeightVector((1, 1, 2))}, ss.NonAdmissibleWeight, "not homogeneous",
    ),
}


@pytest.mark.parametrize("name", BAD_FIELD)
def test_no_route_builds_a_value_outside_its_contract(name):
    """The constructor, `_make`, `_replace`, `copy.replace`, `copy` and `pickle`
    all build through `__new__`, so each raises the constructor's error."""
    build, bad, error, message = BAD_FIELD[name]
    value = build()
    cls = type(value)
    fields = {**value._asdict(), **bad}
    forged = tuple.__new__(cls, fields.values())  # bypasses __new__, as nothing else does
    routes = [
        lambda: cls(**fields),
        lambda: cls._make(fields.values()),
        lambda: value._replace(**bad),
        lambda: copy.copy(forged),
        lambda: copy.deepcopy(forged),
        *(lambda protocol=protocol: pickle.loads(pickle.dumps(forged, protocol))
          for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ]
    if sys.version_info >= (3, 13):
        routes.append(lambda: copy.replace(value, **bad))
    for route in routes:
        with pytest.raises(error, match=message):
            route()
    for clone in (copy.copy(value), copy.deepcopy(value),  # a valid value round-trips
                  *(pickle.loads(pickle.dumps(value, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(clone) is cls and clone == value


LOADING_SCRIPT = """
import contextlib, io, json, sys
import semistable.cli

print(json.dumps(sorted(sys.modules)))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = semistable.cli.main(argv)
    print(json.dumps([code, out.getvalue(), sorted(sys.modules)]))
"""


def _run_python(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return result.stdout.splitlines()


def test_cli_import_loads_no_dataclasses(tmp_path):
    """Importing the CLI loads no `dataclasses` and no library module; each
    subcommand loads only the modules it runs, and the probe loads no sympy."""
    germ = tmp_path / "quadric.json"
    germ.write_text(json.dumps(QUADRIC), encoding="utf-8")
    runs = [["resolve", "5", "2"], ["classify", str(germ), "--probe"]]
    imported, *after = _run_python(LOADING_SCRIPT, json.dumps(runs))

    modules = set(json.loads(imported))
    assert not modules & {"dataclasses", "inspect"}
    assert {m for m in modules if m.startswith("semistable")} == {
        "semistable", "semistable.cli", "semistable.errors",
    }

    (code, out, resolved), (probe_code, probe_out, probed) = map(json.loads, after)
    assert (code, out) == (0, "[3,2]\n")
    assert not set(resolved) & {
        f"semistable.{m}" for m in ("germs", "polynomials", "contractions", "census", "cover")
    }
    assert probe_code == 0 and "isolatedness: verified" in probe_out
    assert not set(probed) & {
        f"semistable.{m}" for m in ("contractions", "census", "cover", "_records")
    }
    assert not any(m == "sympy" or m.startswith("sympy.") for m in probed)


# A name is public when the CLI, a demo, the README or the benchmark reads it,
# or when it is a test's only route to an invariant; a change to this list is
# a change to the public surface.
PUBLIC_NAMES = [
    "ContractionRecord", "CornerEntry", "CoverData", "DomainRejection", "DualGraph",
    "FibreQuotientData", "GermRejection", "GermSpec", "GraphVertex", "InteriorEntry",
    "NonAdmissibleWeight", "OriginEntry", "QuotientLattice",
    "ReducedPerturbation", "SemistabilityViolation", "SingularityCensus", "SparsePoly",
    "SurfaceCone", "UnsupportedForm", "WeightVector", "ZeroPolynomialError",
    "admissible_weights_T", "build_contraction", "census", "cover_data", "duval_graph",
    "enumerate_contractions", "fibre_cone", "fibre_singularity", "fixed_weights_DE",
    "format_poly", "fraction_to_str", "hj_evaluate", "hj_expansion", "is_admissible",
    "is_primitive", "isolatedness_probe", "lattice_contains", "mu_n_character",
    "normal_form", "parse_weight", "poly_from_json", "poly_to_json", "ray_to_weight",
    "reduced_g_coefficients", "resolve_cyclic", "squarefree_multiplicities",
    "toric_subdivide", "validate_germ", "valuation_with_weights", "verify_cover",
    "weight_to_ray",
]


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(ss)
    assert ss.__all__ == PUBLIC_NAMES and ss.__version__ == "0.1.0"
    for name in ss.__all__:
        value = getattr(ss, name)
        assert value.__name__ == name and value.__module__.startswith("semistable.")
        assert name in listed


def test_source_has_no_assert_statement():
    """No library check is an `assert`: `python -O` strips `assert` statements."""
    sources = sorted((ROOT / "src" / "semistable").glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ss.no_such_name


def test_submodule_name_imports_on_first_use(monkeypatch):
    # as if no import had bound the submodule to the package yet
    monkeypatch.delattr(ss, "polynomials", raising=False)
    assert ss.polynomials is sys.modules["semistable.polynomials"]


CENSUS_NAME_SCRIPTS = {
    "after-subcommands": """
import contextlib, io, json, sys
from semistable.cli import main
germ, weights = sys.argv[1], "1,5,3/2"
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["enumerate", germ, "--bound", "3"]),
        main(["blowup", germ, "--weights", weights]),
        main(["census", germ, "--weights", weights]),
        main(["cover", germ, "--weights", weights]),
    ]
import semistable
print(json.dumps([codes, semistable.census.__module__, type(semistable.census).__name__]))
""",
    "submodule-first": """
import json, sys
import semistable.census
from semistable.census import SingularityCensus
import semistable
print(json.dumps([[], semistable.census.__module__, type(semistable.census).__name__]))
""",
}


@pytest.mark.parametrize("script", CENSUS_NAME_SCRIPTS)
def test_package_census_stays_the_function(tmp_path, script):
    """`semistable.census` names both a submodule and a function; the package
    attribute is the function whichever of the two is imported first."""
    germ = tmp_path / "quadric.json"
    germ.write_text(json.dumps(QUADRIC), encoding="utf-8")
    (line,) = _run_python(CENSUS_NAME_SCRIPTS[script], str(germ))
    codes, module, kind = json.loads(line)
    assert all(code == 0 for code in codes)
    assert (module, kind) == ("semistable.census", "function")
