"""Command line front end: classify, enumerate, blowup, census, resolve, cover.

Germ inputs are JSON files:

    {"n": 2, "a": 1, "case": "T", "k": 1,
     "g": [{"coeff": "1", "exp": [0, 0, 0, 2]}],
     "rho_one": false}

All rationals render as "p/q" strings, never floats.  JSON output is what
the standard `json` module writes with `indent=2, sort_keys=True`.  One
private writer (`_json`) lays it all out; `enumerate`'s rejected weights
fill a template it renders once (`_rejected_json`).  `enumerate` writes
its header, then one write per record as it is rendered, then its
rejected weights, so its memory does not grow with its output.

Exit codes: 0 success, 1 when stdout is closed before the output is written
(a broken pipe), 2 mathematical rejection (invalid germ, inadmissible weights,
unsupported census shape, work limit), 3 when the germ file or the command
line cannot be read or parsed.  Every exit-2 and exit-3 path raises before
the first write.  Any other exception is a library bug and is not mapped to
an exit code; raised while `enumerate` streams, it follows the records
already written.  Output is deterministic for a fixed input and flag set.

Each subcommand imports the library modules it runs when it starts, so a
process loads and (without cached bytecode) compiles only those.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

from .errors import DomainRejection

if TYPE_CHECKING:
    from .contractions import ContractionRecord
    from .germs import GermSpec
    from .resolution import DualGraph

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_REJECTED = 2
EXIT_PARSE = 3


class CliParseError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise CliParseError(message)


def _load_germ(path: str) -> GermSpec:
    from .germs import validate_germ

    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # JSON or UTF-8 decoding, deep nesting
        raise CliParseError(f"cannot read germ file {path!r}: {exc}") from None
    return validate_germ(raw)


def _json(value, newline: str = "\n") -> str:
    """value as the standard `json` module writes it with `indent=2, sort_keys=True`.

    It takes what the payloads hold: dicts with `str` keys, lists, `str`,
    `int`, `bool` and `None`, and `_Rendered` text, which it writes as is.
    Anything else (a float, a `Fraction`, a tuple, a non-`str` key) raises
    TypeError, never a coercion.  newline is the line break plus the indent
    of the line value starts on, so a value can be written inside an
    enclosing one.  With `indent` set, the `json` module runs its
    pure-Python encoder; this one is about 2.4x faster.
    """
    out: list[str] = []
    _json_chunks(value, newline, out)
    return "".join(out)


class _Rendered(str):
    """JSON text already written, at the indent of the place it goes."""


# (keys in insertion order, inner newline) -> [(key, "{" or "," + newline + quoted key + ": ")]
# in sorted key order.  Payload dicts take their keys from code, not from input, so
# a run meets a few dozen shapes; the bound only keeps arbitrary callers in check.
_SHAPES: dict[tuple[tuple[str, ...], str], list[tuple[str, str]]] = {}
_MAX_SHAPES = 1024
_STR = frozenset((str,))


def _shape(value: dict, inner: str) -> list[tuple[str, str]]:
    """The sorted keys of value with the text written before each of their items."""
    keys = tuple(value)
    shape = _SHAPES.get((keys, inner))
    if shape is not None and _STR.issuperset(map(type, keys)):  # an equal str subclass hits too
        return shape
    shape, sep = [], "{"
    for key in sorted(keys):
        if type(key) is not str:
            raise TypeError(f"JSON object key {key!r} is not a str")
        shape.append((key, f"{sep}{inner}{_quote(key)}: "))
        sep = ","
    if len(_SHAPES) < _MAX_SHAPES:
        _SHAPES[keys, inner] = shape
    return shape


def _json_chunks(value, newline: str, out: list[str]) -> None:
    # str and int items are written inside the loops: they are most of a payload
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        for key, prefix in _shape(value, inner):
            item = value[key]
            kind = type(item)
            if kind is str:
                out.append(prefix + _quote(item))
            elif kind is int:
                out.append(prefix + int.__repr__(item))
            else:
                out.append(prefix)
                _json_chunks(item, inner, out)
        out.append(newline + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            kind = type(item)
            if kind is str:
                out.append(sep + _quote(item))
            elif kind is int:
                out.append(sep + int.__repr__(item))
            else:
                out.append(sep)
                _json_chunks(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is str:
        out.append(_quote(value))
    elif kind is _Rendered:
        out.append(value)
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is int:
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"{kind.__name__} is not a JSON value the CLI writes")


# Each entry of an admissible weight is a unit mod d (see the contractions module), so
# a_i/d is in lowest terms and the vector reads "a_i/d", or "a_i" when d = 1, with no
# gcd taken.  This lives here, not in `_records`: `python -m semistable.cli` runs this
# module as `__main__`, so a library module importing it would run it a second time.
def _rejected_json(rejected: list) -> str:
    """`enumerate`'s rejected (w0, witness exponent) pairs as `_json` writes their dict form.

    That form is [{"w0": w0.to_json(), "witness_exponent": [...]}, ...] at
    indent 2.  `_json` writes one entry with %-slots for its integers (no key
    holds a "%"), in sorted key order: d, the numerators, the vector, the witness.
    """
    number, ratio = _Rendered("%d"), _Rendered('"%d%s"')
    w0 = {"denominator": number, "numerators": [number] * 3, "vector": [ratio] * 3}
    template = _json({"w0": w0, "witness_exponent": [number] * 4}, "\n    ")
    entries = []
    for ((a1, a2, a3), d), (i, j, k, l) in rejected:
        over = "" if d == 1 else f"/{d}"
        slots = (d, a1, a2, a3, a1, over, a2, over, a3, over, i, j, k, l)
        entries.append(_Rendered(template % slots))
    return _json(entries, "\n  ")


def _emit(
    build_payload: Callable[[], dict], build_lines: Callable[[], list[str]], as_json: bool
) -> None:
    """Write the JSON payload or the text lines in one write; only the chosen builder runs."""
    text = _json(build_payload()) if as_json else "\n".join(build_lines())
    sys.stdout.write(text + "\n")


def _germ_lines(germ: GermSpec) -> list[str]:
    from .polynomials import format_poly

    params = f"n={germ.n}, a={germ.a}"
    if germ.k is not None:
        params += f", k={germ.k}"
    if germ.m is not None:
        params += f", m={germ.m}"
    equation = format_poly(germ.equation)
    return [
        f"germ: case {germ.case}, {params}, rho_one={germ.rho_one}",
        f"equation: {equation} = 0  in (1/{germ.n})(1,-1,{germ.a},0)",
    ]


def _graph_line(graph: DualGraph) -> str:
    if not graph.vertices:
        return "resolution: empty graph (smooth)"
    selfints = ",".join(str(v.self_intersection) for v in graph.vertices)
    note = f", fork at {graph.vertices[graph.fork].label}" if graph.fork is not None else ""
    return f"resolution: [{selfints}]{note}"


def cmd_classify(args) -> int:
    from .germs import FibreQuotientData, fibre_singularity, isolatedness_probe
    from .polynomials import SparsePoly, format_poly
    from .resolution import duval_graph, resolve_cyclic

    if args.trunc_order is not None and not args.probe:
        raise CliParseError("--trunc-order needs --probe")
    germ = _load_germ(args.spec)
    fibre = fibre_singularity(germ)
    iso = (
        isolatedness_probe(germ, args.trunc_order) if args.probe else "asserted"
    )
    if isinstance(fibre, FibreQuotientData):
        dictionary = ", ".join(
            f"{name}={format_poly(SparsePoly.monomial((*e, 0, 0)), ('u', 'v', '', ''))}"
            for name, e in fibre.dictionary
        )
        label = f"  [{fibre.duval_label}]" if fibre.duval_label else ""
        graph = resolve_cyclic(fibre.r, fibre.q)
        fibre_lines = [
            f"fibre: cyclic quotient 1/{fibre.r}(1,{fibre.q}){label}",
            f"fibre chart: {dictionary}",
            _graph_line(graph),
        ]
        fibre_json = fibre.to_json()
    elif germ.case == "N":
        graph = None
        fibre_lines = [f"fibre: {fibre}; classification display only"]
        fibre_json = {"label": fibre}
    else:
        graph = duval_graph(fibre)
        fibre_lines = [f"fibre: Du Val {fibre}", _graph_line(graph)]
        fibre_json = {"duval_label": fibre}
    _emit(
        lambda: {
            "verdict": "valid",
            "germ": germ.to_json(),
            "fibre": fibre_json,
            "fibre_resolution": graph.to_json() if graph is not None else None,
            "isolatedness": iso,
        },
        lambda: _germ_lines(germ) + ["verdict: valid", *fibre_lines, f"isolatedness: {iso}"],
        args.json,
    )
    return EXIT_OK


def cmd_enumerate(args) -> int:
    """Write the header, then one write per record, then the rejected weights in one write.

    So the process holds one rendered record at a time, not the whole output.
    """
    from ._records import _record_json, _record_lines, _rejected_text
    from .contractions import _E_json, enumerate_contractions

    germ = _load_germ(args.spec)
    if germ.case == "T" and args.bound is None:
        raise CliParseError("case-T enumeration needs a nonnegative --bound")
    records, rejected = enumerate_contractions(germ, args.bound)
    write = sys.stdout.write
    f_E = _E_json(germ.f)  # E = f when t*g = 0
    Es = (f_E if record.E_equation is germ.f else None for record in records)
    if not args.json:
        bound_note = f" (bound {args.bound})" if args.bound is not None else ""
        write("\n".join(_germ_lines(germ) + [f"records: {len(records)}{bound_note}", ""]))
        for i, (record, E) in enumerate(zip(records, Es), start=1):
            write("\n".join([f"[{i}]", *_record_lines(record, "    ", E and E[1]), ""]))
        write(_rejected_text(rejected))
        return EXIT_OK
    # Every record repeats the germ, and E = f when t*g = 0: render them once.
    germ_dict = germ.to_json()
    inner = "\n      "  # the line break and indent of a record's entries
    germ_json = _Rendered(_json(germ_dict, inner))
    f_json = tuple(_Rendered(_json(entry, inner)) for entry in f_E)
    # the payload's four keys in the sorted order `_json` gives
    header = '{\n  "bound": ' + _json(args.bound) + ',\n  "germ": ' + _json(germ_dict, "\n  ")
    write(header + ',\n  "records": [')
    for i, (record, E) in enumerate(zip(records, Es)):
        write(
            ("," if i else "") + "\n    "
            + _json(_record_json(record, germ_json, E and f_json), "\n    ")
        )
    end = "\n  ]" if records else "]"
    write(end + ',\n  "rejected": ' + _rejected_json(rejected) + "\n}\n")
    return EXIT_OK


def _build_from_args(args) -> ContractionRecord:
    from .contractions import build_contraction
    from .lattices import parse_weight

    germ = _load_germ(args.spec)
    try:
        w0 = parse_weight(args.weights)
    except DomainRejection:  # well-formed but never a weight vector: exit 2
        raise
    except ValueError as exc:
        raise CliParseError(f"bad --weights value {args.weights!r}: {exc}") from None
    return build_contraction(germ, w0)


def cmd_blowup(args) -> int:
    from ._records import _record_json, _record_lines

    record = _build_from_args(args)
    _emit(
        lambda: _record_json(record),
        lambda: _germ_lines(record.germ) + _record_lines(record),
        args.json,
    )
    return EXIT_OK


def cmd_census(args) -> int:
    from ._records import _census_lines
    from .census import census

    record = _build_from_args(args)
    data = census(record)  # raises on unsupported shapes: exit 2
    _emit(
        lambda: {
            "germ": record.germ.to_json(),
            "w0": record.w0.to_json(),
            "census": data.to_json(),
        },
        lambda: _germ_lines(record.germ) + [f"w0 = {record.w0}"] + _census_lines(data),
        args.json,
    )
    return EXIT_OK


def cmd_resolve(args) -> int:
    from .resolution import DualGraph, hj_expansion

    try:
        expansion = hj_expansion(args.r, args.q)
    except ValueError as exc:  # not a normalized quotient datum
        raise DomainRejection(str(exc)) from None
    _emit(
        lambda: {
            "r": args.r,
            "q": args.q,
            "expansion": expansion,
            "graph": DualGraph.string(expansion).to_json(),
        },
        lambda: ["[" + ",".join(str(b) for b in expansion) + "]"],
        args.json,
    )
    return EXIT_OK


def cmd_cover(args) -> int:
    from .cover import cover_data, verify_cover
    from .lattices import fraction_to_str

    record = _build_from_args(args)
    data = cover_data(record)
    verified = verify_cover(record, data)
    _emit(
        lambda: {**data.to_json(), "verified": verified, "w0": record.w0.to_json()},
        lambda: _germ_lines(record.germ) + [
            f"w0 = {record.w0}   discrepancy = {fraction_to_str(record.discrepancy)}",
            f"cover degree d = {data.d}, e = {data.e}",
            f"lifted weights: {data.lifted_weights}",
            f"covered discrepancy a~ = {data.covered_discrepancy}",
            f"verified: {'yes' if verified else 'NO'}",
        ],
        args.json,
    )
    return EXIT_OK


def build_parser() -> Parser:
    # integer arguments are read strictly (ASCII digits); anything else exits 3
    from .lattices import integer, natural

    parser = Parser(
        prog="semistable",
        description="Exact computations with semistable 3-fold smoothing germs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, weights=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="path to a germ JSON file")
        if weights:
            p.add_argument(
                "--weights", required=True, help="blowup weights a1,a2,a3[/d]"
            )
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(func=func)
        return p

    p = add("classify", cmd_classify, "validate a germ and report its fibre singularity")
    p.add_argument("--probe", action="store_true", help="run the isolatedness probe")
    p.add_argument(
        "--trunc-order", type=natural, default=None,
        help="truncate t*g at this t-order before probing (needs --probe)",
    )

    p = add("enumerate", cmd_enumerate, "list all contraction records within a bound")
    p.add_argument("--bound", type=natural, default=None, help="cap on max(a_i)/d")

    add("blowup", cmd_blowup, "build one contraction record", weights=True)
    add("census", cmd_census, "singularity census along E", weights=True)
    add("cover", cmd_cover, "index-one cover data for a record", weights=True)

    p = sub.add_parser("resolve", help="Hirzebruch-Jung string of 1/r(1,q)")
    p.add_argument("r", type=integer)
    p.add_argument("q", type=integer)
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_resolve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe then fails here, inside the try
        return code
    except BrokenPipeError:
        # the reader went away: point stdout at devnull so that the flush at
        # interpreter exit cannot fail again (recipe from the `signal` docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except CliParseError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainRejection as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED


if __name__ == "__main__":
    sys.exit(main())
