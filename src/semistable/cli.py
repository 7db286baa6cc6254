"""Command line front end: classify, enumerate, blowup, census, resolve, cover.

Germ inputs are JSON files:

    {"n": 2, "a": 1, "case": "T", "k": 1,
     "g": [{"coeff": "1", "exp": [0, 0, 0, 2]}],
     "rho_one": false}

All rationals render as "p/q" strings, never floats.  Exit codes: 0 success,
2 mathematical rejection (invalid germ, inadmissible weights, unsupported
census shape), 3 I/O or parse failure.  Output is deterministic for a fixed
input and flag set.
"""

from __future__ import annotations

import argparse
import json
import sys

from .census import census
from .contractions import ContractionRecord, build_contraction, enumerate_contractions
from .cover import cover_data, verify_cover
from .errors import DomainRejection, UnsupportedForm
from .germs import FibreQuotientData, GermSpec, fibre_singularity, isolatedness_probe, validate_germ
from .lattices import fraction_to_str
from .polynomials import format_poly
from .resolution import DualGraph, duval_graph, hj_expansion, resolve_cyclic

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_PARSE = 3


class CliParseError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise CliParseError(message)


def _load_germ(path: str) -> GermSpec:
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    return validate_germ(raw)


def _emit(payload: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))


def _germ_lines(germ: GermSpec) -> list[str]:
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


def _census_lines(record: ContractionRecord, indent: str = "") -> list[str]:
    try:
        data = census(record)
    except UnsupportedForm as exc:
        return [f"{indent}census: unsupported form ({exc})"]
    except DomainRejection as exc:
        return [f"{indent}census: {exc}"]
    lines = []
    if data.interior:
        for entry in data.interior:
            lines.append(
                f"{indent}interior: {entry.count} x {entry.type_label} (l={entry.l})"
            )
    else:
        lines.append(f"{indent}interior: no A-type points")
    if data.origin is None:
        lines.append(f"{indent}origin: smooth or covered by the interior chart")
    else:
        o = data.origin
        divergence = "  [series/fibre indices diverge]" if o.divergent else ""
        lines.append(
            f"{indent}origin: (xy + z^{o.z_power} = 0) in (1/{o.index})(1,-1,{o.b}), "
            f"type 1/{o.r}({1},{o.q}){divergence}"
        )
    for corner in data.corners:
        if corner.smooth:
            lines.append(f"{indent}corner {corner.point}: smooth")
        else:
            lines.append(
                f"{indent}corner {corner.point}: (xy = 0) in "
                f"(1/{corner.r})(1,-1,{corner.c})"
            )
    return lines


def _census_json(record: ContractionRecord):
    try:
        return {"census": census(record).to_json(), "census_note": None}
    except (UnsupportedForm, DomainRejection) as exc:
        return {"census": None, "census_note": str(exc)}


def _record_lines(record: ContractionRecord, indent: str = "") -> list[str]:
    a1, a2, a3, d = record.ambient
    lines = [
        f"{indent}w0 = {record.w0}   lambda = {fraction_to_str(record.lam)}   "
        f"discrepancy = {fraction_to_str(record.discrepancy)}",
        f"{indent}E = ({format_poly(record.E_equation, ('X', 'Y', 'Z', 'T'))} = 0)"
        f"  in  P({a1},{a2},{a3},{d})",
        f"{indent}status: {record.contraction_status}   "
        f"semistable: {'yes' if record.semistable_ok else 'no'}",
    ]
    data = cover_data(record)
    verified = "yes" if verify_cover(record) else "NO"
    lines.append(
        f"{indent}cover: d={data.d} e={data.e} "
        f"lifted={data.lifted_weights} a~={data.covered_discrepancy} "
        f"verified={verified}"
    )
    return lines


def _record_json(record: ContractionRecord) -> dict:
    payload = record.to_json()
    data = cover_data(record)
    payload["cover"] = data.to_json()
    payload["cover"]["verified"] = verify_cover(record)
    if record.germ.case == "T":
        payload.update(_census_json(record))
    else:
        payload.update({"census": None, "census_note": "census covers only case T"})
    return payload


def cmd_classify(args) -> int:
    germ = _load_germ(args.spec)
    fibre = fibre_singularity(germ)
    iso = (
        isolatedness_probe(germ, args.trunc_order) if args.probe else "asserted"
    )
    lines = _germ_lines(germ) + ["verdict: valid"]
    if isinstance(fibre, FibreQuotientData):
        def power(base, exponent):
            return "" if exponent == 0 else base if exponent == 1 else f"{base}^{exponent}"

        dictionary = ", ".join(
            f"{name}={power('u', e[0])}{'*' if e[0] and e[1] else ''}{power('v', e[1])}"
            for name, e in fibre.dictionary
        )
        label = f"  [{fibre.duval_label}]" if fibre.duval_label else ""
        lines.append(f"fibre: cyclic quotient 1/{fibre.r}(1,{fibre.q}){label}")
        lines.append(f"fibre chart: {dictionary}")
        graph = resolve_cyclic(fibre.r, fibre.q)
        fibre_json = fibre.to_json()
    elif germ.case == "N":
        lines.append(f"fibre: {fibre}; classification display only")
        graph = None
        fibre_json = {"label": fibre}
    else:
        lines.append(f"fibre: Du Val {fibre}")
        graph = duval_graph(fibre)
        fibre_json = {"duval_label": fibre}
    if graph is not None:
        lines.append(_graph_line(graph))
    lines.append(f"isolatedness: {iso}")
    payload = {
        "verdict": "valid",
        "germ": germ.to_json(),
        "fibre": fibre_json,
        "fibre_resolution": graph.to_json() if graph is not None else None,
        "isolatedness": iso,
    }
    _emit(payload, lines, args.json)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    germ = _load_germ(args.spec)
    if germ.case == "T" and args.bound is None:
        raise CliParseError("case-T enumeration needs --bound")
    records, rejected = enumerate_contractions(germ, args.bound)
    lines = _germ_lines(germ)
    bound_note = f" (bound {args.bound})" if args.bound is not None else ""
    lines.append(f"records: {len(records)}{bound_note}")
    for i, record in enumerate(records, start=1):
        lines.append(f"[{i}]")
        lines.extend(_record_lines(record, indent="    "))
        if germ.case == "T":
            lines.extend(_census_lines(record, indent="    "))
    for w, witness in rejected:
        lines.append(f"rejected: {w} violates w(t*g) >= w(f), witness exponent {witness}")
    payload = {
        "germ": germ.to_json(),
        "bound": args.bound,
        "records": [_record_json(r) for r in records],
        "rejected": [
            {"w0": w.to_json(), "witness_exponent": list(witness)}
            for w, witness in rejected
        ],
    }
    _emit(payload, lines, args.json)
    return EXIT_OK


def _parse_weight_arg(text: str):
    from .lattices import WeightVector

    body, _, denom = text.partition("/")
    parts = [p.strip() for p in body.split(",")]
    try:
        nums = tuple(int(p) for p in parts)
        d = int(denom) if denom else 1
    except ValueError:
        raise CliParseError(f"bad --weights value {text!r}") from None
    if len(nums) != 3:
        raise CliParseError(f"--weights needs three entries, got {text!r}")
    try:
        return WeightVector(nums, d)
    except ValueError as exc:  # well-formed but never a valid weight
        raise DomainRejection(str(exc)) from None


def _build_from_args(args) -> ContractionRecord:
    germ = _load_germ(args.spec)
    w0 = _parse_weight_arg(args.weights)
    return build_contraction(germ, w0)


def cmd_blowup(args) -> int:
    record = _build_from_args(args)
    lines = _germ_lines(record.germ)
    lines.extend(_record_lines(record))
    if record.germ.case == "T":
        lines.extend(_census_lines(record))
    _emit(_record_json(record), lines, args.json)
    return EXIT_OK


def cmd_census(args) -> int:
    record = _build_from_args(args)
    data = census(record)  # raises on unsupported shapes: exit 2
    lines = _germ_lines(record.germ)
    lines.append(f"w0 = {record.w0}")
    lines.extend(_census_lines(record))
    payload = {
        "germ": record.germ.to_json(),
        "w0": record.w0.to_json(),
        "census": data.to_json(),
    }
    _emit(payload, lines, args.json)
    return EXIT_OK


def cmd_resolve(args) -> int:
    try:
        expansion = hj_expansion(args.r, args.q)
        graph = resolve_cyclic(args.r, args.q)
    except ValueError as exc:  # not a normalized quotient datum
        raise DomainRejection(str(exc)) from None
    payload = {
        "r": args.r,
        "q": args.q,
        "expansion": expansion,
        "graph": graph.to_json(),
    }
    body = "[" + ",".join(str(b) for b in expansion) + "]"
    _emit(payload, [body], args.json)
    return EXIT_OK


def cmd_cover(args) -> int:
    record = _build_from_args(args)
    data = cover_data(record)
    verified = verify_cover(record)
    lines = _germ_lines(record.germ) + [
        f"w0 = {record.w0}   discrepancy = {fraction_to_str(record.discrepancy)}",
        f"cover degree d = {data.d}, e = {data.e}",
        f"lifted weights: {data.lifted_weights}",
        f"covered discrepancy a~ = {data.covered_discrepancy}",
        f"verified: {'yes' if verified else 'NO'}",
    ]
    payload = data.to_json()
    payload["verified"] = verified
    payload["w0"] = record.w0.to_json()
    _emit(payload, lines, args.json)
    return EXIT_OK


def build_parser() -> Parser:
    parser = Parser(
        prog="semistable",
        description="Exact computations with semistable 3-fold smoothing germs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, spec=True, weights=False):
        p = sub.add_parser(name, help=help_text)
        if spec:
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
        "--trunc-order", type=int, default=None,
        help="truncate t*g at this t-order before probing",
    )

    p = add("enumerate", cmd_enumerate, "list all contraction records within a bound")
    p.add_argument("--bound", type=int, default=None, help="cap on max(a_i)/d")

    add("blowup", cmd_blowup, "build one contraction record", weights=True)
    add("census", cmd_census, "singularity census along E", weights=True)
    add("cover", cmd_cover, "index-one cover data for a record", weights=True)

    p = sub.add_parser("resolve", help="Hirzebruch-Jung string of 1/r(1,q)")
    p.add_argument("r", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_resolve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliParseError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainRejection as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
