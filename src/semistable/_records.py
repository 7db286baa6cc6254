"""Text and JSON renderings of contraction records and their censuses.

Kept apart from the command line so that `enumerate`, `blowup` and `census`
load these dependencies once, at import, and no import statement runs per
rendered record; the other subcommands never load this module.
"""

from __future__ import annotations

from .census import SingularityCensus, census
from .contractions import ContractionRecord, _E_json
from .cover import cover_data, verify_cover
from .errors import UnsupportedForm
from .lattices import ratio_to_str
from .polynomials import format_poly


def _census_lines(data: SingularityCensus, indent: str = "") -> list[str]:
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


def _record_lines(record: ContractionRecord, indent: str = "", E: str | None = None) -> list[str]:
    """The record, its cover and, in case T, its census; E, if given, is E's equation."""
    a1, a2, a3, d = record.ambient
    E = E or format_poly(record.E_equation, ("X", "Y", "Z", "T"))
    lines = [
        f"{indent}w0 = {record.w0}   lambda = {ratio_to_str(record._scaled_lam, d)}   "
        f"discrepancy = {ratio_to_str(record._scaled_discrepancy, d)}",
        f"{indent}E = ({E} = 0)  in  P({a1},{a2},{a3},{d})",
        f"{indent}status: {record.contraction_status}   semistable: yes",
    ]
    data = cover_data(record)
    verified = "yes" if verify_cover(record, data) else "NO"
    lines.append(
        f"{indent}cover: d={data.d} e={data.e} "
        f"lifted={data.lifted_weights} a~={data.covered_discrepancy} "
        f"verified={verified}"
    )
    if record.germ.case == "T":
        try:
            lines.extend(_census_lines(census(record), indent))
        except UnsupportedForm as exc:
            lines.append(f"{indent}census: unsupported form ({exc})")
    return lines


def _record_json(record: ContractionRecord, germ=None, E=None) -> dict:
    """The record's `to_json`, its cover and, in case T, its census.

    germ and E (the pair of E entries) replace the record's own when given:
    `enumerate` renders once what all its records repeat.
    """
    payload = record._json(
        record.germ.to_json() if germ is None else germ,
        *(_E_json(record.E_equation) if E is None else E),
    )
    cover = cover_data(record)
    payload["cover"] = {**cover.to_json(), "verified": verify_cover(record, cover)}
    if record.germ.case != "T":
        data, note = None, "census covers only case T"
    else:
        try:
            data, note = census(record).to_json(), None
        except UnsupportedForm as exc:
            data, note = None, str(exc)
    payload.update(census=data, census_note=note)
    return payload


# `enumerate`'s rejected (w0, witness exponent) pairs are written straight from their
# integers.  Each entry of an admissible weight is a unit mod d (see the contractions
# module), so a_i/d is in lowest terms and the vector reads "a_i/d", or "a_i" when d = 1.


def _rejected_text(rejected: list) -> str:
    """The text lines of the rejected pairs, w0 as `str(w0)` writes it."""
    return "".join(
        f"rejected: {'' if d == 1 else f'(1/{d})'}({a1},{a2},{a3}) violates "
        f"w(t*g) >= w(f), witness exponent ({i}, {j}, {k}, {l})\n"
        for ((a1, a2, a3), d), (i, j, k, l) in rejected
    )


def _rejected_json(rejected: list) -> str:
    """The rejected pairs as `_json` writes their dict form in the `enumerate` payload.

    That form is [{"w0": w0.to_json(), "witness_exponent": [...]}, ...] at
    indent 2; this writes it with one f-string per entry.
    """
    entries = []
    for ((a1, a2, a3), d), (i, j, k, l) in rejected:
        over = "" if d == 1 else f"/{d}"
        entries.append(
            "{\n"
            '      "w0": {\n'
            f'        "denominator": {d},\n'
            '        "numerators": [\n'
            f"          {a1},\n"
            f"          {a2},\n"
            f"          {a3}\n"
            "        ],\n"
            '        "vector": [\n'
            f'          "{a1}{over}",\n'
            f'          "{a2}{over}",\n'
            f'          "{a3}{over}"\n'
            "        ]\n"
            "      },\n"
            '      "witness_exponent": [\n'
            f"        {i},\n"
            f"        {j},\n"
            f"        {k},\n"
            f"        {l}\n"
            "      ]\n"
            "    }"
        )
    return "[\n    " + ",\n    ".join(entries) + "\n  ]" if entries else "[]"
