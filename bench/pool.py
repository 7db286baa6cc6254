"""The versioned input pool of the benchmark and the seeded draw from it.

A workload is a tuple of op templates.  One pass runs every template once.
Each template names a CLI argv (with ``{germ}`` standing for a germ file) and
the germ variants it may run on.  A variant changes stdout (``rho_one``, the
perturbation coefficient), so every (template, variant) pair has its own
golden record; the seed picks one variant per template and the order of the
ops.  The seed also picks how each germ file is rendered (key order, the
``sign`` presentation of a case-T germ), which never changes stdout.

Bump POOL_VERSION whenever an op is added, removed or changed, and record
the goldens again (record_golden.py) at a commit whose output is trusted.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

POOL_VERSION = 1

# (n, a, k) of the case-T enumeration configs, from the ROADMAP baseline.
ENUM_CONFIGS = ((5, 2, 1), (1, 0, 1), (6, 1, 2), (12, 5, 1), (30, 7, 1))

# Bounds that give every enumerate op of a workload about the same cost
# (0.2-0.3 s): a 36 s run then holds enough ops for a p90 with ten samples
# beyond it, and the p90 falls inside that cluster of ops rather than in a
# gap between two op kinds, where it would jump with noise.
RECORD_BOUNDS = {(5, 2, 1): 16, (1, 0, 1): 23, (6, 1, 2): 21, (12, 5, 1): 15, (30, 7, 1): 12}
REJECT_BOUNDS = {(5, 2, 1): 27, (1, 0, 1): 40, (6, 1, 2): 30, (12, 5, 1): 19, (30, 7, 1): 14}

# Coefficients of the low-order perturbation t*g = c*t^2 on enum-rejects.
REJECT_COEFFS = ("1", "-1", "2", "-3/2")


@dataclass(frozen=True)
class Variant:
    label: str
    germ: dict | None  # raw germ JSON; None for ops that take no germ file


@dataclass(frozen=True)
class Template:
    argv: tuple[str, ...]
    variants: tuple[Variant, ...]


@dataclass(frozen=True)
class Op:
    """One drawn op: ``key`` names it in the golden file."""

    key: str
    argv: tuple[str, ...]
    germ: dict | None


def _mono(coeff: str, exp) -> dict:
    return {"coeff": coeff, "exp": list(exp)}


def _rho_variants(name: str, base: dict) -> tuple[Variant, ...]:
    return tuple(
        Variant(f"{name}.rho{int(rho)}", {**base, "rho_one": rho}) for rho in (False, True)
    )


def _case_t(n: int, a: int, k: int, g: list) -> dict:
    return {"n": n, "a": a, "case": "T", "k": k, "g": g}


def _index_one(case: str, g_power: int, **params) -> dict:
    return {"n": 1, "a": 0, "case": case, **params, "g": [_mono("1", (0, 0, 0, g_power))]}


def _enum_workload(prefix: str, bounds: dict, coeffs) -> tuple[Template, ...]:
    templates = []
    for cfg in ENUM_CONFIGS:
        n, a, k = cfg
        name = prefix + "_".join(str(c) for c in cfg)
        if coeffs is None:
            variants = _rho_variants(name, _case_t(n, a, k, []))
        else:
            variants = tuple(
                v
                for c in coeffs
                for v in _rho_variants(f"{name}.c{c}", _case_t(n, a, k, [_mono(c, (0, 0, 0, 1))]))
            )
        bound = str(bounds[cfg])
        # classify (and one probe) keep resolution and the probe measured here
        templates += [
            Template(("classify", "{germ}"), variants),
            Template(("enumerate", "{germ}", "--bound", bound), variants),
            Template(("enumerate", "{germ}", "--bound", bound, "--json"), variants),
        ]
        if cfg == ENUM_CONFIGS[0]:
            templates.append(Template(("classify", "{germ}", "--probe"), variants))
    return tuple(templates)


def _queries_workload() -> tuple[Template, ...]:
    q = _rho_variants("Q", _case_t(2, 1, 1, [_mono("1", (0, 0, 0, 2))]))
    c = _rho_variants(
        "C", _case_t(1, 0, 3, [_mono("-3", (0, 0, 1, 1)), _mono("2", (0, 0, 0, 2))])
    )
    d4 = _rho_variants("D4", _index_one("D", 5, m=4))
    d5 = _rho_variants("D5", _index_one("D", 7, m=5))
    e6 = _rho_variants("E6", _index_one("E6", 11))
    e7 = _rho_variants("E7", _index_one("E7", 17))
    e8 = _rho_variants("E8", _index_one("E8", 29))
    nn = _rho_variants("N", {"n": 3, "a": 1, "case": "N", "g": [_mono("1", (0, 0, 0, 1))]})
    t30 = _rho_variants("T30_7_1", _case_t(30, 7, 1, []))
    r521 = _rho_variants("R5_2_1", _case_t(5, 2, 1, [_mono("1", (0, 0, 0, 1))]))
    x_shape = _rho_variants("X", _case_t(1, 0, 1, [_mono("1", (1, 0, 0, 1))]))
    no_germ = (Variant("-", None),)

    def t(variants, *argv):
        return Template(argv, variants)

    return (
        t(q, "classify", "{germ}"),
        t(c, "classify", "{germ}"),
        t(d4, "classify", "{germ}"),
        t(e7, "classify", "{germ}"),
        t(nn, "classify", "{germ}"),
        t(t30, "classify", "{germ}"),
        t(q, "classify", "{germ}", "--json"),
        t(e8, "classify", "{germ}", "--json"),
        t(q, "classify", "{germ}", "--probe"),
        t(c, "classify", "{germ}", "--probe"),
        t(e6, "classify", "{germ}", "--probe"),
        t(d4, "classify", "{germ}", "--probe"),
        t(r521, "classify", "{germ}", "--probe"),
        t(e8, "classify", "{germ}", "--probe", "--json"),
        t(q, "blowup", "{germ}", "--weights", "1,5,3/2"),
        t(c, "blowup", "{germ}", "--weights", "1,2,1", "--json"),
        t(e6, "blowup", "{germ}", "--weights", "6,4,3"),
        t(d5, "blowup", "{germ}", "--weights", "4,3,2", "--json"),
        t(c, "census", "{germ}", "--weights", "1,2,1"),
        t(q, "census", "{germ}", "--weights", "1,5,3/2", "--json"),
        t(q, "cover", "{germ}", "--weights", "1,5,3/2"),
        t(e8, "cover", "{germ}", "--weights", "15,10,6", "--json"),
        t(c, "cover", "{germ}", "--weights", "1,2,1"),
        # expected exit 2: imprimitive weight, semistability violation,
        # perturbation outside the census's reduced shape
        t(q, "blowup", "{germ}", "--weights", "1,1,1"),
        t(r521, "blowup", "{germ}", "--weights", "14,1,3/5"),
        t(x_shape, "census", "{germ}", "--weights", "1,1,2"),
        t(d4, "enumerate", "{germ}"),
        t(e8, "enumerate", "{germ}"),
        t(e6, "enumerate", "{germ}", "--json"),
        t(d5, "enumerate", "{germ}", "--json"),
        t(q, "enumerate", "{germ}", "--bound", "4"),
        t(q, "enumerate", "{germ}", "--bound", "4", "--json"),
        t(c, "enumerate", "{germ}", "--bound", "3"),
        t(c, "enumerate", "{germ}", "--bound", "3", "--json"),
        t(no_germ, "resolve", "5", "2"),
        t(no_germ, "resolve", "7", "3", "--json"),
        t(no_germ, "resolve", "12", "5"),
        t(no_germ, "resolve", "36", "11"),
        t(no_germ, "resolve", "97", "40", "--json"),
        t(no_germ, "resolve", "101", "30"),
    )


WORKLOADS = {
    "enum-records": _enum_workload("T", RECORD_BOUNDS, None),
    "enum-rejects": _enum_workload("R", REJECT_BOUNDS, REJECT_COEFFS),
    "queries": _queries_workload(),
}


def op_key(template: Template, variant: Variant) -> str:
    return " ".join(variant.label if arg == "{germ}" else arg for arg in template.argv)


def all_ops(workload: str) -> list[Op]:
    """Every op the pool can draw for the workload, for recording goldens."""
    return [
        Op(op_key(t, v), t.argv, v.germ) for t in WORKLOADS[workload] for v in t.variants
    ]


def draw(workload: str, seed: int) -> list[Op]:
    """The ops of one pass: one variant per template, in a seeded order."""
    rng = random.Random(f"{POOL_VERSION}:{workload}:{seed}")
    ops = []
    for t in WORKLOADS[workload]:
        v = rng.choice(t.variants)
        ops.append(Op(op_key(t, v), t.argv, v.germ))
    rng.shuffle(ops)
    return ops


def render_germ(raw: dict, rng: random.Random) -> str:
    """Germ JSON with a seeded key order and, for case T, sign presentation."""
    raw = dict(raw)
    if raw["case"] == "T":
        sign = rng.choice((None, "+", "-"))
        if sign is not None:
            raw["sign"] = sign
    keys = list(raw)
    rng.shuffle(keys)
    return json.dumps({k: raw[k] for k in keys}, indent=rng.choice((None, 2)))


def materialize(ops: list[Op], directory: str, seed: int) -> list[tuple[Op, list[str]]]:
    """Write each op's germ file into directory; return (op, argv) pairs."""
    rng = random.Random(f"render:{seed}")
    os.makedirs(directory, exist_ok=True)
    out = []
    for i, op in enumerate(ops):
        argv = list(op.argv)
        if op.germ is not None:
            path = os.path.join(directory, f"germ{i:03d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(render_germ(op.germ, rng))
            argv = [path if arg == "{germ}" else arg for arg in argv]
        out.append((op, argv))
    return out
