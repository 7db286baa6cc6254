"""Benchmark of the semistable CLI: end-to-end workloads and a traced per-layer split.

Usage (from the repository root):

    python3 bench/run.py --workload enum-records --seed 1 --seconds 30 --trace 0

``--trace 0`` times ``python -m semistable.cli ...`` child processes, one
at a time from this process (a closed loop with one client), and reports the
end-to-end metrics.  ``--trace 1`` runs the same ops in this process through
``semistable.cli.main(argv)``, alternating untraced passes with passes traced
by spans.py, and reports the per-layer metrics.  Every op's exit code and
stdout sha256 are checked against golden.json in both modes.  A summary
table goes to stdout, a stamped result file to bench/.work/results/, and the
last stdout line is the JSON result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import time
from typing import NamedTuple

import measure
import pool
from spans import LAYERS, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

IMPORT_CLI = "import semistable.cli"
SETUP_REPS = 3
IMPORTTIME_REPS = 3

# (name, unit, better) -- the same lists as BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("text_weights_per_s", "1/s", "higher"),
    ("json_weights_per_s", "1/s", "higher"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    *((f"{layer}.calls", "count", "lower") for layer in LAYERS),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("lattices.accept_ratio", "ratio", "higher"),
    ("contractions.admissible_weights_T.self_s", "s", "lower"),
    ("contractions.build_contraction.self_s", "s", "lower"),
    ("contractions.is_admissible.per_weight", "ratio", "lower"),
    ("contractions.semistable_ratio", "ratio", "higher"),
    ("polynomials.valuation.calls", "count", "lower"),
    ("polynomials.squarefree_multiplicities.self_s", "s", "lower"),
    ("census.calls_per_record", "ratio", "lower"),
    ("census.reduced_g_per_census", "ratio", "lower"),
    ("cover.verify_calls_per_record", "ratio", "lower"),
    ("cover.cover_data_calls_per_record", "ratio", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("germs.isolatedness_probe.self_s", "s", "lower"),
    ("setup.import_ms", "ms", "lower"),
    ("setup.sympy_import_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("pass.weights_decided", "count", "higher"),
    ("pass.records", "count", "higher"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Sample(NamedTuple):
    """One op run as a child process."""

    pass_index: int
    op: pool.Op
    child: measure.Child
    adjusted_s: float  # wall time scaled to the host's nominal speed


# ----------------------------------------------------------------------------
# correctness


class Checker:
    """Compares each op's exit code and stdout digest with the golden record."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, op: pool.Op, exit_code: int, digest: str) -> None:
        self.attempted += 1
        expected = self.golden.get(op.key)
        if expected is None:
            self.failures.append(f"{op.key}: no golden record")
        elif exit_code != expected["exit"]:
            self.failures.append(f"{op.key}: exit {exit_code}, expected {expected['exit']}")
        elif digest != expected["sha256"]:
            self.failures.append(f"{op.key}: stdout digest {digest[:12]} differs from golden")

    def weights(self, op: pool.Op) -> int:
        return self.golden.get(op.key, {}).get("weights", 0)

    def records(self, op: pool.Op) -> int:
        return self.golden.get(op.key, {}).get("records", 0)


def load_golden() -> dict:
    try:
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {GOLDEN_PATH}: {exc}") from None
    if golden.get("pool_version") != pool.POOL_VERSION:
        raise BenchError(
            f"golden.json is for pool version {golden.get('pool_version')}, "
            f"the pool is version {pool.POOL_VERSION}"
        )
    return golden["ops"]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def cli_argv(argv) -> list[str]:
    return ["-m", "semistable.cli", *argv]


# ----------------------------------------------------------------------------
# end to end: child processes, tracing off


def run_end_to_end(pairs, seconds: float, checker: Checker):
    """Closed loop over child processes; times are speed-adjusted (measure.SpeedGauge)."""
    env = measure.child_env(ROOT)
    speed = measure.SpeedGauge()

    def time_import() -> tuple[float, float]:
        child = measure.run_child(["-c", IMPORT_CLI], env, ROOT)
        adjusted = speed.adjust(child.wall_s)
        if child.exit != 0:
            raise BenchError(f"{IMPORT_CLI!r} failed: {child.stderr.decode(errors='replace')}")
        return adjusted, child.wall_s

    time_import()  # writes the bytecode cache
    setup = [time_import() for _ in range(SETUP_REPS)]
    samples = []
    start = time.perf_counter()
    n_passes = 0
    while True:
        setup.append(time_import())  # spread over the run, like the passes
        t0 = time.perf_counter()
        for op, argv in pairs:
            child = measure.run_child(cli_argv(argv), env, ROOT)
            samples.append(Sample(n_passes, op, child, speed.adjust(child.wall_s)))
            checker.check(op, child.exit, child.digest)
        n_passes += 1
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break

    values = _e2e_values(samples, [a for a, _ in setup], n_passes, checker, adjusted=True)
    notes = []
    if not measure.tail_ok(len(samples), 90):
        notes.append(
            f"query_p90_ms has {measure.samples_beyond(len(samples), 90)} samples beyond it "
            f"(fewer than {measure.MIN_BEYOND}); lengthen --seconds"
        )
    unadjusted = _e2e_values(samples, [w for _, w in setup], n_passes, checker, adjusted=False)
    by_op: dict[str, list[float]] = {}
    for sample in samples:
        by_op.setdefault(sample.op.key, []).append(sample.adjusted_s * 1000)
    detail = {
        "passes": n_passes,
        "op_median_ms": {key: statistics.median(walls) for key, walls in sorted(by_op.items())},
        "unadjusted": {name: v for name, (v, _) in unadjusted.items()},
        "setup.import_ms": _import_ms(env, IMPORT_CLI, "semistable"),  # shown beside setup_s
    }
    return values, detail, notes


def _e2e_values(samples, setup, n_passes: int, checker: Checker, adjusted: bool) -> dict:
    """End-to-end metrics as (value, sample count), from adjusted or plain wall times."""
    def wall(sample: Sample) -> float:
        return sample.adjusted_s if adjusted else sample.child.wall_s

    pass_walls = [0.0] * n_passes
    by_op: dict[str, list[Sample]] = {}
    for sample in samples:
        pass_walls[sample.pass_index] += wall(sample)
        by_op.setdefault(sample.op.key, []).append(sample)

    def enum_rate(json_mode: bool):
        # per-op medians: a run the gauge misread moves its op's median little
        chosen = [
            runs for runs in by_op.values()
            if runs[0].op.argv[0] == "enumerate" and ("--json" in runs[0].op.argv) == json_mode
        ]
        weights = sum(checker.weights(runs[0].op) for runs in chosen)
        seconds = sum(statistics.median(wall(s) for s in runs) for runs in chosen)
        return ratio(weights, seconds), sum(len(runs) for runs in chosen)

    walls_ms = [wall(s) * 1000 for s in samples]
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(pass_walls), n_passes),
        "text_weights_per_s": enum_rate(False),
        "json_weights_per_s": enum_rate(True),
        "query_p50_ms": (measure.percentile(walls_ms, 50), len(walls_ms)),
        "query_p90_ms": (measure.percentile(walls_ms, 90), len(walls_ms)),
        "peak_rss_mb": (max(s.child.maxrss_kb for s in samples) / 1024, len(samples)),
    }


# ----------------------------------------------------------------------------
# traced: the same ops in this process, spans on alternate passes


def _import_ms(env, statement: str, package: str) -> float:
    times = []
    for _ in range(IMPORTTIME_REPS):
        child = measure.run_child(["-X", "importtime", "-c", statement], env, ROOT)
        if child.exit != 0:
            raise BenchError(f"{statement!r} failed: {child.stderr.decode(errors='replace')}")
        times.append(measure.importtime_ms(child.stderr.decode(), package))
    return statistics.median(times)


def _in_process_pass(cli, pairs, checker: Checker) -> tuple[float, int]:
    """Run every op through cli.main; return the pass wall time and stdout bytes."""
    total_bytes = 0
    t0 = time.perf_counter()
    for op, argv in pairs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception as exc:  # a library bug: count it, keep measuring
                print(f"{op.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
        data = out.getvalue().encode()
        total_bytes += len(data)
        checker.check(op, code, hashlib.sha256(data).hexdigest())
    return time.perf_counter() - t0, total_bytes


def layer_values(tracer: Tracer, weights: int, records: int, stdout_bytes: int) -> dict:
    """Per-layer metrics of one traced pass; ratios use the pass's golden bases."""
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = tracer.layer_calls(layer)
        values[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    census_calls = tracer.calls("census.census")
    values.update({
        "lattices.accept_ratio": ratio(weights, tracer.calls("lattices.weight_in_lattice")),
        "contractions.admissible_weights_T.self_s": tracer.self_s("contractions.admissible_weights_T"),
        "contractions.build_contraction.self_s": tracer.self_s("contractions.build_contraction"),
        "contractions.is_admissible.per_weight": ratio(tracer.calls("contractions.is_admissible"), weights),
        "contractions.semistable_ratio": ratio(records, weights),
        "polynomials.valuation.calls": tracer.calls("polynomials.valuation"),
        "polynomials.squarefree_multiplicities.self_s": tracer.self_s("polynomials.squarefree_multiplicities"),
        "census.calls_per_record": ratio(census_calls, records),
        "census.reduced_g_per_census": ratio(tracer.calls("census.reduced_g_coefficients"), census_calls),
        "cover.verify_calls_per_record": ratio(tracer.calls("cover.verify_cover"), records),
        "cover.cover_data_calls_per_record": ratio(tracer.calls("cover.cover_data"), records),
        "cli.stdout_bytes": stdout_bytes,
        "germs.isolatedness_probe.self_s": tracer.self_s("germs.isolatedness_probe"),
        "pass.weights_decided": weights,
        "pass.records": records,
    })
    return values


def run_traced(pairs, seconds: float, checker: Checker):
    start = time.perf_counter()
    env = measure.child_env(ROOT)
    import_ms = _import_ms(env, IMPORT_CLI, "semistable")
    sympy_ms = _import_ms(env, "import sympy", "sympy")

    sys.path.insert(0, os.path.join(ROOT, "src"))
    cli = importlib.import_module("semistable.cli")
    weights = sum(checker.weights(op) for op, _ in pairs)
    records = sum(checker.records(op) for op, _ in pairs)

    _in_process_pass(cli, pairs, checker)  # warm-up: lazy imports and caches
    tracer = Tracer()
    plain, traced, per_pass = [], [], []
    while True:
        wall, _ = _in_process_pass(cli, pairs, checker)
        plain.append(wall)
        tracer.reset()
        tracer.install()
        try:
            wall, stdout_bytes = _in_process_pass(cli, pairs, checker)
        finally:
            tracer.uninstall()
        traced.append(wall)
        per_pass.append(layer_values(tracer, weights, records, stdout_bytes))
        if time.perf_counter() - start + plain[-1] + traced[-1] > seconds:
            break

    n = len(per_pass)
    values = {name: (statistics.median(p[name] for p in per_pass), n) for name in per_pass[0]}
    values["setup.import_ms"] = (import_ms, IMPORTTIME_REPS)
    values["setup.sympy_import_ms"] = (sympy_ms, IMPORTTIME_REPS)
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    values["trace.overhead_frac"] = (overhead, n)
    return values, {"passes": n, "functions": tracer.table()}, []


# ----------------------------------------------------------------------------
# entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(pool.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def benchmark(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "semistable", "cli.py")):
        raise BenchError(f"no semistable sources under {os.path.join(ROOT, 'src')}")
    golden = load_golden()
    checker = Checker(golden)
    stamp = measure.stamp(ROOT, args.workload, args.seed, pool.POOL_VERSION, args.trace)
    ops = pool.draw(args.workload, args.seed)
    inputs = os.path.join(WORK_DIR, f"inputs-{os.getpid()}")
    try:
        pairs = pool.materialize(ops, inputs, args.seed)
        runner = run_traced if args.trace else run_end_to_end
        values, detail, notes = runner(pairs, args.seconds, checker)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    specs = PER_LAYER if args.trace else END_TO_END
    return {
        "stamp": stamp,
        "metrics": {name: {"value": values[name][0], "unit": unit, "samples": values[name][1]}
                    for name, unit, _ in specs},
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "failures": checker.failures,
        "notes": notes,
        "detail": detail,
    }


def write_result(result: dict) -> str:
    s = result["stamp"]
    directory = os.path.join(WORK_DIR, "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{s['workload']}-seed{s['seed']}-trace{s['trace']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return path


def print_summary(result: dict, path: str) -> None:
    s = result["stamp"]
    print(f"workload {s['workload']}  seed {s['seed']}  pool v{s['pool_version']}  "
          f"trace {s['trace']}  python {s['python']}  git {s['git_sha'][:12]}  "
          f"nproc {s['nproc']}  load {s['loadavg_start'][0]:.2f}")
    for name, m in result["metrics"].items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    detail = result["detail"]
    if "unadjusted" in detail:
        print("  unadjusted: " + "  ".join(f"{k}={v:.6g}" for k, v in detail["unadjusted"].items()))
        print(f"  setup.import_ms (python -X importtime): {detail['setup.import_ms']:.6g}")
    frac = ratio(result["failed"], result["attempted"])
    print(f"  {'failed_ops_frac':<46} {frac:>14.6g} {'ratio':<6} n={result['attempted']}")
    for failure in result["failures"][:20]:
        print(f"  FAILED {failure}")
    for note in result["notes"]:
        print(f"  note: {note}")
    print(f"  result file: {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = benchmark(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    path = write_result(result)
    print_summary(result, path)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
