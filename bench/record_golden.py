"""Record golden.json: exit code, stdout sha256 and work counts of every pool op.

    python3 bench/record_golden.py

Run it only at a commit whose CLI output is trusted, and only when the pool
changes (bump pool.POOL_VERSION first).  The counts are the bases of the
benchmark's rates and ratios:

* ``weights``: admissible weights the op decided -- records plus
  rejections for ``enumerate``; one for a single-weight op (``blowup``,
  ``census``, ``cover``) that built its record or failed semistability;
* ``records``: contraction records the op built.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import measure
import pool
from run import GOLDEN_PATH, ROOT, WORK_DIR, cli_argv


def work_counts(op: pool.Op, child: measure.Child) -> tuple[int, int]:
    """(weights, records) decided by one op, read off its output."""
    command = op.argv[0]
    if command == "enumerate":
        if "--json" in op.argv:
            payload = json.loads(child.stdout)
            records, rejected = len(payload["records"]), len(payload["rejected"])
        else:
            lines = child.stdout.decode().splitlines()
            records = next(int(line.split()[1]) for line in lines if line.startswith("records: "))
            rejected = sum(line.startswith("rejected: ") for line in lines)
        return records + rejected, records
    if command in ("blowup", "census", "cover"):
        if child.exit == 0:
            return 1, 1
        if b"w(t*g)" in child.stderr:  # semistability violation: decided, no record
            return 1, 0
    return 0, 0


def main() -> int:
    env = measure.child_env(ROOT)
    ops = {}
    for workload in pool.WORKLOADS:
        for op in pool.all_ops(workload):
            ops.setdefault(op.key, op)
    inputs = os.path.join(WORK_DIR, f"golden-{os.getpid()}")
    golden = {}
    try:
        for op, argv in pool.materialize(list(ops.values()), inputs, seed=0):
            child = measure.run_child(cli_argv(argv), env, ROOT)
            weights, records = work_counts(op, child)
            golden[op.key] = {
                "exit": child.exit, "sha256": child.digest,
                "weights": weights, "records": records,
            }
            print(f"{child.exit} {weights:>5} {records:>5}  {op.key}", file=sys.stderr)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"pool_version": pool.POOL_VERSION, "ops": golden}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
