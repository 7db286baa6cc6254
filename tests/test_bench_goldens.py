"""Every op of the benchmark pool against its record in bench/golden.json.

The benchmark fails a run whose exit code or stdout sha256 differs from the
golden record of any op it draws, and it draws from all 234 ops of its three
workloads.  This runs each of them once, in process: the op's germ file is
written into a temporary directory and `semistable.cli.main` runs with
stdout captured.  Nothing under bench/ is written.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from semistable.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
try:
    import pool
finally:
    sys.path.remove(str(BENCH))

GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


def test_golden_file_is_for_this_pool():
    assert GOLDEN["pool_version"] == pool.POOL_VERSION
    keys = {op.key for workload in pool.WORKLOADS for op in pool.all_ops(workload)}
    assert keys == set(GOLDEN["ops"])


@pytest.mark.parametrize("workload", sorted(pool.WORKLOADS))
def test_every_op_matches_its_golden_record(workload, tmp_path):
    mismatches = []
    pairs = pool.materialize(pool.all_ops(workload), str(tmp_path), seed=0)
    for op, argv in pairs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        expected = GOLDEN["ops"][op.key]
        if (code, digest) != (expected["exit"], expected["sha256"]):
            mismatches.append(f"{op.key}: exit {code}, sha256 {digest[:12]}")
    assert not mismatches
