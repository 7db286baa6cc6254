"""Child-process timing, the speed gauge, percentiles, import-time parsing and stamps."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

# A tail percentile is reported with at least this many samples beyond it.
MIN_BEYOND = 10

# The speed gauge: a fixed pure-Python loop.  On an uncontended core of the
# 2-vCPU Intel Xeon host the benchmark was defined on (Python 3.11) it takes
# about GAUGE_NOMINAL_S, so adjusted times there read like plain wall times.
GAUGE_LOOPS = 30000
GAUGE_NOMINAL_S = 0.0015


@dataclass(frozen=True)
class Child:
    wall_s: float
    exit: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def gauge_s() -> float:
    """Wall time of the gauge loop: how fast the host runs this process now."""
    start = time.perf_counter()
    total = 0
    for i in range(GAUGE_LOOPS):
        total += i * i
    return time.perf_counter() - start


class SpeedGauge:
    """Scales a wall time to the host's nominal speed.

    Shared hosts slow every process alike, in episodes of seconds to minutes
    (+45% seen, CPU time tracking wall time).  The gauge loop is read before
    and after each measured interval; the interval is scaled by
    GAUGE_NOMINAL_S over the mean of the two readings.
    """

    def __init__(self, gauge=gauge_s):
        self.gauge = gauge
        self.last = gauge()

    def adjust(self, wall_s: float) -> float:
        now = self.gauge()
        factor = GAUGE_NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        return wall_s * factor


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not old else src + os.pathsep + old
    return env


def run_child(args: list[str], env: dict, cwd: str) -> Child:
    """Run ``python args...`` to completion; wall time and peak RSS via wait4."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=err,
            stdin=subprocess.DEVNULL, env=env, cwd=cwd,
        )
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(wall, proc.returncode, out, err.read(), usage.ru_maxrss)


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between order statistics."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly beyond the q-th percentile order statistic."""
    return n - 1 - int((n - 1) * q / 100)


def tail_ok(n: int, q: float) -> bool:
    """Whether a q-th percentile of n samples has at least MIN_BEYOND samples beyond it."""
    return samples_beyond(n, q) >= MIN_BEYOND


def importtime_ms(stderr: str, package: str) -> float:
    """Cumulative import time of a package's top-level entries in ``-X importtime`` output."""
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        name = fields[2]
        stripped = name.strip()
        top_level = name.startswith(" ") and not name.startswith("  ")
        if top_level and (stripped == package or stripped.startswith(package + ".")):
            total_us += int(fields[1])
    return total_us / 1000


def git_sha(root: str) -> str:
    """HEAD of the repository at root, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def stamp(root: str, workload: str, seed: int, pool_version: int, trace: int) -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "workload": workload,
        "seed": seed,
        "pool_version": pool_version,
        "trace": trace,
    }

