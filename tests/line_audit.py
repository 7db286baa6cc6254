"""Line audit: the executable lines of src/semistable/ that the tier-1 suite never runs.

Run from anywhere, with pytest and hypothesis installed:

    python tests/line_audit.py

It runs the tier-1 suite in this process under `sys.settrace`, recording
only frames whose code lives in src/semistable/, and compares the lines
that never ran with ALLOWED below.  A line is executable when a code
object of its module maps an instruction to it (`code.co_lines()`).  Every
unreached line must be listed with the reason it stays unreached, and
every listed line must still be unreached; either mismatch fails the run
(exit 1), as does a failing test.  Entries are keyed by file and stripped
source text, not by line number, so edits elsewhere in a file keep them
valid.  Only the standard library traces: there is no coverage package.

The runtime gates are deselected (GATES): tracing slows every traced line,
so `admissible_weights_T(5, 2, 1, 160)` takes about 1 s against its 0.5 s
budget.  The gates run untraced in tier-1, and no budget is loosened here.
Tests that start a child process (`python -m semistable.cli`, the demos)
run it untraced, so what only a child runs is listed as such.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semistable"

GATES = (
    "tests/test_acceptance.py",
    "tests/test_integer_kernel.py::test_scan_runtime_budget",
)

TYPING = "TYPE_CHECKING import: never runs"
CHILD = "only a child process runs it (subprocess test)"

# module file -> stripped source line -> why the suite never runs it
ALLOWED: dict[str, dict[str, str]] = {
    "cli.py": {
        "from .contractions import ContractionRecord": TYPING,
        "from .germs import GermSpec": TYPING,
        "from .resolution import DualGraph": TYPING,
        "devnull = os.open(os.devnull, os.O_WRONLY)": CHILD,
        "os.dup2(devnull, sys.stdout.fileno())": CHILD,
        "return EXIT_BROKEN_PIPE": CHILD,
        "sys.exit(main())": CHILD,
    },
}


def executable_lines(path: Path) -> set[int]:
    """Line numbers that some code object of the module maps an instruction to."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on args, recording the lines run in each file of the package."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set())
        return local

    sys.settrace(scope)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), reached


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))  # traced from its first import on
    args = ["-q", "-p", "no:cacheprovider", "tests"]
    for gate in GATES:
        args += ["--deselect", gate]
    status, reached = run_traced(args)

    unreached: dict[tuple[str, str], list[int]] = {}
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - reached.get(str(path), set())):
            unreached.setdefault((path.name, source[line - 1].strip()), []).append(line)

    count = sum(len(lines) for lines in unreached.values())
    print(f"\nline audit: {count} of {total} executable lines in src/semistable/ never ran")
    print(f"deselected runtime gates (tracing slows them past their budgets): {', '.join(GATES)}")
    allowed = {(name, text) for name, texts in ALLOWED.items() for text in texts}
    new = sorted(unreached.keys() - allowed, key=lambda key: (key[0], unreached[key]))
    stale = sorted(allowed - unreached.keys())
    for name, text in new:
        lines = ",".join(map(str, unreached[name, text]))
        print(f"NEW unreached line {name}:{lines}: {text}")
    for name, text in stale:
        print(f"STALE allowlist entry, the line runs or is gone: {name}: {text}")
    if status != 0:
        print(f"the traced test run failed (pytest exit {status})")
    return 1 if new or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
