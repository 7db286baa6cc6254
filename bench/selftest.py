"""Tests of the benchmark's own machinery (not of semistable).

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

The file name keeps it out of the repository's default pytest collection.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import types
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402
import pool  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        tracer.enter("a.outer")           # t=0
        clock.now = 1.0
        tracer.enter("b.inner")           # t=1
        clock.now = 4.0
        tracer.exit()                     # inner: 3 s
        clock.now = 5.0
        tracer.enter("b.inner")           # t=5
        clock.now = 6.0
        tracer.exit()                     # inner: 1 s
        clock.now = 10.0
        tracer.exit()                     # outer: 10 s total, 6 s self
        self.assertEqual(tracer.calls("b.inner"), 2)
        self.assertAlmostEqual(tracer.self_s("b.inner"), 4.0)
        self.assertAlmostEqual(tracer.stats["a.outer"].total_s, 10.0)
        self.assertAlmostEqual(tracer.self_s("a.outer"), 6.0)
        self.assertAlmostEqual(tracer.layer_self_s("a") + tracer.layer_self_s("b"), 10.0)

    def test_wrapped_calls_count_through_exceptions(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def inner():
            clock.now += 2.0
            raise ValueError("boom")

        wrapped_inner = tracer.wrap("b.inner", inner)

        def outer():
            clock.now += 1.0
            try:
                wrapped_inner()
            except ValueError:
                pass
            clock.now += 1.0

        tracer.wrap("a.outer", outer)()
        self.assertAlmostEqual(tracer.self_s("a.outer"), 2.0)
        self.assertAlmostEqual(tracer.self_s("b.inner"), 2.0)
        self.assertEqual(tracer.calls("b.inner"), 1)


def _fake_package():
    """fakepkg.alpha defines f; the package and fakepkg.beta rebind it by name."""
    pkg = types.ModuleType("fakepkg")
    alpha = types.ModuleType("fakepkg.alpha")
    beta = types.ModuleType("fakepkg.beta")
    exec("def f(x):\n    return x + 1\n\ndef _hidden():\n    return 0\n", alpha.__dict__)
    exec("def g(x):\n    return f(x) * 2\n", beta.__dict__)
    beta.f = alpha.f
    pkg.alpha = alpha.f  # the package attribute shadows the module name
    return {"fakepkg": pkg, "fakepkg.alpha": alpha, "fakepkg.beta": beta}


class InstallTest(unittest.TestCase):
    def setUp(self):
        self.modules = _fake_package()
        sys.modules.update(self.modules)

    def tearDown(self):
        for name in self.modules:
            sys.modules.pop(name, None)

    def test_patches_every_namespace_and_restores(self):
        alpha, beta, pkg = (self.modules[n] for n in ("fakepkg.alpha", "fakepkg.beta", "fakepkg"))
        original = alpha.f
        tracer = Tracer(package="fakepkg", layers=("alpha", "beta", "gone"))
        tracer.install()
        try:
            self.assertEqual(beta.g(1), 4)
            self.assertEqual(pkg.alpha(1), 2)
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.calls("beta.g"), 1)
        self.assertEqual(tracer.calls("alpha.f"), 2)  # via beta's binding and the package's
        self.assertEqual(tracer.calls("alpha._hidden"), 0)
        self.assertEqual(tracer.calls("gone.anything"), 0)  # a removed layer reads zero
        self.assertIs(alpha.f, original)
        self.assertIs(beta.f, original)
        self.assertIs(pkg.alpha, original)


class PercentileTest(unittest.TestCase):
    def test_percentile_interpolates(self):
        data = list(range(1, 101))
        self.assertEqual(measure.percentile(data, 50), 50.5)
        self.assertAlmostEqual(measure.percentile(data, 90), 90.1)
        self.assertEqual(measure.percentile([7.0], 90), 7.0)
        self.assertEqual(measure.percentile([3, 1, 2], 0), 1)
        self.assertEqual(measure.percentile([3, 1, 2], 100), 3)

    def test_sample_count_rule(self):
        # samples strictly above the interpolated percentile value
        self.assertEqual(measure.samples_beyond(100, 90), 10)
        self.assertEqual(measure.samples_beyond(91, 90), 9)  # p90 is exactly the 82nd value
        self.assertTrue(measure.tail_ok(92, 90))
        self.assertFalse(measure.tail_ok(91, 90))
        self.assertTrue(measure.tail_ok(20, 50))
        self.assertFalse(measure.tail_ok(19, 50))
        data = list(range(92))
        beyond = sum(x > measure.percentile(data, 90) for x in data)
        self.assertEqual(beyond, measure.samples_beyond(len(data), 90))

    def test_speed_gauge_scales_by_adjacent_readings(self):
        readings = iter([2 * measure.GAUGE_NOMINAL_S, 2 * measure.GAUGE_NOMINAL_S,
                         measure.GAUGE_NOMINAL_S, measure.GAUGE_NOMINAL_S])
        speed = measure.SpeedGauge(gauge=lambda: next(readings))
        self.assertAlmostEqual(speed.adjust(1.0), 0.5)   # host at half speed
        self.assertAlmostEqual(speed.adjust(1.0), 2 / 3)  # readings 2x and 1x
        self.assertAlmostEqual(speed.adjust(1.0), 1.0)   # back at nominal speed

    def test_importtime_sums_top_level_entries(self):
        stderr = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | _io",
            "import time:       200 |        300 |   semistable.errors",
            "import time:       400 |       1500 | semistable",
            "import time:       500 |        500 | semistable.cli",
            "import time:        50 |         50 | semistablex",
        ])
        self.assertEqual(measure.importtime_ms(stderr, "semistable"), 2.0)


class FakeCli:
    """Stands in for semistable.cli: prints per argv, returns a chosen exit code."""

    def __init__(self, outputs):
        self.outputs = outputs

    def main(self, argv):
        text, code = self.outputs[argv[0]]
        print(text, end="")
        return code


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.golden = {
            "ok": {"exit": 0, "sha256": _digest("right\n"), "weights": 3, "records": 1},
            "bad-out": {"exit": 0, "sha256": _digest("right\n"), "weights": 0, "records": 0},
            "bad-exit": {"exit": 2, "sha256": _digest(""), "weights": 0, "records": 0},
        }

    def _pairs(self, *keys):
        return [(pool.Op(k, (k,), None), [k]) for k in keys]

    def test_corrupted_stdout_and_wrong_exit_fail(self):
        cli = FakeCli({"ok": ("right\n", 0), "bad-out": ("wrong\n", 0), "bad-exit": ("", 0),
                       "unknown": ("", 0)})
        checker = run.Checker(self.golden)
        _, nbytes = run._in_process_pass(cli, self._pairs("ok", "bad-out", "bad-exit", "unknown"), checker)
        self.assertEqual(checker.attempted, 4)
        self.assertEqual(len(checker.failures), 3)
        self.assertTrue(checker.failures[0].startswith("bad-out: stdout digest"))
        self.assertTrue(checker.failures[1].startswith("bad-exit: exit 0, expected 2"))
        self.assertTrue(checker.failures[2].startswith("unknown: no golden record"))
        self.assertEqual(nbytes, len("right\n") + len("wrong\n"))

    def test_library_exception_counts_as_failed(self):
        class Raising:
            def main(self, argv):
                raise AssertionError("internal invariant")

        checker = run.Checker(self.golden)
        run._in_process_pass(Raising(), self._pairs("ok"), checker)
        self.assertEqual(checker.failures, ["ok: exit 1, expected 0"])

    def test_child_process_digest_and_exit(self):
        child = measure.run_child(["-c", "import sys; print('hi'); sys.exit(3)"], dict(os.environ), ".")
        self.assertEqual(child.exit, 3)
        self.assertEqual(child.digest, _digest("hi\n"))
        self.assertGreater(child.maxrss_kb, 0)
        checker = run.Checker({"x": {"exit": 0, "sha256": child.digest}})
        checker.check(pool.Op("x", ("x",), None), child.exit, child.digest)
        self.assertEqual(len(checker.failures), 1)


class PoolTest(unittest.TestCase):
    def test_draw_is_seeded_and_covered_by_goldens(self):
        golden = run.load_golden()
        for workload in pool.WORKLOADS:
            first = pool.draw(workload, 5)
            self.assertEqual(first, pool.draw(workload, 5))
            self.assertEqual(len(first), len(pool.WORKLOADS[workload]))
            for op in pool.all_ops(workload):
                self.assertIn(op.key, golden)

    def test_benchmark_json_matches_the_runner(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path, encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(pool.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
