"""In-process span tracer over the public functions of the semistable modules.

The tracer wraps every public module-level function of each traced module
(a name without a leading underscore, defined in that module) and patches
each namespace that holds it.  A wrapped call is one span; its self time is
its duration minus the time of the wrapped calls it made.  Time spent in
methods, properties and private helpers counts toward the innermost wrapped
function, so a layer's self time is the work done on its behalf.

Three traps are handled here:

* the package namespace rebinds some module names (``semistable.census`` is
  the ``census`` function there), so modules are taken from sys.modules;
* modules bind each other's functions by name (``cli`` holds ``census``,
  ``cover_data``, ``verify_cover`` and ``build_contraction``), so every
  semistable namespace holding a function object gets the wrapper;
* a function that no longer exists simply has no span: ``calls`` reads it
  as zero instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("lattices", "polynomials", "germs", "contractions", "census", "cover", "resolution", "cli")


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Collects calls, total time and self time per ``layer.function`` key."""

    def __init__(self, package: str = "semistable", layers=LAYERS, clock=time.perf_counter):
        self.package = package
        self.layers = layers
        self.clock = clock
        self.stats: dict[str, FunctionStats] = {}
        self._stack: list[list] = []  # [key, start, child time]
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def enter(self, key: str) -> None:
        self._stack.append([key, self.clock(), 0.0])

    def exit(self) -> None:
        key, start, child = self._stack.pop()
        duration = self.clock() - start
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = FunctionStats()
        entry.calls += 1
        entry.total_s += duration
        entry.self_s += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, key: str, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every traced layer in every namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in self.layers:
            name = f"{self.package}.{layer}"
            try:
                importlib.import_module(name)
            except ImportError:
                continue  # a removed module reports no spans
            module = sys.modules[name]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != name:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package or mod_name.startswith(self.package + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.stats.clear()

    # -- readouts ---------------------------------------------------------

    def calls(self, key: str) -> int:
        entry = self.stats.get(key)
        return entry.calls if entry else 0

    def self_s(self, key: str) -> float:
        entry = self.stats.get(key)
        return entry.self_s if entry else 0.0

    def layer_calls(self, layer: str) -> int:
        return sum(e.calls for k, e in self.stats.items() if k.split(".", 1)[0] == layer)

    def layer_self_s(self, layer: str) -> float:
        return sum(e.self_s for k, e in self.stats.items() if k.split(".", 1)[0] == layer)

    def table(self) -> dict:
        return {
            k: {"calls": e.calls, "total_s": e.total_s, "self_s": e.self_s}
            for k, e in sorted(self.stats.items())
        }
