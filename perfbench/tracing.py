"""Per-layer spans around the public functions of the ``qclock`` modules.

The tracer wraps every function named in a layer module's ``__all__`` (for
``qclock.cli``, which has no ``__all__``, its entry point ``main``) and
installs the wrapper in every loaded ``qclock`` module namespace that binds
the function, so calls between modules and calls through the package
namespace are both seen. Nothing in the library is edited; ``remove``
restores the original bindings.

Each span records its duration, the part of it not covered by child spans
(self time) and the ``tracemalloc`` peak above the memory in use when it
started, which covers NumPy allocations.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

PACKAGE = "qclock"
LAYERS = ("states", "cost", "solver", "measurement", "sim", "cli")


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    peak_mb: float = 0.0
    extra: dict = field(default_factory=dict)


@dataclass
class _Frame:
    start: float
    base: int
    peak: int
    children_s: float = 0.0


def _max_into(attribute, key):
    def observe(stats, args, result):
        value = getattr(result, attribute, None)
        if value is not None:
            stats.extra[key] = max(stats.extra.get(key, value), value)
    return observe


def _count_samples(stats, args, result):
    samples = getattr(args[0], "samples", None) if args else None
    if samples is not None:
        stats.extra["samples"] = stats.extra.get("samples", 0) + samples


# Layer-specific quantities read from arguments or results.
OBSERVERS = {
    "cost.cost_matrix": _max_into("bandwidth", "bandwidth_max"),
    "solver.smallest_eigenpair": _max_into("residual_norm", "residual_max"),
    "sim.run_simulation": _count_samples,
}


def public_functions() -> dict[str, object]:
    """``{"<layer>.<name>": function}`` for every traced function."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        names = getattr(module, "__all__", ("main",))
        for name in names:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Installs timing wrappers and accumulates per-function statistics."""

    def __init__(self):
        self.stats: dict[str, FunctionStats] = {}
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for key, fn in public_functions().items():
            self.stats[key] = FunctionStats()
            wrappers[id(fn)] = self._wrap(key, fn)
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        tracemalloc.start()

    def remove(self) -> None:
        tracemalloc.stop()
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, key, fn):
        stats = self.stats[key]
        observe = OBSERVERS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(stats, frame)
            if observe is not None:
                observe(stats, args, result)
            return result

        return wrapper

    def _enter(self) -> _Frame:
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            parent = self._stack[-1]
            parent.peak = max(parent.peak, peak)
        tracemalloc.reset_peak()
        frame = _Frame(time.perf_counter(), current, current)
        self._stack.append(frame)
        return frame

    def _exit(self, stats: FunctionStats, frame: _Frame) -> None:
        elapsed = time.perf_counter() - frame.start
        peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
        self._stack.pop()
        stats.calls += 1
        stats.total_s += elapsed
        stats.self_s += elapsed - frame.children_s
        stats.peak_mb = max(stats.peak_mb, (peak - frame.base) / 1e6)
        if self._stack:
            parent = self._stack[-1]
            parent.children_s += elapsed
            parent.peak = max(parent.peak, peak)
        tracemalloc.reset_peak()

    def flat(self) -> dict[str, float]:
        """Statistics as ``{"<layer>.<name>.<quantity>": value}``."""
        out = {}
        for key, s in self.stats.items():
            out[f"{key}.calls"] = float(s.calls)
            out[f"{key}.self_s"] = s.self_s
            out[f"{key}.total_s"] = s.total_s
            out[f"{key}.peak_mb"] = s.peak_mb
            for name, value in s.extra.items():
                out[f"{key}.{name}"] = float(value)
        return out
