"""Opt-in profiling hooks: aggregate cProfile plus wall-clock section timers.

Profiling is a debugging tool, not an always-on metric: a live ``cProfile``
slows Python several-fold, so it must never run unless explicitly requested
(CLI ``--profile`` or :func:`enable_profiling`). When disabled,
:func:`profiled` is a single global read returning a shared no-op context
manager — the same cost discipline as :func:`repro.obs.trace.span`.

When enabled, every instrumented hot path (``sweep``, ``encode``, ``train``,
``predict``, ``holdout``) runs under one shared :class:`cProfile.Profile`
and also accrues a per-section wall-clock total, so the report answers both
"which phase is slow" (sections) and "which *function* is slow" (pstats).
``cProfile`` cannot nest, so a depth counter enables the profiler when the
outermost section enters and disables it only when that section exits.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import threading
import time
from typing import Any

__all__ = [
    "Profiler",
    "disable_profiling",
    "enable_profiling",
    "get_profiler",
    "profiled",
    "profiling_enabled",
]


class _NullSection:
    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SECTION = _NullSection()


class _Section:
    """One live profiled section; updates the owner's totals on exit."""

    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Section":
        self._t0 = time.monotonic()
        self._profiler._enter_profile()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._profiler._exit_profile()
        self._profiler._record(self._name, time.monotonic() - self._t0)
        return False


class Profiler:
    """Aggregates cProfile samples and per-section wall-clock totals."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self._lock = threading.Lock()
        self._depth = 0
        self.sections: dict[str, dict[str, float]] = {}

    def section(self, name: str) -> _Section:
        return _Section(self, name)

    def _enter_profile(self) -> None:
        """Enable cProfile when the outermost section enters."""
        with self._lock:
            self._depth += 1
            if self._depth == 1:
                self._profile.enable()

    def _exit_profile(self) -> None:
        """Disable cProfile when the outermost section exits."""
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                self._profile.disable()

    def _record(self, name: str, seconds: float) -> None:
        with self._lock:
            entry = self.sections.setdefault(name, {"calls": 0, "seconds": 0.0})
            entry["calls"] += 1
            entry["seconds"] += seconds

    def report(self, top: int = 20) -> str:
        """Human-readable report: section wall-clock table + pstats top-N."""
        lines = ["profiled sections (wall-clock):"]
        width = max((len(n) for n in self.sections), default=0)
        for name, entry in sorted(self.sections.items(),
                                  key=lambda kv: -kv[1]["seconds"]):
            lines.append(f"  {name.ljust(width)}  calls={int(entry['calls']):<5d}"
                         f"  total={entry['seconds']:.4f}s")
        buf = io.StringIO()
        stats = pstats.Stats(self._profile, stream=buf)
        stats.sort_stats("cumulative").print_stats(top)
        lines.append(buf.getvalue().rstrip())
        return "\n".join(lines)


_PROFILER: Profiler | None = None


def enable_profiling() -> Profiler:
    """Install (or return) the process-wide profiler."""
    global _PROFILER
    if _PROFILER is None:
        _PROFILER = Profiler()
    return _PROFILER


def disable_profiling() -> None:
    global _PROFILER
    _PROFILER = None


def get_profiler() -> Profiler | None:
    return _PROFILER


def profiling_enabled() -> bool:
    return _PROFILER is not None


def profiled(name: str):
    """Profile a hot section when profiling is on; shared no-op otherwise."""
    profiler = _PROFILER
    if profiler is None:
        return _NULL_SECTION
    return profiler.section(name)
