"""In-memory span recorder that wraps the program's public functions.

Nothing inside ``src/`` is instrumented. Instead, :class:`Probes` swaps a
timing wrapper in at the names the program's callers resolve at call time
(a module global such as ``repro.ml.linear.stepwise.fit_ols``, a package
attribute such as ``repro.core.run_sampled_dse``, or a class attribute
such as ``JobSpool.claim``) and restores the originals on exit.

Each wrapped call records one span: name, start, end, parent span and the
request id current when it opened. Spans stay in memory and are written
out once, at the end. A span's *self* time is its duration minus that of
its direct children; a layer's *busy* time counts only its outermost
spans, so a layer that re-enters itself is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

__all__ = ["Tracer", "Probe", "Probes"]

#: ``hook(tracer, args, kwargs, result)`` runs after a wrapped call returns
#: and may add to the tracer's counts.
ResultHook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Spans and counts of one traced run, kept in flat lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self.outer: list[bool] = []
        self.counts: Counter[str] = Counter()
        self.request_id = 0
        self._stack: list[int] = []
        self._depth: Counter[int] = Counter()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        nid = self._intern(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.outer.append(self._depth[nid] == 0)
        self.end.append(0.0)
        self._depth[nid] += 1
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name_id[i]] -= 1

    def span(self, name: str) -> "_SpanCtx":
        return _SpanCtx(self, name)

    def wrap(self, name: str, fn: Callable, hook: ResultHook | None = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``.

        A generator function does its work while it is iterated, after the
        call returns, so its output is drawn inside the span and handed on
        as an iterator over the drawn items.
        """
        lazy = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if lazy:
                    result = iter(list(result))
            finally:
                self.close(i)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- analysis ------------------------------------------------------------

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        dur = np.asarray(self.end) - np.asarray(self.start)
        nid = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        child_sum = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child_sum, parent[has_parent], dur[has_parent])
        return dur, nid, dur - child_sum, np.asarray(self.outer, dtype=bool)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: ``{"busy_s", "self_s", "count"}``."""
        if not self.start:
            return {}
        dur, nid, self_t, outer = self._arrays()
        n = len(self.names)
        busy = np.bincount(nid, weights=np.where(outer, dur, 0.0), minlength=n)
        own = np.bincount(nid, weights=self_t, minlength=n)
        count = np.bincount(nid, minlength=n)
        return {name: {"busy_s": float(busy[k]), "self_s": float(own[k]),
                       "count": int(count[k])}
                for k, name in enumerate(self.names)}

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (name, start, end, parent, request)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            for i, nid in enumerate(self.name_id):
                fh.write(json.dumps({
                    "span": i, "name": self.names[nid], "parent": self.parent[i],
                    "request": self.request[i],
                    "start_s": round(self.start[i] - t0, 9),
                    "end_s": round(self.end[i] - t0, 9)}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


class _SpanCtx:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.i = -1

    def __enter__(self) -> "_SpanCtx":
        self.i = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc: object) -> None:
        self.tracer.close(self.i)


class Probe:
    """One wrap point: ``owner.attr`` (module or class) recorded as ``span``."""

    def __init__(self, owner: Any, attr: str, span: str,
                 hook: ResultHook | None = None) -> None:
        self.owner = owner
        self.attr = attr
        self.span = span
        self.hook = hook


class Probes:
    """Context manager that installs probes on enter and restores on exit."""

    def __init__(self, tracer: Tracer, probes: Iterable[Probe]) -> None:
        self.tracer = tracer
        self.probes = list(probes)
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> Tracer:
        for p in self.probes:
            # Class attributes are read from __dict__ so staticmethods and
            # plain functions are restored exactly as they were.
            original = (p.owner.__dict__[p.attr] if isinstance(p.owner, type)
                        else getattr(p.owner, p.attr))
            self._saved.append((p.owner, p.attr, original))
            setattr(p.owner, p.attr,
                    self.tracer.wrap(p.span, getattr(p.owner, p.attr), p.hook))
        return self.tracer

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
