"""Observability: metrics registry, span tracing, and profiling hooks.

``repro.obs`` is the measurement substrate for every layer of the pipeline.
It is deliberately zero-dependency (stdlib only, plus :mod:`repro.util` for
table rendering) so any subsystem — cache, parallel, simulator, ml, cli —
can instrument itself without import cycles.

Three cooperating pieces, each off by default and individually enableable:

* :mod:`repro.obs.metrics` — process-wide :class:`MetricsRegistry` of
  counters/gauges/histograms; exported to JSON (``--metrics-file``) or a
  text table.
* :mod:`repro.obs.trace` — span-based tracing producing a JSONL event
  stream (``--trace-file``) with parent/child nesting, monotonic timings,
  and per-span exception capture; summarized by ``repro obs summarize``.
* :mod:`repro.obs.profiling` — opt-in aggregate ``cProfile`` plus
  wall-clock section timers around the hot paths (``--profile``).

On top of the per-process substrate sits the *service plane* (DESIGN §13):
:mod:`repro.obs.aggregate` merges per-shard trace files and metrics
snapshots into one causally-ordered timeline / summed registry, keyed by
the per-job ``trace_id`` propagated across processes via
:func:`~repro.obs.trace.trace_context`; :mod:`repro.obs.slo` folds spool
events plus worker spans into fixed-bucket latency histograms
(queue-wait, lease-to-start, execute, end-to-end) behind ``repro obs
report``.

Instrumented code uses one primitive::

    from repro.obs import phase

    with phase("sweep", app=profile.name, n_configs=n) as sp:
        cycles = compute()
        sp.set(cache="hit")

:func:`phase` opens a trace span *and* a profiling section under one name.
When neither tracing nor profiling is configured (the default) it returns a
shared no-op context manager — two global reads, no allocation beyond the
keyword dict — so instrumented paths remain bit-identical and within noise
of their uninstrumented wall-clock.
"""

from __future__ import annotations

from typing import Any

from repro.obs import profiling, trace
from repro.obs.aggregate import (
    Timeline,
    aggregate_metrics,
    merge_timeline,
    read_shard_metrics,
    read_shard_traces,
    write_timeline,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    reset_default_registry,
    snapshot_quantile,
)
from repro.obs.profiling import (
    Profiler,
    disable_profiling,
    enable_profiling,
    get_profiler,
    profiled,
    profiling_enabled,
)
from repro.obs.slo import (
    SLO_BUCKETS,
    SLO_METRICS,
    compute_slo,
    compute_slo_for_spool,
    render_slo_report,
    slo_snapshot,
)
from repro.obs.summarize import (
    PhaseSummary,
    TraceSummary,
    phase_rows,
    read_jsonl_tolerant,
    read_trace,
    render_summary,
    summarize_file,
    summarize_trace,
)
from repro.obs.trace import (
    TRACE_SCHEMA,
    Tracer,
    annotate,
    configure,
    current_trace_id,
    get_tracer,
    shutdown,
    span,
    trace_context,
    tracing_enabled,
    validate_record,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "SLO_BUCKETS",
    "SLO_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseSummary",
    "Profiler",
    "TRACE_SCHEMA",
    "Timeline",
    "TraceSummary",
    "Tracer",
    "aggregate_metrics",
    "annotate",
    "compute_slo",
    "compute_slo_for_spool",
    "configure",
    "current_trace_id",
    "default_registry",
    "disable_profiling",
    "enable_profiling",
    "get_profiler",
    "get_tracer",
    "merge_timeline",
    "phase",
    "phase_rows",
    "profiled",
    "profiling_enabled",
    "read_jsonl_tolerant",
    "read_shard_metrics",
    "read_shard_traces",
    "read_trace",
    "render_summary",
    "render_slo_report",
    "reset_default_registry",
    "shutdown",
    "slo_snapshot",
    "snapshot_quantile",
    "span",
    "summarize_file",
    "summarize_trace",
    "trace_context",
    "tracing_enabled",
    "validate_record",
    "write_timeline",
]


class _PhaseContext:
    """Span + profiling section opened together under one phase name."""

    __slots__ = ("_name", "_attrs", "_span_cm", "_section_cm")

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self._name = name
        self._attrs = attrs
        self._span_cm = None
        self._section_cm = None

    def __enter__(self):
        self._span_cm = trace.span(self._name, **self._attrs)
        handle = self._span_cm.__enter__()
        self._section_cm = profiling.profiled(self._name)
        self._section_cm.__enter__()
        return handle

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            self._section_cm.__exit__(exc_type, exc, tb)
        finally:
            self._span_cm.__exit__(exc_type, exc, tb)
        return False


def phase(name: str, **attrs: Any):
    """Open a traced + profiled phase; shared no-op when both are off."""
    if not trace.tracing_enabled() and not profiling.profiling_enabled():
        return trace._NULL_SPAN
    return _PhaseContext(name, attrs)
