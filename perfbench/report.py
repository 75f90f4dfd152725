"""What one workload run hands back to the command, and shared measurements."""

from __future__ import annotations

import hashlib
import json
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.ml.preprocess import raw_matrix_cache

from perfbench.layers import PROBES
from perfbench.stats import median
from perfbench.tracer import Probes, Tracer

__all__ = ["RunResult", "END_TO_END_UNITS", "digest", "peak_rss_mib", "closure",
           "closure_report", "traced_pass", "CLOSURE_TOLERANCE"]

#: The traced run's layer self times must cover at least this share of the
#: traced wall time; the rest is reported by name as unaccounted.
CLOSURE_TOLERANCE = 0.05


@dataclass
class RunResult:
    """End-to-end figures of one untraced run, plus what the checks found.

    Every gated time is CPU seconds on the reference host (see
    ``perfbench/calib.py``); the wall-clock figures of the same run are
    printed beside them under ``named``.
    """

    #: Reference CPU seconds of each set-up (or service boot) in the run.
    setup_s: list[float]
    #: Completed work items (fits or jobs) per reference CPU second.
    throughput_per_cpu_s: float
    throughput_what: str
    #: Reference CPU seconds of each operation, and what one operation is.
    op_cpu_s: list[float]
    op_what: str
    #: Wall-clock latency of each operation, printed beside the CPU figures.
    latencies_s: list[float]
    peak_rss_mib: float
    attempted: int
    failed: int
    #: Median CPU seconds of one host-clock kernel pass in this run.
    kernel_s: float = 0.0
    #: (check name, passed, detail)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    #: Workload-specific figures printed under their own names.
    named: dict[str, float] = field(default_factory=dict)
    #: Per-layer values the traced run adds (trace mode only).
    layer_extra: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None
    notes: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def end_to_end(self) -> dict[str, float]:
        """The gated metrics, keyed as BENCHMARK.json names them."""
        return {
            "setup_s": median(self.setup_s),
            "throughput_per_cpu_s": self.throughput_per_cpu_s,
            "op_cpu_p50_ms": median(self.op_cpu_s) * 1e3,
            "peak_rss_mib": self.peak_rss_mib,
        }


#: Unit of each gated metric.
END_TO_END_UNITS = {"setup_s": "s", "throughput_per_cpu_s": "1/s",
                    "op_cpu_p50_ms": "ms", "peak_rss_mib": "MiB"}


def digest(obj: Any) -> str:
    """Order-stable content digest (floats enter by their exact repr)."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def peak_rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def closure(tracer: Tracer, root: str, traced_wall_s: float) -> dict[str, Any]:
    """How much of the traced wall time the layer spans account for.

    Everything inside a layer span (other than the root span the benchmark
    opens around the whole traced pass) counts as accounted. The remainder
    is the root's own self time (the benchmark's loop) plus the time
    outside the root span, both reported by name.
    """
    table = tracer.layers()
    accounted = sum(v["self_s"] for k, v in table.items() if k != root)
    root_row = table.get(root, {"busy_s": 0.0, "self_s": 0.0})
    remainder = {
        f"{root} (benchmark loop, self)": root_row["self_s"],
        "outside the root span": max(0.0, traced_wall_s - root_row["busy_s"]),
    }
    frac = 1.0 - accounted / traced_wall_s if traced_wall_s > 0 else 1.0
    return {"unaccounted_frac": frac, "remainder_s": remainder,
            "ok": frac <= CLOSURE_TOLERANCE, "table": table}


def closure_report(clo: dict, traced_wall: float, untraced_wall: float) -> str:
    """Layer table plus the named unaccounted remainder, for printing."""
    lines = [f"traced wall {traced_wall:.3f} s, untraced wall {untraced_wall:.3f} s, "
             f"overhead {traced_wall - untraced_wall:+.3f} s",
             f"{'layer':<28} {'busy_s':>10} {'self_s':>10} {'count':>9}"]
    for layer, row in sorted(clo["table"].items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{layer:<28} {row['busy_s']:>10.4f} {row['self_s']:>10.4f} "
                     f"{row['count']:>9d}")
    for what, secs in clo["remainder_s"].items():
        lines.append(f"unaccounted: {what}: {secs:.4f} s")
    lines.append(f"unaccounted share {clo['unaccounted_frac']:.4f} "
                 f"(tolerance {'met' if clo['ok'] else 'EXCEEDED'})")
    return "\n".join(lines)


def traced_pass(result: RunResult, root: str, replay: Callable[[Tracer], None],
                untraced_wall: float, extra: dict[str, float]) -> None:
    """Run ``replay`` once more with the probes installed.

    ``untraced_wall`` is the wall time of the same work without probes;
    the difference is the tracing overhead. Stores the tracer, the closure
    check and the per-layer figures spans cannot give on ``result``.
    """
    tracer = Tracer()
    matrix = raw_matrix_cache()
    matrix.clear()
    hits0, misses0 = matrix.hits, matrix.misses
    with Probes(tracer, PROBES):
        t0 = time.perf_counter()
        with tracer.span(root):
            replay(tracer)
        traced_wall = time.perf_counter() - t0
    lookups = (matrix.hits - hits0) + (matrix.misses - misses0)
    clo = closure(tracer, root, traced_wall)
    result.tracer = tracer
    result.check("closure: unaccounted <= tolerance", clo["ok"],
                 f"unaccounted {clo['unaccounted_frac']:.4f}")
    result.layer_extra = {
        **extra,
        "ml.preprocess.matrix_hit_ratio":
            (matrix.hits - hits0) / lookups if lookups else 0.0,
        "bench.trace_overhead_pct": (traced_wall - untraced_wall) / untraced_wall * 100,
        "bench.unaccounted_frac": clo["unaccounted_frac"],
    }
    result.notes.append(closure_report(clo, traced_wall, untraced_wall))
