"""The repository benchmark: one command, three workloads, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dse_nn --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``dse_nn``      -- sampled DSE, NN-E/NN-S/LR-B (perfbench/batch.py)
* ``chrono_lr``   -- chronological prediction, four LR models (perfbench/batch.py)
* ``svc_backlog`` -- a burst of distinct sweep jobs drained by one
  ``repro serve`` worker (perfbench/service.py)

With ``--trace 0`` the run is untraced and the result line carries the
end-to-end metrics: set-up time, throughput and the median cost of one
operation in CPU seconds scaled to a reference host (perfbench/calib.py),
and peak memory. Wall-clock figures are printed beside them. The run, and
every process it starts, is pinned to one CPU. With
``--trace 1`` the same run is followed by a traced replay (the program's
public functions wrapped from the benchmark's own files) and the result
line carries the per-layer metrics.

The command generates every input from ``--seed``, checks the program's
outputs, prints the figures by name with their units, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``. It exits 1
when an output check fails (the check is printed above the result line)
and 2, with no result line, when the program sources are missing. Full
detail (provenance, layer table, spans) goes under ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_out"

WORKLOADS = ("dse_nn", "chrono_lr", "svc_backlog")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program():
    """Import the program from ``src/``; None when it is not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT))
    from perfbench import batch, service
    return {"dse_nn": batch.run_dse_nn, "chrono_lr": batch.run_chrono_lr,
            "svc_backlog": service.run_backlog}


def _tail(summary: dict) -> str:
    """Label of a :func:`perfbench.stats.summarize` tail, with its sample count."""
    if summary["tail_is_max"]:
        return f"max (n={summary['n']} < 20)"
    return f"p{summary['tail_q']:.1f} (10 of {summary['n']} beyond)"


def _exit_on_sigterm(signum: int, frame: object) -> None:
    # Turn SIGTERM into SystemExit so the finally blocks stop the services
    # this run started before the process goes away.
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    # One CPU for the run and every process it starts, so the host-clock
    # passes (perfbench/calib.py) time the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runners = _import_program()
    if runners is None:
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from perfbench.calib import KERNEL_REF_S
    from perfbench.layers import PER_LAYER, layer_metrics
    from perfbench.provenance import provenance
    from perfbench.report import END_TO_END_UNITS
    from perfbench.stats import summarize

    prov = provenance(ROOT, args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = runners[args.workload](args.seed, args.seconds, bool(args.trace))

    e2e = result.end_to_end()
    op = summarize(result.op_cpu_s)
    lat = summarize(result.latencies_s)
    print(f"  host clock         kernel pass {result.kernel_s * 1e3:.3f} ms CPU, mean; "
          f"reference {KERNEL_REF_S * 1e3:.3f} ms")
    print(f"  setup_s            {e2e['setup_s']:.4f} s   (reference CPU, median of "
          f"{len(result.setup_s)}: {', '.join(f'{s:.4f}' for s in result.setup_s)})")
    print(f"  throughput_per_cpu_s {e2e['throughput_per_cpu_s']:.4f} 1/s  "
          f"({result.throughput_what})")
    print(f"  op_cpu_p50_ms      {e2e['op_cpu_p50_ms']:.3f} ms  (n={op['n']}; reference "
          f"CPU; {result.op_what}); {_tail(op)} {op['tail'] * 1e3:.3f} ms")
    print(f"  op wall p50        {lat['p50'] * 1e3:.3f} ms  (not gated); "
          f"{_tail(lat)} {lat['tail'] * 1e3:.3f} ms; max {lat['max'] * 1e3:.3f} ms")
    print(f"  peak_rss_mib       {e2e['peak_rss_mib']:.2f} MiB")
    for name, value in result.named.items():
        print(f"  {name:<18} {value:.6g}")
    print(f"  failed_frac        {result.failed / max(1, result.attempted):.6g}  "
          f"({result.failed} of {result.attempted})")
    for note in result.notes:
        print("\n".join("  " + line for line in note.splitlines()))
    for name, ok, detail in result.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))

    if args.trace:
        layers = layer_metrics(result.tracer, result.layer_extra)
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps({
        "provenance": prov, "kernel_cpu_s": result.kernel_s,
        "workload": args.workload, "metrics": metrics,
        "named": result.named, "checks": result.checks,
        "attempted": result.attempted, "failed": result.failed}, indent=2) + "\n")
    if result.tracer is not None:
        result.tracer.dump(OUT / f"spans-{args.workload}.jsonl")

    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
