"""Where the traced run wraps the program, and the per-layer metrics it reports.

Every probe names the attribute the program's callers resolve at call
time, so the wrapper sits on the path every call takes. The per-layer
metric names are the ones listed under ``per_layer`` in BENCHMARK.json;
layers a workload does not touch report 0.
"""

from __future__ import annotations

from typing import Any

import repro.core
import repro.core.chronological
import repro.core.sampled
import repro.ml.linear.stepwise
import repro.ml.nn.methods
import repro.ml.nn.pruning
import repro.simulator
import repro.simulator.interval
import repro.specdata
from repro.cache.result_cache import ResultCache
from repro.ml.linear import LinearRegressionModel
from repro.ml.nn import NeuralNetworkModel
from repro.ml.preprocess import Encoder
from repro.parallel.resilient import CheckpointJournal
from repro.service.spool import JobSpool
from repro.service.worker import Worker

from perfbench.tracer import Probe, Tracer

__all__ = ["PROBES", "PER_LAYER", "layer_metrics"]


def _count_epochs(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["ml.nn.epochs"] += result.epochs_run


def _count_reps(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["ml.selection.holdout_reps"] += len(result.per_rep)


def _count_sweep(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["simulator.configs"] += len(result)


def _count_config(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["simulator.configs"] += 1


PROBES: tuple[Probe, ...] = (
    # core workflows (package attributes: the worker imports them at call time)
    Probe(repro.core, "run_sampled_dse", "core.sampled_dse"),
    Probe(repro.core, "run_chronological", "core.chronological"),
    # ml.selection: both workflows call estimate_error through their own globals
    Probe(repro.core.sampled, "estimate_error", "ml.selection.holdout", _count_reps),
    Probe(repro.core.chronological, "estimate_error", "ml.selection.holdout",
          _count_reps),
    # ml.nn
    Probe(NeuralNetworkModel, "fit", "ml.nn.fit"),
    Probe(NeuralNetworkModel, "predict", "ml.predict"),
    Probe(repro.ml.nn.methods, "train", "ml.nn.train", _count_epochs),
    Probe(repro.ml.nn.pruning, "train", "ml.nn.train", _count_epochs),
    Probe(repro.ml.nn.methods, "prune_network", "ml.nn.prune"),
    # ml.linear
    Probe(LinearRegressionModel, "fit", "ml.linear.fit"),
    Probe(LinearRegressionModel, "predict", "ml.predict"),
    Probe(repro.ml.linear.stepwise, "fit_ols", "ml.linear.ols"),
    # ml.preprocess
    Probe(Encoder, "fit_transform", "ml.preprocess.encode"),
    Probe(Encoder, "transform", "ml.preprocess.encode"),
    # simulator and record generation
    Probe(repro.simulator, "enumerate_design_space", "simulator.enumerate"),
    Probe(repro.simulator, "sweep_design_space", "simulator.sweep", _count_sweep),
    Probe(repro.simulator.interval, "evaluate_config", "simulator.evaluate",
          _count_config),
    Probe(repro.specdata, "generate_family_records", "specdata.generate"),
    # service: spool, worker, journal, result cache
    Probe(JobSpool, "submit", "service.spool.submit"),
    Probe(JobSpool, "jobs", "service.spool.fold"),
    Probe(JobSpool, "claim", "service.spool.claim"),
    Probe(JobSpool, "complete", "service.spool.complete"),
    Probe(JobSpool, "heartbeat", "service.spool.heartbeat"),
    Probe(Worker, "run_once", "service.worker.run_once"),
    Probe(Worker, "execute", "service.execute"),
    Probe(CheckpointJournal, "record", "parallel.journal.record"),
    Probe(ResultCache, "get_or_compute", "cache.result.lookup"),
)

#: Per-layer metric -> unit, in the order BENCHMARK.json lists them.
PER_LAYER: dict[str, str] = {
    "ml.nn.fit_s": "s",
    "ml.nn.fits": "count",
    "ml.nn.train_calls": "count",
    "ml.nn.epochs": "count",
    "ml.nn.us_per_epoch": "us",
    "ml.nn.prune_s": "s",
    "ml.linear.fit_s": "s",
    "ml.linear.fits": "count",
    "ml.linear.ols_calls": "count",
    "ml.linear.us_per_ols": "us",
    "ml.selection.holdout_s": "s",
    "ml.selection.holdout_reps": "count",
    "ml.selection.select_err_pct": "%",
    "ml.preprocess.encode_s": "s",
    "ml.preprocess.matrix_hit_ratio": "ratio",
    "ml.predict_s": "s",
    "simulator.sweep_s": "s",
    "simulator.configs": "count",
    "simulator.enumerate_s": "s",
    "specdata.generate_s": "s",
    "service.spool.submit_s": "s",
    "service.spool.fold_s": "s",
    "service.spool.fold_calls": "count",
    "service.spool.claim_s": "s",
    "service.spool.complete_s": "s",
    "service.spool.log_bytes": "bytes",
    "service.execute_s": "s",
    "parallel.journal.records": "count",
    "parallel.journal.record_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.execute_p50_s": "s",
    "service.notice_p50_s": "s",
    "cache.result.hit_ratio": "ratio",
    "bench.gen_lag_p95_s": "s",
    "bench.trace_overhead_pct": "%",
    "bench.unaccounted_frac": "ratio",
}


def _per(total: float, n: int, scale: float = 1e6) -> float:
    return total / n * scale if n else 0.0


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``extra`` supplies the values the spans cannot give (ratios read from
    cache counters, spool timestamps, closure and overhead figures); any
    metric neither the spans nor ``extra`` cover is 0.
    """
    t = tracer.layers()

    def busy(name: str) -> float:
        return t.get(name, {}).get("busy_s", 0.0)

    def count(name: str) -> int:
        return t.get(name, {}).get("count", 0)

    out = {name: 0.0 for name in PER_LAYER}
    out.update({
        "ml.nn.fit_s": busy("ml.nn.fit"),
        "ml.nn.fits": count("ml.nn.fit"),
        "ml.nn.train_calls": count("ml.nn.train"),
        "ml.nn.epochs": tracer.counts["ml.nn.epochs"],
        "ml.nn.us_per_epoch": _per(busy("ml.nn.train"), tracer.counts["ml.nn.epochs"]),
        "ml.nn.prune_s": busy("ml.nn.prune"),
        "ml.linear.fit_s": busy("ml.linear.fit"),
        "ml.linear.fits": count("ml.linear.fit"),
        "ml.linear.ols_calls": count("ml.linear.ols"),
        "ml.linear.us_per_ols": _per(busy("ml.linear.ols"), count("ml.linear.ols")),
        "ml.selection.holdout_s": busy("ml.selection.holdout"),
        "ml.selection.holdout_reps": tracer.counts["ml.selection.holdout_reps"],
        "ml.preprocess.encode_s": busy("ml.preprocess.encode"),
        "ml.predict_s": busy("ml.predict"),
        "simulator.sweep_s": busy("simulator.sweep") + busy("simulator.evaluate"),
        "simulator.configs": tracer.counts["simulator.configs"],
        "simulator.enumerate_s": busy("simulator.enumerate"),
        "specdata.generate_s": busy("specdata.generate"),
        "service.spool.submit_s": busy("service.spool.submit"),
        "service.spool.fold_s": busy("service.spool.fold"),
        "service.spool.fold_calls": count("service.spool.fold"),
        "service.spool.claim_s": busy("service.spool.claim"),
        "service.spool.complete_s": busy("service.spool.complete"),
        "service.execute_s": busy("service.execute"),
        "parallel.journal.records": count("parallel.journal.record"),
        "parallel.journal.record_s": busy("parallel.journal.record"),
    })
    out.update(extra)
    unknown = set(out) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics outside PER_LAYER: {sorted(unknown)}")
    return {k: float(v) for k, v in out.items()}
