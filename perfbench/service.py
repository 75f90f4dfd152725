"""The service workload, driven through a live ``repro serve --workers 1``.

``svc_backlog`` submits a burst of distinct single-slice sweep jobs to a
spool, then boots one worker on it and waits for the worker to drain
them. No spec repeats, so dedup and the result cache are bypassed; the
spool log grows to the full backlog, and every submit and claim folds all
of it. The burst is paced at a fixed rate, so the generator's lag can be
reported, and lands before the daemon starts, so the depth each submit
sees depends on the seed's job count alone and not on how far a worker
racing it has got.

The gated figures are CPU time scaled to the reference host (see
``perfbench/calib.py``): the service's own CPU, read from
``RUSAGE_CHILDREN`` once it has exited, and the client's CPU per submit.
The daemons inherit the one CPU ``run.py`` pins the benchmark to, so the
host-clock passes timed in this process run on the core the worker runs
on. Wall-clock drain rate and submit latency are printed beside them.

The request stream is generated here from the seed alone, never by the
program. Every job result is compared with the library computing the
same spec in this process. The traced run replays the same stream against
an in-process :class:`repro.service.worker.Worker` stepped through
``run_once`` with the probes installed; it measures busy time and counts,
not queueing.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

import repro.simulator as simulator
from repro.cache.result_cache import default_cache
from repro.errors import ServiceOverloadError
from repro.ml.preprocess import raw_matrix_cache
from repro.obs.aggregate import read_spool_events
from repro.obs.slo import fold_job_timings
from repro.service import (
    JobSpec,
    JobSpool,
    SpoolConfig,
    Worker,
    WorkerConfig,
    poll_jobs,
    submit_job,
)

from perfbench.calib import HostClock, children_cpu_s
from perfbench.report import RunResult, peak_rss_mib, traced_pass
from perfbench.stats import median, percentile, summarize
from perfbench.tracer import Tracer

__all__ = ["run_backlog", "backlog_specs"]

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_out"

BOOTS = 3                 # measured boot-and-stop cycles per run
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0

#: Jobs per second of run budget, configs per job, and the burst's
#: submission pace.
BACKLOG_PER_S = 5
BACKLOG_SUBMIT_RATE = 60.0
BACKLOG_SLICE = 16
BACKLOG_POLL_S = 0.1

N_CONFIGS = simulator.DESIGN_SPACE_SIZE


# -- request stream ------------------------------------------------------------

def backlog_specs(seed: int, seconds: float) -> list[JobSpec]:
    """Distinct single-slice sweep jobs for the svc_backlog burst."""
    rng = np.random.default_rng([seed, 2])
    n = max(1, round(BACKLOG_PER_S * seconds))
    per_app = N_CONFIGS // BACKLOG_SLICE
    apps = simulator.PRESENTED_APPS
    picks = rng.choice(per_app * len(apps), size=n, replace=False)
    return [JobSpec(kind="sweep", app=apps[int(p) // per_app],
                    start=int(p) % per_app * BACKLOG_SLICE,
                    stop=int(p) % per_app * BACKLOG_SLICE + BACKLOG_SLICE)
            for p in picks]


# -- the live service ----------------------------------------------------------

class LiveService:
    """One ``repro serve --workers 1`` process on a spool directory."""

    def __init__(self, root: Path, max_depth: int) -> None:
        self.root = root
        self.max_depth = max_depth
        self.proc: subprocess.Popen | None = None

    def boot(self) -> float:
        """Start the daemon; seconds until its worker's first heartbeat."""
        self.root.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        log = open(self.root.parent / f"{self.root.name}.serve.log", "ab")
        t_wall = time.time()
        t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--spool", str(self.root),
                 "--workers", "1", "--max-depth", str(self.max_depth)],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log)
        finally:
            log.close()
        hb_dir = self.root / "hb"
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited early (code {self.proc.returncode})")
            if hb_dir.is_dir() and any(
                    hb.get("t", 0.0) >= t_wall
                    for hb in JobSpool.open(self.root).heartbeats().values()):
                return time.perf_counter() - t0
            if time.perf_counter() - t0 > BOOT_TIMEOUT_S:
                raise RuntimeError("repro serve did not become ready")
            time.sleep(0.005)

    def stop(self) -> int:
        """Drain the daemon (SIGTERM) and wait for it; kill it if it hangs."""
        proc, self.proc = self.proc, None
        if proc is None:
            return 0
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            return proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -9


def _boot_cycles(run_dir: Path, max_depth: int
                 ) -> tuple[list[tuple[float, float, float]], list[float], list[int]]:
    """Boot and stop BOOTS daemons on fresh spools.

    Returns each daemon's CPU seconds from start to exit (its own and its
    worker's, read once it has been waited for) with the wall times the
    cycle began and ended, the wall seconds each took to become ready, and
    each one's exit code.
    """
    cycles, wall, codes = [], [], []
    for i in range(BOOTS):
        svc = LiveService(run_dir / f"boot{i}", max_depth)
        c0, t0 = children_cpu_s(), time.perf_counter()
        try:
            wall.append(svc.boot())
        finally:
            codes.append(svc.stop())
        cycles.append((children_cpu_s() - c0, t0, time.perf_counter()))
    return cycles, wall, codes


def _run_dir(name: str) -> Path:
    path = OUT / f"run-{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- oracle --------------------------------------------------------------------

class Oracle:
    """Every sweep spec computed by the library in this process."""

    def __init__(self) -> None:
        self._configs = list(simulator.enumerate_design_space())
        self._cycles: dict[tuple[str, int], np.ndarray] = {}

    def matches(self, spec: JobSpec, result: Any) -> bool:
        key = (spec.app, spec.n_instructions)
        if key not in self._cycles:
            self._cycles[key] = simulator.sweep_design_space(
                self._configs, simulator.get_profile(spec.app),
                n_instructions=spec.n_instructions)
        want = self._cycles[key][spec.start:spec.stop]
        return np.array_equal(np.asarray(result["cycles"]), want)


def _check_results(result: RunResult, root: Path, jids: dict[str, JobSpec]) -> None:
    spool = JobSpool.open(root)
    oracle = Oracle()
    wrong = [jid[:12] for jid, spec in jids.items()
             if not oracle.matches(spec, spool.result(jid))]
    result.check("every job result equals the in-process library result", not wrong,
                 f"{len(jids)} distinct jobs compared" + (f"; wrong: {wrong}" if wrong else ""))


def _spool_timings(root: Path, observed: dict[str, float]) -> dict[str, float]:
    """Queue wait, execute and notice medians from the spool's own stamps."""
    events, _ = read_spool_events(root)
    waits, execs, notices = [], [], []
    for jid, jt in fold_job_timings(events).items():
        if jt.submit_t is None or not jt.lease_ts or jt.terminal != "done":
            continue
        waits.append(min(jt.lease_ts) - jt.submit_t)
        execs.append(jt.terminal_t - max(jt.lease_ts))
        if jid in observed:
            notices.append(observed[jid] - jt.terminal_t)
    return {"service.queue_wait_p50_s": median(waits) if waits else 0.0,
            "service.execute_p50_s": median(execs) if execs else 0.0,
            "service.notice_p50_s": median(notices) if notices else 0.0}


def _phase_line(phase: str, counts: dict[str, int]) -> str:
    return f"phase {phase}: " + ", ".join(f"{k} {v}" for k, v in counts.items())


# -- svc_backlog ---------------------------------------------------------------

def run_backlog(seed: int, seconds: float, trace: bool) -> RunResult:
    run_dir = _run_dir("svc_backlog")
    try:
        return _backlog(run_dir, seed, seconds, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _backlog(run_dir: Path, seed: int, seconds: float, trace: bool) -> RunResult:
    specs = backlog_specs(seed, seconds)
    svc = LiveService(run_dir / "spool", max_depth=len(specs) + 8)
    submits: list[tuple[float, float, float]] = []  # (CPU s, wall start, end)
    lags: list[float] = []
    jids: dict[str, JobSpec] = {}
    shed = 0
    with HostClock() as clock:
        boots, boot_wall, boot_codes = _boot_cycles(run_dir, len(specs) + 8)

        # The burst fills the spool before its daemon starts, so the k-th
        # submit folds exactly the k jobs before it, however fast the host.
        JobSpool.ensure(svc.root, SpoolConfig(max_depth=len(specs) + 8))
        t_start = time.perf_counter()
        for k, spec in enumerate(specs):
            due = t_start + k / BACKLOG_SUBMIT_RATE
            time.sleep(max(0.0, due - time.perf_counter()))
            c0, t0 = clock.cpu(), time.perf_counter()
            lags.append(t0 - due)
            try:
                jid = submit_job(str(svc.root), spec)
            except ServiceOverloadError:
                shed += 1
                continue
            submits.append((clock.cpu() - c0, t0, time.perf_counter()))
            jids[jid] = spec
        t_burst = time.perf_counter() - t_start

        cpu0 = children_cpu_s()
        try:
            t_boot = time.perf_counter()
            svc.boot()
            done, failed, first_seen = _await_all(svc.root, list(jids), seconds)
            t_drain = time.perf_counter() - t_boot
        finally:
            rc = svc.stop()
        service_cpu = children_cpu_s() - cpu0
        t_end = time.perf_counter()
    rss = peak_rss_mib(resource.RUSAGE_CHILDREN)

    n = len(specs)
    timed_out = len(jids) - done - failed
    bad = failed + shed + timed_out
    result = RunResult(
        setup_s=[clock.ref(*b) for b in boots],
        throughput_per_cpu_s=done / clock.ref(service_cpu, t_boot, t_end),
        throughput_what="backlog jobs drained per reference CPU second of the "
                        "service (boot on the filled spool to exit)",
        op_cpu_s=[clock.ref(*sub) for sub in submits] or [float("nan")],
        op_what="client CPU per submit as the backlog grows to full depth",
        latencies_s=[t1 - t0 for _, t0, t1 in submits] or [float("nan")],
        peak_rss_mib=rss, attempted=n, failed=bad,
        kernel_s=clock.kernel_s(t_start, t_end))
    sub = summarize(result.latencies_s)
    timings = _spool_timings(svc.root, first_seen)
    result.named = {
        "submit_p50_ms": sub["p50"] * 1e3, f"submit_p{sub['tail_q']:.1f}_ms": sub["tail"] * 1e3,
        "drain_jobs_per_s": done / t_drain, "burst_s": t_burst, "jobs": n,
        "service_cpu_s": service_cpu, "boot_wall_s": median(boot_wall),
        "gen_lag_p95_s": percentile(lags, 95),
        **timings}
    result.notes.append(_phase_line("burst", {"sent": n - shed, "shed": shed}))
    result.notes.append(_phase_line("drain", {"done": done, "failed": failed,
                                              "timed out": timed_out}))
    result.check("services exited cleanly", rc == 0 and not any(boot_codes),
                 f"exit codes: boots {boot_codes}, run {rc}")
    result.check("every submitted job ended done", bad == 0,
                 f"{bad} of {n} failed, shed or timed out")
    result.check("no spec was deduplicated", len(jids) == n - shed)
    _check_results(result, svc.root, jids)
    log_bytes = (svc.root / "spool.jsonl").stat().st_size
    if trace:
        extra = dict(timings)
        extra["service.spool.log_bytes"] = log_bytes
        extra["bench.gen_lag_p95_s"] = result.named["gen_lag_p95_s"]
        _traced_replay(result, run_dir, specs, extra)
    return result


def _await_all(root: Path, jids: list[str], seconds: float
               ) -> tuple[int, int, dict[str, float]]:
    """Poll until every job is terminal (or a generous timeout passes)."""
    deadline = time.time() + max(60.0, 6 * seconds)
    first_seen: dict[str, float] = {}
    failed: set[str] = set()
    while time.time() < deadline:
        views = poll_jobs(str(root), jids)
        now = time.time()
        for jid, view in views.items():
            if view.state == "done":
                first_seen.setdefault(jid, now)
            elif view.state == "failed":
                failed.add(jid)
        if len(first_seen) + len(failed) == len(jids):
            break
        time.sleep(BACKLOG_POLL_S)
    return len(first_seen), len(failed), first_seen


# -- traced replay -------------------------------------------------------------

def _replay(root: Path, specs: list[JobSpec], tracer: Tracer | None = None) -> None:
    """Submit all of ``specs`` to an in-process worker, then step it to idle."""
    spool = JobSpool.ensure(root, SpoolConfig(max_depth=len(specs) + 8))
    worker = Worker(WorkerConfig(root=str(root), name="replay"), spool=spool)
    jids = []
    for k, spec in enumerate(specs):
        if tracer is not None:
            tracer.request_id = k + 1
        jids.append(submit_job(str(root), spec))
    while worker.run_once():
        pass
    poll_jobs(str(root), jids)


def _traced_replay(result: RunResult, run_dir: Path, specs: list[JobSpec],
                   extra: dict[str, float]) -> None:
    raw_matrix_cache().clear()
    t0 = time.perf_counter()
    _replay(run_dir / "replay-untraced", specs)
    untraced_wall = time.perf_counter() - t0
    traced_pass(result, "bench.svc_backlog",
                lambda tracer: _replay(run_dir / "replay-traced", specs, tracer),
                untraced_wall, extra)
    # The replay's Worker installed a fresh process-wide result cache.
    stats = default_cache().stats()
    hits = stats.memory_hits + stats.disk_hits
    lookups = stats.memory_hits + stats.memory_misses
    result.layer_extra["cache.result.hit_ratio"] = hits / lookups if lookups else 0.0
