"""The two batch workloads: sampled DSE with neural networks, chronological LR.

``dse_nn`` is the Figures 2-6 unit: :func:`repro.core.run_sampled_dse`
with NN-E, NN-S and LR-B and 5 x 50% holdout on the full 4,608-point
design space. Its cells take a 1% sample (46 rows) of each of the five
presented applications in turn. NN training does most of the work; the
simulator runs only in set-up.

``chrono_lr`` is the Figures 7-8 unit restricted to the four linear
models: :func:`repro.core.run_chronological` over all seven families of
several generated record archives. Stepwise OLS and encoding do the work
and no neural network is trained, so an NN change should not move it.

A cell is one workflow call. Cells run in a fixed order and a run stops
once the time budget is spent. chrono_lr stops only at the end of a cycle
(one cell per family), so every run weighs each family alike; the cost
of a dse_nn cell depends on its drawn sample far more than on its app, and
its cells are long, so it stops at the first cell end. A cell that comes
round again must reproduce its first result exactly; a run too short for
any cell to come round re-runs its first cell, untimed, to check that.

Set-ups and cells are timed in CPU seconds and scaled to the reference
host by the :class:`perfbench.calib.HostClock` kernel passes timed during
the set-ups and during the cells respectively.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Callable

import numpy as np

import repro.core as core
import repro.simulator as simulator
import repro.specdata as specdata
from repro.ml.preprocess import raw_matrix_cache

from perfbench.calib import HostClock
from perfbench.report import RunResult, digest, peak_rss_mib, traced_pass
from perfbench.stats import median
from perfbench.tracer import Tracer

__all__ = ["run_dse_nn", "run_chrono_lr"]

SETUP_REPEATS = 5
CV_REPS = 5

#: (app, sampling rate) of the dse_nn cells, in turn: 46 sampled rows each.
DSE_CELLS = tuple((app, 0.01) for app in simulator.PRESENTED_APPS)
DSE_MODELS = ("NN-E", "NN-S", "LR-B")
#: Distinct samples drawn per app before cells repeat: how long NN
#: training runs depends on the sample, so a run averages over all it
#: has time for.
DSE_DRAWS = 4

CHRONO_MODELS = ("LR-E", "LR-S", "LR-B", "LR-F")
#: Record archives generated in set-up; chrono_lr cells cycle through
#: every family of every archive.
CHRONO_ARCHIVES = 3


# -- dse_nn --------------------------------------------------------------------

def _dse_setup(seed: int) -> dict[str, Any]:
    configs = list(simulator.enumerate_design_space())
    apps = sorted({app for app, _ in DSE_CELLS})
    return {app: simulator.design_space_dataset(
        configs, simulator.sweep_design_space(configs, simulator.get_profile(app)))
        for app in apps}


def _dse_cell(state: dict[str, Any], seed: int, j: int) -> tuple[str, float, int]:
    """Run distinct cell ``j``; returns (digest, select error %, fits)."""
    app, rate = DSE_CELLS[j % len(DSE_CELLS)]
    builders = core.model_builders(DSE_MODELS, seed=seed * 1000 + j)
    rng = np.random.default_rng([seed, j])
    res = core.run_sampled_dse(state[app], builders, rate, rng, n_cv_reps=CV_REPS)
    body = {label: [list(o.estimate.per_rep), o.true_error]
            for label, o in res.outcomes.items()}
    body["select"] = res.select_label
    return digest(body), res.select_true_error, len(builders) * (CV_REPS + 1)


def _dse_setup_digest(state: dict[str, Any]) -> str:
    return digest({app: ds.target.tolist() for app, ds in state.items()})


def run_dse_nn(seed: int, seconds: float, trace: bool) -> RunResult:
    return _run_cells("dse_nn", seed, seconds, trace, _dse_setup, _dse_setup_digest,
                      _dse_cell, n_distinct=DSE_DRAWS * len(DSE_CELLS),
                      cycle=1,
                      cell_what="sampled-DSE cell (3 models, 5x50% holdout + deploy)")


# -- chrono_lr -----------------------------------------------------------------

def _chrono_setup(seed: int) -> list[dict[str, list]]:
    return [{fam: specdata.generate_family_records(fam, seed=seed * 100 + a)
             for fam in specdata.FAMILY_ORDER}
            for a in range(CHRONO_ARCHIVES)]


def _chrono_setup_digest(state: list[dict[str, list]]) -> str:
    return digest([{fam: [(r.year, r.specint_rate) for r in recs]
                    for fam, recs in archive.items()} for archive in state])


def _chrono_cell(state: list[dict[str, list]], seed: int, j: int) -> tuple[str, float, int]:
    """Run distinct cell ``j``; returns (digest, chosen model's error %, fits)."""
    n_fam = len(specdata.FAMILY_ORDER)
    archive, family = j // n_fam, specdata.FAMILY_ORDER[j % n_fam]
    builders = core.model_builders(CHRONO_MODELS)
    res = core.run_chronological(family, builders, seed=seed * 100 + archive,
                                 records=state[archive][family], n_cv_reps=CV_REPS)
    chosen = min(res.estimates, key=lambda m: res.estimates[m].max)
    body = {m: [list(res.estimates[m].per_rep), res.errors[m].mean, res.errors[m].std]
            for m in res.errors}
    return digest(body), res.errors[chosen].mean, len(builders) * (CV_REPS + 1)


def run_chrono_lr(seed: int, seconds: float, trace: bool) -> RunResult:
    return _run_cells("chrono_lr", seed, seconds, trace, _chrono_setup,
                      _chrono_setup_digest, _chrono_cell,
                      n_distinct=CHRONO_ARCHIVES * len(specdata.FAMILY_ORDER),
                      cycle=len(specdata.FAMILY_ORDER),
                      cell_what="chronological family run (4 LR models, "
                                "5x50% holdout + deploy)")


# -- shared cell loop ----------------------------------------------------------

Cell = Callable[[Any, int, int], tuple[str, float, int]]


def _run_cells(name: str, seed: int, seconds: float, trace: bool,
               setup: Callable[[int], Any], setup_digest: Callable[[Any], str],
               cell: Cell, n_distinct: int, cycle: int, cell_what: str) -> RunResult:
    # Set-ups and cells as (CPU s, wall start, wall end), scaled at the end.
    setups: list[tuple[float, float, float]] = []
    cells: list[tuple[float, float, float]] = []
    with HostClock() as clock:
        setup_digests = []
        for _ in range(SETUP_REPEATS):
            c0, t0 = clock.cpu(), time.perf_counter()
            state = setup(seed)
            setups.append((clock.cpu() - c0, t0, time.perf_counter()))
            setup_digests.append(setup_digest(state))

        raw_matrix_cache().clear()
        digests: dict[int, str] = {}
        errors: dict[int, float] = {}
        fits = failed = 0
        mismatches: list[int] = []
        t_start = time.perf_counter()
        k = 0
        while True:
            j = k % n_distinct
            c0, t0 = clock.cpu(), time.perf_counter()
            try:
                d, err, n_fits = cell(state, seed, j)
            except Exception:  # a failed cell is counted and shown, never hidden
                failed += 1
                print(f"  cell {k} failed (traceback on stderr)")
                traceback.print_exc()
            else:
                cells.append((clock.cpu() - c0, t0, time.perf_counter()))
                fits += n_fits
                if j in digests and digests[j] != d:
                    mismatches.append(k)
                digests.setdefault(j, d)
                errors.setdefault(j, err)
            k += 1
            if time.perf_counter() - t_start >= seconds and k % cycle == 0:
                break
        t_end = time.perf_counter()
    if k <= n_distinct and 0 in digests:
        # Nothing came round within the budget: repeat the first cell.
        try:
            if cell(state, seed, 0)[0] != digests[0]:
                mismatches.append(k)
        except Exception:
            failed += 1
            print("  repeat of cell 0 failed (traceback on stderr)")
            traceback.print_exc()
        k_repeats = 1
    else:
        k_repeats = k - len(digests)
    cell_ref = [clock.ref(*c) for c in cells]
    cell_wall = [t1 - t0 for _, t0, t1 in cells]
    setup_wall = [t1 - t0 for _, t0, t1 in setups]
    result = RunResult(
        setup_s=[clock.ref(*s) for s in setups],
        throughput_per_cpu_s=fits / sum(cell_ref) if cell_ref else 0.0,
        throughput_what="model fits (holdout reps + deployments) per reference CPU second",
        op_cpu_s=cell_ref or [float("nan")],
        op_what=cell_what,
        latencies_s=cell_wall or [float("nan")],
        peak_rss_mib=peak_rss_mib(),
        attempted=k, failed=failed, kernel_s=clock.kernel_s(t_start, t_end))
    result.named = {"fits_per_s": fits / sum(cell_wall) if cell_wall else 0.0,
                    "fits": fits,
                    "select_err_pct": float(np.mean(list(errors.values())))
                    if errors else float("nan"),
                    "setup_wall_s": median(setup_wall),
                    "cells": k, "distinct_cells": len(digests)}
    result.check("set-up repeats give identical inputs", len(set(setup_digests)) == 1)
    result.check("repeated cells reproduce their digests", not mismatches,
                 f"mismatching cells: {mismatches}" if mismatches else
                 f"{k_repeats} repeat(s) compared")
    result.check("no cell failed", failed == 0, f"{failed} failed")

    if trace:
        untraced_wall = median(setup_wall) + sum(cell_wall)
        _traced_pass(result, name, seed, setup, cell, k, n_distinct, digests,
                     untraced_wall)
    return result


def _traced_pass(result: RunResult, name: str, seed: int, setup: Callable[[int], Any],
                 cell: Cell, n_cells: int, n_distinct: int, digests: dict[int, str],
                 untraced_wall: float) -> None:
    """Replay set-up plus the same cells under the probes."""
    mismatches = []

    def replay(tracer: Tracer) -> None:
        state = setup(seed)
        for k in range(n_cells):
            tracer.request_id = k + 1
            d, _, _ = cell(state, seed, k % n_distinct)
            if digests.get(k % n_distinct, d) != d:
                mismatches.append(k)

    traced_pass(result, f"bench.{name}", replay, untraced_wall,
                {"ml.selection.select_err_pct": result.named["select_err_pct"]})
    result.check("traced cells reproduce the untraced digests", not mismatches,
                 f"mismatching cells: {mismatches}" if mismatches else "")
