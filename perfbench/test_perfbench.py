"""Tests of the benchmark's own statistics, tracer, host clock and inputs.

Run from the repository root::

    PYTHONPATH=src:. python3 -m pytest -q perfbench
"""

from __future__ import annotations

import random
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.stats import median, percentile, summarize, tail_rank  # noqa: E402
from perfbench.tracer import Probe, Probes, Tracer  # noqa: E402


def test_tail_never_exceeds_observed_max_on_skewed_sample():
    rng = random.Random(7)
    # Heavy right tail: most samples near 10 ms, a few up to seconds.
    samples = [0.01 * rng.paretovariate(1.2) for _ in range(500)]
    summary = summarize(samples)
    assert summary["tail_q"] == pytest.approx(98.0)
    assert summary["p50"] <= summary["tail"] <= max(samples)
    for q in (50, 90, 95, 99, 99.9, 100):
        assert percentile(samples, q) <= max(samples)
        assert percentile(samples, q) in samples


def test_nearest_rank_values():
    xs = list(range(1, 101))
    assert percentile(xs, 95) == 95
    assert percentile(xs, 100) == 100
    assert percentile(xs, 1) == 1
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2  # lower middle


def test_tail_leaves_ten_samples_beyond():
    for n in (20, 37, 60, 200, 1000):
        xs = list(range(n))
        q = tail_rank(n)
        assert q is not None
        assert sum(1 for x in xs if x > percentile(xs, q)) == 10


def test_small_samples_report_the_max():
    xs = [5.0, 1.0, 3.0]
    summary = summarize(xs)
    assert summary["tail_is_max"] and summary["tail"] == 5.0
    assert tail_rank(19) is None


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_self_time_and_busy_time():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            time.sleep(0.01)
            with tracer.span("a"):  # re-entry: not counted twice as busy
                time.sleep(0.01)
        with tracer.span("b"):
            time.sleep(0.01)
    table = tracer.layers()
    assert table["a"]["count"] == 2
    assert table["a"]["busy_s"] >= 0.02
    assert table["a"]["busy_s"] < table["root"]["busy_s"]
    total_self = sum(row["self_s"] for row in table.values())
    assert total_self == pytest.approx(table["root"]["busy_s"], rel=1e-9)


def test_probes_wrap_and_restore():
    mod = types.SimpleNamespace(f=lambda x: x + 1)

    class K:
        def g(self, x):
            return mod.f(x) * 2

    original_f, original_g = mod.f, K.__dict__["g"]
    tracer = Tracer()

    def hook(t, args, kwargs, result):
        t.counts["g.results"] += result

    with Probes(tracer, [Probe(mod, "f", "f"), Probe(K, "g", "g", hook)]):
        assert K().g(1) == 4
    assert mod.f is original_f and K.__dict__["g"] is original_g
    table = tracer.layers()
    assert table["f"]["count"] == 1 and table["g"]["count"] == 1
    assert tracer.counts["g.results"] == 4
    assert tracer.parent[tracer.name_id.index(tracer.names.index("f"))] == 0


def test_generator_work_is_timed_inside_its_span():
    def slow_items():
        for k in range(3):
            time.sleep(0.01)
            yield k

    tracer = Tracer()
    assert list(tracer.wrap("gen", slow_items)()) == [0, 1, 2]
    assert tracer.layers()["gen"]["busy_s"] >= 0.03


def test_span_closes_when_the_call_raises():
    tracer = Tracer()
    boom = tracer.wrap("boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        boom()
    assert tracer.end[0] >= tracer.start[0] and not tracer._stack


def test_generated_backlog_depends_only_on_the_seed():
    from perfbench.service import backlog_specs

    assert backlog_specs(3, 15) == backlog_specs(3, 15)
    assert backlog_specs(3, 15) != backlog_specs(4, 15)
    specs = backlog_specs(3, 15)
    assert len(set(specs)) == len(specs) == 75


def test_host_clock_samples_the_kernel_and_leaves_it_out_of_cpu_time():
    import signal

    from perfbench.calib import KERNEL_REF_S, HostClock

    before = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        c0, p0 = clock.cpu(), time.process_time()
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            pass
        busy, total = clock.cpu() - c0, time.process_time() - p0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 5
    # The loop's CPU time excludes the passes the timer ran inside it.
    assert total - busy == pytest.approx(sum(c for _, c in clock.samples), abs=1e-3)


def test_host_clock_scales_by_the_passes_near_an_operation():
    from perfbench.calib import KERNEL_REF_S, PAD_S, HostClock

    clock = HostClock()
    clock.samples = [(0.0, 0.002), (1.0, 0.004), (1.1, 0.008), (5.0, 0.001)]
    assert clock.kernel_s(1.0, 1.05) == pytest.approx(0.006)
    assert clock.ref(0.3, 1.0, 1.05) == pytest.approx(0.3 * KERNEL_REF_S / 0.006)
    assert clock.kernel_s() == pytest.approx(0.015 / 4)
    # Nothing within PAD_S: the next pass stands in, or the last one.
    assert clock.kernel_s(2.0, 2.0 + PAD_S) == 0.001
    assert clock.kernel_s(9.0, 9.5) == 0.001
