"""Profiling hooks: opt-in gating, section totals, nested-section safety."""

from __future__ import annotations

import pstats

from repro.obs import profiling
from repro.obs.profiling import (
    Profiler,
    disable_profiling,
    enable_profiling,
    get_profiler,
    profiled,
    profiling_enabled,
)


def _busy(n: int = 2_000) -> int:
    return sum(i * i for i in range(n))


def _profiled_body() -> int:
    return _busy(100)


class TestGating:
    def test_disabled_by_default(self):
        assert not profiling_enabled()
        assert get_profiler() is None
        assert profiled("sweep") is profiling._NULL_SECTION

    def test_enable_disable_roundtrip(self):
        p = enable_profiling()
        assert profiling_enabled()
        assert enable_profiling() is p  # idempotent
        disable_profiling()
        assert not profiling_enabled()


class TestSections:
    def test_sections_accumulate_calls_and_time(self):
        p = enable_profiling()
        for _ in range(3):
            with profiled("train"):
                _busy()
        entry = p.sections["train"]
        assert entry["calls"] == 3
        assert entry["seconds"] > 0

    def test_nested_sections_do_not_reenable_cprofile(self):
        # cProfile.enable() while already profiling raises; the depth
        # counter must make the inner section a wall-clock-only timer.
        p = enable_profiling()
        with profiled("sweep"):
            with profiled("encode"):
                _busy()
        assert p.sections["sweep"]["calls"] == 1
        assert p.sections["encode"]["calls"] == 1

    def test_every_top_level_section_is_profiled(self):
        # Regression: inner sections never released their depth, so only
        # the first top-level section ever ran under cProfile.
        p = enable_profiling()
        for _ in range(3):
            with profiled("sweep"):
                with profiled("encode"):
                    _profiled_body()
        assert p._depth == 0
        calls = {func[2]: nc for func, (_, nc, *_rest)
                 in pstats.Stats(p._profile).stats.items()}
        assert calls["_profiled_body"] == 3

    def test_exception_still_records_section(self):
        p = enable_profiling()
        try:
            with profiled("train"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert p.sections["train"]["calls"] == 1
        assert not p._depth  # profiler released

    def test_report_lists_sections_and_functions(self):
        enable_profiling()
        with profiled("sweep"):
            _busy()
        report = get_profiler().report(top=5)
        assert "profiled sections" in report
        assert "sweep" in report
        assert "cumulative" in report  # pstats section present

    def test_fresh_profiler_has_no_sections(self):
        assert Profiler().sections == {}
