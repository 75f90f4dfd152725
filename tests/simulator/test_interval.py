"""Tests for the interval-analysis CPI model (the fast sweep path)."""

import numpy as np
import pytest

from repro.parallel import SerialExecutor
from repro.simulator.config import enumerate_design_space
from repro.simulator.interval import (
    DEFAULT_LATENCIES,
    Latencies,
    evaluate_config,
    sweep_design_space,
)
from repro.simulator.workloads import get_profile


@pytest.fixture(scope="module")
def configs():
    return list(enumerate_design_space())


def _find(configs, **want):
    for c in configs:
        if all(getattr(c, k) == v for k, v in want.items()):
            return c
    raise AssertionError(f"no config with {want}")


class TestLatencies:
    def test_l2_latency_grows_with_size(self):
        lat = Latencies()
        assert lat.l2_latency(1024 * 1024) > lat.l2_latency(256 * 1024)

    def test_hierarchy_ordering(self):
        lat = DEFAULT_LATENCIES
        assert lat.l2_latency(256 * 1024) < lat.l3 < lat.memory


class TestEvaluateConfig:
    def test_breakdown_sums_to_total(self, configs):
        r = evaluate_config(configs[0], get_profile("gcc"))
        total = r.base_cpi + r.icache_cpi + r.dcache_cpi + r.branch_cpi + r.tlb_cpi
        assert r.cpi == pytest.approx(total)

    def test_cycles_scale_with_instructions(self, configs):
        p = get_profile("applu")
        a = evaluate_config(configs[0], p, n_instructions=1_000)
        b = evaluate_config(configs[0], p, n_instructions=2_000)
        assert b.cycles == pytest.approx(2 * a.cycles)

    def test_rejects_nonpositive_instructions(self, configs):
        with pytest.raises(ValueError):
            evaluate_config(configs[0], get_profile("gcc"), n_instructions=0)

    def test_cpi_positive_and_sane(self, configs):
        for app in ("applu", "gcc", "mcf"):
            r = evaluate_config(configs[0], get_profile(app))
            assert 0.1 < r.cpi < 20.0


class TestParameterDirections:
    """Each Table-1 axis must move CPI in the physically right direction."""

    def test_perfect_predictor_fastest(self, configs):
        base = dict(l1d_size=32 * 1024, l1i_size=32 * 1024, l1d_line=32,
                    l2_size=256 * 1024, l2_assoc=4, l3_size=0, width=4,
                    issue_wrongpath=False, itlb_size=256 * 1024)
        p = get_profile("gcc")
        cpis = {
            bp: evaluate_config(_find(configs, branch_predictor=bp, **base), p).cpi
            for bp in ("perfect", "combining", "2level", "bimodal")
        }
        assert cpis["perfect"] < cpis["combining"] <= cpis["2level"] < cpis["bimodal"]

    def test_l3_helps_mcf_substantially(self, configs):
        base = dict(l1d_size=32 * 1024, l1i_size=32 * 1024, l1d_line=32,
                    l2_size=1024 * 1024, l2_assoc=4, branch_predictor="bimodal",
                    width=4, issue_wrongpath=False, itlb_size=256 * 1024)
        p = get_profile("mcf")
        without = evaluate_config(_find(configs, l3_size=0, **base), p).cpi
        with_l3 = evaluate_config(_find(configs, l3_size=8 * 1024 * 1024, **base), p).cpi
        assert with_l3 < without * 0.6

    def test_bigger_l1i_helps_gcc(self, configs):
        base = dict(l1d_size=32 * 1024, l1d_line=32, l2_size=256 * 1024,
                    l2_assoc=4, l3_size=0, branch_predictor="bimodal",
                    width=4, issue_wrongpath=False, itlb_size=256 * 1024)
        p = get_profile("gcc")
        small = evaluate_config(_find(configs, l1i_size=16 * 1024, **base), p)
        big = evaluate_config(_find(configs, l1i_size=64 * 1024, **base), p)
        assert big.icache_cpi < small.icache_cpi

    def test_wider_machine_lowers_base_cpi(self, configs):
        base = dict(l1d_size=32 * 1024, l1i_size=32 * 1024, l1d_line=32,
                    l2_size=256 * 1024, l2_assoc=4, l3_size=0,
                    branch_predictor="perfect", issue_wrongpath=False,
                    itlb_size=256 * 1024)
        p = get_profile("applu")
        narrow = evaluate_config(_find(configs, width=4, **base), p)
        wide = evaluate_config(_find(configs, width=8, **base), p)
        assert wide.base_cpi <= narrow.base_cpi

    def test_bigger_tlbs_reduce_tlb_cpi(self, configs):
        base = dict(l1d_size=32 * 1024, l1i_size=32 * 1024, l1d_line=32,
                    l2_size=256 * 1024, l2_assoc=4, l3_size=0,
                    branch_predictor="bimodal", width=4, issue_wrongpath=False)
        p = get_profile("mcf")
        small = evaluate_config(_find(configs, itlb_size=256 * 1024, **base), p)
        large = evaluate_config(_find(configs, itlb_size=1024 * 1024, **base), p)
        assert large.tlb_cpi < small.tlb_cpi


class TestSweep:
    def test_full_space_shape(self, configs):
        cyc = sweep_design_space(configs, get_profile("applu"))
        assert cyc.shape == (4608,)
        assert np.all(cyc > 0)

    def test_serial_executor_matches_plain(self, configs):
        sub = configs[:32]
        p = get_profile("gcc")
        plain = sweep_design_space(sub, p)
        with SerialExecutor() as ex:
            via_ex = sweep_design_space(sub, p, executor=ex)
        assert np.array_equal(plain, via_ex)

    def test_deterministic(self, configs):
        p = get_profile("mesa")
        a = sweep_design_space(configs[:64], p)
        b = sweep_design_space(configs[:64], p)
        np.testing.assert_array_equal(a, b)
