"""Batched design-space evaluation: bit-identity against the scalar oracle."""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.parallel import (
    CheckpointJournal,
    ProcessExecutor,
    ResilientExecutor,
    SerialExecutor,
)
from repro.simulator import (
    BatchResult,
    ConfigBlock,
    evaluate_config,
    evaluate_design_space_batch,
    get_profile,
    pack_design_space,
    sweep_design_space,
)
from repro.simulator.interval import SWEEP_CHUNK, _miss, sweep_tasks
from repro.simulator.workloads import SPEC2000_PROFILES


class TestPackDesignSpace:
    def test_round_trip_columns(self, design_space):
        block = pack_design_space(design_space)
        assert block.n_configs == len(design_space)
        assert len(block) == len(design_space)
        for i in (0, 17, len(design_space) - 1):
            cfg = design_space[i]
            assert block.l1d_size[i] == cfg.l1d_size
            assert block.width[i] == cfg.width
            assert block.fu_fpmult[i] == cfg.fu_fpmult
            assert bool(block.issue_wrongpath[i]) == cfg.issue_wrongpath

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pack_design_space([])

    def test_slice_is_zero_copy_view(self, design_space):
        block = pack_design_space(design_space)
        part = block.slice(100, 200)
        assert part.n_configs == 100
        assert part.l1d_size.base is block.l1d_size
        assert np.array_equal(part.width, block.width[100:200])

    def test_mismatched_column_lengths_rejected(self, design_space):
        block = pack_design_space(design_space[:4])
        cols = block.to_arrays()
        cols["width"] = cols["width"][:2]
        with pytest.raises(ValueError, match="width"):
            ConfigBlock(**cols)


class TestBatchBitIdentity:
    def test_full_space_matches_scalar_oracle_every_profile(self, design_space):
        """The headline guarantee: np.array_equal over all 4608 configs."""
        for app in sorted(SPEC2000_PROFILES):
            profile = get_profile(app)
            _miss.cache_clear()
            batch = evaluate_design_space_batch(design_space, profile)
            scalar = np.array(
                [evaluate_config(c, profile).cycles for c in design_space])
            assert np.array_equal(batch, scalar), f"batch diverged for {app}"

    def test_components_match_scalar_fields(self, design_space):
        profile = get_profile("mcf")
        subset = design_space[::97]
        result = evaluate_design_space_batch(subset, profile, components=True)
        assert isinstance(result, BatchResult)
        for i, cfg in enumerate(subset):
            ref = evaluate_config(cfg, profile)
            for f in dataclasses.fields(ref):
                got = getattr(result, f.name)
                want = getattr(ref, f.name)
                if f.name == "n_instructions":
                    assert got == want
                else:
                    assert got[i] == want, (f.name, cfg.short_label())

    def test_accepts_prepacked_block(self, design_space):
        profile = get_profile("gzip")
        subset = design_space[:32]
        via_block = evaluate_design_space_batch(pack_design_space(subset), profile)
        via_list = evaluate_design_space_batch(subset, profile)
        assert np.array_equal(via_block, via_list)

    def test_n_instructions_scales_cycles(self, design_space):
        profile = get_profile("applu")
        subset = design_space[:8]
        small = evaluate_design_space_batch(subset, profile, n_instructions=1_000)
        ref = [evaluate_config(c, profile, n_instructions=1_000).cycles
               for c in subset]
        assert np.array_equal(small, np.array(ref))

    def test_invalid_n_instructions_rejected(self, design_space):
        with pytest.raises(ValueError, match="n_instructions"):
            evaluate_design_space_batch(design_space[:2], get_profile("gcc"),
                                        n_instructions=0)


class TestSweepMethods:
    def test_batch_and_scalar_methods_agree(self, design_space):
        profile = get_profile("swim")
        subset = design_space[:64]
        batch = sweep_design_space(subset, profile)
        scalar = [evaluate_config(c, profile).cycles for c in subset]
        assert np.array_equal(batch, scalar)

    def test_empty_configs(self):
        out = sweep_design_space([], get_profile("gcc"))
        assert out.shape == (0,)
        assert out.dtype == np.float64


class TestExecutorSweep:
    """The executor path: SWEEP_CHUNK-config batch tasks, bit for bit."""

    N = 3 * SWEEP_CHUNK + 8  # three full chunks and a partial one

    def test_chunks_cover_space_in_order(self, design_space):
        profile = get_profile("gcc")
        tasks = sweep_tasks(design_space[:self.N], profile, 1_000)
        assert [len(t[0]) for t in tasks] == [SWEEP_CHUNK] * 3 + [8]
        assert [c for t in tasks for c in t[0]] == design_space[:self.N]
        assert all(t[1] is profile and t[2] == 1_000 for t in tasks)

    @pytest.mark.parametrize("make", [
        SerialExecutor,
        lambda: ProcessExecutor(max_workers=2),
    ], ids=["serial", "process"])
    def test_executor_matches_serial_batch(self, design_space, make):
        profile = get_profile("mcf")
        subset = design_space[:self.N]
        plain = sweep_design_space(subset, profile)
        with make() as ex:
            via_ex = sweep_design_space(subset, profile, executor=ex)
        assert np.array_equal(via_ex, plain)

    def test_journaled_resilient_matches_serial_batch(self, design_space, tmp_path):
        profile = get_profile("art")
        subset = design_space[:self.N]
        plain = sweep_design_space(subset, profile)
        path = tmp_path / "j.jsonl"
        with ResilientExecutor(journal=CheckpointJournal(path)) as ex:
            first = sweep_design_space(subset, profile, executor=ex)
        assert len(path.read_text().splitlines()) == 4  # one record per chunk
        with ResilientExecutor(journal=CheckpointJournal(path, resume=True)) as ex:
            resumed = sweep_design_space(subset, profile, executor=ex)
        assert "restored:4" in ex.events
        assert np.array_equal(first, plain)
        assert np.array_equal(resumed, plain)

    def test_journal_fingerprints_ignore_cpu_count(self, design_space, tmp_path,
                                                   monkeypatch):
        """Chunking is fixed-size, so a checkpoint written on one host
        resumes on another with a different CPU count."""
        profile = get_profile("gcc")
        fingerprints = []
        for cpus in (1, 8):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            path = tmp_path / f"cpus{cpus}.jsonl"
            with ResilientExecutor(journal=CheckpointJournal(path)) as ex:
                sweep_design_space(design_space[:self.N], profile, executor=ex)
            fingerprints.append([json.loads(line)["fp"]
                                 for line in path.read_text().splitlines()])
        assert fingerprints[0] == fingerprints[1]
        assert len(fingerprints[0]) == 4
