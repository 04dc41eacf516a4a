"""Differential suite: fused cycle accounting vs the observe path.

Cycle fusion (``docs/performance.md``) compiles AIE/DOE accounting
into translated superblock plans.  The contract is *bitwise* equality
with the per-instruction ``observe`` path — not approximation — so
every test here runs the same workload with ``fuse_cycles=True`` and
with ``fuse_cycles=False`` (or under a profiler or a checkpoint
resume, which take the observe path) and requires the one equivalence
rule (``docs/validation.md``) to hold: every observable, cycles, and
the model's full ``save_state()``.
"""

from __future__ import annotations

import pytest

from repro.cycles.doe import DoeModel
from repro.framework.pipeline import run
from repro.programs import program_names
from repro.telemetry import HotspotProfiler

from .conftest import (
    BENCHMARKS,
    CAP,
    HIERARCHIES,
    assert_equivalent,
    built_benchmark,
    run_cell,
)


def differential_pair(name, kind, hierarchy):
    """(observed, fused) superblock runs of one matrix cell."""
    return (run_cell(name, "superblock", kind, hierarchy, fuse_cycles=False),
            run_cell(name, "superblock", kind, hierarchy))


def model_states(name, kind, hierarchy):
    return [r.cycle_model.save_state()
            for r in differential_pair(name, kind, hierarchy)]


class TestFusedMatchesObserve:
    def test_benchmark_list_is_current(self):
        # The matrix below must cover every bundled benchmark.
        assert set(BENCHMARKS) == set(program_names())

    @pytest.mark.parametrize("hierarchy", sorted(HIERARCHIES))
    @pytest.mark.parametrize("kind", ["aie", "doe"])
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_cycles_bitwise_identical(self, name, kind, hierarchy):
        observed, fused = differential_pair(name, kind, hierarchy)
        assert_equivalent(observed, fused)
        # The fused engine actually took the fused path (otherwise
        # this differential is vacuous).
        assert fused.interpreter.superblock.translations > 0

    @pytest.mark.parametrize("name", ["dct4x4", "qsort"])
    def test_doe_drift_state_identical(self, name):
        observed, fused = model_states(name, "doe", "tiny")
        for key in ("slot_last_start", "fetch_floor", "max_completion",
                    "reg_write_cycle"):
            assert fused[key] == observed[key]

    def test_aie_pending_state_identical(self):
        observed, fused = model_states("fft", "aie", "default")
        assert fused["current_cycle"] == observed["current_cycle"]

    def test_memory_hierarchy_counters_identical(self):
        def counters(state):
            return {level["name"]: (level["hits"], level["misses"],
                                    level["writebacks"])
                    for level in state["memory"] if level["kind"] == "cache"}

        observed, fused = model_states("dct4x4", "doe", "tiny")
        assert set(counters(observed)) == {"L1", "L2"}
        assert counters(fused) == counters(observed)


class TestProfilerInteraction:
    def test_profiled_run_attribution_still_sums(self):
        """A profiler forces the observe path; totals stay exact."""
        built = built_benchmark("dct4x4")
        profiler = HotspotProfiler(mode="block")
        model = DoeModel(issue_width=built.issue_width)
        result = run(built, engine="superblock", cycle_model=model,
                     profiler=profiler, max_instructions=CAP)
        assert (profiler.total_instructions
                == result.stats.executed_instructions)
        assert sum(profiler.pc_cycles.values()) == model.cycles

    def test_profiled_cycles_match_fused_cycles(self):
        """Profiling must not change the simulated cycle count."""
        built = built_benchmark("dct4x4")
        fused = run(built, engine="superblock",
                    cycle_model=DoeModel(issue_width=built.issue_width),
                    max_instructions=CAP)
        profiled = run(built, engine="superblock",
                       cycle_model=DoeModel(issue_width=built.issue_width),
                       profiler=HotspotProfiler(mode="block"),
                       max_instructions=CAP)
        assert_equivalent(fused, profiled)


class TestSnapshotInteraction:
    def test_checkpoint_resume_under_fused_engine(self, tmp_path):
        built = built_benchmark("dct4x4")
        width = built.issue_width
        straight = run(built, engine="superblock",
                       cycle_model=DoeModel(issue_width=width))
        part = run(built, engine="superblock",
                   cycle_model=DoeModel(issue_width=width),
                   checkpoint_every=40_000, checkpoint_dir=str(tmp_path))
        assert part.checkpoints
        middle = part.checkpoints[len(part.checkpoints) // 2]
        resumed = run(built, engine="superblock",
                      cycle_model=DoeModel(issue_width=width),
                      resume_from=middle)
        assert_equivalent(straight, resumed)
