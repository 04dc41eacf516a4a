"""Checkpoint/restore subsystem (``repro.snapshot``).

The determinism contract under test (``docs/checkpointing.md``): a run
resumed from a checkpoint reaches the same architectural end state —
registers, memory, program output, exit code, architectural statistics
and restored cycle-model counters — as the same run left uninterrupted.
"""

from __future__ import annotations

import os

import pytest

from repro.adl.kahrisma import KAHRISMA
from repro.cycles.doe import DoeModel
from repro.cycles.branch import BranchModel, GsharePredictor
from repro.framework import pipeline
from repro.programs import load_program, program_names
from repro.sim.memory import Memory, PAGE_SIZE
from repro.sim.stats import SimStats
from repro.snapshot import (
    CheckpointError,
    IncrementalPageEncoder,
    decode_checkpoint,
    decode_memory,
    encode_checkpoint,
    encode_memory,
    memory_digest,
    restore_run,
    snapshot_run,
)

from .conftest import assert_equivalent

def build_benchmark_cached(kc, name):
    return kc(load_program(name), filename=f"{name}.kc")


# -- format layer ---------------------------------------------------------


class TestFormat:
    def test_round_trip(self):
        payload = {"arch": "x", "state": {"ip": 4}, "n": [1, 2, 3]}
        assert decode_checkpoint(encode_checkpoint(payload)) == payload

    def test_identical_payloads_encode_identically(self):
        a = {"b": 1, "a": {"y": 2, "x": 3}}
        b = {"a": {"x": 3, "y": 2}, "b": 1}
        assert encode_checkpoint(a) == encode_checkpoint(b)

    def test_corruption_detected(self):
        data = encode_checkpoint({"k": "value"})
        corrupted = data.replace(b"value", b"VALUE")
        with pytest.raises(CheckpointError, match="digest"):
            decode_checkpoint(corrupted)

    def test_not_json(self):
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            decode_checkpoint(b"\x7fELF junk")

    def test_wrong_schema(self):
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            decode_checkpoint(b'{"schema": "something-else"}')

    def test_unsupported_version(self):
        import json

        data = json.loads(encode_checkpoint({"k": 1}).decode())
        data["version"] = 999
        with pytest.raises(CheckpointError, match="version"):
            decode_checkpoint(json.dumps(data).encode())


# -- memory capture -------------------------------------------------------


class TestMemoryCapture:
    def test_round_trip_skips_zero_pages(self):
        mem = Memory()
        mem.store4(0x1000, 0xDEADBEEF)
        mem.store1(0x5000, 7)
        mem.store4(0x9000, 1)
        mem.store4(0x9000, 0)  # page becomes all-zero again
        pages = encode_memory(mem)
        assert sorted(pages) == ["1", "5"]
        restored = Memory()
        restored.restore_pages(decode_memory(pages))
        assert restored.load4(0x1000) == 0xDEADBEEF
        assert restored.load1(0x5000) == 7
        assert restored.load4(0x9000) == 0
        assert memory_digest(restored) == memory_digest(mem)

    def test_digest_ignores_materialised_zero_pages(self):
        a = Memory()
        a.store4(0x2000, 42)
        b = Memory()
        b.store4(0x2000, 42)
        b.load4(0x8000)
        b.store4(0x9000, 5)
        b.store4(0x9000, 0)
        assert memory_digest(a) == memory_digest(b)

    def test_restore_rejects_short_page(self):
        mem = Memory()
        with pytest.raises(ValueError, match="expected"):
            mem.restore_pages({1: b"\x01" * 16})

    def test_pages_view_is_read_only_and_zero_copy(self):
        mem = Memory()
        mem.store4(0x3000, 99)
        (base, view), = list(mem.pages())
        assert base == 0x3000
        assert view.readonly
        mem.store4(0x3004, 7)  # view aliases the live page
        assert bytes(view[4:8]) == (7).to_bytes(4, "little")

    def test_incremental_encoder_matches_one_shot(self):
        mem = Memory()
        mem.store4(0x1000, 1)
        mem.store4(0x2000, 2)
        enc = IncrementalPageEncoder()
        assert enc.encode(mem) == encode_memory(mem)
        # Touch one page, zero another, add a third.
        mem.store4(0x1000, 3)
        mem.store4(0x2000, 0)
        mem.store4(0x7000, 4)
        assert enc.encode(mem) == encode_memory(mem)
        # No stores since the last call: cache replay, still equal.
        assert enc.encode(mem) == encode_memory(mem)


# -- stats ---------------------------------------------------------------


class TestStats:
    def test_merge_adds_counters_and_takes_last_exit(self):
        a = SimStats(executed_instructions=10, simops=3, exit_code=0)
        b = SimStats(executed_instructions=5, simops=2, exit_code=7)
        a.merge(b)
        assert a.executed_instructions == 15
        assert a.simops == 5
        assert a.exit_code == 7

    def test_round_trip_dict(self):
        stats = SimStats(executed_instructions=9, memory_ops=4, exit_code=1)
        assert SimStats.from_dict(stats.to_dict()) == stats

    def test_copy_is_independent(self):
        stats = SimStats(executed_instructions=1)
        clone = stats.copy()
        clone.executed_instructions = 99
        assert stats.executed_instructions == 1

    def test_architectural_dict_fields(self):
        stats = SimStats()
        arch = stats.architectural_dict()
        assert set(arch) == set(SimStats.ARCHITECTURAL_FIELDS)
        assert "elapsed_seconds" not in arch
        assert "decoded_instructions" not in arch


# -- payload validation ---------------------------------------------------


class TestRestoreValidation:
    def _payload(self, kc):
        built = kc("int main() { return 3; }")
        result = pipeline.run(built, max_instructions=5)
        return snapshot_run(
            result.program.state, result.program.syscalls,
            stats=result.stats,
        )

    def test_wrong_architecture_rejected(self, kc):
        payload = self._payload(kc)
        payload["arch"] = "not-kahrisma"
        with pytest.raises(CheckpointError, match="architecture"):
            restore_run(payload, KAHRISMA)

    def test_missing_section_rejected(self, kc):
        payload = self._payload(kc)
        del payload["syscalls"]
        with pytest.raises(CheckpointError, match="missing"):
            restore_run(payload, KAHRISMA)

    def test_model_state_needs_matching_model(self, kc):
        built = kc("int main() { return 3; }")
        model = DoeModel(issue_width=4)
        result = pipeline.run(built, cycle_model=model, max_instructions=5)
        payload = snapshot_run(
            result.program.state, result.program.syscalls,
            stats=result.stats, cycle_model=model,
        )
        narrow = DoeModel(issue_width=1)
        with pytest.raises(CheckpointError, match="issue width"):
            restore_run(payload, KAHRISMA, cycle_model=narrow)

    def test_branch_presence_mismatch_rejected(self, kc):
        built = kc("int main() { return 3; }")
        model = DoeModel(issue_width=built.issue_width)
        result = pipeline.run(built, cycle_model=model, max_instructions=5)
        payload = snapshot_run(
            result.program.state, result.program.syscalls,
            stats=result.stats, cycle_model=model,
        )
        with_branch = DoeModel(
            issue_width=built.issue_width,
            branch_model=BranchModel(GsharePredictor()),
        )
        with pytest.raises(CheckpointError, match="branch"):
            restore_run(payload, KAHRISMA, cycle_model=with_branch)

    def test_shard_mode_allows_model_without_state(self, kc):
        payload = self._payload(kc)
        assert payload["model"] is None
        model = DoeModel(issue_width=8)
        restored = restore_run(payload, KAHRISMA, cycle_model=model)
        assert restored.state.ip == payload["state"]["ip"]


# -- resume determinism ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(program_names()))
def test_resume_matches_straight_run_per_benchmark(name, kc, tmp_path):
    """Save → restore → run-to-end equals the uninterrupted run, for
    every bundled benchmark (functional superblock engine)."""
    built = build_benchmark_cached(kc, name)
    straight = pipeline.run(built, engine="superblock")
    total = straight.stats.executed_instructions

    part = pipeline.run(
        built, engine="superblock",
        checkpoint_every=max(total // 2, 1), checkpoint_dir=str(tmp_path),
    )
    assert part.checkpoints, f"{name}: no checkpoint written"
    assert_equivalent(straight, part)

    resumed = pipeline.run(
        built, engine="superblock", resume_from=part.checkpoints[0]
    )
    assert_equivalent(straight, resumed)


@pytest.mark.parametrize("engine,budget", [
    ("nocache", 4_000),
    ("cache", 20_000),
    ("predict", None),
    ("superblock", None),
])
def test_resume_matches_straight_run_per_engine(engine, budget, kc, tmp_path):
    """Same contract across every execution engine (dct4x4; the slow
    engines run a fixed instruction budget instead of to halt)."""
    built = build_benchmark_cached(kc, "dct4x4")
    straight = pipeline.run(built, engine=engine,
                            max_instructions=budget or 100_000_000)
    total = straight.stats.executed_instructions
    every = max(total // 2, 1)

    part = pipeline.run(
        built, engine=engine, max_instructions=budget or 100_000_000,
        checkpoint_every=every, checkpoint_dir=str(tmp_path),
    )
    assert part.checkpoints
    assert_equivalent(straight, part)

    resumed = pipeline.run(
        built, engine=engine, resume_from=part.checkpoints[0],
        max_instructions=total - every,
    )
    assert_equivalent(straight, resumed)


def test_resume_across_engines(kc, tmp_path):
    """A checkpoint is engine-agnostic: saved under superblock, resumed
    under the predict loop, same end state."""
    built = build_benchmark_cached(kc, "dct4x4")
    straight = pipeline.run(built, engine="superblock")
    part = pipeline.run(
        built, engine="superblock",
        checkpoint_every=50_000, checkpoint_dir=str(tmp_path),
    )
    resumed = pipeline.run(
        built, engine="predict", resume_from=part.checkpoints[-1]
    )
    assert_equivalent(straight, resumed)


def test_resume_restores_cycle_model_and_telemetry_counters(kc, tmp_path):
    """With model state restored, the resumed run's cycle and telemetry
    counters match the straight run exactly — not just approximately."""
    from repro.telemetry import collect_model_metrics

    built = build_benchmark_cached(kc, "dct4x4")

    def make_model():
        return DoeModel(issue_width=built.issue_width,
                        branch_model=BranchModel(GsharePredictor()))

    straight_model = make_model()
    straight = pipeline.run(built, engine="cache",
                            cycle_model=straight_model)
    part_model = make_model()
    part = pipeline.run(
        built, engine="cache", cycle_model=part_model,
        checkpoint_every=60_000, checkpoint_dir=str(tmp_path),
    )
    resume_model = make_model()
    resumed = pipeline.run(
        built, engine="cache", cycle_model=resume_model,
        resume_from=part.checkpoints[0],
    )
    assert_equivalent(straight, resumed)
    assert (collect_model_metrics(resume_model)
            == collect_model_metrics(straight_model))


def test_rand_state_survives_resume(kc, tmp_path):
    """The deterministic libc layer (LCG rand) continues bit-exactly."""
    source = """
    int main() {
        int i;
        int acc = 0;
        srand(7);
        for (i = 0; i < 2000; i = i + 1) {
            acc = acc + rand() % 97;
        }
        print_int(acc);
        return 0;
    }
    """
    built = kc(source, filename="randloop.kc")
    straight = pipeline.run(built, engine="superblock")
    part = pipeline.run(
        built, engine="superblock",
        checkpoint_every=10_000, checkpoint_dir=str(tmp_path),
    )
    assert part.checkpoints
    resumed = pipeline.run(
        built, engine="superblock", resume_from=part.checkpoints[0]
    )
    assert resumed.output == straight.output
    assert_equivalent(straight, resumed)


def test_identical_states_produce_identical_checkpoint_files(kc, tmp_path):
    """Two independent runs checkpointed at the same instruction count
    write bitwise-identical files (the format has no wall-clock or
    ordering noise)."""
    built = build_benchmark_cached(kc, "dct4x4")
    paths = []
    for tag in ("a", "b"):
        directory = tmp_path / tag
        part = pipeline.run(
            built, engine="superblock",
            checkpoint_every=50_000, checkpoint_dir=str(directory),
        )
        paths.append(part.checkpoints[0])
    with open(paths[0], "rb") as f:
        first = f.read()
    with open(paths[1], "rb") as f:
        second = f.read()
    assert first == second


def test_checkpoint_files_are_digest_protected(kc, tmp_path):
    built = build_benchmark_cached(kc, "dct4x4")
    part = pipeline.run(
        built, engine="superblock",
        checkpoint_every=50_000, checkpoint_dir=str(tmp_path),
    )
    path = part.checkpoints[0]
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data[:-100] + b"x" * 100)
    with pytest.raises(CheckpointError):
        pipeline.run(built, engine="superblock", resume_from=path)


def test_no_checkpoint_after_halt(kc, tmp_path):
    """A checkpoint interval past the end of the program writes nothing
    (the final state is the run result, not a resume point)."""
    built = build_benchmark_cached(kc, "dct4x4")
    part = pipeline.run(
        built, engine="superblock",
        checkpoint_every=10_000_000, checkpoint_dir=str(tmp_path),
    )
    assert part.checkpoints == []
    assert part.exit_code == 0
    assert os.listdir(tmp_path) == []
