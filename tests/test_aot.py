"""Ahead-of-time tier (``repro.sim.aot``): differential + SMC coverage.

The AOT engine is a pure optimisation over the superblock engine,
which itself is pinned to the reference ``predict`` loop — so every
test here compares ``engine="aot"`` runs against
``engine="superblock"`` under the one equivalence rule
(``docs/validation.md``): every observable, cycles, and the cycle
model's full ``save_state()``.  Self-modifying code gets dedicated
tests because the AOT module binds translated functions for the
*whole program* up front: its per-entry byte digests and live
invalidation must fall back to the interactive engine byte-precisely,
mid-run.
"""

from __future__ import annotations

import pytest

from repro.adl.kahrisma import KAHRISMA
from repro.binutils.elf import (
    ET_EXEC,
    PT_LOAD,
    ElfFile,
    ElfSection,
    ProgramHeader,
    SHF_ALLOC,
    SHF_EXECINSTR,
)
from repro.binutils.loader import load_executable
from repro.framework.pipeline import open_plan_cache, run
from repro.programs import program_names
from repro.sim import aot
from repro.sim.interpreter import Interpreter
from repro.sim.state import TEXT_BASE

from .conftest import (
    BENCHMARKS,
    CAP,
    HIERARCHIES,
    assert_equivalent,
    built_benchmark,
    run_cell,
)
from .test_sim_interpreter import enc, make_state


class TestDifferentialMatrix:
    """aot vs superblock over every benchmark × model × hierarchy."""

    def test_benchmark_list_is_current(self):
        assert set(BENCHMARKS) == set(program_names())

    @pytest.mark.parametrize("hierarchy", sorted(HIERARCHIES))
    @pytest.mark.parametrize("kind", ["ilp", "aie", "doe"])
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_bitwise_identical(self, name, kind, hierarchy):
        ref = run_cell(name, "superblock", kind, hierarchy)
        got = run_cell(name, "aot", kind, hierarchy)
        assert_equivalent(ref, got)
        if kind == "ilp":
            # No AOT representation: the run degraded to the
            # interactive engine (and still matched bitwise).
            assert got.interpreter.aot is None
        else:
            assert got.interpreter.aot.blocks_executed > 0

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_functional_bitwise_identical(self, name):
        """The ``""`` namespace (no cycle model) for every benchmark."""
        ref = run_cell(name, "superblock", "none")
        got = run_cell(name, "aot", "none")
        assert_equivalent(ref, got)
        assert got.interpreter.aot.blocks_executed > 0


def words_elf(words, isa_id=0):
    """A minimal executable ELF carrying raw instruction words.

    Mirrors ``make_state`` (same base address, so absolute addresses
    inside the encoded words stay valid) but produces a real ELF, so
    the whole-program compile pipeline — section bounds, entry seeds —
    runs unmodified.
    """
    data = b"".join(w.to_bytes(4, "little") for w in words)
    elf = ElfFile(e_type=ET_EXEC, entry=TEXT_BASE, flags=isa_id)
    elf.add_section(ElfSection(
        ".text", addr=TEXT_BASE, data=data,
        flags=SHF_ALLOC | SHF_EXECINSTR,
    ))
    elf.segments.append((
        ProgramHeader(p_type=PT_LOAD, offset=0, vaddr=TEXT_BASE,
                      filesz=len(data), memsz=len(data), flags=0),
        data,
    ))
    return elf


def compile_words(words, **kwargs):
    elf = words_elf(words)
    module, _per_entry, report = aot.compile_module(
        elf, KAHRISMA, profile_budget=0, **kwargs
    )
    return elf, module, report


class TestSelfModifyingCode:
    """Byte-precise invalidation must fall back mid-run."""

    def _patch_loop_words(self, risc_table):
        """A loop whose body instruction is patched on the first pass.

        Iteration 1 executes ``addi r6, r6, 1``; the loop body then
        overwrites that instruction with ``addi r6, r6, 10``, so
        iteration 2 adds 10: r6 == 11 iff the new decode executes.
        """
        data_off = TEXT_BASE + 8 * 4
        patched_addr = TEXT_BASE + 1 * 4
        return [
            enc(risc_table, "addi", rd=5, rs1=0, imm=2),
            enc(risc_table, "addi", rd=6, rs1=6, imm=1),   # patched
            enc(risc_table, "lw", rd=1, rs1=0, imm=data_off),
            enc(risc_table, "addi", rd=2, rs1=0, imm=patched_addr),
            enc(risc_table, "sw", rt=1, rs1=2, imm=0),
            enc(risc_table, "addi", rd=5, rs1=5, imm=-1),
            enc(risc_table, "bne", rs1=5, rs2=0, imm=-6),
            enc(risc_table, "halt"),
            enc(risc_table, "addi", rd=6, rs1=6, imm=10),  # data: new word
        ]

    def test_mid_run_patch_falls_back(self, target, risc_table):
        words = self._patch_loop_words(risc_table)
        elf, module, report = compile_words(words)
        assert report["covered"] >= 1
        reference = make_state(target, words)
        ref_stats = Interpreter(reference, engine="predict").run()

        program = load_executable(elf, KAHRISMA)
        interp = Interpreter(program.state, engine="aot",
                             aot_module=module)
        stats = interp.run()
        assert program.state.regs[6] == 11 == reference.regs[6]
        assert program.state.halted
        assert (stats.executed_instructions
                == ref_stats.executed_instructions == 14)
        # The store over covered code invalidated its row: later
        # passes went through the interactive fallback, not stale
        # translated functions.
        assert interp.aot is not None
        assert interp.aot.rows_invalidated >= 1

    def test_data_store_in_code_page_keeps_rows(self, target, risc_table):
        """Stores into *data* bytes of a covered page must not blow
        away module rows — invalidation is byte-range precise."""
        scratch = TEXT_BASE + 16 * 4  # same page, beyond the code
        words = [
            enc(risc_table, "addi", rd=5, rs1=0, imm=3),
            enc(risc_table, "addi", rd=2, rs1=0, imm=scratch),
            enc(risc_table, "sw", rt=5, rs1=2, imm=0),
            enc(risc_table, "addi", rd=5, rs1=5, imm=-1),
            enc(risc_table, "bne", rs1=5, rs2=0, imm=-3),
            enc(risc_table, "halt"),
        ]
        elf, module, _report = compile_words(words)
        program = load_executable(elf, KAHRISMA)
        interp = Interpreter(program.state, engine="aot",
                             aot_module=module)
        interp.run()
        assert program.state.regs[5] == 0
        assert program.state.mem.load4(scratch) == 1
        assert interp.aot.rows_invalidated == 0
        assert interp.aot.blocks_executed > 0


class TestMaxBlockLen:
    """The configurable superblock cap, end to end."""

    def test_superblock_results_independent_of_cap(self):
        built = built_benchmark("dct4x4")
        ref = run(built, engine="superblock", max_instructions=CAP)
        capped = run(built, engine="superblock", max_block_len=8,
                     max_instructions=CAP)
        assert_equivalent(ref, capped)
        plans = capped.interpreter.superblock.plans.values()
        assert plans and max(p.n_instr for p in plans) <= 8

    def test_aot_respects_cap(self, risc_table):
        # 12 straight-line instructions then halt: one 13-instruction
        # plan at the default cap, several capped plans under
        # max_block_len=4 (the same carving the engine would do).
        words = [
            enc(risc_table, "addi", rd=5, rs1=5, imm=1) for _ in range(12)
        ] + [enc(risc_table, "halt")]
        elf = words_elf(words)
        _m, per_entry, report = aot.compile_module(
            elf, KAHRISMA, profile_budget=0
        )
        _m4, per_entry4, report4 = aot.compile_module(
            elf, KAHRISMA, profile_budget=0, max_block_len=4
        )
        assert max(p.n_instr for p, _ in per_entry.values()) == 13
        assert max(p.n_instr for p, _ in per_entry4.values()) <= 4
        assert report4["discovered"] > report["discovered"]

    def test_cap_selects_a_different_cache_file(self, tmp_path):
        built = built_benchmark("dct4x4")
        default = open_plan_cache(built, directory=str(tmp_path))
        capped = open_plan_cache(built, directory=str(tmp_path),
                                 block_len=8)
        assert default.path != capped.path


class TestModuleCache:
    """prepare() ↔ PlanCache round trips."""

    def _cache(self, tmp_path, built):
        return open_plan_cache(built, directory=str(tmp_path))

    def test_warm_prepare_revives_without_compiling(self, tmp_path,
                                                    monkeypatch):
        built = built_benchmark("dct4x4")
        cold = aot.prepare(built.elf, built.arch, profile_budget=CAP,
                           plan_cache=self._cache(tmp_path, built))
        assert cold is not None

        def boom(*args, **kwargs):  # pragma: no cover
            raise AssertionError("warm prepare must not recompile")

        monkeypatch.setattr(aot, "compile_module", boom)
        warm = aot.prepare(built.elf, built.arch, profile_budget=CAP,
                           plan_cache=self._cache(tmp_path, built))
        assert warm is not None
        assert warm.namespace == cold.namespace
        assert len(warm.entries) == len(cold.entries)

    def test_warm_module_runs_bitwise_identical(self, tmp_path):
        built = built_benchmark("dct4x4")
        cold = aot.prepare(built.elf, built.arch, profile_budget=CAP,
                           plan_cache=self._cache(tmp_path, built))
        a = run(built, engine="aot", aot_module=cold,
                max_instructions=CAP)
        warm_module = aot.prepare(
            built.elf, built.arch, profile_budget=CAP,
            plan_cache=self._cache(tmp_path, built),
        )
        b = run(built, engine="aot", aot_module=warm_module,
                max_instructions=CAP)
        assert_equivalent(a, b)

    def test_payload_roundtrip(self, risc_table):
        words = [enc(risc_table, "addi", rd=5, rs1=0, imm=7),
                 enc(risc_table, "halt")]
        elf, module, _report = compile_words(words)
        revived = aot.AotModule.from_payload(module.payload())
        assert revived is not None
        assert revived.namespace == module.namespace
        assert revived.entries == module.entries
        program = load_executable(elf, KAHRISMA)
        interp = Interpreter(program.state, engine="aot",
                             aot_module=revived)
        interp.run()
        assert program.state.regs[5] == 7
        assert program.state.halted


class TestTelemetry:
    def test_aot_counters_collected(self):
        from repro.telemetry.collect import collect_interpreter_metrics

        built = built_benchmark("dct4x4")
        module = aot.prepare(built.elf, built.arch, profile_budget=CAP)
        result = run(built, engine="aot", aot_module=module,
                     max_instructions=CAP)
        metrics = collect_interpreter_metrics(result.interpreter)
        binding = result.interpreter.aot
        assert metrics["sim.aot.entries_total"] == binding.entries_total
        assert metrics["sim.aot.blocks_executed"] > 0
        assert metrics["sim.aot.dispatches"] > 0
        assert metrics["sim.aot.traces_bound"] <= metrics[
            "sim.aot.traces_total"]
