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

import re

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
from repro.framework.pipeline import BuildResult, open_plan_cache, run
from repro.fuzz import run_differential
from repro.fuzz.runner import (
    EngineConfig,
    FuzzBuilt,
    compare,
    default_matrix,
    run_config,
)
from repro.programs import program_names
from repro.sim import aot
from repro.sim.errors import SimulationError
from repro.sim.interpreter import Interpreter
from repro.sim.state import TEXT_BASE
from repro.targetgen import behavior_compiler as bc
from repro.telemetry.stream import EventStream

from .conftest import (
    BENCHMARKS,
    CAP,
    HIERARCHIES,
    MATRIX,
    assert_equivalent,
    built_benchmark,
    make_model,
    run_cell,
)
from .test_sim_interpreter import enc, make_state


class TestDifferentialMatrix:
    """aot vs superblock over every benchmark × model × hierarchy."""

    def test_benchmark_list_is_current(self):
        assert set(BENCHMARKS) == set(program_names())

    @pytest.mark.parametrize("hierarchy", sorted(HIERARCHIES))
    @pytest.mark.parametrize("kind", ["ilp", "aie", "doe"])
    @pytest.mark.parametrize("name", MATRIX)
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

    @pytest.mark.parametrize("name", MATRIX)
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
    the whole-program compile pipeline — loading, the discovery
    replay — runs unmodified.
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
    module, _per_entry, report = aot.compile_module(elf, KAHRISMA, **kwargs)
    return elf, module, report


class TestDiscovery:
    """The module covers exactly the blocks the replay executes."""

    def test_code_reached_only_by_fall_through_is_not_compiled(
        self, risc_table
    ):
        # The loop after ``halt`` is a covered-shape block (it ends in
        # a branch), but control only reaches it by falling through
        # the halt, so it never runs and must not be translated.
        dead = TEXT_BASE + 2 * 4
        words = [
            enc(risc_table, "addi", rd=5, rs1=0, imm=1),
            enc(risc_table, "halt"),
            enc(risc_table, "addi", rd=6, rs1=6, imm=1),
            enc(risc_table, "bne", rs1=6, rs2=0, imm=-2),
            enc(risc_table, "halt"),
        ]
        elf = words_elf(words)
        module, per_entry, report = aot.compile_module(elf, KAHRISMA)
        assert report["profile_instructions"] == 2
        assert list(per_entry) == [(0, TEXT_BASE)]
        assert all(entry["ip"] != dead for entry in module.entries)

    def test_trapping_replay_compiles_what_ran(self, risc_table):
        words = [enc(risc_table, "addi", rd=5, rs1=5, imm=1)] * 3 + [
            0xFFFFFFFF
        ]
        elf = words_elf(words)
        module, per_entry, report = aot.compile_module(elf, KAHRISMA)
        # The one block that ran: three adds, truncated before the bad
        # word, so not a table entry (it has no branch terminator).
        assert [p.n_instr for p, _ in per_entry.values()] == [3]
        assert module.entries == []
        assert report["profile_instructions"] == 3

    def test_auto_prepare_replays_the_run_budget(self, monkeypatch):
        built = built_benchmark("dct4x4")
        budgets = _record_budgets(monkeypatch)
        result = run(built, engine="aot", max_instructions=1_234)
        assert budgets == [1_234]
        assert result.stats.executed_instructions == 1_234
        assert result.interpreter.aot.blocks_executed > 0

    def test_resumed_run_replays_through_its_segment(
        self, tmp_path, monkeypatch
    ):
        built = built_benchmark("dct4x4")
        first = run(built, max_instructions=20_000, checkpoint_every=8_000,
                    checkpoint_dir=str(tmp_path))
        budgets = _record_budgets(monkeypatch)
        result = run(built, engine="aot", resume_from=first.checkpoints[0],
                     max_instructions=5_000)
        assert budgets == [8_000 + 5_000]
        assert result.stats.executed_instructions == 8_000 + 5_000

    def test_entry_isa_override_runs_interactively(self, monkeypatch):
        built = built_benchmark("dct4x4")
        budgets = _record_budgets(monkeypatch)
        result = run(built, engine="aot", isa_id=built.elf.flags,
                     max_instructions=5_000)
        assert budgets == []
        assert result.interpreter.aot is None
        assert result.stats.executed_instructions == 5_000

    def test_lockstep_replays_its_budget(self, monkeypatch):
        from repro.telemetry.flight import run_lockstep

        built = built_benchmark("dct4x4")
        budgets = _record_budgets(monkeypatch)
        assert run_lockstep(built, {"engine": "aot"},
                            {"engine": "superblock"},
                            max_instructions=6_000) is None
        assert budgets == [6_000]

    def test_truncated_module_is_not_cached(self, tmp_path):
        built = built_benchmark("dct4x4")
        cold = run(built, engine="aot")
        cache = open_plan_cache(built, directory=str(tmp_path))
        short = run(built, engine="aot", max_instructions=2_000,
                    plan_cache=cache)
        assert short.interpreter.aot.blocks_executed > 0
        assert cache.module_stamp("") is None
        # A later full run on the same cache compiles the whole run.
        cache = open_plan_cache(built, directory=str(tmp_path))
        full = run(built, engine="aot", plan_cache=cache)
        assert cache.module_stamp("") is not None
        assert full.stats.executed_instructions \
            == cold.stats.executed_instructions
        assert full.interpreter.aot.blocks_executed \
            == cold.interpreter.aot.blocks_executed

    def test_cancel_abandons_a_cold_compile(self, risc_table, tmp_path):
        # An endless loop: the replay would run the whole budget.
        built = BuildResult(
            elf=words_elf([
                enc(risc_table, "addi", rd=6, rs1=6, imm=1),
                enc(risc_table, "bne", rs1=6, rs2=0, imm=-2),
                enc(risc_table, "halt"),
            ]),
            link_info=None, compile_result=None, arch=KAHRISMA,
        )
        polls = []

        def cancel():
            polls.append(None)
            return len(polls) > 1

        cache = open_plan_cache(built, directory=str(tmp_path))
        events = EventStream()
        result = run(built, engine="aot", plan_cache=cache, events=events,
                     cancel=cancel, max_instructions=2_000_000)
        assert result.cancelled
        # The replay saw the cancel; the run itself executed nothing.
        assert result.stats.executed_instructions == 0
        assert cache.module_stamp("") is None
        assert [e["type"] for e in events.events] == ["run-start", "run-end"]


def _record_budgets(monkeypatch):
    """Replay budgets of every ``aot.compile_module`` call from now on."""
    compile_module = aot.compile_module
    budgets = []

    def recording(*args, profile_budget, **kwargs):
        budgets.append(profile_budget)
        return compile_module(*args, profile_budget=profile_budget,
                              **kwargs)

    monkeypatch.setattr(aot, "compile_module", recording)
    return budgets


class TestGuestTrap:
    """A program that traps runs on the aot engine as on any other."""

    @staticmethod
    def _trapping_elf(risc_table):
        return words_elf(
            [enc(risc_table, "addi", rd=5, rs1=5, imm=1)] * 3 + [0xFFFFFFFF]
        )

    @pytest.mark.parametrize("engine", ["superblock", "aot"])
    def test_pipeline_run_traps_with_events(self, risc_table, engine):
        built = BuildResult(elf=self._trapping_elf(risc_table),
                            link_info=None, compile_result=None,
                            arch=KAHRISMA)
        events = EventStream()
        with pytest.raises(SimulationError):
            run(built, engine=engine, events=events)
        assert [e["type"] for e in events.events] == ["run-start", "trap"]

    def test_differential_compares_a_trapping_program(self, risc_table):
        built = FuzzBuilt(elf=self._trapping_elf(risc_table),
                          link_info=None, arch=KAHRISMA, asm="")
        result = run_differential(built, [
            EngineConfig("superblock"),
            EngineConfig("aot"),
            EngineConfig("aot", "doe"),
        ])
        assert result.ok, [d.detail for d in result.divergences]
        assert all(o.error for o in result.outcomes)

    def test_trapped_run_keeps_the_completed_counts(self, risc_table):
        """Every engine commits the three adds that ran before the
        undecodable word, whatever its loop or cycle model."""
        built = FuzzBuilt(elf=self._trapping_elf(risc_table),
                          link_info=None, arch=KAHRISMA, asm="")
        outcomes = [
            run_config(built, config)
            for config in default_matrix(models=(None, "ilp", "aie", "doe"))
        ]
        for got in outcomes:
            assert got.error, got.config.label
            assert got.stats["executed_instructions"] == 3, got.config.label
            assert compare(outcomes[0], got) == [], got.config.label

    @pytest.mark.parametrize("engine", ["predict", "superblock", "aot"])
    def test_terminator_trap_keeps_the_block_body(self, risc_table, engine):
        """An unknown simop traps in its block's terminator: the three
        adds of the block body before it still count, and the trap
        reports the simop's IP, as on the per-instruction engines."""
        words = [enc(risc_table, "addi", rd=5, rs1=5, imm=1)] * 3 + [
            enc(risc_table, "simop", imm=999)
        ]
        built = FuzzBuilt(elf=words_elf(words), link_info=None,
                          arch=KAHRISMA, asm="")
        reference = run_config(built, EngineConfig("predict", "doe"))
        got = run_config(built, EngineConfig(engine, "doe"))
        assert "simop 999" in got.error
        assert f"ip={TEXT_BASE + 12:#010x}" in got.error
        assert got.stats["executed_instructions"] == 3
        assert compare(reference, got) == []


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
        _m, per_entry, report = aot.compile_module(elf, KAHRISMA)
        _m4, per_entry4, report4 = aot.compile_module(
            elf, KAHRISMA, max_block_len=4
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
        # Only a replay that runs to halt leaves a module in the cache.
        built = built_benchmark("dct4x4")
        cold = aot.prepare(built.elf, built.arch,
                           plan_cache=self._cache(tmp_path, built))
        assert cold is not None

        def boom(*args, **kwargs):  # pragma: no cover
            raise AssertionError("warm prepare must not recompile")

        monkeypatch.setattr(aot, "compile_module", boom)
        warm = aot.prepare(built.elf, built.arch,
                           plan_cache=self._cache(tmp_path, built))
        assert warm is not None
        assert warm.namespace == cold.namespace
        assert len(warm.entries) == len(cold.entries)

    def test_warm_module_runs_bitwise_identical(self, tmp_path):
        built = built_benchmark("dct4x4")
        cold = aot.prepare(built.elf, built.arch,
                           plan_cache=self._cache(tmp_path, built))
        a = run(built, engine="aot", aot_module=cold,
                max_instructions=CAP)
        warm_module = aot.prepare(
            built.elf, built.arch, plan_cache=self._cache(tmp_path, built),
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


class TestGeneratedSource:
    """Every tier runs the behaviour compiler's final lowering."""

    @pytest.mark.parametrize("kind", ["none", "doe"])
    def test_pinned_module_and_plans(self, kind):
        """No sign-extension helper call and no plain ``ld4`` call in
        the module or the superblock variants it was built from, and
        no statement after a colon that register promotion would miss
        (a ``return`` or a register store)."""
        built = built_benchmark("dct4x4@pinned")
        model = make_model(kind, built.widest_issue_width, "default")
        module, per_entry, _report = aot.compile_module(
            built.elf, built.arch, model=model, profile_budget=CAP,
        )
        variants = [source for _plan, translated in per_entry.values()
                    for source, _code in translated.values()]
        assert variants
        for source in [module.source] + variants:
            assert not re.search(r"\bs(?:8|16|32)\(", source)
            assert (len(re.findall(r"\bld4\(", source))
                    == len(re.findall(r"\bld4\(_za\)", source)))
            for line in source.split("\n"):
                assert not re.search(
                    r":\s*(?:return\b|regs\[\d+\] =)", line
                ), line
        assert "_zw[(_za & 4095) >> 2]" in module.source


class TestBoundedMemos:
    """Translation memos stay at their caps in long-lived processes."""

    def test_memos_never_exceed_their_caps(self, monkeypatch):
        cap = 8
        for name in ("_INLINE_CACHE", "_BUNDLE_CACHE"):
            monkeypatch.setattr(bc, name, {})
            monkeypatch.setattr(bc, name + "_CAP", cap)
        monkeypatch.setattr(aot, "_MODULE_MEMO", {})
        monkeypatch.setattr(aot, "_MODULE_MEMO_CAP", cap)
        addi = KAHRISMA.isas[0].operation("addi")
        for imm in range(3 * cap):
            bc.inline_direct_stmts(addi, (5, 5, imm), TEXT_BASE,
                                   TEXT_BASE + 4)
            bc.inline_bundle_stmts(
                [(addi, (5, 5, imm)), (addi, (6, 6, imm))],
                TEXT_BASE, TEXT_BASE + 8,
            )
            aot._memoise_module((f"plans-{imm}.json", ""), imm, None)
            assert len(bc._INLINE_CACHE) <= cap
            assert len(bc._BUNDLE_CACHE) <= cap
            assert len(aot._MODULE_MEMO) <= cap
        # Oldest first out: the newest entries survive.
        assert (f"plans-{3 * cap - 1}.json", "") in aot._MODULE_MEMO
        assert ("plans-0.json", "") not in aot._MODULE_MEMO


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
