"""Ablations over the design choices DESIGN.md calls out.

Not part of the paper's evaluation; each section varies one modelling
or implementation decision and reports its effect:

* decode cache and instruction prediction (the Section V-A machinery),
* superblock block chaining (the translation engine's dispatch
  short-cut),
* L1 size sweep (the AES working-set effect),
* blocking vs. pipelined L1 port semantics (Section VI-D wording),
* RTL drift-bound sweep (the hardware's precise-interrupt limit),
* DOE NOP-issue accounting,
* pessimistic vs. offset-disambiguated scheduling and the matching
  ILP-model memory assumption,
* branch predictors for the misprediction extension (the paper's
  Section VIII future work).
"""

from __future__ import annotations

import pytest

from repro.binutils.assembler import Assembler
from repro.binutils.linker import link
from repro.binutils.loader import load_executable
from repro.cycles.doe import DoeModel
from repro.cycles.ilp import IlpModel
from repro.cycles.memmodel import HierarchyConfig, build_hierarchy, find_cache
from repro.lang.driver import compile_source
from repro.programs import load_program
from repro.rtl.pipeline import RtlConfig, RtlPipeline
from repro.sim.interpreter import Interpreter

from _bench_common import build_program, emit_table


def simulate(built, *, cycle_model=None, engine=None, max_instructions=None,
             chain=True):
    program = load_executable(built.elf, built.arch)
    interp = Interpreter(
        program.state, cycle_model=cycle_model, engine=engine,
    )
    if interp.superblock is not None:
        interp.superblock.chain = chain
    stats = interp.run(max_instructions=max_instructions)
    return stats, cycle_model, interp


def test_ablation_decode_cache(benchmark, table_writer):
    built = build_program("dct4x4")

    def cached():
        return simulate(built)[0]

    stats = benchmark.pedantic(cached, rounds=2, iterations=1)
    nocache_stats = simulate(built, engine="nocache",
                             max_instructions=15_000)[0]
    nopred_stats = simulate(built, engine="cache")[0]
    lines = [
        f"{'variant':<24} {'MIPS':>8} {'decodes':>9} {'lookups':>9}",
        f"{'no decode cache':<24} {nocache_stats.mips:>8.3f} "
        f"{nocache_stats.decoded_instructions:>9} {0:>9}",
        f"{'cache, no prediction':<24} {nopred_stats.mips:>8.3f} "
        f"{nopred_stats.decoded_instructions:>9} "
        f"{nopred_stats.cache_lookups:>9}",
        f"{'cache + prediction':<24} {stats.mips:>8.3f} "
        f"{stats.decoded_instructions:>9} {stats.cache_lookups:>9}",
    ]
    emit_table("ablation_decode_cache", "\n".join(lines))
    assert stats.mips > 3 * nocache_stats.mips
    assert stats.cache_lookups < nopred_stats.cache_lookups


def test_ablation_block_chaining(benchmark, table_writer):
    """Superblock engine with and without block chaining.

    Chaining skips the plan-dictionary probe whenever a block's last
    observed successor runs next; disabling it quantifies how much of
    the engine's win comes from the dispatch short-cut vs. the
    translated block bodies themselves.
    """
    built = build_program("dct4x4")

    def chained():
        return simulate(built, engine="superblock")

    stats, _, interp = benchmark.pedantic(chained, rounds=2, iterations=1)
    nochain_stats, _, nochain_interp = simulate(
        built, engine="superblock", chain=False)
    predict_stats = simulate(built)[0]

    lines = [
        f"{'variant':<24} {'MIPS':>8} {'chain hits':>11} {'blocks':>9}",
        f"{'predict loop':<24} {predict_stats.mips:>8.3f} "
        f"{'-':>11} {'-':>9}",
        f"{'superblock, no chain':<24} {nochain_stats.mips:>8.3f} "
        f"{nochain_interp.superblock.chain_hits:>11} "
        f"{nochain_interp.superblock.blocks_executed:>9}",
        f"{'superblock + chain':<24} {stats.mips:>8.3f} "
        f"{interp.superblock.chain_hits:>11} "
        f"{interp.superblock.blocks_executed:>9}",
    ]
    emit_table("ablation_block_chaining", "\n".join(lines))

    # The optimisation must not change what executes.
    assert nochain_stats.executed_instructions == \
        stats.executed_instructions
    assert nochain_stats.executed_slots == stats.executed_slots
    assert nochain_interp.superblock.chain_hits == 0
    # Chaining resolves the successor of most block dispatches.
    assert interp.superblock.chain_hits > \
        0.5 * interp.superblock.blocks_executed


def test_ablation_l1_size(benchmark, table_writer):
    """AES misses the 2-KiB L1; growing the cache removes the paper's
    saturation effect."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    built = build_program("aes", "vliw8")
    lines = [f"{'L1 size':>8} {'miss rate':>10} {'DOE cycles':>11}"]
    results = {}
    for size_kib in (1, 2, 8, 32):
        config = HierarchyConfig(l1_size=size_kib * 1024)
        model = DoeModel(issue_width=8, memory=build_hierarchy(config))
        simulate(built, cycle_model=model)
        miss = find_cache(model.memory, "L1").miss_rate
        results[size_kib] = (miss, model.cycles)
        lines.append(
            f"{size_kib:>6}Ki {miss * 100:>9.1f}% {model.cycles:>11}"
        )
    emit_table("ablation_l1_size", "\n".join(lines))
    assert results[32][0] < results[2][0]
    assert results[32][1] < results[2][1]


def test_ablation_port_semantics(benchmark, table_writer):
    """Blocking (paper wording) vs pipelined L1 port, both models."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    built = build_program("dct4x4", "vliw4")
    lines = [f"{'semantics':<12} {'DOE':>9} {'RTL':>9} {'error':>7}"]
    for blocking in (False, True):
        doe = DoeModel(
            issue_width=4,
            memory=build_hierarchy(
                HierarchyConfig(l1_blocking_port=blocking)
            ),
        )
        simulate(built, cycle_model=doe)
        rtl = RtlPipeline(4, RtlConfig(blocking_port=blocking))
        simulate(built, cycle_model=rtl)
        error = abs(doe.cycles - rtl.cycles) / rtl.cycles * 100
        label = "blocking" if blocking else "pipelined"
        lines.append(
            f"{label:<12} {doe.cycles:>9} {rtl.cycles:>9} {error:>6.1f}%"
        )
    emit_table("ablation_port_semantics", "\n".join(lines))


def test_ablation_drift_limit(benchmark, table_writer):
    """The hardware bounds slot drift for precise interrupts; sweeping
    the bound shows what the DOE model's unbounded-drift heuristic
    ignores (paper simplification #2)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    built = build_program("dct4x4", "vliw4")
    lines = [f"{'drift limit':>11} {'RTL cycles':>11}"]
    cycles = {}
    for limit in (1, 2, 4, 8, 32):
        rtl = RtlPipeline(4, RtlConfig(drift_limit=limit))
        simulate(built, cycle_model=rtl)
        cycles[limit] = rtl.cycles
        lines.append(f"{limit:>11} {rtl.cycles:>11}")
    doe = DoeModel(issue_width=4)
    simulate(built, cycle_model=doe)
    lines.append(f"{'DOE (inf)':>11} {doe.cycles:>11}")
    emit_table("ablation_drift_limit", "\n".join(lines))
    assert cycles[32] <= cycles[1]


def test_ablation_nop_issue(benchmark, table_writer):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    built = build_program("dct4x4", "vliw8")
    with_nops = DoeModel(issue_width=8, count_nop_issue=True)
    simulate(built, cycle_model=with_nops)
    without = DoeModel(issue_width=8, count_nop_issue=False)
    simulate(built, cycle_model=without)
    emit_table(
        "ablation_nop_issue",
        f"NOPs occupy issue slots: {with_nops.cycles} cycles\n"
        f"NOP-compressing fetch:   {without.cycles} cycles",
    )
    assert without.cycles <= with_nops.cycles


def test_ablation_memory_dependence_models(benchmark, table_writer):
    """Pessimistic (paper) vs offset-disambiguated scheduling, and the
    matching ILP-model memory assumption."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    from repro.adl.kahrisma import KAHRISMA

    source = load_program("dct4x4")
    built = build_program("dct4x4", "vliw8")
    doe = DoeModel(issue_width=8)
    simulate(built, cycle_model=doe)
    pessimistic_cycles = doe.cycles

    # Rebuild with offset disambiguation enabled in the scheduler.
    compiled = compile_source(source, KAHRISMA, isa="vliw8",
                              filename="dct4x4.kc",
                              disambiguate_offsets=True)
    obj = Assembler(KAHRISMA).assemble(compiled.assembly, "dct4x4.s")
    elf, _ = link([obj], KAHRISMA, entry_symbol=compiled.entry_symbol,
                  entry_isa=compiled.entry_isa)
    program = load_executable(elf, KAHRISMA)
    doe2 = DoeModel(issue_width=8)
    Interpreter(program.state, cycle_model=doe2).run()

    # ILP model with and without the pessimistic memory assumption.
    risc = build_program("dct4x4", "risc")
    pess = IlpModel()
    simulate(risc, cycle_model=pess)
    exact = IlpModel(pessimistic_memory=False)
    simulate(risc, cycle_model=exact)

    emit_table(
        "ablation_memory_dependences",
        "scheduler (DOE cycles @ VLIW8):\n"
        f"  pessimistic (paper default)   {pessimistic_cycles}\n"
        f"  offset-disambiguated          {doe2.cycles}\n"
        "ILP model:\n"
        f"  pessimistic memory            {pess.ilp:.2f} ops/cycle\n"
        f"  no store serialisation        {exact.ilp:.2f} ops/cycle",
    )
    assert doe2.cycles <= pessimistic_cycles * 1.02
    assert exact.ilp >= pess.ilp


def test_ablation_branch_prediction(benchmark, table_writer):
    """The misprediction extension across predictor types.

    Perfect prediction (the paper's evaluation setup) vs. static and
    dynamic predictors, on the branchiest workload (qsort) and the
    straight-line one (dct4x4)."""
    from repro.cycles.branch import (
        BimodalPredictor,
        BranchModel,
        GsharePredictor,
        NotTakenPredictor,
    )

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [
        f"{'workload':<8} {'predictor':<18} {'mispredict':>11} "
        f"{'DOE cycles':>11} {'vs perfect':>11}"
    ]
    for name in ("qsort", "dct4x4"):
        built = build_program(name)
        perfect = DoeModel(issue_width=1)
        simulate(built, cycle_model=perfect)
        lines.append(
            f"{name:<8} {'perfect (paper)':<18} {'-':>11} "
            f"{perfect.cycles:>11} {'1.000x':>11}"
        )
        results = {}
        for predictor in (NotTakenPredictor(), BimodalPredictor(),
                          GsharePredictor()):
            bm = BranchModel(predictor, penalty=3)
            model = DoeModel(issue_width=1, branch_model=bm)
            simulate(built, cycle_model=model)
            results[predictor.name] = (bm.misprediction_rate, model.cycles)
            lines.append(
                f"{name:<8} {predictor.name:<18} "
                f"{bm.misprediction_rate * 100:>10.1f}% "
                f"{model.cycles:>11} "
                f"{model.cycles / perfect.cycles:>10.3f}x"
            )
        if name == "qsort":
            # Data-dependent branches: learning beats static.  (On
            # dct4x4's compare-to-bound loops static not-taken is
            # already near-optimal, so no ordering is asserted there.)
            assert results["bimodal"][0] < results["static-not-taken"][0]
    emit_table("ablation_branch_prediction", "\n".join(lines))
