"""Table I — simulator performance and per-component costs.

Paper (Section VII-A, cjpeg on a RISC instance):

* 0.177 MIPS without the decode cache,
* 16.7 MIPS with it (99.991 % of detect+decode avoided),
* 29.5 MIPS with instruction prediction (99.2 % of lookups avoided),
* component times solved from a linear system: Execute 33.2 ns,
  Cache Access 26.0 ns, Detect & Decode 5602.0 ns, ILP 21.5 ns,
  AIE 19.7 ns, DOE 32.3 ns, Memory Model 9.5 ns,
* with models active: ILP 18.3, AIE 18.9, DOE 15.3 MIPS.

The reproduction measures the same quantities on the same workload.
Absolute numbers scale by the CPython/C++ gap; the *shape* is asserted:
detect+decode dwarfs execution, the cache removes ~99.99 % of decodes,
prediction removes most hash lookups, and the cycle models add only a
fraction of the base execution cost.
"""

from __future__ import annotations

import time

import pytest

from repro.binutils.loader import load_executable
from repro.cycles.aie import AieModel
from repro.cycles.doe import DoeModel
from repro.cycles.ilp import IlpModel
from repro.cycles.memmodel import MainMemory
from repro.sim.interpreter import Interpreter

WORKLOAD = "cjpeg"
N_FAST = 200_000     # instruction budget for cached variants
N_SLOW = 15_000      # without the decode cache every instr decodes


def fresh_interpreter(program_builder, *, cycle_model=None, engine=None):
    built = program_builder(WORKLOAD)
    program = load_executable(built.elf, built.arch)
    return Interpreter(
        program.state,
        cycle_model=cycle_model,
        engine=engine,
    )


def timed_run(program_builder, budget, **kwargs):
    interp = fresh_interpreter(program_builder, **kwargs)
    start = time.perf_counter()
    stats = interp.run(max_instructions=budget)
    elapsed = time.perf_counter() - start
    return elapsed / stats.executed_instructions, stats


# -- timed variants (pytest-benchmark) --------------------------------------


def test_interp_no_decode_cache(benchmark, program_builder):
    def run_slow():
        interp = fresh_interpreter(program_builder, engine="nocache")
        return interp.run(max_instructions=N_SLOW)

    stats = benchmark.pedantic(run_slow, rounds=2, iterations=1)
    assert stats.executed_instructions == N_SLOW
    assert stats.decoded_instructions == N_SLOW


def test_interp_decode_cache(benchmark, program_builder):
    def run_cached():
        interp = fresh_interpreter(program_builder, engine="cache")
        return interp.run(max_instructions=N_FAST)

    stats = benchmark.pedantic(run_cached, rounds=3, iterations=1)
    assert stats.cache_lookups == N_FAST


def test_interp_cache_and_prediction(benchmark, program_builder):
    def run_predicted():
        interp = fresh_interpreter(program_builder)
        return interp.run(max_instructions=N_FAST)

    stats = benchmark.pedantic(run_predicted, rounds=3, iterations=1)
    assert stats.prediction_hits > 0.9 * N_FAST


def test_interp_superblock(benchmark, program_builder):
    def run_superblock():
        interp = fresh_interpreter(program_builder, engine="superblock")
        return interp.run(max_instructions=N_FAST)

    stats = benchmark.pedantic(run_superblock, rounds=3, iterations=1)
    assert stats.executed_instructions == N_FAST


@pytest.mark.parametrize("model_name", ["ilp", "aie", "doe"])
def test_interp_with_cycle_model(benchmark, program_builder, model_name):
    def make_model():
        if model_name == "ilp":
            return IlpModel()
        if model_name == "aie":
            return AieModel()
        return DoeModel(issue_width=1)

    def run_with_model():
        interp = fresh_interpreter(program_builder,
                                   cycle_model=make_model())
        return interp.run(max_instructions=N_FAST)

    stats = benchmark.pedantic(run_with_model, rounds=3, iterations=1)
    assert stats.executed_instructions == N_FAST


# -- the reproduced table ------------------------------------------------------


def test_table1_report(benchmark, program_builder, table_writer):
    # Cache-effectiveness rates from a *full* application run (also the
    # headline wall-clock benchmark of the whole simulator).
    def full_run():
        return fresh_interpreter(program_builder).run()

    full = benchmark.pedantic(full_run, rounds=1, iterations=1)
    assert full.exit_code == 0

    # Per-instruction component times from differential measurements,
    # the paper's linear-system approach.
    t_nocache, _ = timed_run(program_builder, N_SLOW, engine="nocache")
    t_cache, _ = timed_run(program_builder, N_FAST, engine="cache")
    t_predict, _ = timed_run(program_builder, N_FAST)
    t_super, _ = timed_run(program_builder, N_FAST, engine="superblock")
    t_ilp, _ = timed_run(program_builder, N_FAST, cycle_model=IlpModel())
    t_aie, _ = timed_run(program_builder, N_FAST, cycle_model=AieModel())
    t_doe, _ = timed_run(program_builder, N_FAST,
                         cycle_model=DoeModel(issue_width=1))
    t_aie_ideal, _ = timed_run(
        program_builder, N_FAST,
        cycle_model=AieModel(memory=MainMemory(3)),
    )

    ns = 1e9
    execute = t_predict * ns
    cache_access = max(t_cache - t_predict, 0.0) * ns
    detect_decode = max(t_nocache - t_cache, 0.0) * ns
    ilp_cost = max(t_ilp - t_predict, 0.0) * ns
    aie_cost = max(t_aie - t_predict, 0.0) * ns
    doe_cost = max(t_doe - t_predict, 0.0) * ns
    memory_cost = max(t_aie - t_aie_ideal, 0.0) * ns

    mips_nocache = 1.0 / t_nocache / 1e6
    mips_cache = 1.0 / t_cache / 1e6
    mips_predict = 1.0 / t_predict / 1e6
    mips_super = 1.0 / t_super / 1e6
    mips_ilp = 1.0 / t_ilp / 1e6
    mips_aie = 1.0 / t_aie / 1e6
    mips_doe = 1.0 / t_doe / 1e6

    rows = [
        ("Simulator Components", "paper (ns)", "measured (ns)"),
        ("Execute (1 operation)", "33.2", f"{execute:9.1f}"),
        ("Cache Access", "26.0", f"{cache_access:9.1f}"),
        ("Detect & Decode", "5602.0", f"{detect_decode:9.1f}"),
        ("ILP", "21.5", f"{ilp_cost:9.1f}"),
        ("AIE (including memory)", "19.7", f"{aie_cost:9.1f}"),
        ("DOE (including memory)", "32.3", f"{doe_cost:9.1f}"),
        ("Memory Model", "9.5", f"{memory_cost:9.1f}"),
    ]
    lines = [f"{a:<26} {b:>12} {c:>14}" for a, b, c in rows]
    lines.append("")
    lines.append(
        f"{'configuration':<26} {'paper MIPS':>12} {'measured MIPS':>14}"
    )
    for label, paper, measured in [
        ("no decode cache", "0.177", mips_nocache),
        ("decode cache", "16.7", mips_cache),
        ("cache + prediction", "29.5", mips_predict),
        ("cache + superblocks", "-", mips_super),
        ("with ILP model", "18.3", mips_ilp),
        ("with AIE model", "18.9", mips_aie),
        ("with DOE model", "15.3", mips_doe),
    ]:
        lines.append(f"{label:<26} {paper:>12} {measured:>14.3f}")
    lines.append("")
    lines.append(
        f"decodes avoided      paper 99.991%   measured "
        f"{full.decode_avoidance * 100:.3f}%"
    )
    lines.append(
        f"hash lookups avoided paper 99.2%     measured "
        f"{full.lookup_avoidance * 100:.3f}%"
    )
    lines.append(
        f"memory instructions  paper 24.6%     measured "
        f"{full.memory_instruction_fraction * 100:.1f}%"
    )
    table_writer("table1_simulator_performance", "\n".join(lines))

    # -- shape assertions (paper's qualitative findings) ----------------
    assert full.decode_avoidance > 0.995
    assert full.lookup_avoidance > 0.95
    # Detect & decode dominates execution by orders of magnitude.
    assert detect_decode > 10 * execute
    # The decode cache is transformative; prediction a further win.
    assert mips_cache > 5 * mips_nocache
    assert mips_predict >= mips_cache * 0.95
    # Superblock translation is the headline win of this engine
    # (acceptance bar is 2x on an unloaded machine; 1.5x here keeps
    # the suite robust on shared CI runners).
    assert mips_super > 1.5 * mips_predict
    # Cycle models cost a fraction of base execution (paper: the memory
    # model is "comparably fast" despite 24.6% memory instructions).
    assert doe_cost < 5 * execute
    assert memory_cost < doe_cost
