"""Superblock engine: differential equivalence, SMC, cycle-model parity.

The superblock engine is a pure optimisation: every test here pins its
observable behaviour to the reference ``predict`` loop through the one
equivalence rule (``repro.fuzz.compare`` over ``observe`` outcomes,
plus equal model ``save_state()`` with a cycle model attached).
Self-modifying code
gets its own regression tests because translated blocks cache decoded
semantics far more aggressively than the decode cache alone.
"""

import pytest

from repro.cycles.aie import AieModel
from repro.cycles.doe import DoeModel
from repro.cycles.ilp import IlpModel
from repro.fuzz import compare, observe
from repro.programs import load_program, program_names
from repro.sim import superblock as superblock_mod
from repro.sim.interpreter import ENGINES, Interpreter
from repro.sim.state import TEXT_BASE

from .conftest import run_built
from .test_sim_interpreter import enc, make_state

@pytest.fixture()
def loop_words(risc_table):
    """r6 = sum(1..10); then halt.  33 dynamic instructions."""
    return [
        enc(risc_table, "addi", rd=5, rs1=0, imm=10),
        enc(risc_table, "addi", rd=6, rs1=0, imm=0),
        enc(risc_table, "add", rd=6, rs1=6, rs2=5),
        enc(risc_table, "addi", rd=5, rs1=5, imm=-1),
        enc(risc_table, "bne", rs1=5, rs2=0, imm=-3),
        enc(risc_table, "halt"),
    ]


MIXED_SOURCE = """
int helper(int x) { return x * 3 + 1; }
int main() {
    int s = 0;
    for (int i = 0; i < 20; i++) s += helper(i);
    print_int(s);
    putchar('\\n');
    return 0;
}
"""


class TestDifferential:
    """predict vs superblock over every bundled benchmark program."""

    @pytest.mark.parametrize("name", sorted(program_names()))
    def test_benchmark_bit_identical(self, kc, name):
        built = kc(load_program(name), isa="risc", filename=f"{name}.kc")
        base_program, base = run_built(built, engine="predict")
        fast_program, fast = run_built(built, engine="superblock")
        assert compare(observe(base_program, base),
                       observe(fast_program, fast)) == []
        assert fast.decoded_instructions == base.decoded_instructions

    def test_mixed_isa_program(self, kc):
        built = kc(MIXED_SOURCE, isa="risc", isa_map={"helper": "vliw4"},
                   filename="sbmix.kc")
        base_program, base = run_built(built, engine="predict")
        fast_program, fast = run_built(built, engine="superblock")
        assert base.isa_switches == 40
        assert compare(observe(base_program, base),
                       observe(fast_program, fast)) == []
        assert fast.decoded_instructions == base.decoded_instructions

    def test_all_engines_agree(self, kc):
        # Decode counts legitimately differ per engine; every
        # observable must not.
        built = kc(MIXED_SOURCE, isa="vliw2", filename="sbv2.kc")
        outcomes = {e: observe(*run_built(built, engine=e))
                    for e in ENGINES}
        for engine, outcome in outcomes.items():
            assert compare(outcomes["predict"], outcome) == [], engine


class TestCycleModelParity:
    """ILP (batched observe_block) and AIE/DOE (per-instruction
    fallback) must report identical cycles under both engines."""

    @pytest.mark.parametrize("model_fn", [
        IlpModel,
        AieModel,
        lambda: DoeModel(issue_width=8),
    ], ids=["ilp", "aie", "doe"])
    def test_cycle_counts_identical(self, kc, model_fn):
        built = kc(load_program("dct4x4"), isa="risc",
                   filename="dct4x4.kc")
        outcomes, states = [], []
        for engine in ("predict", "superblock"):
            model = model_fn()
            program, stats = run_built(built, engine=engine,
                                       cycle_model=model)
            outcomes.append(observe(program, stats, model))
            states.append(model.save_state())
        assert compare(*outcomes) == []
        assert states[0] == states[1]

    def test_ilp_uses_block_observation(self, kc):
        built = kc(load_program("fft"), isa="risc", filename="fft.kc")
        model = IlpModel()
        reference = IlpModel()
        ref_program, ref_stats = run_built(built, engine="predict",
                                           cycle_model=reference)
        program, stats = run_built(built, engine="superblock",
                                   cycle_model=model)
        assert model.observe_block is not None
        assert compare(observe(ref_program, ref_stats, reference),
                       observe(program, stats, model)) == []
        assert model.save_state() == reference.save_state()
        assert model.instructions == stats.executed_instructions


class TestSelfModifyingCode:
    """Stores into decoded code must invalidate plans and cache lines."""

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

    @pytest.mark.parametrize("engine", ENGINES)
    def test_loop_patch_executes_new_decode(self, target, risc_table,
                                            engine):
        state = make_state(target, self._patch_loop_words(risc_table))
        stats = Interpreter(state, engine=engine).run()
        assert state.regs[6] == 11
        assert state.halted
        assert stats.executed_instructions == 14

    @pytest.mark.parametrize("hot_threshold", [None, 1],
                             ids=["cold", "translated"])
    def test_patch_ahead_in_same_block(self, target, risc_table,
                                       monkeypatch, hot_threshold):
        """A store that rewrites a *later* instruction of the same
        straight-line block must abort the block mid-flight: the
        already-fetched stale tail must not execute.

        ``hot_threshold=1`` forces translation so the abort path of the
        compiled block function is exercised too.
        """
        if hot_threshold is not None:
            monkeypatch.setattr(superblock_mod, "HOT_THRESHOLD",
                                hot_threshold)
        data_off = TEXT_BASE + 6 * 4
        patched_addr = TEXT_BASE + 4 * 4
        words = [
            enc(risc_table, "lw", rd=1, rs1=0, imm=data_off),
            enc(risc_table, "addi", rd=2, rs1=0, imm=patched_addr),
            enc(risc_table, "sw", rt=1, rs1=2, imm=0),
            enc(risc_table, "addi", rd=3, rs1=0, imm=1),
            enc(risc_table, "addi", rd=7, rs1=0, imm=1),   # patched
            enc(risc_table, "halt"),
            enc(risc_table, "addi", rd=7, rs1=0, imm=99),  # data: new word
        ]
        results = {}
        for engine in ("predict", "superblock"):
            state = make_state(target, list(words))
            stats = Interpreter(state, engine=engine).run()
            results[engine] = (state.regs[7], tuple(state.regs),
                               stats.executed_instructions)
        assert results["superblock"][0] == 99
        assert results["superblock"] == results["predict"]

    def test_data_store_in_code_page_keeps_plans(self, target, risc_table):
        """Stores into the *data* bytes of a code page must not blow
        away plans — invalidation is byte-range precise."""
        scratch = TEXT_BASE + 16 * 4  # same page, beyond the code
        words = [
            enc(risc_table, "addi", rd=5, rs1=0, imm=3),
            enc(risc_table, "addi", rd=2, rs1=0, imm=scratch),
            enc(risc_table, "sw", rt=5, rs1=2, imm=0),
            enc(risc_table, "addi", rd=5, rs1=5, imm=-1),
            enc(risc_table, "bne", rs1=5, rs2=0, imm=-3),
            enc(risc_table, "halt"),
        ]
        state = make_state(target, words)
        interp = Interpreter(state, engine="superblock")
        stats = interp.run()
        assert state.regs[5] == 0
        assert state.mem.load4(scratch) == 1
        # Nothing was invalidated: every static instruction decoded once.
        assert stats.decoded_instructions == len(words)
        assert interp.superblock.plans


class TestEngineBehavior:
    def test_unknown_engine_rejected(self, target, risc_table):
        state = make_state(target, [enc(risc_table, "halt")])
        with pytest.raises(ValueError, match="unknown engine"):
            Interpreter(state, engine="turbo")

    def test_budget_stops_mid_block(self, target, loop_words):
        """max_instructions must be exact even when it lands inside a
        translated block (the engine trims via the predict tail)."""
        reference = make_state(target, loop_words)
        Interpreter(reference, engine="predict").run(max_instructions=10)
        state = make_state(target, loop_words)
        stats = Interpreter(state, engine="superblock").run(
            max_instructions=10)
        assert stats.executed_instructions == 10
        assert not state.halted
        assert tuple(state.regs) == tuple(reference.regs)
        assert state.ip == reference.ip

    def test_chain_ablation_preserves_results(self, target, loop_words):
        state = make_state(target, loop_words)
        interp = Interpreter(state, engine="superblock")
        interp.superblock.chain = False
        stats = interp.run()
        assert state.regs[6] == 55
        assert stats.executed_instructions == 33
        assert interp.superblock.chain_hits == 0

    def test_chaining_links_blocks(self, target, loop_words):
        state = make_state(target, loop_words)
        interp = Interpreter(state, engine="superblock")
        interp.run()
        assert interp.superblock.chain_hits > 0
        assert interp.superblock.plans_built >= 1

    def test_traced_run_falls_back(self, target, loop_words):
        """Debug features (ip history) force the featureful loop even
        when the superblock engine is selected."""
        state = make_state(target, loop_words)
        interp = Interpreter(state, engine="superblock", ip_history=16)
        stats = interp.run()
        assert state.regs[6] == 55
        assert stats.executed_instructions == 33

    def test_decode_stats_match_predict(self, target, loop_words):
        state = make_state(target, loop_words)
        stats = Interpreter(state, engine="superblock").run()
        # 6 static instructions decoded exactly once each.
        assert stats.decoded_instructions == 6
        assert stats.executed_instructions == 33
        assert stats.executed_slots == 33
