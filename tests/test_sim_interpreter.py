"""Interpreter: loop variants, prediction, parallel-op semantics, stats."""

import pytest

from repro.adl.kahrisma import ISA_VLIW2, ISA_VLIW4, KAHRISMA
from repro.sim.decode_cache import DecodeCache
from repro.sim.errors import DecodeError
from repro.sim.interpreter import Interpreter
from repro.sim.state import ProcessorState, TEXT_BASE
from repro.sim.syscalls import Syscalls


def make_state(target, words, isa_id=0, base=TEXT_BASE):
    state = ProcessorState(KAHRISMA, isa_id=isa_id)
    for i, word in enumerate(words):
        state.mem.store4(base + 4 * i, word)
    state.ip = base
    state.setup_stack()
    Syscalls().install(state)
    return state


def enc(table, name, **fields):
    return table.by_name[name].encode(fields)


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


class TestLoopVariants:
    @pytest.mark.parametrize(
        "cache,predict",
        [(True, True), (True, False), (False, False)],
    )
    def test_all_variants_agree(self, target, loop_words, cache, predict):
        state = make_state(target, loop_words)
        engine = "predict" if predict else "cache" if cache else "nocache"
        stats = Interpreter(state, engine=engine).run()
        assert state.regs[6] == 55
        assert stats.executed_instructions == 33

    def test_full_loop_agrees(self, target, loop_words):
        state = make_state(target, loop_words)
        stats = Interpreter(state, ip_history=16).run()
        assert state.regs[6] == 55
        assert stats.executed_instructions == 33

    def test_decode_counts(self, target, loop_words):
        state = make_state(target, loop_words)
        interp = Interpreter(state)
        stats = interp.run()
        # 6 static instructions decoded once each.
        assert stats.decoded_instructions == 6
        assert stats.decode_avoidance == pytest.approx(1 - 6 / 33)
        # Prediction misses only on the first visit of each edge target.
        assert stats.prediction_hits + stats.cache_lookups == 33
        assert stats.prediction_hits > 20

    def test_nocache_decodes_every_instruction(self, target, loop_words):
        state = make_state(target, loop_words)
        stats = Interpreter(state, engine="nocache").run()
        assert stats.decoded_instructions == 33
        assert stats.decode_avoidance == 0.0

    def test_max_instructions_budget(self, target, loop_words):
        state = make_state(target, loop_words)
        stats = Interpreter(state).run(max_instructions=10)
        assert stats.executed_instructions == 10
        assert not state.halted


class TestParallelSemantics:
    def test_bundle_reads_before_writes(self, target, risc_table):
        """{r1<-r2 ; r2<-r1} swaps — the paper's Section V-B semantics."""
        vliw2 = target.optable(ISA_VLIW2)
        words = [
            enc(risc_table, "add", rd=1, rs1=2, rs2=0),
            enc(risc_table, "add", rd=2, rs1=1, rs2=0),
            enc(risc_table, "halt"),
            0,
        ]
        state = make_state(target, words, isa_id=ISA_VLIW2)
        state.regs[1] = 111
        state.regs[2] = 222
        Interpreter(state).run()
        assert state.regs[1] == 222
        assert state.regs[2] == 111

    def test_store_and_load_same_bundle(self, target, risc_table):
        """A load beside a store sees memory from before the bundle."""
        vliw2 = target.optable(ISA_VLIW2)
        words = [
            enc(risc_table, "sw", rt=5, rs1=10, imm=0),
            enc(risc_table, "lw", rd=6, rs1=10, imm=0),
            enc(risc_table, "halt"),
            0,
        ]
        state = make_state(target, words, isa_id=ISA_VLIW2)
        state.regs[5] = 77
        state.regs[10] = 0x8000
        state.mem.store4(0x8000, 13)
        Interpreter(state).run()
        assert state.regs[6] == 13          # pre-bundle memory value
        assert state.mem.load4(0x8000) == 77  # store committed after

    def test_zero_register_immune_in_bundles(self, target, risc_table):
        words = [
            enc(risc_table, "addi", rd=0, rs1=0, imm=99),
            enc(risc_table, "addi", rd=1, rs1=0, imm=5),
            enc(risc_table, "halt"),
            0,
        ]
        state = make_state(target, words, isa_id=ISA_VLIW2)
        Interpreter(state).run()
        assert state.regs[0] == 0
        assert state.regs[1] == 5


class TestIsaSwitching:
    def test_switchtarget_redirects_decoding(self, target, risc_table):
        # RISC switch, then a 4-op VLIW bundle, then halt.
        words = [
            enc(risc_table, "switchtarget", imm=ISA_VLIW4),
            # vliw4 bundle at +4
            enc(risc_table, "addi", rd=1, rs1=0, imm=1),
            enc(risc_table, "addi", rd=2, rs1=0, imm=2),
            enc(risc_table, "addi", rd=3, rs1=0, imm=3),
            enc(risc_table, "addi", rd=4, rs1=0, imm=4),
            # second bundle: halt
            enc(risc_table, "halt"),
            0, 0, 0,
        ]
        state = make_state(target, words)
        stats = Interpreter(state).run()
        assert [state.regs[i] for i in (1, 2, 3, 4)] == [1, 2, 3, 4]
        assert stats.isa_switches == 1
        assert stats.executed_instructions == 3  # switch + 2 bundles

    def test_decode_cache_keyed_by_isa(self, target, risc_table):
        cache = DecodeCache(target)
        state = make_state(
            target,
            [enc(risc_table, "addi", rd=1, rs1=0, imm=7)] * 4,
        )
        risc_dec = cache.lookup(state.mem, 0, TEXT_BASE)
        vliw_dec = cache.lookup(state.mem, ISA_VLIW4, TEXT_BASE)
        assert risc_dec is not vliw_dec
        assert risc_dec.size == 4 and vliw_dec.size == 16
        assert len(cache) == 2
        assert cache.lookup(state.mem, 0, TEXT_BASE) is risc_dec


class TestErrors:
    def test_decode_error_carries_context(self, target):
        state = ProcessorState(KAHRISMA)
        state.mem.store4(TEXT_BASE, 0xEE000000)
        state.ip = TEXT_BASE
        state.setup_stack()
        with pytest.raises(DecodeError) as excinfo:
            Interpreter(state).run(max_instructions=10)
        assert "0xee000000" in str(excinfo.value)

    def test_ip_history_recorded(self, target, loop_words):
        state = make_state(target, loop_words)
        interp = Interpreter(state, ip_history=8)
        interp.run()
        assert len(interp.ip_history) == 8
        assert interp.ip_history[-1] == TEXT_BASE + 20  # the halt
