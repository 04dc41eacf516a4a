"""Cross-cutting property-based tests (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adl.kahrisma import KAHRISMA
from repro.binutils.assembler import Assembler
from repro.cycles.memmodel import Cache, ConnectionLimit, MainMemory
from repro.sim.decoder import decode_instruction
from repro.sim.disasm import format_instruction
from repro.sim.interpreter import Interpreter
from repro.sim.memory import Memory
from repro.sim.state import ProcessorState, TEXT_BASE
from repro.sim.syscalls import Syscalls
from repro.targetgen.optable import build_target

TARGET = build_target(KAHRISMA)
RISC = TARGET.optable(0)

#: Operations whose operands are safe to randomise for execution: no
#: control flow, no memory, no simulator services.
_PURE_ALU = [
    "add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt",
    "sltu", "mul", "mulh", "div", "rem",
]
_PURE_IMM = [
    "addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti",
    "sltiu",
]


@st.composite
def random_alu_op(draw):
    """One random ALU operation as (mnemonic, field values)."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(_PURE_ALU))
        return name, {
            "rd": draw(st.integers(1, 27)),
            "rs1": draw(st.integers(0, 27)),
            "rs2": draw(st.integers(0, 27)),
        }
    name = draw(st.sampled_from(_PURE_IMM))
    entry = RISC.by_name[name]
    field = entry.op.field("imm")
    if field.signed:
        imm = draw(st.integers(-(1 << 13), (1 << 13) - 1))
    else:
        imm = draw(st.integers(0, (1 << 14) - 1))
    return name, {
        "rd": draw(st.integers(1, 27)),
        "rs1": draw(st.integers(0, 27)),
        "imm": imm,
    }


class TestAssemblerDisassemblerRoundTrip:
    @given(ops=st.lists(random_alu_op(), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_encode_disasm_reassemble(self, ops):
        """encode → disassemble → assemble reproduces the exact bytes."""
        words = [RISC.by_name[name].encode(vals) for name, vals in ops]
        mem = Memory()
        for i, word in enumerate(words):
            mem.store4(0x1000 + 4 * i, word)
        lines = []
        for i in range(len(words)):
            dec = decode_instruction(RISC, mem, 0x1000 + 4 * i)
            lines.append("    " + format_instruction(dec))
        obj = Assembler(KAHRISMA).assemble("\n".join(lines), "rt.s")
        reassembled = bytes(obj.sections[".text"])
        original = b"".join(w.to_bytes(4, "little") for w in words)
        assert reassembled == original


class TestInterpreterLoopVariantEquivalence:
    @given(ops=st.lists(random_alu_op(), min_size=1, max_size=30),
           seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_all_variants_same_final_state(self, ops, seed):
        words = [RISC.by_name[name].encode(vals) for name, vals in ops]
        words.append(RISC.by_name["halt"].encode({}))

        def run_variant(engine, full=False):
            state = ProcessorState(KAHRISMA)
            rng = seed
            for i in range(28):
                rng = (rng * 1103515245 + 12345) & 0xFFFFFFFF
                state.regs[i] = rng if i else 0
            for i, word in enumerate(words):
                state.mem.store4(TEXT_BASE + 4 * i, word)
            state.ip = TEXT_BASE
            state.setup_stack()
            Syscalls().install(state)
            interp = Interpreter(
                state,
                engine=engine,
                ip_history=8 if full else 0,
            )
            interp.run(max_instructions=1000)
            return list(state.regs)

        reference = run_variant("predict")
        assert run_variant("cache") == reference
        assert run_variant("nocache") == reference
        assert run_variant("predict", full=True) == reference


class TestMemoryModelProperties:
    @given(
        accesses=st.lists(
            st.tuples(
                st.integers(0, 1 << 16),   # address
                st.booleans(),             # write?
                st.integers(0, 1000),      # start cycle
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_completion_never_before_start_plus_delay(self, accesses):
        cache = Cache(size=256, line_size=32, assoc=2, delay=3,
                      sub=MainMemory(10))
        for addr, is_write, start in accesses:
            completion = cache.access(addr, is_write, 0, start)
            assert completion >= start + cache.delay

    @given(
        addresses=st.lists(st.integers(0, 1 << 12), min_size=2,
                           max_size=30)
    )
    @settings(max_examples=40, deadline=None)
    def test_repeat_access_is_hit(self, addresses):
        """Accessing the same address twice in a row always hits."""
        cache = Cache(size=2048, line_size=32, assoc=4,
                      sub=MainMemory(18))
        cycle = 0
        for addr in addresses:
            cache.access(addr, False, 0, cycle)
            misses_before = cache.misses
            cache.access(addr, False, 0, cycle + 100)
            assert cache.misses == misses_before
            cycle += 200

    @given(
        starts=st.lists(st.integers(0, 100), min_size=1, max_size=40),
        ports=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_connection_limit_respects_port_count(self, starts, ports):
        limit = ConnectionLimit(ports, MainMemory(0))
        for start in starts:
            limit.access(0, False, 0, start)
        # No cycle may carry more reservations than ports.
        assert all(count <= ports for count in limit._usage.values())


class TestCompilerWidthEquivalence:
    @given(
        a=st.integers(-500, 500),
        b=st.integers(-500, 500),
        shift=st.integers(0, 7),
    )
    @settings(max_examples=15, deadline=None)
    def test_risc_and_vliw_agree(self, kc, simulate, a, b, shift):
        source = (
            "int f(int a, int b, int s) {\n"
            "    int p = a * b;\n"
            "    int q = (a << s) ^ (b >> 1);\n"
            "    int r = a % (b * b + 1);\n"
            "    return p + q - r;\n"
            "}\n"
            f"int main() {{ print_int(f({a}, {b}, {shift})); return 0; }}\n"
        )
        risc_out, _ = simulate(kc(source, isa="risc"))
        vliw_out, _ = simulate(kc(source, isa="vliw8"))
        assert risc_out.output == vliw_out.output
