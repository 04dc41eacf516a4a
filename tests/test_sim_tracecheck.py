"""Trace comparison tooling (implementation validation, Section V)."""

import pytest

from repro.binutils.loader import load_executable
from repro.sim.interpreter import Interpreter
from repro.sim.tracecheck import (
    diff_architectural_effects,
    diff_traces,
    memory_effects,
    parse_trace_file,
)
from repro.sim.tracing import TraceRecord, Tracer


def make_record(**overrides):
    defaults = dict(
        cycle=1, addr=0x1000, slot=0, opcode="add",
        inputs=((1, 5), (2, 7)), outputs=((3, 12),),
        stores=(), immediates=(),
    )
    defaults.update(overrides)
    return TraceRecord(**defaults)


class TestDiffTraces:
    def test_identical_traces_agree(self):
        a = [make_record(), make_record(opcode="sw",
                                        stores=((4, 0x100, 9),))]
        assert diff_traces(a, list(a)) is None

    def test_opcode_mismatch_located(self):
        a = [make_record(), make_record(opcode="sub")]
        b = [make_record(), make_record(opcode="add")]
        mismatch = diff_traces(a, b)
        assert mismatch.index == 1 and mismatch.field == "opcode"
        assert "sub" in mismatch.format()

    def test_output_value_mismatch(self):
        a = [make_record(outputs=((3, 12),))]
        b = [make_record(outputs=((3, 13),))]
        assert diff_traces(a, b).field == "outputs"

    def test_length_mismatch(self):
        a = [make_record()]
        b = [make_record(), make_record()]
        mismatch = diff_traces(a, b)
        assert mismatch.field == "length"

    def test_cycles_ignored_by_default(self):
        a = [make_record(cycle=1)]
        b = [make_record(cycle=99)]
        assert diff_traces(a, b) is None
        assert diff_traces(a, b, compare_cycles=True).field == "cycle"


class TestArchitecturalEffects:
    def test_store_sequences_compared(self):
        a = [make_record(opcode="sw", stores=((4, 0x100, 1),)),
             make_record(opcode="sw", stores=((4, 0x104, 2),))]
        b = [make_record(opcode="sw",
                         stores=((4, 0x100, 1), (4, 0x104, 2)))]
        # Different grouping, same effect stream.
        assert diff_architectural_effects(a, b) is None
        assert memory_effects(a) == memory_effects(b)

    def test_value_mismatch_detected(self):
        a = [make_record(opcode="sw", stores=((4, 0x100, 1),))]
        b = [make_record(opcode="sw", stores=((4, 0x100, 2),))]
        assert diff_architectural_effects(a, b).field == "store"

    def test_address_comparison_optional(self):
        a = [make_record(opcode="sw", stores=((4, 0x100, 1),))]
        b = [make_record(opcode="sw", stores=((4, 0x200, 1),))]
        assert diff_architectural_effects(a, b) is not None
        assert diff_architectural_effects(
            a, b, compare_addresses=False
        ) is None


class TestTraceFileRoundTrip:
    def test_format_parse_roundtrip(self):
        records = [
            make_record(),
            make_record(cycle=7, addr=0x2004, slot=3, opcode="sw",
                        inputs=((5, 0xDEAD),),
                        outputs=(), stores=((4, 0x8000, 0xBEEF),),
                        immediates=(-8,)),
            make_record(opcode="nop", inputs=(), outputs=()),
        ]
        text = "\n".join(r.format() for r in records)
        parsed = parse_trace_file(text)
        assert diff_traces(records, parsed, compare_cycles=True) is None
        assert [r.addr for r in parsed] == [r.addr for r in records]
        assert [r.slot for r in parsed] == [r.slot for r in records]

    def test_blank_lines_skipped(self):
        assert parse_trace_file("\n\n") == []


class TestSameBinaryValidation:
    def test_interpreter_variants_produce_identical_traces(self, kc):
        built = kc(
            "int main() { int s = 0; for (int i = 0; i < 30; i++) "
            "s += i * i; print_int(s); return 0; }"
        )

        def trace(**kwargs):
            program = load_executable(built.elf, built.arch)
            tracer = Tracer()
            Interpreter(program.state, tracer=tracer, **kwargs).run()
            return tracer.records

        reference = trace()
        assert diff_traces(reference, trace(engine="nocache")) is None
        assert diff_traces(reference, trace(engine="cache")) is None
