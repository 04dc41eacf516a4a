"""Linker and loader: layout, symbol resolution, relocation, loading."""

import pytest

from repro.adl.kahrisma import ISA_VLIW4, KAHRISMA
from repro.binutils.assembler import Assembler
from repro.binutils.elf import ElfFile
from repro.binutils.linker import LinkError, link
from repro.binutils.loader import load_executable
from repro.sim.interpreter import Interpreter
from repro.sim.state import TEXT_BASE


@pytest.fixture(scope="module")
def assembler():
    return Assembler(KAHRISMA)


class TestSymbolResolution:
    def test_cross_object_call(self, assembler):
        main_obj = assembler.assemble(
            ".global $risc$main\n$risc$main:\ncall helper\nhalt\n", "m.s"
        )
        helper_obj = assembler.assemble(
            ".global helper\nhelper:\naddi r9, r0, 42\nret\n", "h.s"
        )
        elf, info = link(
            [main_obj, helper_obj], KAHRISMA,
            entry_symbol="$risc$main", entry_isa=0,
        )
        program = load_executable(elf, KAHRISMA)
        Interpreter(program.state).run(max_instructions=100)
        assert program.state.regs[9] == 42

    def test_duplicate_global_rejected(self, assembler):
        a = assembler.assemble(".global f\nf:\nnop\n", "a.s")
        b = assembler.assemble(".global f\nf:\nnop\n", "b.s")
        with pytest.raises(LinkError) as e:
            link([a, b], KAHRISMA, entry_symbol="f", entry_isa=0)
        assert "duplicate" in str(e.value)

    def test_undefined_symbol_reported_with_referrer(self, assembler):
        obj = assembler.assemble("call missing_fn\n", "app.s")
        with pytest.raises(LinkError) as e:
            link([obj], KAHRISMA, entry_symbol="missing_fn", entry_isa=0,
                 include_libc=False)
        assert "missing_fn" in str(e.value)
        assert "app.s" in str(e.value)

    def test_missing_entry_symbol(self, assembler):
        obj = assembler.assemble("nop\n", "a.s")
        with pytest.raises(LinkError):
            link([obj], KAHRISMA, entry_symbol="$risc$main", entry_isa=0)

    def test_local_symbols_do_not_clash(self, assembler):
        a = assembler.assemble(
            ".global $risc$main\n$risc$main:\nlocal:\nhalt\n", "a.s"
        )
        b = assembler.assemble("local:\nnop\n", "b.s")
        elf, _info = link([a, b], KAHRISMA, entry_symbol="$risc$main",
                          entry_isa=0)
        assert elf.entry == TEXT_BASE


class TestRelocations:
    def test_branch_across_objects(self, assembler):
        # Forward and backward PC-relative branches resolved at link.
        obj = assembler.assemble(
            ".global $risc$main\n"
            "$risc$main:\n"
            "    addi r5, r0, 0\n"
            "loop:\n"
            "    addi r5, r5, 1\n"
            "    addi r6, r0, 3\n"
            "    bne r5, r6, loop\n"
            "    halt\n",
            "m.s",
        )
        elf, _ = link([obj], KAHRISMA, entry_symbol="$risc$main",
                      entry_isa=0)
        program = load_executable(elf, KAHRISMA)
        Interpreter(program.state).run(max_instructions=100)
        assert program.state.regs[5] == 3

    def test_hi_lo_address_materialisation(self, assembler):
        obj = assembler.assemble(
            ".global $risc$main\n"
            "$risc$main:\n"
            "    la r5, value\n"
            "    lw r6, 0(r5)\n"
            "    halt\n"
            ".data\n"
            ".global value\n"
            "value: .word 123456789\n",
            "m.s",
        )
        elf, info = link([obj], KAHRISMA, entry_symbol="$risc$main",
                         entry_isa=0)
        program = load_executable(elf, KAHRISMA)
        Interpreter(program.state).run(max_instructions=100)
        assert program.state.regs[6] == 123456789
        assert program.state.regs[5] == info.symbols["value"]

    def test_abs32_in_data(self, assembler):
        obj = assembler.assemble(
            ".global $risc$main\n$risc$main:\nhalt\n"
            ".data\n.global ptr\nptr: .word $risc$main\n",
            "m.s",
        )
        elf, info = link([obj], KAHRISMA, entry_symbol="$risc$main",
                         entry_isa=0)
        program = load_executable(elf, KAHRISMA)
        stored = program.state.mem.load4(info.symbols["ptr"])
        assert stored == info.symbols["$risc$main"]

    def test_vliw_branch_anchor(self, assembler):
        source = (
            ".isa vliw4\n"
            ".global $vliw4$main\n"
            "$vliw4$main:\n"
            "{ addi r5, r0, 1 }\n"
            "loop:\n"
            "{ addi r5, r5, 1 ; addi r6, r0, 4 }\n"
            "{ bne r5, r6, loop }\n"
            "{ halt }\n"
        )
        obj = assembler.assemble(source, "v.s")
        elf, _ = link([obj], KAHRISMA, entry_symbol="$vliw4$main",
                      entry_isa=ISA_VLIW4)
        program = load_executable(elf, KAHRISMA)
        Interpreter(program.state).run(max_instructions=100)
        assert program.state.regs[5] == 4


class TestLayoutAndLoading:
    def test_section_layout_order(self, assembler):
        obj = assembler.assemble(
            "nop\n.data\n.global d\nd: .word 1\n.rodata\nr: .word 2\n"
            ".bss\nb: .space 16\n",
            "m.s",
        )
        elf, info = link([obj], KAHRISMA, entry_symbol="d", entry_isa=0,
                         include_libc=False)
        bases = info.section_bases
        assert bases[".text"] == TEXT_BASE
        assert bases[".text"] < bases[".rodata"] < bases[".data"] \
            < bases[".bss"]
        assert info.image_end >= bases[".bss"] + 16

    def test_libc_stubs_linked_by_default(self, assembler):
        obj = assembler.assemble(
            ".global $risc$main\n$risc$main:\ncall $risc$exit\n", "m.s"
        )
        elf, info = link([obj], KAHRISMA, entry_symbol="$risc$main",
                         entry_isa=0)
        assert "$risc$exit" in info.symbols
        assert "$vliw8$exit" in info.symbols  # one stub set per ISA

    def test_loader_initialises_state(self, assembler):
        obj = assembler.assemble(
            ".global $risc$main\n.func $risc$main\n$risc$main:\nhalt\n"
            ".endfunc\n.bss\nbig: .space 4096\n",
            "m.s",
        )
        elf, info = link([obj], KAHRISMA, entry_symbol="$risc$main",
                         entry_isa=0)
        program = load_executable(ElfFile.read(elf.write()), KAHRISMA)
        state = program.state
        assert state.ip == info.symbols["$risc$main"]
        assert state.isa_id == 0
        assert program.syscalls.heap_base >= info.image_end
        fn = program.debug_info.function_at(state.ip)
        assert fn is not None and fn.name == "$risc$main"

    def test_debug_info_decoded_on_first_access(self, assembler,
                                                monkeypatch):
        from repro.binutils import loader

        calls = []
        decode = loader.debug_info_from_elf
        monkeypatch.setattr(loader, "debug_info_from_elf",
                            lambda elf: calls.append(elf) or decode(elf))
        obj = assembler.assemble(
            ".global $risc$main\n.func $risc$main\n$risc$main:\nhalt\n"
            ".endfunc\n", "m.s"
        )
        elf, _ = link([obj], KAHRISMA, entry_symbol="$risc$main",
                      entry_isa=0)
        program = load_executable(elf, KAHRISMA)
        Interpreter(program.state).run(max_instructions=10)
        assert calls == []
        assert program.debug_info.function_at(TEXT_BASE) is not None
        assert program.debug_info is program.debug_info
        assert calls == [elf]

    def test_loader_isa_override(self, assembler):
        obj = assembler.assemble(
            ".global $risc$main\n$risc$main:\nhalt\n", "m.s"
        )
        elf, _ = link([obj], KAHRISMA, entry_symbol="$risc$main",
                      entry_isa=0)
        program = load_executable(elf, KAHRISMA, isa_id=ISA_VLIW4)
        assert program.state.isa_id == ISA_VLIW4

    def test_non_executable_rejected_by_loader(self, assembler):
        obj = assembler.assemble("nop\n", "m.s")
        from repro.sim.errors import SimulationError

        with pytest.raises(SimulationError):
            load_executable(obj.to_elf(), KAHRISMA)

    def test_debug_maps_merged_and_shifted(self, assembler):
        a = assembler.assemble(
            '.file 1 "a.kc"\n.loc 1 1\nnop\n.global e\ne:\nhalt\n', "a.s"
        )
        b = assembler.assemble('.file 1 "b.kc"\n.loc 1 9\nnop\n', "b.s")
        elf, info = link([a, b], KAHRISMA, entry_symbol="e", entry_isa=0,
                         include_libc=False)
        program = load_executable(elf, KAHRISMA)
        first = program.debug_info.lookup(TEXT_BASE)
        assert first.src_file == "a.kc" and first.src_line == 1
        b_text = TEXT_BASE + 8  # two words from a.s
        second = program.debug_info.lookup(b_text)
        assert second.src_file == "b.kc" and second.src_line == 9
