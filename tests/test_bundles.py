"""Translated VLIW bundles: read-before-write commit, SMC, fused timing.

Hot superblock plans and AOT modules inline a multi-operation bundle
as flat statements that commit after every operation computed
(``repro.targetgen.behavior_compiler.inline_bundle_stmts``), and the
fused AIE/DOE accounting follows each bundle slot by slot.  Each test
runs one hand-written VLIW program under ``nocache`` (the reference
loop), ``superblock`` and ``aot`` and requires the one equivalence
rule (``assert_equivalent``).  The programs loop often enough for
their plans to be translated, which the tests check as well: a
differential over untranslated code would be vacuous.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.adl.kahrisma import KAHRISMA
from repro.binutils.assembler import Assembler
from repro.binutils.linker import link
from repro.binutils.loader import load_executable
from repro.cycles.aie import AieModel
from repro.cycles.doe import DoeModel
from repro.cycles.memmodel import build_hierarchy
from repro.sim import aot
from repro.sim.errors import SimulationError
from repro.sim.interpreter import Interpreter

from .conftest import HIERARCHIES, assert_equivalent

MASK = 0xFFFFFFFF

MODELS = {
    "none": lambda: None,
    "aie": lambda: AieModel(memory=build_hierarchy(HIERARCHIES["tiny"])),
    "doe": lambda: DoeModel(issue_width=4,
                            memory=build_hierarchy(HIERARCHIES["tiny"])),
}

#: Slot 1 reads r6, which slot 0 writes (it must see the old value);
#: a register swap; a branch beside other operations whose condition
#: reads the r5 its own bundle decrements; a call and a return that
#: share their bundles with ALU operations.
HAZARDS = """
    { addi r5, r0, 12 ; addi r6, r0, 1 ; addi r7, r0, 2 ; nop }
loop:
    { addi r6, r6, 3 ; add r8, r6, r7 ; sub r9, r9, r6 ; nop }
    { add r6, r7, r0 ; add r7, r6, r0 ; add r10, r10, r8 ; nop }
    { jal sub1 ; addi r12, r12, 1 ; nop ; nop }
    { addi r5, r5, -1 ; bne r5, r0, loop ; xor r11, r11, r7 ; nop }
    { halt }
sub1:
    { add r13, r13, r12 ; jr r31 ; nop ; nop }
"""

#: Loads beside stores to the same address: the load reads memory as
#: it was before the bundle, in either slot order; two stores to one
#: word commit in slot order.
MEMORY = """
    { lui r20, %hi(buf) ; nop ; nop ; nop }
    { ori r20, r20, %lo(buf) ; addi r5, r0, 10 ; nop ; nop }
loop:
    { sw r5, 0(r20) ; lw r6, 0(r20) ; addi r7, r7, 1 ; nop }
    { add r8, r8, r6 ; sb r7, 4(r20) ; lbu r9, 4(r20) ; nop }
    { lw r10, 0(r20) ; sw r7, 0(r20) ; add r11, r11, r9 ; nop }
    { sw r5, 8(r20) ; sw r7, 8(r20) ; add r12, r12, r10 ; nop }
    { addi r5, r5, -1 ; lw r13, 8(r20) ; nop ; nop }
    { add r14, r14, r13 ; bne r5, r0, loop ; nop ; nop }
    { halt }
.data
buf: .word 0, 0, 0
"""

#: A bundle store that rewrites the next instruction of its own (hot,
#: translated) plan on the seventh iteration: ``addi r9, r9, 1``
#: becomes ``addi r9, r9, 2``.  Earlier iterations store to ``buf``.
SELF_MODIFYING = """
    { lui r21, %hi(buf) ; lui r22, %hi(target) ; nop ; nop }
    { ori r21, r21, %lo(buf) ; ori r22, r22, %lo(target) ; addi r5, r0, 10 ; nop }
    { lw r23, 0(r22) ; sub r24, r22, r21 ; nop ; nop }
    { addi r23, r23, 1 ; nop ; nop ; nop }
loop:
    { xori r14, r5, 4 ; addi r12, r12, 1 ; nop ; nop }
    { sltiu r14, r14, 1 ; nop ; nop ; nop }
    { sub r15, r0, r14 ; nop ; nop ; nop }
    { and r16, r15, r24 ; nop ; nop ; nop }
    { add r17, r21, r16 ; nop ; nop ; nop }
    { sw r23, 0(r17) ; addi r5, r5, -1 ; add r13, r13, r12 ; nop }
target:
    { addi r9, r9, 1 ; add r10, r10, r5 ; nop ; nop }
    { bne r5, r0, loop ; nop ; nop ; nop }
    { halt }
.data
buf: .word 0
"""

#: NOP padding in every slot position, a NOP-only bundle, a
#: multi-cycle op in slot 2 and a branch in slot 1.
NOP_PADDED = """
    { addi r5, r0, 10 ; nop ; nop ; nop }
loop:
    { nop ; addi r6, r6, 1 ; nop ; add r7, r7, r6 }
    { nop }
    { nop ; nop ; mul r8, r6, r7 ; nop }
    { addi r5, r5, -1 ; nop ; nop ; lw r9, 0(r0) }
    { nop ; bne r5, r0, loop ; nop ; nop }
    { halt }
"""


def build(body: str, isa: str = "vliw4"):
    asm = f".isa {isa}\n.text\n.global ${isa}$main\n${isa}$main:\n{body}"
    obj = Assembler(KAHRISMA).assemble(asm, "bundles.s")
    elf, _info = link([obj], KAHRISMA, entry_symbol=f"${isa}$main",
                      entry_isa=KAHRISMA.isa_named(isa).ident,
                      include_libc=False)
    return elf


def run_engine(elf, engine: str, make_model):
    model = make_model()
    module = (aot.prepare(elf, KAHRISMA, model=model)
              if engine == "aot" else None)
    program = load_executable(elf, KAHRISMA)
    interp = Interpreter(program.state, cycle_model=model, engine=engine,
                         aot_module=module)
    stats = interp.run(max_instructions=100_000)
    return SimpleNamespace(program=program, stats=stats, cycle_model=model,
                           interpreter=interp)


def check(elf, make_model):
    """Reference, superblock and AOT runs; asserts equivalence and
    that the fast engines ran the bundles translated."""
    ref, fast, ahead = (run_engine(elf, engine, make_model)
                        for engine in ("nocache", "superblock", "aot"))
    assert ref.program.state.halted
    assert_equivalent(ref, fast, ahead)
    engine = fast.interpreter.superblock
    assert engine.translations > 0
    assert engine.untranslated_plans(fast.cycle_model) == 0
    assert ahead.interpreter.aot.blocks_executed > 0
    return ref, fast, ahead


@pytest.mark.parametrize("model", sorted(MODELS))
def test_parallel_reads_and_swap(model):
    ref, _fast, _ahead = check(build(HAZARDS), MODELS[model])
    r5, r6, r7 = 12, 1, 2
    r8 = r9 = r10 = r11 = r12 = r13 = 0
    while True:
        r6, r8, r9 = r6 + 3, r6 + r7, (r9 - r6) & MASK
        r6, r7, r10 = r7, r6, r10 + r8
        r12 += 1
        r13 += r12
        old_r5, r5, r11 = r5, (r5 - 1) & MASK, r11 ^ r7
        if old_r5 == 0:
            break
    regs = ref.program.state.regs
    assert regs[5:14] == [r5, r6, r7, r8, r9, r10, r11, r12, r13]


@pytest.mark.parametrize("model", sorted(MODELS))
def test_store_and_load_to_one_address(model):
    ref, _fast, _ahead = check(build(MEMORY), MODELS[model])
    regs = ref.program.state.regs
    # lw r6 beside sw r5 reads the previous iteration's ``sw r7``.
    assert regs[8] == sum(range(0, 10))
    # lbu beside sb reads the byte the previous iteration stored.
    assert regs[11] == sum(range(0, 10))
    # Two stores to one word: the later slot's value (r7) wins.
    assert regs[14] == sum(range(1, 11))


@pytest.mark.parametrize("model", sorted(MODELS))
def test_bundle_store_rewrites_its_own_plan(model):
    ref, fast, ahead = check(build(SELF_MODIFYING), MODELS[model])
    # Six iterations before the rewrite add 1, four from it on add 2.
    assert ref.program.state.regs[9] == 6 + 4 * 2
    assert ahead.interpreter.aot.aborts == 1
    if model != "none":
        assert fast.interpreter.superblock.fuser is not None


@pytest.mark.parametrize("count_nop_issue", [True, False])
def test_nop_padded_bundles(count_nop_issue):
    ref, _fast, _ahead = check(
        build(NOP_PADDED),
        lambda: DoeModel(issue_width=4, count_nop_issue=count_nop_issue),
    )
    assert ref.cycle_model.instructions == ref.stats.executed_instructions


#: Four-wide bundles whose slots 2 and 3 hold only NOPs.
TWO_SLOTS = """
    { addi r5, r0, 10 ; nop ; nop ; nop }
loop:
    { addi r6, r6, 1 ; add r7, r7, r6 ; nop ; nop }
    { mul r8, r6, r7 ; addi r5, r5, -1 ; nop ; nop }
    { bne r5, r0, loop ; nop ; nop ; nop }
    { halt }
"""


def test_doe_narrower_than_the_bundle_raises_like_observe():
    """A 2-wide DOE model on 4-wide bundles fails on every engine with
    the error ``observe`` raises (no fused plan hides the defect)."""
    elf = build(HAZARDS)
    errors = []
    for engine in ("nocache", "superblock", "aot"):
        with pytest.raises(SimulationError) as caught:
            run_engine(elf, engine, lambda: DoeModel(issue_width=2))
        errors.append(str(caught.value))
    assert "IndexError" in errors[0]
    assert errors[1:] == errors[:1] * 2


@pytest.mark.parametrize("count_nop_issue", [True, False])
def test_doe_narrower_than_nop_slots(count_nop_issue):
    """NOPs beyond the model's width only fail when they issue; either
    way every engine agrees, because fusion declines such bundles."""
    elf = build(TWO_SLOTS)

    def make_model():
        return DoeModel(issue_width=2, count_nop_issue=count_nop_issue)

    if count_nop_issue:
        for engine in ("nocache", "superblock", "aot"):
            with pytest.raises(SimulationError, match="IndexError"):
                run_engine(elf, engine, make_model)
        return
    ref, fast, ahead = (run_engine(elf, engine, make_model)
                        for engine in ("nocache", "superblock", "aot"))
    assert_equivalent(ref, fast, ahead)
    assert fast.interpreter.superblock.untranslated_plans(
        fast.cycle_model) > 0
