"""ELF loader: executable file → initialised processor state.

Paper Section V: the ELF file is loaded into the simulated memory, the
start address initialises the IP, and the initial ISA comes from the
command line or the ADL default — we additionally honour the entry ISA
the linker recorded in ``e_flags``.
"""

from __future__ import annotations

from typing import Optional

from ..adl.model import Architecture
from ..sim.debuginfo import DebugInfo, LineMap
from ..sim.errors import SimulationError
from ..sim.state import ProcessorState
from ..sim.syscalls import Syscalls
from .elf import ElfFile, ET_EXEC, PT_LOAD, STT_FUNC
from .objfile import ASMMAP_SECTION, DBGLINE_SECTION


class LoadedProgram:
    """Everything needed to simulate one executable."""

    def __init__(self, state: ProcessorState, syscalls: Syscalls,
                 elf: ElfFile, debug_info: Optional[DebugInfo] = None):
        self.state = state
        self.syscalls = syscalls
        self.elf = elf
        self._debug_info = debug_info

    @property
    def debug_info(self) -> DebugInfo:
        """Decoded from the ELF on first access: only reports, the
        profiler, the debugger, selection and cost read it."""
        if self._debug_info is None:
            self._debug_info = debug_info_from_elf(self.elf)
        return self._debug_info

    @property
    def output(self) -> str:
        return self.syscalls.output_text()


def debug_info_from_elf(elf: ElfFile) -> DebugInfo:
    """Build symbolisation info from an ELF's debug sections.

    :attr:`LoadedProgram.debug_info` calls it on first access, for a
    loaded and for a checkpoint-resumed program alike (a checkpoint
    carries no debug information).
    """
    debug = DebugInfo()
    asmmap = elf.section(ASMMAP_SECTION)
    if asmmap is not None:
        debug.asm_map = LineMap.decode(asmmap.data)
    lines = elf.section(DBGLINE_SECTION)
    if lines is not None:
        debug.src_map = LineMap.decode(lines.data)
    for sym in elf.symbols:
        if sym.sym_type == STT_FUNC and sym.size:
            debug.add_function(sym.name, sym.value, sym.size)
    return debug


def load_executable(
    elf: ElfFile,
    arch: Architecture,
    *,
    isa_id: Optional[int] = None,
    input_data: bytes = b"",
    rand_seed: int = 1,
) -> LoadedProgram:
    """Load an executable ELF and return a ready-to-run program.

    ``isa_id`` overrides the entry ISA (the paper's command-line
    parameter); by default the linker-recorded entry ISA is used.
    """
    if elf.e_type != ET_EXEC:
        raise SimulationError("not an executable ELF")
    entry_isa = elf.flags if isa_id is None else isa_id
    state = ProcessorState(arch, isa_id=entry_isa)

    image_end = 0
    for phdr, data in elf.segments:
        if phdr.p_type != PT_LOAD:
            continue
        state.mem.store_bytes(phdr.vaddr, data)
        # memsz > filesz: .bss, already zero in our sparse memory.
        image_end = max(image_end, phdr.vaddr + phdr.memsz)

    state.ip = elf.entry
    state.setup_stack()

    heap_base = (image_end + 0xFFF) & ~0xFFF
    syscalls = Syscalls(
        heap_base=heap_base, input_data=input_data, rand_seed=rand_seed
    )
    syscalls.install(state)

    return LoadedProgram(state=state, syscalls=syscalls, elf=elf)
