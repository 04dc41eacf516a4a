"""Shared fixtures: architecture, target tables, build/run helpers.

Compiled executables are cached per session — compilation is the
expensive step and most tests only need to *run* them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import pytest

from repro.adl.kahrisma import KAHRISMA
from repro.binutils.assembler import Assembler
from repro.binutils.linker import link
from repro.binutils.loader import LoadedProgram, load_executable
from repro.framework.pipeline import BuildResult, build
from repro.sim.interpreter import Interpreter
from repro.targetgen.optable import TargetDescription, build_target


@pytest.fixture(scope="session")
def arch():
    return KAHRISMA


@pytest.fixture(scope="session")
def target(arch) -> TargetDescription:
    return build_target(arch)


@pytest.fixture(scope="session")
def risc_table(target):
    return target.optable(0)


_BUILD_CACHE: Dict[Tuple, BuildResult] = {}


def cached_build(source: str, *, isa: str = "risc",
                 isa_map: Optional[Dict[str, str]] = None,
                 filename: str = "<test>") -> BuildResult:
    key = (source, isa, tuple(sorted((isa_map or {}).items())), filename)
    result = _BUILD_CACHE.get(key)
    if result is None:
        result = build(source, isa=isa, isa_map=isa_map, filename=filename)
        _BUILD_CACHE[key] = result
    return result


@pytest.fixture(scope="session")
def kc():
    """Build helper with session-wide caching."""
    return cached_build


def run_built(built: BuildResult, *, cycle_model=None, tracer=None,
              max_instructions: int = 50_000_000,
              engine: Optional[str] = None,
              input_data: bytes = b"") -> Tuple[LoadedProgram, object]:
    program = load_executable(built.elf, built.arch, input_data=input_data)
    interp = Interpreter(
        program.state, cycle_model=cycle_model, tracer=tracer,
        engine=engine,
    )
    stats = interp.run(max_instructions=max_instructions)
    return program, stats


@pytest.fixture(scope="session")
def simulate():
    return run_built


def assemble_and_run(arch, asm: str, *, entry: str = "$risc$main",
                     entry_isa: int = 0, max_instructions: int = 1_000_000,
                     cycle_model=None):
    """Assemble a snippet, link with libc stubs, run to halt."""
    obj = Assembler(arch).assemble(asm, "test.s")
    elf, _info = link([obj], arch, entry_symbol=entry, entry_isa=entry_isa)
    program = load_executable(elf, arch)
    interp = Interpreter(program.state, cycle_model=cycle_model)
    stats = interp.run(max_instructions=max_instructions)
    return program, stats


@pytest.fixture(scope="session")
def asm_run(arch):
    def _run(asm, **kwargs):
        return assemble_and_run(arch, asm, **kwargs)
    return _run
