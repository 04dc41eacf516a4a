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
from repro.cycles.aie import AieModel
from repro.cycles.doe import DoeModel
from repro.cycles.ilp import IlpModel
from repro.cycles.memmodel import HierarchyConfig, build_hierarchy
from repro.framework.pipeline import BuildResult, build, build_benchmark, run
from repro.fuzz import compare, observe
from repro.programs import PINNED_ISA_MAPS
from repro.sim import aot
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


def assert_equivalent(ref, *others) -> None:
    """Pipeline runs ``others`` equal ``ref`` under the one equivalence
    rule: ``compare`` finds no differing observable, and runs that
    both carry a cycle model end in equal ``save_state()``."""
    want = observe(ref.program, ref.stats, ref.cycle_model)
    for got in others:
        assert compare(
            want, observe(got.program, got.stats, got.cycle_model)) == []
        if ref.cycle_model is not None and got.cycle_model is not None:
            assert (got.cycle_model.save_state()
                    == ref.cycle_model.save_state())


#: The engine matrix (``test_aot``, ``test_cycle_fusion``) covers
#: every bundled benchmark.
BENCHMARKS = ("cjpeg", "djpeg", "fft", "qsort", "aes", "dct4x4", "crc32")

#: The matrix adds a mixed-ISA build to the all-RISC ones: a name
#: ``<program>@pinned`` builds the program with its
#: ``repro.programs.PINNED_ISA_MAPS`` map (VLIW2-8 bundles beside RISC).
MATRIX = BENCHMARKS + ("dct4x4@pinned",)

#: Cap per matrix run — enough to cross HOT_THRESHOLD on every hot
#: loop and exercise the memory hierarchy, small enough for tier-1.
CAP = 60_000

#: Two hierarchy shapes: the paper's default and a deliberately tiny,
#: blocking-port variant that forces misses, writebacks and port
#: stalls through the fused accounting.
HIERARCHIES = {
    "default": HierarchyConfig(),
    "tiny": HierarchyConfig(
        l1_size=256, l1_assoc=1, l2_size=2 * 1024, l2_assoc=2,
        main_delay=40, l1_blocking_port=True,
    ),
}

_BENCHMARK_BUILDS: Dict[str, BuildResult] = {}


def built_benchmark(name: str) -> BuildResult:
    if name not in _BENCHMARK_BUILDS:
        program, _, pinned = name.partition("@")
        _BENCHMARK_BUILDS[name] = build_benchmark(
            program, isa_map=PINNED_ISA_MAPS[program] if pinned else None
        )
    return _BENCHMARK_BUILDS[name]


def make_model(kind: str, width: int, hierarchy: str):
    if kind == "none":
        return None
    if kind == "ilp":
        return IlpModel()
    memory = build_hierarchy(HIERARCHIES[hierarchy])
    if kind == "aie":
        return AieModel(memory=memory)
    return DoeModel(issue_width=width, memory=memory)


def run_cell(name: str, engine: str, kind: str, hierarchy: str = "default",
             fuse_cycles: bool = True):
    """One matrix cell: a :data:`MATRIX` build under one engine and a
    fresh cycle model (``"none"``, ``"ilp"``, ``"aie"`` or ``"doe"``).
    ``engine="aot"`` compiles the cell's own module first."""
    built = built_benchmark(name)
    model = make_model(kind, built.widest_issue_width, hierarchy)
    module = None
    if engine == "aot":
        module = aot.prepare(built.elf, built.arch, model=model,
                             profile_budget=CAP)
    return run(built, engine=engine, cycle_model=model,
               fuse_cycles=fuse_cycles, aot_module=module,
               max_instructions=CAP)


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
