"""Differential execution harness over all engines and cycle models.

This module is the one definition of run equivalence.  :func:`observe`
records everything the simulator defines as observable — registers,
IP, active ISA, halt flag, exit code, syscall output, memory digest,
the architectural statistics, any trap, and model cycles — and
:func:`compare` names every observable in which two runs differ
(cycles only between runs of the same cycle model).  Model state
beyond cycles is the models' ``save_state()``; see
``docs/validation.md``.

One generated (or corpus) program is assembled once and executed under
every configuration of the matrix; every observable must be *bitwise
identical* across configurations (cycles within a cycle-model group,
everything else across the whole matrix).

A mismatch is escalated to :func:`repro.telemetry.run_lockstep`, which
re-runs the reference engine against the divergent configuration in
lockstep and localizes the first divergent instruction/PC (the same
forensics the determinism gate uses).

``inject=`` corrupts a register of one designated configuration at an
exact instruction boundary — the rig's self-test seam: a fuzz run with
an injected fault *must* report a divergence, shrink it, and localize
it, proving the safety net actually trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..adl.kahrisma import KAHRISMA
from ..binutils.assembler import Assembler
from ..binutils.elf import ElfFile
from ..binutils.linker import LinkInfo, link
from ..binutils.loader import load_executable
from ..framework.config import RunConfig
from ..sim.interpreter import ENGINES, Interpreter
from ..snapshot.capture import memory_digest

#: Hard ceiling on one configuration run; generated programs are
#: bounded far below this by construction, so hitting it means a
#: generator bug (reported as a trap-kind divergence, not a hang).
DEFAULT_MAX_INSTRUCTIONS = 2_000_000


@dataclass(frozen=True)
class EngineConfig:
    """One cell of the differential matrix."""

    engine: str
    model: Optional[str] = None
    fuse_cycles: bool = True

    @property
    def label(self) -> str:
        parts = [self.engine, self.model or "none"]
        if self.model in ("aie", "doe") and self.engine in (
            "superblock", "aot"
        ):
            parts.append("fused" if self.fuse_cycles else "observed")
        return "/".join(parts)

    def to_doc(self) -> Dict[str, object]:
        return {"engine": self.engine, "model": self.model,
                "fuse_cycles": self.fuse_cycles}


def default_matrix(
    engines=ENGINES, models=("ilp", "aie", "doe")
) -> List[EngineConfig]:
    """All engines x models x fused/observed (where the axis exists).

    Fused accounting only exists on the translating engines; the AOT
    tier additionally *requires* fusion (an observing model has no AOT
    representation and would silently degrade to the interactive
    engine — running it again would test nothing new).
    """
    matrix: List[EngineConfig] = []
    for engine in engines:
        for model in models:
            if engine in ("superblock", "aot") and model in ("aie", "doe"):
                matrix.append(EngineConfig(engine, model, True))
                if engine == "superblock":
                    matrix.append(EngineConfig(engine, model, False))
            else:
                matrix.append(EngineConfig(engine, model, True))
    return matrix


@dataclass
class FuzzBuilt:
    """A linked fuzz executable (duck-compatible with BuildResult
    where the forensic and AOT layers need it: ``.elf`` / ``.arch``)."""

    elf: ElfFile
    link_info: LinkInfo
    arch: object
    asm: str


def assemble_fuzz(asm: str, *, name: str = "<fuzz>") -> FuzzBuilt:
    """Assemble + link one generated program into a loadable ELF."""
    obj = Assembler(KAHRISMA).assemble(asm, name)
    elf, info = link([obj], KAHRISMA, entry_symbol="$risc$main",
                     entry_isa=0)
    return FuzzBuilt(elf=elf, link_info=info, arch=KAHRISMA, asm=asm)


@dataclass
class Outcome:
    """Everything observable about one run — the equivalence key.

    Built by :func:`observe`; :func:`compare` names the fields in which
    two outcomes differ.
    """

    regs: tuple = ()
    ip: int = 0
    isa: int = 0
    halted: bool = False
    exit_code: int = 0
    output: str = ""
    mem_digest: str = ""
    #: ``SimStats.architectural_dict()``: instructions, slots, ops,
    #: memory instructions/ops, simops, ISA switches, exit code.
    stats: dict = field(default_factory=dict)
    #: Trap text when the run raised SimulationError (compared too:
    #: every engine must trap identically or not at all).
    error: Optional[str] = None
    #: Name of the cycle model that observed the run; cycles are only
    #: comparable between outcomes of the same model.
    model: Optional[str] = None
    cycles: Optional[int] = None
    #: The matrix cell that produced this outcome (None outside the
    #: differential runner).
    config: Optional[EngineConfig] = None

    def arch_key(self) -> tuple:
        return (self.regs, self.ip, self.isa, self.halted, self.exit_code,
                self.output, self.mem_digest, self.stats, self.error)


def observe(program, stats, model=None, error=None) -> Outcome:
    """Observe a finished (or trapped) run of a loaded ``program``."""
    state = program.state
    return Outcome(
        regs=tuple(state.regs),
        ip=state.ip,
        isa=state.isa_id,
        halted=state.halted,
        exit_code=state.exit_code,
        output=program.syscalls.output_text(),
        mem_digest=memory_digest(state.mem),
        stats=stats.architectural_dict(),
        error=error,
        model=None if model is None else model.name,
        cycles=None if model is None else model.cycles,
    )


def compare(ref: Outcome, got: Outcome) -> List[str]:
    """Name every observable in which ``got`` differs from ``ref``.

    Cycles are compared only when both outcomes come from the same
    cycle model.  An empty list means the runs are equivalent.
    """
    diffs = [
        f"r{i}: {a:#x} != {b:#x}"
        for i, (a, b) in enumerate(zip(ref.regs, got.regs)) if a != b
    ]
    for name in ("ip", "isa", "halted", "exit_code", "output",
                 "mem_digest", "error"):
        a, b = getattr(ref, name), getattr(got, name)
        if a != b:
            diffs.append(f"{name}: {a!r} != {b!r}")
    for name in sorted(set(ref.stats) | set(got.stats)):
        a, b = ref.stats.get(name), got.stats.get(name)
        if a != b:
            diffs.append(f"{name}: {a!r} != {b!r}")
    if ref.model == got.model and ref.cycles != got.cycles:
        diffs.append(f"cycles: {ref.cycles!r} != {got.cycles!r}")
    return diffs


def run_config(
    built: FuzzBuilt,
    config: EngineConfig,
    *,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    inject: Optional[dict] = None,
) -> Outcome:
    """Execute one configuration to halt (or budget) and observe it.

    ``inject={"at": N, "reg": idx, "xor": mask}`` splits the run at
    instruction boundary N and corrupts a register — only passed for
    the configuration the self-test designates as the victim.
    """
    from ..sim.errors import SimulationError

    program = load_executable(built.elf, built.arch)
    model = _make_model(config.model)
    aot_module = None
    if config.engine == "aot":
        from ..sim import aot

        aot_module = aot.prepare(built.elf, built.arch, model=model)
    interp = Interpreter(
        program.state,
        cycle_model=model,
        engine=config.engine,
        fuse_cycles=config.fuse_cycles,
        aot_module=aot_module,
    )
    error = None
    try:
        if inject is None:
            interp.run(max_instructions=max_instructions)
        else:
            head = min(max(0, int(inject["at"])), max_instructions)
            interp.run(max_instructions=head)
            if not program.state.halted:
                reg = int(inject["reg"])
                program.state.regs[reg] ^= int(inject.get("xor", 1))
                interp.run(max_instructions=max_instructions - head)
    except SimulationError as exc:
        error = str(exc)
    outcome = observe(program, interp.stats, model, error)
    outcome.config = config
    return outcome


@dataclass
class Divergence:
    """One configuration disagreeing with the reference."""

    #: ``architectural`` (state/output/instructions), ``cycles``
    #: (same-model cycle counts differ), or ``trap`` (only one side
    #: trapped).
    kind: str
    config: EngineConfig
    reference: EngineConfig
    detail: str
    #: run_lockstep report when the divergence reproduced under
    #: lockstep; None when escalation was skipped or found nothing.
    forensics: Optional[dict] = None

    @property
    def first_divergent_pc(self) -> Optional[int]:
        if self.forensics is None:
            return None
        return self.forensics.get("first_divergent_pc")


@dataclass
class DiffResult:
    """Cross-check verdict for one program over the whole matrix."""

    outcomes: List[Outcome] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _make_model(name: Optional[str]):
    # Generated programs may switch into any VLIW ISA, so width-sized
    # models (DOE) are built at the architecture's maximum issue width
    # — the same width for every configuration, keeping the
    # cycle-equality property well-defined.
    return RunConfig(model=name or "none").make_model(8)


def _lockstep_config(config: EngineConfig) -> dict:
    doc = {"engine": config.engine, "label": config.label,
           "fuse_cycles": config.fuse_cycles}
    if config.model is not None:
        doc["cycle_model"] = _make_model(config.model)
    return doc


def run_differential(
    built: FuzzBuilt,
    configs: Optional[List[EngineConfig]] = None,
    *,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    inject: Optional[dict] = None,
    inject_into: Optional[str] = None,
    escalate: bool = True,
    lockstep_interval: int = 2_000,
) -> DiffResult:
    """Run the matrix and cross-check every observable bitwise.

    The first configuration is the reference (by default ``nocache``,
    the simplest loop and therefore the most trustworthy oracle).
    Architectural observables must agree across *all* configurations;
    cycles must agree within each cycle-model group — which makes the
    fused-vs-observed accounting equivalence part of the property.

    On mismatch, the divergent configuration is re-run against the
    reference under :func:`run_lockstep` to localize the first
    divergent instruction (``escalate=False`` skips that, e.g. inside
    the shrinker's hot loop).
    """
    from ..telemetry.flight import run_lockstep

    configs = list(configs) if configs is not None else default_matrix()
    result = DiffResult()
    outcomes: List[Outcome] = []
    for config in configs:
        this_inject = inject if config.label == inject_into else None
        outcomes.append(run_config(
            built, config,
            max_instructions=max_instructions, inject=this_inject,
        ))
    result.outcomes = outcomes

    ref = outcomes[0]
    cycle_ref: Dict[Optional[str], Outcome] = {}
    for got in outcomes:
        # Architecture against the reference; cycles against the first
        # outcome of the same model (which agreed with the reference).
        base = ref
        diffs = compare(ref, got)
        if not diffs:
            base = cycle_ref.setdefault(got.model, got)
            diffs = compare(base, got)
        if not diffs:
            continue
        if (got.error is None) != (base.error is None):
            kind = "trap"
        elif got.arch_key() != base.arch_key():
            kind = "architectural"
        else:
            kind = "cycles"
        divergence = Divergence(
            kind=kind, config=got.config, reference=base.config,
            detail="; ".join(diffs),
        )
        if escalate:
            victim_inject = (
                inject if got.config.label == inject_into else None
            )
            try:
                divergence.forensics = run_lockstep(
                    built,
                    _lockstep_config(base.config),
                    _lockstep_config(got.config),
                    interval=lockstep_interval,
                    max_instructions=max_instructions,
                    inject=victim_inject,
                )
            except Exception as exc:  # forensics must never mask a find
                divergence.detail += f" [lockstep failed: {exc}]"
        result.divergences.append(divergence)
    return result


#: Configuration the self-test corrupts (the fused fast path — the
#: most aggressively optimised cell of the matrix).
SELF_TEST_VICTIM = "superblock/doe/fused"


def self_test(
    built: FuzzBuilt,
    configs: Optional[List[EngineConfig]] = None,
    *,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    victim: str = SELF_TEST_VICTIM,
):
    """Prove the rig trips: inject a fault until a divergence is caught.

    Tries register/boundary candidates (a corrupted register may be
    dead — overwritten before it can influence anything observable)
    until :func:`run_differential` reports a divergence on the victim
    configuration.  Returns ``(inject, DiffResult)``; raises
    RuntimeError when no candidate fault is observable, which would
    mean the harness lost its teeth.
    """
    reference = run_config(
        built, EngineConfig("nocache", None),
        max_instructions=max_instructions,
    )
    total = reference.stats["executed_instructions"]
    candidates = []
    for frac in (0.9, 0.5, 0.25):
        at = max(1, int(total * frac) - 1)
        for reg in (5, 14, 9, 12, 3):
            candidates.append({"at": at, "reg": reg, "xor": 0x8})
    for inject in candidates:
        result = run_differential(
            built, configs,
            max_instructions=max_instructions,
            inject=inject, inject_into=victim,
        )
        if not result.ok:
            return inject, result
    raise RuntimeError(
        "self-test fault injection produced no observable divergence"
    )


__all__ = [
    "DEFAULT_MAX_INSTRUCTIONS",
    "DiffResult",
    "Divergence",
    "EngineConfig",
    "FuzzBuilt",
    "Outcome",
    "SELF_TEST_VICTIM",
    "assemble_fuzz",
    "compare",
    "default_matrix",
    "observe",
    "run_config",
    "run_differential",
    "self_test",
]
