"""One-call build/run pipeline over the whole toolchain.

Mirrors the paper's framework flow (Figure 2): C source → compiler →
assembler → linker → ELF executable → cycle-approximate simulation.
This is the primary public API of the reproduction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..adl.kahrisma import KAHRISMA
from ..adl.model import Architecture
from ..binutils.assembler import Assembler
from ..binutils.elf import ElfFile
from ..binutils.linker import LinkInfo, link
from ..binutils.loader import LoadedProgram, load_executable
from ..lang.driver import CompileResult, compile_mixed, compile_source
from ..programs import load_program
from ..sim.interpreter import Interpreter
from ..sim.stats import SimStats
from ..sim.tracing import Tracer
from .config import DEFAULT_MAX_INSTRUCTIONS, RunConfig, model_name


@dataclass
class BuildResult:
    """A linked executable plus everything known about it."""

    elf: ElfFile
    link_info: LinkInfo
    compile_result: CompileResult
    arch: Architecture

    @property
    def entry_symbol(self) -> str:
        return self.compile_result.entry_symbol

    @property
    def entry_isa(self) -> int:
        return self.compile_result.entry_isa

    @property
    def issue_width(self) -> int:
        return self.arch.isa(self.entry_isa).issue_width


@dataclass
class RunResult:
    """Outcome of one simulation."""

    output: str
    stats: SimStats
    program: LoadedProgram
    cycle_model: object = None
    tracer: Optional[Tracer] = None
    #: Telemetry run report (``repro.telemetry`` document) when the
    #: run was invoked with ``collect_metrics=True``; None otherwise.
    telemetry: Optional[dict] = None
    #: The profiler passed to :func:`run`, for post-run inspection.
    profiler: object = None
    #: The timeline recorder passed to :func:`run`.
    timeline: object = None
    #: Checkpoint files written when the run was invoked with
    #: ``checkpoint_every`` (in instruction order); empty otherwise.
    checkpoints: List[str] = field(default_factory=list)
    #: The interpreter that executed the run (engine counters such as
    #: ``superblock.translations`` / ``plan_cache_hits`` live here).
    interpreter: object = None
    #: True when the run stopped because the ``cancel`` hook fired
    #: (``docs/serving.md``); the architectural state is then mid-run.
    cancelled: bool = False
    #: Resumable checkpoint written on cancellation when the run was
    #: invoked with ``cancel_checkpoint_dir``; None otherwise.
    cancel_checkpoint: Optional[str] = None
    #: :class:`repro.framework.sampling.SamplingResult` when the run
    #: used the statistical-sampling tier (``sampling=...``); the
    #: extrapolated cycle estimate and CI live here, while
    #: :attr:`cycles` then covers only the measured intervals.
    sampling: object = None

    @property
    def cycles(self) -> Optional[int]:
        if self.cycle_model is None:
            return None
        return self.cycle_model.cycles

    @property
    def exit_code(self) -> int:
        return self.program.state.exit_code

    @property
    def metrics(self) -> Optional[Dict[str, object]]:
        """Flat metric dict of the telemetry report (or None)."""
        if self.telemetry is None:
            return None
        return self.telemetry.get("metrics")


def build(
    source: str,
    *,
    arch: Architecture = KAHRISMA,
    isa: str = "risc",
    isa_map: Optional[Dict[str, str]] = None,
    filename: str = "<kc>",
    optimize_ir: bool = True,
    entry: str = "main",
) -> BuildResult:
    """Compile, assemble and link one KC source file.

    ``isa`` sets the ISA for every function; ``isa_map`` overrides it
    per function (cross-ISA calls get switchtarget thunks).
    """
    if isa_map:
        compiled = compile_mixed(
            source, arch, isa_map=isa_map, default_isa=isa,
            filename=filename, optimize_ir=optimize_ir, entry=entry,
        )
    else:
        compiled = compile_source(
            source, arch, isa=isa, filename=filename,
            optimize_ir=optimize_ir, entry=entry,
        )
    asm_name = filename.replace(".kc", ".s") if filename else "<asm>"
    obj = Assembler(arch).assemble(compiled.assembly, asm_name)
    elf, info = link(
        [obj], arch,
        entry_symbol=compiled.entry_symbol,
        entry_isa=compiled.entry_isa,
    )
    return BuildResult(elf=elf, link_info=info, compile_result=compiled,
                       arch=arch)


def build_benchmark(
    name: str,
    *,
    arch: Architecture = KAHRISMA,
    isa: str = "risc",
    isa_map: Optional[Dict[str, str]] = None,
) -> BuildResult:
    """Build one of the bundled benchmark programs (paper Section VII)."""
    return build(
        load_program(name), arch=arch, isa=isa, isa_map=isa_map,
        filename=f"{name}.kc",
    )


def run(
    built: BuildResult,
    *,
    cycle_model=None,
    tracer: Optional[Tracer] = None,
    engine: Optional[str] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    input_data: bytes = b"",
    isa_id: Optional[int] = None,
    profiler=None,
    timeline=None,
    collect_metrics: bool = False,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume_from=None,
    workload: Optional[str] = None,
    plan_cache=None,
    fuse_cycles: bool = True,
    aot_module=None,
    max_block_len: Optional[int] = None,
    events=None,
    flight=None,
    cancel=None,
    cancel_checkpoint_dir: Optional[str] = None,
    sampling=None,
) -> RunResult:
    """Load and simulate a built executable.

    This is the one driver behind ``kahrisma run``, serve jobs and the
    benchmark harnesses.  It reads only ``built.elf`` and
    ``built.arch``.  ``engine`` defaults to ``predict``.  The run is
    checked with :meth:`repro.framework.config.RunConfig.validate`
    before anything loads; an incoherent combination raises ValueError.

    Telemetry: ``profiler`` (a :class:`repro.telemetry.HotspotProfiler`)
    attributes work to guest code, ``timeline`` (a
    :class:`repro.telemetry.TimelineRecorder`) records Chrome-trace
    events from the cycle model, and ``collect_metrics=True`` attaches
    the machine-readable run report as ``RunResult.telemetry`` — this
    is how the benchmark harnesses emit telemetry automatically.

    Checkpointing (``docs/checkpointing.md``): ``checkpoint_every=N``
    writes a checkpoint into ``checkpoint_dir`` every N executed
    instructions; ``resume_from`` (a checkpoint path or decoded
    payload) starts from a checkpoint instead of the ELF entry point
    (the ELF still supplies debug info, and ``RunResult.stats`` covers
    the whole run, not just the resumed segment).  ``max_instructions``
    bounds the segment executed by this call.

    Performance (``docs/performance.md``): ``plan_cache`` (see
    :func:`open_plan_cache`) persists superblock translations across
    runs and processes; ``fuse_cycles=False`` disables compiling
    AIE/DOE accounting into translated plans (the differential test
    suite's reference configuration); ``max_block_len`` overrides the
    64-instruction superblock cap (also folded into the plan-cache
    key — see :func:`open_plan_cache`).

    ``engine="aot"`` (``docs/performance.md``) dispatches through a
    whole-program ahead-of-time module: pass one as ``aot_module``
    (from :func:`repro.sim.aot.prepare` or a ``kahrisma compile``
    artifact in the plan cache), or leave it None and this function
    prepares one automatically — reviving it from ``plan_cache`` when
    present, compiling in place otherwise.  Configurations without an
    AOT representation (tracers, profilers, per-instruction-observing
    models) transparently degrade to the interactive engine.

    Live observability (``docs/observability.md``): ``events`` (a
    :class:`repro.telemetry.stream.EventStream`) receives run-start /
    heartbeat / syscall / ISA-switch / SMC / checkpoint / run-end
    events while the simulation runs; ``flight`` (a
    :class:`repro.telemetry.flight.FlightRecorder`) keeps a bounded
    trail of recent blocks, dumped on trap.

    Cancellation (``docs/serving.md``): ``cancel`` is a zero-argument
    callable polled between budget slices; when it returns true the
    run stops at the next instruction boundary, ``RunResult.cancelled``
    is set, and — with ``cancel_checkpoint_dir`` — a resumable
    checkpoint is written there (``RunResult.cancel_checkpoint``), so
    a preempted job can be rescheduled via ``resume_from``.

    Sampling (``docs/performance.md``): ``sampling`` (a
    :class:`repro.framework.sampling.SamplingConfig` or a spec string
    ``"U:k[:W[:seed]]"``) switches the run to the statistical-sampling
    tier: ``engine`` fast-forwards functionally between measured
    intervals and ``cycle_model`` (AIE/DOE, required) runs fused over
    warmup + measured intervals only.  ``RunResult.sampling`` carries
    the measured intervals, the extrapolated ``cycles_estimated`` and
    the 95% confidence half-width ``cycles_ci95``; the telemetry
    report gains the same fields.  Incompatible with tracers,
    profilers, timelines and ``checkpoint_every`` (cancel checkpoints
    and ``resume_from`` compose fine — the schedule is absolute).
    """
    config = RunConfig(
        engine=engine or "predict",
        model=model_name(cycle_model),
        fuse_cycles=fuse_cycles,
        max_block_len=max_block_len,
        max_instructions=max_instructions,
        sampling=sampling,
    ).validate(
        trace=tracer is not None,
        profile=getattr(profiler, "mode", None),
        timeline=timeline is not None,
        checkpoint_every=checkpoint_every,
    )
    sampling_config = config.sampling_config()
    if resume_from is not None:
        from ..snapshot import load_checkpoint_program

        resumed = load_checkpoint_program(
            resume_from, built.arch, elf=built.elf, cycle_model=cycle_model
        )
        program = resumed.program
        base_stats = resumed.base_stats
        resume_meta = resumed.meta
    else:
        program = load_executable(
            built.elf, built.arch, isa_id=isa_id, input_data=input_data
        )
        base_stats = None
        resume_meta = None
    if (
        config.engine == "aot"
        and aot_module is None
        and tracer is None
        and profiler is None
        and timeline is None
        and (sampling_config is not None
             or fuse_cycles or cycle_model is None)
    ):
        from ..sim import aot

        aot_module = aot.prepare(
            built.elf, built.arch,
            # Sampling fast-forwards *functionally*; the detailed
            # model never runs under the AOT module.
            model=None if sampling_config is not None else cycle_model,
            plan_cache=plan_cache,
            max_block_len=max_block_len,
            input_data=input_data,
        )
    if events is not None:
        start = {"sampling": sampling_config.spec()} \
            if sampling_config is not None else {}
        events.emit(
            "run-start",
            workload=workload,
            engine=config.engine,
            model=None if config.model == "none" else config.model,
            heartbeat_every=events.heartbeat_every,
            **start,
        )
    checkpoints: List[str] = []
    sampled = None
    cancel_meta: Dict[str, object] = {}
    if sampling_config is not None:
        from .sampling import run_sampled

        outcome = run_sampled(
            program, cycle_model, sampling_config,
            engine=config.engine,
            max_instructions=max_instructions,
            plan_cache=plan_cache,
            aot_module=aot_module,
            max_block_len=max_block_len,
            fuse_cycles=fuse_cycles,
            events=events,
            flight=flight,
            cancel=cancel,
            base_stats=base_stats,
            meta=resume_meta,
        )
        interpreter = outcome.fast
        stats = outcome.stats
        cancelled = outcome.cancelled
        sampled = outcome.result
        cancel_meta["sampling"] = outcome.progress_doc()
    else:
        interpreter = Interpreter(
            program.state,
            cycle_model=cycle_model,
            tracer=tracer,
            engine=config.engine,
            profiler=profiler,
            timeline=timeline,
            plan_cache=plan_cache,
            fuse_cycles=fuse_cycles,
            aot_module=aot_module,
            max_block_len=max_block_len,
            events=events,
            flight=flight,
            cancel=cancel,
        )
        if checkpoint_every is not None:
            from ..snapshot import run_with_checkpoints

            ckpt = run_with_checkpoints(
                interpreter, program.syscalls,
                every=checkpoint_every,
                directory=checkpoint_dir or "checkpoints",
                max_instructions=max_instructions,
                base_stats=base_stats,
                workload=workload,
            )
            stats = ckpt.stats
            checkpoints = ckpt.checkpoints
        else:
            stats = interpreter.run(max_instructions=max_instructions)
            if base_stats is not None:
                whole = base_stats.copy()
                whole.merge(stats)
                stats = whole
        cancelled = interpreter.cancelled
    cancel_checkpoint = None
    if (
        cancelled
        and cancel_checkpoint_dir is not None
        and not program.state.halted
    ):
        from ..snapshot import checkpoint_path, snapshot_run, write_checkpoint

        payload = snapshot_run(
            program.state, program.syscalls,
            stats=stats,
            cycle_model=cycle_model,
            meta={
                "instructions": stats.executed_instructions,
                "engine": interpreter.engine,
                "workload": workload,
                "cancelled": True,
                **cancel_meta,
            },
        )
        os.makedirs(cancel_checkpoint_dir, exist_ok=True)
        cancel_checkpoint = checkpoint_path(
            cancel_checkpoint_dir, stats.executed_instructions,
            prefix="cancel",
        )
        write_checkpoint(cancel_checkpoint, payload)
        if events is not None:
            events.emit(
                "checkpoint",
                path=cancel_checkpoint,
                instructions=stats.executed_instructions,
            )
    if events is not None:
        end = {"cycles_estimated": sampled.cycles_estimated} \
            if sampled is not None else {}
        events.emit(
            "run-end",
            instructions=stats.executed_instructions,
            exit_code=program.state.exit_code,
            elapsed_seconds=round(stats.elapsed_seconds, 6),
            mips=round(stats.mips, 3),
            halted=program.state.halted,
            **end,
        )
    telemetry = None
    if collect_metrics or profiler is not None:
        from ..telemetry import build_run_report

        telemetry = build_run_report(
            interpreter, cycle_model,
            profiler=profiler,
            debug_info=program.debug_info,
            workload=workload,
            sampling=sampled,
        )
    return RunResult(
        output=program.output,
        stats=stats,
        program=program,
        cycle_model=cycle_model,
        tracer=tracer,
        telemetry=telemetry,
        profiler=profiler,
        timeline=timeline,
        checkpoints=checkpoints,
        interpreter=interpreter,
        cancelled=cancelled,
        cancel_checkpoint=cancel_checkpoint,
        sampling=sampled,
    )


def open_plan_cache(
    built: BuildResult,
    *,
    directory: Optional[str] = None,
    block_len: Optional[int] = None,
    limit: Optional[int] = None,
):
    """Open the persistent superblock plan cache for one build.

    The cache file is keyed by the ELF image, the architecture
    description and the superblock cap (plus interpreter/Python
    versioning — see :mod:`repro.sim.plancache`), so any rebuild that
    changes the program, the ADL or ``block_len`` selects a fresh
    file.  Pass the result to :func:`run` as ``plan_cache``; warm runs
    then reload hot-plan translations (and whole-program AOT modules)
    instead of recompiling them.  ``limit`` caps the number of
    per-plan entries kept on disk (LRU eviction at save time).
    """
    import hashlib

    from ..sim.plancache import PlanCache
    from ..targetgen.codegen import architecture_digest

    elf_digest = hashlib.sha256(built.elf.write()).hexdigest()[:16]
    return PlanCache.open(
        elf_digest=elf_digest,
        arch_digest=architecture_digest(built.arch),
        directory=directory,
        block_len=block_len,
        limit=limit,
    )


def build_and_run(
    source: str,
    *,
    arch: Architecture = KAHRISMA,
    isa: str = "risc",
    isa_map: Optional[Dict[str, str]] = None,
    cycle_model=None,
    filename: str = "<kc>",
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> RunResult:
    """Convenience wrapper: build() followed by run()."""
    built = build(
        source, arch=arch, isa=isa, isa_map=isa_map, filename=filename
    )
    return run(built, cycle_model=cycle_model,
               max_instructions=max_instructions)
