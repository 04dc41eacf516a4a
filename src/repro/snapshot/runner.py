"""Periodic checkpointing and resume around the interpreter.

:func:`run_with_checkpoints` drives an :class:`Interpreter` in
``checkpoint_every``-sized slices, writing one checkpoint file at each
slice boundary; :func:`load_checkpoint_program` turns a checkpoint file
back into a ready-to-run :class:`~repro.binutils.loader.LoadedProgram`.
Both are engine-agnostic: a checkpoint taken under one engine resumes
under any other, because only architectural (not engine) state is
captured.

Checkpoint boundaries are *instruction* boundaries.  Under the
superblock engine a budget-bounded run finishes the tail instructions
of a partially-fitting block one at a time, so slicing changes which
loop executes some instructions — architectural state and the
architectural statistics are unaffected (that is the determinism
contract), while host-side engine counters (lookups, prediction hits)
legitimately differ.  ``docs/checkpointing.md`` spells this out.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..adl.model import Architecture
from ..binutils.loader import LoadedProgram
from ..sim.debuginfo import DebugInfo
from ..sim.interpreter import Interpreter
from ..sim.stats import SimStats
from ..sim.syscalls import Syscalls
from .capture import IncrementalPageEncoder, restore_run, snapshot_run
from .format import FILE_SUFFIX, CheckpointError, read_checkpoint, write_checkpoint

_UNLIMITED = 1 << 62


def checkpoint_path(directory: str, instructions: int,
                    prefix: str = "ckpt") -> str:
    """Canonical file name: ``<dir>/<prefix>-<instructions>.kchk``."""
    return os.path.join(
        directory, f"{prefix}-{instructions:012d}{FILE_SUFFIX}"
    )


@dataclass
class CheckpointedRun:
    """Result of :func:`run_with_checkpoints`."""

    #: Whole-run cumulative statistics (base + all executed slices).
    stats: SimStats
    #: Paths of the checkpoint files written, in instruction order.
    checkpoints: List[str] = field(default_factory=list)


def run_with_checkpoints(
    interp: Interpreter,
    syscalls: Syscalls,
    *,
    every: int,
    directory: str,
    max_instructions: Optional[int] = None,
    base_stats: Optional[SimStats] = None,
    workload: Optional[str] = None,
    prefix: str = "ckpt",
) -> CheckpointedRun:
    """Run to halt (or budget), checkpointing every ``every`` instructions.

    ``base_stats`` carries the cumulative statistics of earlier
    segments when the interpreter itself was constructed from a
    restored checkpoint; every file written contains base + progress so
    far, so any checkpoint alone is sufficient to resume the whole run.
    """
    if every <= 0:
        raise ValueError("checkpoint_every must be positive")
    os.makedirs(directory, exist_ok=True)
    base = base_stats.copy() if base_stats is not None else SimStats()
    encoder = IncrementalPageEncoder()
    budget = _UNLIMITED if max_instructions is None else max_instructions
    paths: List[str] = []
    while not interp.state.halted:
        done = interp.stats.executed_instructions
        if done >= budget:
            break
        interp.run(max_instructions=min(every, budget - done))
        if interp.state.halted:
            break  # final state is the run result; no checkpoint needed
        if interp.cancelled:
            # Cooperative cancellation fired inside the slice: the
            # caller (pipeline.run) writes the final resumable
            # checkpoint; looping on would spin forever at 0 progress.
            break
        merged = base.copy()
        merged.merge(interp.stats)
        payload = snapshot_run(
            interp.state, syscalls,
            stats=merged,
            cycle_model=interp.cycle_model,
            memory_encoder=encoder,
            meta={
                "instructions": merged.executed_instructions,
                "engine": interp.engine,
                "workload": workload,
            },
        )
        path = checkpoint_path(
            directory, merged.executed_instructions, prefix
        )
        write_checkpoint(path, payload)
        paths.append(path)
        if interp.events is not None:
            interp.events.emit(
                "checkpoint",
                path=path,
                instructions=merged.executed_instructions,
            )
    final = base.copy()
    final.merge(interp.stats)
    return CheckpointedRun(stats=final, checkpoints=paths)


@dataclass
class ResumedProgram:
    """A checkpoint turned back into a runnable program."""

    program: LoadedProgram
    #: Cumulative stats up to the checkpoint; merge the new segment in.
    base_stats: SimStats
    meta: Dict[str, object] = field(default_factory=dict)


def load_checkpoint_program(
    source,
    arch: Architecture,
    *,
    elf=None,
    cycle_model=None,
) -> ResumedProgram:
    """Rebuild a :class:`LoadedProgram` from a checkpoint.

    ``source`` is a checkpoint file path or an already-decoded payload
    dict.  ``elf`` (optional) re-attaches debug information — the
    checkpoint itself carries none, since symbolisation is a host-side
    concern.  ``cycle_model`` is restored in place when the checkpoint
    carries model state (see :func:`repro.snapshot.capture.restore_run`).
    """
    payload = read_checkpoint(source) if isinstance(source, str) else source
    restored = restore_run(payload, arch, cycle_model=cycle_model)
    program = LoadedProgram(
        restored.state, restored.syscalls, elf,
        # With the executable, debug info decodes on first access.
        debug_info=None if elf is not None else DebugInfo(),
    )
    return ResumedProgram(
        program=program,
        base_stats=restored.base_stats,
        meta=restored.meta,
    )
