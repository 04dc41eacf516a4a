"""Common interface of the cycle-approximation models (paper Section VI).

A cycle model is attached to the interpreter and *observes* every
executed instruction pre-commit (so source-register values, in
particular memory-address base registers, are still the values the
operations read).  It maintains its own notion of time; the simulator
never models the pipeline structurally.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..sim.decoder import DecodedInstruction


class BlockCompiler:
    """Per-model emitter of fused timing statements (superblock engine).

    A cycle model that can prove its accounting for a straight-line
    body is expressible as flat statements returns one of these from
    :meth:`CycleModel.block_compiler`.  The superblock translator then
    interleaves the emitted timing statements with the functional
    statements of each instruction — *before* the instruction's own
    writes, reproducing the pre-commit register view of the buffered
    per-instruction ``observe`` path, so fused cycle counts stay
    bitwise-identical.

    Protocol (all statements are unindented single lines; the
    translator indents them into the generated function):

    * :meth:`begin` resets the per-emission state; one emission covers
      one generated function.
    * :meth:`instr` returns the timing statements for one body
      instruction, or None when this instruction cannot be fused (the
      whole plan then falls back to per-instruction observation).
    * :meth:`term` returns the timing statements for a plain branch
      terminator, or None when the terminator must stay buffered
      (e.g. a branch-misprediction model needs ``observe``).
    * :meth:`flush` returns the write-back statements for the prefix
      emitted *so far* — counter increments and scalar state stored
      back onto the model argument ``m``.  It is emitted at every
      function exit: the normal epilogue and each self-modifying-code
      abort site, and must not mutate emission state (an abort site's
      flush covers only its prefix).
    * :meth:`prologue` (queried after emission) returns the binding
      statements deriving locals from ``m``.  Generated functions
      never capture model objects or their mutable lists — ``reset``/
      ``load_state`` replace those wholesale, and cached plans outlive
      both.
    """

    def __init__(self, model) -> None:
        self.model = model
        #: Set during emission when a timing statement reads ``regs``
        #: (effective-address computation); ORed into the functional
        #: body's own flag by the translator.
        self.uses_regs = False

    def address(self, op) -> str:
        """Effective-address expression of a memory operation: a
        register value is 32-bit already, so a zero offset needs no
        mask."""
        self.uses_regs = True
        if op.mem_imm == 0:
            return f"regs[{op.mem_base}]"
        return f"(regs[{op.mem_base}] + {op.mem_imm}) & 4294967295"

    def begin(self) -> None:
        raise NotImplementedError

    def instr(self, dec: DecodedInstruction) -> Optional[List[str]]:
        raise NotImplementedError

    def term(self, dec: DecodedInstruction) -> Optional[List[str]]:
        raise NotImplementedError

    def flush(self) -> List[str]:
        raise NotImplementedError

    def prologue(self) -> List[str]:
        raise NotImplementedError


class CycleModel:
    """Base class for ILP / AIE / DOE."""

    name = "abstract"

    def __init__(self, num_regs: int = 32) -> None:
        self.num_regs = num_regs
        #: Completion cycle of the last write to each register.
        self.reg_write_cycle: List[int] = [0] * num_regs
        #: Operations counted (non-NOP).
        self.ops = 0
        #: Instructions observed.
        self.instructions = 0

    def observe(self, dec: DecodedInstruction, regs: Sequence[int]) -> None:
        """Account for one executed instruction (called pre-commit)."""
        raise NotImplementedError

    #: Optional :class:`repro.telemetry.TimelineRecorder`.  When set,
    #: models that compute per-operation issue intervals (AIE/DOE)
    #: emit one Chrome-trace event per executed operation on the
    #: operation's slot track; None (the default) costs one attribute
    #: load per observed instruction.
    timeline = None

    #: Optional batched fast path for the superblock engine: models
    #: whose accounting never reads current register *values* (ILP)
    #: override this with a method taking ``(plan, regs)`` that
    #: observes all of ``plan.decs`` in one call, letting translated
    #: blocks run without per-instruction pauses.  Models that read
    #: ``regs`` pre-commit (AIE/DOE compute effective addresses from
    #: base registers) must leave it None — the engine then falls back
    #: to per-instruction ``observe`` with buffered commits, keeping
    #: cycle counts bit-identical across engines.
    observe_block = None

    def block_compiler(self) -> Optional[BlockCompiler]:
        """Emitter fusing this model's accounting into translated plans.

        Models that can express their per-instruction accounting as
        flat statements (AIE/DOE) return a :class:`BlockCompiler`;
        the default None keeps the per-instruction ``observe`` path.
        Models must return None whenever a configuration needs the
        per-instruction hook anyway (e.g. an attached ``timeline``
        records one event per executed operation).
        """
        return None

    def config_signature(self) -> str:
        """Timing-relevant configuration as a stable string.

        Used by the persistent plan cache to namespace fused variants:
        two models whose signatures match must emit identical fused
        code for the same plan.  The default covers models without
        tunable timing parameters; subclasses append theirs.
        """
        return self.name

    @property
    def cycles(self) -> int:
        """Approximated total cycle count so far."""
        raise NotImplementedError

    def reset(self) -> None:
        self.reg_write_cycle = [0] * self.num_regs
        self.ops = 0
        self.instructions = 0

    def reset_timing(self) -> None:
        """Zero the timing clock while keeping learned *content*.

        The sampling tier (:mod:`repro.framework.sampling`) warms a
        detailed model before each measured interval and needs the
        cycle clock re-based to zero without discarding what warming
        built up: cache tags stay resident and branch-predictor tables
        stay trained, but every absolute-cycle timestamp (register
        scoreboard, cache line availability, port reservations) is
        cleared — a stale timestamp from a previous interval's timeline
        would otherwise leak stalls into the fresh one.  Subclasses
        extend this; the base clears the register scoreboard only.
        """
        self.reg_write_cycle = [0] * self.num_regs

    # -- checkpointing ------------------------------------------------------

    def save_state(self) -> Dict[str, object]:
        """Model state as plain data (:mod:`repro.snapshot` contract).

        Subclasses extend the dict via ``super().save_state()``; the
        ``name`` field lets :meth:`load_state` reject a checkpoint
        taken under a different model.
        """
        return {
            "name": self.name,
            "reg_write_cycle": list(self.reg_write_cycle),
            "ops": self.ops,
            "instructions": self.instructions,
        }

    def load_state(self, data: Dict[str, object]) -> None:
        """Inverse of :meth:`save_state` on a same-configured model."""
        if data.get("name") != self.name:
            raise ValueError(
                f"checkpoint cycle-model state is for {data.get('name')!r}, "
                f"this model is {self.name!r}"
            )
        reg_cycle = [int(c) for c in data["reg_write_cycle"]]
        if len(reg_cycle) != self.num_regs:
            raise ValueError(
                f"checkpoint tracks {len(reg_cycle)} registers, "
                f"model tracks {self.num_regs}"
            )
        self.reg_write_cycle = reg_cycle
        self.ops = int(data["ops"])
        self.instructions = int(data["instructions"])

    # -- reporting ---------------------------------------------------------

    @property
    def ops_per_cycle(self) -> float:
        c = self.cycles
        return self.ops / c if c else 0.0

    def summary(self) -> str:
        return (
            f"{self.name}: {self.cycles} cycles, {self.ops} ops, "
            f"{self.ops_per_cycle:.3f} ops/cycle"
        )
