"""Atomic Instruction Execution cycle model (paper Section VI-B).

All operations of an instruction are issued in the same cycle(s); the
next instruction issues only after every operation of the previous one
finished.  The instruction's delay is the maximum of its operations'
delays, with memory operations routed through the memory hierarchy
approximation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..sim.decoder import (
    DecodedInstruction,
    KIND_CTRL,
    KIND_LOAD,
    KIND_NOP,
    KIND_STORE,
)
from .base import BlockCompiler, CycleModel
from .branch import BranchModel
from .memmodel import (
    MASK32,
    MemoryModule,
    build_hierarchy,
    hierarchy_signature,
    load_hierarchy_state,
    save_hierarchy_state,
)


class AieModel(CycleModel):
    """Lock-step issue: instruction-atomic timing.

    ``branch_model`` optionally adds the misprediction extension: a
    mispredicted control operation charges the refill penalty before
    the next instruction issues.
    """

    name = "AIE"

    def __init__(
        self,
        memory: Optional[MemoryModule] = None,
        num_regs: int = 32,
        *,
        branch_model: Optional[BranchModel] = None,
    ) -> None:
        super().__init__(num_regs)
        self.memory = memory if memory is not None else build_hierarchy()
        self.current_cycle = 0
        self.branch_model = branch_model

    def reset(self) -> None:
        super().reset()
        self.memory.reset()
        self.current_cycle = 0
        if self.branch_model is not None:
            self.branch_model.reset()

    def reset_timing(self) -> None:
        # Content (cache tags, predictor tables) stays warm; the clock
        # and all timestamps derived from it restart at zero.
        super().reset_timing()
        self.memory.reset_timing()
        self.current_cycle = 0

    def save_state(self):
        data = super().save_state()
        data["current_cycle"] = self.current_cycle
        data["memory"] = save_hierarchy_state(self.memory)
        data["branch"] = (
            self.branch_model.save_state()
            if self.branch_model is not None else None
        )
        return data

    def load_state(self, data) -> None:
        super().load_state(data)
        self.current_cycle = int(data["current_cycle"])
        load_hierarchy_state(self.memory, data["memory"])
        branch = data.get("branch")
        if self.branch_model is not None:
            if branch is None:
                raise ValueError(
                    "checkpoint has no branch-model state but this model "
                    "has a branch predictor attached"
                )
            self.branch_model.load_state(branch)
        elif branch is not None:
            raise ValueError(
                "checkpoint carries branch-model state; attach the same "
                "predictor to restore it"
            )

    def observe(self, dec: DecodedInstruction, regs: Sequence[int]) -> None:
        self.instructions += 1
        issue = self.current_cycle
        max_completion = issue + 1  # an empty/NOP-only instruction still issues
        penalty = 0
        timeline = self.timeline
        for op in dec.ops:
            kind = op.kind_code
            if kind == KIND_NOP:
                continue
            self.ops += 1
            if kind == KIND_LOAD or kind == KIND_STORE:
                addr = (regs[op.mem_base] + op.mem_imm) & MASK32
                completion = self.memory.access(
                    addr, kind == KIND_STORE, op.slot, issue
                )
            else:
                completion = issue + op.delay
            if timeline is not None:
                timeline.op(op.slot, issue, completion, op.name, dec.addr)
            if completion > max_completion:
                max_completion = completion
            if self.branch_model is not None and kind == KIND_CTRL:
                if self.branch_model.observe_op(op, regs, dec.addr,
                                                dec.size):
                    penalty = self.branch_model.penalty
        self.current_cycle = max_completion + penalty

    @property
    def cycles(self) -> int:
        return self.current_cycle

    # -- superblock fusion --------------------------------------------------

    def block_compiler(self) -> Optional["_AieBlockCompiler"]:
        if self.timeline is not None:
            # Per-op timeline events need the observe path.
            return None
        return _AieBlockCompiler(self)

    def config_signature(self) -> str:
        sig = f"AIE:mem={hierarchy_signature(self.memory)}"
        if self.branch_model is not None:
            sig += f":branch={self.branch_model.signature()}"
        return sig


class _AieBlockCompiler(BlockCompiler):
    """Emit AIE accounting as flat statements for superblock bodies.

    All operations of an instruction — one op or a whole VLIW bundle —
    issue at one cycle, and control operations only terminate blocks,
    so per instruction the observe loop above reduces to:

    * no memory operation: ``current_cycle += max(1, delays)`` — a
      translate-time constant, merged across runs of consecutive
      instructions;
    * memory operations: one hierarchy query each, in slot order, at
      the shared issue cycle, then ``current_cycle`` = the latest of
      ``issue + max(1, other delays)`` and every access completion.

    The generated function receives the model as argument ``m`` and
    re-derives all state from it each call, so plans survive
    ``reset``/``load_state`` and persistent-cache reuse.  Timing
    locals use a ``_y`` prefix (functional locals use ``_t``/``_b``).
    """

    def begin(self) -> None:
        self.uses_regs = False
        self._n_instr = 0
        self._n_ops = 0
        #: Accumulated constant cycle advance not yet materialised as a
        #: ``_ycc`` update (flushed before each dynamic statement).
        self._pending = 0
        self._mem = False

    def _flush_pending(self, out: List[str]) -> None:
        if self._pending:
            out.append(f"_ycc += {self._pending}")
            self._pending = 0

    def instr(self, dec: DecodedInstruction) -> Optional[List[str]]:
        if any(op.kind_code == KIND_CTRL for op in dec.ops):
            return None  # control ops never appear in bodies; be safe
        return self._emit_instr(dec)

    def term(self, dec: DecodedInstruction) -> Optional[List[str]]:
        if self.model.branch_model is not None:
            # Mispredictions need the per-instruction observe hook.
            return None
        return self._emit_instr(dec)

    def _emit_instr(self, dec: DecodedInstruction) -> List[str]:
        self._n_instr += 1
        advance = 1  # an empty/NOP-only instruction still issues
        mem_ops = []
        for op in dec.ops:
            kind = op.kind_code
            if kind == KIND_NOP:
                continue
            self._n_ops += 1
            if kind == KIND_LOAD or kind == KIND_STORE:
                mem_ops.append(op)
            elif op.delay > advance:
                advance = op.delay
        if not mem_ops:
            self._pending += advance
            return []
        self._mem = True
        out: List[str] = []
        self._flush_pending(out)
        temps = []
        for index, op in enumerate(mem_ops):
            temp = f"_yx{index}"
            temps.append(temp)
            out.append(
                f"{temp} = _yacc({self.address(op)}, "
                f"{op.kind_code == KIND_STORE}, {op.slot}, _ycc)"
            )
        if len(temps) == 1:
            out.append(
                f"_ycc = _yx0 if _yx0 > _ycc + {advance} "
                f"else _ycc + {advance}"
            )
            return out
        out.append(f"_yn = _ycc + {advance}")
        for temp in temps:
            out.append(f"if {temp} > _yn: _yn = {temp}")
        out.append("_ycc = _yn")
        return out

    def flush(self) -> List[str]:
        out: List[str] = []
        if self._mem:
            cc = f"_ycc + {self._pending}" if self._pending else "_ycc"
            out.append(f"m.current_cycle = {cc}")
        elif self._pending:
            out.append(f"m.current_cycle += {self._pending}")
        if self._n_instr:
            out.append(f"m.instructions += {self._n_instr}")
        if self._n_ops:
            out.append(f"m.ops += {self._n_ops}")
        return out

    def prologue(self) -> List[str]:
        if not self._mem:
            return []
        return ["_ycc = m.current_cycle", "_yacc = m.memory.access"]
