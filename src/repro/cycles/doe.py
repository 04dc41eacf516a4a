"""Dynamic Operation Execution cycle model (paper Section VI-C).

Approximates the KAHRISMA microarchitecture: the slots of a VLIW
instruction need not issue together — they *drift* against each other.
An operation issues once the previous operation of its slot has issued
and the true data dependencies of its input registers are fulfilled:

* true data dependencies are modelled exactly like the ILP model (a
  per-register last-write completion cycle);
* per slot, the start cycle of the last issued operation is stored; a
  successor in the same slot starts at least one cycle later (one
  operation per slot and cycle);
* memory operations are routed through the memory hierarchy
  approximation in program order.

The model is deliberately heuristic (paper's three simplifications):
no functional-unit sharing between slots, unbounded drift, and
program-order memory accesses.  The RTL reference model
(:mod:`repro.rtl`) implements all three effects; Table II quantifies
the resulting approximation error.
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


class DoeModel(CycleModel):
    """Per-slot drifting issue with true-dependency tracking.

    ``branch_model`` optionally attaches the misprediction extension
    (the paper's future work): a mispredicted control operation stalls
    instruction fetch until it resolves plus the refill penalty.  The
    default (None) is the paper's perfect branch prediction.
    """

    name = "DOE"

    def __init__(
        self,
        issue_width: int = 8,
        memory: Optional[MemoryModule] = None,
        num_regs: int = 32,
        *,
        count_nop_issue: bool = True,
        branch_model: Optional[BranchModel] = None,
    ) -> None:
        super().__init__(num_regs)
        self.issue_width = issue_width
        self.memory = memory if memory is not None else build_hierarchy()
        #: Start cycle of the last operation issued per slot.
        self.slot_last_start: List[int] = [0] * issue_width
        self.max_completion = 0
        #: Whether NOP padding occupies its slot's issue stream (the
        #: hardware issues NOPs like any operation; disable to model a
        #: NOP-compressing fetch unit — used by the ablation bench).
        self.count_nop_issue = count_nop_issue
        self.branch_model = branch_model
        #: Earliest cycle any operation may start (fetch refill floor
        #: after a misprediction).
        self.fetch_floor = 0

    def reset(self) -> None:
        super().reset()
        self.memory.reset()
        self.slot_last_start = [0] * self.issue_width
        self.max_completion = 0
        if self.branch_model is not None:
            self.branch_model.reset()
        self.fetch_floor = 0

    def reset_timing(self) -> None:
        # Keeps cache tags/LRU and branch-predictor tables (content
        # warmed by the sampling tier); clears every absolute-cycle
        # timestamp so the next measured interval starts at cycle 0.
        super().reset_timing()
        self.memory.reset_timing()
        self.slot_last_start = [0] * self.issue_width
        self.max_completion = 0
        self.fetch_floor = 0

    def save_state(self):
        data = super().save_state()
        data["slot_last_start"] = list(self.slot_last_start)
        data["max_completion"] = self.max_completion
        data["fetch_floor"] = self.fetch_floor
        data["memory"] = save_hierarchy_state(self.memory)
        data["branch"] = (
            self.branch_model.save_state()
            if self.branch_model is not None else None
        )
        return data

    def load_state(self, data) -> None:
        super().load_state(data)
        slot_last = [int(c) for c in data["slot_last_start"]]
        if len(slot_last) != self.issue_width:
            raise ValueError(
                f"checkpoint DOE slot drift is {len(slot_last)} wide, "
                f"model issue width is {self.issue_width}"
            )
        self.slot_last_start = slot_last
        self.max_completion = int(data["max_completion"])
        self.fetch_floor = int(data["fetch_floor"])
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
        reg_cycle = self.reg_write_cycle
        slot_last = self.slot_last_start
        branch_model = self.branch_model
        timeline = self.timeline
        floor = self.fetch_floor
        pending_floor = floor
        for op in dec.ops:
            kind = op.kind_code
            slot = op.slot
            if kind == KIND_NOP:
                if self.count_nop_issue:
                    slot_last[slot] += 1
                continue
            self.ops += 1
            # One operation per slot and cycle, in slot order; never
            # before the fetch-refill floor.
            start = slot_last[slot] + 1
            if floor > start:
                start = floor
            for src in op.srcs:
                c = reg_cycle[src]
                if c > start:
                    start = c
            if kind == KIND_LOAD or kind == KIND_STORE:
                addr = (regs[op.mem_base] + op.mem_imm) & MASK32
                completion = self.memory.access(
                    addr, kind == KIND_STORE, slot, start
                )
            else:
                completion = start + op.delay
            slot_last[slot] = start
            if timeline is not None:
                # One Chrome-trace event per op on the slot's track:
                # the drifted issue interval (paper Section VI-C).
                timeline.op(slot, start, completion, op.name, dec.addr)
            for dst in op.dsts:
                reg_cycle[dst] = completion
            if completion > self.max_completion:
                self.max_completion = completion
            if branch_model is not None and kind == KIND_CTRL:
                if branch_model.observe_op(op, regs, dec.addr, dec.size):
                    refill = completion + branch_model.penalty
                    if refill > pending_floor:
                        pending_floor = refill
        self.fetch_floor = pending_floor

    @property
    def cycles(self) -> int:
        return self.max_completion

    # -- superblock fusion --------------------------------------------------

    def block_compiler(self) -> Optional["_DoeBlockCompiler"]:
        if self.timeline is not None:
            # Per-op timeline events need the observe path.
            return None
        return _DoeBlockCompiler(self)

    def config_signature(self) -> str:
        sig = (
            f"DOE:w{self.issue_width}:nop{int(self.count_nop_issue)}"
            f":mem={hierarchy_signature(self.memory)}"
        )
        if self.branch_model is not None:
            sig += f":branch={self.branch_model.signature()}"
        return sig


class _DoeBlockCompiler(BlockCompiler):
    """Emit DOE slot-drift accounting as flat superblock statements.

    Each slot drifts on its own: its last start cycle lives in the
    local ``_ys<slot>``, and NOP issue bumps in a slot fold into that
    slot's next operation's start constant.  Operations are accounted
    one by one in slot order, as :meth:`DoeModel.observe` does, so a
    later slot of a bundle sees an earlier slot's completion.
    Register-ready cycles are kept in per-register locals ``_yr<n>``:
    registers read before being written load from ``reg_write_cycle``
    in the prologue, registers written in the block store back once in
    the flush — intermediate list traffic (and dead overwrites)
    disappears.

    Two properties of a straight-line body justify folding the
    observe loop's clamps:

    * ``fetch_floor`` is loop-invariant (it only moves on a
      mispredicted *control* op, and control ops terminate blocks;
      with a branch model attached the terminator stays on the
      per-instruction observe path anyway), and each slot's start
      cycles strictly increase, so the floor clamp can only fire on
      a slot's first operation of the block;
    * NOP issue bumps fold into the slot's next start constant.

    An operation in a slot the model does not have (a bundle wider
    than ``issue_width``) refuses the plan: ``observe`` then raises
    exactly as it would on any engine.  All state is re-derived from
    the model argument ``m`` per call — see :class:`_AieBlockCompiler`
    for why.
    """

    def begin(self) -> None:
        self.uses_regs = False
        self._n_instr = 0
        self._n_ops = 0
        #: Folded issue bumps of preceding NOPs, per slot.
        self._nop_bias: dict = {}
        self._mem = False
        #: Slots that issued a non-NOP op so far (their ``_ys`` is live).
        self._core: set = set()
        #: Registers read before any in-block write (prologue loads).
        self._loaded: set = set()
        #: Registers written in the block so far (flush stores).
        self._written: set = set()

    def instr(self, dec: DecodedInstruction) -> Optional[List[str]]:
        if any(op.kind_code == KIND_CTRL for op in dec.ops):
            return None  # control ops never appear in bodies; be safe
        return self._emit_instr(dec)

    def term(self, dec: DecodedInstruction) -> Optional[List[str]]:
        if self.model.branch_model is not None:
            # Mispredictions move the fetch floor and need ``observe``.
            return None
        return self._emit_instr(dec)

    def _emit_instr(self, dec: DecodedInstruction) -> Optional[List[str]]:
        width = self.model.issue_width
        if any(op.slot >= width for op in dec.ops):
            return None
        self._n_instr += 1
        out: List[str] = []
        for op in dec.ops:
            kind = op.kind_code
            if kind == KIND_NOP:
                if self.model.count_nop_issue:
                    bias = self._nop_bias
                    bias[op.slot] = bias.get(op.slot, 0) + 1
                continue
            self._emit_op(op, kind, out)
        return out

    def _emit_op(self, op, kind: int, out: List[str]) -> None:
        self._n_ops += 1
        slot = op.slot
        yst = f"_ys{slot}"
        out.append(f"{yst} += {1 + self._nop_bias.pop(slot, 0)}")
        if slot not in self._core:
            out.append(f"if _yfl > {yst}: {yst} = _yfl")
            self._core.add(slot)
        for src in dict.fromkeys(op.srcs):
            if src not in self._written:
                self._loaded.add(src)
            out.append(f"if _yr{src} > {yst}: {yst} = _yr{src}")
        dsts = tuple(dict.fromkeys(op.dsts))
        target = f"_yr{dsts[0]}" if dsts else "_yx"
        if kind == KIND_LOAD or kind == KIND_STORE:
            self._mem = True
            out.append(
                f"{target} = _yacc({self.address(op)}, "
                f"{kind == KIND_STORE}, {slot}, {yst})"
            )
        elif op.delay:
            out.append(f"{target} = {yst} + {op.delay}")
        else:
            out.append(f"{target} = {yst}")
        if dsts:
            self._written.update(dsts)
            for dst in dsts[1:]:
                out.append(f"_yr{dst} = {target}")
        out.append(f"if {target} > _ymx: _ymx = {target}")

    def flush(self) -> List[str]:
        out: List[str] = []
        for slot in sorted(self._core | set(self._nop_bias)):
            bias = self._nop_bias.get(slot, 0)
            if slot in self._core:
                start = f"_ys{slot} + {bias}" if bias else f"_ys{slot}"
                out.append(f"m.slot_last_start[{slot}] = {start}")
            else:
                out.append(f"m.slot_last_start[{slot}] += {bias}")
        if self._core:
            out.append("m.max_completion = _ymx")
            for dst in sorted(self._written):
                out.append(f"_yrc[{dst}] = _yr{dst}")
        if self._n_instr:
            out.append(f"m.instructions += {self._n_instr}")
        if self._n_ops:
            out.append(f"m.ops += {self._n_ops}")
        return out

    def prologue(self) -> List[str]:
        if not self._core:
            return []
        out: List[str] = []
        if self._loaded or self._written:
            out.append("_yrc = m.reg_write_cycle")
        for src in sorted(self._loaded):
            out.append(f"_yr{src} = _yrc[{src}]")
        out.append("_ysl = m.slot_last_start")
        for slot in sorted(self._core):
            out.append(f"_ys{slot} = _ysl[{slot}]")
        out.append("_yfl = m.fetch_floor")
        out.append("_ymx = m.max_completion")
        if self._mem:
            out.append("_yacc = m.memory.access")
        return out
