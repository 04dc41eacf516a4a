"""Superblock translation engine: cached straight-line execution plans.

The decode cache (Section V-A) already removes ~99.99 % of decodes and
instruction prediction ~99 % of hash lookups, but the interpreter still
pays per-instruction Python overhead: the prediction check, per-slot
dispatch, write-buffer commit and statistics bookkeeping.  This module
is the next step beyond interpretation — the translated-simulation
technique of Reshadi & Dutt and Blanqui et al.: turn the decoded
instruction stream into straight-line execution *plans* that run
without any of that per-instruction machinery.

On first execution of a basic-block entry the engine walks the decode
cache from the entry IP up to the next control transfer (branch, jump,
halt, simop or ISA switch) or :data:`MAX_BLOCK_LEN`, and flattens the
run into a :class:`SuperblockPlan`:

* a tuple of preallocated body rows ``(fn, vals, ip, next_ip)`` with
  instruction addresses baked in as constants (straight-line code has
  static IPs), NOP-only instructions elided;
* a single terminator record executed with full buffered semantics;
* precomputed block-total statistics deltas, accumulated once per block
  instead of once per instruction.

While a plan is cold its body runs as a loop over rows, of three
kinds.  When every body instruction is single-issue and has a *direct*
simulation variant (see :mod:`repro.targetgen.behavior_compiler`), the
rows run commit-free: each is one Python call that writes
architectural state in place.  Otherwise the rows are buffered (VLIW
bundles keep their read-before-write semantics).  Once hot, every plan
— single-issue or VLIW — is translated into one flat function: a
multi-operation bundle computes all its operations into locals and
commits after the last one.  Blocks are *chained* through their
observed successor — the block-level analogue of the paper's 1-bit
instruction prediction — so the steady state executes without even a
per-block hash lookup.

Cycle models still observe every instruction, three ways.  Models
exposing the batched :meth:`~repro.cycles.base.CycleModel.observe_block`
hook get one call per block (ILP opts in).  Models exposing a
:meth:`~repro.cycles.base.CycleModel.block_compiler` (AIE/DOE) get
their accounting *fused* into the translated plan: the compiler emits
flat timing statements that the translator interleaves before each
instruction's functional statements — reproducing the pre-commit
register view of buffered per-instruction observation, with latencies
constant-folded at translate time and a bundle's operations accounted
per slot in slot order — so fused counts are bitwise-identical to the
per-instruction path.  Everything else (and any configuration the
fused path cannot prove safe: per-op timelines, profiler-wrapped
models, a DOE model narrower than the code's bundles, branch-model
terminators) falls back to per-instruction ``observe`` on buffered
rows.

Hot plans can also be *persisted*: when a :class:`~repro.sim.plancache.
PlanCache` is attached, translated sources/code objects are recorded
under the plan's instruction-byte digest and reloaded on later runs
(or by parallel shard workers), skipping emission and ``compile``
entirely — see :mod:`repro.sim.plancache`.

Self-modifying code: plans register their pages with the memory's
code-watch set.  A store that overwrites planned bytes invalidates the
overlapping plans and decode-cache entries (see
:meth:`invalidate_write`), severs all block chains, and — through the
interpreter's invalidation cell — aborts the currently running block
after the offending instruction commits.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Tuple

from ..targetgen.behavior_compiler import (
    SIM_GLOBALS,
    InlinedStmts,
    inline_bundle_stmts,
    inline_direct_stmts,
)
from .decode_cache import DecodeCache
from .decoder import DecodedInstruction, KIND_NOP, KIND_STORE
from .errors import DecodeError, SimulationError
from .memory import PAGE_SHIFT, Memory
from .state import ProcessorState

#: Straight-line runs longer than this are split into multiple chained
#: plans (bounds build latency and invalidation granularity).
MAX_BLOCK_LEN = 64

#: A plan is translated into one flat Python function
#: on its Nth execution.  Translating costs an emission + ``compile``
#: pass (~0.3 ms), so cold blocks — init code, error paths — stay on
#: the cheap per-row call loop and never pay it.
HOT_THRESHOLD = 4

#: Row kinds of a cold plan: commit-free rows without stores,
#: commit-free rows with stores (need the invalidation check), buffered
#: rows (VLIW bundles).  Every kind is translated once hot.
PLAN_DIRECT = 0
PLAN_DIRECT_MEM = 1
PLAN_GENERAL = 2


def walk_block(
    cache: DecodeCache,
    mem: Memory,
    isa_id: int,
    entry_ip: int,
    max_len: int = MAX_BLOCK_LEN,
) -> Tuple[Tuple[DecodedInstruction, ...], bool]:
    """Walk one straight-line run through the decode cache.

    The single definition of a superblock's extent, shared by the
    interactive engine (:meth:`SuperblockEngine.build`) and the
    ahead-of-time compiler (:mod:`repro.sim.aot`) so both tiers carve
    identical blocks from identical bytes.  Returns the decoded
    instructions and whether the run ended on a control transfer
    (``False``: capped at ``max_len`` or truncated before an
    undecodable word).  An undecodable *entry* raises, exactly like
    executing it would.
    """
    decs: List[DecodedInstruction] = []
    terminated = False
    ip = entry_ip
    while len(decs) < max_len:
        try:
            dec = cache.lookup(mem, isa_id, ip)
        except DecodeError:
            if not decs:
                # The entry itself is undecodable: executing it
                # would raise identically, so let it propagate.
                raise
            # Truncate before the bad word; if control ever falls
            # through to it, the next build raises at its entry.
            break
        decs.append(dec)
        if dec.is_control:
            terminated = True
            break
        ip += dec.size
    return tuple(decs), terminated


def plan_digest(mem: Memory, span: Tuple[int, int]) -> str:
    """Digest of the instruction bytes a plan covers (cache key)."""
    start, end = span
    return hashlib.sha256(
        bytes(mem.load_bytes(start, end - start))
    ).hexdigest()[:16]


class SuperblockPlan:
    """One translated straight-line run plus its terminator."""

    __slots__ = (
        "isa_id",
        "entry_ip",
        "kind",
        "body",
        "body_fn",
        "full_fn",
        "fused_body_fn",
        "fused_full_fn",
        "code_digest",
        "exec_count",
        "obs_body",
        "term_dec",
        "term_fn",
        "term_vals",
        "term_ops",
        "term_ip",
        "term_next_ip",
        "end_ip",
        "decs",
        "n_instr",
        "n_slots",
        "n_exec",
        "n_mem_instr",
        "n_mem_ops",
        "has_store",
        "pred_ip",
        "pred_isa",
        "pred_plan",
    )

    def __init__(
        self,
        isa_id: int,
        entry_ip: int,
        decs: Tuple[DecodedInstruction, ...],
        terminated: bool,
    ) -> None:
        self.isa_id = isa_id
        self.entry_ip = entry_ip
        self.decs = decs
        body_decs = decs[:-1] if terminated else decs

        self.n_instr = len(decs)
        self.n_slots = sum(d.n_slots for d in decs)
        self.n_exec = sum(d.n_exec for d in decs)
        self.n_mem_instr = sum(1 for d in decs if d.has_mem)
        self.n_mem_ops = sum(d.n_mem for d in decs)
        self.has_store = any(
            op.kind_code == KIND_STORE for d in decs for op in d.ops
        )

        # Buffered observation rows: every body instruction (including
        # NOP-only bundles — cycle models must see those issue).
        self.obs_body = tuple(
            (d.exec_ops, d.addr, d.addr + d.size, d) for d in body_decs
        )

        # Functional body rows with static IPs.  Commit-free when every
        # instruction is single-issue with a direct variant.
        direct_ok = all(
            d.single is not None
            and (d.single.kind_code == KIND_NOP
                 or d.single.direct_fn is not None)
            for d in body_decs
        )
        rows: List[Tuple] = []
        body_has_store = False
        for d in body_decs:
            if d.n_exec == 0:
                continue  # NOP-only: IP advance is baked into the rows
            next_ip = d.addr + d.size
            if direct_ok:
                rows.append((d.single.direct_fn, d.single.vals,
                             d.addr, next_ip))
            elif d.single is not None:
                rows.append((d.single.sim_fn, d.single.vals,
                             d.addr, next_ip))
            else:
                rows.append((None, d.exec_ops, d.addr, next_ip))
            if any(op.kind_code == KIND_STORE for op in d.ops):
                body_has_store = True
        self.body = tuple(rows)
        if direct_ok:
            self.kind = PLAN_DIRECT_MEM if body_has_store else PLAN_DIRECT
        else:
            self.kind = PLAN_GENERAL
        #: Flat translated code, compiled lazily once the plan is hot
        #: (see :meth:`translate`); the row loop is the cold path.
        #: ``full_fn`` covers body *and* terminator and returns the next
        #: IP (or ``~stop_ip`` on a self-modifying-code abort);
        #: ``body_fn`` covers only the body and returns None (or the
        #: positive ``stop_ip`` on abort).  The ``fused_*`` twins carry
        #: the same contract but take the cycle model as a third
        #: argument and interleave its compiled accounting.
        self.body_fn = None
        self.full_fn = None
        self.fused_body_fn = None
        self.fused_full_fn = None
        #: Digest of the plan's instruction bytes (persistent plan
        #: cache key; None when no cache is attached).
        self.code_digest = None
        self.exec_count = 0

        # Terminator (None for blocks capped at MAX_BLOCK_LEN or
        # truncated before an undecodable word).
        if terminated:
            term = decs[-1]
            self.term_dec = term
            self.term_ip = term.addr
            self.term_next_ip = term.addr + term.size
            self.end_ip = self.term_next_ip
            if term.single is not None:
                self.term_fn = term.single.sim_fn
                self.term_vals = term.single.vals
                self.term_ops = None
            else:
                self.term_fn = None
                self.term_vals = None
                self.term_ops = term.exec_ops
        else:
            self.term_dec = None
            self.term_fn = None
            self.term_vals = None
            self.term_ops = None
            self.term_ip = -1
            self.term_next_ip = -1
            last = decs[-1]
            self.end_ip = last.addr + last.size

        # Block chaining (1-entry successor prediction).
        self.pred_ip = -1
        self.pred_isa = -1
        self.pred_plan: Optional["SuperblockPlan"] = None

    def translate(self, timing=None) -> Dict[str, Tuple[str, object]]:
        """Compile the plan into flat translated functions.

        Called by the engine once the plan crosses
        :data:`HOT_THRESHOLD`.  Without ``timing`` the preferred
        outcome is ``full_fn`` (body plus an inlined branch terminator
        — one call per block); otherwise ``body_fn`` (buffered
        terminator stays); otherwise nothing, leaving the per-row call
        loop in charge.  With ``timing`` (a
        :class:`~repro.cycles.base.BlockCompiler`) the fused variants
        are compiled instead, interleaving the cycle model's
        accounting; a refusal by the compiler leaves the plan on the
        per-instruction observe path.

        Returns the compiled variants as ``{name: (source, code)}``
        for the engine's persistent plan cache.
        """
        variants: Dict[str, Tuple[str, object]] = {}
        body_decs = (
            self.decs[:-1] if self.term_dec is not None else self.decs
        )
        body_has_store = any(
            op.kind_code == KIND_STORE for d in body_decs for op in d.ops
        )
        term = self.term_dec
        if timing is not None:
            if term is not None:
                fused = _translate_fused_plan(
                    body_decs, body_has_store, term,
                    self.isa_id, self.entry_ip, timing,
                )
                if fused is not None:
                    self.fused_full_fn, source, code = fused
                    variants["fused_full"] = (source, code)
                    return variants
            fused = _translate_fused_body(
                body_decs, body_has_store, self.isa_id, self.entry_ip,
                timing,
            )
            if fused is not None:
                self.fused_body_fn, source, code = fused
                variants["fused_body"] = (source, code)
            return variants
        if term is not None:
            full = _translate_plan(
                body_decs, body_has_store, term,
                self.isa_id, self.entry_ip,
            )
            if full is not None:
                self.full_fn, source, code = full
                variants["full"] = (source, code)
                return variants
        body = _translate_body(
            body_decs, body_has_store, self.isa_id, self.entry_ip
        )
        if body is not None:
            self.body_fn, source, code = body
            variants["body"] = (source, code)
        return variants

    def attach_variants(self, fns: Dict[str, Callable]) -> None:
        """Adopt compiled functions reloaded from a persistent cache."""
        self.full_fn = fns.get("full")
        self.body_fn = fns.get("body")
        self.fused_full_fn = fns.get("fused_full")
        self.fused_body_fn = fns.get("fused_body")
        self.exec_count = HOT_THRESHOLD

    @property
    def span(self) -> Tuple[int, int]:
        """[start, end) byte range covered by the plan's instructions."""
        first = self.decs[0]
        last = self.decs[-1]
        return first.addr, last.addr + last.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SuperblockPlan isa={self.isa_id} entry={self.entry_ip:#x} "
            f"n={self.n_instr} kind={self.kind}>"
        )


def _exec_ops(dec: DecodedInstruction):
    return [op for op in dec.ops if op.kind_code != KIND_NOP]


def _inline_instr(dec: DecodedInstruction) -> Optional[InlinedStmts]:
    """Straight-line statements of one non-control instruction.

    A lone operation with a direct variant inlines as direct writes;
    anything else — a multi-operation bundle — in bundle mode, which
    commits after every operation computed.  None when the instruction
    cannot be inlined.
    """
    ops = _exec_ops(dec)
    if len(ops) == 1 and ops[0].direct_fn is not None:
        op = ops[0]
        return inline_direct_stmts(
            op.entry.op, op.vals, dec.addr, dec.addr + dec.size
        )
    return inline_bundle_stmts(
        [(op.entry.op, op.vals) for op in ops],
        dec.addr, dec.addr + dec.size,
    )


def inline_terminator(term: DecodedInstruction) -> Optional[InlinedStmts]:
    """Statements of a branch terminator; every path returns the next IP.

    The instruction inlines in bundle mode, a lone branch included: the
    return paths follow the instruction's commit.  None — the
    terminator stays buffered — for a switch, simop or halt, and for
    an instruction that stores: a store there could rewrite code after
    the block's last abort point.
    """
    inlined = inline_bundle_stmts(
        [(op.entry.op, op.vals) for op in _exec_ops(term)],
        term.addr, term.addr + term.size,
    )
    if inlined is None or inlined[3]:
        return None
    return inlined


def _emit_body_lines(
    body_decs: Tuple[DecodedInstruction, ...],
    has_store: bool,
    invert_abort: bool,
    timing=None,
) -> Optional[Tuple[List[str], bool, set, set]]:
    """Inline every body instruction; None when not flatly translatable.

    After each store instruction of a store-carrying block an
    invalidation check is emitted, returning the committed
    instruction's successor IP on a self-modifying-code hit —
    bit-inverted (negative) when the function's normal return values
    are IPs themselves (``invert_abort``).

    With ``timing`` (a :class:`~repro.cycles.base.BlockCompiler` whose
    ``begin()`` the caller already invoked) each instruction's timing
    statements are interleaved *before* its functional statements —
    the compiled analogue of observing pre-commit — and every abort
    site flushes the model's prefix totals before returning.  A None
    from ``timing.instr`` rejects the whole body.
    """
    lines: List[str] = []
    uses_regs = False
    loads: set = set()
    stores: set = set()
    for d in body_decs:
        if timing is not None:
            t_stmts = timing.instr(d)
            if t_stmts is None:
                return None
            for stmt in t_stmts:
                lines.append("    " + stmt)
        if d.n_exec == 0:
            continue
        inlined = _inline_instr(d)
        if inlined is None:
            return None  # fall back to the per-row call loop
        stmts, i_regs, i_loads, i_stores = inlined
        lines.extend(stmts)
        uses_regs = uses_regs or i_regs
        loads |= i_loads
        stores |= i_stores
        if has_store and i_stores:
            stop = d.addr + d.size
            lines.append("    if inv[0]:")
            if timing is not None:
                # The aborting store has been counted (its timing ran
                # above); flush the prefix totals, matching what the
                # per-instruction path observes before the abort.
                for stmt in timing.flush():
                    lines.append("        " + stmt)
            lines.append(f"        return {~stop if invert_abort else stop}")
    return lines, uses_regs, loads, stores


def _compile_plan_fn(
    lines: List[str],
    uses_regs: bool,
    loads: set,
    stores: set,
    isa_id: int,
    entry_ip: int,
    timing_prologue: Optional[List[str]] = None,
    fused: bool = False,
) -> Tuple[Callable, str, object]:
    prologue: List[str] = []
    if uses_regs:
        prologue.append("    regs = state.regs")
    for intrinsic in sorted(loads):
        size = intrinsic[1]
        prologue.append(f"    ld{size} = state.mem.load{size}")
    for size in sorted(stores):
        prologue.append(f"    st{size} = state.mem.store{size}")
    if timing_prologue:
        for stmt in timing_prologue:
            prologue.append("    " + stmt)
    header = (
        "def _superblock_body(state, inv, m):" if fused
        else "def _superblock_body(state, inv):"
    )
    source = "\n".join([header] + prologue + lines)
    code = compile(source, f"<superblock:{isa_id}:{entry_ip:#x}>", "exec")
    namespace: Dict[str, object] = dict(SIM_GLOBALS)
    exec(code, namespace)
    return namespace["_superblock_body"], source, code


def _translate_body(
    body_decs: Tuple[DecodedInstruction, ...],
    has_store: bool,
    isa_id: int,
    entry_ip: int,
) -> Optional[Tuple[Callable, str, object]]:
    """Compile a plan body into one flat Python function.

    The generated function executes every body instruction as inlined
    straight-line statements (no per-instruction calls, dispatch or
    bookkeeping) and returns None; on a self-modifying-code hit it
    returns the positive stop IP.  The terminator stays buffered.
    """
    emitted = _emit_body_lines(body_decs, has_store, invert_abort=False)
    if emitted is None or not emitted[0]:
        return None
    lines, uses_regs, loads, stores = emitted
    return _compile_plan_fn(
        lines, uses_regs, loads, stores, isa_id, entry_ip
    )


def _translate_plan(
    body_decs: Tuple[DecodedInstruction, ...],
    has_store: bool,
    term: DecodedInstruction,
    isa_id: int,
    entry_ip: int,
) -> Optional[Tuple[Callable, str, object]]:
    """Compile body *plus* branch terminator into one flat function.

    Every path returns the next IP directly (branch targets and the
    fall-through are literals folded at translation time); an abort
    returns ``~stop_ip``.  Only terminators :func:`inline_terminator`
    accepts are inlined — switches, simops, halts and storing bundles
    keep the buffered terminator path.
    """
    inlined = inline_terminator(term)
    if inlined is None:
        return None
    emitted = _emit_body_lines(body_decs, has_store, invert_abort=True)
    if emitted is None:
        return None
    lines, uses_regs, loads, stores = emitted
    t_lines, t_regs, t_loads, t_stores = inlined
    lines.extend(t_lines)
    return _compile_plan_fn(
        lines, uses_regs or t_regs, loads | t_loads, stores | t_stores,
        isa_id, entry_ip,
    )


def _translate_fused_body(
    body_decs: Tuple[DecodedInstruction, ...],
    has_store: bool,
    isa_id: int,
    entry_ip: int,
    timing,
) -> Optional[Tuple[Callable, str, object]]:
    """Compile a body with the cycle model's accounting fused in.

    Same contract as :func:`_translate_body` (returns None or the
    positive stop IP on abort) but the generated function takes the
    cycle model as third argument ``m`` and advances it exactly as the
    per-instruction observe path would — the model never needs to see
    the individual instructions.
    """
    timing.begin()
    emitted = _emit_body_lines(
        body_decs, has_store, invert_abort=False, timing=timing
    )
    if emitted is None or not emitted[0]:
        return None
    lines, uses_regs, loads, stores = emitted
    for stmt in timing.flush():
        lines.append("    " + stmt)
    return _compile_plan_fn(
        lines, uses_regs or timing.uses_regs, loads, stores,
        isa_id, entry_ip,
        timing_prologue=timing.prologue(), fused=True,
    )


def _translate_fused_plan(
    body_decs: Tuple[DecodedInstruction, ...],
    has_store: bool,
    term: DecodedInstruction,
    isa_id: int,
    entry_ip: int,
    timing,
) -> Optional[Tuple[Callable, str, object]]:
    """Fused analogue of :func:`_translate_plan` (body + terminator).

    The terminator's timing statements run before its functional
    statements, and the model flush precedes them all, so it covers
    every return path.  ``timing.term`` may refuse — e.g. when a
    branch model needs the per-instruction misprediction hook —
    pushing the plan down to :func:`_translate_fused_body`.
    """
    inlined = inline_terminator(term)
    if inlined is None:
        return None
    timing.begin()
    emitted = _emit_body_lines(
        body_decs, has_store, invert_abort=True, timing=timing
    )
    if emitted is None:
        return None
    t_timing = timing.term(term)
    if t_timing is None:
        return None
    lines, uses_regs, loads, stores = emitted
    for stmt in t_timing:
        lines.append("    " + stmt)
    for stmt in timing.flush():
        lines.append("    " + stmt)
    t_lines, t_regs, t_loads, t_stores = inlined
    lines.extend(t_lines)
    return _compile_plan_fn(
        lines, uses_regs or t_regs or timing.uses_regs,
        loads | t_loads, stores | t_stores,
        isa_id, entry_ip,
        timing_prologue=timing.prologue(), fused=True,
    )


class SuperblockEngine:
    """Builds, caches, chains and executes superblock plans."""

    def __init__(
        self,
        cache: DecodeCache,
        *,
        chain: bool = True,
        max_block_len: Optional[int] = None,
    ) -> None:
        self.cache = cache
        #: Straight-line cap (satellite of the AOT tier: previously the
        #: module constant :data:`MAX_BLOCK_LEN`, now per-engine so the
        #: cap ablation and the plan-cache key can vary it).
        self.max_block_len = (
            MAX_BLOCK_LEN if max_block_len is None else max_block_len
        )
        self.plans: Dict[Tuple[int, int], SuperblockPlan] = {}
        self._by_page: Dict[int, List[Tuple[int, int]]] = {}
        #: Block chaining toggle (the ablation bench measures its win).
        self.chain = chain
        #: Optional block-mode hot-spot profiler
        #: (:class:`repro.telemetry.HotspotProfiler`): one
        #: ``record_block`` per completed plan execution, one
        #: ``record_block_prefix`` per rare mid-block SMC abort.  Costs
        #: a single None-check per block when unset.
        self.profiler = None
        #: Optional :class:`~repro.cycles.base.BlockCompiler` (set by
        #: the interpreter when the cycle model offers one): hot plans
        #: translate with the model's accounting fused in.
        self.fuser = None
        #: Optional :class:`~repro.sim.plancache.PlanCache` plus the
        #: variant namespace to read/write (``""`` for purely
        #: functional plans, the model's ``config_signature()`` for
        #: fused ones).  Both None disables persistence.
        self.plan_cache = None
        self.cache_namespace = None
        self.plans_built = 0
        self.blocks_executed = 0
        self.chain_hits = 0
        #: Hot-translation compile passes this run / plans reloaded
        #: from the persistent cache instead (warm starts translate 0).
        self.translations = 0
        self.plan_cache_hits = 0

    # -- plan construction -------------------------------------------------

    def build(self, mem: Memory, isa_id: int, entry_ip: int) -> SuperblockPlan:
        """Translate the straight-line run starting at ``entry_ip``."""
        decs, terminated = walk_block(
            self.cache, mem, isa_id, entry_ip, self.max_block_len
        )
        plan = SuperblockPlan(isa_id, entry_ip, decs, terminated)
        pcache = self.plan_cache
        if pcache is not None and self.cache_namespace is not None:
            plan.code_digest = plan_digest(mem, plan.span)
            hit = pcache.lookup(
                isa_id, entry_ip, self.cache_namespace, plan.code_digest
            )
            if hit is not None:
                plan.attach_variants(hit)
                self.plan_cache_hits += 1
        key = (isa_id, entry_ip)
        self.plans[key] = plan
        start, end = plan.span
        for page in range(start >> PAGE_SHIFT,
                          ((end - 1) >> PAGE_SHIFT) + 1):
            self._by_page.setdefault(page, []).append(key)
        self.plans_built += 1
        return plan

    # -- hot translation ---------------------------------------------------

    def _hot_translate(self, plan: SuperblockPlan, model,
                       observe_block) -> None:
        """Translate a plan that just crossed :data:`HOT_THRESHOLD`.

        The variant compiled depends on how ``model`` observes:
        nothing at all (functional) and block-observing models without
        stores get the plain functions; models offering a fuser get
        the fused ones; everything else stays per-instruction — for
        which no compiled function helps, so nothing is compiled.
        Results (including a failed attempt's empty set, so warm runs
        never retry) land in the persistent cache when one is attached.
        """
        if model is None:
            variants = plan.translate()
        elif self.fuser is not None:
            variants = plan.translate(timing=self.fuser)
        elif observe_block is not None:
            if plan.has_store:
                return
            variants = plan.translate()
        else:
            return
        self.translations += 1
        if (
            self.plan_cache is not None
            and self.cache_namespace is not None
            and plan.code_digest is not None
        ):
            self.plan_cache.record(
                plan.isa_id, plan.entry_ip, plan.span,
                plan.code_digest, self.cache_namespace, variants,
            )

    def untranslated_plans(self, model) -> int:
        """Hot plans with no translated variant for ``model``.

        ``model`` is the run's cycle model (None: functional).  Such a
        plan runs its row loop (or per-instruction ``observe``) on
        every execution; a configuration that never translates (a
        model observing per instruction) reports all its hot plans.
        """
        if self.fuser is not None and model is not None:
            names = ("fused_full_fn", "fused_body_fn")
        elif model is None or getattr(model, "observe_block", None):
            names = ("full_fn", "body_fn")
        else:
            names = ()
        return sum(
            1 for plan in self.plans.values()
            if plan.exec_count >= HOT_THRESHOLD
            and not any(getattr(plan, name) for name in names)
        )

    # -- invalidation ------------------------------------------------------

    def _sever_chains(self) -> None:
        for plan in self.plans.values():
            plan.pred_ip = -1
            plan.pred_isa = -1
            plan.pred_plan = None

    def invalidate(self) -> None:
        """Drop every plan (full decode-cache invalidation)."""
        self._sever_chains()
        self.plans.clear()
        self._by_page.clear()

    def invalidate_write(self, page: int, addr: int, length: int) -> bool:
        """Drop plans whose instruction bytes intersect the write."""
        keys = self._by_page.get(page)
        if not keys:
            return False
        end = addr + length
        stale = []
        for key in keys:
            plan = self.plans.get(key)
            if plan is None:
                continue
            start, stop = plan.span
            if start < end and addr < stop:
                stale.append(key)
        if not stale:
            return False
        self._sever_chains()
        for key in stale:
            plan = self.plans.pop(key, None)
            if plan is None:
                continue
            start, stop = plan.span
            for p in range(start >> PAGE_SHIFT,
                           ((stop - 1) >> PAGE_SHIFT) + 1):
                bucket = self._by_page.get(p)
                if bucket is not None and key in bucket:
                    bucket.remove(key)
        return True

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        state: ProcessorState,
        model,
        budget: int,
        inv: List[bool],
        commit: Callable[[int, int, int, int, int], None],
    ) -> int:
        """Run chained superblocks until halt, budget or a tail block.

        Passes the locally accumulated ``(instructions, slots, ops,
        memory instructions, memory ops)`` of the completed
        instructions to ``commit``, on return and on a guest trap alike,
        and returns the instruction count.  When the remaining budget
        cannot fit the next whole block the method returns early and
        the caller finishes per-instruction.
        """
        mem = state.mem
        regs = state.regs
        plans = self.plans
        chain = self.chain
        s4, s2, s1 = mem.store4, mem.store2, mem.store1
        regwr: list = []
        memwr: list = []
        executed = slots = ops_exec = mem_instr = mem_ops = 0
        blocks = chains = 0
        profiler = self.profiler
        observe_block = (
            getattr(model, "observe_block", None)
            if model is not None else None
        )
        fuser = self.fuser if model is not None else None
        prev: Optional[SuperblockPlan] = None

        try:
            while not state.halted and executed < budget:
                ip = state.ip
                isa_id = state.isa_id
                if (
                    prev is not None
                    and prev.pred_ip == ip
                    and prev.pred_isa == isa_id
                ):
                    plan = prev.pred_plan
                    chains += 1
                else:
                    key = (isa_id, ip)
                    plan = plans.get(key)
                    if plan is None:
                        plan = self.build(mem, isa_id, ip)
                    if chain and prev is not None:
                        prev.pred_ip = ip
                        prev.pred_isa = isa_id
                        prev.pred_plan = plan
                if executed + plan.n_instr > budget:
                    break  # tail: the interpreter finishes per-instruction
                prev = plan
                blocks += 1
                aborted = False
                n = plan.exec_count
                if n < HOT_THRESHOLD:
                    plan.exec_count = n + 1
                    if n + 1 == HOT_THRESHOLD:
                        self._hot_translate(plan, model, observe_block)

                # -- body --------------------------------------------------
                if model is None or (
                    observe_block is not None and not plan.has_store
                ):
                    if observe_block is not None and model is not None:
                        observe_block(plan, regs)
                    full_fn = plan.full_fn
                    if full_fn is not None:
                        # Fully translated block: one call executes body
                        # and terminator and yields the next IP.
                        r = full_fn(state, inv)
                        if r >= 0:
                            state.ip = r
                            executed += plan.n_instr
                            slots += plan.n_slots
                            ops_exec += plan.n_exec
                            mem_instr += plan.n_mem_instr
                            mem_ops += plan.n_mem_ops
                            if profiler is not None:
                                profiler.record_block(plan)
                            continue
                        # A store rewrote translated code mid-block.
                        inv[0] = False
                        stop = ~r
                        if profiler is not None:
                            profiler.record_block_prefix(plan, stop)
                        d = _partial_stats(plan, stop)
                        executed += d[0]; slots += d[1]
                        ops_exec += d[2]; mem_instr += d[3]
                        mem_ops += d[4]
                        state.ip = stop
                        prev = None
                        continue
                    kind = plan.kind
                    body_fn = plan.body_fn
                    if body_fn is not None:
                        stop = body_fn(state, inv)
                        if stop is not None:
                            # A store rewrote translated code mid-block.
                            inv[0] = False
                            if profiler is not None:
                                profiler.record_block_prefix(plan, stop)
                            d = _partial_stats(plan, stop)
                            executed += d[0]; slots += d[1]
                            ops_exec += d[2]; mem_instr += d[3]
                            mem_ops += d[4]
                            state.ip = stop
                            prev = None
                            aborted = True
                    elif kind == PLAN_DIRECT:
                        for fn, vals, ip_c, nip_c in plan.body:
                            fn(state, vals, ip_c, nip_c)
                    elif kind == PLAN_DIRECT_MEM:
                        for fn, vals, ip_c, nip_c in plan.body:
                            fn(state, vals, ip_c, nip_c)
                            if inv[0]:
                                inv[0] = False
                                if profiler is not None:
                                    profiler.record_block_prefix(plan, nip_c)
                                d = _partial_stats(plan, nip_c)
                                executed += d[0]; slots += d[1]
                                ops_exec += d[2]; mem_instr += d[3]
                                mem_ops += d[4]
                                state.ip = nip_c
                                prev = None
                                aborted = True
                                break
                    else:
                        for fn, vals, ip_c, nip_c in plan.body:
                            if fn is not None:
                                fn(state, vals, ip_c, nip_c, regwr, memwr)
                            else:
                                for f2, v2 in vals:
                                    f2(state, v2, ip_c, nip_c, regwr, memwr)
                            if regwr:
                                for reg, val in regwr:
                                    regs[reg] = val
                                regs[0] = 0
                                del regwr[:]
                            if memwr:
                                for size, addr, val in memwr:
                                    if size == 4:
                                        s4(addr, val)
                                    elif size == 2:
                                        s2(addr, val)
                                    else:
                                        s1(addr, val)
                                del memwr[:]
                                if inv[0]:
                                    inv[0] = False
                                    if profiler is not None:
                                        profiler.record_block_prefix(
                                            plan, nip_c
                                        )
                                    d = _partial_stats(plan, nip_c)
                                    executed += d[0]; slots += d[1]
                                    ops_exec += d[2]; mem_instr += d[3]
                                    mem_ops += d[4]
                                    state.ip = nip_c
                                    prev = None
                                    aborted = True
                                    break
                    observed_term = observe_block is not None
                elif fuser is not None and plan.fused_full_fn is not None:
                    # Fully translated block with the model's accounting
                    # fused in: one call executes body, terminator and
                    # cycle bookkeeping and yields the next IP.
                    r = plan.fused_full_fn(state, inv, model)
                    if r >= 0:
                        state.ip = r
                        executed += plan.n_instr
                        slots += plan.n_slots
                        ops_exec += plan.n_exec
                        mem_instr += plan.n_mem_instr
                        mem_ops += plan.n_mem_ops
                        if profiler is not None:
                            profiler.record_block(plan)
                        continue
                    # A store rewrote translated code mid-block; the fused
                    # flush at the abort site already charged the prefix.
                    inv[0] = False
                    stop = ~r
                    if profiler is not None:
                        profiler.record_block_prefix(plan, stop)
                    d = _partial_stats(plan, stop)
                    executed += d[0]; slots += d[1]
                    ops_exec += d[2]; mem_instr += d[3]
                    mem_ops += d[4]
                    state.ip = stop
                    prev = None
                    continue
                elif fuser is not None and plan.fused_body_fn is not None:
                    # Fused body; the terminator keeps full buffered
                    # semantics (and per-instruction observation) below.
                    stop = plan.fused_body_fn(state, inv, model)
                    if stop is not None:
                        inv[0] = False
                        if profiler is not None:
                            profiler.record_block_prefix(plan, stop)
                        d = _partial_stats(plan, stop)
                        executed += d[0]; slots += d[1]
                        ops_exec += d[2]; mem_instr += d[3]
                        mem_ops += d[4]
                        state.ip = stop
                        prev = None
                        aborted = True
                    observed_term = False
                else:
                    # Per-instruction observing path (AIE/DOE, or any block
                    # containing stores — keeps abort and observe aligned).
                    for ops_t, ip_c, nip_c, dec in plan.obs_body:
                        for f2, v2 in ops_t:
                            f2(state, v2, ip_c, nip_c, regwr, memwr)
                        model.observe(dec, regs)
                        if regwr:
                            for reg, val in regwr:
                                regs[reg] = val
                            regs[0] = 0
                            del regwr[:]
                        if memwr:
                            for size, addr, val in memwr:
                                if size == 4:
                                    s4(addr, val)
                                elif size == 2:
                                    s2(addr, val)
                                else:
                                    s1(addr, val)
                            del memwr[:]
                            if inv[0]:
                                inv[0] = False
                                if profiler is not None:
                                    profiler.record_block_prefix(plan, nip_c)
                                d = _partial_stats(plan, nip_c)
                                executed += d[0]; slots += d[1]
                                ops_exec += d[2]; mem_instr += d[3]
                                mem_ops += d[4]
                                state.ip = nip_c
                                prev = None
                                aborted = True
                                break
                    observed_term = False
                if aborted:
                    continue

                # -- terminator (full buffered semantics) ---------------------
                if plan.term_dec is not None:
                    ip_c = plan.term_ip
                    nip_c = plan.term_next_ip
                    new_ip = None
                    fn = plan.term_fn
                    if fn is not None:
                        new_ip = fn(state, plan.term_vals, ip_c, nip_c,
                                    regwr, memwr)
                    else:
                        for f2, v2 in plan.term_ops:
                            r = f2(state, v2, ip_c, nip_c, regwr, memwr)
                            if r is not None:
                                new_ip = r
                    if model is not None and not observed_term:
                        model.observe(plan.term_dec, regs)
                    if regwr:
                        for reg, val in regwr:
                            regs[reg] = val
                        regs[0] = 0
                        del regwr[:]
                    if memwr:
                        for size, addr, val in memwr:
                            if size == 4:
                                s4(addr, val)
                            elif size == 2:
                                s2(addr, val)
                            else:
                                s1(addr, val)
                        del memwr[:]
                    state.ip = nip_c if new_ip is None else new_ip
                else:
                    state.ip = plan.end_ip
                if inv[0]:
                    # A terminator (store beside a branch, or a simop
                    # writing into code) invalidated plans; the chain is
                    # already severed — just drop our stale reference.
                    inv[0] = False
                    prev = None

                executed += plan.n_instr
                slots += plan.n_slots
                ops_exec += plan.n_exec
                mem_instr += plan.n_mem_instr
                mem_ops += plan.n_mem_ops
                if profiler is not None:
                    profiler.record_block(plan)
        except SimulationError as exc:
            # Once a block runs only its terminator (a simop or ISA
            # switch) can trap: the body before it has completed.
            if not isinstance(exc, DecodeError) and plan.term_dec is not None:
                d = _partial_stats(plan, plan.term_ip)
                executed += d[0]; slots += d[1]; ops_exec += d[2]
                mem_instr += d[3]; mem_ops += d[4]
            raise
        finally:
            self.blocks_executed += blocks
            self.chain_hits += chains
            commit(executed, slots, ops_exec, mem_instr, mem_ops)
        return executed


def _partial_stats(
    plan: SuperblockPlan, stop_ip: int
) -> Tuple[int, int, int, int, int]:
    """Stats of the block prefix strictly before ``stop_ip``.

    Used on the rare mid-block abort after a self-modifying store: the
    instruction ending at ``stop_ip`` has committed, everything after
    it has not run.
    """
    n = s = e = mi = mo = 0
    for dec in plan.decs:
        if dec.addr >= stop_ip:
            break
        n += 1
        s += dec.n_slots
        e += dec.n_exec
        if dec.has_mem:
            mi += 1
            mo += dec.n_mem
    return n, s, e, mi, mo
