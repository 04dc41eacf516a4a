"""The interpretation-based simulation loop (paper Sections V, V-A, V-B).

The interpreter fetches, detects, decodes and executes instructions of
the currently active ISA.  Four engines mirror (and extend) the paper's
performance experiment (Table I / Section VII-A):

* ``nocache``    — every instruction is detected and decoded,
* ``cache``      — hash-map lookups only,
* ``predict``    — the 1-bit-predictor-style instruction prediction
                   skips most hash lookups,
* ``superblock`` — straight-line runs are translated into cached
                   execution plans chained block-to-block
                   (:mod:`repro.sim.superblock`),
* ``aot``        — whole-program ahead-of-time translation: a
                   precompiled dense IP→function table dispatches
                   covered blocks (:mod:`repro.sim.aot`), with the
                   interactive superblock engine as the fallback for
                   uncovered or invalidated IPs.

Parallel operations of a VLIW instruction are executed with
read-before-write semantics: every generated simulation function buffers
its register/memory writes, and the interpreter commits them only after
all slots have computed (equivalent to the paper's recursive
simulation-function scheme, Section V-B).

A cycle model (:mod:`repro.cycles`) can observe every executed
instruction pre-commit; a tracer records the per-operation behaviour
for RTL validation (Section V, goal 3).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Optional

from ..targetgen.optable import TargetDescription, build_target
from .decode_cache import DecodeCache
from .decoder import KIND_NOP, decode_instruction
from .errors import SimulationError
from .state import ProcessorState
from .stats import SimStats
from .superblock import SuperblockEngine

_UNLIMITED = 1 << 62

#: Budget-slice size used for cooperative cancellation checks when no
#: event stream dictates a heartbeat cadence (same default cadence).
CANCEL_SLICE = 250_000

#: Valid ``engine=`` arguments, slowest to fastest.
ENGINES = ("nocache", "cache", "predict", "superblock", "aot")


class Interpreter:
    """Drives one :class:`ProcessorState` to completion."""

    def __init__(
        self,
        state: ProcessorState,
        target: Optional[TargetDescription] = None,
        *,
        cycle_model=None,
        tracer=None,
        engine: Optional[str] = None,
        ip_history: int = 0,
        breakpoints=None,
        profiler=None,
        timeline=None,
        plan_cache=None,
        fuse_cycles: bool = True,
        aot_module=None,
        max_block_len=None,
        events=None,
        flight=None,
        cancel=None,
    ) -> None:
        self.state = state
        self.target = target if target is not None else build_target(state.arch)
        #: Hot-spot profiler (:class:`repro.telemetry.HotspotProfiler`).
        #: ``mode="exact"`` routes execution through the featureful
        #: loop for per-PC attribution; ``mode="block"`` keeps the
        #: superblock fast path and records per executed block.  When a
        #: cycle model is attached it is wrapped so per-instruction
        #: cycle/L1-miss deltas are charged to guest PCs.
        self.profiler = profiler
        #: Chrome-trace recorder (:class:`repro.telemetry.TimelineRecorder`):
        #: attached to the cycle model for per-op slot-track events and
        #: used directly for SMC instant markers.
        self.timeline = timeline
        if timeline is not None and cycle_model is not None:
            cycle_model.timeline = timeline
        if profiler is not None and cycle_model is not None:
            cycle_model = profiler.wrap_model(cycle_model)
        self.cycle_model = cycle_model
        self.tracer = tracer
        if engine is None:
            engine = "predict"
        elif engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self.engine = engine
        #: Featureful-loop switches of the paper's Table I engines.
        self.use_decode_cache = engine != "nocache"
        self.use_prediction = engine not in ("nocache", "cache")
        self.cache = DecodeCache(self.target)
        #: Superblock translation engine (engine="superblock", and the
        #: interactive fallback of engine="aot").
        self.superblock = (
            SuperblockEngine(self.cache, max_block_len=max_block_len)
            if engine in ("superblock", "aot") else None
        )
        if self.superblock is not None and profiler is not None:
            self.superblock.profiler = profiler
        #: Persistent translation cache (:class:`repro.sim.plancache.
        #: PlanCache`) — flushed at the end of every run().
        self.plan_cache = plan_cache
        if self.superblock is not None:
            model = self.cycle_model
            # Cycle fusion: models offering a block compiler get their
            # accounting compiled into hot plans.  The maker sees the
            # final model configuration (timeline already attached,
            # profiler wrapping applied), so it can refuse.
            maker = (
                getattr(model, "block_compiler", None)
                if fuse_cycles and model is not None else None
            )
            fuser = maker() if maker is not None else None
            self.superblock.fuser = fuser
            # Persisted-variant namespace: purely functional plans and
            # block-observing models share the plain variants; fused
            # plans are keyed by the model's timing configuration.
            # Everything else observes per-instruction — no compiled
            # function exists to persist.
            if model is None:
                cache_ns = ""
            elif fuser is not None:
                cache_ns = model.config_signature()
            elif getattr(model, "observe_block", None) is not None:
                cache_ns = ""
            else:
                cache_ns = None
            if plan_cache is not None and cache_ns is not None:
                self.superblock.plan_cache = plan_cache
                self.superblock.cache_namespace = cache_ns
        #: Ahead-of-time table binding (:class:`repro.sim.aot.AotBinding`,
        #: engine="aot" only).  The module must serve exactly this
        #: run's variant namespace — functional for no model, the
        #: model's configuration signature for fused timing; any other
        #: observing mode has no AOT representation and the engine
        #: degrades to the interactive superblock loop (self.aot None).
        self.aot = None
        if engine == "aot" and aot_module is not None:
            model = self.cycle_model
            if model is None:
                wanted = "" if not aot_module.fused else None
            elif self.superblock.fuser is not None:
                wanted = model.config_signature()
            else:
                wanted = None
            if wanted is not None and aot_module.namespace == wanted:
                self.aot = aot_module.bind(state.mem)
        #: Shared invalidation cell: the memory listener flips it when a
        #: store overwrites translated code, so a running superblock can
        #: abort after the offending instruction commits.
        self._inv = [False]
        if self.use_decode_cache:
            state.mem.add_code_listener(self._on_code_write)
        self.ip_history = (
            deque(maxlen=ip_history) if ip_history > 0 else None
        )
        #: Instruction addresses that pause execution *before* the
        #: instruction runs (debugging, paper Section V goal 4).  With
        #: breakpoints set, the featureful slow loop is used.
        self.breakpoints = set(breakpoints) if breakpoints else set()
        #: Set when run() returned because a breakpoint was reached.
        self.stopped_at_breakpoint = False
        self._resume_over_breakpoint = False
        self.stats = SimStats()
        #: Live event stream (:class:`repro.telemetry.stream.EventStream`):
        #: run() slices the instruction budget at the stream's heartbeat
        #: cadence (exactly the mechanism periodic checkpointing uses,
        #: so slicing is covered by the determinism gate) and emits
        #: heartbeat/syscall/ISA-switch/SMC/trap events.  Costs nothing
        #: when unset — no engine loop checks for it.
        self.events = events
        #: Flight recorder (:class:`repro.telemetry.flight.FlightRecorder`):
        #: block-granularity trail on the superblock/AOT fast paths via
        #: the engine's observer seam; per-instruction trail on the
        #: interactive engines via the featureful loop.
        self.flight = flight
        #: Cooperative cancellation hook: a zero-argument callable
        #: polled between budget slices (the same seam heartbeats and
        #: periodic checkpoints use, so stopping early is covered by
        #: the determinism contract).  When it returns true, run()
        #: stops at the next slice boundary — an *instruction*
        #: boundary — sets :attr:`cancelled` and returns normally with
        #: the stats so far; the architectural state is resumable
        #: exactly like a checkpoint slice.
        self.cancel = cancel
        #: Set when the last run() stopped because :attr:`cancel` fired.
        self.cancelled = False
        if flight is not None and self.superblock is not None:
            sb = self.superblock
            if sb.profiler is None:
                sb.profiler = flight
            else:
                from ..telemetry.flight import _BlockFanout

                sb.profiler = _BlockFanout(sb.profiler, flight)
        if events is not None or flight is not None:
            self._install_observers()

    # -- public API -------------------------------------------------------

    def run(self, max_instructions: Optional[int] = None) -> SimStats:
        """Run until ``halt`` (or the instruction budget is exhausted).

        Returns the accumulated statistics; also available as
        :attr:`stats` afterwards.
        """
        budget = _UNLIMITED if max_instructions is None else max_instructions
        if self.stopped_at_breakpoint:
            # Resuming from a breakpoint executes its instruction once.
            self._resume_over_breakpoint = True
        self.stopped_at_breakpoint = False
        # The cache counters are the single source of truth for decode
        # and lookup statistics; SimStats gets the per-run delta.
        decodes_before = self.cache.decodes
        lookups_before = self.cache.lookups
        # ``simop_count``/``isa_switches`` live in the (checkpointable)
        # processor state and may be non-zero on a restored run; stats
        # get the per-run delta so resumed segments merge additively.
        simops_before = self.state.simop_count
        switches_before = self.state.isa_switches
        self.cancelled = False
        start = time.perf_counter()
        try:
            if self.events is not None or self.cancel is not None:
                self._dispatch_with_heartbeats(budget, start)
            else:
                self._dispatch(budget)
        except SimulationError as exc:
            self._on_trap(exc)
            raise
        except Exception as exc:  # annotate unexpected faults with the IP
            wrapped = SimulationError(
                f"internal fault: {exc!r}",
                ip=self.state.ip,
                isa=self.state.isa.name,
            )
            self._on_trap(wrapped)
            raise wrapped from exc
        self.stats.elapsed_seconds += time.perf_counter() - start
        self.stats.decoded_instructions += self.cache.decodes - decodes_before
        self.stats.cache_lookups += self.cache.lookups - lookups_before
        self.stats.simops += self.state.simop_count - simops_before
        self.stats.isa_switches += self.state.isa_switches - switches_before
        self.stats.exit_code = self.state.exit_code
        if self.plan_cache is not None:
            self.plan_cache.save()  # no-op unless new plans were compiled
        return self.stats

    def _dispatch(self, budget: int) -> None:
        """Select and run the engine loop for one budget segment."""
        profiler = self.profiler
        if (
            self.tracer is not None
            or self.ip_history is not None
            or self.breakpoints
        ):
            # Tracing, IP history and breakpoints need per-op
            # bookkeeping the translated plans deliberately skip, so
            # every engine falls back to the featureful loop here.
            self._loop_full(budget)
        elif profiler is not None and not (
            self.engine == "superblock" and profiler.mode == "block"
        ):
            # Exact profiling counts every PC: featureful loop.
            # Block-mode profiling of the superblock engine instead
            # records per executed plan and keeps the fast path.
            self._loop_full(budget)
        elif self.flight is not None and self.engine in (
            "nocache", "cache", "predict"
        ):
            # The interactive engines have no block-granularity seam;
            # flight recording uses the featureful loop's
            # per-instruction trail (priced in docs/observability.md).
            self._loop_full(budget)
        elif self.engine == "aot":
            self._loop_aot(budget)
        elif self.engine == "superblock":
            self._loop_superblock(budget)
        elif self.engine == "cache":
            self._loop_cache(budget)
        elif self.engine == "nocache":
            self._loop_nocache(budget)
        else:
            self._loop_predict(budget)

    # -- live events -------------------------------------------------------

    def _dispatch_with_heartbeats(self, budget: int, start: float) -> None:
        """Run in heartbeat-sized slices, emitting one event per slice.

        Architecturally identical to one _dispatch(budget) call: the
        checkpoint runner slices run() the same way and the determinism
        gate proves bitwise-equal cycles and state under slicing
        (including fused DOE accounting).  The cancellation hook is
        polled at the same slice boundaries, so a cancelled run stops
        on a clean instruction boundary with every event emitted.
        """
        events = self.events
        cancel = self.cancel
        every = events.heartbeat_every if events is not None else CANCEL_SLICE
        start_exec = self.stats.executed_instructions
        done = 0
        while done < budget and not self.state.halted:
            if cancel is not None and cancel():
                self.cancelled = True
                break
            before = self.stats.executed_instructions
            self._dispatch(min(every, budget - done))
            executed = self.stats.executed_instructions - before
            done += executed
            if executed == 0 or self.stopped_at_breakpoint:
                break
            if (
                events is not None
                and done < budget
                and not self.state.halted
            ):
                self._emit_heartbeat(start, start_exec)

    def _emit_heartbeat(self, start: float, start_exec: int) -> None:
        from ..telemetry.collect import collect_run_metrics

        elapsed = time.perf_counter() - start
        instructions = self.stats.executed_instructions
        counters = collect_run_metrics(self, self.cycle_model)
        # SimStats derives simops/ISA-switch counts from state deltas
        # at the *end* of run(); mid-run, read the live state counters.
        counters["sim.simops"] = self.state.simop_count
        counters["sim.isa_switches"] = self.state.isa_switches
        model = self.cycle_model
        self.events.emit(
            "heartbeat",
            instructions=instructions,
            mips=(
                round((instructions - start_exec) / elapsed / 1e6, 3)
                if elapsed > 0 else 0.0
            ),
            cycles=model.cycles if model is not None else None,
            counters=counters,
        )

    def _install_observers(self) -> None:
        """Route ProcessorState hooks into the event stream / recorder.

        ``switch_isa``/``simop`` calls are emitted by the behaviour
        compiler into *every* generated simulation function — including
        translated superblock plans and AOT modules — so these hooks
        see each event regardless of engine.  The architectural IP may
        lag inside a translated block (plans commit it at exits); the
        reported ``ip`` is the best available anchor, not a promise.
        """
        events, flight, state = self.events, self.flight, self.state

        def on_isa_switch(st, from_isa, to_isa):
            if flight is not None:
                flight.record_isa_switch(st.ip, from_isa, to_isa)
            if events is not None:
                events.emit(
                    "isa-switch", ip=st.ip,
                    from_isa=from_isa, to_isa=to_isa,
                )

        def on_simop(st, ident):
            from ..libc import LIBC_BY_ID

            fn = LIBC_BY_ID.get(ident)
            name = fn.name if fn is not None else f"simop{ident}"
            if flight is not None:
                flight.record_syscall(st.ip, ident, name)
            if events is not None:
                events.emit("syscall", ip=st.ip, ident=ident, name=name)

        state.on_isa_switch = on_isa_switch
        state.on_simop = on_simop

    def _on_trap(self, exc) -> None:
        """Attach flight-recorder context to a fatal simulation error."""
        flight = self.flight
        if flight is not None:
            flight.record_trap(self.state.ip, str(exc))
            exc.flight = flight.snapshot()
            try:
                dumped = flight.dump()
            except OSError:
                dumped = None
            if dumped is not None:
                exc.flight_dump = dumped
        if self.events is not None:
            self.events.emit("trap", error=str(exc), ip=self.state.ip)

    # -- self-modifying code ----------------------------------------------

    def _on_code_write(self, page: int, addr: int, length: int) -> None:
        """Memory listener: a store hit a page containing cached code."""
        hit = self.cache.invalidate_write(page, addr, length)
        engine = self.superblock
        if engine is not None and engine.invalidate_write(page, addr, length):
            hit = True
        binding = self.aot
        if binding is not None and binding.invalidate_write(
            page, addr, length
        ):
            hit = True
        if hit:
            self._inv[0] = True
            if self.flight is not None:
                self.flight.record_smc(addr, length)
            if self.events is not None:
                self.events.emit("smc-invalidate", addr=addr, length=length)
            if self.profiler is not None:
                # Attribute the invalidation to the overwritten code
                # address (the store's own PC may be mid-block and the
                # architectural IP stale inside translated plans).
                self.profiler.record_smc(addr)
            if self.timeline is not None:
                self.timeline.instant(
                    "smc-invalidate",
                    getattr(self.cycle_model, "cycles", 0) or 0,
                    {"addr": f"{addr:#x}", "length": length},
                )

    # -- loop variants -----------------------------------------------------

    def _loop_aot(self, budget: int) -> None:
        """Dense-table AOT dispatch with an interactive-block fallback.

        The bound table runs chained covered blocks without hash
        lookups; whenever dispatch stops at an uncovered (or
        invalidated) IP, exactly one block runs through the interactive
        superblock engine — building, caching and possibly hot-
        translating its plan as usual — before re-entering the table.
        ISA switches, halts, simops and self-modified code all live on
        the fallback path, so the generated loop never checks for them.
        """
        aot = self.aot
        if aot is None:
            # No module serves this run's observing configuration (or
            # none was prepared): the interactive engine is the tier
            # below and bitwise-identical.
            self._loop_superblock(budget)
            return
        state = self.state
        sb = self.superblock
        mem = state.mem
        model = self.cycle_model
        inv = self._inv
        flight = self.flight
        total = 0
        tail = False
        while not state.halted and total < budget:
            entry_isa, entry_ip = state.isa_id, state.ip
            executed, reason = aot.dispatch(
                state, inv, model, budget - total
            )
            if flight is not None and executed:
                # One trail entry per dense-table dispatch segment (a
                # chain of covered blocks): block-granularity context
                # at far below block-granularity cost.
                flight.record_dispatch(entry_isa, entry_ip, executed)
            total += executed
            if state.halted or total >= budget:
                break
            if reason == "budget":
                tail = True
                break
            # Uncovered IP: one interactive block, then back to the
            # table.  An undecodable entry raises here exactly as
            # executing it interactively would.
            plan = sb.plans.get((state.isa_id, state.ip))
            if plan is None:
                plan = sb.build(mem, state.isa_id, state.ip)
            if plan.n_instr > budget - total:
                tail = True
                break
            ex, sl, op, mi, mo = sb.execute(
                state, model, plan.n_instr, inv
            )
            self._flush(ex, sl, op, 0, 0, 0, mi, mo)
            total += ex
        ex, sl, op, mi, mo = aot.drain()
        self._flush(ex, sl, op, 0, 0, 0, mi, mo)
        if tail and not state.halted and total < budget:
            # The next whole block would overrun the budget: finish
            # the remaining instructions one at a time.
            self._loop_predict(budget - total)

    def _loop_superblock(self, budget: int) -> None:
        """Chained superblock plans, with a per-instruction tail."""
        executed, slots, ops_exec, mem_instr, mem_ops = (
            self.superblock.execute(
                self.state, self.cycle_model, budget, self._inv
            )
        )
        self._flush(executed, slots, ops_exec, 0, 0, 0, mem_instr, mem_ops)
        if not self.state.halted and executed < budget:
            # The next whole block would overrun the budget: finish the
            # remaining instructions one at a time (the full loop when
            # profiling, so the tail keeps per-PC attribution).
            if self.profiler is not None:
                self._loop_full(budget - executed)
            else:
                self._loop_predict(budget - executed)

    def _loop_predict(self, budget: int) -> None:
        """Decode cache + instruction prediction (the paper's fastest)."""
        state = self.state
        mem = state.mem
        regs = state.regs
        cache = self.cache.entries
        miss = self.cache.miss
        model = self.cycle_model
        s4, s2, s1 = mem.store4, mem.store2, mem.store1
        regwr: list = []
        memwr: list = []
        executed = slots = ops_exec = lookups = 0
        pred_hits = mem_instr = mem_ops = 0
        prev = None
        while not state.halted and executed < budget:
            ip = state.ip
            if prev is not None and prev.pred_ip == ip:
                dec = prev.pred_dec
                pred_hits += 1
            else:
                isa_id = state.isa_id
                key = (isa_id, ip)
                lookups += 1
                dec = cache.get(key)
                if dec is None:
                    dec = miss(mem, isa_id, ip)
                if prev is not None:
                    prev.pred_ip = ip
                    prev.pred_dec = dec
            prev = dec
            next_ip = ip + dec.size
            new_ip = None
            single = dec.single
            if single is not None:
                if single.kind_code != KIND_NOP:
                    new_ip = single.sim_fn(
                        state, single.vals, ip, next_ip, regwr, memwr
                    )
            else:
                for fn, vals in dec.exec_ops:
                    r = fn(state, vals, ip, next_ip, regwr, memwr)
                    if r is not None:
                        new_ip = r
            if model is not None:
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
            state.ip = next_ip if new_ip is None else new_ip
            executed += 1
            slots += dec.n_slots
            ops_exec += dec.n_exec
            if dec.has_mem:
                mem_instr += 1
                mem_ops += dec.n_mem
        self._flush(
            executed, slots, ops_exec, 0, lookups, pred_hits,
            mem_instr, mem_ops,
        )

    def _loop_cache(self, budget: int) -> None:
        """Decode cache without instruction prediction."""
        state = self.state
        mem = state.mem
        regs = state.regs
        cache = self.cache.entries
        miss = self.cache.miss
        model = self.cycle_model
        s4, s2, s1 = mem.store4, mem.store2, mem.store1
        regwr: list = []
        memwr: list = []
        executed = slots = ops_exec = 0
        mem_instr = mem_ops = 0
        while not state.halted and executed < budget:
            ip = state.ip
            isa_id = state.isa_id
            key = (isa_id, ip)
            dec = cache.get(key)
            if dec is None:
                dec = miss(mem, isa_id, ip)
            next_ip = ip + dec.size
            new_ip = None
            single = dec.single
            if single is not None:
                if single.kind_code != KIND_NOP:
                    new_ip = single.sim_fn(
                        state, single.vals, ip, next_ip, regwr, memwr
                    )
            else:
                for fn, vals in dec.exec_ops:
                    r = fn(state, vals, ip, next_ip, regwr, memwr)
                    if r is not None:
                        new_ip = r
            if model is not None:
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
            state.ip = next_ip if new_ip is None else new_ip
            executed += 1
            slots += dec.n_slots
            ops_exec += dec.n_exec
            if dec.has_mem:
                mem_instr += 1
                mem_ops += dec.n_mem
        self._flush(
            executed, slots, ops_exec, 0, executed, 0,
            mem_instr, mem_ops,
        )

    def _loop_nocache(self, budget: int) -> None:
        """Detect and decode every executed instruction (slowest)."""
        state = self.state
        mem = state.mem
        regs = state.regs
        optables = self.target.optables
        model = self.cycle_model
        s4, s2, s1 = mem.store4, mem.store2, mem.store1
        regwr: list = []
        memwr: list = []
        executed = slots = ops_exec = 0
        mem_instr = mem_ops = 0
        while not state.halted and executed < budget:
            ip = state.ip
            dec = decode_instruction(optables[state.isa_id], mem, ip)
            next_ip = ip + dec.size
            new_ip = None
            single = dec.single
            if single is not None:
                if single.kind_code != KIND_NOP:
                    new_ip = single.sim_fn(
                        state, single.vals, ip, next_ip, regwr, memwr
                    )
            else:
                for fn, vals in dec.exec_ops:
                    r = fn(state, vals, ip, next_ip, regwr, memwr)
                    if r is not None:
                        new_ip = r
            if model is not None:
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
            state.ip = next_ip if new_ip is None else new_ip
            executed += 1
            slots += dec.n_slots
            ops_exec += dec.n_exec
            if dec.has_mem:
                mem_instr += 1
                mem_ops += dec.n_mem
        self._flush(
            executed, slots, ops_exec, executed, 0, 0, mem_instr, mem_ops
        )

    def _loop_full(self, budget: int) -> None:
        """Featureful slow loop: tracing, IP history, per-op bookkeeping."""
        state = self.state
        mem = state.mem
        regs = state.regs
        cache = self.cache.entries
        miss = self.cache.miss
        optables = self.target.optables
        model = self.cycle_model
        tracer = self.tracer
        history = self.ip_history
        s4, s2, s1 = mem.store4, mem.store2, mem.store1
        executed = slots = ops_exec = decodes = lookups = pred_hits = 0
        mem_instr = mem_ops = 0
        breakpoints = self.breakpoints
        profiler = self.profiler
        pc_counts = (
            profiler.pc_instructions if profiler is not None else None
        )
        flight = self.flight
        flight_append = flight.blocks.append if flight is not None else None
        prev = None
        while not state.halted and executed < budget:
            ip = state.ip
            if breakpoints and ip in breakpoints:
                if self._resume_over_breakpoint:
                    self._resume_over_breakpoint = False
                else:
                    self.stopped_at_breakpoint = True
                    break
            if history is not None:
                history.append(ip)
            if pc_counts is not None:
                pc_counts[ip] = pc_counts.get(ip, 0) + 1
            if flight_append is not None:
                flight_append(("instr", state.isa_id, ip, 1))
            if self.use_decode_cache:
                if (
                    self.use_prediction
                    and prev is not None
                    and prev.pred_ip == ip
                ):
                    dec = prev.pred_dec
                    pred_hits += 1
                else:
                    key = (state.isa_id, ip)
                    lookups += 1
                    dec = cache.get(key)
                    if dec is None:
                        dec = miss(mem, state.isa_id, ip)
                    if prev is not None:
                        prev.pred_ip = ip
                        prev.pred_dec = dec
                prev = dec
            else:
                dec = decode_instruction(optables[state.isa_id], mem, ip)
                decodes += 1
            next_ip = ip + dec.size
            new_ip = None
            regwr: list = []
            memwr: list = []
            for op in dec.ops:
                if op.kind_code == KIND_NOP:
                    continue
                op_reg_start = len(regwr)
                op_mem_start = len(memwr)
                in_regs = tuple((r, regs[r]) for r in op.srcs)
                r = op.sim_fn(state, op.vals, ip, next_ip, regwr, memwr)
                if r is not None:
                    new_ip = r
                if tracer is not None:
                    cycle = (
                        model.cycles if model is not None else executed
                    )
                    tracer.record(
                        cycle,
                        dec,
                        op,
                        in_regs,
                        tuple(regwr[op_reg_start:]),
                        tuple(memwr[op_mem_start:]),
                    )
            if model is not None:
                model.observe(dec, regs)
            for reg, val in regwr:
                regs[reg] = val
            regs[0] = 0
            for size, addr, val in memwr:
                if size == 4:
                    s4(addr, val)
                elif size == 2:
                    s2(addr, val)
                else:
                    s1(addr, val)
            state.ip = next_ip if new_ip is None else new_ip
            executed += 1
            slots += dec.n_slots
            ops_exec += dec.n_exec
            if dec.has_mem:
                mem_instr += 1
                mem_ops += dec.n_mem
        self._flush(
            executed, slots, ops_exec, decodes, lookups, pred_hits,
            mem_instr, mem_ops,
        )

    def _flush(
        self,
        executed: int,
        slots: int,
        ops_exec: int,
        decodes: int,
        lookups: int,
        pred_hits: int,
        mem_instr: int,
        mem_ops: int,
    ) -> None:
        st = self.stats
        st.executed_instructions += executed
        st.executed_slots += slots
        st.executed_ops += ops_exec
        st.prediction_hits += pred_hits
        st.memory_instructions += mem_instr
        st.memory_ops += mem_ops
        # Decode/lookup counts live in the cache (single source of
        # truth); run() derives the SimStats fields from its deltas.
        self.cache.decodes += decodes
        self.cache.lookups += lookups
