"""Flight recorder and cross-engine divergence forensics.

The flight recorder is the crash-context half of the observability
plane: a pair of bounded ring buffers capturing the *recent past* of a
run — block entries and SMC aborts on the superblock/AOT fast paths,
per-instruction IPs on the interactive engines, plus rare-event marks
(syscalls, ISA switches, SMC invalidations).  When a run traps, the
interpreter attaches the recorder's snapshot to the raised
:class:`~repro.sim.errors.SimulationError` and (optionally) dumps it to
a JSON file, so a crash deep inside a translated plan finally has a
trail of the blocks that led up to it.

Overhead discipline: on the superblock/AOT engines the recorder rides
the existing block-granularity observer seam
(:attr:`repro.sim.superblock.SuperblockEngine.profiler`) and the AOT
dispatch loop — a deque append per executed *block/segment*, which is
why the <5% budget holds (``tools/telemetry_overhead.py`` gates it in
CI).  The interactive engines (nocache/cache/predict) record per
instruction through the featureful loop instead; that is inherently
slower and is priced as such in the docs.

:func:`run_lockstep` is the forensic layer the determinism gate uses:
it runs the same build under two engine configurations in bounded
slices, compares architectural state at every boundary, and on a
mismatch replays the diverging slice instruction-by-instruction from
the last agreeing boundary to name the **first divergent PC**, the
register/memory delta at that point, and the last-N blocks both
engines executed.  A fault can be injected mid-run (``inject=``) to
force a divergence — that is how CI proves the forensics pipeline
works end-to-end.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List, Optional

__all__ = [
    "FlightRecorder",
    "run_lockstep",
    "format_forensics",
]


class FlightRecorder:
    """Bounded ring buffers of recent execution context.

    ``capacity`` bounds the block/instruction trail, ``events_capacity``
    the rare-event marks.  The recorder is profiler-shaped on purpose:
    :meth:`record_block` / :meth:`record_block_prefix` match the
    :class:`~repro.telemetry.profiler.HotspotProfiler` observer seam of
    the superblock engine, so both can attach at once (fan-out).

    Trail entries are tuples ``(kind, isa_id, ip, n)``:

    * ``("block", isa, entry_ip, n_instr)`` — completed superblock plan
    * ``("abort", isa, entry_ip, stop_ip)`` — plan aborted by SMC at
      ``stop_ip``
    * ``("dispatch", isa, entry_ip, executed)`` — one AOT table
      dispatch segment (chained covered blocks)
    * ``("instr", isa, ip, 1)`` — one instruction (interactive loops)

    Marks are dicts with a ``kind`` of ``syscall`` / ``isa-switch`` /
    ``smc`` / ``trap``.
    """

    def __init__(self, capacity: int = 512, events_capacity: int = 128) -> None:
        self.capacity = capacity
        self.events_capacity = events_capacity
        self.blocks: deque = deque(maxlen=capacity)
        self.marks: deque = deque(maxlen=events_capacity)
        #: When set, a trapping run dumps :meth:`snapshot` JSON here.
        self.dump_path: Optional[str] = None

    # -- superblock observer seam (HotspotProfiler-compatible) ------------

    def record_block(self, plan) -> None:
        self.blocks.append(("block", plan.isa_id, plan.entry_ip, plan.n_instr))

    def record_block_prefix(self, plan, stop_ip: int) -> None:
        self.blocks.append(("abort", plan.isa_id, plan.entry_ip, stop_ip))

    # -- engine/interpreter hooks -----------------------------------------

    def record_dispatch(self, isa_id: int, entry_ip: int, executed: int) -> None:
        """One AOT dense-table dispatch segment (≥1 chained blocks)."""
        if executed:
            self.blocks.append(("dispatch", isa_id, entry_ip, executed))

    def record_instr(self, isa_id: int, ip: int) -> None:
        """One instruction (interactive-loop granularity)."""
        self.blocks.append(("instr", isa_id, ip, 1))

    def record_syscall(self, ip: int, ident: int, name: str) -> None:
        self.marks.append(
            {"kind": "syscall", "ip": ip, "ident": ident, "name": name}
        )

    def record_isa_switch(self, ip: int, from_isa: int, to_isa: int) -> None:
        self.marks.append(
            {"kind": "isa-switch", "ip": ip, "from_isa": from_isa,
             "to_isa": to_isa}
        )

    def record_smc(self, addr: int, length: int = 0) -> None:
        self.marks.append({"kind": "smc", "addr": addr, "length": length})

    def record_trap(self, ip: int, error: str) -> None:
        self.marks.append({"kind": "trap", "ip": ip, "error": error})

    # -- output ------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able dump of both ring buffers (oldest first)."""
        return {
            "capacity": self.capacity,
            "blocks": [list(entry) for entry in self.blocks],
            "marks": list(self.marks),
        }

    def dump(self, path: Optional[str] = None) -> Optional[str]:
        """Write :meth:`snapshot` as JSON; returns the path written."""
        path = path or self.dump_path
        if path is None:
            return None
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def format(self, debug_info=None, last: int = 16) -> str:
        """Human-readable trail of the last ``last`` entries + marks."""
        lines = [f"flight recorder: last {min(last, len(self.blocks))} of "
                 f"{len(self.blocks)} recorded entries "
                 f"(capacity {self.capacity})"]
        for kind, isa, ip, n in list(self.blocks)[-last:]:
            where = _locate(debug_info, ip)
            if kind == "block":
                lines.append(f"  block    isa={isa} entry={ip:#x}"
                             f" n={n}{where}")
            elif kind == "abort":
                lines.append(f"  abort    isa={isa} entry={ip:#x}"
                             f" smc-stop={n:#x}{where}")
            elif kind == "dispatch":
                lines.append(f"  dispatch isa={isa} entry={ip:#x}"
                             f" executed={n}{where}")
            else:
                lines.append(f"  instr    isa={isa} ip={ip:#x}{where}")
        if self.marks:
            lines.append(f"marks (last {len(self.marks)}):")
            for mark in self.marks:
                kind = mark["kind"]
                if kind == "syscall":
                    lines.append(f"  syscall   ip={mark['ip']:#x} "
                                 f"{mark['name']}")
                elif kind == "isa-switch":
                    lines.append(f"  isa-switch ip={mark['ip']:#x} "
                                 f"{mark['from_isa']}->{mark['to_isa']}")
                elif kind == "smc":
                    lines.append(f"  smc       addr={mark['addr']:#x} "
                                 f"length={mark['length']}")
                else:
                    lines.append(f"  trap      ip={mark['ip']:#x} "
                                 f"{mark.get('error', '')}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.blocks)


def _locate(debug_info, ip: int) -> str:
    """`` (function)`` suffix when debug info can name the address."""
    if debug_info is None:
        return ""
    try:
        fn = debug_info.function_at(ip)
    except Exception:
        return ""
    return f" ({fn.name})" if fn is not None else ""


class _BlockFanout:
    """Fan one superblock observer seam out to several targets.

    Used when both a block-mode profiler and a flight recorder want the
    engine's ``profiler`` slot.
    """

    def __init__(self, *targets) -> None:
        self.targets = [t for t in targets if t is not None]

    def record_block(self, plan) -> None:
        for target in self.targets:
            target.record_block(plan)

    def record_block_prefix(self, plan, stop_ip: int) -> None:
        for target in self.targets:
            target.record_block_prefix(plan, stop_ip)


# -- lockstep divergence forensics ------------------------------------------


def _side_interpreter(built, program, config, flight_capacity):
    """Build one lockstep side: interpreter + flight recorder."""
    from ..sim.interpreter import Interpreter

    engine = config.get("engine", "predict")
    model = config.get("cycle_model")
    aot_module = config.get("aot_module")
    if engine == "aot" and aot_module is None:
        from ..sim import aot

        aot_module = aot.prepare(
            built.elf, built.arch, model=model,
            max_block_len=config.get("max_block_len"),
            profile_budget=config["max_instructions"],
            input_data=config.get("input_data", b""),
        )
    flight = FlightRecorder(capacity=flight_capacity)
    interp = Interpreter(
        program.state,
        cycle_model=model,
        engine=engine,
        fuse_cycles=config.get("fuse_cycles", True),
        aot_module=aot_module,
        max_block_len=config.get("max_block_len"),
        flight=flight,
    )
    return interp, flight


def _arch_fingerprint(state) -> tuple:
    return (state.ip, state.isa_id, state.halted, tuple(state.regs))


def _register_delta(arch, regs_a, regs_b) -> List[dict]:
    registers = arch.register_file.registers
    delta = []
    for index, (a, b) in enumerate(zip(regs_a, regs_b)):
        if a != b:
            name = (
                registers[index].name if index < len(registers) else None
            )
            delta.append({"reg": index, "name": name, "a": a, "b": b})
    return delta


def _maybe_inject(interp, inject, injected: List[bool], total: int,
                  budget: int) -> int:
    """Run up to ``budget`` instructions on the fault-injected side.

    When the injection point falls inside this slice, the run is split
    around it and the register corruption applied at the exact
    instruction boundary.  Returns instructions executed.
    """
    if inject is None or injected[0]:
        interp.run(max_instructions=budget)
        return interp.stats.executed_instructions - total
    at = inject["at"]
    if total + budget <= at:
        interp.run(max_instructions=budget)
        return interp.stats.executed_instructions - total
    head = at - total
    if head > 0:
        interp.run(max_instructions=head)
    _apply_injection(interp.state, inject)
    injected[0] = True
    done = interp.stats.executed_instructions - total
    if done < budget and not interp.state.halted:
        interp.run(max_instructions=budget - done)
    return interp.stats.executed_instructions - total


def _apply_injection(state, inject) -> None:
    reg = inject["reg"]
    if isinstance(reg, str):
        reg = state.arch.register_file.by_name(reg).index
    state.regs[reg] ^= inject.get("xor", 1)


def run_lockstep(
    built,
    config_a: dict,
    config_b: dict,
    *,
    interval: int = 20_000,
    max_instructions: int = 50_000_000,
    flight_capacity: int = 256,
    input_data: bytes = b"",
    inject: Optional[dict] = None,
) -> Optional[dict]:
    """Run one build under two configurations and localize divergence.

    ``config_a`` / ``config_b`` are dicts: ``engine`` (any of the five
    engines), optional ``cycle_model`` (a *separate instance* per
    side), ``fuse_cycles``, ``max_block_len``, ``aot_module``,
    ``label``.  Both sides execute in ``interval``-instruction slices;
    after every slice the architectural states are compared (IP, ISA,
    halt flag, registers, and — once anything else disagrees or the run
    ends — the memory digest).

    ``inject={"at": N, "reg": name_or_index, "xor": mask}`` corrupts a
    register of side B at instruction boundary N — the forced-divergence
    mode the CI forensics self-test uses.

    Returns ``None`` when the sides agree to the end, else a forensic
    report dict (see :func:`format_forensics`):  the first divergent
    instruction index and PC (localized by per-instruction replay from
    the last agreeing boundary), the register delta, memory digests,
    and the recent-block trails of both engines.
    """
    from ..binutils.loader import load_executable
    from ..snapshot.capture import memory_digest, snapshot_run

    program_a = load_executable(built.elf, built.arch, input_data=input_data)
    program_b = load_executable(built.elf, built.arch, input_data=input_data)
    interp_a, flight_a = _side_interpreter(
        built, program_a,
        dict(config_a, input_data=input_data,
             max_instructions=max_instructions),
        flight_capacity,
    )
    interp_b, flight_b = _side_interpreter(
        built, program_b,
        dict(config_b, input_data=input_data,
             max_instructions=max_instructions),
        flight_capacity,
    )
    injected = [False]
    total_a = total_b = 0
    # Functional boundary snapshot of the last agreeing state (side A's
    # and side B's states are identical there by construction).
    boundary_a = snapshot_run(
        program_a.state, program_a.syscalls, stats=interp_a.stats
    )
    boundary_b = snapshot_run(
        program_b.state, program_b.syscalls, stats=interp_b.stats
    )
    boundary_instr = 0
    while total_a < max_instructions:
        budget = min(interval, max_instructions - total_a)
        interp_a.run(max_instructions=budget)
        executed_a = interp_a.stats.executed_instructions - total_a
        executed_b = _maybe_inject(
            interp_b, inject, injected, total_b, budget
        )
        total_a += executed_a
        total_b += executed_b
        state_a, state_b = program_a.state, program_b.state
        mismatch = (
            executed_a != executed_b
            or _arch_fingerprint(state_a) != _arch_fingerprint(state_b)
        )
        digest_a = digest_b = None
        if not mismatch:
            digest_a = memory_digest(state_a.mem)
            digest_b = memory_digest(state_b.mem)
            mismatch = digest_a != digest_b
        if mismatch:
            # Re-apply the injection during replay only when it landed
            # inside the diverging slice; an earlier injection is
            # already baked into both boundary snapshots.
            replay_inject = (
                inject
                if inject is not None and inject["at"] >= boundary_instr
                else None
            )
            local = _localize(
                built, boundary_a, boundary_b, boundary_instr,
                replay_inject,
            )
            if digest_a is None:
                digest_a = memory_digest(state_a.mem)
                digest_b = memory_digest(state_b.mem)
            report = {
                "engines": [
                    config_a.get("label", config_a.get("engine", "a")),
                    config_b.get("label", config_b.get("engine", "b")),
                ],
                "boundary_instruction": boundary_instr,
                "instructions_a": total_a,
                "instructions_b": total_b,
                "ip_a": state_a.ip,
                "ip_b": state_b.ip,
                "isa_a": state_a.isa_id,
                "isa_b": state_b.isa_id,
                "halted_a": state_a.halted,
                "halted_b": state_b.halted,
                "register_delta": _register_delta(
                    built.arch, state_a.regs, state_b.regs
                ),
                "memory_digest_a": digest_a,
                "memory_digest_b": digest_b,
                "recent_blocks_a": flight_a.snapshot(),
                "recent_blocks_b": flight_b.snapshot(),
            }
            if inject is not None:
                report["injected_fault"] = dict(inject)
            if local is not None:
                report.update(local)
            return report
        if state_a.halted and state_b.halted:
            return None
        if executed_a == 0 and executed_b == 0:
            return None  # wedged identically; nothing to compare
        boundary_a = snapshot_run(
            state_a, program_a.syscalls, stats=interp_a.stats
        )
        boundary_b = snapshot_run(
            state_b, program_b.syscalls, stats=interp_b.stats
        )
        boundary_instr = total_a
    return None


def _localize(built, boundary_a, boundary_b, boundary_instr,
              inject) -> Optional[dict]:
    """Replay the diverging slice per-instruction to the first bad step.

    Both sides restart from their last agreeing boundary snapshots and
    single-step under the reference ``predict`` engine (which the
    differential suite proves architecturally identical to every other
    engine); an injected fault is re-applied at its global instruction
    index, so injected divergences replay exactly.  An *engine-internal*
    bug that only manifests inside a translated plan may not reproduce
    under the reference replay — in that case the block trails and the
    boundary delta in the outer report are the forensic evidence, and
    this returns None.
    """
    from ..sim.interpreter import Interpreter
    from ..snapshot.capture import memory_digest, restore_run

    restored_a = restore_run(boundary_a, built.arch)
    restored_b = restore_run(boundary_b, built.arch)
    interp_a = Interpreter(restored_a.state, engine="predict")
    interp_b = Interpreter(restored_b.state, engine="predict")
    state_a, state_b = restored_a.state, restored_b.state
    steps = 0
    limit = 4 * 1024 * 1024  # replay guard; slices are far smaller
    while steps < limit:
        if _arch_fingerprint(state_a) != _arch_fingerprint(state_b):
            break
        if steps % 64 == 0 and (
            memory_digest(state_a.mem) != memory_digest(state_b.mem)
        ):
            break
        if state_a.halted and state_b.halted:
            return None
        pc_before = state_a.ip
        isa_before = state_a.isa_id
        if inject is not None and boundary_instr + steps == inject["at"]:
            _apply_injection(state_b, inject)
            continue
        interp_a.run(max_instructions=1)
        interp_b.run(max_instructions=1)
        steps += 1
    else:
        return None
    if steps == 0:
        # The boundary states themselves disagree (replay cannot step
        # back before the boundary); report the boundary as the locus.
        return {
            "first_divergent_instruction": boundary_instr,
            "first_divergent_pc": state_a.ip,
            "divergent_isa": state_a.isa_id,
            "replayed": True,
            "replay_register_delta": _register_delta(
                built.arch, state_a.regs, state_b.regs
            ),
        }
    return {
        "first_divergent_instruction": boundary_instr + steps,
        "first_divergent_pc": pc_before,
        "divergent_isa": isa_before,
        "replayed": True,
        "replay_register_delta": _register_delta(
            built.arch, state_a.regs, state_b.regs
        ),
        "replay_ip_a": state_a.ip,
        "replay_ip_b": state_b.ip,
    }


def format_forensics(report: dict, debug_info=None) -> str:
    """Render a :func:`run_lockstep` report as a readable text block."""
    a, b = report.get("engines", ["a", "b"])
    lines = [
        f"=== cross-engine divergence: {a} vs {b} ===",
        f"last agreeing boundary: instruction "
        f"{report['boundary_instruction']}",
    ]
    if "injected_fault" in report:
        inj = report["injected_fault"]
        lines.append(
            f"injected fault: reg {inj.get('reg')} ^= "
            f"{inj.get('xor', 1):#x} at instruction {inj.get('at')}"
        )
    if report.get("first_divergent_pc") is not None:
        pc = report["first_divergent_pc"]
        where = _locate(debug_info, pc)
        lines.append(
            f"first divergent instruction: "
            f"#{report['first_divergent_instruction']} at pc={pc:#x}"
            f"{where} (isa {report.get('divergent_isa')})"
        )
        delta = report.get("replay_register_delta") or []
        for entry in delta:
            name = entry.get("name") or f"r{entry['reg']}"
            lines.append(
                f"  {name}: a={entry['a']:#x} b={entry['b']:#x}"
            )
        if "replay_ip_a" in report and (
            report["replay_ip_a"] != report["replay_ip_b"]
        ):
            lines.append(
                f"  ip: a={report['replay_ip_a']:#x} "
                f"b={report['replay_ip_b']:#x}"
            )
    else:
        lines.append(
            "replay under the reference engine did not reproduce the "
            "divergence (engine-internal translated-plan bug?); boundary "
            "delta follows"
        )
    lines.append(
        f"boundary state: a ran {report['instructions_a']} instructions "
        f"(ip={report['ip_a']:#x}), b ran {report['instructions_b']} "
        f"(ip={report['ip_b']:#x})"
    )
    for entry in report.get("register_delta", []):
        name = entry.get("name") or f"r{entry['reg']}"
        lines.append(f"  {name}: a={entry['a']:#x} b={entry['b']:#x}")
    if report.get("memory_digest_a") != report.get("memory_digest_b"):
        lines.append(
            f"memory digests differ: a={report['memory_digest_a'][:16]}… "
            f"b={report['memory_digest_b'][:16]}…"
        )
    for side, key in (("a", "recent_blocks_a"), ("b", "recent_blocks_b")):
        snap = report.get(key)
        if not snap or not snap.get("blocks"):
            continue
        lines.append(f"last blocks on {side} ({a if side == 'a' else b}):")
        for kind, isa, ip, n in snap["blocks"][-8:]:
            where = _locate(debug_info, ip)
            lines.append(
                f"  {kind:<8} isa={isa} ip={ip:#x} n={n}{where}"
            )
    return "\n".join(lines)
