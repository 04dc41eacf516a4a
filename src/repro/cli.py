"""Command-line interface of the KAHRISMA framework.

Subcommands mirror the paper's toolchain (Figure 2)::

    kahrisma compile app.kc -o app.elf --isa vliw4
    kahrisma compile app.elf --models none,aie,doe   # AOT translation
    kahrisma asm app.s -o app.elf --entry '$risc$main' --entry-isa 0
    kahrisma run app.elf --model doe [--isa 2] [--trace out.trc]
    kahrisma run app.elf --engine aot
    kahrisma run app.elf --model doe --profile --metrics m.json \
                 --timeline t.trace.json
    kahrisma report m.json
    kahrisma disasm app.elf
    kahrisma ilp app.kc
    kahrisma select app.kc
    kahrisma targetgen --emit-sim gen_sim.py --emit-stubs libc.s
    kahrisma fuzz --seed 1234 --count 200
    kahrisma fuzz --self-test
    kahrisma fuzz --replay tests/corpus
    kahrisma programs
    kahrisma serve --port 8321 --workers 4
    kahrisma submit dct4x4 --engine aot --follow
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional

from .adl.kahrisma import KAHRISMA
from .binutils.assembler import Assembler
from .binutils.elf import ElfFile
from .binutils.linker import link
from .binutils.loader import debug_info_from_elf
from .framework.config import RunConfig
from .framework.pipeline import BuildResult, build, open_plan_cache
from .framework.selection import profile_functions, select_isas
from .lang.driver import compile_mixed, compile_source
from .programs import PROGRAMS, load_program
from .sim.disasm import disassemble_range
from .sim.errors import SimulationError
from .sim.interpreter import ENGINES
from .sim.tracing import Tracer
from .telemetry import (
    HotspotProfiler,
    TimelineRecorder,
    render_report,
    write_report,
)
from .targetgen.asmgen import generate_libc_stubs
from .targetgen.codegen import write_simulator_module
from .targetgen.docgen import write_isa_reference


def _parse_isa_map(text: Optional[str]) -> Dict[str, str]:
    result: Dict[str, str] = {}
    if text:
        for pair in text.split(","):
            name, _, isa = pair.partition("=")
            if not isa:
                raise SystemExit(f"--mixed expects fn=isa pairs, got {pair!r}")
            result[name.strip()] = isa.strip()
    return result


def _read_source(path: str) -> str:
    if path in PROGRAMS:
        return load_program(path)
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


class _NullSink:
    """Event sink for ``--live``/``--prom`` without ``--events``: the
    stream machinery (heartbeat slicing, subscribers) runs, but no
    NDJSON is written anywhere."""

    def write(self, _text: str) -> None:
        pass

    def flush(self) -> None:
        pass


def _elf_build(elf: ElfFile) -> BuildResult:
    """A :class:`BuildResult` around a linked executable read from disk
    (:func:`repro.framework.pipeline.run` needs only the ELF and the
    architecture)."""
    return BuildResult(elf=elf, link_info=None, compile_result=None,
                       arch=KAHRISMA)


def cmd_compile_elf(args: argparse.Namespace) -> int:
    """``kahrisma compile <elf>``: ahead-of-time whole-program translation.

    Runs the program once (up to ``--profile-budget`` instructions) to
    learn the superblocks it executes, translates them into one
    generated module per requested cycle-model namespace and stores the
    modules in the plan cache, so a later ``kahrisma run --engine aot``
    starts warm (see docs/performance.md).
    """
    from .sim import aot

    if args.profile_budget <= 0:
        raise SystemExit("kahrisma compile: --profile-budget must be "
                         "positive")

    with open(args.input, "rb") as f:
        elf = ElfFile.read(f.read())
    width = KAHRISMA.isa(elf.flags).issue_width
    cache = open_plan_cache(
        _elf_build(elf), directory=args.plan_cache_dir,
        block_len=args.max_block_len, limit=args.plan_cache_limit,
    )
    status = 0
    for name in args.models.split(","):
        name = name.strip()
        try:
            model = RunConfig(model=name).make_model(width)
        except ValueError as exc:
            raise SystemExit(f"kahrisma compile: {exc}")
        label = "functional" if name == "none" else name
        try:
            module, per_entry, report = aot.compile_module(
                elf, KAHRISMA,
                model=model,
                max_block_len=args.max_block_len,
                profile_budget=args.profile_budget,
            )
        except ValueError as exc:
            print(f"{label}: {exc}")
            status = 1
            continue
        aot.record_compiled(cache, module, per_entry)
        print(
            f"{label}: {report['covered']} blocks, "
            f"{report['traces']} traces, "
            f"{report['coverage'] * 100:.1f}% coverage, "
            f"{report['seconds']:.2f}s"
        )
        if not report["complete"]:
            print(f"{label}: replay stopped at --profile-budget; the "
                  f"module covers only the blocks run before it")
    cache.save()
    print(f"plan cache: {cache.path}")
    return status


def cmd_compile(args: argparse.Namespace) -> int:
    if args.input not in PROGRAMS:
        try:
            with open(args.input, "rb") as f:
                magic = f.read(4)
        except OSError:
            magic = b""
        if magic == b"\x7fELF":
            return cmd_compile_elf(args)
    source = _read_source(args.input)
    isa_map = _parse_isa_map(args.mixed)
    if isa_map:
        compiled = compile_mixed(
            source, KAHRISMA, isa_map=isa_map, default_isa=args.isa,
            filename=args.input,
        )
    else:
        compiled = compile_source(
            source, KAHRISMA, isa=args.isa, filename=args.input
        )
    if args.emit_asm:
        with open(args.emit_asm, "w", encoding="utf-8") as f:
            f.write(compiled.assembly)
    obj = Assembler(KAHRISMA).assemble(compiled.assembly, args.input)
    elf, _info = link(
        [obj], KAHRISMA,
        entry_symbol=compiled.entry_symbol, entry_isa=compiled.entry_isa,
    )
    with open(args.output, "wb") as f:
        f.write(elf.write())
    print(f"wrote {args.output} (entry {compiled.entry_symbol})")
    return 0


def cmd_asm(args: argparse.Namespace) -> int:
    with open(args.input, "r", encoding="utf-8") as f:
        source = f.read()
    obj = Assembler(KAHRISMA).assemble(source, args.input)
    elf, _info = link(
        [obj], KAHRISMA, entry_symbol=args.entry, entry_isa=args.entry_isa
    )
    with open(args.output, "wb") as f:
        f.write(elf.write())
    print(f"wrote {args.output}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .framework.pipeline import run
    from .snapshot import CheckpointError, read_checkpoint
    from .telemetry.flight import FlightRecorder
    from .telemetry.stream import (
        EventStream,
        LiveProgress,
        PrometheusSnapshot,
        write_prometheus,
    )

    config = RunConfig(
        engine=args.engine,
        model=args.model,
        branch_predictor=args.branch_predictor,
        branch_penalty=args.branch_penalty,
        fuse_cycles=not args.no_cycle_fusion,
        max_block_len=args.max_block_len,
        max_instructions=args.max_instructions,
        sampling=args.sample,
    )
    profile_mode = None
    if args.profile:
        profile_mode = args.profile_mode
        if profile_mode == "auto":
            # Keep the superblock fast path when nothing forces the
            # per-instruction loop anyway.
            profile_mode = (
                "block"
                if args.engine == "superblock" and not args.trace
                else "exact"
            )
    try:
        config.validate(
            trace=bool(args.trace),
            profile=profile_mode,
            timeline=bool(args.timeline),
            checkpoint_every=args.checkpoint_every,
        )
    except ValueError as exc:
        raise SystemExit(f"kahrisma run: {exc}")

    with open(args.input, "rb") as f:
        elf = ElfFile.read(f.read())
    # ``--events -`` makes stdout the NDJSON channel: the human summary
    # and the program's own output move to stderr so the stream stays
    # machine-parseable end to end.
    events_to_stdout = args.events == "-"
    out = sys.stderr if events_to_stdout else sys.stdout
    events = None
    if args.events:
        events = EventStream.open(args.events, heartbeat_every=args.heartbeat)
    elif args.live or args.prom:
        events = EventStream(
            sink=_NullSink(), heartbeat_every=args.heartbeat
        )
    live = None
    if args.live:
        # Progress rendering is pinned to stderr (never `out`): with
        # `--events -` the NDJSON stream owns stdout, and a \r-rewritten
        # progress line interleaved into it would corrupt the stream.
        # tests/test_cli.py asserts this stdout purity.
        live = LiveProgress(sys.stderr, label=args.input)
        events.subscribe(live)
    prom = None
    if args.prom:
        prom = PrometheusSnapshot(args.prom)
        events.subscribe(prom)
    # Flight recording is default-armed on the translated engines
    # (block-granularity trail, <5% overhead — docs/observability.md);
    # the interactive engines would pay the featureful-loop price, so
    # they record only when --flight asks for it explicitly.
    flight = None
    if not args.no_flight and (
        args.flight or args.engine in ("superblock", "aot")
    ):
        flight = FlightRecorder(capacity=args.flight_size)
        if args.flight:
            flight.dump_path = args.flight
    # The cycle model is sized to the ISA the run starts in.
    resume = None
    isa_id = elf.flags if args.isa is None else args.isa
    if args.resume:
        try:
            resume = read_checkpoint(args.resume)
        except CheckpointError as exc:
            raise SystemExit(f"--resume: {exc}")
        isa_id = int(resume["state"]["isa_id"])
    model = config.make_model(KAHRISMA.isa(isa_id).issue_width)
    profiler = HotspotProfiler(mode=profile_mode) if profile_mode else None
    timeline = None
    if args.timeline:
        timeline = TimelineRecorder(max_events=args.timeline_events)
    tracer = Tracer.to_file(args.trace) if args.trace else None
    built = _elf_build(elf)
    plan_cache = None
    if args.engine in ("superblock", "aot") and not args.no_plan_cache:
        plan_cache = open_plan_cache(
            built, directory=args.plan_cache_dir,
            block_len=args.max_block_len, limit=args.plan_cache_limit,
        )

    def close_streams() -> None:
        if live is not None:
            live.close()
        if events is not None:
            events.close()

    try:
        result = run(
            built,
            cycle_model=model,
            tracer=tracer,
            isa_id=args.isa,
            profiler=profiler,
            timeline=timeline,
            collect_metrics=bool(args.metrics or args.prom),
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            resume_from=resume,
            workload=args.input,
            plan_cache=plan_cache,
            events=events,
            flight=flight,
            **config.run_kwargs(),
        )
    except SimulationError:
        # The interpreter already attached the flight snapshot (and
        # dumped --flight JSON); render the trail so the crash comes
        # with the blocks that led up to it.
        if live is not None:
            live.close()
        if flight is not None:
            print(flight.format(debug_info=debug_info_from_elf(elf)),
                  file=sys.stderr)
            if flight.dump_path:
                print(f"flight dump:  wrote {flight.dump_path}",
                      file=sys.stderr)
        if events is not None:
            events.close()
        raise
    except CheckpointError as exc:
        if not args.resume:
            raise
        close_streams()
        raise SystemExit(f"--resume: {exc}")
    except (ValueError, RuntimeError) as exc:
        # A checkpoint sampled under another schedule, or a stalled
        # sampling driver.
        if not args.sample:
            raise
        close_streams()
        raise SystemExit(f"--sample: {exc}")
    finally:
        # Flush partial telemetry even when the simulation aborts —
        # a truncated trace/timeline localises the fault.
        if tracer is not None:
            tracer.close()
        if timeline is not None:
            timeline.write(args.timeline)
    if events is not None:
        events.close()
    stats = result.stats
    out.write(result.output)
    print("---", file=out)
    print(f"instructions: {stats.executed_instructions}", file=out)
    print(f"exit code:    {result.exit_code}", file=out)
    print(f"mips:         {stats.mips:.3f}", file=out)
    sampled = result.sampling
    if sampled is None:
        print(f"decode cache: {stats.decode_avoidance * 100:.3f}% decodes "
              f"avoided", file=out)
        print(f"prediction:   {stats.lookup_avoidance * 100:.3f}% lookups "
              f"avoided", file=out)
        if model is not None:
            print(f"{args.model} cycles:   {model.cycles}", file=out)
    else:
        est = sampled.cycles_estimated
        ci = sampled.cycles_ci95
        ci_text = f" +/- {ci:.0f} (95% CI)" if ci is not None else ""
        print(f"{args.model} cycles:   "
              f"{est if est is not None else '(no interval measured)'}"
              f"{ci_text}  [estimated]", file=out)
        sc = sampled.config
        print(f"sampling:     U={sc.interval} k={sc.period} "
              f"W={sc.warmup} seed={sc.seed}  "
              f"{len(sampled.intervals)} intervals, "
              f"{sampled.detailed_fraction * 100:.2f}% detailed", file=out)
    branch_model = getattr(model, "branch_model", None)
    if branch_model is not None:
        print(f"branches:     {branch_model.summary()}", file=out)
    if timeline is not None:
        print(f"timeline:     wrote {args.timeline} "
              f"({len(timeline)} events, {timeline.dropped} dropped)",
              file=out)
    if result.checkpoints:
        print(f"checkpoints:  wrote {len(result.checkpoints)} into "
              f"{args.checkpoint_dir}", file=out)
    if args.flight and flight is not None:
        flight.dump()
        print(f"flight:       wrote {args.flight} "
              f"({len(flight)} entries)", file=out)
    report = result.telemetry
    if args.prom:
        # Final snapshot from the complete post-run metrics (heartbeat
        # refreshes stop before the last slice).
        write_prometheus(report["metrics"], args.prom)
        print(f"prometheus:   wrote {args.prom} "
              f"({prom.writes} heartbeat refreshes)", file=out)
    if args.metrics:
        write_report(report, args.metrics)
        print(f"metrics:      wrote {args.metrics}", file=out)
    if profiler is not None:
        print(file=out)
        print(render_report({k: v for k, v in report.items()
                             if k != "metrics"}, top=args.top), file=out)
    return result.exit_code


def cmd_parallel(args: argparse.Namespace) -> int:
    from .framework.parallel import run_parallel
    from .telemetry.stream import EventStream

    source = _read_source(args.input)
    isa_map = _parse_isa_map(args.mixed)
    built = build(
        source, isa=args.isa, isa_map=isa_map or None, filename=args.input
    )
    events_to_stdout = args.events == "-"
    out = sys.stderr if events_to_stdout else sys.stdout
    events = None
    if args.events:
        events = EventStream.open(args.events, heartbeat_every=args.heartbeat)
    try:
        result = run_parallel(
            built,
            shards=args.shards,
            model=None if args.model == "none" else args.model,
            branch_predictor=args.branch_predictor,
            branch_penalty=args.branch_penalty,
            engine=args.engine,
            checkpoint_dir=args.checkpoint_dir,
            max_instructions=args.max_instructions,
            processes=args.processes,
            workload=args.input,
            keep_checkpoints=args.keep_checkpoints,
            use_plan_cache=not args.no_plan_cache,
            plan_cache_dir=args.plan_cache_dir,
            events=events,
            sampling=args.sample,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    finally:
        if events is not None:
            events.close()
    out.write(result.output)
    print("---", file=out)
    plan = result.plan
    print(f"shards:       {len(result.shard_results)} over "
          f"{plan.total_instructions} instructions", file=out)
    print(f"instructions: {result.stats.executed_instructions}", file=out)
    print(f"exit code:    {result.exit_code}", file=out)
    if result.sampling is not None:
        est = result.sampling.cycles_estimated
        ci = result.sampling.cycles_ci95
        ci_text = f" +/- {ci:.0f} (95% CI)" if ci is not None else ""
        print(f"{args.model} cycles:   "
              f"{est if est is not None else '(no interval measured)'}"
              f"{ci_text}  [estimated, per-shard sampling]", file=out)
    elif result.cycles is not None:
        print(f"{args.model} cycles:   {result.cycles} "
              f"(approximate: shard models start cold)", file=out)
    for i, shard in enumerate(result.shard_results):
        start = plan.boundaries[i]
        end = (plan.boundaries[i + 1] if i + 1 < len(plan.boundaries)
               else plan.total_instructions)
        cycles = shard["cycles"]
        extra = f"  cycles {cycles}" if cycles is not None else ""
        print(f"  shard {i}: [{start}, {end})  "
              f"instructions {shard['stats'].executed_instructions}{extra}",
              file=out)
    if args.metrics:
        write_report(result.telemetry, args.metrics)
        print(f"metrics:      wrote {args.metrics}", file=out)
    return result.exit_code


def cmd_report(args: argparse.Namespace) -> int:
    import json

    from .telemetry.stream import (
        looks_like_event_stream,
        render_event_summary,
        summarize_events,
        validate_stream_text,
    )

    with open(args.metrics, "r", encoding="utf-8") as f:
        text = f.read()
    if looks_like_event_stream(text):
        # NDJSON event stream (`kahrisma run --events`): summarize it
        # instead of rendering a metrics table.
        try:
            events = validate_stream_text(text)
        except ValueError as exc:
            raise SystemExit(f"{args.metrics}: {exc}")
        print(render_event_summary(summarize_events(events)))
        return 0
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise SystemExit(f"{args.metrics}: not JSON ({exc})")
    if doc.get("schema") != "kahrisma-telemetry":
        print(f"warning: {args.metrics} does not look like a telemetry "
              f"report (schema={doc.get('schema')!r})", file=sys.stderr)
    print(render_report(doc, top=args.top))
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as f:
        elf = ElfFile.read(f.read())
    from .binutils.elf import PT_LOAD
    from .sim.memory import Memory
    from .targetgen.optable import build_target

    mem = Memory()
    for phdr, data in elf.segments:
        if phdr.p_type == PT_LOAD:
            mem.store_bytes(phdr.vaddr, data)
    text = elf.section(".text")

    target = build_target(KAHRISMA)
    optable = target.optable(elf.flags)
    start = args.start if args.start is not None else text.addr
    end = args.end if args.end is not None else text.addr + len(text.data)
    for line in disassemble_range(optable, mem, start, end):
        print(line)
    return 0


def cmd_ilp(args: argparse.Namespace) -> int:
    source = _read_source(args.input)
    built = build(source, isa="risc", filename=args.input)
    attributor = profile_functions(built)
    print(f"total: {attributor.model.ops} ops, {attributor.cycles} cycles, "
          f"ILP {attributor.model.ops_per_cycle:.3f}")
    print(f"{'function':<24} {'calls':>7} {'ops':>9} {'cycles':>9} {'ILP':>6}")
    for profile in attributor.sorted_profiles():
        if profile.instructions == 0:
            continue
        print(f"{profile.name:<24} {profile.calls:>7} {profile.ops:>9} "
              f"{profile.cycles:>9} {profile.ilp:>6.2f}")
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    source = _read_source(args.input)
    widths = tuple(int(w) for w in args.widths.split(","))
    report = select_isas(source, widths=widths, filename=args.input)
    print(report.format())
    print()
    pairs = ",".join(f"{fn}={isa}" for fn, isa in report.isa_map.items())
    print(f"isa_map: --mixed '{pairs}'")
    return 0


def cmd_targetgen(args: argparse.Namespace) -> int:
    if args.emit_sim:
        write_simulator_module(KAHRISMA, args.emit_sim)
        print(f"wrote {args.emit_sim}")
    if args.emit_stubs:
        with open(args.emit_stubs, "w", encoding="utf-8") as f:
            f.write(generate_libc_stubs(KAHRISMA))
        print(f"wrote {args.emit_stubs}")
    if args.emit_doc:
        write_isa_reference(KAHRISMA, args.emit_doc)
        print(f"wrote {args.emit_doc}")
    if not args.emit_sim and not args.emit_stubs and not args.emit_doc:
        print("nothing to do: pass --emit-sim, --emit-stubs and/or "
              "--emit-doc")
    return 0


def cmd_trace_diff(args: argparse.Namespace) -> int:
    from .sim.tracecheck import (
        diff_architectural_effects,
        diff_traces,
        parse_trace_file,
    )

    with open(args.left, "r", encoding="utf-8") as f:
        left = parse_trace_file(f.read())
    with open(args.right, "r", encoding="utf-8") as f:
        right = parse_trace_file(f.read())
    if args.effects_only:
        mismatch = diff_architectural_effects(left, right)
    else:
        mismatch = diff_traces(left, right, compare_cycles=args.cycles)
    if mismatch is None:
        print(f"traces agree ({len(left)} records)")
        return 0
    print(mismatch.format())
    return 1


def cmd_programs(_args: argparse.Namespace) -> int:
    for name, description in PROGRAMS.items():
        print(f"{name:<10} {description}")
    return 0


def _parse_tenant_limits(specs):
    """``name=running:queued`` flags -> {name: TenantLimits}."""
    from .serve import TenantLimits

    tenants = {}
    for spec in specs or ():
        name, sep, limits = spec.partition("=")
        running, _, queued = limits.partition(":")
        try:
            if not sep or not name:
                raise ValueError
            tenants[name] = TenantLimits(
                max_running=int(running),
                max_queued=int(queued) if queued else 256,
            )
        except ValueError:
            raise SystemExit(
                f"--tenant expects name=max_running[:max_queued], "
                f"got {spec!r}"
            )
    return tenants


def cmd_serve(args: argparse.Namespace) -> int:
    """``kahrisma serve``: run the simulation-as-a-service HTTP server.

    Job submission, scheduling, live event relay and metrics — see
    docs/serving.md.  Blocks until interrupted.
    """
    import asyncio

    from .serve import KahrismaServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        tenant_max_running=args.tenant_max_running,
        tenant_max_queued=args.tenant_max_queued,
        max_depth=args.max_depth,
        tenants=_parse_tenant_limits(args.tenant),
        checkpoint_dir=args.checkpoint_dir,
        plan_cache_dir=args.plan_cache_dir,
        use_plan_cache=not args.no_plan_cache,
    )
    server = KahrismaServer(config)

    async def main() -> None:
        await server.start()
        host, port = server.address
        print(
            f"kahrisma serve: http://{host}:{port}  "
            f"({config.workers} workers, checkpoints in "
            f"{config.checkpoint_dir})",
            file=sys.stderr, flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("kahrisma serve: shutting down", file=sys.stderr)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """``kahrisma submit``: run a program on a ``kahrisma serve`` server."""
    import json

    from .serve.client import KahrismaClient, ServeError
    from .telemetry.stream import LiveProgress

    spec: Dict[str, object] = {
        "isa": args.isa,
        "engine": args.engine,
        "model": args.model,
        "branch_predictor": args.branch_predictor,
        "branch_penalty": args.branch_penalty,
        "max_instructions": args.max_instructions,
        "tenant": args.tenant,
        "priority": args.priority,
        "heartbeat_every": args.heartbeat,
        "checkpoint_on_cancel": not args.no_cancel_checkpoint,
    }
    if args.input in PROGRAMS:
        spec["program"] = args.input
    else:
        spec["source"] = _read_source(args.input)
        spec["label"] = args.input
    isa_map = _parse_isa_map(args.mixed)
    if isa_map:
        spec["isa_map"] = isa_map
    if args.resume:
        spec["resume_from"] = args.resume
    if args.sample:
        spec["sampling"] = args.sample
    client = KahrismaClient(args.server)
    try:
        job = client.submit(spec)
        job_id = str(job["id"])
        # Same stdout discipline as `kahrisma run`: `--events -` makes
        # stdout the NDJSON channel, everything human moves to stderr.
        events_to_stdout = args.events == "-"
        out = sys.stderr if events_to_stdout else sys.stdout
        print(f"submitted {job_id} ({job['state']}) to {args.server}",
              file=sys.stderr)
        if args.no_wait:
            print(job_id, file=out)
            return 0
        if args.events or args.follow:
            sink = None
            if args.events:
                sink = (sys.stdout if events_to_stdout
                        else open(args.events, "w", encoding="utf-8"))
            live = LiveProgress(sys.stderr, label=job_id) \
                if args.follow else None
            try:
                for event in client.events(job_id):
                    if sink is not None:
                        sink.write(
                            json.dumps(event, sort_keys=True) + "\n"
                        )
                        sink.flush()
                    if live is not None:
                        live(event)
            finally:
                if live is not None:
                    live.close()
                if sink is not None and sink is not sys.stdout:
                    sink.close()
        result = client.wait(job_id, timeout=args.timeout)
    except ServeError as exc:
        raise SystemExit(f"kahrisma submit: {exc}")
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True), file=out)
        return 0 if result["state"] == "done" else 1
    state = result["state"]
    if result.get("output"):
        out.write(str(result["output"]))
    print("---", file=out)
    print(f"job:          {job_id} ({state})", file=out)
    if result.get("error"):
        print(f"error:        {result['error']}", file=out)
    if result.get("instructions") is not None:
        print(f"instructions: {result['instructions']}", file=out)
    if result.get("exit_code") is not None:
        print(f"exit code:    {result['exit_code']}", file=out)
    if result.get("cycles") is not None:
        print(f"cycles:       {result['cycles']}", file=out)
    if result.get("cycles_estimated") is not None:
        ci = result.get("cycles_ci95")
        ci_text = f" +/- {ci:.0f} (95% CI)" if ci is not None else ""
        print(f"cycles (est): {result['cycles_estimated']}{ci_text}",
              file=out)
    if result.get("mips") is not None:
        print(f"mips:         {result['mips']}", file=out)
    if result.get("checkpoint"):
        print(f"checkpoint:   {result['checkpoint']} (resumable)",
              file=out)
    if state == "failed" and result.get("flight"):
        print(result["flight"], file=sys.stderr)
    if state != "done":
        return 1
    return int(result.get("exit_code") or 0)


def cmd_fuzz(args) -> int:
    from .fuzz import (
        GenConfig,
        assemble_fuzz,
        default_matrix,
        generate_program,
        load_corpus,
        replay_entry,
        run_differential,
        save_reproducer,
        shrink,
    )
    from .fuzz.runner import SELF_TEST_VICTIM, self_test
    from .telemetry import format_forensics

    engines = tuple(e for e in args.engines.split(",") if e)
    for engine in engines:
        if engine not in ENGINES:
            print(f"error: unknown engine {engine!r}", file=sys.stderr)
            return 2
    models = tuple(m for m in args.models.split(",") if m)
    if "rtl" in models:
        # The RTL pipeline is a clocked reference model, several orders
        # of magnitude slower than the fuzz budget assumes; a matrix
        # cell with it would time out and read as a divergence.
        print("error: the fuzz matrix does not support --models rtl "
              "(the clocked RTL reference is too slow for the "
              "differential budget; use `kahrisma run --model rtl` "
              "on a reproducer instead)", file=sys.stderr)
        return 2
    configs = default_matrix(engines, models)
    max_instructions = args.max_instructions

    def report(result) -> None:
        for div in result.divergences:
            print(
                f"DIVERGENCE [{div.kind}] {div.config.label} vs "
                f"{div.reference.label}: {div.detail}",
                file=sys.stderr,
            )
            if div.forensics is not None:
                print(format_forensics(div.forensics), file=sys.stderr)

    def minimize(program, divergence, *, inject=None, inject_into=None):
        # The shrinker's hot loop re-runs every candidate, so it uses
        # only the two configurations that disagree (reference vs
        # divergent cell) and skips lockstep escalation.
        pair = [divergence.reference, divergence.config]

        def still_fails(candidate) -> bool:
            built = assemble_fuzz(candidate.render())
            return not run_differential(
                built, pair, max_instructions=max_instructions,
                inject=inject, inject_into=inject_into, escalate=False,
            ).ok

        return shrink(program, still_fails,
                      max_attempts=args.shrink_attempts)

    if args.replay is not None:
        entries = load_corpus(args.replay)
        if not entries:
            print(f"fuzz: no corpus entries under {args.replay}")
            return 0
        failed = 0
        for entry in entries:
            result = replay_entry(entry, configs,
                                  max_instructions=max_instructions)
            print(f"{entry['path']}: "
                  f"{'ok' if result.ok else 'DIVERGED'}")
            if not result.ok:
                failed += 1
                report(result)
        print(f"fuzz: replayed {len(entries)} corpus entries x "
              f"{len(configs)} configs, {failed} divergence(s)")
        return 1 if failed else 0

    if args.self_test:
        program = generate_program(args.seed, GenConfig(smc=True))
        built = assemble_fuzz(program.render())
        try:
            inject, result = self_test(
                built, configs, max_instructions=max_instructions)
        except RuntimeError as exc:
            print(f"fuzz self-test FAILED: {exc}", file=sys.stderr)
            return 1
        div = result.divergences[0]
        print(f"fuzz self-test: injected {inject} into "
              f"{SELF_TEST_VICTIM}; caught "
              f"{len(result.divergences)} divergence(s)")
        report(result)
        small = minimize(program, div, inject=inject,
                         inject_into=SELF_TEST_VICTIM)
        before = len(program.render().splitlines())
        after = len(small.render().splitlines())
        print(f"fuzz self-test: shrunk reproducer {before} -> "
              f"{after} asm lines")
        if div.first_divergent_pc is not None:
            print("fuzz self-test: forensics localized first "
                  f"divergent pc {div.first_divergent_pc:#x}")
        print("fuzz self-test: PASS (the rig trips on an injected "
              "fault)")
        return 0

    smc_every = args.smc_every
    ran = 0
    failures = 0
    for i in range(args.count):
        seed = args.seed + i
        smc = bool(smc_every) and i % smc_every == smc_every - 1
        program = generate_program(
            seed, GenConfig(segments=args.segments, smc=smc))
        built = assemble_fuzz(program.render(), name=f"<fuzz seed {seed}>")
        result = run_differential(built, configs,
                                  max_instructions=max_instructions)
        ran += 1
        features = "+".join(program.features) or "straight-line"
        if result.ok:
            if args.verbose or (i + 1) % 25 == 0 or i + 1 == args.count:
                print(f"[{i + 1}/{args.count}] seed={seed} ok "
                      f"({features}); {failures} divergence(s) so far")
            continue
        failures += 1
        print(f"[{i + 1}/{args.count}] seed={seed} DIVERGED "
              f"({features})", file=sys.stderr)
        report(result)
        div = result.divergences[0]
        small = minimize(program, div)
        doc = {"kind": div.kind, "config": div.config.label,
               "reference": div.reference.label, "detail": div.detail}
        if div.first_divergent_pc is not None:
            doc["first_divergent_pc"] = div.first_divergent_pc
        path = save_reproducer(
            args.save_failures, small,
            note=f"found by kahrisma fuzz --seed {args.seed} "
                 f"(program seed {seed})",
            divergence=doc,
        )
        print(f"reproducer written: {path} "
              f"({len(small.render().splitlines())} asm lines)",
              file=sys.stderr)
        if not args.keep_going:
            break
    print(f"fuzz: {ran} programs x {len(configs)} configs, "
          f"{failures} divergence(s)")
    return 1 if failures else 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kahrisma",
        description="Cycle-approximate, mixed-ISA simulator framework "
                    "for the KAHRISMA architecture",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "compile",
        help="compile KC source to an executable, or ahead-of-time "
             "translate an executable for `run --engine aot`",
    )
    p.add_argument("input",
                   help="KC source file, bundled program name, or an "
                        "ELF executable (AOT whole-program translation)")
    p.add_argument("-o", "--output", default="a.elf")
    p.add_argument("--isa", default="risc",
                   choices=["risc", "vliw2", "vliw4", "vliw6", "vliw8"])
    p.add_argument("--mixed", help="per-function ISA map: fn=isa,fn=isa,...")
    p.add_argument("--emit-asm", help="also write the assembly file")
    p.add_argument("--models", default="none,aie,doe",
                   help="ELF input: cycle-model namespaces to translate "
                        "(comma list of none/aie/doe; default all three)")
    p.add_argument("--plan-cache-dir", metavar="DIR",
                   help="ELF input: plan-cache directory (default: "
                        "$KAHRISMA_CACHE_DIR or ~/.cache/kahrisma)")
    p.add_argument("--plan-cache-limit", type=int, metavar="N",
                   help="ELF input: LRU cap on per-plan cache entries")
    p.add_argument("--max-block-len", type=int, metavar="N",
                   help="ELF input: superblock instruction cap "
                        "(default 64; folded into the plan-cache key)")
    p.add_argument("--profile-budget", type=int, default=100_000_000,
                   metavar="N",
                   help="ELF input: instructions of the replay whose "
                        "executed blocks the module covers (default: "
                        "the run cap)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("asm", help="assemble + link an assembly file")
    p.add_argument("input")
    p.add_argument("-o", "--output", default="a.elf")
    p.add_argument("--entry", default="$risc$main")
    p.add_argument("--entry-isa", type=int, default=0)
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("run", help="simulate an executable")
    p.add_argument("input")
    p.add_argument("--model", choices=["none", "ilp", "aie", "doe", "rtl"],
                   default="none")
    p.add_argument("--isa", type=int, default=None,
                   help="override the initial ISA id")
    p.add_argument("--trace", help="write a trace file")
    p.add_argument("--engine",
                   choices=["nocache", "cache", "predict", "superblock",
                            "aot"],
                   default="superblock",
                   help="execution engine (aot dispatches a whole-program "
                        "ahead-of-time module — see `kahrisma compile "
                        "<elf>`; tracing falls back to the featureful "
                        "loop)")
    p.add_argument("--max-instructions", type=int, default=100_000_000)
    p.add_argument("--metrics", metavar="PATH",
                   help="write the telemetry metrics/report JSON")
    p.add_argument("--profile", action="store_true",
                   help="attribute instructions/cycles/misses to guest "
                        "functions (prints a hot-spot table)")
    p.add_argument("--profile-mode",
                   choices=["auto", "exact", "block"], default="auto",
                   help="exact counts every PC (featureful loop); block "
                        "keeps the superblock fast path (default: auto)")
    p.add_argument("--timeline", metavar="PATH",
                   help="write a Chrome trace_event timeline (one track "
                        "per VLIW slot; open in Perfetto). Needs --model")
    p.add_argument("--timeline-events", type=int, default=1_000_000,
                   help="cap on buffered timeline events (default 1e6)")
    p.add_argument("--top", type=int, default=10,
                   help="rows in the --profile hot-spot table")
    p.add_argument("--branch-predictor",
                   choices=["perfect", "not-taken", "bimodal", "gshare"],
                   default="perfect",
                   help="branch misprediction extension (aie/doe/rtl)")
    p.add_argument("--branch-penalty", type=int, default=3)
    p.add_argument("--checkpoint-every", type=int, metavar="N",
                   help="write a checkpoint every N executed "
                        "instructions (docs/checkpointing.md)")
    p.add_argument("--checkpoint-dir", default="checkpoints",
                   help="directory for --checkpoint-every files "
                        "(default: checkpoints/)")
    p.add_argument("--resume", metavar="PATH",
                   help="resume from a checkpoint file instead of the "
                        "ELF entry point (stats cover the whole run)")
    p.add_argument("--no-plan-cache", action="store_true",
                   help="do not persist superblock translations across "
                        "runs (docs/performance.md)")
    p.add_argument("--plan-cache-dir", metavar="DIR",
                   help="plan-cache directory (default: "
                        "$KAHRISMA_CACHE_DIR or ~/.cache/kahrisma)")
    p.add_argument("--plan-cache-limit", type=int, metavar="N",
                   help="LRU cap on per-plan cache entries "
                        "(docs/performance.md)")
    p.add_argument("--max-block-len", type=int, metavar="N",
                   help="superblock instruction cap (default 64; folded "
                        "into the plan-cache key)")
    p.add_argument("--no-cycle-fusion", action="store_true",
                   help="keep AIE/DOE accounting on the per-instruction "
                        "observe path instead of compiling it into "
                        "translated superblocks")
    p.add_argument("--sample", metavar="U:k[:W[:seed]]",
                   help="statistical sampling tier: fast-forward "
                        "functionally and run the detailed cycle model "
                        "(aie/doe) on every k-th interval of U "
                        "instructions, warming caches/predictors for W "
                        "instructions first; reports an extrapolated "
                        "cycle estimate with a 95%% CI "
                        "(docs/performance.md)")
    p.add_argument("--events", metavar="PATH",
                   help="stream NDJSON run events (run-start, periodic "
                        "heartbeats, syscalls, ISA switches, SMC, "
                        "checkpoints, run-end) to PATH, or '-' for "
                        "stdout (the summary and program output move "
                        "to stderr)")
    p.add_argument("--heartbeat", type=int, default=250_000, metavar="N",
                   help="heartbeat cadence in executed instructions "
                        "(default 250000)")
    p.add_argument("--live", action="store_true",
                   help="rewrite a one-line progress bar on stderr from "
                        "the heartbeat events")
    p.add_argument("--prom", metavar="PATH",
                   help="keep a Prometheus text-exposition snapshot of "
                        "the run metrics at PATH (atomically refreshed "
                        "per heartbeat)")
    p.add_argument("--flight", metavar="PATH",
                   help="write the flight-recorder ring buffer as JSON "
                        "(always written on trap; also arms recording "
                        "on the interactive engines)")
    p.add_argument("--flight-size", type=int, default=512, metavar="N",
                   help="flight-recorder ring capacity in blocks "
                        "(default 512)")
    p.add_argument("--no-flight", action="store_true",
                   help="disable the flight recorder (default-armed on "
                        "the superblock/aot engines)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "parallel",
        help="shard a program over worker processes (checkpoint "
             "fast-forward + parallel cycle-model simulation)",
    )
    p.add_argument("input", help="KC source file or bundled program name")
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--model", choices=["none", "ilp", "aie", "doe", "rtl"],
                   default="doe",
                   help="cycle model each shard worker runs (default doe)")
    p.add_argument("--isa", default="risc",
                   choices=["risc", "vliw2", "vliw4", "vliw6", "vliw8"])
    p.add_argument("--mixed", help="per-function ISA map: fn=isa,fn=isa,...")
    p.add_argument("--engine",
                   choices=["nocache", "cache", "predict", "superblock"],
                   default="superblock")
    p.add_argument("--branch-predictor",
                   choices=["perfect", "not-taken", "bimodal", "gshare"],
                   default="perfect")
    p.add_argument("--branch-penalty", type=int, default=3)
    p.add_argument("--max-instructions", type=int, default=100_000_000)
    p.add_argument("--checkpoint-dir",
                   help="keep shard checkpoints here (default: a "
                        "temporary directory, removed afterwards)")
    p.add_argument("--keep-checkpoints", action="store_true",
                   help="do not delete the temporary checkpoint dir")
    p.add_argument("--processes", type=int, default=None,
                   help="worker process cap (default: one per shard, "
                        "at most the CPU count)")
    p.add_argument("--no-plan-cache", action="store_true",
                   help="workers translate their own superblocks "
                        "instead of sharing the persistent plan cache")
    p.add_argument("--plan-cache-dir", metavar="DIR",
                   help="plan-cache directory shared by the workers")
    p.add_argument("--metrics", metavar="PATH",
                   help="write the merged telemetry JSON")
    p.add_argument("--sample", metavar="U:k[:W[:seed]]",
                   help="per-shard statistical sampling (aie/doe): each "
                        "shard samples its own segment with seed+index, "
                        "estimates add, CI widths combine in quadrature")
    p.add_argument("--events", metavar="PATH",
                   help="stream NDJSON run events to PATH ('-' for "
                        "stdout); worker events arrive shard-tagged "
                        "after the merge")
    p.add_argument("--heartbeat", type=int, default=250_000, metavar="N",
                   help="per-shard heartbeat cadence in executed "
                        "instructions (default 250000)")
    p.set_defaults(func=cmd_parallel)

    p = sub.add_parser("report",
                       help="render a telemetry JSON as tables")
    p.add_argument("metrics",
                   help="report written by `kahrisma run --metrics`")
    p.add_argument("--top", type=int, default=10,
                   help="rows per hot-spot table (default 10)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("disasm", help="disassemble an executable")
    p.add_argument("input")
    p.add_argument("--start", type=lambda v: int(v, 0), default=None)
    p.add_argument("--end", type=lambda v: int(v, 0), default=None)
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("ilp", help="per-function theoretical ILP report")
    p.add_argument("input")
    p.set_defaults(func=cmd_ilp)

    p = sub.add_parser("select", help="ILP-indicator ISA selection")
    p.add_argument("input")
    p.add_argument("--widths", default="1,2,4,6,8")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("targetgen",
                       help="emit generated simulator fragments")
    p.add_argument("--emit-sim", help="write the simulator module")
    p.add_argument("--emit-stubs", help="write the libc stub assembly")
    p.add_argument("--emit-doc", help="write the Markdown ISA reference")
    p.set_defaults(func=cmd_targetgen)

    p = sub.add_parser("trace-diff",
                       help="compare two trace files (ISA validation)")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--effects-only", action="store_true",
                   help="compare only the memory-store sequences")
    p.add_argument("--cycles", action="store_true",
                   help="require identical cycle numbers too")
    p.set_defaults(func=cmd_trace_diff)

    p = sub.add_parser(
        "fuzz",
        help="cross-engine differential fuzzing of generated guest "
             "programs (docs/validation.md)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; program i uses seed+i (default 0)")
    p.add_argument("--count", type=int, default=50,
                   help="number of programs to generate (default 50)")
    p.add_argument("--segments", type=int, default=10,
                   help="body segments per generated program "
                        "(default 10)")
    p.add_argument("--smc-every", type=int, default=5, metavar="N",
                   help="every Nth program includes self-modifying "
                        "code (0 disables; default 5)")
    p.add_argument("--engines", default=",".join(ENGINES),
                   help="comma list of engines to cross-check "
                        f"(default {','.join(ENGINES)})")
    p.add_argument("--models", default="ilp,aie,doe",
                   help="comma list of cycle models (default "
                        "ilp,aie,doe; empty string = architectural "
                        "state only)")
    p.add_argument("--max-instructions", type=int, default=2_000_000,
                   help="per-configuration execution budget; hitting "
                        "it is itself a divergence (default 2000000)")
    p.add_argument("--save-failures", default="tests/corpus",
                   metavar="DIR",
                   help="where shrunk reproducers are written "
                        "(default tests/corpus)")
    p.add_argument("--shrink-attempts", type=int, default=120,
                   metavar="N",
                   help="candidate-evaluation budget of the shrinker "
                        "(default 120)")
    p.add_argument("--keep-going", action="store_true",
                   help="continue fuzzing after a divergence instead "
                        "of stopping at the first failure")
    p.add_argument("--replay", metavar="DIR",
                   help="replay corpus entries from DIR over the "
                        "matrix instead of generating programs")
    p.add_argument("--self-test", action="store_true",
                   help="inject a register fault into one "
                        "configuration and verify the rig catches, "
                        "localizes and shrinks it")
    p.add_argument("--verbose", action="store_true",
                   help="print one line per generated program")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service HTTP server "
             "(docs/serving.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321,
                   help="TCP port (0 picks a free port; default 8321)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes executing jobs (default 2)")
    p.add_argument("--tenant-max-running", type=int, default=2,
                   metavar="N",
                   help="default per-tenant concurrent-job cap "
                        "(default 2)")
    p.add_argument("--tenant-max-queued", type=int, default=256,
                   metavar="N",
                   help="default per-tenant queue-depth cap "
                        "(default 256)")
    p.add_argument("--max-depth", type=int, default=10_000, metavar="N",
                   help="global queue-depth cap across tenants "
                        "(default 10000)")
    p.add_argument("--tenant", action="append", metavar="NAME=R[:Q]",
                   help="per-tenant override: max_running and optional "
                        "max_queued (repeatable)")
    p.add_argument("--checkpoint-dir", default="serve-checkpoints",
                   help="where cancelled jobs drop resumable "
                        "checkpoints (default: serve-checkpoints/)")
    p.add_argument("--plan-cache-dir", metavar="DIR",
                   help="plan-cache directory shared by all workers "
                        "(default: $KAHRISMA_CACHE_DIR or "
                        "~/.cache/kahrisma)")
    p.add_argument("--no-plan-cache", action="store_true",
                   help="workers translate superblocks per job instead "
                        "of sharing the persistent plan cache")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a program to a running `kahrisma serve` server",
    )
    p.add_argument("input", help="KC source file or bundled program name")
    p.add_argument("--server", default="http://127.0.0.1:8321",
                   help="server base URL (default http://127.0.0.1:8321)")
    p.add_argument("--isa", default="risc",
                   choices=["risc", "vliw2", "vliw4", "vliw6", "vliw8"])
    p.add_argument("--mixed", help="per-function ISA map: fn=isa,fn=isa,...")
    p.add_argument("--engine",
                   choices=["nocache", "cache", "predict", "superblock",
                            "aot"],
                   default="superblock")
    p.add_argument("--model", choices=["none", "ilp", "aie", "doe", "rtl"],
                   default="none")
    p.add_argument("--branch-predictor",
                   choices=["perfect", "not-taken", "bimodal", "gshare"],
                   default="perfect")
    p.add_argument("--branch-penalty", type=int, default=3)
    p.add_argument("--max-instructions", type=int, default=100_000_000)
    p.add_argument("--tenant", default="default",
                   help="tenant the job is accounted to (default: "
                        "default)")
    p.add_argument("--priority", type=int, default=10,
                   help="scheduling priority; lower runs sooner "
                        "(default 10)")
    p.add_argument("--heartbeat", type=int, default=250_000, metavar="N",
                   help="heartbeat cadence and cancellation latency in "
                        "executed instructions (default 250000)")
    p.add_argument("--sample", metavar="U:k[:W[:seed]]",
                   help="statistical sampling tier on the server side "
                        "(requires --model aie/doe); the result carries "
                        "cycles_estimated/cycles_ci95")
    p.add_argument("--resume", metavar="PATH",
                   help="resume from a (server-local) checkpoint file — "
                        "e.g. one written by cancelling a previous job")
    p.add_argument("--no-cancel-checkpoint", action="store_true",
                   help="do not write a resumable checkpoint if this "
                        "job is cancelled")
    p.add_argument("--events", metavar="PATH",
                   help="relay the job's live NDJSON events to PATH, or "
                        "'-' for stdout (summary moves to stderr)")
    p.add_argument("--follow", action="store_true",
                   help="rewrite a one-line progress bar on stderr from "
                        "the relayed heartbeats")
    p.add_argument("--no-wait", action="store_true",
                   help="print the job id and exit without waiting")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds to wait for the result (default 300)")
    p.add_argument("--json", action="store_true",
                   help="print the raw result document as JSON")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("programs", help="list bundled benchmark programs")
    p.set_defaults(func=cmd_programs)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
