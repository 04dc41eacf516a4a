"""``suite``: warm mixed-ISA runs of the seven bundled programs.

Every program is built with its pinned ``select_isas`` map (the paper's
ILP-driven mixed-ISA build).  Set-up builds, opens a fresh plan cache,
runs ``aot.prepare`` (which also records the functional plans it
translates) and makes one warm-up run of each program with the exact
DOE model (which translates the fused DOE plans); the timed rounds then
run each program through functional superblock and AOT, exact fused
DOE (sized to the widest ISA in the build, as ``examples/mixed_isa.py``
does), the run report and the sampled DOE estimate.  A round is fixed
work, one per ``ROUND_SECONDS`` of ``--seconds``, so how many rounds a
run makes never depends on how fast the host is.  Table II (DOE vs the
RTL reference on dct4x4 for risc/vliw2/vliw4/vliw8) runs once after the
rounds.  The inputs are fixed in the KC sources, so the seed is
recorded but unused.
"""

from __future__ import annotations

import shutil
import tempfile

from common import (
    PINNED_ISA_MAPS,
    PROGRAMS,
    SUITE_SAMPLING_SPECS,
    Checker,
    HostClock,
    Tracer,
    digest,
    peak_rss_mb,
    quantile,
    tail,
    work_dir,
)

TABLE2_ISAS = (("risc", 1), ("vliw2", 2), ("vliw4", 4), ("vliw8", 8))
ROUND_SECONDS = 15
TABLE2_PROGRAM = "dct4x4"


def trace_layers(tracer: Tracer) -> None:
    """Spans for the layer calls ``pipeline`` makes internally."""
    from repro.binutils.assembler import Assembler
    from repro.framework import pipeline
    from repro.sim.plancache import PlanCache

    tracer.patch(pipeline, "compile_mixed", "lang.compile")
    tracer.patch(pipeline, "compile_source", "lang.compile")
    tracer.patch(Assembler, "assemble", "binutils.assemble")
    tracer.patch(pipeline, "link", "binutils.link")
    tracer.patch(pipeline, "load_executable", "binutils.load")
    tracer.patch(PlanCache, "save", "plancache.save")


def widest_issue(built) -> int:
    from repro.adl.kahrisma import KAHRISMA

    return max(
        KAHRISMA.isa_named(isa).issue_width
        for isa, _sym in built.compile_result.functions.values()
    )


def observed(result) -> dict:
    return {
        "output": digest(result.output),
        "exit_code": result.exit_code,
        "instructions": result.stats.executed_instructions,
    }


class Program:
    """One pinned mixed-ISA build with its plan cache and AOT module."""

    def __init__(self, name: str, cache_dir: str, tracer: Tracer) -> None:
        from repro.cycles.doe import DoeModel
        from repro.framework.pipeline import (
            build_benchmark,
            open_plan_cache,
            run,
        )
        from repro.sim import aot

        self.name = name
        with tracer.span("build", trace=name):
            self.built = build_benchmark(name, isa_map=PINNED_ISA_MAPS[name])
        self.width = widest_issue(self.built)
        with tracer.span("plancache.open", trace=name):
            self.cache = open_plan_cache(self.built, directory=cache_dir)
        with tracer.span("aot.prepare", trace=name):
            self.module = aot.prepare(self.built.elf, self.built.arch,
                                      model=None, plan_cache=self.cache)
        self.cache.save()
        with tracer.span("warmup", trace=name):
            run(self.built, engine="superblock",
                cycle_model=DoeModel(issue_width=self.width),
                plan_cache=self.cache)


def setup(tracer: Tracer):
    cache_dir = tempfile.mkdtemp(dir=work_dir("tmp"), prefix="suite-")
    with tracer.span("setup") as span:
        loaded = [Program(name, cache_dir, tracer) for name in PROGRAMS]
    return loaded, cache_dir, span


def run_round(programs, golden, checker: Checker, tracer: Tracer,
              ops: list, counters: dict) -> dict:
    """One pass of every program through the five suite operations.

    Appends ``(kind, program, span, instructions)`` to ``ops``,
    accumulates layer counters into ``counters``, checks every
    observable against ``golden`` (skipped when None, as when
    recording) and returns them as ``{program: {section: ...}}``.
    """
    from repro.cycles.doe import DoeModel
    from repro.framework.pipeline import run
    from repro.telemetry import build_run_report, collect_run_metrics

    seen: dict = {}

    def check(prog, section, got, op=None):
        seen.setdefault(prog.name, {})[section] = got
        if golden is not None:
            checker.check(f"{prog.name}/{op or section}",
                          golden[prog.name][section], got)

    def add(key, value):
        counters[key] = counters.get(key, 0) + value

    for prog in programs:
        with tracer.span("superblock.run", trace=prog.name) as span:
            result = run(prog.built, engine="superblock",
                         plan_cache=prog.cache)
        check(prog, "functional", observed(result), "superblock")
        ops.append(("superblock", prog.name, span,
                    result.stats.executed_instructions))
        metrics = collect_run_metrics(result.interpreter)
        add("superblock.translations",
            metrics["sim.superblock.translations"])
        add("superblock.blocks", metrics["sim.superblock.blocks_executed"])
        add("superblock.chain_hits", metrics["sim.superblock.chain_hits"])
        add("sim.isa_switches", result.stats.isa_switches)

        with tracer.span("aot.run", trace=prog.name) as span:
            result = run(prog.built, engine="aot", aot_module=prog.module,
                         plan_cache=prog.cache)
        check(prog, "functional", observed(result), "aot")
        ops.append(("aot", prog.name, span,
                    result.stats.executed_instructions))
        metrics = collect_run_metrics(result.interpreter)
        add("aot.dispatches", metrics["sim.aot.dispatches"])
        add("aot.blocks_executed", metrics["sim.aot.blocks_executed"])

        model = DoeModel(issue_width=prog.width)
        with tracer.span("doe.run", trace=prog.name) as span:
            result = run(prog.built, engine="superblock", cycle_model=model,
                         plan_cache=prog.cache)
        exact = model.cycles
        check(prog, "doe", dict(observed(result), cycles=exact))
        ops.append(("doe", prog.name, span,
                    result.stats.executed_instructions))

        with tracer.span("telemetry.report", trace=prog.name) as span:
            report = build_run_report(result.interpreter, model)
        ops.append(("report", prog.name, span, 0))
        metrics = report["metrics"]
        checker.check(f"{prog.name}/report",
                      {"cycles": exact,
                       "instructions": result.stats.executed_instructions},
                      {"cycles": metrics["cycles.doe.cycles"],
                       "instructions": metrics["sim.executed_instructions"]})
        for level in ("l1", "l2"):
            for kind in ("hits", "misses"):
                key = f"mem.cache.{level}.{kind}"
                add(key, metrics[key])

        with tracer.span("sampling.run", trace=prog.name) as span:
            result = run(prog.built, engine="aot", aot_module=prog.module,
                         cycle_model=DoeModel(issue_width=prog.width),
                         sampling=SUITE_SAMPLING_SPECS[prog.name],
                         plan_cache=prog.cache)
        sampled = result.sampling
        check(prog, "sampled", dict(
            observed(result), cycles_estimated=sampled.cycles_estimated))
        ops.append(("sampled", prog.name, span,
                    result.stats.executed_instructions))
        add("sampling.intervals", len(sampled.intervals))
        add("sampling.instructions_sampled", sampled.instructions_sampled)
        add("sampling.instructions", result.stats.executed_instructions)
        counters.setdefault("sampled_error", {})[prog.name] = (
            abs(sampled.cycles_estimated - exact) / exact
        )
    return seen


def table2(golden, checker: Checker, tracer: Tracer) -> dict:
    """DOE vs the RTL reference on dct4x4 for four issue widths
    (checked against ``golden`` unless it is None)."""
    from repro.cycles.doe import DoeModel
    from repro.framework.pipeline import build_benchmark, run
    from repro.rtl.pipeline import RtlPipeline

    rows = {}
    for isa, width in TABLE2_ISAS:
        built = build_benchmark(TABLE2_PROGRAM, isa=isa)
        doe = DoeModel(issue_width=width)
        with tracer.span("table2.doe", trace=isa):
            run(built, engine="superblock", cycle_model=doe)
        rtl = RtlPipeline(width)
        with tracer.span("rtl.run", trace=isa):
            run(built, cycle_model=rtl)
            rtl_cycles = rtl.cycles
        got = {"doe": doe.cycles, "rtl": rtl_cycles}
        if golden is not None:
            checker.check(f"table2/{isa}", golden[isa], got)
        rows[isa] = dict(got, error_pct=abs(doe.cycles - rtl_cycles)
                         / rtl_cycles * 100)
    return rows


def record_golden() -> dict:
    """Observables of every suite operation at the current commit."""
    tracer = Tracer(False)
    checker = Checker()
    programs, cache_dir, _ = setup(tracer)
    try:
        doc = run_round(programs, None, checker, tracer, [], {})
        rows = table2(None, checker, tracer)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if checker.failures:
        raise RuntimeError(f"suite: inconsistent run: {checker.failures}")
    doc["table2"] = {isa: {"doe": row["doe"], "rtl": row["rtl"]}
                     for isa, row in rows.items()}
    return doc


def main(args, golden: dict, tracer: Tracer, checker: Checker):
    with HostClock() as clock:
        programs, cache_dir, setup_span = setup(tracer)
        try:
            ops: list = []
            counters: dict = {}
            rounds = max(1, round(args.seconds / ROUND_SECONDS))
            for _ in range(rounds):
                run_round(programs, golden, checker, tracer, ops, counters)
            rows = table2(golden["table2"], checker, tracer)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    # Reference seconds of the set-up and of every operation.
    setup_s = clock.seconds(setup_span.start, setup_span.end)
    ops = [(kind, name, clock.seconds(span.start, span.end), n)
           for kind, name, span, n in ops]

    def totals(*kinds):
        chosen = [op for op in ops if op[0] in kinds]
        return sum(op[2] for op in chosen), sum(op[3] for op in chosen)

    functional_s, functional_n = totals("superblock", "aot")
    doe_s, doe_n = totals("doe")
    sampled_s, sampled_n = totals("sampled")
    round_s, _ = totals("superblock", "aot", "doe", "report", "sampled")
    request_s = [op[2] for op in ops if op[0] != "report"]
    tail_s, tail_pct, tail_beyond = tail(request_s)
    sb_s, _ = totals("superblock")
    end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "functional_mips": functional_n / functional_s / 1e6,
        "detailed_mips": doe_n / doe_s / 1e6,
        "sampled_mips": sampled_n / sampled_s / 1e6,
        "sampled_error_max_pct":
            max(counters["sampled_error"].values()) * 100,
        "doe_rtl_error_max_pct": max(r["error_pct"] for r in rows.values()),
        "programs_per_s": len(programs) * rounds / round_s,
        "latency_p50_s": quantile(request_s, 0.5),
        "latency_tail_s": tail_s,
        "max_rate_jobs_per_s": len(request_s) / sum(request_s),
    }
    self_s = tracer.self_times(clock)
    per_layer = {name: self_s.get(name[:-2], 0.0) for name in (
        "lang.compile_s", "binutils.assemble_s", "binutils.link_s",
        "binutils.load_s", "plancache.open_s", "plancache.save_s",
        "aot.prepare_s", "aot.run_s", "superblock.run_s", "doe.run_s",
        "sampling.run_s", "rtl.run_s", "telemetry.report_s",
    )}
    blocks = counters["superblock.blocks"]
    per_layer.update({
        "aot.dispatches": counters["aot.dispatches"],
        "aot.blocks_executed": counters["aot.blocks_executed"],
        "superblock.translations": counters["superblock.translations"],
        "superblock.chain_hit_rate":
            counters["superblock.chain_hits"] / blocks if blocks else 0.0,
        "sim.isa_switches": counters["sim.isa_switches"],
        "doe.share_s": doe_s - sb_s,
        "sampling.detailed_fraction":
            counters["sampling.instructions_sampled"]
            / counters["sampling.instructions"],
        "sampling.intervals": counters["sampling.intervals"],
    })
    for level in ("l1", "l2"):
        for kind in ("hits", "misses"):
            key = f"mem.cache.{level}.{kind}"
            per_layer[key] = counters[key]
    detail = {
        "rounds": rounds,
        "operations": len(ops),
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples_beyond": tail_beyond,
        "latency_samples": len(request_s),
        "work_s": round_s,
        "table2": rows,
        "host_clock": clock.summary(),
        "sampled_error_pct": {k: v * 100 for k, v in
                              counters["sampled_error"].items()},
        "per_program_s": {
            kind: {name: sum(op[2] for op in ops
                             if op[0] == kind and op[1] == name)
                   for name in PROGRAMS}
            for kind in ("superblock", "aot", "doe", "sampled")
        },
    }
    return end_to_end, per_layer, detail
