"""``fuzz``: generated mixed-ISA programs through the differential matrix.

Programs come from ``repro.fuzz.generator`` with four body segments
and SMC in every other program (``kahrisma fuzz --segments 4
--smc-every 2``).  The generator seeds derive from ``--seed``; among
them the workload keeps programs of one control-flow size (the median
label count of the generator's output, separately for SMC and plain
programs), so the seed changes program contents but not program size,
which is what the AOT compile cost, and so the run time, mostly
follows.  Four segments instead of the default ten put one to two
programs a second into the run, enough for a steady rate.  Each program
is assembled by ``assemble_fuzz`` and checked by ``run_differential``
over ``default_matrix()``; any divergence is a failed operation.

After the timed programs a fixed accuracy set (generator seeds
independent of ``--seed``) measures DOE against the RTL reference and
the sampled estimate against exact DOE on generated programs.
"""

from __future__ import annotations

import random
import statistics
import time

from common import (
    Checker,
    HostClock,
    Tracer,
    peak_rss_mb,
    quantile,
    tail,
)

SEGMENTS = 4
#: Label count kept for plain and SMC programs: the medians of the
#: generator's distribution at ``SEGMENTS`` segments.
TARGET_LABELS = {False: 3, True: 6}
#: Programs selected in set-up (the timed loop stops before this).
POOL = 64
#: Fixed generator seeds of the accuracy set, and its model settings.
ACCURACY_SEEDS = tuple(range(900, 916))
ACCURACY_WIDTH = 8
ACCURACY_SPEC = "20:3:10"
#: Runs of each accuracy program per model.  The accuracy set is fixed,
#: so its rates vary only with the measurement: with 5 runs the rates
#: of ten runs spread 13-20% (a run of a few hundred instructions takes
#: milliseconds), hence 15.
ACCURACY_REPEATS = 15
#: Generator seed of the set-up program, and how many times set-up
#: runs (``setup_s`` is the median; the first time also pays the
#: imports).
WARMUP_SEED = 7
SETUPS = 3


def engine_group(engine: str) -> str:
    if engine == "aot":
        return "aot"
    if engine == "superblock":
        return "translating"
    return "interactive"


def trace_layers(tracer: Tracer) -> None:
    from repro.binutils.assembler import Assembler
    from repro.fuzz import runner
    from repro.sim import aot

    tracer.patch(Assembler, "assemble", "binutils.assemble")
    tracer.patch(runner, "link", "binutils.link")
    tracer.patch(runner, "load_executable", "binutils.load")
    tracer.patch(aot, "prepare", "aot.prepare")


class ConfigTimer:
    """Times every matrix cell ``run_differential`` executes.

    ``run_differential`` calls the module-level ``run_config`` once per
    configuration; the wrapper times the call (a span per engine group
    when tracing) and keeps the span of every cell.
    """

    def __init__(self, tracer: Tracer) -> None:
        from repro.fuzz import runner

        self.runner = runner
        self.original = runner.run_config
        self.cells: list = []

        def timed(built, config, **kwargs):
            name = f"fuzz.{engine_group(config.engine)}_config"
            with tracer.span(name) as span:
                outcome = self.original(built, config, **kwargs)
            self.cells.append(span)
            return outcome

        runner.run_config = timed

    def close(self) -> None:
        self.runner.run_config = self.original


def render(gseed: int, smc: bool) -> str:
    from repro.fuzz import GenConfig, generate_program

    return generate_program(
        gseed, GenConfig(segments=SEGMENTS, smc=smc)).render()


def labels(asm: str) -> int:
    return sum(1 for line in asm.splitlines() if line.strip().endswith(":"))


def select_programs(seed: int, count: int) -> list:
    """``(generator seed, smc)`` pairs of the target size, from ``seed``."""
    rng = random.Random(seed)
    chosen = []
    while len(chosen) < count:
        smc = len(chosen) % 2 == 1
        gseed = rng.randrange(1 << 31)
        if labels(render(gseed, smc)) == TARGET_LABELS[smc]:
            chosen.append((gseed, smc))
    return chosen


def check_program(gseed: int, smc: bool, checker: Checker,
                  tracer: Tracer):
    """Generate, assemble and check one program; returns its span."""
    from repro.fuzz import assemble_fuzz, run_differential

    label = f"fuzz seed {gseed}"
    with tracer.span("fuzz.program", trace=label) as span:
        with tracer.span("fuzz.generate"):
            asm = render(gseed, smc)
        with tracer.span("fuzz.assemble"):
            built = assemble_fuzz(asm, name=f"<{label}>")
        with tracer.span("fuzz.differential"):
            result = run_differential(built)
    checker.verdict(label, [
        f"[{div.kind}] {div.config.label} vs {div.reference.label}: "
        f"{div.detail}" for div in result.divergences
    ])
    return span


def accuracy_observe(gseed: int, tracer: Tracer) -> dict:
    """Functional, exact DOE, sampled DOE and RTL runs of one accuracy
    program: the cycles they report, and the spans of
    ``ACCURACY_REPEATS`` runs of each of the first three (one run of a
    few hundred instructions is too short to time steadily, so the
    median counts)."""
    from repro.cycles.doe import DoeModel
    from repro.framework.pipeline import run
    from repro.fuzz import GenConfig, assemble_fuzz, generate_program
    from repro.rtl.pipeline import RtlPipeline

    built = assemble_fuzz(
        generate_program(gseed, GenConfig(smc=gseed % 2 == 1)).render())
    kinds = {
        "functional": ("superblock.run", lambda: {}),
        "doe": ("doe.run", lambda: {
            "cycle_model": DoeModel(issue_width=ACCURACY_WIDTH)}),
        "sampled": ("sampling.run", lambda: {
            "cycle_model": DoeModel(issue_width=ACCURACY_WIDTH),
            "sampling": ACCURACY_SPEC}),
    }
    spans, results = {}, {}
    for kind, (span_name, options) in kinds.items():
        spans[kind] = []
        for _ in range(ACCURACY_REPEATS):
            with tracer.span(span_name) as span:
                results[kind] = run(built, engine="superblock", **options())
            spans[kind].append(span)
    rtl = RtlPipeline(ACCURACY_WIDTH)
    with tracer.span("rtl.run"):
        run(built, cycle_model=rtl)
        rtl_cycles = rtl.cycles
    return {
        "observed": {
            "doe": results["doe"].cycles,
            "rtl": rtl_cycles,
            "cycles_estimated": results["sampled"].sampling.cycles_estimated,
            "instructions": results["functional"].stats.executed_instructions,
        },
        "spans": spans,
    }


def record_golden() -> dict:
    tracer = Tracer(False)
    return {
        "accuracy": {
            str(gseed): accuracy_observe(gseed, tracer)["observed"]
            for gseed in ACCURACY_SEEDS
        }
    }


def main(args, golden: dict, tracer: Tracer, checker: Checker):
    from repro.fuzz import assemble_fuzz, run_differential

    with HostClock() as clock:
        setups = []
        for _ in range(SETUPS):
            with tracer.span("setup") as setup:
                pool = select_programs(args.seed, POOL)
                run_differential(assemble_fuzz(render(WARMUP_SEED, False)))
            setups.append(setup)
        timer = ConfigTimer(tracer)
        try:
            programs = []
            start = time.perf_counter()
            for gseed, smc in pool:
                if programs and time.perf_counter() - start >= args.seconds:
                    break
                programs.append(check_program(gseed, smc, checker, tracer))
        finally:
            timer.close()
        observed = [accuracy_observe(gseed, tracer)
                    for gseed in ACCURACY_SEEDS]

    accuracy = {}
    seconds = {"functional": 0.0, "doe": 0.0, "sampled": 0.0}
    instructions = 0
    for gseed, got in zip(ACCURACY_SEEDS, observed):
        obs = got["observed"]
        checker.check(f"accuracy seed {gseed}",
                      golden["accuracy"][str(gseed)], obs)
        for kind, spans in got["spans"].items():
            seconds[kind] += statistics.median(
                clock.seconds(s.start, s.end) for s in spans)
        instructions += obs["instructions"]
        accuracy[gseed] = {
            "doe_rtl_pct": abs(obs["doe"] - obs["rtl"]) / obs["rtl"] * 100,
            "sampled_pct": abs(obs["cycles_estimated"] - obs["doe"])
            / obs["doe"] * 100,
        }

    # Reference seconds of the set-ups, programs and matrix cells.
    setups = [clock.seconds(s.start, s.end) for s in setups]
    programs = [clock.seconds(s.start, s.end) for s in programs]
    cell_s = [clock.seconds(s.start, s.end) for s in timer.cells]
    tail_s, tail_pct, tail_beyond = tail(cell_s)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "functional_mips": instructions / seconds["functional"] / 1e6,
        "detailed_mips": instructions / seconds["doe"] / 1e6,
        "sampled_mips": instructions / seconds["sampled"] / 1e6,
        "sampled_error_max_pct":
            max(a["sampled_pct"] for a in accuracy.values()),
        "doe_rtl_error_max_pct":
            max(a["doe_rtl_pct"] for a in accuracy.values()),
        "programs_per_s": len(programs) / sum(programs),
        "latency_p50_s": quantile(cell_s, 0.5),
        "latency_tail_s": tail_s,
        "max_rate_jobs_per_s": len(cell_s) / sum(cell_s),
    }
    self_s = tracer.self_times(clock)
    per_layer = {
        "binutils.assemble_s": self_s.get("binutils.assemble", 0.0),
        "binutils.link_s": self_s.get("binutils.link", 0.0),
        "binutils.load_s": self_s.get("binutils.load", 0.0),
        "aot.prepare_s": self_s.get("aot.prepare", 0.0),
        "fuzz.generate_s": self_s.get("fuzz.generate", 0.0),
        "fuzz.assemble_s": self_s.get("fuzz.assemble", 0.0),
        "fuzz.aot_configs_s": self_s.get("fuzz.aot_config", 0.0),
        "fuzz.translating_configs_s":
            self_s.get("fuzz.translating_config", 0.0),
        "fuzz.interactive_configs_s":
            self_s.get("fuzz.interactive_config", 0.0),
        "sampling.run_s": self_s.get("sampling.run", 0.0),
        "rtl.run_s": self_s.get("rtl.run", 0.0),
    }
    detail = {
        "setup_runs_s": setups,
        "programs": len(programs),
        "program_seconds": programs,
        "generator_seeds": [gseed for gseed, _smc in pool[:len(programs)]],
        "cells": len(cell_s),
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples_beyond": tail_beyond,
        "work_s": sum(programs) / len(programs),
        "accuracy": accuracy,
        "accuracy_spec": ACCURACY_SPEC,
        "host_clock": clock.summary(),
        "target_labels": {"plain": TARGET_LABELS[False],
                          "smc": TARGET_LABELS[True]},
    }
    return end_to_end, per_layer, detail
