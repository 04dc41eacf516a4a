#!/usr/bin/env python3
"""Machine-readable Table I benchmark: engine MIPS per workload.

Runs each requested workload under the interpreter's execution engines
and writes one JSON document so CI (and future PRs) have a perf
trajectory to diff instead of eyeballing pytest-benchmark tables:

* ``predict`` and ``superblock`` are measured over a *full* functional
  run (the acceptance-relevant numbers — the superblock speedup column
  is computed from these);
* ``nocache`` and ``cache`` are measured over a fixed instruction
  budget, since the uncached loop decodes every dynamic instruction
  and would take minutes per workload;
* the ``cycle_models`` section times each workload under AIE and DOE
  twice — fused accounting (compiled into translated superblocks) vs
  the per-instruction ``observe`` path — verifies the cycle counts are
  bitwise-identical, and reports the fused speedup;
* the ``plan_cache`` section times a cold (fresh cache file) against a
  warm start and records the translation/hit counters proving the warm
  run skipped translation entirely;
* the ``aot`` section compiles the whole program ahead of time
  (``kahrisma compile`` in-process), records the compile cost and
  static coverage, and times the warm ``engine="aot"`` run against the
  warm-cache superblock engine (the ``aot`` engine is excluded from
  the generic engine loop — without a compiled module it just *is*
  the superblock engine);
* the ``block_len_ablation`` section re-times the functional
  superblock run under ``--max-block-len`` caps, showing what the
  64-instruction default buys over short blocks;
* the ``observability`` section times the superblock and warm AOT
  engines with live event streaming (NDJSON file sink) *and* the
  flight recorder attached against a bare run, recording the overhead
  fraction and the heartbeat/event counts (the <5 % contract in
  ``docs/observability.md``; the hard CI gate lives in
  ``tools/telemetry_overhead.py``).

Run from the repository root:

    PYTHONPATH=src python tools/bench_to_json.py --out BENCH_table1.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.binutils.loader import load_executable  # noqa: E402
from repro.framework.pipeline import build_benchmark  # noqa: E402
from repro.programs import program_names  # noqa: E402
from repro.sim.interpreter import ENGINES, Interpreter  # noqa: E402
from repro.telemetry import (  # noqa: E402
    SCHEMA_VERSION,
    collect_run_metrics,
)

#: Instruction budget for the engines too slow for full runs.
BUDGETED = {"nocache": 15_000, "cache": 200_000}


def git_commit() -> str:
    """Short commit hash of the working tree ("unknown" outside git)."""
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            text=True, stderr=subprocess.DEVNULL,
        ).strip()
    except Exception:
        return "unknown"


def timed_run(built, engine, max_instructions=None):
    program = load_executable(built.elf, built.arch)
    interp = Interpreter(program.state, engine=engine)
    start = time.perf_counter()
    stats = interp.run(max_instructions=max_instructions
                       if max_instructions is not None else 50_000_000)
    elapsed = time.perf_counter() - start
    return stats, elapsed, interp


def measure_parallel(built, shards, repeats):
    """Time the sharded cycle-model run (``repro.framework.parallel``).

    Reported next to the single-process engines so the perf trajectory
    captures the shard runner too.  The merged architectural stats are
    recorded so regressions in the merge path show up as instruction
    count changes, not just timing noise.
    """
    from repro.framework.parallel import run_parallel

    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_parallel(built, shards=shards, model="doe")
        elapsed = time.perf_counter() - start
        mips = result.stats.executed_instructions / elapsed / 1e6
        if best is None or mips > best["mips"]:
            best = {
                "shards": len(result.shard_results),
                "mips": round(mips, 3),
                "instructions": result.stats.executed_instructions,
                "seconds": round(elapsed, 4),
                "cycles_approx": result.cycles,
                "architectural": result.stats.architectural_dict(),
            }
    return best


def _timed_model_run(built, kind, repeats, **kwargs):
    from repro.framework.pipeline import run as pipeline_run

    best = None
    for _ in range(repeats):
        model = make_model(kind, built.issue_width)
        start = time.perf_counter()
        result = pipeline_run(built, engine="superblock",
                              cycle_model=model, **kwargs)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[1]:
            best = (result, elapsed, model)
    return best


def make_model(kind, width):
    from repro.cycles.aie import AieModel
    from repro.cycles.doe import DoeModel

    if kind == "aie":
        return AieModel()
    return DoeModel(issue_width=width)


def measure_cycle_models(built, repeats):
    """AIE/DOE rows: fused vs per-instruction observe, same cycles."""
    out = {}
    for kind in ("aie", "doe"):
        fused, fused_s, fused_model = _timed_model_run(
            built, kind, repeats)
        ref, ref_s, ref_model = _timed_model_run(
            built, kind, repeats, fuse_cycles=False)
        if fused_model.cycles != ref_model.cycles:
            raise SystemExit(
                f"{kind}: fused cycles {fused_model.cycles} != "
                f"observe cycles {ref_model.cycles} — fusion is broken"
            )
        mips = fused.stats.executed_instructions / fused_s / 1e6
        out[kind] = {
            "cycles": fused_model.cycles,
            "instructions": fused.stats.executed_instructions,
            "fused_seconds": round(fused_s, 4),
            "fused_mips": round(mips, 3),
            "observe_seconds": round(ref_s, 4),
            "observe_mips": round(
                ref.stats.executed_instructions / ref_s / 1e6, 3),
            "speedup_fused_vs_observe": round(ref_s / fused_s, 3),
            "cycles_bitwise_identical": True,
        }
    return out


def measure_plan_cache(built, repeats):
    """Cold vs warm start against a fresh persistent plan cache."""
    import tempfile

    from repro.framework.pipeline import open_plan_cache
    from repro.framework.pipeline import run as pipeline_run

    with tempfile.TemporaryDirectory() as cache_dir:
        model = make_model("doe", built.issue_width)
        start = time.perf_counter()
        cold = pipeline_run(
            built, engine="superblock", cycle_model=model,
            plan_cache=open_plan_cache(built, directory=cache_dir),
        )
        cold_s = time.perf_counter() - start
        cold_engine = cold.interpreter.superblock
        best = None
        for _ in range(repeats):
            model = make_model("doe", built.issue_width)
            start = time.perf_counter()
            warm = pipeline_run(
                built, engine="superblock", cycle_model=model,
                plan_cache=open_plan_cache(built, directory=cache_dir),
            )
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best[1]:
                best = (warm, elapsed)
        warm, warm_s = best
        warm_engine = warm.interpreter.superblock
    if warm_engine.translations != 0 or warm_engine.plan_cache_hits == 0:
        raise SystemExit(
            f"warm plan-cache run translated "
            f"{warm_engine.translations} plans "
            f"(hits {warm_engine.plan_cache_hits}) — cache is broken"
        )
    return {
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 3),
        "cold_translations": cold_engine.translations,
        "warm_translations": warm_engine.translations,
        "warm_plan_cache_hits": warm_engine.plan_cache_hits,
    }


def measure_aot(built, repeats):
    """Ahead-of-time tier: compile cost, coverage, warm-run speedup.

    Compiles the functional module once (timed — the ``kahrisma
    compile`` cost a user pays), records it into a fresh plan cache,
    then times warm ``engine="aot"`` runs against warm-cache
    superblock runs, each reviving from its own freshly opened cache
    handle so neither side keeps in-process state.
    """
    import tempfile

    from repro.framework.pipeline import open_plan_cache
    from repro.framework.pipeline import run as pipeline_run
    from repro.sim import aot

    with tempfile.TemporaryDirectory() as cache_dir:
        cache = open_plan_cache(built, directory=cache_dir)
        start = time.perf_counter()
        module, per_entry, report = aot.compile_module(
            built.elf, built.arch, model=None
        )
        compile_s = time.perf_counter() - start
        cache.record_module(module.namespace, module.payload())
        for (isa_id, entry_ip), (plan, variants) in per_entry.items():
            cache.record(
                isa_id, entry_ip, plan.span, plan.code_digest,
                module.namespace, variants,
            )
        cache.save()
        # Prime the superblock side so both engines start warm.
        pipeline_run(built, engine="superblock",
                     plan_cache=open_plan_cache(built, directory=cache_dir))
        best_sb = best_aot = None
        for _ in range(repeats):
            start = time.perf_counter()
            pipeline_run(built, engine="superblock",
                         plan_cache=open_plan_cache(built,
                                                    directory=cache_dir))
            elapsed = time.perf_counter() - start
            if best_sb is None or elapsed < best_sb:
                best_sb = elapsed
            start = time.perf_counter()
            result = pipeline_run(built, engine="aot",
                                  plan_cache=open_plan_cache(
                                      built, directory=cache_dir))
            elapsed = time.perf_counter() - start
            if best_aot is None or elapsed < best_aot[1]:
                best_aot = (result, elapsed)
        result, aot_s = best_aot
    binding = result.interpreter.aot
    if binding is None or binding.entries_bound == 0:
        raise SystemExit(
            "warm aot run bound no table entries — the module cache "
            "is broken"
        )
    instructions = result.stats.executed_instructions
    return {
        "compile_seconds": round(compile_s, 4),
        "coverage": report["coverage"],
        "entries": report["covered"],
        "traces": report["traces"],
        "warm_seconds": round(aot_s, 4),
        "warm_mips": round(instructions / aot_s / 1e6, 3),
        "warm_superblock_seconds": round(best_sb, 4),
        "aot_vs_superblock_speedup": round(best_sb / aot_s, 3),
        "entries_bound": binding.entries_bound,
        "dispatches": binding.dispatches,
        "table_blocks_fraction": round(
            binding.blocks_executed
            / max(binding.blocks_executed
                  + result.interpreter.superblock.blocks_executed, 1),
            4,
        ),
    }


def measure_observability(built, repeats, heartbeat=250_000):
    """Streaming + flight overhead per engine (superblock, warm aot).

    Both configurations run against the same warm persistent plan
    cache, so each engine's comparison is steady-state vs steady-state
    with the only delta being the attached observers (an NDJSON event
    stream writing to a file and a 512-entry flight recorder).
    """
    import tempfile

    from repro.framework.pipeline import open_plan_cache
    from repro.framework.pipeline import run as pipeline_run
    from repro.telemetry import EventStream, FlightRecorder

    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        events_path = os.path.join(workdir, "events.ndjson")
        cache_dir = os.path.join(workdir, "plancache")
        # Prime once: compiles the aot module and fills the plan cache.
        pipeline_run(built, engine="aot",
                     plan_cache=open_plan_cache(built, directory=cache_dir))
        for engine in ("superblock", "aot"):
            best_base = best_obs = None
            events = heartbeats = flight_entries = 0
            for _ in range(repeats):
                start = time.perf_counter()
                pipeline_run(built, engine=engine,
                             plan_cache=open_plan_cache(
                                 built, directory=cache_dir))
                elapsed = time.perf_counter() - start
                if best_base is None or elapsed < best_base:
                    best_base = elapsed
                stream = EventStream.open(
                    events_path, heartbeat_every=heartbeat
                )
                flight = FlightRecorder(capacity=512)
                start = time.perf_counter()
                pipeline_run(built, engine=engine,
                             plan_cache=open_plan_cache(
                                 built, directory=cache_dir),
                             events=stream, flight=flight)
                elapsed = time.perf_counter() - start
                stream.close()
                if best_obs is None or elapsed < best_obs:
                    best_obs = elapsed
                    with open(events_path, encoding="utf-8") as fh:
                        lines = [json.loads(line) for line in fh
                                 if line.strip()]
                    events = len(lines)
                    heartbeats = sum(
                        1 for e in lines if e["type"] == "heartbeat"
                    )
                    flight_entries = len(flight)
            out[engine] = {
                "baseline_seconds": round(best_base, 4),
                "streamed_seconds": round(best_obs, 4),
                "overhead": round(best_obs / best_base - 1.0, 4),
                "heartbeat_every": heartbeat,
                "heartbeats": heartbeats,
                "events": events,
                "flight_entries": flight_entries,
            }
    return out


#: ``--max-block-len`` caps for the superblock ablation (None = the
#: engine's 64-instruction default).
ABLATION_CAPS = (4, 16, None)


def measure_block_len(built, repeats):
    """Functional superblock MIPS under each ``--max-block-len`` cap."""
    from repro.framework.pipeline import run as pipeline_run

    out = {}
    for cap in ABLATION_CAPS:
        best = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = pipeline_run(built, engine="superblock",
                                  max_block_len=cap)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best[1]:
                best = (result, elapsed)
        result, elapsed = best
        out["default" if cap is None else str(cap)] = {
            "mips": round(
                result.stats.executed_instructions / elapsed / 1e6, 3),
            "seconds": round(elapsed, 4),
        }
    return out


def measure_workload(name, engines, repeats, shards=0):
    built = build_benchmark(name)
    entry = {"engines": {}}
    for engine in engines:
        if engine == "aot":
            continue  # measured with a compiled module in measure_aot
        budget = BUDGETED.get(engine)
        best = None
        for _ in range(repeats):
            stats, elapsed, interp = timed_run(built, engine, budget)
            mips = stats.executed_instructions / elapsed / 1e6
            if best is None or mips > best["mips"]:
                best = {
                    "engine": engine,
                    "mips": round(mips, 3),
                    "instructions": stats.executed_instructions,
                    "seconds": round(elapsed, 4),
                    "full_run": budget is None,
                    "telemetry": collect_run_metrics(interp),
                }
        entry["engines"][engine] = best
    eng = entry["engines"]
    if "predict" in eng and "superblock" in eng:
        entry["speedup_superblock_vs_predict"] = round(
            eng["superblock"]["mips"] / eng["predict"]["mips"], 3
        )
    if shards:
        entry["parallel"] = measure_parallel(built, shards, repeats)
    entry["cycle_models"] = measure_cycle_models(built, repeats)
    entry["plan_cache"] = measure_plan_cache(built, repeats)
    entry["aot"] = measure_aot(built, repeats)
    entry["block_len_ablation"] = measure_block_len(built, repeats)
    entry["observability"] = measure_observability(built, repeats)
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--programs", default="cjpeg,dct4x4",
        help="comma-separated workloads, or 'all' (default: cjpeg,dct4x4)",
    )
    parser.add_argument(
        "--engines", default=",".join(ENGINES),
        help=f"comma-separated subset of {ENGINES}",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed runs per configuration; the best is kept (default 3)",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="also measure the parallel shard runner with this many "
             "shards (0 = skip; needs >1 CPU to show a speedup)",
    )
    parser.add_argument(
        "--out", default="BENCH_table1.json", help="output path"
    )
    args = parser.parse_args(argv)

    names = (sorted(program_names()) if args.programs == "all"
             else args.programs.split(","))
    engines = args.engines.split(",")
    for engine in engines:
        if engine not in ENGINES:
            parser.error(f"unknown engine {engine!r}")

    document = {
        "benchmark": "table1_simulator_performance",
        # Provenance so the perf trajectory is comparable across PRs.
        "schema_version": SCHEMA_VERSION,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {},
    }
    for name in names:
        print(f"measuring {name} ...", flush=True)
        document["workloads"][name] = measure_workload(
            name, engines, args.repeats, shards=args.shards
        )

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")

    for name, entry in document["workloads"].items():
        speedup = entry.get("speedup_superblock_vs_predict")
        row = ", ".join(
            f"{engine} {data['mips']:.2f} MIPS"
            for engine, data in entry["engines"].items()
        )
        extra = f"  (superblock {speedup}x over predict)" if speedup else ""
        print(f"  {name}: {row}{extra}")
        par = entry.get("parallel")
        if par:
            print(f"  {name}: parallel x{par['shards']} "
                  f"{par['mips']:.2f} MIPS (doe)")
        for kind, row in entry.get("cycle_models", {}).items():
            print(f"  {name}: {kind} fused {row['fused_mips']:.2f} MIPS, "
                  f"observe {row['observe_mips']:.2f} MIPS "
                  f"({row['speedup_fused_vs_observe']}x, "
                  f"{row['cycles']} cycles both ways)")
        cache = entry.get("plan_cache")
        if cache:
            print(f"  {name}: plan cache warm {cache['warm_speedup']}x "
                  f"over cold ({cache['warm_plan_cache_hits']} hits, "
                  f"{cache['warm_translations']} warm translations)")
        aot_row = entry.get("aot")
        if aot_row:
            print(f"  {name}: aot compile {aot_row['compile_seconds']}s "
                  f"({aot_row['coverage'] * 100:.1f}% coverage), "
                  f"warm {aot_row['warm_mips']:.2f} MIPS "
                  f"({aot_row['aot_vs_superblock_speedup']}x over warm "
                  f"superblock)")
        ablation = entry.get("block_len_ablation")
        if ablation:
            row = ", ".join(f"cap {cap} {data['mips']:.2f} MIPS"
                            for cap, data in ablation.items())
            print(f"  {name}: block-len ablation: {row}")
        obs = entry.get("observability")
        if obs:
            row = ", ".join(
                f"{engine} {data['overhead']:+.1%} "
                f"({data['heartbeats']} heartbeats)"
                for engine, data in obs.items()
            )
            print(f"  {name}: streaming+flight overhead: {row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
