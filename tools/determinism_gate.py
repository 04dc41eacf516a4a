#!/usr/bin/env python3
"""CI determinism gate for the fast paths, checkpoints and sampling.

Runs these sections over one workload (default dct4x4) and exits
non-zero on any mismatch.  Every run-vs-run check goes through the one
equivalence rule (``docs/validation.md``): ``repro.fuzz.compare``
over ``observe`` outcomes (registers, IP, ISA, halt flag, exit code,
output, memory digest, architectural statistics, trap, same-model
cycles), plus equal ``save_state()`` when both runs carry a cycle
model.

1. **Fusion** — fused DOE accounting (the default superblock fast
   path) against the per-instruction ``fuse_cycles=False`` path.
2. **Resume** — a straight fused DOE run against a periodically
   checkpointed run and against a run resumed from a mid-run
   checkpoint (the resumed run restores the model state).
3. **Shard merge** — ``repro.framework.parallel`` with N shards: the
   merged architectural statistics, output and exit code must equal
   the straight run's (a merged result has no machine state to
   observe; cycles are approximate by design and only reported).
4. **AOT cross-engine** — each workload in ``--aot-benchmarks``
   (default: the main workload; ``all`` = every bundled benchmark),
   plus the mixed-ISA (pinned ``select_isas`` map) dct4x4 build, goes
   through ``run_differential`` over superblock, aot, superblock/doe
   and aot/doe to completion.  A divergence is rerun in lockstep
   (:func:`repro.telemetry.run_lockstep`) and printed as a forensic
   report: first divergent PC, register delta, both block trails.
5. **Sampled** — two sampled runs with a fixed ``(U, k, W, seed)``
   schedule (``--sampling-spec``) must agree with each other, including
   the measured intervals and the estimate, and with a pure
   functional run.
6. **Forensics self-test** (``--forensics-selftest``) — inject a
   register fault mid-run on one lockstep side and require the
   forensics pipeline to localize it: a non-empty report naming the
   first divergent PC, the corrupted register and both block trails.

``--perf-smoke`` adds wall-clock checks: with a warm persistent plan
cache, the fused DOE run must be at least ``--min-speedup`` (default
1.5x) faster than the per-instruction observe path, on the workload
and on the mixed-ISA (pinned) cjpeg build, and the warm AOT
functional run of ``--aot-perf-workload`` (default cjpeg, a
high-table-coverage workload) and of pinned cjpeg must each be at
least ``--min-aot-speedup`` (default 1.3x) faster than the warm-cache
superblock run.

Run from the repository root:

    PYTHONPATH=src python tools/determinism_gate.py [--workload dct4x4]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.cycles.doe import DoeModel  # noqa: E402
from repro.framework.config import DEFAULT_MAX_INSTRUCTIONS  # noqa: E402
from repro.framework.parallel import run_parallel  # noqa: E402
from repro.framework.pipeline import build_benchmark, run  # noqa: E402
from repro.fuzz import (  # noqa: E402
    EngineConfig,
    compare,
    observe,
    run_differential,
)
from repro.programs import PINNED_ISA_MAPS  # noqa: E402
from repro.telemetry import format_forensics, run_lockstep  # noqa: E402

FAILURES = []

#: The AOT section's matrix: the reference superblock engine first.
AOT_MATRIX = [
    EngineConfig("superblock"),
    EngineConfig("aot"),
    EngineConfig("superblock", "doe"),
    EngineConfig("aot", "doe"),
]


def check(label, diffs):
    """Record one check; ``diffs`` names what differs (empty = ok)."""
    if not diffs:
        print(f"  ok: {label}")
        return
    FAILURES.append(label)
    print(f"  MISMATCH: {label}")
    for diff in diffs:
        print(f"    {diff}")


def differs(name, expected, got):
    return [] if expected == got else [f"{name}: {expected!r} != {got!r}"]


def check_equivalent(label, a, b):
    """Two pipeline runs: ``compare`` their outcomes and model state."""
    diffs = compare(observe(a.program, a.stats, a.cycle_model),
                    observe(b.program, b.stats, b.cycle_model))
    if a.cycle_model is not None and b.cycle_model is not None:
        state_a = a.cycle_model.save_state()
        state_b = b.cycle_model.save_state()
        diffs += [f"model state {key} differs"
                  for key in sorted(state_a)
                  if state_a[key] != state_b.get(key)]
    check(label, diffs)


def perf_smoke(built, width, engine, min_speedup, label="fused DOE"):
    """Warm-plan-cache fused DOE must beat per-instruction observe."""
    import time

    from repro.framework.pipeline import open_plan_cache

    with tempfile.TemporaryDirectory() as cache_dir:
        # Prime the cache so the timed fused run starts warm — the
        # steady state every run after the first sees.
        run(built, engine=engine, cycle_model=DoeModel(issue_width=width),
            plan_cache=open_plan_cache(built, directory=cache_dir))
        best_fused = best_ref = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            run(built, engine=engine,
                cycle_model=DoeModel(issue_width=width),
                plan_cache=open_plan_cache(built, directory=cache_dir))
            best_fused = min(best_fused, time.perf_counter() - t0)
            t0 = time.perf_counter()
            run(built, engine=engine,
                cycle_model=DoeModel(issue_width=width),
                fuse_cycles=False)
            best_ref = min(best_ref, time.perf_counter() - t0)
    speedup = best_ref / best_fused
    print(f"  fused {best_fused * 1000:.1f} ms, per-instruction "
          f"{best_ref * 1000:.1f} ms -> {speedup:.2f}x "
          f"(required {min_speedup:.2f}x)")
    if speedup < min_speedup:
        FAILURES.append(f"{label} perf smoke")
        print(f"  MISMATCH: {label} is not fast enough")


def aot_cross_engine(name, built=None):
    """superblock vs aot, functional and fused DOE, to completion."""
    if built is None:
        built = build_benchmark(name)
    result = run_differential(built, AOT_MATRIX,
                              max_instructions=DEFAULT_MAX_INSTRUCTIONS)
    check(f"{name} aot vs superblock", [
        f"[{div.kind}] {div.config.label} vs {div.reference.label}: "
        f"{div.detail}" for div in result.divergences
    ])
    for div in result.divergences:
        if div.forensics is None:
            print("  lockstep rerun agreed to completion "
                  "(flaky host state?)")
        else:
            print(format_forensics(div.forensics,
                                   getattr(built, "debug_info", None)))


def sampled_determinism(built, width, spec):
    """Sampling tier: fixed (U,k,W,seed) is bitwise reproducible.

    Two sampled runs must agree on every observable, the model state,
    the measured intervals and the extrapolated estimate, and the
    sampled run must equal a pure functional run — the schedule only
    decides *when* the cycle model watches, never what the program
    computes.
    """
    first = run(built, engine="superblock",
                cycle_model=DoeModel(issue_width=width), sampling=spec)
    second = run(built, engine="superblock",
                 cycle_model=DoeModel(issue_width=width), sampling=spec)
    check_equivalent("sampled run reproducible", first, second)
    check("sampled intervals and estimate reproducible",
          differs("sampling", first.sampling.to_doc(),
                  second.sampling.to_doc()))
    functional = run(built, engine="superblock")
    check_equivalent("sampled run vs functional", functional, first)


def aot_perf_smoke(built, name, min_speedup):
    """Warm AOT must beat the warm-cache superblock engine.

    Measured on a high-coverage workload (default cjpeg): blocks
    ending in simops or ISA switches run on the interactive fallback
    path by design, so simop-dense microbenchmarks measure the
    fallback, not the table.
    """
    import time

    from repro.framework.pipeline import open_plan_cache

    with tempfile.TemporaryDirectory() as cache_dir:
        # Cold pass: compile the module and populate the plan cache.
        run(built, engine="aot",
            plan_cache=open_plan_cache(built, directory=cache_dir))
        run(built, engine="superblock",
            plan_cache=open_plan_cache(built, directory=cache_dir))
        best_sb = best_aot = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            run(built, engine="superblock",
                plan_cache=open_plan_cache(built, directory=cache_dir))
            best_sb = min(best_sb, time.perf_counter() - t0)
            t0 = time.perf_counter()
            run(built, engine="aot",
                plan_cache=open_plan_cache(built, directory=cache_dir))
            best_aot = min(best_aot, time.perf_counter() - t0)
    speedup = best_sb / best_aot
    print(f"  {name}: superblock {best_sb * 1000:.1f} ms, aot "
          f"{best_aot * 1000:.1f} ms -> {speedup:.2f}x "
          f"(required {min_speedup:.2f}x)")
    if speedup < min_speedup:
        FAILURES.append(f"{name} aot perf smoke")
        print("  MISMATCH: warm aot is not fast enough")


def forensics_selftest(built):
    """Injected fault must yield a localized forensic report.

    Flips one bit of the stack pointer on the lockstep B side at a
    fixed instruction boundary and requires :func:`run_lockstep` to
    come back with a report that (a) exists, (b) names the first
    divergent PC at exactly the injection boundary, (c) blames a
    register, and (d) carries non-empty block trails from both
    engines — everything CI relies on when a *real* divergence hits.
    """
    sp = built.arch.register_file.by_role("sp")[0].name
    inject = {"at": 50_000, "reg": sp, "xor": 8}
    report = run_lockstep(
        built,
        {"engine": "superblock", "label": "superblock"},
        {"engine": "aot", "label": "aot"},
        inject=inject,
    )
    if report is None:
        FAILURES.append("forensics selftest: no divergence detected")
        print("  MISMATCH: injected fault produced no report")
        return
    problems = []
    if report.get("first_divergent_pc") is None:
        problems.append("no first_divergent_pc")
    if report.get("first_divergent_instruction") != inject["at"]:
        problems.append(
            f"localized instruction "
            f"{report.get('first_divergent_instruction')} != {inject['at']}"
        )
    delta = (report.get("replay_register_delta")
             or report.get("register_delta") or [])
    if not any(entry.get("name") == sp for entry in delta):
        problems.append(f"register delta does not name {sp}")
    for key in ("recent_blocks_a", "recent_blocks_b"):
        if not (report.get(key) or {}).get("blocks"):
            problems.append(f"{key} trail empty")
    if problems:
        FAILURES.append("forensics selftest")
        for problem in problems:
            print(f"  MISMATCH: forensics selftest: {problem}")
        return
    pc = report["first_divergent_pc"]
    print(f"  ok: injected {sp}^=8 at #{inject['at']} localized to "
          f"pc={pc:#x}, {len(report['recent_blocks_a']['blocks'])}+"
          f"{len(report['recent_blocks_b']['blocks'])} trail entries")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="dct4x4")
    parser.add_argument("--engine", default="superblock")
    parser.add_argument("--checkpoint-every", type=int, default=40_000)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--perf-smoke", action="store_true",
                        help="also gate fused-DOE and aot wall-clock "
                             "speedups")
    parser.add_argument("--min-speedup", type=float, default=1.5)
    parser.add_argument("--min-aot-speedup", type=float, default=1.3)
    parser.add_argument("--aot-perf-workload", default="cjpeg",
                        help="workload for the aot perf smoke (default "
                             "cjpeg: high table coverage — simop-dense "
                             "workloads measure the fallback path)")
    parser.add_argument("--forensics-selftest", action="store_true",
                        help="inject a register fault into a lockstep "
                             "run and require the forensics report to "
                             "localize it (first divergent PC, register "
                             "delta, block trails)")
    parser.add_argument("--sampling-spec", default="2000:10:200",
                        help="U:k[:W[:seed]] schedule for the sampled "
                             "determinism section")
    parser.add_argument("--aot-benchmarks", default=None,
                        help="comma list of workloads for the aot "
                             "cross-engine section; 'all' = every "
                             "bundled benchmark (default: --workload)")
    args = parser.parse_args(argv)

    FAILURES.clear()
    built = build_benchmark(args.workload)
    width = built.issue_width

    print(f"straight run ({args.workload}, {args.engine}, doe, fused) ...")
    straight = run(built, engine=args.engine,
                   cycle_model=DoeModel(issue_width=width))

    print("per-instruction reference (fuse_cycles=False) ...")
    ref = run(built, engine=args.engine,
              cycle_model=DoeModel(issue_width=width), fuse_cycles=False)
    check_equivalent("fused vs per-instruction doe", straight, ref)

    print(f"checkpoint + resume (every {args.checkpoint_every}) ...")
    with tempfile.TemporaryDirectory() as directory:
        part = run(
            built, engine=args.engine,
            cycle_model=DoeModel(issue_width=width),
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=directory,
        )
        if not part.checkpoints:
            print(f"  MISMATCH: no checkpoints written — workload too "
                  f"short for --checkpoint-every {args.checkpoint_every}")
            return 1
        check_equivalent("checkpointed run", straight, part)
        middle = part.checkpoints[len(part.checkpoints) // 2]
        print(f"resuming from {os.path.basename(middle)} ...")
        resumed = run(
            built, engine=args.engine,
            cycle_model=DoeModel(issue_width=width), resume_from=middle,
        )
        check_equivalent("resumed run", straight, resumed)

    print(f"parallel shard merge ({args.shards} shards) ...")
    par = run_parallel(built, shards=args.shards, model="doe",
                       engine=args.engine, workload=args.workload)
    check("merged shards", (
        differs("stats", straight.stats.architectural_dict(),
                par.stats.architectural_dict())
        + differs("output", straight.output, par.output)
        + differs("exit_code", straight.exit_code, par.exit_code)
    ))
    drift = abs(par.cycles - straight.cycles) / max(straight.cycles, 1)
    print(f"  info: shard cycle drift {drift * 100:.3f}% "
          f"({par.cycles} vs {straight.cycles}; approximate by "
          f"design, not gated)")

    if args.aot_benchmarks == "all":
        from repro.programs import program_names

        aot_names = sorted(program_names())
    elif args.aot_benchmarks:
        aot_names = [n.strip() for n in args.aot_benchmarks.split(",")]
    else:
        aot_names = [args.workload]
    print(f"aot cross-engine ({', '.join(aot_names)}, pinned dct4x4) ...")
    for name in aot_names:
        aot_cross_engine(name)
    aot_cross_engine("pinned dct4x4", build_benchmark(
        "dct4x4", isa_map=PINNED_ISA_MAPS["dct4x4"]))

    print(f"sampled determinism ({args.sampling_spec}) ...")
    sampled_determinism(built, width, args.sampling_spec)

    if args.forensics_selftest:
        print("forensics self-test (injected sp fault) ...")
        forensics_selftest(built)

    if args.perf_smoke:
        print(f"perf smoke (warm plan cache, min {args.min_speedup}x) ...")
        perf_smoke(built, width, args.engine, args.min_speedup)
        print(f"perf smoke, pinned cjpeg (min {args.min_speedup}x) ...")
        pinned = build_benchmark("cjpeg", isa_map=PINNED_ISA_MAPS["cjpeg"])
        perf_smoke(pinned, pinned.widest_issue_width, args.engine,
                   args.min_speedup, label="pinned cjpeg fused DOE")
        print(f"aot perf smoke (warm module, min "
              f"{args.min_aot_speedup}x) ...")
        aot_perf_smoke(build_benchmark(args.aot_perf_workload),
                       args.aot_perf_workload, args.min_aot_speedup)
        print(f"aot perf smoke, pinned cjpeg (min "
              f"{args.min_aot_speedup}x) ...")
        aot_perf_smoke(pinned, "pinned cjpeg", args.min_aot_speedup)

    if FAILURES:
        print(f"\ndeterminism gate FAILED: {len(FAILURES)} mismatch(es)")
        return 1
    print("\ndeterminism gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
