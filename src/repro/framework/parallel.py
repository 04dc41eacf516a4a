"""Parallel interval simulation over checkpoint shards.

Cycle-approximate simulation is orders of magnitude slower than purely
functional emulation (the cycle model observes every instruction).
This module exploits that gap: a cheap functional pass fast-forwards
through the program and drops a checkpoint at every shard boundary,
then each interval is simulated *with* the expensive cycle model in a
separate worker process, and the per-shard statistics are merged into
one result.

Because the simulator is fully deterministic (``docs/checkpointing.md``),
the shards re-execute exactly the instruction stream the functional
pass saw, so the merged *architectural* statistics are bitwise-equal to
an uninterrupted run.  Cycle counts are an approximation: each shard's
cycle model starts cold (empty caches, reset slot drift, reset branch
predictor), so the summed cycles differ from a straight run by the
warm-up transient at each boundary — small for shard intervals that
are long relative to cache warm-up, and quantified in
``docs/checkpointing.md``.

Worker processes receive only checkpoint *paths* plus the run's
:class:`~repro.framework.config.RunConfig`: a checkpoint is a complete
run description, so workers never need the ELF.  Only the bundled
KAHRISMA architecture is supported (the architecture is rebuilt by
name inside each worker; generated simulator functions are not
picklable).
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim.stats import SimStats
from ..telemetry.collect import SCHEMA_NAME, SCHEMA_VERSION, collect_run_metrics
from .config import RunConfig
from .pipeline import DEFAULT_MAX_INSTRUCTIONS, BuildResult

#: Engine of the functional fast-forward pass.
_FAST_ENGINE = "superblock"


@dataclass
class ShardPlan:
    """Result of the functional fast-forward pass."""

    #: Shard start points in executed instructions; ``boundaries[0]``
    #: is 0 and every shard ``i`` runs ``[boundaries[i], boundaries[i+1])``
    #: (the last one runs to program halt).
    boundaries: List[int]
    #: One checkpoint file per boundary, same order.
    checkpoints: List[str]
    #: Whole-program instruction count measured by the counting pass.
    total_instructions: int


def plan_shards(
    built: BuildResult,
    *,
    shards: int,
    directory: str,
    input_data: bytes = b"",
    isa_id: Optional[int] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    plan_cache=None,
) -> ShardPlan:
    """Fast-forward functionally and checkpoint every shard boundary.

    Two passes with the cheap functional interpreter: the first counts
    the program's total instructions, the second stops at each boundary
    ``total*i/shards`` and writes a checkpoint there.  Boundaries that
    collide (program shorter than the shard count) are deduplicated, so
    the plan may come back with fewer shards than requested.

    ``plan_cache`` (a :class:`~repro.sim.plancache.PlanCache`) lets the
    second pass — and any warm re-run — reuse the first pass's
    superblock translations instead of recompiling every hot plan.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    from ..binutils.loader import load_executable
    from ..sim.interpreter import Interpreter
    from ..snapshot import IncrementalPageEncoder, snapshot_run, write_checkpoint
    from ..snapshot.runner import checkpoint_path

    os.makedirs(directory, exist_ok=True)

    def fresh():
        program = load_executable(
            built.elf, built.arch, isa_id=isa_id, input_data=input_data
        )
        interp = Interpreter(
            program.state, engine=_FAST_ENGINE, plan_cache=plan_cache
        )
        return program, interp

    program, interp = fresh()
    interp.run(max_instructions=max_instructions)
    if not program.state.halted:
        raise ValueError(
            f"program did not halt within {max_instructions} instructions; "
            f"cannot shard an unbounded run"
        )
    total = interp.stats.executed_instructions

    boundaries = sorted({total * i // shards for i in range(shards)})
    program, interp = fresh()
    encoder = IncrementalPageEncoder()
    paths: List[str] = []
    for boundary in boundaries:
        done = interp.stats.executed_instructions
        if boundary > done:
            interp.run(max_instructions=boundary - done)
        payload = snapshot_run(
            program.state, program.syscalls,
            stats=interp.stats,
            memory_encoder=encoder,
            meta={"instructions": boundary, "shard_of": total},
        )
        path = checkpoint_path(directory, boundary, prefix="shard")
        write_checkpoint(path, payload)
        paths.append(path)
    return ShardPlan(boundaries=boundaries, checkpoints=paths,
                     total_instructions=total)


def _run_shard(spec: Dict[str, object]) -> Dict[str, object]:
    """Worker: simulate one interval with the expensive cycle model.

    Module-level so it imports cleanly under the ``spawn`` start
    method; everything in ``spec`` and in the returned dict is
    picklable (paths, ints, strings, ``RunConfig``, ``SimStats``).
    """
    from ..adl.kahrisma import KAHRISMA
    from ..sim.interpreter import Interpreter
    from ..snapshot import read_checkpoint, restore_run

    config: RunConfig = spec["config"]
    model = config.make_model(int(spec["issue_width"]))
    plan_cache = None
    cache_spec = spec.get("plan_cache")
    if cache_spec is not None:
        # Workers never see the ELF, so the parent ships the digests;
        # every worker of a warm run then reloads the same translated
        # plans instead of recompiling them per shard.
        from ..sim.plancache import PlanCache

        plan_cache = PlanCache.open(
            elf_digest=str(cache_spec["elf"]),
            arch_digest=str(cache_spec["arch"]),
            directory=cache_spec.get("dir"),
        )
    payload = read_checkpoint(str(spec["checkpoint"]))
    restored = restore_run(payload, KAHRISMA, cycle_model=model)
    prefix = len(restored.syscalls.save_state()["stdout"])
    events = None
    events_spec = spec.get("events")
    if events_spec is not None:
        # Buffered (sink-less) stream: the event dicts are picklable
        # and shipped back to the coordinator, which re-sequences them
        # into the merged stream tagged with this shard's index.
        from ..telemetry.stream import EventStream

        events = EventStream(
            heartbeat_every=int(events_spec["heartbeat_every"]),
            shard=int(spec["shard"]),
        )
    budget = int(spec["budget"])
    sampling = config.sampling_config()
    extra: Dict[str, object] = {}
    if sampling is not None:
        # Sampled shard: the schedule is local to the shard's segment
        # (its model cold-starts at the boundary anyway — see the
        # shard accuracy caveat in docs/checkpointing.md).
        from types import SimpleNamespace

        from .sampling import run_sampled

        outcome = run_sampled(
            SimpleNamespace(state=restored.state),
            model,
            sampling,
            engine=config.engine,
            max_instructions=budget,
            plan_cache=plan_cache,
            events=events,
        )
        interp, stats = outcome.fast, outcome.stats
        # Measured-interval cycles only (the model's running count is
        # reset at every warm-up boundary, so ``model.cycles`` would be
        # the last region's residual, not a total).
        cycles = outcome.result.cycles_sampled
        extra["sampling"] = outcome.result.to_doc()
    else:
        interp = Interpreter(
            restored.state, cycle_model=model, engine=config.engine,
            plan_cache=plan_cache, events=events,
        )
        stats = interp.run(max_instructions=budget)
        cycles = model.cycles if model is not None else None
    stdout = restored.syscalls.save_state()["stdout"]
    return {
        "shard": spec["shard"],
        "stats": stats,
        "cycles": cycles,
        "metrics": collect_run_metrics(interp, model),
        "stdout_delta": stdout[prefix:],
        "exit_code": restored.state.exit_code,
        "halted": restored.state.halted,
        "events": events.events if events is not None else None,
        **extra,
    }


#: Metric keys that describe configuration, not accumulated work —
#: merged by taking the first shard's value instead of summing.
_CONFIG_SUFFIXES = (".delay", ".ports", ".penalty")
#: Point-in-time occupancy gauges (decode/plan/AOT table sizes):
#: summing them across shards double-counts structures each worker
#: rebuilds independently, so the merge takes the maximum instead.
_GAUGE_SUFFIXES = (
    ".decode.entries", ".plans_live", ".plancache.entries",
    ".entries_total", ".entries_bound", ".entries_stale",
    ".traces_total", ".traces_bound", ".invalidation_version",
)
#: Derived ratios are dropped during the sum and recomputed afterwards
#: where the inputs are available.
_DERIVED_SUFFIXES = (
    "_rate", "_avoidance", "_fraction", "ops_per_cycle", "mips",
)


def merge_metric_dicts(dicts: List[Dict[str, object]]) -> Dict[str, object]:
    """Fold per-shard metric dicts into whole-run metrics.

    Counters sum; configuration values and non-numeric entries take the
    first shard's value; exit code takes the last shard's; derived
    ratios are recomputed from the merged counters.
    """
    merged: Dict[str, object] = {}
    for d in dicts:
        for key, value in d.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                merged.setdefault(key, value)
                continue
            if key == "sim.exit_code":
                merged[key] = value
                continue
            if key.endswith(_CONFIG_SUFFIXES):
                merged.setdefault(key, value)
                continue
            if key.endswith(_GAUGE_SUFFIXES):
                merged[key] = max(merged.get(key, 0), value)
                continue
            if key.endswith(_DERIVED_SUFFIXES):
                continue
            merged[key] = merged.get(key, 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    get = merged.get
    if "sim.executed_instructions" in merged:
        instructions = get("sim.executed_instructions", 0)
        merged["sim.mips"] = ratio(
            instructions / 1e6, get("sim.elapsed_seconds", 0.0)
        )
        merged["sim.memory_instruction_fraction"] = ratio(
            get("sim.memory_instructions", 0), instructions
        )
        merged["sim.decode.decode_avoidance"] = 1.0 - ratio(
            get("sim.decode.decoded_instructions", 0), instructions
        )
        merged["sim.decode.lookup_avoidance"] = 1.0 - ratio(
            get("sim.decode.lookups", 0), instructions
        )
    for key in list(merged):
        if key.endswith(".hits") and key.startswith("mem.cache."):
            base = key[: -len("hits")]
            merged[base + "miss_rate"] = ratio(
                get(base + "misses", 0), get(base + "accesses", 0)
            )
    if "sim.superblock.blocks_executed" in merged:
        merged["sim.superblock.chain_hit_rate"] = ratio(
            get("sim.superblock.chain_hits", 0),
            get("sim.superblock.blocks_executed", 0),
        )
    for key in list(merged):
        if key.startswith("cycles.") and key.endswith(".cycles"):
            base = key[: -len("cycles")]
            merged[base + "ops_per_cycle"] = ratio(
                get(base + "ops", 0), merged[key]
            )
    return dict(sorted(merged.items()))


@dataclass
class ParallelResult:
    """Merged outcome of a sharded cycle-model run."""

    stats: SimStats
    output: str
    exit_code: int
    #: Sum of the per-shard cycle counts (None for functional runs).
    #: An approximation — each shard's model starts cold; see module
    #: docstring and ``docs/checkpointing.md``.
    cycles: Optional[int]
    plan: ShardPlan
    #: Raw per-shard worker results, in shard order.
    shard_results: List[Dict[str, object]] = field(default_factory=list)
    #: Merged telemetry document (``kahrisma-telemetry`` schema).
    telemetry: Optional[dict] = None
    #: Merged :class:`repro.framework.sampling.SamplingResult` when the
    #: shards ran under the sampling tier; per-shard estimates add and
    #: CI widths combine in quadrature.  :attr:`cycles` then counts
    #: only the measured intervals.
    sampling: object = None

    @property
    def metrics(self) -> Optional[Dict[str, object]]:
        if self.telemetry is None:
            return None
        return self.telemetry.get("metrics")


def run_parallel(
    built: BuildResult,
    *,
    shards: int,
    model: Optional[str] = "doe",
    branch_predictor: Optional[str] = None,
    branch_penalty: int = 3,
    engine: str = "superblock",
    checkpoint_dir: Optional[str] = None,
    input_data: bytes = b"",
    isa_id: Optional[int] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    processes: Optional[int] = None,
    workload: Optional[str] = None,
    keep_checkpoints: bool = False,
    use_plan_cache: bool = True,
    plan_cache_dir: Optional[str] = None,
    events=None,
    sampling=None,
) -> ParallelResult:
    """Fast-forward, shard, and simulate the intervals in parallel.

    ``model``/``branch_predictor`` name the cycle model each worker
    builds (strings, because workers live in other processes);
    ``checkpoint_dir`` defaults to a temporary directory that is
    removed afterwards unless ``keep_checkpoints`` is set.  Workers run
    via ``multiprocessing`` (``fork`` start method when the platform
    offers it); ``processes`` caps the pool (default: one per shard, at
    most the CPU count).

    With ``use_plan_cache`` (default) the fast-forward pass and every
    worker share the persistent superblock translation cache
    (``plan_cache_dir`` overrides its location): warm runs skip plan
    translation entirely — visible as ``sim.superblock.plan_cache_hits``
    in the merged telemetry.

    ``events`` (a :class:`repro.telemetry.stream.EventStream`) makes
    the sharded run observable: the coordinator emits run-start /
    run-end, each worker records its own heartbeat/syscall/ISA-switch
    events into a buffered per-shard stream, and the buffers are merged
    into the coordinator stream (tagged with their shard index) as
    results arrive.
    """
    import dataclasses
    import shutil
    import tempfile

    # Validate the spec before paying for the fast-forward pass.
    config = RunConfig(
        engine=engine,
        model=model or "none",
        branch_predictor=branch_predictor or "perfect",
        branch_penalty=branch_penalty,
        max_instructions=max_instructions,
        sampling=sampling,
    ).validate()
    sampling_config = config.sampling_config()

    plan_cache = None
    cache_spec = None
    if use_plan_cache:
        import hashlib

        from ..targetgen.codegen import architecture_digest
        from .pipeline import open_plan_cache

        plan_cache = open_plan_cache(built, directory=plan_cache_dir)
        cache_spec = {
            "elf": hashlib.sha256(built.elf.write()).hexdigest()[:16],
            "arch": architecture_digest(built.arch),
            "dir": plan_cache_dir,
        }

    if events is not None:
        events.emit(
            "run-start",
            workload=workload,
            engine=config.engine,
            model=None if config.model == "none" else config.model,
            heartbeat_every=events.heartbeat_every,
            shards=shards,
        )
    own_dir = None
    if checkpoint_dir is None:
        checkpoint_dir = tempfile.mkdtemp(prefix="kahrisma-shards-")
        own_dir = checkpoint_dir
    try:
        plan = plan_shards(
            built, shards=shards, directory=checkpoint_dir,
            input_data=input_data, isa_id=isa_id,
            max_instructions=max_instructions,
            plan_cache=plan_cache,
        )
        ends = plan.boundaries[1:] + [plan.total_instructions]
        specs = [
            {
                "shard": i,
                "checkpoint": plan.checkpoints[i],
                "budget": ends[i] - plan.boundaries[i],
                # Each shard samples with its own seed so shards don't
                # all measure the same phase of a loop.
                "config": config if sampling_config is None
                else dataclasses.replace(
                    config, sampling=dataclasses.replace(
                        sampling_config, seed=sampling_config.seed + i)),
                "issue_width": built.issue_width,
                "plan_cache": cache_spec,
                "events": (
                    {"heartbeat_every": events.heartbeat_every}
                    if events is not None else None
                ),
            }
            for i in range(len(plan.boundaries))
        ]
        if len(specs) == 1 or processes == 1:
            results = [_run_shard(spec) for spec in specs]
        else:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            workers = min(
                len(specs),
                processes if processes else (os.cpu_count() or 1),
            )
            with ctx.Pool(processes=workers) as pool:
                results = pool.map(_run_shard, specs)
    finally:
        if own_dir is not None and not keep_checkpoints:
            shutil.rmtree(own_dir, ignore_errors=True)

    results.sort(key=lambda r: r["shard"])
    merged = SimStats()
    for result in results:
        merged.merge(result["stats"])
    if events is not None:
        from ..telemetry.stream import merge_shard_events

        merge_shard_events(
            events, [r.get("events") for r in results]
        )
    last = results[-1]
    if not last["halted"]:
        raise RuntimeError(
            "final shard did not halt — shard replay diverged from the "
            "functional pass (this indicates a determinism bug)"
        )
    output = b"".join(
        bytes(result["stdout_delta"]) for result in results
    ).decode("utf-8", errors="replace")
    cycles = None
    if config.model != "none":
        cycles = sum(int(result["cycles"]) for result in results)
    merged_sampling = None
    if sampling_config is not None:
        from .sampling import SamplingResult, merge_sampling_results

        merged_sampling = merge_sampling_results([
            SamplingResult.from_doc(r["sampling"]) for r in results
        ])
    telemetry = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "engine": config.engine,
        "model": None if config.model == "none" else config.model,
        "workload": workload,
        "shards": len(results),
        "shard_boundaries": list(plan.boundaries),
        "metrics": merge_metric_dicts([r["metrics"] for r in results]),
    }
    if merged_sampling is not None:
        telemetry["cycles_estimated"] = merged_sampling.cycles_estimated
        telemetry["cycles_ci95"] = merged_sampling.cycles_ci95
        telemetry["sampling"] = merged_sampling.block()
    if events is not None:
        events.emit(
            "run-end",
            instructions=merged.executed_instructions,
            exit_code=int(last["exit_code"]),
            elapsed_seconds=round(merged.elapsed_seconds, 6),
            mips=round(merged.mips, 3),
            halted=bool(last["halted"]),
        )
    return ParallelResult(
        stats=merged,
        output=output,
        exit_code=int(last["exit_code"]),
        cycles=cycles,
        plan=plan,
        shard_results=results,
        telemetry=telemetry,
        sampling=merged_sampling,
    )
