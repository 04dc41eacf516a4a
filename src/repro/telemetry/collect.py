"""Absorb scattered simulator counters into one flat metric tree.

The run loops keep their plain-int counters (that is what makes them
fast); this module is the single place that knows where they all live
and what they are called in the unified namespace:

========================  ==================================================
prefix                    source
========================  ==================================================
``sim.*``                 :class:`~repro.sim.stats.SimStats`
``sim.decode.*``          :class:`~repro.sim.decode_cache.DecodeCache`
``sim.superblock.*``      :class:`~repro.sim.superblock.SuperblockEngine`
``sim.aot.*``             :class:`~repro.sim.aot.AotBinding` (engine=aot)
``sim.plancache.*``       :class:`~repro.sim.plancache.PlanCache`
``cycles.<model>.*``      the attached cycle model (ilp/aie/doe/rtl)
``cycles.<model>.branch.*``  its optional branch-misprediction model
``mem.cache.<name>.*``    each :class:`~repro.cycles.memmodel.Cache`
``mem.port.<name>.*``     each :class:`~repro.cycles.memmodel.ConnectionLimit`
``mem.main.*``            :class:`~repro.cycles.memmodel.MainMemory`
========================  ==================================================

Collection is strictly post-run: it reads counters, never installs
hooks, so enabling metrics costs nothing while the simulation runs.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Telemetry document format identifiers; bump ``SCHEMA_VERSION`` on
#: any backwards-incompatible change to metric names or report layout.
#: v2: sampled runs add top-level ``cycles_estimated``/``cycles_ci95``
#: and a ``sampling`` block (absent on non-sampled runs).
SCHEMA_NAME = "kahrisma-telemetry"
SCHEMA_VERSION = 2


def collect_stats_metrics(stats) -> Dict[str, object]:
    """``sim.*`` metrics from a :class:`~repro.sim.stats.SimStats`."""
    return {
        "sim.executed_instructions": stats.executed_instructions,
        "sim.executed_slots": stats.executed_slots,
        "sim.executed_ops": stats.executed_ops,
        "sim.memory_instructions": stats.memory_instructions,
        "sim.memory_ops": stats.memory_ops,
        "sim.memory_instruction_fraction": stats.memory_instruction_fraction,
        "sim.simops": stats.simops,
        "sim.isa_switches": stats.isa_switches,
        "sim.elapsed_seconds": stats.elapsed_seconds,
        "sim.mips": stats.mips,
        "sim.exit_code": stats.exit_code,
        "sim.decode.decoded_instructions": stats.decoded_instructions,
        "sim.decode.lookups": stats.cache_lookups,
        "sim.decode.prediction_hits": stats.prediction_hits,
        "sim.decode.decode_avoidance": stats.decode_avoidance,
        "sim.decode.lookup_avoidance": stats.lookup_avoidance,
    }


def collect_interpreter_metrics(interp) -> Dict[str, object]:
    """``sim.*`` metrics from an :class:`~repro.sim.interpreter.Interpreter`.

    Superset of :func:`collect_stats_metrics`: adds the decode-cache
    and superblock shadow counters only the interpreter can reach.
    """
    out = collect_stats_metrics(interp.stats)
    out["sim.engine"] = interp.engine
    cache = interp.cache
    out["sim.decode.entries"] = len(cache)
    out["sim.decode.total_decodes"] = cache.decodes
    out["sim.decode.total_lookups"] = cache.lookups
    out["sim.decode.invalidation_version"] = cache.version
    engine = interp.superblock
    if engine is not None:
        blocks = engine.blocks_executed
        out["sim.superblock.plans_built"] = engine.plans_built
        out["sim.superblock.plans_live"] = len(engine.plans)
        out["sim.superblock.blocks_executed"] = blocks
        out["sim.superblock.chain_hits"] = engine.chain_hits
        out["sim.superblock.chain_hit_rate"] = (
            engine.chain_hits / blocks if blocks else 0.0
        )
        out["sim.superblock.translations"] = engine.translations
        out["sim.superblock.plan_cache_hits"] = engine.plan_cache_hits
        out["sim.superblock.untranslated_plans"] = (
            engine.untranslated_plans(interp.cycle_model)
        )
    binding = getattr(interp, "aot", None)
    if binding is not None:
        out["sim.aot.entries_total"] = binding.entries_total
        out["sim.aot.entries_bound"] = binding.entries_bound
        out["sim.aot.entries_stale"] = binding.entries_stale
        out["sim.aot.traces_total"] = binding.traces_total
        out["sim.aot.traces_bound"] = binding.traces_bound
        out["sim.aot.dispatches"] = binding.dispatches
        out["sim.aot.blocks_executed"] = binding.blocks_executed
        out["sim.aot.aborts"] = binding.aborts
        out["sim.aot.rows_invalidated"] = binding.rows_invalidated
    plan_cache = getattr(interp, "plan_cache", None)
    if plan_cache is not None:
        out["sim.plancache.entries"] = len(plan_cache)
        out["sim.plancache.evictions"] = plan_cache.evictions
        out["sim.plancache.lock_waits"] = getattr(
            plan_cache, "lock_waits", 0
        )
        out["sim.plancache.lock_timeouts"] = getattr(
            plan_cache, "lock_timeouts", 0
        )
    return out


def collect_model_metrics(model) -> Dict[str, object]:
    """``cycles.*`` and ``mem.*`` metrics from a cycle model.

    Accepts any model exposing the :class:`~repro.cycles.base.CycleModel`
    interface (including the RTL reference pipeline and the profiler's
    model proxy, which is unwrapped first).
    """
    inner = getattr(model, "inner", None)
    if inner is not None and hasattr(model, "profiler"):
        model = inner  # unwrap _ProfilingModel
    name = str(getattr(model, "name", type(model).__name__)).lower()
    prefix = f"cycles.{name}."
    out: Dict[str, object] = {
        prefix + "cycles": model.cycles,
        prefix + "instructions": getattr(model, "instructions", 0),
        prefix + "ops": getattr(model, "ops", 0),
        prefix + "ops_per_cycle": getattr(model, "ops_per_cycle", 0.0),
    }
    branch = getattr(model, "branch_model", None)
    if branch is not None:
        out[prefix + "branch.conditional_branches"] = getattr(
            branch, "conditional_branches", 0
        )
        out[prefix + "branch.mispredictions"] = getattr(
            branch, "mispredictions", 0
        )
        out[prefix + "branch.ras_mispredictions"] = getattr(
            branch, "ras_mispredictions", 0
        )
        out[prefix + "branch.penalty"] = getattr(branch, "penalty", 0)
    memory = getattr(model, "memory", None)
    if memory is not None:
        out.update(collect_memory_metrics(memory))
    return out


def collect_memory_metrics(module) -> Dict[str, object]:
    """``mem.*`` metrics by walking a hierarchy's ``.sub`` chain."""
    from ..cycles.memmodel import Cache, ConnectionLimit, MainMemory

    out: Dict[str, object] = {}
    current = module
    while current is not None:
        if isinstance(current, Cache):
            prefix = f"mem.cache.{current.name.lower()}."
            out[prefix + "hits"] = current.hits
            out[prefix + "misses"] = current.misses
            out[prefix + "accesses"] = current.accesses
            out[prefix + "miss_rate"] = current.miss_rate
            out[prefix + "writebacks"] = current.writebacks
        elif isinstance(current, ConnectionLimit):
            sub_name = str(
                getattr(current.sub, "name", "mem")
            ).lower()
            out[f"mem.port.{sub_name}.stalls"] = current.stalls
            out[f"mem.port.{sub_name}.ports"] = current.ports
        elif isinstance(current, MainMemory):
            out["mem.main.accesses"] = current.accesses
            out["mem.main.delay"] = current.delay
        current = getattr(current, "sub", None)
    return out


def collect_run_metrics(
    interp=None,
    model=None,
    *,
    stats=None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One flat metric dict for a finished run.

    Pass the interpreter (preferred — includes decode/superblock
    shadow counters) or just its :class:`SimStats`; the cycle model is
    optional.  ``extra`` entries are merged last and may override.
    """
    out: Dict[str, object] = {}
    if interp is not None:
        out.update(collect_interpreter_metrics(interp))
        if model is None:
            model = interp.cycle_model
    elif stats is not None:
        out.update(collect_stats_metrics(stats))
    if model is not None:
        out.update(collect_model_metrics(model))
    if extra:
        out.update(extra)
    return dict(sorted(out.items()))
