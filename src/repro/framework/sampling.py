"""Statistical sampling execution tier (SMARTS-style, ROADMAP item 5).

Full detailed simulation — fused DOE plus the three-level memory
hierarchy — is the slowest configuration in the repository, while the
functional superblock/AOT engines run ~5x faster.  This module buys
back most of that gap without giving up cycle accuracy: the run
*fast-forwards* functionally through most of the program and drops
into the detailed model only for systematically sampled intervals,
then extrapolates total cycles from the measured intervals' CPI and
reports a standard-error-based 95% confidence interval.

Systematic interval sampling
----------------------------

The instruction stream is divided into back-to-back intervals of ``U``
instructions.  Every ``k``-th interval (phase-shifted by
``seed % k``) is *measured*; the rest are fast-forwarded.  Before
each measured interval the detailed model executes ``W`` *warmup*
instructions: the model's cycle clock is re-based to zero
(:meth:`~repro.cycles.base.CycleModel.reset_timing` — cache tags, LRU
order and branch-predictor tables survive, absolute timestamps do
not), the W instructions warm the caches and predictors, and the
measurement baseline is taken where warmup ends.  A measured
interval's contribution is then ``model.cycles`` growth over its U
instructions, uncontaminated by the cold-start transient.

Because measured/warm/fast regions are pure functions of the absolute
executed-instruction position and ``(U, k, W, seed)``, a sampled run
is deterministic, composes with checkpoints (cancel/resume lands on
the same schedule) and with ``kahrisma parallel`` (each shard samples
its own segment with a per-shard seed; estimates add, CI widths
combine in quadrature).

Two interpreters, one architectural state
-----------------------------------------

The driver alternates two :class:`~repro.sim.interpreter.Interpreter`
objects over the *same* :class:`~repro.sim.state.ProcessorState`: a
functional one (no cycle model, warm superblock or AOT plans) and a
detailed one (fused cycle model).  The differential suite proves every
engine architecturally bitwise-equivalent and ``Interpreter.run`` is
re-entrant, so handing the state back and forth at instruction
boundaries leaves the architectural end-state identical to a pure
functional run — that is the determinism gate's sampled check.

Estimator
---------

Point estimate: the ratio estimator ``(sum cycles_i / sum instr_i) *
total_instructions`` (robust to a partial final interval).  The 95%
interval uses the t-distribution over per-interval CPI:
``ci95 = t_{n-1} * stddev(cpi) / sqrt(n) * total_instructions``.

See ``docs/performance.md`` (sampling section) for knob guidance and
the accuracy table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim.interpreter import Interpreter
from ..sim.stats import SimStats

#: Two-tailed 97.5% quantiles of Student's t by degrees of freedom;
#: beyond the table the normal quantile is used.
_T_975 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064,
    25: 2.060, 26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def t_quantile_975(df: int) -> float:
    """97.5% Student-t quantile (two-tailed 95% CI multiplier)."""
    if df <= 0:
        return float("nan")
    return _T_975.get(df, 1.960)


@dataclass(frozen=True)
class SamplingConfig:
    """Systematic-sampling schedule: ``(U, k, W, seed)``.

    ``interval`` (U) instructions per interval, every ``period``-th
    (k) interval measured, ``warmup`` (W) detailed instructions run
    before each measured interval, ``seed`` phase-shifting which
    intervals are measured (``offset = seed % k``).
    """

    interval: int
    period: int
    warmup: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("sampling interval U must be positive")
        if self.period < 1:
            raise ValueError("sampling period k must be >= 1")
        if self.warmup < 0:
            raise ValueError("sampling warmup W must be >= 0")
        if self.seed < 0:
            raise ValueError("sampling seed must be >= 0")

    @property
    def offset(self) -> int:
        """Index (mod k) of the measured intervals."""
        return self.seed % self.period

    @classmethod
    def parse(cls, spec: str) -> "SamplingConfig":
        """Parse the CLI form ``U:k[:W[:seed]]`` (e.g. ``2000:50:200``)."""
        parts = str(spec).split(":")
        if not 2 <= len(parts) <= 4:
            raise ValueError(
                f"bad sampling spec {spec!r}: expected U:k[:W[:seed]]"
            )
        try:
            numbers = [int(p) for p in parts]
        except ValueError:
            raise ValueError(
                f"bad sampling spec {spec!r}: fields must be integers"
            ) from None
        interval, period = numbers[0], numbers[1]
        warmup = numbers[2] if len(numbers) > 2 else 0
        seed = numbers[3] if len(numbers) > 3 else 0
        return cls(interval=interval, period=period, warmup=warmup,
                   seed=seed)

    @classmethod
    def coerce(cls, value) -> "SamplingConfig":
        """Accept a config, a spec string, or a doc dict."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, dict):
            return cls.from_doc(value)
        raise TypeError(
            f"cannot interpret {type(value).__name__} as a SamplingConfig"
        )

    def spec(self) -> str:
        text = f"{self.interval}:{self.period}:{self.warmup}"
        if self.seed:
            text += f":{self.seed}"
        return text

    def to_doc(self) -> Dict[str, int]:
        return {
            "interval": self.interval,
            "period": self.period,
            "warmup": self.warmup,
            "seed": self.seed,
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, int]) -> "SamplingConfig":
        return cls(
            interval=int(doc["interval"]),
            period=int(doc["period"]),
            warmup=int(doc.get("warmup", 0)),
            seed=int(doc.get("seed", 0)),
        )


def estimate_cycles(intervals, total_instructions):
    """Extrapolate total cycles from measured ``(instr, cycles)`` pairs.

    Returns ``(estimate, ci95)``; ``(None, None)`` with no measured
    interval, ``ci95=None`` with fewer than two (no variance sample).
    """
    pairs = [(int(n), int(c)) for n, c in intervals if int(n) > 0]
    if not pairs:
        return None, None
    sampled_instr = sum(n for n, _ in pairs)
    sampled_cycles = sum(c for _, c in pairs)
    cpi = sampled_cycles / sampled_instr
    estimate = int(round(cpi * total_instructions))
    if len(pairs) < 2:
        return estimate, None
    cpis = [c / n for n, c in pairs]
    mean = sum(cpis) / len(cpis)
    var = sum((x - mean) ** 2 for x in cpis) / (len(cpis) - 1)
    se = math.sqrt(var / len(cpis))
    ci95 = t_quantile_975(len(cpis) - 1) * se * total_instructions
    return estimate, round(ci95, 3)


@dataclass
class SamplingResult:
    """Outcome of one sampled run (or merged shard runs)."""

    config: SamplingConfig
    #: ``[instructions, cycles]`` per measured interval, schedule order.
    #: The final entry may be partial (halt/budget mid-interval).
    intervals: List[List[int]] = field(default_factory=list)
    total_instructions: int = 0
    cancelled: bool = False
    cycles_estimated: Optional[int] = None
    cycles_ci95: Optional[float] = None

    def finalize(self) -> "SamplingResult":
        self.cycles_estimated, self.cycles_ci95 = estimate_cycles(
            self.intervals, self.total_instructions
        )
        return self

    @property
    def instructions_sampled(self) -> int:
        return sum(int(n) for n, _ in self.intervals)

    @property
    def cycles_sampled(self) -> int:
        return sum(int(c) for _, c in self.intervals)

    @property
    def detailed_fraction(self) -> float:
        if not self.total_instructions:
            return 0.0
        return self.instructions_sampled / self.total_instructions

    def block(self) -> Dict[str, object]:
        """The run-report / result-document ``sampling`` block."""
        return {
            **self.config.to_doc(),
            "intervals_measured": len(self.intervals),
            "instructions_sampled": self.instructions_sampled,
            "cycles_sampled": self.cycles_sampled,
            "detailed_fraction": round(self.detailed_fraction, 6),
        }

    def to_doc(self) -> Dict[str, object]:
        """Picklable/JSON form (parallel shard results ship these)."""
        return {
            "config": self.config.to_doc(),
            "intervals": [list(pair) for pair in self.intervals],
            "total_instructions": self.total_instructions,
            "cancelled": self.cancelled,
            "cycles_estimated": self.cycles_estimated,
            "cycles_ci95": self.cycles_ci95,
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, object]) -> "SamplingResult":
        result = cls(
            config=SamplingConfig.from_doc(doc["config"]),
            intervals=[[int(n), int(c)] for n, c in doc["intervals"]],
            total_instructions=int(doc["total_instructions"]),
            cancelled=bool(doc.get("cancelled", False)),
        )
        result.cycles_estimated = doc.get("cycles_estimated")
        result.cycles_ci95 = doc.get("cycles_ci95")
        return result


def merge_sampling_results(results) -> SamplingResult:
    """Combine independent per-shard sampled estimates.

    Shards cover disjoint instruction ranges, so point estimates add;
    independent errors combine in quadrature
    (``ci = sqrt(sum ci_i^2)``).  A shard too short to yield a CI
    (fewer than two intervals) contributes its point estimate with
    zero width — the merged interval is then a lower bound on the
    true uncertainty, which the report flags via ``intervals_measured``.
    """
    results = [r for r in results if r is not None]
    if not results:
        raise ValueError("no sampling results to merge")
    merged = SamplingResult(config=results[0].config)
    estimate = 0
    ci_sq = 0.0
    any_estimate = any_ci = False
    for r in results:
        merged.intervals.extend(r.intervals)
        merged.total_instructions += r.total_instructions
        merged.cancelled = merged.cancelled or r.cancelled
        if r.cycles_estimated is not None:
            estimate += r.cycles_estimated
            any_estimate = True
        if r.cycles_ci95 is not None:
            ci_sq += float(r.cycles_ci95) ** 2
            any_ci = True
    merged.cycles_estimated = estimate if any_estimate else None
    merged.cycles_ci95 = round(math.sqrt(ci_sq), 3) if any_ci else None
    return merged


@dataclass
class SampledRun:
    """Everything :func:`run_sampled` hands back to its caller."""

    result: SamplingResult
    #: Whole-run cumulative statistics (base + fast + detailed).
    stats: SimStats
    #: The fast-forward interpreter (engine counters, AOT binding).
    fast: Interpreter
    #: The detailed interpreter (fused model, superblock counters).
    detailed: Interpreter
    cancelled: bool = False

    def progress_doc(self) -> Dict[str, object]:
        """Checkpoint-meta payload for cancel/resume mid-schedule."""
        doc: Dict[str, object] = {
            "config": self.result.config.to_doc(),
            "intervals": [list(pair) for pair in self.result.intervals],
        }
        if self._cycles0 is not None:
            doc["cycles0"] = self._cycles0
        return doc

    #: Measurement baseline when cancelled mid-measured-interval
    #: (``model.cycles`` where the current interval's warmup ended).
    _cycles0: Optional[int] = None


def sampling_progress_from_meta(meta, config: SamplingConfig):
    """Validate and extract sampling progress from checkpoint meta.

    Returns ``(intervals, cycles0)``.  A checkpoint from a non-sampled
    run has no progress (fresh schedule over its position); one from a
    *differently configured* sampled run is rejected — the schedules
    disagree about which instructions were measured.
    """
    progress = (meta or {}).get("sampling")
    if progress is None:
        return [], None
    stored = SamplingConfig.from_doc(progress.get("config", {}))
    if stored != config:
        raise ValueError(
            f"checkpoint was sampled with {stored.spec()} "
            f"(seed {stored.seed}), resuming with {config.spec()} "
            f"(seed {config.seed}) — estimates would mix schedules"
        )
    intervals = [
        [int(n), int(c)] for n, c in progress.get("intervals", [])
    ]
    cycles0 = progress.get("cycles0")
    return intervals, (int(cycles0) if cycles0 is not None else None)


def run_sampled(
    program,
    cycle_model,
    sampling,
    *,
    engine: Optional[str] = None,
    max_instructions: int = 1 << 62,
    plan_cache=None,
    aot_module=None,
    max_block_len: Optional[int] = None,
    fuse_cycles: bool = True,
    events=None,
    flight=None,
    cancel=None,
    base_stats: Optional[SimStats] = None,
    meta: Optional[Dict[str, object]] = None,
) -> SampledRun:
    """Drive one program under the sampling schedule to halt/budget.

    ``program`` is a :class:`~repro.binutils.loader.LoadedProgram`
    (fresh or checkpoint-restored); ``cycle_model`` an AIE/DOE model
    (callers check the run with
    :meth:`repro.framework.config.RunConfig.validate`), **already
    carrying checkpoint state when resuming**.  ``engine``
    names the fast-forward engine (default ``superblock``;
    ``aot`` with a functional ``aot_module`` is the fastest).  The
    detailed interpreter always runs the superblock engine with the
    model fused (``fuse_cycles=False`` switches it to per-instruction
    observation — the bitwise-equivalence reference).

    ``base_stats``/``meta`` come from a resumed checkpoint: the
    schedule is absolute in executed instructions, so the position in
    ``base_stats`` plus the meta's sampling progress put the driver
    back exactly where the cancelled run stopped.
    """
    config = SamplingConfig.coerce(sampling)
    state = program.state
    intervals, cycles0 = sampling_progress_from_meta(meta, config)

    fast = Interpreter(
        state,
        cycle_model=None,
        engine=engine,
        plan_cache=plan_cache,
        aot_module=aot_module,
        max_block_len=max_block_len,
        events=events,
        flight=flight,
        cancel=cancel,
    )
    detailed = Interpreter(
        state,
        cycle_model=cycle_model,
        engine="superblock",
        plan_cache=plan_cache,
        fuse_cycles=fuse_cycles,
        max_block_len=max_block_len,
        events=events,
        flight=flight,
        cancel=cancel,
    )

    base = base_stats.executed_instructions if base_stats is not None else 0
    U, k, W, offset = (config.interval, config.period, config.warmup,
                       config.offset)
    budget = max_instructions
    executed = 0
    cancelled = False

    def segment(interp: Interpreter, count: int, phase: str) -> int:
        nonlocal executed, cancelled
        if events is not None:
            events.phase = phase
        before = interp.stats.executed_instructions
        interp.run(max_instructions=count)
        ran = interp.stats.executed_instructions - before
        executed += ran
        if interp.cancelled:
            cancelled = True
        if ran == 0 and not state.halted and not interp.cancelled:
            raise RuntimeError(
                f"sampling driver made no progress at instruction "
                f"{base + executed} (engine {interp.engine})"
            )
        return ran

    try:
        while not state.halted and not cancelled and executed < budget:
            pos = base + executed
            j = pos // U
            jm = j + ((offset - j % k) % k)
            m_start = jm * U
            m_end = m_start + U
            prev_end = (jm - k + 1) * U if jm >= k else 0
            w_start = max(m_start - W, prev_end)
            remaining = budget - executed
            if pos < w_start:
                segment(fast, min(w_start - pos, remaining),
                        "fast-forward")
            elif pos < m_start:
                # Warmup: detailed model, fresh zero-based clock.  The
                # reset is idempotent, so a resume landing exactly on
                # the region boundary cannot double-apply it.
                if pos == w_start:
                    cycle_model.reset_timing()
                segment(detailed, min(m_start - pos, remaining),
                        "detailed")
            else:
                if pos == m_start:
                    if w_start == m_start:
                        cycle_model.reset_timing()  # W == 0: no warmup ran
                    cycles0 = cycle_model.cycles
                if cycles0 is None:
                    raise RuntimeError(
                        "resumed mid-measured-interval without a "
                        "measurement baseline in the checkpoint meta"
                    )
                segment(detailed, min(m_end - pos, remaining), "detailed")
                new_pos = base + executed
                closed = new_pos == m_end or (
                    new_pos > m_start
                    and (state.halted or executed >= budget)
                    and not cancelled
                )
                if closed:
                    # Full interval, or a partial final one (halt or
                    # budget exhaustion).  A *cancelled* partial stays
                    # open: its baseline rides in the checkpoint meta
                    # and the resumed run completes the interval.
                    intervals.append(
                        [new_pos - m_start, cycle_model.cycles - cycles0]
                    )
                    cycles0 = None
    finally:
        if events is not None:
            events.phase = None

    stats = base_stats.copy() if base_stats is not None else SimStats()
    stats.merge(fast.stats)
    stats.merge(detailed.stats)
    stats.exit_code = state.exit_code

    result = SamplingResult(
        config=config,
        intervals=intervals,
        total_instructions=stats.executed_instructions,
        cancelled=cancelled,
    ).finalize()
    run = SampledRun(
        result=result,
        stats=stats,
        fast=fast,
        detailed=detailed,
        cancelled=cancelled,
    )
    run._cycles0 = cycles0
    return run
