"""Statistical sampling tier: schedule, estimator, composition.

Covers the sampling config/estimator math in isolation, end-to-end
sampled runs on a real benchmark (determinism, architectural
equivalence with a pure functional run, accuracy against exact fused
DOE), cancel/resume mid-schedule (the checkpoint carries the sampling
progress), per-shard composition under ``run_parallel``, serve
JobSpec validation, and the run-report schema additions.
"""

import math

import pytest

from repro.cycles.doe import DoeModel
from repro.framework.pipeline import build, run
from repro.framework.sampling import (
    SamplingConfig,
    SamplingResult,
    estimate_cycles,
    merge_sampling_results,
    run_sampled,
    t_quantile_975,
)
from repro.programs import load_program

from .conftest import assert_equivalent

BENCH = "dct4x4"
SPEC = "2000:10:200"


def _build():
    from tests.conftest import cached_build

    return cached_build(load_program(BENCH), filename=f"{BENCH}.kc")


class TestConfig:
    def test_parse_full(self):
        config = SamplingConfig.parse("2000:50:300:7")
        assert (config.interval, config.period, config.warmup,
                config.seed) == (2000, 50, 300, 7)
        assert config.offset == 7 % 50

    def test_parse_defaults(self):
        config = SamplingConfig.parse("1000:5")
        assert (config.warmup, config.seed) == (0, 0)

    @pytest.mark.parametrize("spec", [
        "2000", "a:b", "0:5", "100:0", "100:5:-1", "1:2:3:4:5", "",
    ])
    def test_parse_rejects(self, spec):
        with pytest.raises(ValueError):
            SamplingConfig.parse(spec)

    def test_coerce(self):
        config = SamplingConfig.parse("100:5:10")
        assert SamplingConfig.coerce(config) is config
        assert SamplingConfig.coerce("100:5:10") == config
        assert SamplingConfig.coerce(config.to_doc()) == config
        with pytest.raises(TypeError):
            SamplingConfig.coerce(100)

    def test_spec_roundtrip(self):
        for text in ("100:5:0", "100:5:20", "100:5:20:3"):
            config = SamplingConfig.parse(text)
            assert SamplingConfig.parse(config.spec()) == config

    def test_doc_roundtrip(self):
        config = SamplingConfig(interval=64, period=3, warmup=8, seed=2)
        assert SamplingConfig.from_doc(config.to_doc()) == config


class TestEstimator:
    def test_t_quantiles(self):
        assert t_quantile_975(1) == pytest.approx(12.706)
        assert t_quantile_975(30) == pytest.approx(2.042)
        assert t_quantile_975(1000) == pytest.approx(1.960)
        assert math.isnan(t_quantile_975(0))

    def test_no_intervals(self):
        assert estimate_cycles([], 1000) == (None, None)

    def test_single_interval_no_ci(self):
        estimate, ci = estimate_cycles([[100, 250]], 1000)
        assert estimate == 2500
        assert ci is None

    def test_ratio_estimator_weights_partial_intervals(self):
        # (300 + 100) cycles over (100 + 100) instructions: CPI 2.0.
        estimate, _ = estimate_cycles([[100, 300], [100, 100]], 500)
        assert estimate == 1000

    def test_ci_hand_computed(self):
        intervals = [[100, 150], [100, 250]]  # CPIs 1.5, 2.5
        estimate, ci = estimate_cycles(intervals, 1000)
        assert estimate == 2000
        # stddev of {1.5, 2.5} = sqrt(0.5); se = sqrt(0.5)/sqrt(2) = 0.5
        assert ci == pytest.approx(12.706 * 0.5 * 1000, rel=1e-6)

    def test_zero_length_pairs_ignored(self):
        estimate, ci = estimate_cycles([[0, 0], [100, 200]], 1000)
        assert estimate == 2000
        assert ci is None


class TestMerge:
    def _result(self, intervals, total):
        return SamplingResult(
            config=SamplingConfig.parse("100:5"),
            intervals=intervals,
            total_instructions=total,
        ).finalize()

    def test_estimates_add_ci_quadrature(self):
        a = self._result([[100, 150], [100, 250]], 1000)
        b = self._result([[100, 300], [100, 500]], 2000)
        merged = merge_sampling_results([a, b])
        assert merged.cycles_estimated == (
            a.cycles_estimated + b.cycles_estimated
        )
        assert merged.cycles_ci95 == pytest.approx(
            math.sqrt(a.cycles_ci95 ** 2 + b.cycles_ci95 ** 2), abs=0.002
        )
        assert merged.total_instructions == 3000
        assert len(merged.intervals) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_sampling_results([])
        with pytest.raises(ValueError):
            merge_sampling_results([None])

    def test_doc_roundtrip(self):
        a = self._result([[100, 150], [80, 250]], 900)
        back = SamplingResult.from_doc(a.to_doc())
        assert back.intervals == a.intervals
        assert back.cycles_estimated == a.cycles_estimated
        assert back.config == a.config


def _exact_cycles(built):
    model = DoeModel(issue_width=built.issue_width)
    result = run(built, cycle_model=model, engine="superblock")
    return model.cycles, result


class TestSampledRun:
    def test_estimate_close_and_ci_brackets(self):
        built = _build()
        exact, _ = _exact_cycles(built)
        result = run(
            built,
            cycle_model=DoeModel(issue_width=built.issue_width),
            engine="superblock",
            sampling=SPEC,
        )
        sampled = result.sampling
        assert sampled.cycles_estimated is not None
        error = abs(sampled.cycles_estimated - exact) / exact
        assert error < 0.10, (sampled.cycles_estimated, exact)
        assert (abs(sampled.cycles_estimated - exact)
                <= sampled.cycles_ci95), "CI must bracket the truth"
        assert 0 < sampled.detailed_fraction < 0.5

    def test_deterministic_for_fixed_config(self):
        built = _build()
        runs = [
            run(
                built,
                cycle_model=DoeModel(issue_width=built.issue_width),
                sampling=SPEC,
            ).sampling
            for _ in range(2)
        ]
        assert runs[0].intervals == runs[1].intervals
        assert runs[0].cycles_estimated == runs[1].cycles_estimated
        assert runs[0].cycles_ci95 == runs[1].cycles_ci95

    def test_seed_shifts_schedule(self):
        built = _build()
        by_seed = [
            run(
                built,
                cycle_model=DoeModel(issue_width=built.issue_width),
                sampling=f"2000:10:200:{seed}",
            ).sampling
            for seed in (0, 3)
        ]
        assert by_seed[0].intervals != by_seed[1].intervals

    def test_architectural_state_equals_functional_run(self):
        built = _build()
        functional = run(built, engine="superblock")
        sampled = run(
            built,
            cycle_model=DoeModel(issue_width=built.issue_width),
            sampling=SPEC,
        )
        assert_equivalent(functional, sampled)

    def test_requires_detailed_model(self):
        built = _build()
        with pytest.raises(ValueError, match="detailed cycle model"):
            run(built, sampling=SPEC)

        class _NoResetTiming:
            cycles = 0

        with pytest.raises(ValueError, match="reset_timing"):
            run(built, cycle_model=_NoResetTiming(), sampling=SPEC)

    def test_rejects_per_instruction_hooks(self):
        built = _build()
        with pytest.raises(ValueError, match="incompatible"):
            run(
                built,
                cycle_model=DoeModel(issue_width=built.issue_width),
                sampling=SPEC,
                checkpoint_every=1000,
            )

    def test_events_tag_phases(self):
        from repro.telemetry.stream import EventStream

        built = _build()
        events = EventStream(heartbeat_every=5000)
        run(
            built,
            cycle_model=DoeModel(issue_width=built.issue_width),
            sampling=SPEC,
            events=events,
        )
        phases = {e.get("phase") for e in events.events}
        assert "fast-forward" in phases
        assert "detailed" in phases
        start = next(e for e in events.events if e["type"] == "run-start")
        assert start["sampling"] == "2000:10:200"
        end = next(e for e in events.events if e["type"] == "run-end")
        assert end["cycles_estimated"] is not None

    def test_run_report_schema_v2(self):
        from repro.telemetry.collect import SCHEMA_VERSION

        assert SCHEMA_VERSION == 2
        built = _build()
        result = run(
            built,
            cycle_model=DoeModel(issue_width=built.issue_width),
            sampling=SPEC,
            collect_metrics=True,
        )
        report = result.telemetry
        assert report["schema_version"] == 2
        assert report["cycles_estimated"] == result.sampling.cycles_estimated
        assert report["cycles_ci95"] == result.sampling.cycles_ci95
        block = report["sampling"]
        assert block["interval"] == 2000
        assert block["period"] == 10
        assert block["warmup"] == 200
        assert block["intervals_measured"] == len(result.sampling.intervals)

    def test_non_sampled_report_has_no_sampling_fields(self):
        built = _build()
        result = run(built, collect_metrics=True)
        assert "sampling" not in result.telemetry
        assert "cycles_estimated" not in result.telemetry


class _CancelAfterPolls:
    def __init__(self, polls: int) -> None:
        self.left = polls

    def __call__(self) -> bool:
        self.left -= 1
        return self.left < 0


class TestCancelResume:
    """Satellite: resume-after-cancel must land on the same estimate."""

    def _sampled(self, built, **kwargs):
        return run(
            built,
            cycle_model=DoeModel(issue_width=built.issue_width),
            engine="superblock",
            sampling=SPEC,
            **kwargs,
        )

    def _cancel_and_resume(self, built, polls, tmp_path):
        first = self._sampled(
            built,
            cancel=_CancelAfterPolls(polls),
            cancel_checkpoint_dir=str(tmp_path),
        )
        assert first.cancelled
        assert first.cancel_checkpoint is not None
        assert not first.program.state.halted
        resumed = self._sampled(built, resume_from=first.cancel_checkpoint)
        assert not resumed.cancelled
        return first, resumed

    def test_resume_mid_fast_forward_same_estimate(self, tmp_path):
        built = _build()
        baseline = self._sampled(built)
        first, resumed = self._cancel_and_resume(built, 8, tmp_path)
        # The cancel landed outside a measured interval: no baseline
        # rides in the checkpoint.
        from repro.snapshot import read_checkpoint

        meta = read_checkpoint(first.cancel_checkpoint)["meta"]
        assert "cycles0" not in meta["sampling"]
        assert resumed.sampling.intervals == baseline.sampling.intervals
        assert (resumed.sampling.cycles_estimated
                == baseline.sampling.cycles_estimated)
        assert_equivalent(baseline, resumed)

    def test_resume_mid_measured_interval_same_estimate(self, tmp_path):
        built = _build()
        baseline = self._sampled(built)
        # Scan for a poll count whose cancel lands inside a measured
        # interval (the checkpoint then carries the cycles0 baseline).
        from repro.snapshot import read_checkpoint

        for polls in range(2, 40):
            first = self._sampled(
                built,
                cancel=_CancelAfterPolls(polls),
                cancel_checkpoint_dir=str(tmp_path),
            )
            if not first.cancelled:
                continue
            meta = read_checkpoint(first.cancel_checkpoint)["meta"]
            if "cycles0" in meta["sampling"]:
                break
        else:
            pytest.skip("no poll count cancels inside a measured interval")
        resumed = self._sampled(built, resume_from=first.cancel_checkpoint)
        assert resumed.sampling.intervals == baseline.sampling.intervals
        assert (resumed.sampling.cycles_estimated
                == baseline.sampling.cycles_estimated)

    def test_resume_rejects_mismatched_schedule(self, tmp_path):
        built = _build()
        first, _ = None, None
        first = self._sampled(
            built,
            cancel=_CancelAfterPolls(8),
            cancel_checkpoint_dir=str(tmp_path),
        )
        assert first.cancelled
        with pytest.raises(ValueError, match="mix schedules"):
            run(
                built,
                cycle_model=DoeModel(issue_width=built.issue_width),
                sampling="4000:10:200",
                resume_from=first.cancel_checkpoint,
            )


class TestParallelComposition:
    def test_shards_sample_and_merge(self, tmp_path):
        from repro.framework.parallel import run_parallel

        built = _build()
        exact, _ = _exact_cycles(built)
        result = run_parallel(
            built,
            shards=2,
            model="doe",
            processes=1,
            checkpoint_dir=str(tmp_path),
            use_plan_cache=False,
            sampling="1000:5:200",
        )
        merged = result.sampling
        assert merged is not None
        error = abs(merged.cycles_estimated - exact) / exact
        assert error < 0.10, (merged.cycles_estimated, exact)
        assert abs(merged.cycles_estimated - exact) <= merged.cycles_ci95
        per_shard = [
            SamplingResult.from_doc(r["sampling"])
            for r in result.shard_results
        ]
        assert merged.cycles_estimated == sum(
            s.cycles_estimated for s in per_shard
        )
        assert len(merged.intervals) == sum(
            len(s.intervals) for s in per_shard
        )
        assert result.telemetry["cycles_estimated"] == merged.cycles_estimated
        assert result.telemetry["sampling"]["intervals_measured"] == len(
            merged.intervals
        )

    def test_functional_model_rejected(self, tmp_path):
        from repro.framework.parallel import run_parallel

        built = _build()
        with pytest.raises(ValueError, match="detailed cycle model"):
            run_parallel(
                built, shards=2, model="none", processes=1,
                checkpoint_dir=str(tmp_path), use_plan_cache=False,
                sampling="1000:5",
            )


class TestServeSpec:
    def test_sampling_requires_detailed_model(self):
        from repro.serve.protocol import JobSpec, SpecError

        with pytest.raises(SpecError, match="detailed cycle model"):
            JobSpec(program=BENCH, model="ilp",
                    sampling="100:5").validate()
        with pytest.raises(SpecError, match="bad sampling spec"):
            JobSpec(program=BENCH, model="doe",
                    sampling="nope").validate()
        spec = JobSpec(program=BENCH, model="doe", sampling="2000:10:200")
        assert spec.validate() is spec

    def test_execute_job_reports_estimate(self):
        from repro.serve.protocol import JobSpec
        from repro.serve.workers import execute_job

        spec = JobSpec(
            program=BENCH, model="doe", sampling=SPEC,
        ).validate()
        doc = execute_job(
            "job-sampling-test", spec,
            build_cache={}, use_plan_cache=False,
        )
        assert doc["state"] == "done"
        assert doc["cycles_estimated"] is not None
        assert doc["sampling"]["interval"] == 2000
        assert doc["report"]["cycles_estimated"] == doc["cycles_estimated"]


class TestDirectDriver:
    def test_run_sampled_smoke(self):
        """Direct framework.sampling entry point (no pipeline)."""
        from repro.binutils.loader import load_executable

        built = _build()
        program = load_executable(built.elf, built.arch)
        model = DoeModel(issue_width=built.issue_width)
        outcome = run_sampled(program, model, "2000:10:200")
        assert program.state.halted
        assert outcome.result.cycles_estimated is not None
        assert not outcome.cancelled
        assert outcome.stats.executed_instructions > 0

    def test_budget_exhaustion_records_partial(self):
        from repro.binutils.loader import load_executable

        built = _build()
        program = load_executable(built.elf, built.arch)
        model = DoeModel(issue_width=built.issue_width)
        # Budget ends inside the first measured interval (offset 0:
        # measurement starts at instruction 0).
        outcome = run_sampled(program, model, "2000:10",
                              max_instructions=500)
        assert not program.state.halted
        assert outcome.result.intervals == [[500, model.cycles]]
