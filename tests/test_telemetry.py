"""Telemetry layer: registry, profiler, timeline, reports, overhead.

The load-bearing guarantees:

* telemetry never changes architectural results (differential test on
  every bundled benchmark);
* the profiler's attribution *sums* to the interpreter's counters
  (per-function instructions == ``executed_instructions``, per-PC
  cycles == ``model.cycles``);
* the timeline is valid Chrome ``trace_event`` JSON;
* the tracer flushes and closes its file on abort paths.
"""

from __future__ import annotations

import json

import pytest

from repro.cycles.aie import AieModel
from repro.cycles.doe import DoeModel
from repro.framework.pipeline import build_benchmark, run
from repro.programs import load_program, program_names
from repro.sim.errors import SimulationError
from repro.sim.interpreter import ENGINES
from repro.sim.stats import SimStats
from repro.sim.tracing import Tracer
from repro.telemetry import (
    SCHEMA_VERSION,
    HotspotProfiler,
    MetricsRegistry,
    TimelineRecorder,
    build_run_report,
    collect_run_metrics,
    render_report,
    tree_from_flat,
    write_report,
)

from .conftest import assert_equivalent, run_built


SMALL = "fft"  # fast bundled benchmark with several functions


class TestRegistry:
    def test_counter_gauge_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("sim.decode.lookups").inc()
        reg.counter("sim.decode.lookups").inc(4)
        reg.gauge("sim.engine").set("superblock")
        snap = reg.snapshot()
        assert snap["sim.decode.lookups"] == 5
        assert snap["sim.engine"] == "superblock"

    def test_timer_and_histogram_expand(self):
        reg = MetricsRegistry()
        with reg.timer("sim.run"):
            pass
        for v in (1, 2, 3, 10):
            reg.histogram("sim.superblock.block_len").record(v)
        snap = reg.snapshot()
        assert snap["sim.run.count"] == 1
        assert snap["sim.run.seconds"] >= 0.0
        assert snap["sim.superblock.block_len.count"] == 4
        assert snap["sim.superblock.block_len.sum"] == 16
        assert snap["sim.superblock.block_len.min"] == 1
        assert snap["sim.superblock.block_len.max"] == 10

    def test_bound_sources_are_lazy(self):
        reg = MetricsRegistry()
        cell = {"n": 1}
        reg.bind("sim.decode.entries", lambda: cell["n"])
        cell["n"] = 42
        assert reg.snapshot()["sim.decode.entries"] == 42

    def test_disabled_registry_is_null(self):
        reg = MetricsRegistry(enabled=False)
        counter = reg.counter("a.b")
        counter.inc(100)
        reg.gauge("a.c").set(7)
        reg.bind("a.d", lambda: 1 / 0)  # never evaluated
        with reg.timer("a.t"):
            pass
        reg.histogram("a.h").record(3)
        assert counter.value == 0
        assert reg.snapshot() == {}
        assert len(reg) == 0

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x.y")
        with pytest.raises(TypeError):
            reg.gauge("x.y")

    def test_tree_from_flat(self):
        tree = tree_from_flat({
            "sim.decode.lookups": 3,
            "sim.mips": 1.5,
            "mem.cache.l1.misses": 2,
        })
        assert tree["sim"]["decode"]["lookups"] == 3
        assert tree["sim"]["mips"] == 1.5
        assert tree["mem"]["cache"]["l1"]["misses"] == 2


class TestStatsSemantics:
    """Satellite: derived SimStats properties per engine."""

    def test_lookup_avoidance_per_engine(self, kc):
        built = kc(load_program(SMALL), filename=f"{SMALL}.kc")
        # The uncached engines decode every dynamic instruction; give
        # them a budget (semantics don't depend on a full run).
        budgets = {"nocache": 15_000, "cache": 100_000}
        values = {}
        for engine in ENGINES:
            _program, stats = run_built(
                built, engine=engine,
                max_instructions=budgets.get(engine, 50_000_000),
            )
            values[engine] = stats.lookup_avoidance
        assert values["nocache"] == 0.0
        assert values["cache"] == 0.0
        # predict: per-instruction prediction (paper's definition).
        assert values["predict"] > 0.9
        # superblock: block-build lookups only; must not report 0.
        assert values["superblock"] > 0.95
        assert values["superblock"] >= values["predict"]

    def test_predict_matches_paper_definition(self, kc):
        built = kc(load_program(SMALL), filename=f"{SMALL}.kc")
        _program, stats = run_built(built, engine="predict")
        assert stats.lookup_avoidance == pytest.approx(
            stats.prediction_hits / stats.executed_instructions
        )

    def test_empty_stats(self):
        assert SimStats().lookup_avoidance == 0.0
        assert SimStats().decode_avoidance == 0.0


def cached(kc):
    return kc(load_program(SMALL), filename=f"{SMALL}.kc")


class TestDifferentialTelemetry:
    """Telemetry on/off must be architecturally invisible."""

    @pytest.mark.parametrize("name", sorted(program_names()))
    def test_benchmark_identical_with_telemetry(self, name):
        built = build_benchmark(name)
        plain = run(built, engine="superblock")
        profiled = run(
            built, engine="superblock",
            profiler=HotspotProfiler(mode="block"),
            collect_metrics=True,
        )
        assert_equivalent(plain, profiled)
        assert (
            profiled.profiler.total_instructions
            == plain.stats.executed_instructions
        )

    def test_exact_profiler_identical(self, kc):
        built = cached(kc)
        plain = run(built, engine="predict")
        profiled = run(built, engine="predict",
                       profiler=HotspotProfiler(mode="exact"))
        assert_equivalent(plain, profiled)

    def test_timeline_run_identical(self, kc):
        built = cached(kc)
        plain = run(built, engine="superblock",
                    cycle_model=DoeModel(issue_width=1))
        timed = run(built, engine="superblock",
                    cycle_model=DoeModel(issue_width=1),
                    timeline=TimelineRecorder(max_events=1000))
        assert_equivalent(plain, timed)


class TestProfiler:
    def test_exact_attribution_sums(self, kc):
        built = cached(kc)
        profiler = HotspotProfiler(mode="exact")
        result = run(built, engine="predict", profiler=profiler)
        assert (
            sum(profiler.instruction_counts().values())
            == result.stats.executed_instructions
        )

    def test_block_attribution_sums(self, kc):
        built = cached(kc)
        profiler = HotspotProfiler(mode="block")
        result = run(built, engine="superblock", profiler=profiler)
        assert (
            profiler.total_instructions
            == result.stats.executed_instructions
        )

    def test_function_attribution_sums_to_executed(self, kc):
        """Satellite: per-function instruction sum == executed count."""
        built = cached(kc)
        profiler = HotspotProfiler(mode="block")
        result = run(built, engine="superblock", profiler=profiler,
                     collect_metrics=True)
        profile = result.telemetry["profile"]
        assert (
            sum(row["instructions"] for row in profile["functions"])
            == result.stats.executed_instructions
        )
        # Symbolization found real functions, not just the "?" bucket.
        names = {row["name"] for row in profile["functions"]}
        assert any(name.startswith("$risc$") for name in names)

    def test_cycle_attribution_sums_to_model(self, kc):
        built = cached(kc)
        profiler = HotspotProfiler(mode="block")
        model = DoeModel(issue_width=1)
        result = run(built, engine="superblock", cycle_model=model,
                     profiler=profiler)
        assert result.stats.executed_instructions > 0
        assert sum(profiler.pc_cycles.values()) == model.cycles
        # L1 misses attributed too (the hierarchy is exercised).
        from repro.cycles.memmodel import find_cache

        l1 = find_cache(model.memory, "L1")
        assert sum(profiler.pc_l1_misses.values()) == l1.misses

    def test_budget_tail_keeps_attribution(self, kc):
        """Superblock budget tails fall back to the profiled loop."""
        built = cached(kc)
        profiler = HotspotProfiler(mode="block")
        result = run(built, engine="superblock", profiler=profiler,
                     max_instructions=157)
        assert result.stats.executed_instructions == 157
        assert profiler.total_instructions == 157

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            HotspotProfiler(mode="statistical")

    def test_report_fractions(self, kc):
        built = cached(kc)
        profiler = HotspotProfiler(mode="block")
        run(built, engine="superblock", profiler=profiler)
        report = profiler.report(top=5)
        assert report["mode"] == "block"
        total = report["total_instructions"]
        assert total > 0
        assert sum(r["fraction"] for r in report["functions"]) == (
            pytest.approx(1.0)
        )
        assert len(report["pcs"]) <= 5


class TestTimeline:
    def _doe_timeline(self, kc, **kwargs):
        built = cached(kc)
        timeline = TimelineRecorder(**kwargs)
        model = DoeModel(issue_width=1)
        run(built, engine="superblock", cycle_model=model,
            timeline=timeline, max_instructions=2_000)
        return timeline

    def test_valid_chrome_trace(self, kc):
        timeline = self._doe_timeline(kc)
        doc = json.loads(json.dumps(timeline.to_dict()))
        events = doc["traceEvents"]
        assert events, "no events recorded"
        phases = {e["ph"] for e in events}
        assert "X" in phases and "M" in phases
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] >= 0
        names = [e for e in events if e["name"] == "thread_name"]
        assert names and all(
            e["args"]["name"].startswith("slot ") for e in names
        )

    def test_event_cap_drops_and_marks(self, kc):
        timeline = self._doe_timeline(kc, max_events=50)
        assert len(timeline.events) == 50
        assert timeline.dropped > 0
        doc = timeline.to_dict()
        assert any("truncated" in e["name"] for e in doc["traceEvents"])

    def test_aie_emits_events(self, kc):
        built = cached(kc)
        timeline = TimelineRecorder()
        run(built, engine="predict", cycle_model=AieModel(),
            timeline=timeline, max_instructions=500)
        assert any(e["ph"] == "X" for e in timeline.events)

    def test_write_roundtrip(self, kc, tmp_path):
        timeline = self._doe_timeline(kc)
        path = tmp_path / "t.trace.json"
        timeline.write(str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


class TestMetricsReport:
    def test_metrics_match_stats(self, kc):
        built = cached(kc)
        result = run(built, engine="superblock", collect_metrics=True)
        metrics = result.metrics
        stats = result.stats
        assert metrics["sim.executed_instructions"] == (
            stats.executed_instructions
        )
        assert metrics["sim.decode.decoded_instructions"] == (
            stats.decoded_instructions
        )
        assert metrics["sim.engine"] == "superblock"
        assert metrics["sim.superblock.blocks_executed"] > 0
        assert result.telemetry["schema_version"] == SCHEMA_VERSION

    def test_model_and_memory_metrics(self, kc):
        built = cached(kc)
        model = DoeModel(issue_width=1)
        result = run(built, engine="superblock", cycle_model=model,
                     collect_metrics=True)
        metrics = result.metrics
        assert metrics["cycles.doe.cycles"] == model.cycles
        assert metrics["mem.cache.l1.accesses"] == (
            metrics["mem.cache.l1.hits"] + metrics["mem.cache.l1.misses"]
        )

    def test_collect_from_stats_only(self):
        stats = SimStats(executed_instructions=7, executed_slots=7)
        metrics = collect_run_metrics(stats=stats)
        assert metrics["sim.executed_instructions"] == 7

    def test_report_render_and_write(self, kc, tmp_path):
        built = cached(kc)
        profiler = HotspotProfiler(mode="block")
        result = run(built, engine="superblock", profiler=profiler)
        doc = build_run_report(
            None, stats=result.stats, profiler=profiler,
            debug_info=result.program.debug_info,
            engine="superblock", workload=SMALL,
        )
        path = tmp_path / "m.json"
        write_report(doc, str(path))
        loaded = json.loads(path.read_text())
        text = render_report(loaded)
        assert "hot functions" in text
        assert "sim.executed_instructions" in text


class TestTracerLifecycle:
    """Satellite: the trace stream survives simulator aborts."""

    BAD_WORD_ASM = (
        ".global $risc$main\n$risc$main:\n"
        "addi r9, r0, 5\n.word 0xee000000\nhalt\n"
    )

    def test_close_flushes_on_abort(self, arch, tmp_path):
        from repro.binutils.assembler import Assembler
        from repro.binutils.linker import link
        from repro.binutils.loader import load_executable
        from repro.sim.interpreter import Interpreter

        obj = Assembler(arch).assemble(self.BAD_WORD_ASM, "bad.s")
        elf, _ = link([obj], arch, entry_symbol="$risc$main", entry_isa=0)
        path = tmp_path / "abort.trc"
        with pytest.raises(SimulationError):
            with Tracer.to_file(str(path)) as tracer:
                program = load_executable(elf, arch)
                Interpreter(program.state, tracer=tracer).run()
        assert tracer.closed
        assert tracer.stream.closed
        # The instruction executed before the fault reached the file.
        assert "addi" in path.read_text()

    def test_close_idempotent_and_external_stream_kept_open(self, tmp_path):
        import io

        stream = io.StringIO()
        tracer = Tracer(stream=stream, keep_records=False)
        tracer.close()
        tracer.close()
        assert not stream.closed  # not owned: only flushed

    def test_cli_run_closes_trace_on_abort(self, tmp_path, capsys):
        from repro.binutils.assembler import Assembler
        from repro.binutils.linker import link
        from repro.adl.kahrisma import KAHRISMA
        from repro.cli import main

        obj = Assembler(KAHRISMA).assemble(self.BAD_WORD_ASM, "bad.s")
        elf_obj, _ = link([obj], KAHRISMA,
                          entry_symbol="$risc$main", entry_isa=0)
        elf = tmp_path / "bad.elf"
        elf.write_bytes(elf_obj.write())
        trace = tmp_path / "bad.trc"
        with pytest.raises(SimulationError):
            main(["run", str(elf), "--trace", str(trace)])
        assert "addi" in trace.read_text()


class TestCliTelemetry:
    @pytest.fixture()
    def app_elf(self, tmp_path):
        from repro.cli import main

        kc = tmp_path / "app.kc"
        kc.write_text(
            "int main() { int s; int i; s = 0;"
            " for (i = 0; i < 50; i = i + 1) { s = s + i; }"
            " print_int(s); return 0; }\n"
        )
        elf = str(tmp_path / "app.elf")
        assert main(["compile", str(kc), "-o", elf]) == 0
        return elf

    def test_run_with_all_telemetry_flags(self, app_elf, tmp_path, capsys):
        from repro.cli import main

        metrics = str(tmp_path / "m.json")
        timeline = str(tmp_path / "t.trace.json")
        rc = main(["run", app_elf, "--model", "doe", "--profile",
                   "--metrics", metrics, "--timeline", timeline])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hot functions" in out
        doc = json.load(open(metrics))
        assert doc["schema"] == "kahrisma-telemetry"
        assert doc["metrics"]["sim.executed_instructions"] > 0
        trace = json.load(open(timeline))
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_timeline_requires_model(self, app_elf, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", app_elf, "--timeline",
                  str(tmp_path / "t.json")])

    def test_report_subcommand(self, app_elf, tmp_path, capsys):
        from repro.cli import main

        metrics = str(tmp_path / "m.json")
        main(["run", app_elf, "--metrics", metrics])
        capsys.readouterr()
        assert main(["report", metrics, "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "sim.executed_instructions" in out
