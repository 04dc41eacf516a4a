"""Streaming events and the flight recorder (``repro.telemetry``).

Schema validity is asserted through :func:`validate_event` /
:func:`validate_stream_text` — the same validators the CI streaming
smoke job uses — across every fast engine and every bundled benchmark,
including the parallel shard-merge path.  The flight recorder's ring
buffers must stay bounded everywhere, dump on trap, and the lockstep
forensics must localize an injected fault to its exact instruction.
"""

from __future__ import annotations

import json

import pytest

from repro.binutils.loader import load_executable
from repro.framework import pipeline
from repro.framework.parallel import run_parallel
from repro.programs import load_program, program_names
from repro.sim.errors import SimulationError
from repro.sim.interpreter import Interpreter
from repro.telemetry import (
    EventStream,
    FlightRecorder,
    PrometheusSnapshot,
    format_forensics,
    merge_shard_events,
    prometheus_lines,
    render_event_summary,
    run_lockstep,
    summarize_events,
    validate_event,
    validate_stream_text,
    write_prometheus,
)
from repro.telemetry.stream import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    looks_like_event_stream,
)

BENCHMARKS = sorted(program_names())
FAST_ENGINES = ("predict", "superblock", "aot")


def bench(kc, name):
    """Session-cached benchmark build (same key as test_programs)."""
    return kc(load_program(name), isa="risc", filename=f"{name}.kc")


class TestEventStream:
    def test_envelope_and_monotonic_seq(self):
        stream = EventStream(heartbeat_every=1000)
        stream.emit("run-start", workload="x", engine="predict",
                    model=None, heartbeat_every=1000)
        stream.emit("run-end", instructions=5, exit_code=0,
                    elapsed_seconds=0.1, mips=1.0, halted=True)
        assert len(stream.events) == 2
        for i, event in enumerate(stream.events):
            validate_event(event)
            assert event["seq"] == i
            assert event["v"] == EVENT_SCHEMA_VERSION
            assert event["t"] >= 0

    def test_shard_tagging(self):
        stream = EventStream(shard=3)
        event = stream.emit("smc-invalidate", addr=0x1000, length=4)
        assert event["shard"] == 3

    def test_emit_raw_resequences(self):
        stream = EventStream()
        event = {"v": EVENT_SCHEMA_VERSION, "seq": 99, "t": 0.5,
                 "type": "syscall", "ip": 1, "ident": 2, "name": "putchar"}
        out = stream.emit_raw(event, shard=1)
        assert out["seq"] == 0 and out["shard"] == 1
        assert out["t"] == 0.5  # shard-local clock preserved

    def test_subscribers_see_every_event(self):
        seen = []
        stream = EventStream()
        stream.subscribe(seen.append)
        stream.emit("trap", error="boom", ip=0)
        assert [e["type"] for e in seen] == ["trap"]

    def test_file_sink_ndjson_and_idempotent_close(self, tmp_path):
        path = tmp_path / "events.ndjson"
        stream = EventStream.open(str(path), heartbeat_every=10)
        stream.emit("checkpoint", path="x.kchk", instructions=10)
        stream.close()
        stream.close()
        events = validate_stream_text(path.read_text())
        assert [e["type"] for e in events] == ["checkpoint"]

    def test_validate_event_rejects_bad_events(self):
        good = {"v": EVENT_SCHEMA_VERSION, "seq": 0, "t": 0.0,
                "type": "trap", "error": "x", "ip": 0}
        validate_event(good)
        with pytest.raises(ValueError, match="unknown event type"):
            validate_event(dict(good, type="warp"))
        with pytest.raises(ValueError, match="missing fields"):
            validate_event({k: v for k, v in good.items() if k != "ip"})
        with pytest.raises(ValueError, match="schema version"):
            validate_event(dict(good, v=999))
        with pytest.raises(ValueError, match="envelope"):
            validate_event({"type": "trap", "error": "x", "ip": 0})

    def test_validate_stream_text_rejects_non_monotonic_seq(self):
        line = json.dumps({"v": EVENT_SCHEMA_VERSION, "seq": 0, "t": 0.0,
                           "type": "trap", "error": "x", "ip": 0})
        with pytest.raises(ValueError, match="not monotonic"):
            validate_stream_text(line + "\n" + line)
        with pytest.raises(ValueError, match="not JSON"):
            validate_stream_text("{nope}")


class TestEngineMatrix:
    """Schema validity + flight bounds: engines x all six benchmarks."""

    CAP = 25_000
    HEARTBEAT = 5_000
    FLIGHT_CAPACITY = 128

    @pytest.mark.parametrize("name", BENCHMARKS)
    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_stream_valid_and_flight_bounded(self, kc, name, engine):
        built = bench(kc, name)
        events = EventStream(heartbeat_every=self.HEARTBEAT)
        flight = FlightRecorder(capacity=self.FLIGHT_CAPACITY,
                                events_capacity=32)
        result = pipeline.run(
            built, engine=engine, max_instructions=self.CAP,
            events=events, flight=flight, workload=name,
        )
        for event in events.events:
            validate_event(event)
        types = [e["type"] for e in events.events]
        assert types[0] == "run-start"
        assert types[-1] == "run-end"
        start = events.events[0]
        assert start["workload"] == name and start["engine"] == engine
        end = events.events[-1]
        assert end["instructions"] == result.stats.executed_instructions
        if end["instructions"] >= 2 * self.HEARTBEAT:
            assert types.count("heartbeat") >= 1
        for event in events.events:
            if event["type"] == "heartbeat":
                assert event["instructions"] % self.HEARTBEAT == 0
                assert isinstance(event["counters"], dict)
        # Ring buffers never exceed their bounds, whatever the engine.
        assert len(flight.blocks) <= self.FLIGHT_CAPACITY
        assert len(flight.marks) <= 32
        kinds = {entry[0] for entry in flight.blocks}
        assert kinds <= {"block", "abort", "dispatch", "instr"}
        if engine == "predict":
            assert kinds <= {"instr"}
        elif engine == "superblock":
            assert "block" in kinds
        elif engine == "aot":
            assert "dispatch" in kinds

    def test_heartbeat_cadence_exact(self, kc):
        built = bench(kc, "dct4x4")
        events = EventStream(heartbeat_every=5_000)
        result = pipeline.run(built, engine="superblock", events=events)
        summary = summarize_events(events.events)
        hb = summary["heartbeats"]
        assert hb["mean_interval_instructions"] == 5_000
        assert hb["count"] == (
            (result.stats.executed_instructions - 1) // 5_000
        )


class TestRareEvents:
    def test_syscall_events_named(self, kc):
        built = bench(kc, "dct4x4")
        events = EventStream()
        pipeline.run(built, engine="superblock", events=events)
        syscalls = [e for e in events.events if e["type"] == "syscall"]
        assert syscalls
        for event in syscalls:
            validate_event(event)
            assert isinstance(event["name"], str) and event["name"]
            assert event["ident"] >= 0

    def test_isa_switch_events_on_mixed_build(self, kc):
        source = (
            "int helper(int x) { return x * 3 + 1; }\n"
            "int main() { int s = 0;"
            " for (int i = 0; i < 8; i++) s += helper(i);"
            " print_int(s); return 0; }\n"
        )
        built = kc(source, isa="risc", isa_map={"helper": "vliw4"})
        events = EventStream()
        flight = FlightRecorder()
        pipeline.run(built, engine="superblock", events=events,
                     flight=flight)
        switches = [e for e in events.events if e["type"] == "isa-switch"]
        assert len(switches) >= 2  # call + return, per iteration
        for event in switches:
            validate_event(event)
            assert event["from_isa"] != event["to_isa"]
        assert any(m["kind"] == "isa-switch" for m in flight.marks)

    def test_checkpoint_events(self, kc, tmp_path):
        built = bench(kc, "dct4x4")
        events = EventStream()
        result = pipeline.run(
            built, engine="superblock", events=events,
            checkpoint_every=40_000, checkpoint_dir=str(tmp_path),
        )
        marks = [e for e in events.events if e["type"] == "checkpoint"]
        assert len(marks) == len(result.checkpoints)
        assert [m["path"] for m in marks] == result.checkpoints
        instr = [m["instructions"] for m in marks]
        assert instr == sorted(instr)


class TestTrapAndDump:
    def trap(self, kc, tmp_path, engine):
        built = bench(kc, "dct4x4")
        program = load_executable(built.elf, built.arch)
        events = EventStream()
        flight = FlightRecorder(capacity=64)
        flight.dump_path = str(tmp_path / "flight.json")
        interp = Interpreter(program.state, engine=engine,
                             events=events, flight=flight)
        interp.run(max_instructions=5_000)
        # Corrupt the next fetch: 0xffffffff decodes to nothing.
        program.state.mem.store4(program.state.ip, 0xFFFFFFFF)
        with pytest.raises(SimulationError) as excinfo:
            interp.run(max_instructions=5_000)
        return events, flight, excinfo.value

    @pytest.mark.parametrize("engine", ["predict", "superblock"])
    def test_trap_attaches_flight_and_dumps(self, kc, tmp_path, engine):
        events, flight, exc = self.trap(kc, tmp_path, engine)
        # The exception carries the forensic context ...
        assert exc.flight["blocks"]
        assert exc.flight["blocks"] == [list(b) for b in flight.blocks]
        assert any(m["kind"] == "trap" for m in flight.marks)
        # ... the dump file was written ...
        assert exc.flight_dump == flight.dump_path
        dumped = json.loads(open(flight.dump_path).read())
        assert dumped["blocks"] and dumped["capacity"] == 64
        # ... and the stream saw the trap.
        trap = [e for e in events.events if e["type"] == "trap"]
        assert len(trap) == 1
        validate_event(trap[0])
        assert trap[0]["error"]

    def test_format_names_trail(self, kc, tmp_path):
        _events, flight, _exc = self.trap(kc, tmp_path, "superblock")
        text = flight.format()
        assert "flight recorder" in text
        assert "trap" in text


class TestParallelMerge:
    def test_merged_stream_is_valid_and_shard_tagged(self, kc):
        built = bench(kc, "dct4x4")
        events = EventStream(heartbeat_every=10_000)
        run_parallel(built, shards=2, model="doe", workload="dct4x4",
                     events=events)
        for event in events.events:
            validate_event(event)
        seqs = [e["seq"] for e in events.events]
        assert seqs == sorted(set(seqs))
        types = [e["type"] for e in events.events]
        assert types[0] == "run-start"
        assert types[-1] == "run-end"
        assert events.events[0]["shards"] == 2
        shard_tags = {e["shard"] for e in events.events if "shard" in e}
        assert shard_tags == {0, 1}
        assert any(t == "heartbeat" for t in types)

    @pytest.mark.parametrize(
        "engine", ["nocache", "cache", "predict", "superblock"]
    )
    def test_merged_stream_schema_valid_per_engine(self, kc, engine):
        # The merged coordinator stream must be schema-valid and seq
        # gap-free no matter which engine ran the shards.
        built = bench(kc, "dct4x4")
        events = EventStream(heartbeat_every=20_000)
        run_parallel(built, shards=2, model="none", engine=engine,
                     workload="dct4x4", events=events)
        for event in events.events:
            validate_event(event)
        seqs = [e["seq"] for e in events.events]
        assert seqs == list(range(len(seqs)))
        types = [e["type"] for e in events.events]
        assert types[0] == "run-start" and types[-1] == "run-end"
        assert {e["shard"] for e in events.events if "shard" in e} == {0, 1}

    def test_merge_shard_events_counts(self):
        coordinator = EventStream()
        worker = EventStream(shard=0, heartbeat_every=10)
        worker.emit("syscall", ip=1, ident=2, name="putchar")
        other = EventStream(shard=1, heartbeat_every=10)
        other.emit("smc-invalidate", addr=16, length=4)
        merged = merge_shard_events(
            coordinator, [worker.events, other.events, None]
        )
        assert merged == 2
        assert [e["shard"] for e in coordinator.events] == [0, 1]
        assert [e["seq"] for e in coordinator.events] == [0, 1]


class TestForensics:
    def test_agreeing_engines_return_none(self, kc):
        built = bench(kc, "dct4x4")
        report = run_lockstep(
            built,
            {"engine": "superblock", "label": "superblock"},
            {"engine": "aot", "label": "aot"},
            interval=20_000,
        )
        assert report is None

    def test_injected_fault_localized(self, kc):
        built = bench(kc, "dct4x4")
        sp = built.arch.register_file.by_role("sp")[0].name
        inject = {"at": 30_000, "reg": sp, "xor": 8}
        report = run_lockstep(
            built,
            {"engine": "superblock", "label": "superblock"},
            {"engine": "aot", "label": "aot"},
            interval=10_000,
            inject=inject,
        )
        assert report is not None
        assert report["first_divergent_instruction"] == 30_000
        assert report["first_divergent_pc"] is not None
        delta = report["replay_register_delta"]
        assert any(entry["name"] == sp for entry in delta)
        assert report["recent_blocks_a"]["blocks"]
        assert report["recent_blocks_b"]["blocks"]
        assert report["injected_fault"] == inject
        text = format_forensics(report)
        assert "first divergent instruction" in text
        assert sp in text
        assert "last blocks on a" in text


class TestPrometheus:
    METRICS = {
        "sim.executed_instructions": 1234,
        "sim.engine": "superblock",
        "cycles.doe.ops_per_cycle": 1.5,
        "sim.halted": True,
    }

    def test_lines(self):
        lines = prometheus_lines(self.METRICS)
        text = "\n".join(lines)
        assert "kahrisma_sim_executed_instructions 1234" in text
        assert "kahrisma_cycles_doe_ops_per_cycle 1.5" in text
        assert "kahrisma_sim_halted 1" in text
        assert 'kahrisma_run_info{sim_engine="superblock"} 1' in text

    def test_write_atomic(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus(self.METRICS, str(path))
        assert "kahrisma_sim_executed_instructions" in path.read_text()
        assert list(tmp_path.iterdir()) == [path]  # no tmp file left

    def test_snapshot_subscriber_refreshes_on_heartbeat(self, tmp_path):
        path = tmp_path / "metrics.prom"
        snapshot = PrometheusSnapshot(str(path))
        stream = EventStream()
        stream.subscribe(snapshot)
        stream.emit("syscall", ip=0, ident=1, name="putchar")
        assert snapshot.writes == 0
        stream.emit("heartbeat", instructions=10, mips=1.0, cycles=None,
                    counters={"sim.executed_instructions": 10})
        assert snapshot.writes == 1
        assert "kahrisma_sim_executed_instructions 10" in path.read_text()


class TestSummaries:
    def synthetic(self):
        stream = EventStream(heartbeat_every=10)
        stream.emit("run-start", workload="w", engine="superblock",
                    model="doe", heartbeat_every=10)
        for n in (10, 20, 30):
            stream.emit("heartbeat", instructions=n, mips=2.0,
                        cycles=None, counters={})
        stream.emit("syscall", ip=0, ident=1, name="putchar")
        stream.emit("syscall", ip=4, ident=1, name="putchar")
        stream.emit("run-end", instructions=35, exit_code=0,
                    elapsed_seconds=0.5, mips=2.5, halted=True)
        return stream.events

    def test_summarize(self):
        summary = summarize_events(self.synthetic())
        assert summary["events"] == 7
        assert summary["by_type"]["heartbeat"] == 3
        assert summary["workload"] == "w"
        assert summary["syscalls_by_name"] == {"putchar": 2}
        assert summary["heartbeats"]["mean_interval_instructions"] == 10
        assert summary["exit_code"] == 0

    def test_render(self):
        text = render_event_summary(summarize_events(self.synthetic()))
        assert "== events ==" in text
        assert "== heartbeats ==" in text
        assert "putchar" in text

    def test_looks_like_event_stream(self):
        events = self.synthetic()
        ndjson = "\n".join(json.dumps(e) for e in events)
        assert looks_like_event_stream(ndjson)
        assert not looks_like_event_stream('{"schema": "kahrisma-telemetry"}')
        assert not looks_like_event_stream("not json")

    def test_event_types_registry_is_complete(self):
        assert set(EVENT_TYPES) == {
            "run-start", "heartbeat", "syscall", "isa-switch",
            "smc-invalidate", "checkpoint", "trap", "run-end",
        }


class TestCli:
    @pytest.fixture()
    def elf(self, tmp_path):
        from repro.cli import main

        src = tmp_path / "app.kc"
        src.write_text(
            "int main() { int s = 0;"
            " for (int i = 0; i < 2000; i++) s += i;"
            " print_int(s); return 0; }\n"
        )
        path = str(tmp_path / "app.elf")
        assert main(["compile", str(src), "-o", path]) == 0
        return path

    def test_events_file_and_report(self, elf, tmp_path, capsys):
        from repro.cli import main

        events_path = str(tmp_path / "events.ndjson")
        assert main(["run", elf, "--events", events_path,
                     "--heartbeat", "1000"]) == 0
        events = validate_stream_text(open(events_path).read())
        types = [e["type"] for e in events]
        assert types[0] == "run-start" and types[-1] == "run-end"
        assert "heartbeat" in types
        capsys.readouterr()
        assert main(["report", events_path]) == 0
        out = capsys.readouterr().out
        assert "event stream schema" in out
        assert "== events ==" in out

    @pytest.mark.parametrize("sampling", [None, "500:4:50"])
    def test_run_start_same_everywhere(self, elf, tmp_path, sampling):
        """CLI, pipeline.run and serve describe one run identically."""
        from repro.cli import main
        from repro.cycles.doe import DoeModel
        from repro.serve import JobSpec
        from repro.serve.workers import execute_job

        def run_start(events):
            start = events[0]
            assert start["type"] == "run-start"
            return {k: v for k, v in start.items()
                    if k not in ("v", "seq", "t")}

        source = open(str(tmp_path / "app.kc")).read()
        path = str(tmp_path / "cli.ndjson")
        argv = ["run", elf, "--model", "doe", "--events", path,
                "--no-plan-cache"]
        main(argv + (["--sample", sampling] if sampling else []))
        cli = run_start(validate_stream_text(open(path).read()))

        built = pipeline.build(source, filename="app.kc")
        stream = EventStream()
        pipeline.run(built, engine="superblock", workload=elf,
                     cycle_model=DoeModel(issue_width=built.issue_width),
                     sampling=sampling, events=stream)
        direct = run_start(stream.events)

        served = []
        execute_job("job-1", JobSpec(source=source, label=elf, model="doe",
                                     sampling=sampling),
                    emit=served.append, use_plan_cache=False)
        assert cli == direct == run_start(served)
        assert cli["model"] == "doe" and cli["engine"] == "superblock"

    def test_events_stdout_is_pure_ndjson(self, elf, capsys):
        from repro.cli import main

        assert main(["run", elf, "--events", "-"]) == 0
        captured = capsys.readouterr()
        events = validate_stream_text(captured.out)
        assert [e["type"] for e in events][-1] == "run-end"
        assert "instructions:" in captured.err  # summary went to stderr

    def test_events_stdout_stays_pure_with_live(self, elf, capsys):
        # --live renders \r-rewritten progress; with --events - that
        # rendering must land on stderr, never inside the NDJSON.
        from repro.cli import main

        assert main(["run", elf, "--events", "-", "--live",
                     "--heartbeat", "1000"]) == 0
        captured = capsys.readouterr()
        assert "\r" not in captured.out
        events = validate_stream_text(captured.out)
        assert [e["type"] for e in events][-1] == "run-end"
        assert "\r" in captured.err  # the progress line went to stderr
