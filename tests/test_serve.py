"""Simulation-as-a-service (``repro.serve``).

Three layers, tested bottom-up:

* protocol/scheduler unit tests — spec validation at the HTTP
  boundary, priority order, FIFO tiebreaks, per-tenant concurrency
  caps, cross-tenant fairness, queue-depth admission;
* :func:`repro.serve.workers.execute_job` in-process — the worker body
  without any process pool: done/cancelled/failed terminal states,
  live event relay, resumable cancel checkpoints that replay to the
  exact straight-run totals;
* one real server (worker processes + asyncio HTTP front end, shared
  for the class) driven through :class:`KahrismaClient` and ``kahrisma
  submit`` — lifecycle, relayed NDJSON schema validity, tenant limits
  over HTTP, mid-run cancellation, /metrics exposition.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.framework import pipeline
from repro.programs import load_program
from repro.serve import (
    JobSpec,
    QueueFull,
    Scheduler,
    ServerConfig,
    SpecError,
    TenantLimits,
    start_in_thread,
)
from repro.serve.client import KahrismaClient, ServeError
from repro.serve.protocol import Job, job_id_new
from repro.serve.workers import WorkerPool, execute_job
from repro.sim.interpreter import CANCEL_SLICE
from repro.telemetry.stream import validate_stream_text

from .conftest import assert_equivalent


def ndjson(events) -> str:
    return "\n".join(json.dumps(e, sort_keys=True) for e in events)


class TestJobSpec:
    def test_minimal_program_spec(self):
        spec = JobSpec.from_doc({"program": "dct4x4"})
        assert spec.engine == "superblock"
        assert spec.tenant == "default"
        assert spec.workload == "dct4x4"

    def test_source_spec(self):
        spec = JobSpec.from_doc({"source": "int main() { return 0; }",
                                 "label": "mini"})
        assert spec.program is None
        assert spec.workload == "mini"

    def test_program_xor_source(self):
        with pytest.raises(SpecError, match="exactly one"):
            JobSpec.from_doc({})
        with pytest.raises(SpecError, match="exactly one"):
            JobSpec.from_doc({"program": "dct4x4", "source": "x"})

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError, match="unknown job fields: bogus"):
            JobSpec.from_doc({"program": "dct4x4", "bogus": 1})

    def test_enum_fields_validated(self):
        for field, value in (
            ("program", "nonesuch"), ("engine", "warp"),
            ("model", "quantum"), ("branch_predictor", "oracle"),
            ("isa", "arm"),
        ):
            with pytest.raises(SpecError):
                JobSpec.from_doc({"program": "dct4x4", field: value})

    def test_integer_fields_validated(self):
        with pytest.raises(SpecError, match="priority"):
            JobSpec.from_doc({"program": "dct4x4", "priority": "high"})
        with pytest.raises(SpecError, match="max_instructions"):
            JobSpec.from_doc({"program": "dct4x4",
                              "max_instructions": 0})
        with pytest.raises(SpecError, match="tenant"):
            JobSpec.from_doc({"program": "dct4x4", "tenant": ""})

    def test_run_rules_match_the_cli(self):
        # `kahrisma run` rejects a predictor on a model without a fetch
        # stage; so must serve.
        for model in ("none", "ilp"):
            with pytest.raises(SpecError, match="fetch stage"):
                JobSpec.from_doc({"program": "dct4x4", "model": model,
                                  "branch_predictor": "gshare"})
        spec = JobSpec.from_doc({"program": "dct4x4", "model": "doe",
                                 "branch_predictor": "gshare"})
        assert spec.run_config().make_model(1).branch_model is not None

    def test_boolean_fields_validated(self):
        for name in ("fuse_cycles", "checkpoint_on_cancel"):
            with pytest.raises(SpecError, match=name):
                JobSpec.from_doc({"program": "dct4x4", name: "false"})

    def test_doc_roundtrip(self):
        spec = JobSpec.from_doc({"program": "fft", "engine": "aot",
                                 "priority": 3})
        assert JobSpec.from_doc(spec.to_doc()) == spec

    def test_job_ids_unique_and_monotonic(self):
        ids = [job_id_new() for _ in range(5)]
        assert len(set(ids)) == 5
        assert ids == sorted(ids)


def make_job(tenant="default", priority=10):
    return Job(id=job_id_new(),
               spec=JobSpec(program="dct4x4", tenant=tenant,
                            priority=priority))


class TestScheduler:
    def test_priority_then_fifo_within_tenant(self):
        sched = Scheduler(limits=TenantLimits(max_running=10))
        low = make_job(priority=20)
        first = make_job(priority=5)
        second = make_job(priority=5)
        for job in (low, first, second):
            sched.submit(job)
        order = [sched.acquire(), sched.acquire(), sched.acquire()]
        assert order == [first, second, low]

    def test_per_tenant_running_cap(self):
        sched = Scheduler(limits=TenantLimits(max_running=1))
        a1, a2 = make_job("a"), make_job("a")
        sched.submit(a1)
        sched.submit(a2)
        assert sched.acquire() is a1
        assert sched.acquire() is None  # tenant a is at its cap
        sched.release(a1)
        assert sched.acquire() is a2

    def test_fairness_least_running_tenant_first(self):
        sched = Scheduler(limits=TenantLimits(max_running=4))
        hog = [make_job("hog", priority=1) for _ in range(3)]
        for job in hog:
            sched.submit(job)
        running = [sched.acquire(), sched.acquire()]
        assert all(j.spec.tenant == "hog" for j in running)
        # A fresh tenant's first job beats the hog's third, despite
        # the hog queueing earlier at a better priority.
        newcomer = make_job("newcomer", priority=50)
        sched.submit(newcomer)
        assert sched.acquire() is newcomer

    def test_tenant_queue_depth_rejects(self):
        sched = Scheduler(limits=TenantLimits(max_queued=2))
        sched.submit(make_job("t"))
        sched.submit(make_job("t"))
        with pytest.raises(QueueFull) as excinfo:
            sched.submit(make_job("t"))
        assert excinfo.value.scope == "tenant"
        sched.submit(make_job("other"))  # other tenants unaffected
        assert sched.rejected_tenant == 1

    def test_global_depth_rejects(self):
        sched = Scheduler(limits=TenantLimits(max_queued=99),
                          max_depth=2)
        sched.submit(make_job("a"))
        sched.submit(make_job("b"))
        with pytest.raises(QueueFull) as excinfo:
            sched.submit(make_job("c"))
        assert excinfo.value.scope == "global"

    def test_per_tenant_override(self):
        sched = Scheduler(
            limits=TenantLimits(max_running=1),
            per_tenant={"vip": TenantLimits(max_running=3)},
        )
        jobs = [make_job("vip") for _ in range(3)]
        for job in jobs:
            sched.submit(job)
        assert [sched.acquire() for _ in range(3)] == jobs

    def test_remove_queued(self):
        sched = Scheduler()
        job, other = make_job(), make_job()
        sched.submit(job)
        sched.submit(other)
        assert sched.remove(job)
        assert not sched.remove(job)  # already gone
        assert sched.acquire() is other
        assert sched.cancelled_queued == 1

    def test_metrics_shape(self):
        sched = Scheduler()
        job = make_job()
        sched.submit(job)
        sched.acquire()
        sched.release(job)
        metrics = sched.metrics()
        assert metrics["serve.scheduler.submitted"] == 1
        assert metrics["serve.scheduler.dispatched"] == 1
        assert metrics["serve.scheduler.completed"] == 1
        assert metrics["serve.scheduler.depth"] == 0
        assert all(k.startswith("serve.scheduler.") for k in metrics)


class TestExecuteJob:
    """The worker body in-process: no pool, fully deterministic."""

    def test_done_with_report_and_events(self):
        seen = []
        result = execute_job(
            "job-x", JobSpec(program="dct4x4", engine="superblock",
                             heartbeat_every=20_000),
            emit=seen.append, use_plan_cache=False,
        )
        assert result["state"] == "done"
        assert result["exit_code"] == 0
        assert result["instructions"] == 121_000
        assert result["halted"] is True
        assert result["report"]["schema"] == "kahrisma-telemetry"
        validate_stream_text(ndjson(seen))
        types = [e["type"] for e in seen]
        assert types[0] == "run-start" and types[-1] == "run-end"
        assert "heartbeat" in types

    def test_cancel_then_resume_matches_straight_run(self, tmp_path):
        fired = {"n": 0}

        def cancel_after_two_slices():
            fired["n"] += 1
            return fired["n"] > 2

        cancelled = execute_job(
            "job-c", JobSpec(program="dct4x4", engine="cache",
                             heartbeat_every=10_000),
            cancel=cancel_after_two_slices,
            checkpoint_dir=str(tmp_path),
            use_plan_cache=False,
        )
        assert cancelled["state"] == "cancelled"
        assert 0 < cancelled["instructions"] < 121_000
        assert cancelled["checkpoint"]
        resumed = execute_job(
            "job-r", JobSpec(program="dct4x4", engine="cache",
                             resume_from=cancelled["checkpoint"]),
            use_plan_cache=False,
        )
        assert resumed["state"] == "done"
        # Resumed totals are bitwise those of an uninterrupted run.
        assert resumed["instructions"] == 121_000
        assert resumed["exit_code"] == 0
        straight = execute_job(
            "job-s", JobSpec(program="dct4x4", engine="cache"),
            use_plan_cache=False,
        )
        assert resumed["output"] == straight["output"][
            len(straight["output"]) - len(resumed["output"]):
        ] or resumed["output"] == straight["output"]

    def test_build_failure_is_failed_state(self):
        result = execute_job(
            "job-f", JobSpec(source="int main( { broken"),
            use_plan_cache=False,
        )
        assert result["state"] == "failed"
        assert result["error"]

    def test_cycle_model_job(self):
        result = execute_job(
            "job-m", JobSpec(program="dct4x4", model="doe"),
            use_plan_cache=False,
        )
        assert result["state"] == "done"
        assert result["cycles"] > 0

    def test_warm_plan_cache_shared_across_jobs(self, tmp_path):
        spec = JobSpec(program="dct4x4", engine="superblock")
        cold = execute_job("job-1", spec, build_cache={},
                           plan_cache_dir=str(tmp_path))
        warm = execute_job("job-2", spec, build_cache={},
                           plan_cache_dir=str(tmp_path))
        cold_m = cold["report"]["metrics"]
        warm_m = warm["report"]["metrics"]
        assert cold_m["sim.superblock.translations"] > 0
        assert warm_m["sim.superblock.translations"] == 0
        assert warm_m["sim.superblock.plan_cache_hits"] > 0


@pytest.fixture(scope="class")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    config = ServerConfig(
        port=0, workers=2,
        tenant_max_running=1,
        tenant_max_queued=3,
        checkpoint_dir=str(tmp / "checkpoints"),
        plan_cache_dir=str(tmp / "plans"),
    )
    handle = start_in_thread(config)
    yield handle
    handle.stop()


@pytest.fixture(scope="class")
def client(server):
    return KahrismaClient(server.base_url)


class TestServerEndToEnd:
    """One real server (2 worker processes) shared by the class."""

    def test_health(self, client):
        health = client.health()
        assert health["ok"] is True
        assert health["workers"] == 2

    def test_submit_wait_result(self, client):
        job = client.submit({"program": "dct4x4",
                             "engine": "superblock"})
        assert job["state"] in ("queued", "running")
        result = client.wait(job["id"], timeout=120)
        assert result["state"] == "done"
        assert result["exit_code"] == 0
        assert result["instructions"] == 121_000
        assert "3 -17149" in result["output"]
        status = client.status(job["id"])
        assert status["state"] == "done"
        assert status["worker"] in (0, 1)

    def test_relayed_stream_schema_valid_and_gap_free(self, client):
        job = client.submit({"program": "fft", "engine": "superblock",
                             "heartbeat_every": 10_000})
        events = list(client.events(job["id"]))
        parsed = validate_stream_text(ndjson(events))
        seqs = [e["seq"] for e in parsed]
        assert seqs == list(range(len(seqs)))
        types = [e["type"] for e in parsed]
        assert types[0] == "run-start" and types[-1] == "run-end"
        assert "heartbeat" in types
        result = client.wait(job["id"], timeout=60)
        assert result["state"] == "done"

    def test_bad_spec_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit({"program": "nonesuch"})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.submit({"program": "dct4x4", "bogus": 1})
        assert excinfo.value.status == 400
        for doc in ({"model": "none", "branch_predictor": "gshare"},
                    {"model": "ilp", "branch_predictor": "bimodal"},
                    {"fuse_cycles": "false"},
                    {"checkpoint_on_cancel": "false"}):
            with pytest.raises(ServeError) as excinfo:
                client.submit({"program": "dct4x4", **doc})
            assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.status("job-00000-999999")
        assert excinfo.value.status == 404

    def test_result_before_terminal_is_409(self, client):
        job = client.submit({"program": "djpeg", "engine": "cache",
                             "heartbeat_every": 5_000})
        with pytest.raises(ServeError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409
        client.cancel(job["id"])
        client.wait(job["id"], timeout=60)

    def test_tenant_queue_depth_is_429(self, client):
        # tenant cap: 1 running + 3 queued; the 5th submission trips it.
        jobs = [
            client.submit({"program": "djpeg", "engine": "cache",
                           "heartbeat_every": 5_000,
                           "tenant": "limited"})
            for _ in range(4)
        ]
        with pytest.raises(ServeError) as excinfo:
            client.submit({"program": "dct4x4", "tenant": "limited"})
        assert excinfo.value.status == 429
        for job in jobs:
            client.cancel(job["id"])
        for job in jobs:
            result = client.wait(job["id"], timeout=120)
            assert result["state"] == "cancelled"

    def test_cancel_mid_run_writes_resumable_checkpoint(self, client):
        job = client.submit({"program": "djpeg", "engine": "cache",
                             "heartbeat_every": 5_000,
                             "tenant": "cancel-test"})
        deadline = time.monotonic() + 30
        while (client.status(job["id"])["state"] != "running"
               and time.monotonic() < deadline):
            time.sleep(0.02)
        time.sleep(0.3)
        client.cancel(job["id"])
        result = client.wait(job["id"], timeout=60)
        assert result["state"] == "cancelled"
        assert 0 < result["instructions"] < 1_794_961
        assert result["checkpoint"]
        resumed = client.submit({"program": "djpeg", "engine": "cache",
                                 "resume_from": result["checkpoint"],
                                 "tenant": "cancel-test"})
        final = client.wait(resumed["id"], timeout=120)
        assert final["state"] == "done"
        assert final["instructions"] == 1_794_961
        assert final["exit_code"] == 0

    def test_cancel_queued_job(self, client):
        # One slow running job + one queued behind it (same tenant,
        # running cap 1): cancelling the queued one never dispatches.
        slow = client.submit({"program": "djpeg", "engine": "cache",
                              "heartbeat_every": 5_000,
                              "tenant": "qcancel"})
        queued = client.submit({"program": "dct4x4",
                                "tenant": "qcancel"})
        cancel_doc = client.cancel(queued["id"])
        assert cancel_doc["state"] == "cancelled"
        result = client.wait(queued["id"], timeout=30)
        assert result["state"] == "cancelled"
        assert result.get("checkpoint") is None
        assert result["worker"] is None  # never ran
        client.cancel(slow["id"])
        client.wait(slow["id"], timeout=60)

    def test_jobs_listing_filters_by_tenant(self, client):
        job = client.submit({"program": "dct4x4", "tenant": "lister"})
        client.wait(job["id"], timeout=60)
        mine = client.jobs(tenant="lister")
        assert any(doc["id"] == job["id"] for doc in mine)
        assert all(doc["tenant"] == "lister" for doc in mine)

    def test_metrics_exposition(self, client):
        text = client.metrics_text()
        assert "kahrisma_serve_scheduler_submitted" in text
        assert "kahrisma_serve_jobs_done" in text
        assert "kahrisma_serve_workers 2" in text
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.partition(" ")
                float(value)  # every sample parses as a number

    def test_concurrent_submissions_all_complete(self, client):
        ids = []
        lock = threading.Lock()

        def one(i):
            job = client.submit({"program": "dct4x4",
                                 "tenant": f"burst-{i % 3}"})
            result = client.wait(job["id"], timeout=180)
            with lock:
                ids.append((job["id"], result["state"]))

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        assert len(ids) == 6
        assert all(state == "done" for _id, state in ids)


class TestSubmitCli:
    """``kahrisma submit`` against a live server."""

    def test_submit_roundtrip(self, server, capsys):
        from repro.cli import main

        rc = main(["submit", "dct4x4", "--server", server.base_url,
                   "--model", "aie"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "3 -17149" in captured.out
        assert "instructions: 121000" in captured.out
        assert "cycles:" in captured.out
        assert "submitted job-" in captured.err

    def test_submit_events_stdout_pure(self, server, capsys):
        from repro.cli import main

        rc = main(["submit", "dct4x4", "--server", server.base_url,
                   "--events", "-", "--follow"])
        captured = capsys.readouterr()
        assert rc == 0
        events = validate_stream_text(captured.out)
        assert [e["type"] for e in events][-1] == "run-end"
        assert "\r" not in captured.out
        assert "job:" in captured.err  # summary moved to stderr

    def test_submit_source_file(self, server, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "mini.kc"
        src.write_text("int main() { print_int(41 + 1); return 0; }\n")
        rc = main(["submit", str(src), "--server", server.base_url])
        captured = capsys.readouterr()
        assert rc == 0
        assert "42" in captured.out

    def test_submit_connection_refused(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit, match="cannot reach"):
            main(["submit", "dct4x4",
                  "--server", "http://127.0.0.1:1",
                  "--timeout", "5"])


class TestStraightVsServed:
    def test_served_run_matches_pipeline_run(self, server):
        """The service must not change simulation semantics."""
        client = KahrismaClient(server.base_url)
        job = client.submit({"program": "qsort", "engine": "superblock",
                             "model": "doe"})
        served = client.wait(job["id"], timeout=120)
        built = pipeline.build(load_program("qsort"), isa="risc",
                               filename="qsort.kc")
        from repro.cycles.doe import DoeModel

        local = pipeline.run(
            built, engine="superblock",
            cycle_model=DoeModel(issue_width=built.issue_width),
        )
        assert served["state"] == "done"
        assert served["instructions"] == (
            local.stats.executed_instructions
        )
        assert served["exit_code"] == local.exit_code
        assert served["cycles"] == local.cycles
        assert served["output"] == local.output


class TestSchedulerGuards:
    """Release/requeue bookkeeping must survive hostile call orders."""

    def test_double_release_is_clamped(self):
        s = Scheduler()
        job = make_job()
        s.submit(job)
        assert s.acquire() is job
        s.release(job)
        assert s.running == 0
        # The reaper failing a job can race a late "done" message:
        # the second release must be a counted no-op, not an
        # underflow that skews the fairness pick forever.
        s.release(job)
        assert s.running == 0
        assert s.completed == 1
        assert s.release_underflows == 1
        assert s.metrics()["serve.scheduler.release_underflows"] == 1

    def test_release_without_acquire_is_counted(self):
        s = Scheduler()
        s.release(make_job())
        assert s.running == 0
        assert s.completed == 0
        assert s.release_underflows == 1

    def test_requeue_keeps_slot_and_position(self):
        s = Scheduler()
        first = make_job(priority=5)
        second = make_job(priority=5)
        s.submit(first)
        s.submit(second)
        assert s.acquire() is first
        s.requeue(first)  # dispatch failed: give the slot back
        assert s.running == 0
        assert s.depth == 2
        assert s.metrics()["serve.scheduler.requeued"] == 1
        assert s.acquire() is first  # kept its place in line
        s.release(first)
        assert s.running == 0
        assert s.release_underflows == 0


class TestStaleCancelRace:
    """Cancellation is job-id-aware: a cancel for a finished job must
    never stop whatever the worker is running *now*."""

    def _drain_until(self, pool, kind, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            msg = pool.messages.get(timeout=timeout)
            if msg[0] == kind and msg[2] == job_id:
                return msg
        raise AssertionError(f"no {kind!r} for {job_id!r} within "
                             f"{timeout}s")

    def test_stale_cancel_cannot_stop_the_next_job(self, tmp_path):
        pool = WorkerPool(1, checkpoint_dir=str(tmp_path))
        try:
            worker = pool.worker(0)
            assert pool.messages.get(timeout=30)[0] == "ready"
            worker.dispatch("job-A", JobSpec(program="dct4x4"))
            done = self._drain_until(pool, "done", "job-A")
            assert done[3]["state"] == "done"
            worker.job_id = None
            # job-B is running when the cancel for the long-finished
            # job-A arrives — the historical race window (an event
            # flag would have stopped job-B here).
            worker.dispatch(
                "job-B",
                JobSpec(program="djpeg", heartbeat_every=50_000,
                        max_instructions=400_000),
            )
            self._drain_until(pool, "event", "job-B")
            worker.cancel("job-A")
            done = self._drain_until(pool, "done", "job-B")
            assert done[3]["state"] == "done"
            assert done[3]["instructions"] == 400_000
        finally:
            pool.shutdown()

    def test_named_cancel_stops_the_running_job(self, tmp_path):
        pool = WorkerPool(1, checkpoint_dir=str(tmp_path))
        try:
            worker = pool.worker(0)
            assert pool.messages.get(timeout=30)[0] == "ready"
            worker.dispatch(
                "job-C", JobSpec(program="djpeg", heartbeat_every=5_000)
            )
            self._drain_until(pool, "event", "job-C")
            worker.cancel("job-C")
            done = self._drain_until(pool, "done", "job-C")
            assert done[3]["state"] == "cancelled"
            assert done[3]["checkpoint"]
        finally:
            pool.shutdown()


class TestDeadWorkerReaper:
    """A worker dying mid-job must not leave the job stuck forever."""

    def test_dead_worker_fails_job_releases_slot_respawns(
        self, tmp_path
    ):
        handle = start_in_thread(ServerConfig(
            port=0, workers=1,
            checkpoint_dir=str(tmp_path / "ckpt"),
            plan_cache_dir=str(tmp_path / "plans"),
        ))
        try:
            client = KahrismaClient(handle.base_url)
            job = client.submit({"program": "djpeg", "engine": "cache",
                                 "heartbeat_every": 5_000})
            deadline = time.monotonic() + 30
            while (client.status(job["id"])["state"] != "running"
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            status = client.status(job["id"])
            assert status["state"] == "running"
            handle.server.pool.worker(
                status["worker"]
            ).process.terminate()
            result = client.wait(job["id"], timeout=30)
            assert result["state"] == "failed"
            assert "died" in result["error"]
            assert "exit code" in result["error"]
            # Slot released and worker respawned: the next job on the
            # only worker runs to completion.
            follow_up = client.submit({"program": "dct4x4"})
            final = client.wait(follow_up["id"], timeout=60)
            assert final["state"] == "done"
            assert handle.server.workers_died >= 1
            assert handle.server.workers_respawned >= 1
            assert handle.server.scheduler.running == 0
            text = client.metrics_text()
            assert "kahrisma_serve_workers_died 1" in text
        finally:
            handle.stop()


class TestHttpHardening:
    """Malformed framing must be a 4xx, never a 500 — and counted."""

    def _raw(self, server, payload: bytes) -> str:
        host, port = server.server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(payload)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        return data.decode("latin-1")

    def test_malformed_content_length_is_400(self, server):
        resp = self._raw(
            server,
            b"POST /jobs HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        )
        assert resp.startswith("HTTP/1.1 400 ")
        assert "Content-Length" in resp

    def test_negative_content_length_is_400(self, server):
        resp = self._raw(
            server,
            b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        )
        assert resp.startswith("HTTP/1.1 400 ")

    def test_too_many_header_fields_is_431(self, server):
        headers = b"".join(
            b"X-Filler-%d: v\r\n" % i for i in range(150)
        )
        resp = self._raw(
            server, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        )
        assert resp.startswith("HTTP/1.1 431 ")

    def test_oversized_header_section_is_431(self, server):
        big = b"X-Big: " + b"a" * 40_000 + b"\r\n"
        resp = self._raw(
            server, b"GET /healthz HTTP/1.1\r\n" + big + b"\r\n"
        )
        assert resp.startswith("HTTP/1.1 431 ")

    def test_rejects_counted_in_metrics(self, server):
        self._raw(
            server,
            b"POST /jobs HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        )
        text = KahrismaClient(server.base_url).metrics_text()
        counts = {
            line.split()[0]: float(line.split()[1])
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        assert counts["kahrisma_serve_http_bad_requests"] >= 1
        assert counts["kahrisma_serve_http_header_rejects"] >= 2


class TestCancelSliceFallback:
    """``cancel=`` polling must work with ``events=None``: the
    interpreter falls back to CANCEL_SLICE-instruction budget slices,
    bounding cancellation latency and still writing a resumable
    checkpoint."""

    @pytest.mark.parametrize("engine", ["superblock", "aot"])
    def test_cancel_bounded_and_resumable(self, engine, tmp_path):
        built = pipeline.build_benchmark("djpeg")

        def plans():
            return pipeline.open_plan_cache(
                built, directory=str(tmp_path / "plans")
            )

        # The straight run leaves the aot module in the plan cache, so
        # no cold compile's replay polls the cancel below.
        straight = pipeline.run(built, engine=engine, plan_cache=plans())
        # The poll turns true after the run starts: cancellation must
        # land at the first CANCEL_SLICE boundary, not run to halt.
        polls = iter([False])
        cancelled = pipeline.run(
            built, engine=engine, events=None, plan_cache=plans(),
            cancel=lambda: next(polls, True),
            cancel_checkpoint_dir=str(tmp_path / engine),
        )
        assert cancelled.cancelled
        executed = cancelled.stats.executed_instructions
        assert 0 < executed <= CANCEL_SLICE
        assert executed < straight.stats.executed_instructions
        assert cancelled.cancel_checkpoint
        resumed = pipeline.run(
            built, engine=engine, plan_cache=plans(),
            resume_from=cancelled.cancel_checkpoint,
        )
        assert not resumed.cancelled
        assert_equivalent(straight, resumed)
