"""Warm worker processes executing jobs for ``kahrisma serve``.

Each worker is a long-lived process (fork start method when the
platform has one) that keeps two caches hot across jobs:

* a **build cache** — compiled/linked :class:`BuildResult` objects
  keyed by program+ISA configuration, so repeat submissions of the
  same benchmark skip the compiler entirely; and
* the **persistent plan cache** (:mod:`repro.sim.plancache`), opened
  per build inside the worker, so superblock/AOT translations survive
  both across jobs *and* across workers — the whole pool runs warm
  after the first job per program (satellite: the cache file is
  flock-protected, so concurrent worker merges are safe).

Message protocol (worker → server, one shared queue)::

    ("ready", worker_id, None, None)            worker up, accepting jobs
    ("event", worker_id, job_id, event_dict)    one relayed live event
    ("done",  worker_id, job_id, result_dict)   job reached a terminal state

Dispatch (server → worker) goes over a per-worker pipe: a job document
``{"id": ..., "spec": {...}}`` or ``None`` to shut down.  Cancellation
is **job-id-aware**: the server writes the id of the job to cancel
into a small shared-memory cell, and the worker's budget-slice poll
compares it against the id of the job it is *currently* executing.  A
stale cancel (sent for job N after N finished, arriving while job M
runs) can therefore never stop the wrong job — there is no event to
clear and no window in which clearing races dispatch.  The running
job stops at the next slice (at most ``heartbeat_every`` instructions
later) and reports ``state="cancelled"`` with a resumable checkpoint.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Dict, List, Optional, Tuple

from .protocol import JobSpec

#: Guest stdout beyond this many characters is truncated in the result
#: document (the head is kept; a marker records the loss).
OUTPUT_CAP = 65_536

#: Engines with a block-granularity seam where the flight recorder is
#: cheap; interactive engines pay per instruction, so serve skips it.
_FLIGHT_ENGINES = ("superblock", "aot")


def _truncate_output(text: str) -> Tuple[str, bool]:
    if len(text) <= OUTPUT_CAP:
        return text, False
    return text[:OUTPUT_CAP], True


def _build_key(spec: JobSpec) -> tuple:
    isa_map = (
        tuple(sorted(spec.isa_map.items())) if spec.isa_map else None
    )
    if spec.program is not None:
        return ("program", spec.program, spec.isa, isa_map)
    return ("source", hash(spec.source), spec.isa, isa_map)


def execute_job(
    job_id: str,
    spec: JobSpec,
    *,
    cancel=None,
    emit=None,
    build_cache: Optional[Dict[tuple, object]] = None,
    checkpoint_dir: Optional[str] = None,
    plan_cache_dir: Optional[str] = None,
    use_plan_cache: bool = True,
) -> Dict[str, object]:
    """Run one job to a terminal state; never raises.

    ``cancel`` is the zero-argument poll handed to
    :func:`repro.framework.pipeline.run`; ``emit`` receives every live
    event dict as it happens (the relay seam — the server bridges it
    onto the message queue).  Returns the terminal result document
    (``state`` is ``done``/``cancelled``/``failed``).

    Usable without the process pool: tests and ``tools/load_bench.py``
    call it in-process for deterministic single-threaded checks.
    """
    from ..framework import pipeline
    from ..programs import load_program
    from ..sim.errors import SimulationError
    from ..telemetry.stream import EventStream

    flight = None
    try:
        key = _build_key(spec)
        built = build_cache.get(key) if build_cache is not None else None
        if built is None:
            source = (
                load_program(spec.program)
                if spec.program is not None else spec.source
            )
            built = pipeline.build(
                source,
                isa=spec.isa,
                isa_map=spec.isa_map,
                filename=(
                    f"{spec.program}.kc" if spec.program else "<submit>"
                ),
            )
            if build_cache is not None:
                build_cache[key] = built
        plan_cache = None
        if use_plan_cache and spec.engine in _FLIGHT_ENGINES:
            plan_cache = pipeline.open_plan_cache(
                built, directory=plan_cache_dir
            )
        config = spec.run_config()
        model = config.make_model(built.issue_width)
        events = EventStream(heartbeat_every=spec.heartbeat_every)
        if emit is not None:
            events.subscribe(emit)
        if spec.engine in _FLIGHT_ENGINES:
            from ..telemetry.flight import FlightRecorder

            flight = FlightRecorder()
        result = pipeline.run(
            built,
            cycle_model=model,
            input_data=spec.input_data.encode("utf-8"),
            resume_from=spec.resume_from,
            workload=spec.workload,
            plan_cache=plan_cache,
            events=events,
            flight=flight,
            collect_metrics=True,
            cancel=cancel,
            cancel_checkpoint_dir=(
                checkpoint_dir if spec.checkpoint_on_cancel else None
            ),
            **config.run_kwargs(),
        )
        if plan_cache is not None:
            plan_cache.save()
        output, truncated = _truncate_output(result.output)
        doc: Dict[str, object] = {
            "state": "cancelled" if result.cancelled else "done",
            "output": output,
            "output_truncated": truncated,
            "instructions": result.stats.executed_instructions,
            "exit_code": result.exit_code,
            "cycles": result.cycles,
            "mips": round(result.stats.mips, 3),
            "elapsed_seconds": round(result.stats.elapsed_seconds, 6),
            "halted": result.program.state.halted,
            "report": result.telemetry,
        }
        if result.sampling is not None:
            doc["cycles_estimated"] = result.sampling.cycles_estimated
            doc["cycles_ci95"] = result.sampling.cycles_ci95
            doc["sampling"] = result.sampling.block()
        if result.cancel_checkpoint is not None:
            doc["checkpoint"] = result.cancel_checkpoint
        return doc
    except SimulationError as exc:
        # Guest trap: the interpreter already attached the flight
        # snapshot; render the recorder trail so the failure document
        # carries crash context (mirrors `kahrisma run` on a trap).
        doc = {"state": "failed", "error": str(exc)}
        if flight is not None:
            try:
                doc["flight"] = flight.format(last=16)
            except Exception:
                pass
        return doc
    except Exception as exc:  # build errors, bad resume paths, ...
        return {
            "state": "failed",
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(limit=8),
        }


#: Size of the shared cancel cell: one length byte plus the UTF-8 job
#: id (:func:`repro.serve.protocol.job_id_new` ids are ~16 chars).
CANCEL_CELL_SIZE = 64


def _cancel_cell_read(cell) -> str:
    with cell.get_lock():
        n = cell[0]
        return bytes(cell[1:1 + n]).decode("utf-8", "replace")


def _cancel_cell_write(cell, job_id: str) -> None:
    data = job_id.encode("utf-8")[:CANCEL_CELL_SIZE - 1]
    with cell.get_lock():
        cell[0] = len(data)
        cell[1:1 + len(data)] = data


def _worker_main(worker_id, conn, msgq, cancel_cell, config) -> None:
    """Process entry point: serve jobs from the dispatch pipe forever."""
    build_cache: Dict[tuple, object] = {}
    msgq.put(("ready", worker_id, None, None))
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            break
        if item is None:
            break
        job_id = item["id"]
        spec = JobSpec(**item["spec"])

        def emit(event, _jid=job_id):
            msgq.put(("event", worker_id, _jid, event))

        # Only a cancel naming *this* job counts; requests for any
        # other (earlier, finished) job are inert by construction.
        def cancelled(_jid=job_id):
            return _cancel_cell_read(cancel_cell) == _jid

        result = execute_job(
            job_id,
            spec,
            cancel=cancelled,
            emit=emit,
            build_cache=build_cache,
            checkpoint_dir=config.get("checkpoint_dir"),
            plan_cache_dir=config.get("plan_cache_dir"),
            use_plan_cache=config.get("use_plan_cache", True),
        )
        msgq.put(("done", worker_id, job_id, result))
    conn.close()


class Worker:
    """Server-side handle for one worker process."""

    def __init__(self, worker_id: int, ctx, msgq, config: dict) -> None:
        self.id = worker_id
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.cancel_cell = ctx.Array("B", CANCEL_CELL_SIZE)
        #: Job id currently running on this worker (None = idle).
        self.job_id: Optional[str] = None
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, child_conn, msgq, self.cancel_cell, config),
            daemon=True,
            name=f"kahrisma-worker-{worker_id}",
        )
        self.process.start()
        child_conn.close()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def idle(self) -> bool:
        return self.job_id is None and self.process.is_alive()

    def dispatch(self, job_id: str, spec: JobSpec) -> None:
        self.job_id = job_id
        self.conn.send({"id": job_id, "spec": spec.to_doc()})

    def cancel(self, job_id: Optional[str] = None) -> None:
        """Ask ``job_id`` (default: the dispatched job) to stop at its
        next budget slice.  Naming the job makes stale requests inert:
        if the worker has moved on to another job, the id comparison
        in its poll fails and nothing is cancelled."""
        target = job_id if job_id is not None else self.job_id
        if target is None:
            return
        _cancel_cell_write(self.cancel_cell, target)

    def stop(self) -> None:
        try:
            self.conn.send(None)
        except (OSError, BrokenPipeError):
            pass

    def join(self, timeout: float = 5.0) -> None:
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)


class WorkerPool:
    """A fixed pool of warm worker processes plus their message queue.

    The owner drains :attr:`messages` (``("ready"|"event"|"done", ...)``
    tuples) — the pool itself never blocks on results, which is what
    lets the asyncio server bridge the queue with one pump thread.
    """

    def __init__(
        self,
        workers: int,
        *,
        checkpoint_dir: Optional[str] = None,
        plan_cache_dir: Optional[str] = None,
        use_plan_cache: bool = True,
    ) -> None:
        methods = multiprocessing.get_all_start_methods()
        self.ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self.messages = self.ctx.Queue()
        self._config = {
            "checkpoint_dir": checkpoint_dir,
            "plan_cache_dir": plan_cache_dir,
            "use_plan_cache": use_plan_cache,
        }
        self.workers = [
            Worker(i, self.ctx, self.messages, self._config)
            for i in range(max(1, workers))
        ]

    def __len__(self) -> int:
        return len(self.workers)

    def idle_worker(self) -> Optional[Worker]:
        for worker in self.workers:
            if worker.idle:
                return worker
        return None

    def worker(self, worker_id: int) -> Worker:
        return self.workers[worker_id]

    def dead_workers(self) -> List["Worker"]:
        """Workers whose process exited (crash, OOM-kill, terminate)."""
        return [w for w in self.workers if not w.process.is_alive()]

    def respawn(self, worker_id: int) -> Worker:
        """Replace a dead worker with a fresh process under the same id.

        The old handle's pipe is closed (drops any queued dispatch);
        the replacement announces itself with the usual ``ready``
        message once it is up.
        """
        old = self.workers[worker_id]
        try:
            old.conn.close()
        except OSError:
            pass
        if old.process.is_alive():
            old.process.terminate()
        old.process.join(1.0)
        replacement = Worker(
            worker_id, self.ctx, self.messages, self._config
        )
        self.workers[worker_id] = replacement
        return replacement

    def shutdown(self) -> None:
        for worker in self.workers:
            worker.stop()
        for worker in self.workers:
            worker.join()
        self.messages.close()
        self.messages.join_thread()
