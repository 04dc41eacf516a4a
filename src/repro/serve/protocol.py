"""Job specs, lifecycle states and wire documents for ``kahrisma serve``.

Everything here is plain data: a :class:`JobSpec` is validated once at
the HTTP boundary and then shipped to a worker process as a dict, so
all fields must be picklable and JSON-serializable.  The server and
the client agree on these documents; nothing else crosses the wire.

Job lifecycle::

    queued -> running -> done        (ran to halt or budget)
                      -> cancelled   (cancel hook fired mid-run)
                      -> failed      (guest trap / build error)
    queued -> cancelled              (cancelled before dispatch)

``done``/``cancelled``/``failed`` are terminal; a cancelled job may
carry a resumable checkpoint path (``checkpoint_on_cancel``), which a
follow-up job can pass as ``resume_from``.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from ..framework.config import RunConfig
from ..programs import PROGRAMS

#: ISA names accepted for builds.
ISAS = ("risc", "vliw2", "vliw4", "vliw6", "vliw8")

#: Every state a job can be in, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "cancelled", "failed")
#: States a job never leaves.
TERMINAL_STATES = ("done", "cancelled", "failed")

_id_counter = itertools.count(1)
_id_lock = threading.Lock()


def job_id_new() -> str:
    """Process-unique, monotonic, log-friendly job id."""
    with _id_lock:
        n = next(_id_counter)
    return f"job-{os.getpid():05d}-{n:06d}"


class SpecError(ValueError):
    """A submitted job document failed validation (HTTP 400)."""


@dataclass
class JobSpec:
    """One run request, validated at the HTTP boundary.

    ``program`` names a bundled benchmark (``kahrisma programs``);
    ``source`` ships KC source text instead.  Exactly one of the two
    must be set.  Engine/model/predictor/sampling knobs form a
    :class:`~repro.framework.config.RunConfig` and follow exactly the
    rules of ``kahrisma run``; ``tenant`` and ``priority`` (lower =
    sooner) feed the scheduler; ``heartbeat_every`` sets both the
    live-event cadence and the cancellation latency (the run is sliced
    at this many instructions).
    """

    program: Optional[str] = None
    source: Optional[str] = None
    isa: str = "risc"
    isa_map: Optional[Dict[str, str]] = None
    engine: str = "superblock"
    model: str = "none"
    branch_predictor: str = "perfect"
    branch_penalty: int = 3
    max_instructions: int = 100_000_000
    input_data: str = ""
    tenant: str = "default"
    priority: int = 10
    heartbeat_every: int = 250_000
    checkpoint_on_cancel: bool = True
    resume_from: Optional[str] = None
    fuse_cycles: bool = True
    label: Optional[str] = None
    #: Statistical-sampling spec ``"U:k[:W[:seed]]"`` (see
    #: ``docs/performance.md``); requires ``model`` aie/doe.  The
    #: result document then carries ``cycles_estimated``/
    #: ``cycles_ci95`` and a ``sampling`` block.
    sampling: Optional[str] = None

    def validate(self) -> "JobSpec":
        """Raise :class:`SpecError` on any malformed field; return self."""
        if bool(self.program) == bool(self.source):
            raise SpecError("exactly one of 'program'/'source' is required")
        if self.program is not None and self.program not in PROGRAMS:
            known = ", ".join(sorted(PROGRAMS))
            raise SpecError(f"unknown program {self.program!r} "
                            f"(bundled: {known})")
        if self.isa not in ISAS:
            raise SpecError(f"unknown isa {self.isa!r}")
        if self.isa_map is not None and not (
            isinstance(self.isa_map, dict)
            and all(
                isinstance(k, str) and v in ISAS
                for k, v in self.isa_map.items()
            )
        ):
            raise SpecError("isa_map must map function names to ISA names")
        if not isinstance(self.tenant, str) or not self.tenant:
            raise SpecError("tenant must be a non-empty string")
        for name in ("priority", "heartbeat_every"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise SpecError(f"{name} must be an integer")
        if self.heartbeat_every <= 0:
            raise SpecError("heartbeat_every must be positive")
        if not isinstance(self.input_data, str):
            raise SpecError("input_data must be a string")
        if self.resume_from is not None and not isinstance(
            self.resume_from, str
        ):
            raise SpecError("resume_from must be a checkpoint path")
        if not isinstance(self.checkpoint_on_cancel, bool):
            raise SpecError("checkpoint_on_cancel must be a boolean")
        if self.sampling is not None and not isinstance(self.sampling, str):
            raise SpecError("sampling must be a 'U:k[:W[:seed]]' string")
        try:
            self.run_config().validate()
        except ValueError as exc:
            raise SpecError(str(exc))
        return self

    def run_config(self) -> RunConfig:
        """The run settings of this job."""
        return RunConfig(
            engine=self.engine,
            model=self.model,
            branch_predictor=self.branch_predictor,
            branch_penalty=self.branch_penalty,
            fuse_cycles=self.fuse_cycles,
            max_instructions=self.max_instructions,
            sampling=self.sampling,
        )

    @classmethod
    def from_doc(cls, doc: object) -> "JobSpec":
        """Build and validate a spec from a decoded JSON document."""
        if not isinstance(doc, dict):
            raise SpecError("job document must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = sorted(set(doc) - known)
        if unknown:
            raise SpecError(f"unknown job fields: {', '.join(unknown)}")
        try:
            spec = cls(**doc)
        except TypeError as exc:
            raise SpecError(str(exc))
        return spec.validate()

    def to_doc(self) -> Dict[str, object]:
        return asdict(self)

    @property
    def workload(self) -> str:
        """Human label for event streams and reports."""
        if self.label:
            return self.label
        return self.program if self.program else "<source>"


@dataclass
class Job:
    """Server-side record of one submitted job (not wire-visible)."""

    id: str
    spec: JobSpec
    state: str = "queued"
    #: Scheduler sequence number (FIFO tiebreak).
    seq: int = 0
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Worker index the job ran on (None while queued).
    worker: Optional[int] = None
    #: Relayed live events (bounded; oldest dropped beyond the cap).
    events: list = field(default_factory=list)
    #: Events dropped from the buffer (the live relay still saw them).
    events_dropped: int = 0
    #: Worker result payload (state/output/report/...) once terminal.
    result: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    #: Resumable checkpoint written on cancellation.
    checkpoint: Optional[str] = None
    cancel_requested: bool = False
    #: Guard against double-releasing the scheduler slot (set by
    #: :meth:`repro.serve.scheduler.Scheduler.release`).
    released: bool = False

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_doc(self) -> Dict[str, object]:
        """The ``GET /jobs/<id>`` document."""
        doc: Dict[str, object] = {
            "id": self.id,
            "state": self.state,
            "tenant": self.spec.tenant,
            "priority": self.spec.priority,
            "workload": self.spec.workload,
            "engine": self.spec.engine,
            "model": self.spec.model,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "worker": self.worker,
            "events_buffered": len(self.events),
            "events_dropped": self.events_dropped,
            "cancel_requested": self.cancel_requested,
        }
        if self.error is not None:
            doc["error"] = self.error
        if self.checkpoint is not None:
            doc["checkpoint"] = self.checkpoint
        if self.result is not None:
            for key in ("instructions", "exit_code", "cycles", "mips",
                        "elapsed_seconds", "cycles_estimated",
                        "cycles_ci95", "sampling"):
                if key in self.result:
                    doc[key] = self.result[key]
        return doc

    def result_doc(self) -> Dict[str, object]:
        """The ``GET /jobs/<id>/result`` document (terminal jobs)."""
        doc = self.status_doc()
        if self.result is not None:
            doc["output"] = self.result.get("output")
            doc["report"] = self.result.get("report")
            if "flight" in self.result:
                doc["flight"] = self.result["flight"]
        return doc
