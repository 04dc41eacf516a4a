"""``serve``: seeded open-loop Poisson arrivals against ``kahrisma serve``.

The benchmark starts ``kahrisma serve`` with one worker as a child
process and talks to it over HTTP through ``repro.serve.client``, from
two threads: one submits each job when it is due, one waits for the
results in submission order.  The job mix is fixed by two half decks
of 28 jobs: in each, every bundled program appears with a ``risc`` and
a pinned-``isa_map`` functional job, one exact DOE job and one sampled
DOE job, the two detailed jobs trading builds between the halves.
``--seed`` shuffles the order, picks one of three tenants per job and
draws the exponential inter-arrival gaps, which are scaled so each
rung offers exactly its nominal rate in jobs per reference second
(see ``common.HostClock``: each gap is stretched by the host's
slowness measured just before, and every time is reported in
reference seconds).  ``max_instructions`` is small,
so per-job overhead is a visible share of each job.

The first rung runs whole decks at the nominal rate and gives the
latency metrics; then a bisection over the rate, one deck per rung,
finds the highest rate that meets the latency limit without a growing
backlog.
A job fails when it is not ``done`` or its result differs from the
in-process golden.  The ``isa_map`` DOE jobs whose callee is wider
than the entry ISA hit the entry-ISA-width defect of the serve worker
(the model is sized from the entry ISA); they are counted as failed,
and the result records their share and error text.
"""

from __future__ import annotations

import math
import os
import queue
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

from common import (
    PINNED_ISA_MAPS,
    PROGRAMS,
    REFERENCE_KERNEL_S,
    SRC,
    Checker,
    HostClock,
    Tracer,
    digest,
    peak_rss_mb,
    percentile,
    quantile,
    tail,
    work_dir,
)

MAX_INSTRUCTIONS = 10_000
#: Sampling schedule of the sampled jobs: the suite's per-program
#: schedules measure no interval within ``MAX_INSTRUCTIONS``.
SAMPLING_SPEC = "2000:4:500"
TENANTS = ("t0", "t1", "t2")
MODELS = (("none", None), ("doe", None), ("doe", SAMPLING_SPEC))
BUILDS = ("isa", "isa_map")
DECK = 56
#: Jobs per second of the latency rung: about a fifth of what the worker
#: serves.  At twice that, jobs queued behind one another often enough
#: that the tail latency of ten runs spread 24% (without the queue wait
#: it spread 10%).
NOMINAL_RATE = 3.0
#: The max-rate search: a geometric bisection, one deck per rung,
#: between one and two times the capacity the nominal rung measures
#: (jobs over the seconds they spent between submission and result;
#: client, server and worker share one CPU, so that is the time the CPU
#: spends per job).  That estimate is 75-85% of the throughput a
#: saturated worker reaches (13-20 reference jobs/s of this deck on a
#: 2-vCPU x86-64 VM), so the search starts above the usual knee and
#: three bisections over a twofold range end within 9% of the highest
#: passing rate.
BISECTIONS = 3
#: A rung meets the limit when the ``LIMIT_PERCENTILE`` latency of its
#: jobs (failed jobs count as missing the limit) is at most
#: ``LATENCY_LIMIT_S``, and its backlog does not grow by more than
#: ``BACKLOG_GROWTH`` jobs between its first and last third.  Within one
#: deck, bursts of Poisson arrivals raise the mean number of jobs in
#: flight by 3-4 at 80% load about one rung in three (which sent a
#: threshold of 3 down to 10 jobs/s in some runs and up to 19 in
#: others); an overloaded rung grows it by 8-10.
LIMIT_PERCENTILE = 75
LATENCY_LIMIT_S = 1.0
BACKLOG_GROWTH = 6.0


def job_type(program: str, build: str, model: str,
             sampling=None) -> dict:
    return {"program": program, "build": build, "model": model,
            "sampling": sampling}


def job_types() -> list:
    return [job_type(program, build, model, spec)
            for program in PROGRAMS
            for build in BUILDS
            for model, spec in MODELS]


def type_key(jt: dict) -> str:
    kind = "sampled" if jt["sampling"] else jt["model"]
    return f"{jt['program']}/{jt['build']}/{kind}"


def half_deck(half: int) -> list:
    doe_build, sampled_build = BUILDS if half == 0 else BUILDS[::-1]
    return [
        jt for program in PROGRAMS for jt in (
            job_type(program, "isa", "none"),
            job_type(program, "isa_map", "none"),
            job_type(program, doe_build, "doe"),
            job_type(program, sampled_build, "doe", SAMPLING_SPEC),
        )
    ]


def dealt(cards: list, rng: random.Random) -> list:
    """``(job type, tenant)`` pairs in a seeded order."""
    cards = list(cards)
    rng.shuffle(cards)
    return [(jt, TENANTS[rng.randrange(len(TENANTS))]) for jt in cards]


def job_spec(jt: dict, tenant: str) -> dict:
    spec = {"program": jt["program"], "model": jt["model"],
            "max_instructions": MAX_INSTRUCTIONS, "tenant": tenant}
    if jt["build"] == "isa_map":
        spec["isa_map"] = PINNED_ISA_MAPS[jt["program"]]
    if jt["sampling"]:
        spec["sampling"] = jt["sampling"]
    return spec


def hits_width_defect(jt: dict, builds: dict) -> bool:
    """DOE sized from the entry ISA is narrower than the build needs."""
    b = builds[f"{jt['program']}/{jt['build']}"]
    return jt["model"] == "doe" and b["widest"] > b["entry_width"]


#: Deterministic counters of the job's telemetry report that the golden
#: check compares (the DOE jobs add the cache counters).  Without them a
#: functional job that computes wrongly would pass: within
#: ``MAX_INSTRUCTIONS`` no program prints, so every output is empty.
#: (The worker's ``halted`` flag would help too, but the server's result
#: document does not relay it.)
REPORT_COUNTERS = (
    "sim.isa_switches",
    "sim.executed_ops",
    "sim.memory_instructions",
    "mem.cache.l1.hits",
    "mem.cache.l1.misses",
    "mem.cache.l2.hits",
    "mem.cache.l2.misses",
)


def observables(*, output, exit_code, instructions, cycles,
                cycles_estimated, report) -> dict:
    """What the golden check compares, from a job document or an
    in-process run alike."""
    metrics = (report or {}).get("metrics") or {}
    return {
        "output": digest(output or ""),
        "exit_code": exit_code,
        "instructions": instructions,
        "cycles": cycles,
        "cycles_estimated": cycles_estimated,
        "counters": {name: metrics[name] for name in REPORT_COUNTERS
                     if name in metrics},
    }


def record_golden() -> dict:
    """In-process results of every job type, DOE sized to the widest
    ISA of the build, and the RTL reference cycles of every build."""
    from repro.cycles.doe import DoeModel
    from repro.framework.pipeline import build_benchmark, run
    from repro.rtl.pipeline import RtlPipeline
    from suite_workload import widest_issue

    builds, types = {}, {}
    for program in PROGRAMS:
        for build in BUILDS:
            isa_map = PINNED_ISA_MAPS[program] if build == "isa_map" else None
            built = build_benchmark(program, isa_map=isa_map)
            widest = widest_issue(built)
            rtl = RtlPipeline(widest)
            run(built, cycle_model=rtl, max_instructions=MAX_INSTRUCTIONS)
            builds[f"{program}/{build}"] = {
                "entry_width": built.issue_width, "widest": widest,
                "rtl_cycles": rtl.cycles,
            }
            for model, spec in MODELS:
                doe = DoeModel(issue_width=widest) if model == "doe" else None
                result = run(built, engine="superblock", cycle_model=doe,
                             max_instructions=MAX_INSTRUCTIONS,
                             sampling=spec, collect_metrics=True)
                types[type_key(job_type(program, build, model, spec))] = (
                    observables(
                        output=result.output,
                        exit_code=result.exit_code,
                        instructions=result.stats.executed_instructions,
                        cycles=result.cycles if spec is None else None,
                        cycles_estimated=(result.sampling.cycles_estimated
                                          if spec else None),
                        report=result.telemetry,
                    ))
    return {"builds": builds, "types": types}


class Server:
    """``kahrisma serve`` as a child process, stopped on :meth:`stop`.

    Server and worker inherit the benchmark's CPU, so client, server
    and worker share one CPU.
    """

    def __init__(self, tmp: str) -> None:
        self.log_path = os.path.join(tmp, "serve.log")
        env = dict(os.environ, PYTHONPATH=SRC)
        self.log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host",
             "127.0.0.1", "--port", "0", "--workers", "1",
             "--checkpoint-dir", os.path.join(tmp, "checkpoints"),
             "--plan-cache-dir", os.path.join(tmp, "plans")],
            stdout=subprocess.DEVNULL, stderr=self.log, env=env,
            # A shell starts background jobs with SIGINT ignored, and the
            # server would inherit that and never see the interrupt
            # :meth:`stop` sends it.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        self.url = self._wait_ready()

    def _wait_ready(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path, "r", encoding="utf-8") as fh:
                match = re.search(r"(http://[\d.]+:\d+)", fh.read())
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(f"kahrisma serve did not start; see "
                           f"{self.log_path}")

    def processes(self) -> list:
        """Pids of the server and every process below it."""
        found, pending = [], [self.proc.pid]
        while pending:
            pid = pending.pop()
            found.append(pid)
            try:
                for tid in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{tid}/children",
                              encoding="utf-8") as fh:
                        pending.extend(int(p) for p in fh.read().split())
            except OSError:
                continue
        return found

    def tree_peak_rss_mb(self) -> float:
        """Sum of peak RSS over the server and its worker processes."""
        total = 0.0
        for pid in self.processes():
            try:
                with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                continue
        return total

    def stop(self) -> None:
        """Interrupt the server (it stops its workers); kill whatever
        is left after 30 s and wait until every process has ended."""
        if self.proc.poll() is None:
            children = self.processes()[1:]
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
            for pid in children:
                if not wait_exit(pid, 30):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                    wait_exit(pid, 10)
        self.log.close()


def wait_exit(pid: int, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while running(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def running(pid: int) -> bool:
    """True until ``pid`` has exited (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def run_rung(client, clock: HostClock, rate: float, jobs: list,
             rng: random.Random) -> list:
    """Submit ``jobs`` (``(job type, tenant)``) open-loop at ``rate``
    jobs per reference second.

    Each gap is stretched by the host's slowness last sampled, so on a
    slow host the jobs arrive as much more slowly as they are served.
    """
    from repro.serve.client import ServeError

    gaps = [rng.expovariate(1.0) for _ in jobs[1:]]
    scale = (len(jobs) - 1) / rate / sum(gaps) if gaps else 0.0
    gaps.append(0.0)
    records = [{"type": jt, "tenant": tenant} for jt, tenant in jobs]
    handoff: queue.Queue = queue.Queue()

    def generate():
        due = time.time() + 0.05
        for rec, gap in zip(records, gaps):
            rec["due"] = due
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            rec["sent"] = time.time()
            try:
                rec["id"] = client.submit(
                    job_spec(rec["type"], rec["tenant"]))["id"]
            except ServeError as exc:
                rec["error"] = f"submit refused: {exc}"
            rec["submitted"] = time.time()
            handoff.put(rec)
            due += gap * scale * clock.latest_s() / REFERENCE_KERNEL_S

    def collect():
        for _ in records:
            rec = handoff.get()
            if "id" in rec:
                try:
                    rec["doc"] = client.wait(rec["id"], timeout=120.0)
                except ServeError as exc:
                    rec["error"] = f"wait failed: {exc}"
            rec["received"] = time.time()

    threads = [threading.Thread(target=generate, daemon=True),
               threading.Thread(target=collect, daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        if thread.is_alive():
            raise RuntimeError("serve rung did not finish within 300s")
    return records


def judge(records: list, golden: dict, checker: Checker) -> None:
    """Check every job against the golden; sets ``rec['ok']`` and, for
    the width-defect failures, ``rec['defect']``."""
    builds = golden["builds"]
    for rec in records:
        jt = rec["type"]
        key = type_key(jt)
        doc = rec.get("doc") or {}
        state = doc.get("state")
        rec["ok"] = False
        if state != "done":
            why = rec.get("error") or f"state {state}: {doc.get('error')}"
            expected = (hits_width_defect(jt, builds)
                        and "IndexError" in why)
            checker.fail(key, why, expected=expected)
            if expected:
                rec["defect"] = why
            continue
        got = observables(
            output=doc.get("output"),
            exit_code=doc.get("exit_code"),
            instructions=doc.get("instructions"),
            cycles=doc.get("cycles") if not jt["sampling"] else None,
            cycles_estimated=doc.get("cycles_estimated"),
            report=doc.get("report"),
        )
        rec["ok"] = checker.check(key, golden["types"][key], got)


def reference_times(rec: dict, clock: HostClock) -> None:
    """``rec['ref']``: the job's intervals in reference seconds."""
    marks = {"due": rec["due"], "sent": rec.get("sent"),
             "submitted": rec.get("submitted"),
             "received": rec["received"]}
    doc = rec.get("doc") or {}
    if doc.get("started_at") is not None:
        marks.update(submitted_at=doc["submitted_at"],
                     started_at=doc["started_at"],
                     finished_at=doc["finished_at"],
                     sim_end=doc["started_at"]
                     + (doc.get("elapsed_seconds") or 0.0))
    rec["ref"] = {
        name: clock.seconds(marks[a], marks[b])
        for name, a, b in (
            ("latency", "due", "received"),
            ("turnaround", "sent", "received"),
            ("lag", "due", "sent"),
            ("submit", "sent", "submitted"),
            ("queue_wait", "submitted_at", "started_at"),
            ("worker_run", "started_at", "finished_at"),
            ("sim", "started_at", "sim_end"),
            ("relay", "finished_at", "received"),
        )
        if marks.get(a) is not None and marks.get(b) is not None
    }


def latency(rec: dict) -> float:
    return rec["ref"]["latency"] if rec["ok"] else float("inf")


def capacity(records: list) -> float:
    """Jobs per reference second the shared CPU can serve, from a rung
    below saturation: jobs over their seconds from submission to
    result."""
    return len(records) / sum(r["ref"]["turnaround"] for r in records)


def rung_summary(rate: float, records: list, clock: HostClock) -> dict:
    limit_s = percentile([latency(r) for r in records], LIMIT_PERCENTILE)
    backlog = [
        sum(1 for other in records[:i] if other["received"] > rec["sent"])
        for i, rec in enumerate(records)
    ]
    third = max(1, len(backlog) // 3)
    growth = (sum(backlog[-third:]) - sum(backlog[:third])) / third
    done = [r for r in records if r["ok"]]
    span = clock.seconds(records[0]["due"],
                         max(r["received"] for r in records))
    return {
        "rate": rate,
        "jobs": len(records),
        "done": len(done),
        "throughput": len(done) / span,
        "limit_percentile_s": limit_s,
        "backlog_growth": growth,
        "meets_limit": limit_s <= LATENCY_LIMIT_S
        and growth <= BACKLOG_GROWTH,
        "queue_wait_mean_s": sum(
            r["ref"]["queue_wait"] for r in done) / max(1, len(done)),
    }


def job_spans(tracer: Tracer, rec: dict) -> None:
    if not tracer.enabled or "doc" not in rec:
        return
    doc = rec["doc"]
    trace = rec.get("id")
    root = tracer.add("serve.job", rec["due"], rec["received"], trace=trace)
    tracer.add("serve.generator_lag", rec["due"], rec["sent"], parent=root,
               trace=trace)
    tracer.add("serve.submit", rec["sent"], rec["submitted"], parent=root,
               trace=trace)
    if doc.get("started_at") is None:
        return
    tracer.add("serve.queue_wait", doc["submitted_at"], doc["started_at"],
               parent=root, trace=trace)
    run = tracer.add("serve.worker_run", doc["started_at"],
                     doc["finished_at"], parent=root, trace=trace)
    tracer.add("serve.sim", doc["started_at"],
               doc["started_at"] + (doc.get("elapsed_seconds") or 0.0),
               parent=run, trace=trace)
    tracer.add("serve.relay", doc["finished_at"], rec["received"],
               parent=root, trace=trace)


def main(args, golden: dict, tracer: Tracer, checker: Checker):
    from repro.serve.client import KahrismaClient

    rng = random.Random(args.seed)
    decks = max(1, math.ceil(NOMINAL_RATE * args.seconds / DECK))
    tmp = tempfile.mkdtemp(dir=work_dir("tmp"), prefix="serve-")
    server = None
    try:
        with HostClock(wall=True) as clock:
            with tracer.span("setup"):
                setup_start = time.time()
                server = Server(tmp)
                client = KahrismaClient(server.url, timeout=120.0)
                for jt in job_types():
                    if jt["sampling"] is None:
                        job = client.submit(job_spec(jt, TENANTS[0]))
                        client.wait(job["id"], timeout=120.0)
                setup_end = time.time()
            deck = half_deck(0) + half_deck(1)
            rungs = []

            def rung(rate: float, jobs: list) -> bool:
                records = run_rung(client, clock, rate, dealt(jobs, rng),
                                   rng)
                for rec in records:
                    reference_times(rec, clock)
                rungs.append((rate, records))
                judge(records, golden, checker)
                return rung_summary(rate, records, clock)["meets_limit"]

            if rung(NOMINAL_RATE, deck * decks):
                estimate = capacity(rungs[0][1])
                low, high = max(NOMINAL_RATE, estimate), estimate * 2
                for _ in range(BISECTIONS):
                    rate = math.sqrt(low * high)
                    if rung(rate, deck):
                        low = rate
                    else:
                        high = rate
            server_rss = server.tree_peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    # Again with every sample, now that the clock has stopped.
    for _rate, records in rungs:
        for rec in records:
            reference_times(rec, clock)
    return summarize(rungs, golden, tracer, clock,
                     clock.seconds(setup_start, setup_end), server_rss)


def summarize(rungs, golden, tracer, clock, setup_s, server_rss):
    summaries = [rung_summary(rate, records, clock)
                 for rate, records in rungs]
    nominal = rungs[0][1]
    lat = [r["ref"]["latency"] for r in nominal if r["ok"]]
    tail_s, tail_pct, tail_beyond = tail(lat)
    passing = [s for s in summaries if s["meets_limit"]]
    every = [r for _rate, records in rungs for r in records]
    done = [r for r in nominal if r["ok"]]

    def mips(pred):
        """Instructions over simulation seconds of every correct job
        of one kind on every rung: one job simulates for milliseconds
        and the same job's time varies up to threefold, so a rate needs
        all of them."""
        chosen = [r for r in every if r["ok"] and pred(r["type"])]
        return (sum(r["doc"]["instructions"] for r in chosen)
                / sum(r["ref"]["sim"] for r in chosen) / 1e6)

    def rtl_cycles(jt):
        return golden["builds"][f"{jt['program']}/{jt['build']}"][
            "rtl_cycles"]

    doe_rtl = [
        abs(r["doc"]["cycles"] - rtl_cycles(r["type"]))
        / rtl_cycles(r["type"]) * 100
        for r in done
        if r["type"]["model"] == "doe" and not r["type"]["sampling"]
    ]
    sampled_err = []
    for r in done:
        if r["type"]["sampling"]:
            exact_key = type_key(dict(r["type"], sampling=None))
            exact = golden["types"][exact_key]["cycles"]
            sampled_err.append(
                abs(r["doc"]["cycles_estimated"] - exact) / exact * 100)
    end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb() + server_rss,
        "functional_mips": mips(lambda t: t["model"] == "none"),
        "detailed_mips": mips(lambda t: t["model"] == "doe"
                              and not t["sampling"]),
        "sampled_mips": mips(lambda t: bool(t["sampling"])),
        "sampled_error_max_pct": max(sampled_err),
        "doe_rtl_error_max_pct": max(doe_rtl),
        "programs_per_s": summaries[0]["throughput"],
        "latency_p50_s": quantile(lat, 0.5),
        "latency_tail_s": tail_s,
        "max_rate_jobs_per_s": max(passing or summaries[:1],
                                   key=lambda s: s["rate"])["throughput"],
    }
    every_done = [r for r in every if r["ok"]]
    for rec in every:
        job_spans(tracer, rec)

    def total(part, records):
        return sum(r["ref"].get(part, 0.0) for r in records)

    per_layer = {
        "serve.submit_s": total("submit", every),
        "serve.generator_lag_s": total("lag", every),
        "serve.queue_wait_s": total("queue_wait", every_done),
        "serve.worker_run_s": total("worker_run", every_done),
        "serve.sim_s": total("sim", every_done),
        "serve.relay_s": total("relay", every_done),
    }
    per_layer["serve.worker_overhead_s"] = (
        per_layer["serve.worker_run_s"] - per_layer["serve.sim_s"])
    defects = [r["defect"] for r in every if "defect" in r]
    detail = {
        "rungs": summaries,
        "latency_limit_s": LATENCY_LIMIT_S,
        "limit_percentile": LIMIT_PERCENTILE,
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples_beyond": tail_beyond,
        "latency_samples": len(lat),
        "nominal_rate": NOMINAL_RATE,
        "capacity_estimate": capacity(nominal),
        "jobs": len(every),
        "work_s": end_to_end["latency_p50_s"],
        "width_defect": {
            "failed": len(defects),
            "share": len(defects) / len(every),
            "errors": sorted(set(defects)),
        },
        "max_instructions": MAX_INSTRUCTIONS,
        "sampling_spec": SAMPLING_SPEC,
        "host_clock": clock.summary(),
        "job_log": [
            dict({f"{part}_s": secs for part, secs in r["ref"].items()},
                 rate=rate, type=type_key(r["type"]), ok=r["ok"])
            for rate, records in rungs for r in records
        ],
    }
    return end_to_end, per_layer, detail
