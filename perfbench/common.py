"""Shared machinery of the perfbench workloads.

Spans and self time, order statistics, provenance and the result
document live here; each workload module only decides what to run and
what to check.  Everything the benchmark writes goes under
``.perfbench/`` in the checkout it runs from.
"""

from __future__ import annotations

import bisect
import datetime
import functools
import hashlib
import json
import math
import os
import platform
import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: Per-function ISA maps chosen by
#: ``repro.framework.selection.select_isas`` (defaults) for every
#: bundled program.  Pinned so ``suite`` and ``serve`` do not drift when
#: the selection heuristic changes; ``test_perfbench.py`` fails when
#: ``select_isas`` stops yielding them.
PINNED_ISA_MAPS: Dict[str, Dict[str, str]] = {
    "aes": {"encrypt_block": "vliw8", "main": "vliw8",
            "key_expand": "vliw4"},
    "cjpeg": {"fdct8x8": "vliw6", "encode_image": "vliw2",
              "fill_image": "vliw6", "main": "vliw4"},
    "crc32": {"crc32_buf": "vliw2", "main": "vliw4"},
    "dct4x4": {"dct4x4": "vliw8", "main": "vliw4",
               "dequant_block": "vliw4", "quant_block": "vliw6",
               "idct4x4": "vliw8"},
    "djpeg": {"idct8x8": "vliw6", "decode_image": "vliw2",
              "fdct8x8": "vliw6", "encode_image": "vliw2",
              "main": "vliw4", "fill_image": "vliw6"},
    "fft": {"fft": "vliw4", "main": "vliw6"},
    "qsort": {"quicksort": "vliw2", "main": "vliw4"},
}

#: Sampling schedules ``U:k:W`` pinned per program in
#: ``tools/sampling_accuracy.py`` (copied so the benchmark does not
#: import from ``tools/``).
SUITE_SAMPLING_SPECS: Dict[str, str] = {
    "cjpeg": "2000:200:500",
    "djpeg": "2000:50:300",
    "aes": "2000:5:2000",
    "crc32": "6000:5:6000",
    "dct4x4": "2000:5:1000",
    "fft": "2000:10:200",
    "qsort": "2000:10:200",
}

PROGRAMS = tuple(sorted(PINNED_ISA_MAPS))

WORKLOAD_WHY = {
    "suite": "warm mixed-ISA runs of the 7 bundled programs: execution "
             "in sim and cycles dominates, build and AOT compile only "
             "in set-up",
    "fuzz": "short generated mixed-ISA programs (SMC in every other) "
            "through the differential matrix: translation, AOT compile "
            "and cold start dominate",
    "serve": "open-loop Poisson jobs against kahrisma serve: queueing, "
             "dispatch, per-job worker overhead and result relay",
}

#: unit, better-direction and meaning of every end-to-end metric.  Each
#: workload reports all of them (README.md gives the per-workload
#: definitions).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "functional_mips": ("MIPS", "higher"),
    "detailed_mips": ("MIPS", "higher"),
    "sampled_mips": ("MIPS", "higher"),
    "sampled_error_max_pct": ("%", "lower"),
    "doe_rtl_error_max_pct": ("%", "lower"),
    "programs_per_s": ("1/s", "higher"),
    "latency_p50_s": ("s", "lower"),
    "latency_tail_s": ("s", "lower"),
    "max_rate_jobs_per_s": ("1/s", "higher"),
}

#: Per-layer metric -> (unit, better, [(target metric, workload)...]).
#: The target is the end-to-end metric a change to the layer should
#: move; on every other workload the layer is idle or its change
#: should leave the end-to-end figures unchanged.
PER_LAYER = {
    "lang.compile_s": ("s", "lower", [("setup_s", "suite")]),
    "binutils.assemble_s": ("s", "lower",
                            [("setup_s", "suite"),
                             ("programs_per_s", "fuzz")]),
    "binutils.link_s": ("s", "lower",
                        [("setup_s", "suite"), ("programs_per_s", "fuzz")]),
    "binutils.load_s": ("s", "lower",
                        [("setup_s", "suite"), ("programs_per_s", "fuzz")]),
    "plancache.open_s": ("s", "lower", [("setup_s", "suite")]),
    "plancache.save_s": ("s", "lower", [("setup_s", "suite")]),
    "aot.prepare_s": ("s", "lower",
                      [("setup_s", "suite"), ("programs_per_s", "fuzz")]),
    "aot.run_s": ("s", "lower", [("functional_mips", "suite")]),
    "aot.dispatches": ("count", "lower", [("functional_mips", "suite")]),
    "aot.blocks_executed": ("count", "higher",
                            [("functional_mips", "suite")]),
    "superblock.run_s": ("s", "lower", [("functional_mips", "suite")]),
    "superblock.translations": ("count", "lower",
                                [("functional_mips", "suite")]),
    "superblock.chain_hit_rate": ("ratio", "higher",
                                  [("functional_mips", "suite")]),
    "sim.isa_switches": ("count", "lower", [("functional_mips", "suite")]),
    "doe.run_s": ("s", "lower", [("detailed_mips", "suite")]),
    "doe.share_s": ("s", "lower", [("detailed_mips", "suite")]),
    "mem.cache.l1.hits": ("count", "higher", [("detailed_mips", "suite")]),
    "mem.cache.l1.misses": ("count", "lower", [("detailed_mips", "suite")]),
    "mem.cache.l2.hits": ("count", "higher", [("detailed_mips", "suite")]),
    "mem.cache.l2.misses": ("count", "lower", [("detailed_mips", "suite")]),
    "sampling.run_s": ("s", "lower",
                       [("sampled_mips", "suite"),
                        ("sampled_error_max_pct", "suite")]),
    "sampling.detailed_fraction": ("ratio", "lower",
                                   [("sampled_mips", "suite"),
                                    ("sampled_error_max_pct", "suite")]),
    "sampling.intervals": ("count", "higher",
                           [("sampled_mips", "suite"),
                            ("sampled_error_max_pct", "suite")]),
    "rtl.run_s": ("s", "lower", [("doe_rtl_error_max_pct", "suite")]),
    "telemetry.report_s": ("s", "lower", [("latency_p50_s", "serve")]),
    "fuzz.generate_s": ("s", "lower", [("programs_per_s", "fuzz")]),
    "fuzz.assemble_s": ("s", "lower", [("programs_per_s", "fuzz")]),
    "fuzz.aot_configs_s": ("s", "lower", [("programs_per_s", "fuzz")]),
    "fuzz.translating_configs_s": ("s", "lower",
                                   [("programs_per_s", "fuzz")]),
    "fuzz.interactive_configs_s": ("s", "lower",
                                   [("programs_per_s", "fuzz")]),
    "serve.submit_s": ("s", "lower", [("latency_p50_s", "serve")]),
    "serve.queue_wait_s": ("s", "lower",
                           [("latency_tail_s", "serve"),
                            ("max_rate_jobs_per_s", "serve")]),
    "serve.worker_run_s": ("s", "lower",
                           [("latency_p50_s", "serve"),
                            ("max_rate_jobs_per_s", "serve")]),
    "serve.sim_s": ("s", "lower", [("latency_p50_s", "serve")]),
    "serve.worker_overhead_s": ("s", "lower",
                                [("latency_p50_s", "serve"),
                                 ("max_rate_jobs_per_s", "serve")]),
    "serve.relay_s": ("s", "lower", [("latency_p50_s", "serve")]),
    "serve.generator_lag_s": ("s", "lower", [("latency_tail_s", "serve")]),
}


def require_source() -> None:
    """Put ``src`` on the import path, or exit non-zero without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- spans -------------------------------------------------------------------


class Span:
    """One timed interval; ``seconds`` is valid after the ``with`` ends."""

    __slots__ = ("tracer", "name", "trace", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", name: str,
                 trace: Optional[str]) -> None:
        self.tracer = tracer
        self.name = name
        self.trace = trace
        self.parent: Optional[int] = None
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "Span":
        tracer = self.tracer
        if tracer.enabled:
            stack = tracer.stack
            if stack:
                self.parent = stack[-1]
                if self.trace is None:
                    self.trace = tracer.spans[stack[-1]].trace
            stack.append(len(tracer.spans))
            tracer.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        if self.tracer.enabled:
            self.tracer.stack.pop()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans at layer boundaries, kept in memory and written at the end.

    Disabled, :meth:`span` still times its block (the workloads take
    their end-to-end timings from it) but records nothing and
    :meth:`patch` leaves the simulator untouched.  Enabled, every span
    records name, start, end, parent and the request it belongs to,
    and :meth:`patch` wraps a public function of a layer so calls the
    simulator makes internally (``pipeline.build`` -> assembler, the
    fuzz runner -> ``aot.prepare``) get spans too.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def span(self, name: str, trace: Optional[str] = None) -> Span:
        return Span(self, name, trace)

    def add(self, name: str, start: float, end: float, *,
            parent: Optional[int] = None,
            trace: Optional[str] = None) -> int:
        """Record a span measured elsewhere (serve job timestamps)."""
        if not self.enabled:
            return -1
        span = Span(self, name, trace)
        span.start, span.end, span.parent = start, end, parent
        self.spans.append(span)
        return len(self.spans) - 1

    def patch(self, owner: object, attr: str, name: str) -> None:
        if not self.enabled:
            return
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self, clock: Optional["HostClock"] = None
                   ) -> Dict[str, float]:
        """Seconds per span name, minus the time of child spans (in
        reference seconds when ``clock`` is given)."""
        if clock is None:
            seconds = [span.seconds for span in self.spans]
        else:
            seconds = [clock.seconds(span.start, span.end)
                       for span in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span.parent is not None and span.parent >= 0:
                child[span.parent] += seconds[i]
        out: Dict[str, float] = {}
        for i, span in enumerate(self.spans):
            out[span.name] = out.get(span.name, 0.0) + seconds[i] - child[i]
        return out

    def dump(self, path: str) -> None:
        doc = [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "trace": s.trace}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- host speed --------------------------------------------------------------

#: Seconds the reference kernel takes on the reference host.  Every
#: host-time metric is reported in reference seconds: what the work
#: would take on a host that runs :func:`reference_kernel` in this time.
REFERENCE_KERNEL_S = 0.001
#: Kernel runs per sample (the sample is the fastest, so a preemption
#: in one run does not count as a slow host).
KERNEL_REPEATS = 3
#: Seconds between two samples.
SAMPLE_EVERY_S = 0.3
#: Samples this close to an interval set its speed.
WINDOW_S = 0.35
#: How the simulator's speed follows the kernel's: as its power
#: ``KERNEL_EXPONENT``.  The kernel runs almost entirely out of the
#: core's own caches and execution units, the simulator much less, so
#: when the host runs the kernel 1.8x faster (a virtual CPU alone on
#: its core) the simulator runs about 1.4x faster.  Fitted on 2-vCPU
#: x86-64 virtual machines: runs with and without such fast phases
#: agreed to 10% with the exponent 1, and the per-operation spread was
#: lowest between 0.5 and 0.8.
KERNEL_EXPONENT = 0.6


def reference_kernel() -> int:
    """Fixed pure-Python work of the simulator's kind: list and dict
    indexing, integer arithmetic and masking in a dispatch loop."""
    regs = [0] * 16
    table: Dict[int, int] = {}
    acc = 0
    for i in range(2000):
        r = i & 15
        regs[r] = (regs[r] + i * 7 + acc) & 0xFFFFFFFF
        key = regs[r] & 63
        table[key] = table.get(key, 0) + 1
        acc ^= regs[(r + 3) & 15] >> 2
    return acc + len(table)


def sample_host(period: float) -> None:
    """The sampler process: time the kernel every ``period`` seconds and
    print ``perf_counter time kernel_seconds`` lines until the parent
    closes the pipe or exits."""
    parent = os.getppid()
    while os.getppid() == parent:
        best = math.inf
        for _ in range(KERNEL_REPEATS):
            began = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - began)
        try:
            print(f"{time.perf_counter()!r} {time.time()!r} {best!r}",
                  flush=True)
        except (BrokenPipeError, OSError):
            return
        time.sleep(period)


class HostClock:
    """Host speed sampled beside the timed work.

    A virtual CPU of a shared host runs the same Python code up to 1.6x
    faster or slower for seconds at a time, as the hypervisor moves it
    between busy and idle physical cores, and two virtual CPUs of one
    guest change speed independently.  Raw host seconds of runs minutes
    apart therefore differ by more than any useful bound.

    While started, a sampler process on the benchmark's CPU times the
    reference kernel every ``SAMPLE_EVERY_S`` (a few % of the CPU);
    :meth:`seconds` converts an interval to reference seconds: host
    seconds times the mean of ``REFERENCE_KERNEL_S`` over the kernel
    time, raised to ``KERNEL_EXPONENT``, of the samples within
    ``WINDOW_S`` of the interval (the nearest sample on each side when
    none is).  A change to the simulator moves
    reference seconds as it moves host seconds; a change of host speed
    between or within runs does not.  ``wall`` selects ``time.time``
    instead of ``time.perf_counter`` for the interval ends.
    """

    def __init__(self, wall: bool = False) -> None:
        self.column = 1 if wall else 0
        self.times: List[float] = []
        self.kernel_s: List[float] = []
        self._proc: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None
        self._first = threading.Event()

    def __enter__(self) -> "HostClock":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--sample-host",
             repr(SAMPLE_EVERY_S)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._first.wait(30):
            self.__exit__()
            raise RuntimeError("host speed sampler did not start")
        return self

    def _read(self) -> None:
        for line in self._proc.stdout:
            fields = [float(f) for f in line.split()]
            self.times.append(fields[self.column])
            self.kernel_s.append(fields[2])
            self._first.set()

    def __exit__(self, *exc) -> None:
        proc = self._proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        self._reader.join(timeout=10)
        proc.stdout.close()

    def latest_s(self) -> float:
        """Kernel seconds of the last samples (for pacing)."""
        return statistics.median(self.kernel_s[-3:])

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per host second over ``[start, end]``."""
        if not self.times:
            raise RuntimeError("host clock has no samples")
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.kernel_s[lo:hi]
        if not near:
            # Nearest on each side: ``lo`` is the first sample after the
            # window, ``lo - 1`` the last before it.
            near = self.kernel_s[max(0, lo - 1):lo + 1]
        return statistics.fmean((REFERENCE_KERNEL_S / k) ** KERNEL_EXPONENT
                                for k in near)

    def seconds(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)

    def summary(self) -> Dict[str, object]:
        """The samples' spread, for the result document."""
        ks = sorted(self.kernel_s)
        return {
            "samples": len(ks),
            "reference_kernel_s": REFERENCE_KERNEL_S,
            "kernel_s_min": ks[0] if ks else None,
            "kernel_s_median": statistics.median(ks) if ks else None,
            "kernel_s_max": ks[-1] if ks else None,
        }


# -- statistics --------------------------------------------------------------


def iqr_share(values: Sequence[float]) -> Optional[float]:
    """Quartile distance as a share of the median (None below 2 values)."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else None


def quantile(values: Iterable[float], p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile.

    A weighted mean of all order statistics, with the weights a
    Beta(p(n+1), (1-p)(n+1)) distribution puts on each rank's share of
    [0, 1].  A single order statistic of a few dozen samples jumps from
    one cluster of values to the next between runs (the suite's 28
    requests come from 7 programs of very different size); the weighted
    mean moves smoothly.  The Beta CDF is integrated numerically.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n == 1:
        return ordered[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64
    h = 1.0 / (steps * n)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(steps):
            x = (i * steps + j + 0.5) * h
            mass += math.exp(log_norm + (a - 1) * math.log(x)
                             + (b - 1) * math.log1p(-x))
        weights.append(mass * h)
    total = sum(weights)
    # A zero weight times an infinite (failed) sample would be NaN.
    return sum(w / total * v for w, v in zip(weights, ordered) if w > 0)


def tail(values: Iterable[float]) -> Tuple[float, int, int]:
    """Highest integer percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``: the percentile and
    count by nearest rank, the value by :func:`quantile`; failed
    requests enter as ``inf``.  Below 20 samples no percentile from 50
    up has ten beyond it, and the median is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    for pct in range(99, 49, -1):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return quantile(ordered, pct / 100), pct, n - rank
    rank = math.ceil(n / 2)
    return quantile(ordered, 0.5), 50, n - rank


def percentile(values: Iterable[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


# -- provenance and results --------------------------------------------------


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """Digest of every file under ``src/repro`` (the checkout may not be
    a git repository, so this identifies the code either way)."""
    h = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(seed: int, workload: str) -> Dict[str, object]:
    commit = _git("rev-parse", "HEAD")
    dirty = None
    if commit is not None:
        dirty = bool(_git("status", "--porcelain", "--", "src"))
    return {
        "commit": commit,
        "dirty": dirty,
        "source_digest": source_digest(),
        "date_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "workload": workload,
        "why": WORKLOAD_WHY[workload],
        "pinned_isa_maps": PINNED_ISA_MAPS,
        "suite_sampling_specs": SUITE_SAMPLING_SPECS,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Counts checked operations and keeps the text of each failure.

    A failure is *expected* when it is a known simulator defect the
    workload exists to keep visible; ``correct`` in the result then
    stays true while ``failed`` still counts it.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.expected = 0

    def verdict(self, label: str, problems: List[str], *,
                expected: bool = False) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
            self.expected += expected
        return not problems

    def check(self, label: str, expected: Dict[str, object],
              got: Dict[str, object]) -> bool:
        return self.verdict(label, [
            f"{key}: expected {expected.get(key)!r}, got {got.get(key)!r}"
            for key in sorted(set(expected) | set(got))
            if expected.get(key) != got.get(key)
        ])

    def fail(self, label: str, why: str, *, expected: bool = False) -> None:
        self.verdict(label, [why], expected=expected)


def finish(
    workload: str,
    args,
    *,
    tracer: Tracer,
    end_to_end: Dict[str, float],
    per_layer: Dict[str, float],
    checker: Checker,
    detail: Optional[Dict[str, object]] = None,
) -> int:
    """Write the full result document, print the summary and, as the
    last line of standard output, the one-line JSON result; returns
    the exit code."""
    missing = sorted(set(END_TO_END) - set(end_to_end))
    if missing:
        raise RuntimeError(f"{workload}: end-to-end metrics not measured: "
                           f"{missing}")
    per_layer = {name: float(per_layer.get(name, 0.0))
                 for name in PER_LAYER}
    doc = {
        "provenance": provenance(args.seed, workload),
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "spans": len(tracer.spans),
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "expected_failures": checker.expected,
        "failures": checker.failures[:50],
        "end_to_end": {
            name: {"value": end_to_end[name], "unit": END_TO_END[name][0],
                   "better": END_TO_END[name][1]}
            for name in END_TO_END
        },
        "per_layer": {
            name: {"value": per_layer[name], "unit": PER_LAYER[name][0],
                   "better": PER_LAYER[name][1],
                   "targets": [{"metric": m, "workload": w}
                               for m, w in PER_LAYER[name][2]]}
            for name in PER_LAYER
        },
        "detail": detail or {},
    }
    tag = f"{workload}-seed{args.seed}-trace{int(bool(args.trace))}"
    results = work_dir("results")
    with open(os.path.join(results, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    if tracer.enabled:
        tracer.dump(os.path.join(results, f"{tag}.spans.json"))

    shown = doc["per_layer"] if args.trace else doc["end_to_end"]
    for name, entry in shown.items():
        print(f"{workload:6} {name:28} {entry['value']:14.6g} "
              f"{entry['unit']}")
    print(f"{workload:6} failed/attempted {doc['failed']}/"
          f"{doc['attempted']} (known-defect failures: {checker.expected})")
    for failure in checker.failures[:5]:
        print(f"{workload:6} FAILED {failure[:300]}")
    metrics = {
        name: {"value": entry["value"], "unit": entry["unit"]}
        for name, entry in shown.items()
    }
    print(json.dumps({
        "correct": len(checker.failures) == checker.expected,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__" and sys.argv[1:2] == ["--sample-host"]:
    sample_host(float(sys.argv[2]))
