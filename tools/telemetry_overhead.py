#!/usr/bin/env python3
"""Measure telemetry overhead on the Table I cjpeg benchmark.

Superblock configurations of the same workload:

* ``baseline``   — telemetry fully disabled (the Table I fast path);
* ``metrics``    — post-run metric collection (``collect_metrics``);
* ``profile``    — block-mode hot-spot profiler attached;
* ``stream``     — live NDJSON event streaming to a file sink
  (heartbeat every ``--heartbeat`` instructions);
* ``flight``     — bounded flight recorder riding the block seam.

Plus the AOT engine with a warm persistent plan cache:

* ``aot baseline``      — dense-table dispatch, no observability;
* ``aot streamed``      — same run with events *and* flight attached.

Each configuration is timed against its baseline in ``--pairs``
alternating pairs (default 11) and its overhead is the median of the
per-pair time ratios: one run lasts 0.1-0.2 s, so a comparison of
single or best-of-N timings reads host noise.

Writes one JSON document (CI uploads it as an artifact) containing the
run report of the metrics-enabled run plus the measured overheads, and
exits non-zero when:

* the metrics-enabled runtime regresses more than ``--max-regression``
  (default 10 %) over baseline, or
* streaming, the flight recorder, or the combined AOT observability
  stack regress more than ``--max-stream-regression`` (default 5 %) —
  the "<5 % overhead" contract from ``docs/observability.md``.

Run from the repository root:

    PYTHONPATH=src python tools/telemetry_overhead.py --out telemetry_overhead.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.framework.pipeline import (  # noqa: E402
    build_benchmark,
    open_plan_cache,
    run,
)
from repro.telemetry import (  # noqa: E402
    EventStream,
    FlightRecorder,
    HotspotProfiler,
)


def timed(built, engine="superblock", setup=None, **run_kwargs):
    """A zero-argument callable timing one run: ``(seconds, RunResult)``.

    ``setup`` (optional) is called before every timed run and returns
    ``(extra_kwargs, cleanup)`` — fresh per-run observers (an event
    stream must be opened and closed per run) and warm plan-cache
    handles live there, *outside* the timed region where possible; the
    stream/flight construction cost is negligible, the close is not
    timed because a long-running simulation amortizes it to nothing.
    """
    def once():
        kwargs = dict(run_kwargs)
        cleanup = None
        if setup is not None:
            extra, cleanup = setup()
            kwargs.update(extra)
        start = time.perf_counter()
        result = run(built, engine=engine, **kwargs)
        elapsed = time.perf_counter() - start
        if cleanup is not None:
            cleanup()
        return elapsed, result

    return once


def paired(pairs, baseline, config):
    """Time ``config`` against ``baseline`` in alternating pairs.

    Each pair runs both back to back, the order flipping every pair,
    so a drift in host speed hits both sides alike; the overhead is
    the median of the per-pair time ratios.  Returns ``(median ratio,
    median baseline seconds, median config seconds, last config
    RunResult)``.
    """
    ratios, base_times, config_times = [], [], []
    result = None
    for index in range(pairs):
        if index % 2:
            config_s, result = config()
            base_s, _ = baseline()
        else:
            base_s, _ = baseline()
            config_s, result = config()
        ratios.append(config_s / base_s)
        base_times.append(base_s)
        config_times.append(config_s)
    return (statistics.median(ratios), statistics.median(base_times),
            statistics.median(config_times), result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--program", default="cjpeg",
                        help="bundled workload (default cjpeg)")
    parser.add_argument("--pairs", type=int, default=11,
                        help="alternating baseline/configuration run pairs "
                             "per configuration; the median paired ratio "
                             "is gated (default 11)")
    parser.add_argument("--max-regression", type=float, default=0.10,
                        help="allowed metrics-enabled slowdown fraction "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--max-stream-regression", type=float, default=0.05,
                        help="allowed streaming / flight-recorder slowdown "
                             "fraction (default 0.05 = 5%%)")
    parser.add_argument("--heartbeat", type=int, default=250_000,
                        help="heartbeat cadence for the streaming "
                             "configuration (default 250000)")
    parser.add_argument("--out", default="telemetry_overhead.json")
    args = parser.parse_args(argv)

    built = build_benchmark(args.program)
    print(f"measuring {args.program} ({args.pairs} alternating pairs "
          f"per configuration) ...", flush=True)

    with tempfile.TemporaryDirectory() as workdir:
        events_path = os.path.join(workdir, "events.ndjson")

        def stream_setup():
            stream = EventStream.open(
                events_path, heartbeat_every=args.heartbeat
            )
            return {"events": stream}, stream.close

        def flight_setup():
            return {"flight": FlightRecorder(capacity=512)}, None

        baseline = timed(built)
        metrics_ratio, base_s, metrics_s, metrics_res = paired(
            args.pairs, baseline, timed(built, collect_metrics=True)
        )
        profile_ratio, _, profile_s, _ = paired(
            args.pairs, baseline,
            timed(built, profiler=HotspotProfiler(mode="block")),
        )
        stream_ratio, _, stream_s, _ = paired(
            args.pairs, baseline, timed(built, setup=stream_setup)
        )
        with open(events_path, encoding="utf-8") as fh:
            stream_events = sum(1 for line in fh if line.strip())
        flight_ratio, _, flight_s, _ = paired(
            args.pairs, baseline, timed(built, setup=flight_setup)
        )

        # AOT engine: warm persistent plan cache shared by both
        # configurations so the comparison is steady-state vs
        # steady-state (the cold compile would dwarf the observers).
        cache_dir = os.path.join(workdir, "plancache")
        run(built, engine="aot",
            plan_cache=open_plan_cache(built, directory=cache_dir))

        def aot_setup():
            cache = open_plan_cache(built, directory=cache_dir)
            return {"plan_cache": cache}, None

        def aot_stream_setup():
            extra, _ = aot_setup()
            stream = EventStream.open(
                events_path, heartbeat_every=args.heartbeat
            )
            extra["events"] = stream
            extra["flight"] = FlightRecorder(capacity=512)
            return extra, stream.close

        aot_ratio, aot_base_s, aot_obs_s, _ = paired(
            args.pairs,
            timed(built, engine="aot", setup=aot_setup),
            timed(built, engine="aot", setup=aot_stream_setup),
        )

    instructions = metrics_res.stats.executed_instructions
    metrics_overhead = metrics_ratio - 1.0
    profile_overhead = profile_ratio - 1.0
    stream_overhead = stream_ratio - 1.0
    flight_overhead = flight_ratio - 1.0
    aot_obs_overhead = aot_ratio - 1.0
    document = {
        "benchmark": "telemetry_overhead",
        "program": args.program,
        "instructions": instructions,
        "pairs": args.pairs,
        "baseline_seconds": round(base_s, 4),
        "metrics_seconds": round(metrics_s, 4),
        "profile_seconds": round(profile_s, 4),
        "stream_seconds": round(stream_s, 4),
        "flight_seconds": round(flight_s, 4),
        "aot_baseline_seconds": round(aot_base_s, 4),
        "aot_streamed_seconds": round(aot_obs_s, 4),
        "metrics_overhead": round(metrics_overhead, 4),
        "profile_overhead": round(profile_overhead, 4),
        "stream_overhead": round(stream_overhead, 4),
        "flight_overhead": round(flight_overhead, 4),
        "aot_observability_overhead": round(aot_obs_overhead, 4),
        "stream_events": stream_events,
        "heartbeat_every": args.heartbeat,
        "max_regression": args.max_regression,
        "max_stream_regression": args.max_stream_regression,
        "run_report": metrics_res.telemetry,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")
    print(f"  baseline {base_s:.3f}s  metrics {metrics_s:.3f}s "
          f"({metrics_overhead:+.1%})  block-profiler {profile_s:.3f}s "
          f"({profile_overhead:+.1%})")
    print(f"  stream {stream_s:.3f}s ({stream_overhead:+.1%}, "
          f"{stream_events} events)  flight {flight_s:.3f}s "
          f"({flight_overhead:+.1%})")
    print(f"  aot baseline {aot_base_s:.3f}s  aot streamed "
          f"{aot_obs_s:.3f}s ({aot_obs_overhead:+.1%})")

    failed = False
    if metrics_overhead > args.max_regression:
        print(f"FAIL: metrics-enabled run regressed "
              f"{metrics_overhead:.1%} > {args.max_regression:.0%}",
              file=sys.stderr)
        failed = True
    for label, overhead in (("streaming", stream_overhead),
                            ("flight recorder", flight_overhead),
                            ("aot observability", aot_obs_overhead)):
        if overhead > args.max_stream_regression:
            print(f"FAIL: {label} regressed {overhead:.1%} > "
                  f"{args.max_stream_regression:.0%}", file=sys.stderr)
            failed = True
    if failed:
        return 1
    print(f"OK: metrics {metrics_overhead:.1%} within "
          f"{args.max_regression:.0%}; stream {stream_overhead:.1%}, "
          f"flight {flight_overhead:.1%}, aot "
          f"{aot_obs_overhead:.1%} within "
          f"{args.max_stream_regression:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
