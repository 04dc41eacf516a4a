#!/usr/bin/env python3
"""Repository benchmark: one workload per run, checked against goldens.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that records spans at every layer boundary and reports
per-layer self time and counters instead.  The last line of standard
output is the JSON result; the full document (provenance, per-layer
targets, failures, spans) is written under ``.perfbench/results/``.
``python3 perfbench/report.py`` runs every workload both ways and
prints the tracing overhead; ``perfbench/compare.py`` compares two
result sets.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("suite", "fuzz", "serve")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden.json")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_golden() -> dict:
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def exit_on_signal(signum, _frame) -> None:
    # SystemExit unwinds the workload's ``finally`` blocks, which stop
    # the serve server and the host-speed sampler.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    common.require_source()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, exit_on_signal)
    # One CPU for the run and everything it starts: a process that the
    # scheduler moves between CPUs ran the same work up to twice as
    # slowly on a two-CPU virtual machine.  The last CPU, because
    # housekeeping tends to run on the first.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Any plan cache opened without a directory stays in the checkout.
    os.environ["KAHRISMA_CACHE_DIR"] = common.work_dir("cache")
    golden = load_golden()
    module = __import__(f"{args.workload}_workload")
    tracer = common.Tracer(bool(args.trace))
    checker = common.Checker()
    if hasattr(module, "trace_layers"):
        module.trace_layers(tracer)
    try:
        end_to_end, per_layer, detail = module.main(
            args, golden[args.workload], tracer, checker)
    finally:
        tracer.restore()
    return common.finish(
        args.workload, args, tracer=tracer, end_to_end=end_to_end,
        per_layer=per_layer, checker=checker, detail=detail,
    )


if __name__ == "__main__":
    sys.exit(main())
