#!/usr/bin/env python3
"""Run every workload untraced and traced, and print all metrics.

    python3 perfbench/report.py [--seeds 1,2,3] [--seconds 15] [--out DIR]

For each workload and seed this runs ``run.py --trace 0`` and then
``--trace 1`` in fresh processes, prints every end-to-end metric with
its median, quartile spread and unit, every per-layer metric with the
end-to-end metric and workload it targets, failed/attempted per
workload, and the tracing overhead: the traced run's work per unit
(suite: seconds per round; fuzz: seconds per program; serve: median
job latency) against the untraced run's.  ``--out`` copies the result
documents into a directory that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import END_TO_END, ROOT, WORK, iqr_share  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    path = os.path.join(WORK, "results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", default=None,
                        help="copy result documents here (compare.py)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for workload in args.workloads.split(","):
        plain, traced = [], []
        for seed in seeds:
            plain.append(run_once(workload, seed, args.seconds, 0))
            traced.append(run_once(workload, seed, args.seconds, 1))
            if args.out:
                for t in (0, 1):
                    name = f"{workload}-seed{seed}-trace{t}.json"
                    shutil.copy(os.path.join(WORK, "results", name),
                                os.path.join(args.out, name))
        print(f"== {workload}: {plain[0]['provenance']['why']}")
        for name in END_TO_END:
            values = [d["end_to_end"][name]["value"] for d in plain]
            spread = iqr_share(values)
            print(f"  {name:28} {statistics.median(values):14.6g} "
                  f"{plain[0]['end_to_end'][name]['unit']:6} "
                  f"spread {'n/a' if spread is None else f'{spread:.3f}'}")
        attempted = sum(d["attempted"] for d in plain)
        failed = sum(d["failed"] for d in plain)
        known = sum(d["expected_failures"] for d in plain)
        print(f"  failed/attempted {failed}/{attempted} "
              f"(known-defect failures {known})")
        for name, entry in traced[0]["per_layer"].items():
            values = [d["per_layer"][name]["value"] for d in traced]
            targets = ", ".join(f"{t['metric']}@{t['workload']}"
                                for t in entry["targets"])
            print(f"  layer {name:28} {statistics.median(values):14.6g} "
                  f"{entry['unit']:6} -> {targets}")
        overhead = statistics.median(
            t["detail"]["work_s"] / p["detail"]["work_s"] - 1
            for p, t in zip(plain, traced))
        print(f"  tracing overhead {overhead * 100:+.2f}% "
              f"(work per unit, traced vs untraced)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
