#!/usr/bin/env python3
"""Compare two benchmark result sets, one row per (workload, metric).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced result documents ``run.py`` writes
(``<workload>-seed<n>-trace0.json``); ``report.py --out DIR`` collects
them.  Runs are paired by seed.  The verdict follows the
choosing-metrics rule:

* ``better``: at least ten pairs, the change wins at least nine tenths
  of them (ties count for neither), and the medians differ by more
  than the parent's quartile distance;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: fewer than ten pairs (however clear the gap looks),
  or the parent's spread is wider than the bound and some change run
  does not beat every parent run;
* ``unchanged``: otherwise.

A workload whose failed share grew is flagged on its own row.  Exit
code 1 when any row is ``worse`` or a failed share grew.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_set(directory: str) -> Dict[str, Dict[int, dict]]:
    """workload -> seed -> result document (untraced runs only)."""
    out: Dict[str, Dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        prov = doc["provenance"]
        out.setdefault(prov["workload"], {})[prov["seed"]] = doc
    return out


def load_bounds(path: str) -> Dict[str, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> str:
    """Verdict for paired samples (``parent[i]`` with ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    mid_p = statistics.median(parent)
    mid_c = statistics.median(change)
    worse_by = sign * (mid_p - mid_c) / abs(mid_p) if mid_p else 0.0
    if worse_by > bound:
        return "worse"
    if len(parent) < MIN_PAIRS:
        return "unresolved"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    q1, _q2, q3 = statistics.quantiles(parent, n=4)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if (wins >= WIN_SHARE * len(parent)
            and sign * (mid_c - mid_p) > q3 - q1):
        return "better"
    if mid_p and (q3 - q1) / abs(mid_p) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(parent_dir: str, change_dir: str, bounds: Dict[str, dict]):
    """Yields ``(workload, metric, verdict, parent median, change
    median, pairs)`` rows, then one failed-share row per workload."""
    parent = load_set(parent_dir)
    change = load_set(change_dir)
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        for name, spec in bounds.items():
            p = [parent[workload][s]["end_to_end"][name]["value"]
                 for s in seeds]
            c = [change[workload][s]["end_to_end"][name]["value"]
                 for s in seeds]
            yield (workload, name,
                   verdict(p, c, spec["better"], spec["bound"]),
                   statistics.median(p), statistics.median(c), len(seeds))

        def share(docs):
            attempted = sum(docs[s]["attempted"] for s in seeds)
            return sum(docs[s]["failed"] for s in seeds) / max(1, attempted)

        p_share, c_share = share(parent[workload]), share(change[workload])
        yield (workload, "failed_share",
               "worse" if c_share > p_share else "unchanged",
               p_share, c_share, len(seeds))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args(argv)
    bounds = load_bounds(args.benchmark)
    worse = 0
    print(f"{'workload':8} {'metric':24} {'verdict':11} {'parent':>12} "
          f"{'change':>12} pairs")
    for workload, name, word, p, c, n in compare(args.parent, args.change,
                                                 bounds):
        worse += word == "worse"
        print(f"{workload:8} {name:24} {word:11} {p:12.6g} {c:12.6g} {n}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
