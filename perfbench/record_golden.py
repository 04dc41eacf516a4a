#!/usr/bin/env python3
"""Record the golden observables the benchmark checks against.

Run from the root of a checkout, at a commit whose simulator output is
trusted:

    python3 perfbench/record_golden.py

Writes ``perfbench/golden.json``, always for every workload, so the
one provenance stamp in it holds for all of it.  A later change that
alters any simulated statistic (output, exit code, instruction count,
cycles, sampled estimate, the counters of a served job's report) makes
the benchmark report failed operations until the golden file is
re-recorded deliberately.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from run import GOLDEN, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        argv)
    common.require_source()
    doc = {}
    for name in WORKLOADS:
        module = __import__(f"{name}_workload")
        print(f"recording {name} ...", flush=True)
        doc[name] = module.record_golden()
    doc["provenance"] = {
        "commit": common._git("rev-parse", "HEAD"),
        "source_digest": common.source_digest(),
    }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
