#!/usr/bin/env python3
"""Record the golden outputs the benchmark checks its runs against.

    python3 perfbench/make_goldens.py --seeds 0-31

For each seed, runs one set-up and one unit of every workload with the
current sources and writes goldens/seed-<n>.json: per-clip scores and
report rows of desk_pipeline, sha256 digests plus per-scene summaries of
every flow directory, and per-probe infer scores.  A unit that fails its
structural checks aborts the recording.  Regenerate only when the
outputs are meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import checks
import run
import workloads


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record(seed: int) -> dict:
    golden = {}
    for name, cls in workloads.WORKLOADS.items():
        base = os.path.join(run.OUT, f"golden-{name}-seed{seed}-pid{os.getpid()}")
        try:
            wl = cls(base, seed)
            wl.golden = None  # structural checks only
            wl.setup(0)
            res = wl.unit(0)
        finally:
            shutil.rmtree(base, ignore_errors=True)
        if res.failed:
            raise RuntimeError(f"{name} seed {seed}: {res.problems}")
        golden[name] = res.outputs
    return golden


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,5,9")
    args = parser.parse_args(argv)
    run.import_hhmon()
    os.makedirs(checks.GOLDEN_DIR, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        golden = record(seed)
        path = checks.golden_path(seed)
        with open(path, "w") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
