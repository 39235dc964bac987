#!/usr/bin/env python3
"""Record the benchmark's medians for every workload in a BENCH_<label>.json.

Usage, from anywhere:

    python3 scripts/bench_record.py --label LABEL [--root CHECKOUT] [--cpu 0]

For each workload that BENCHMARK.json declares, runs bench/run.py of the
checkout at --root (default: this script's checkout) twice, at seed 0
for 25 seconds: untraced for the end-to-end metrics and traced for the
per-layer ones. The recorder pins itself to one vCPU first, so every run
it starts inherits the pin: on a shared host the same code reads
differently on different vCPUs. The record holds each metric's median
as bench/run.py reports it, plus the CPU count, the numpy version and
the pinned vCPU. It is written to BENCH_<label>.json beside this
script's checkout's BENCHMARK.json. A perf change cites a before/after
pair of such files, recorded on the same vCPU.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
SEED = 0
SECONDS = 25.0


def run_workload(root: Path, workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=HERE, help="checkout whose bench/run.py is measured")
    parser.add_argument("--cpu", type=int, default=0, help="vCPU every run is pinned to")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    os.sched_setaffinity(0, {args.cpu})
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {
        "label": args.label,
        "pinned_cpu": args.cpu,
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(root, workload, trace)
            entry[key] = {name: metric["value"] for name, metric in result["metrics"].items()}
            entry[f"{key}_run"] = {k: result[k] for k in ("correct", "attempted", "failed")}
        record["workloads"][workload] = entry
        print(f"{workload}: wall_s {entry['end_to_end']['wall_s']:.4f}", file=sys.stderr)
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
