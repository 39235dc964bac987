#!/usr/bin/env python3
"""Record the benchmark's medians for every workload in a BENCH_<label>.json.

Usage, from anywhere:

    python3 scripts/bench_record.py --label LABEL [--root CHECKOUT] [--cpu 0]

For each workload that BENCHMARK.json declares, runs bench/run.py of the
checkout at --root (default: this script's checkout) twice, at seed 0
for 25 seconds: untraced for the end-to-end metrics and traced for the
per-layer ones. It then times every preset of the checkout, the median
of PRESET_RUNS runs of run_config in a fresh interpreter each, and the
acceptance suite (pytest tests/test_acceptance.py), the median of
SUITE_RUNS runs. The recorder pins itself to one vCPU first, so every run
it starts inherits the pin: on a shared host the same code reads
differently on different vCPUs. The record holds each metric's median
as bench/run.py reports it, the preset and suite seconds, plus the CPU
count, the numpy version and the pinned vCPU. It is written to
BENCH_<label>.json beside this script's checkout's BENCHMARK.json. A
perf change cites a before/after pair of such files, recorded on the
same vCPU.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
SEED = 0
SECONDS = 25.0
PRESET_RUNS = 5
SUITE_RUNS = 3
# Prints the seconds run_config takes on the preset argv[1], writing under argv[2].
TIME_PRESET = (
    "import sys, time\n"
    "from polarsolve.config import load_config\n"
    "from polarsolve.runner import run_config\n"
    "config = load_config(sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "run_config(config, sys.argv[2])\n"
    "print(time.perf_counter() - start)\n"
)


def run_workload(root: Path, workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def source_env(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def preset_seconds(root: Path) -> dict:
    """Median in-process seconds of run_config on each preset of the checkout."""
    seconds = {}
    for preset in sorted((root / "presets").glob("*.cfg")):
        runs = []
        for _ in range(PRESET_RUNS):
            with tempfile.TemporaryDirectory() as out:
                done = subprocess.run(
                    [sys.executable, "-c", TIME_PRESET, str(preset), out],
                    cwd=root, env=source_env(root), capture_output=True, text=True, check=True,
                )
            runs.append(float(done.stdout.strip().splitlines()[-1]))
        seconds[preset.stem] = statistics.median(runs)
    return seconds


def suite_seconds(root: Path) -> float:
    """Median wall seconds of the acceptance suite, pytest included."""
    runs = []
    for _ in range(SUITE_RUNS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_acceptance.py"],
            cwd=root, env=source_env(root), capture_output=True, text=True, check=True,
        )
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


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
    record["preset_seconds"] = preset_seconds(root)
    record["acceptance_suite_seconds"] = suite_seconds(root)
    print(f"acceptance suite: {record['acceptance_suite_seconds']:.1f} s", file=sys.stderr)
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
