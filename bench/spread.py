"""Run one workload under several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 bench/spread.py --workload mpe_cycle --seeds 1-10 --seconds 25 [--trace 0]

Each run is a fresh process of bench/run.py. For every metric this prints
the median of the runs and the distance between the first and third
quartiles (statistics.quantiles(values, n=4)) as a share of the median,
which is the spread that BENCHMARK.json's bounds are set against.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    values, failed = {}, []
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        began = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        took = time.perf_counter() - began
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: outputs failed their checks\n{done.stderr}")
        failed.append(result["failed"] / result["attempted"])
        line = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name}={metric['value']:.5g}")
        print(f"seed {seed} ({took:.1f} s): " + " ".join(line), flush=True)
    print(f"failed share per run: {sorted(set(failed))}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:34s} median {med:.6g}  iqr/median {share:.4f}  min {min(vals):.6g}  max {max(vals):.6g}")


if __name__ == "__main__":
    main()
