"""Run one polarsolve benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload single_vi --seed 0 --seconds 25 --trace 0

The load is a serial closed loop: one pass over the workload's CLI calls
after another, from this one process, with every thread pool pinned to
one thread. Passes run until the next one would end after --seconds.
With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
a traced run, and the spans are written to .bench_out/traces/.
A summary for people goes to standard error.
"""

import os

# Pinned before numpy is imported, here and in every set-up probe.
os.environ.update(
    POLARSOLVE_THREADS="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1"
)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import ROOT, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="0 gives the preset cost levels")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(src, config_path, command):
    """Median seconds of SETUP_PROBES cold set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(src), str(config_path), command],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Loop:
    """Runs passes over a workload's calls and checks what they wrote."""

    def __init__(self, calls, argvs, outs, main, tracer):
        self.calls, self.argvs, self.outs = calls, argvs, outs
        self.main = main
        self.tracer = tracer
        self.walls, self.cpus = [], []
        self.attempted = self.failed = 0
        self.correct = True
        self.digests = {}  # call name -> artifact digests of the first pass

    def _invoke(self, argv):
        if self.tracer is None:
            return self.main(argv)
        return self.tracer.span("cli.main", self.main, argv)

    def _all_calls(self):
        codes = []
        for argv in self.argvs:
            try:
                codes.append(self._invoke(argv))
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc(file=sys.stderr)
                codes.append(None)
        return codes

    def run_pass(self):
        sink = io.StringIO()  # the CLI's one-line status per call
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(sink):
            if self.tracer is None:
                codes = self._all_calls()
            else:
                self.tracer.pass_no = len(self.walls)
                codes = self.tracer.span(ROOT, self._all_calls)
        self.cpus.append(time.process_time() - cpu0)
        self.walls.append(time.perf_counter() - wall0)
        self.attempted += len(codes)
        for call, out, code in zip(self.calls, self.outs, codes):
            if code != 0:
                self.failed += 1
                print(f"{call.name}: exit code {code}", file=sys.stderr)
                continue
            try:
                self._check(call, out)
            except workloads.CheckFailed as err:
                self.correct = False
                print(f"{call.name}: check failed: {err}", file=sys.stderr)
            except Exception:  # unreadable output fails its check; the run still reports
                self.correct = False
                print(f"{call.name}: check failed on unreadable output:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)

    def _check(self, call, out):
        digests = workloads.artifact_digests(out)
        if call.name not in self.digests:
            call.check(out, call.config)
            self.digests[call.name] = digests
        workloads.require(digests == self.digests[call.name], f"{out}: artifacts differ from the first pass")


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "polarsolve" / "__init__.py").is_file():
        print(f"no polarsolve sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    calls = workloads.build(args.workload, args.seed)
    work = root / ".bench_out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        argvs, outs = [], []
        for call in calls:
            cfg = work / "configs" / f"{call.name}.cfg"
            cfg.parent.mkdir(parents=True, exist_ok=True)
            cfg.write_text(call.config_text(), encoding="utf-8")
            outs.append(work / "out" / call.name)
            argvs.append([call.command, "--config", str(cfg), "--out", str(outs[-1])])
        setup_s = measure_setup(src, work / "configs" / f"{calls[0].name}.cfg", calls[0].command)

        sys.path.insert(0, str(src))
        from polarsolve import cli

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        loop = Loop(calls, argvs, outs, cli.main, tracer)
        start = time.perf_counter()
        while True:
            loop.run_pass()
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(loop.walls) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        metrics = {
            "wall_s": {"value": statistics.median(loop.walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(loop.cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    else:
        tracer.remove()
        metrics = tracer.median_metrics()
        trace_file = root / ".bench_out" / "traces" / f"{args.workload}.npz"
        tracer.write(trace_file)
        print(f"traced wall_s {statistics.median(loop.walls)!r} s; {len(tracer)} spans in {trace_file}",
              file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(loop.walls)} passes, {loop.attempted} calls, "
          f"{loop.failed} failed, correct={loop.correct}", file=sys.stderr)
    print("  pass wall_s " + " ".join(f"{w:.4f}" for w in loop.walls), file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    result = {"correct": loop.correct, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
