"""padic-forge benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload certify-mix --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for the pools and the reason for each):
  certify-mix     one op certifies one map at one prime
  gen-stream      one op emits one chunk of stream words
  analyze-orbits  one op analyzes one full-period orbit

The run is a closed loop in one single-threaded interpreter: each op
starts when the previous one and its output check are done.  It runs
whole cycles of the workload's pool until --seconds have passed and at
least MIN_OPS ops are done.  Op latency covers the library calls only,
not the benchmark's output checks; ops_per_s and words_per_s are per
second of op latency.  setup_s is the median, over SETUP_PROBES fresh
interpreters, of the time from this script's first statement to a built
workload: imports, corpus build and generator certification.

Times are reported at reference host speed.  A shared host's speed
swings by 1.5x within seconds (other tenants on the same cores), which
moved the op-latency quantiles of whole runs by 20-30% between runs of
the same code.  So before each op the run times a fixed pure-Python
loop (calibration_loop), and each op's wall time is scaled by
CAL_REFERENCE_S over the median calibration time of the 2*CAL_WINDOW+1
samples around it; set-up is scaled by the calibration measured in its
own interpreter.  The loop touches no library code, so a change to the
library moves the scaled times as it moves the wall times.  Raw wall
times are kept in the run record.

--trace 0 prints the end-to-end metrics.  --trace 1 is a separate run
that prints the per-layer metrics: every cycle runs untraced and then
again with a span around every library call (the time difference is the
tracing overhead), then the per-layer suite in layers.py runs.  Spans
and the run record go to .bench_out/.

The last line of stdout is the JSON result; lines above it are for people.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up is timed from here: imports, corpus, certification

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

from env import ROOT, require_library, run_record

MIN_OPS = 100
SETUP_PROBES = 11
CAL_ITERS = 1200
CAL_REFERENCE_S = 0.23e-3  # about the 5th percentile of calibration_loop on the baseline host
CAL_WINDOW = 4
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("certify-mix", "gen-stream", "analyze-orbits")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload and exit; used to time set-up")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def calibration_loop() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    Modular big-int arithmetic, list growth and a sort, as in the library's
    own inner loops; of the loops tried, this one tracked op times on all
    three workloads most closely.
    """
    t0 = time.perf_counter()
    x, acc = 0x9E3779B9, []
    for i in range(CAL_ITERS):
        x = (x * 6364136223846793005 + i) % 1_000_000_007
        acc.append(x ^ (x >> 3))
    acc.sort()
    return time.perf_counter() - t0


def build_workload(name: str, seed: int):
    import workloads as wl
    return wl.WORKLOADS[name](seed, wl.load_references())


def time_setup(name: str, seed: int) -> list:
    """(wall seconds, calibration seconds) of each of SETUP_PROBES fresh
    interpreters building the workload."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", "1", "--setup-only"]
    return [tuple(map(float, subprocess.run(argv, cwd=ROOT, check=True, timeout=120,
                                            capture_output=True, text=True).stdout.split()))
            for _ in range(SETUP_PROBES)]


class Tally:
    def __init__(self):
        self.latencies: list = []
        self.calibration: list = []  # calibration_loop seconds just before each op
        self.words = 0
        self.failed = 0
        self.problems: list = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def scaled_latencies(self) -> list:
        """Op latencies at reference host speed (see the module docstring)."""
        cal, w = self.calibration, CAL_WINDOW
        return [t * CAL_REFERENCE_S / statistics.median(cal[max(0, i - w):i + w + 1])
                for i, t in enumerate(self.latencies)]


def run_ops(workload, cycle, tr, tally: Tally) -> None:
    for op in cycle:
        tally.calibration.append(calibration_loop())
        t0 = time.perf_counter()
        try:
            out = tr.call("op", op.label, op.run, tr)
        except Exception:  # an op that raises is a failed op, never the end of the run
            tally.latencies.append(time.perf_counter() - t0)
            tally.fail(f"{op.label}: {traceback.format_exc(limit=-1).strip()}")
            continue
        tally.latencies.append(time.perf_counter() - t0)
        try:
            problem = op.check(out)
        except Exception:
            problem = f"{op.label}: check raised {traceback.format_exc(limit=-1).strip()}"
        if problem is None:
            tally.words += workload.words(out)
        else:
            tally.fail(problem)


def run_timed(workload, seconds: float, passes) -> None:
    """Whole cycles until `seconds` have passed and MIN_OPS ops ran.

    Each cycle runs once per (tracer, tally) pass, in order, so a traced
    pass times exactly the ops of the untraced pass before it.
    """
    tally = passes[-1][1]
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(tally.latencies) < MIN_OPS:
        cycle = workload.cycle()
        for tr, t in passes:
            run_ops(workload, cycle, tr, t)


def e2e_metrics(tally: Tally, setup: list) -> dict:
    """name -> (value, unit, sample count), times at reference host speed."""
    lat = tally.scaled_latencies()
    busy = sum(lat)
    n = len(lat)
    return {
        "setup_s": (statistics.median(wall * CAL_REFERENCE_S / cal for wall, cal in setup),
                    "s", len(setup)),
        "ops_per_s": (n / busy, "ops/s", n),
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms", n),
        "op_ms_p90": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms", n),
        "words_per_s": (tally.words / busy, "words/s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    require_library()
    workload = build_workload(args.workload, args.seed)
    if args.setup_only:
        wall = time.perf_counter() - STARTED
        print(wall, statistics.median(calibration_loop() for _ in range(2 * CAL_WINDOW + 1)))
        return 0

    import workloads as wl
    why = {w["name"]: w["why"]
           for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": why[args.workload],
              "op": wl.OP_DEFINITION[args.workload], **run_record()}
    tally = Tally()
    extra: dict = {}
    if args.trace == 0:
        setup = time_setup(args.workload, args.seed)
        run_timed(workload, args.seconds, [(wl.NullTracer, tally)])
        metrics = e2e_metrics(tally, setup)
        record["setup_samples_wall_cal_s"] = setup
    else:
        from layers import run_suite
        from spans import SpanTracer
        tracer, traced = SpanTracer(), Tally()
        run_timed(workload, args.seconds, [(wl.NullTracer, tally), (tracer, traced)])
        layer_values, cli_failures = run_suite()
        metrics = {name: (value, unit, None) for name, (value, unit, _) in layer_values.items()}
        metrics["trace.overhead_pct"] = (
            (sum(traced.latencies) / sum(tally.latencies) - 1) * 100, "%", len(traced.latencies))
        n_traced = len(traced.latencies)
        extra["self_ms_per_op"] = {layer: s / n_traced * 1e3
                                   for layer, s in tracer.self_seconds().items()}
        extra["metric_kinds"] = {name: how for name, (_, _, how) in layer_values.items()}
        extra["trace"] = tracer.to_json()
        tally.latencies += traced.latencies
        tally.calibration += traced.calibration
        tally.failed += traced.failed
        tally.problems += traced.problems
        if cli_failures:
            tally.fail(f"{cli_failures} in-process CLI calls did not exit 0")

    problem = workload.final_check()
    if problem is not None:
        tally.fail(problem)
    attempted = len(tally.latencies)
    result = {
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    record.update({"ops": attempted, "failed": tally.failed,
                   "error_rate": tally.failed / attempted, "problems": tally.problems,
                   "samples": {k: n for k, (_, _, n) in metrics.items()},
                   "latencies_ms": [round(t * 1e3, 4) for t in tally.latencies],
                   "calibration_ms": [round(t * 1e3, 4) for t in tally.calibration],
                   "metrics": result["metrics"], **extra})
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    print(f"workload   {args.workload}: {record['why']}")
    print(f"op         {record['op']}")
    print(f"run        seed {args.seed}, python {record['python']}, nproc {record['nproc']},"
          f" commit {record['commit']}, src sha256 {record['src_sha256'][:16]}")
    print(f"ops        {attempted} attempted, {tally.failed} failed,"
          f" error_rate {record['error_rate']:.4f} ratio")
    for problem in tally.problems[:5]:
        print(f"  FAILED   {problem}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit:8s}" + (f" n={n}" if n else ""))
    if args.trace:
        for layer, ms in sorted(extra["self_ms_per_op"].items()):
            print(f"self time  {layer:10s} {ms:10.4f} ms/op")
    print(f"record     {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
