"""Steadiness mode: repeat each workload over seeds and summarize every metric.

    python3 perfbench/steady.py [--first-seed 1] [--out perfbench/baseline.json]

Runs perfbench/run.py RUNS times on every workload in BENCHMARK.json,
one run at a time, with the run length from BENCHMARK.json and seeds
--first-seed, --first-seed + 1, ...  The runs go round the workloads
seed by seed, so each workload's runs are spread over the whole session
and a few minutes of a slow machine touch every workload a little rather
than one workload a lot.  For each end-to-end metric it prints the
median, the quartiles and the spread (quartile distance over the median)
next to the metric's bound; a spread at or above a third of the bound is
flagged.  The summary, with the run record of this machine and code, is
written as JSON to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from env import ROOT, run_record

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list, bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values, "steady": spread < bound / 3}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "steady.json")
    args = ap.parse_args()
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    seconds = BENCHMARK["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + RUNS))

    runs = {workload: [] for workload in workloads}
    for seed in seeds:
        for workload in workloads:
            runs[workload].append(one_run(workload, seed, seconds))

    result = {"run_seconds": seconds, "seeds": seeds, **run_record(), "workloads": {}}
    all_steady = True
    for workload in workloads:
        failed = sum(r["failed"] for r in runs[workload])
        attempted = sum(r["attempted"] for r in runs[workload])
        entry = {"attempted": attempted, "failed": failed,
                 "error_rate": failed / attempted, "metrics": {}}
        print(f"{workload}: {RUNS} runs, {attempted} ops, {failed} failed")
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            s = summarize([r["metrics"][name]["value"] for r in runs[workload]],
                          metric["bound"])
            s["unit"] = metric["unit"]
            entry["metrics"][name] = s
            all_steady &= s["steady"] or name == "setup_s"
            flag = "" if s["steady"] else "  SPREAD >= BOUND/3"
            print(f"  {name:12s} median {s['median']:12.4f} {s['unit']:8s}"
                  f" q1 {s['q1']:12.4f}  q3 {s['q3']:12.4f}"
                  f"  spread {s['spread']:.4f} (bound {s['bound']}){flag}")
        result["workloads"][workload] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
