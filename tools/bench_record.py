"""Record the benchmark's end-to-end metrics of one tree in BENCH_<n>.json.

    python3 tools/bench_record.py --out BENCH_8.json [--repo PATH] [--seeds 1,2,3,4,5]

For each workload in the tree's BENCHMARK.json, runs perfbench/run.py with
--trace 0 and the benchmark's own run length once per seed, one run at a
time, in the tree given by --repo (default: the checkout holding this
script).  The file keeps, per workload and metric, the median, the
quartiles and the run count; whether every run was correct and the failed
counts; the mean host-speed probe of the runs; and the measured tree's git
revision.  Quartiles are statistics.quantiles(method="inclusive").
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(records: list) -> dict:
    """One workload's summary from its per-run records.

    A record is the JSON line run.py prints (correct, failed, metrics) plus
    "probe_s", the probe times read from that run's result file.
    """
    metrics = {}
    for name, first in records[0]["metrics"].items():
        values = sorted(r["metrics"][name]["value"] for r in records)
        q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else values * 3)
        metrics[name] = {"unit": first["unit"], "median": statistics.median(values),
                         "q1": q1, "q3": q3, "runs": len(values)}
    return {
        "all_correct": all(r["correct"] for r in records),
        "failed": [r["failed"] for r in records],
        "host_probe_s_mean": statistics.mean(p for r in records for p in r["probe_s"]),
        "metrics": metrics,
    }


def run_once(repo: str, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=repo, capture_output=True, text=True, check=True)
    record = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(repo, ".perfbench_out", workload, "result-trace0.json")) as fh:
        record["probe_s"] = json.load(fh)["probe_s"]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file to write, e.g. BENCH_8.json")
    parser.add_argument("--repo", default=HERE_REPO, help="checkout to measure")
    parser.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds")
    args = parser.parse_args(argv)
    repo = os.path.abspath(args.repo)
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(repo, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True,
                              text=True, check=True).stdout.strip()
    summary = {"git_revision": revision, "seeds": seeds, "seconds": spec["run_seconds"],
               "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        records = []
        for seed in seeds:
            records.append(run_once(repo, workload, seed, spec["run_seconds"]))
            print("%s seed %d: %s" % (workload, seed, json.dumps(records[-1]["metrics"])),
                  flush=True)
        summary["workloads"][workload] = summarize(records)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
