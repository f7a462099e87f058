"""nullflow benchmark: one seeded workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads and metrics are listed in
BENCHMARK.json; the per-layer predictions are in perfbench/predictions.json.
With --trace 0 the last line of stdout carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of one traced pass, including the
tracing overhead against an untraced pass in the same process.  Everything
the run writes goes under .perfbench_out/ in the checkout.

The times in the end-to-end metrics are in reference-host seconds: each is
scaled by REFERENCE_S over the time of a fixed probe kernel measured at the
same moment (see hostspeed.py), because a shared host's own speed can drift
more than the bounds allow.  The unscaled times are kept in the result record.
A run whose program fails a gate or raises still prints its result, with
"correct": false; only a run that cannot measure at all exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
DEADLINE_S = 170.0
SETUP_SAMPLES = 11
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


# What one timed operation is on each workload; the per-operation latency is
# printed and recorded with the run but is not a bounded metric, because only
# frame_reconstruct and field_brackets have operations of one kind.
OP_MEANING = {
    "soliton_evolve": "one simulate call",
    "frame_reconstruct": "one curve, reconstructed and written",
    "hierarchy": "one generate, verify, bracket, sigma or recursion call",
    "field_brackets": "one identity check",
}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def child_env(max_order: str | None) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for name in THREAD_VARS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    if max_order is None:
        env.pop("NULLFLOW_MAX_ORDER", None)
    else:
        env["NULLFLOW_MAX_ORDER"] = max_order
    return env


def start_worker(argv: list, env: dict, deadline: float):
    """Start worker.py and wait for READY.

    Returns the process and, from the READY line, the worker's set-up
    seconds and its probe time right after set-up.
    """
    proc = subprocess.Popen([sys.executable, WORKER] + argv, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        parts = line.split()
        if len(parts) != 3 or parts[0] != "READY":
            raise BenchError("worker did not get ready (got %r)" % (line,))
    except BaseException:
        stop(proc)
        raise
    return proc, (float(parts[1]), float(parts[2]))


def finish(proc, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker ran past the %.0f s deadline" % DEADLINE_S)
    if proc.returncode != 0:
        raise BenchError("worker exited with code %d" % proc.returncode)


def stop(proc) -> None:
    proc.kill()
    proc.communicate()


def tail_stats(samples: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 11:
        tail, label = ordered[n - 11], "p%.1f" % (100.0 * (n - 10) / n)
    else:
        tail, label = ordered[-1], "max (fewer than 11 samples)"
    return {"p50": statistics.median(ordered), "tail": tail, "tail_label": label, "n": n}


def pass_wall(passes: list, probe_s: list | None = None) -> float:
    """Time of one pass: each operation's median over the passes, summed.

    Every pass runs the same operations in the same order, so a burst of
    interference that slows one operation in one pass is voted out.  With
    probe_s, each pass's times are first scaled to reference-host seconds by
    the probe time measured during that pass.
    """
    if probe_s is not None:
        passes = [[t * hostspeed.REFERENCE_S / p for t in ops] for ops, p in zip(passes, probe_s)]
    return sum(statistics.median(column) for column in zip(*passes))


def git_revision() -> str:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nullflow", "__init__.py")):
        raise BenchError("no nullflow sources under %s" % os.path.join(ROOT, "src"))
    deadline = time.monotonic() + DEADLINE_S
    max_order = "24" if args.workload == "hierarchy" else None
    env = child_env(max_order)
    out_dir = os.path.join(ROOT, ".perfbench_out", args.workload + ("-tiny" if args.tiny else ""))
    work_dir = os.path.join(out_dir, "work-trace%d" % args.trace)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    worker_result = os.path.join(out_dir, "worker-trace%d.json" % args.trace)
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])

    # Set-up is timed on separate start-ups, which only the --trace 0 run
    # reports; each is scaled by the probe time right after it.
    setup = []
    for _ in range(SETUP_SAMPLES if args.trace == 0 else 0):
        proc, ready = start_worker(common + ["--setup-only"], env, deadline)
        finish(proc, deadline)
        setup.append(ready)
    proc, _ = start_worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--workdir", work_dir, "--result", worker_result], env, deadline)
    finish(proc, deadline)
    with open(worker_result) as fh:
        worker = json.load(fh)

    # A pass that raised still left the time of its operations, the failed
    # one included; only a workload that times no operation at all is a
    # harness error.
    if not any(worker["passes"]):
        raise BenchError("no operation was timed: %s" % worker["failures"])
    ops = None if args.trace else tail_stats([s for _, s in worker["ops"]])
    absent = {}
    if args.trace:
        values = worker["layers"]
        listed_names = {m["name"] for m in spec["per_layer"]}
        absent = {k: v for k, v in worker["absent"].items() if k in listed_names}
    else:
        values = {
            "wall_ref_s": pass_wall(worker["passes"], worker["probe_s"]),
            "setup_s": statistics.median(t * hostspeed.REFERENCE_S / p for t, p in setup),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    attempted, failed = worker["attempted"], worker["failed"]

    record = {
        "workload": args.workload,
        "why": workloads[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": {
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "git_revision": git_revision(),
            "pinned_in_children": {name: env[name] for name in THREAD_VARS + ("PYTHONHASHSEED",)},
            **worker["child_env"],
        },
        "passes": len(worker["passes"]),
        "pass_walls_s": [sum(p) for p in worker["passes"]],
        "wall_s_unscaled": pass_wall(worker["passes"]),
        "probe_s": worker["probe_s"],
        "reference_probe_s": hostspeed.REFERENCE_S,
        "setup_samples_unscaled_s": [t for t, _ in setup],
        "setup_probe_s": [p for _, p in setup],
        "ops": ops,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": worker["failures"],
        "all_layer_values": worker["layers"],
        "absent": absent,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, "result-trace%d.json" % args.trace), "w") as fh:
        json.dump(record, fh, indent=1)

    env_line = {k: record["environment"][k] for k in
                ("nproc", "cpu_model", "python", "numpy", "git_revision", "NULLFLOW_MAX_ORDER")}
    print("workload %s seed %d: %d pass(es), error_rate %d/%d, environment %s"
          % (args.workload, args.seed, record["passes"], failed, attempted, json.dumps(env_line)))
    if ops:
        print("one operation (%s): median %.4g s, %s %.4g s, %d samples"
              % (OP_MEANING[args.workload], ops["p50"], ops["tail_label"], ops["tail"], ops["n"]))
    if not args.trace:
        print("one pass: %.4g s scaled to the reference host, %.4g s unscaled; "
              "host probe %.3g ms against %.3g ms"
              % (values["wall_ref_s"], record["wall_s_unscaled"],
                 1e3 * statistics.mean(worker["probe_s"]), 1e3 * hostspeed.REFERENCE_S))
    for name, why in absent.items():
        print("absent (printed as 0): %s, because %s" % (name, why))
    for failure in worker["failures"][:20]:
        print("FAILED %s" % failure)
    correct = attempted > 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        sys.exit(2)
