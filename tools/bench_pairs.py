"""Compare two git revisions on the benchmark's end-to-end metrics over alternated pairs.

    python3 tools/bench_pairs.py --base REV --head REV --scratch DIR --seeds 1,2,...
        [--out BENCH_<n>.json]

Exports both revisions of the repository holding this script with
`git archive` into DIR/base and DIR/head, each emptied first.  For each
workload in the base tree's BENCHMARK.json and each seed it then runs
perfbench/run.py --trace 0 once in each tree, one run at a time, with the
benchmark's own run length; the side that runs first alternates from one
pair to the next.  A gain needs at least ten pairs.  It prints, per
workload and end-to-end metric, each side's median and quartiles, the
relative change of the median, how many pairs each side won (ties count for
neither; "better" comes from the base tree's BENCHMARK.json), whether the
two interquartile ranges are apart, and whether every run was correct.
--out writes the same as JSON: per side, each metric's median, quartiles
(statistics.quantiles, method="inclusive") and run count, the failed
counts and the mean host-speed probe, with each revision's commit and the
git tree id of each of its top-level directories (`git rev-parse REV:src`).

    python3 tools/bench_pairs.py --outputs --base REV --head REV --scratch DIR

instead runs each command of OUTPUT_COMMANDS through nullflow.cli in each
exported tree, in a directory of its own under DIR/<side>-outputs that also
keeps its stdout and exit code; it prints one line per file that differs or
is on one side only, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Two flows that do not commute: their bracket has an 8-term and a 5-term component.
_NONZERO_PAIR = "\"k1^2 + a*k2'', k2' - k1*k2\" \"k1''' + b*k1*k1', k1*k2\""
_NLIE = "simulate --flow nlie --n 512 --dt 1.25e-4 --t-end 0.3 --out out"
# name -> nullflow arguments as a shell splits them; relative paths keep DIR out of every output
OUTPUT_COMMANDS = {
    "hierarchy-upto5-verify": "hierarchy --upto 5 --verify",
    "hierarchy-upto3-latex": "hierarchy --upto 3 --latex",
    "hierarchy-upto3-zero-verify": "hierarchy --upto 3 --constants zero --verify",
    "flow-seed1": "flow --seed 1 --const c",
    "bracket-readme": "bracket \"k1', k2'\" \"1/2*k1''' + 3*k1*k1' - 6*k2*k2', -k2''' - 3*k1*k2'\"",
    "bracket-nonzero": "bracket " + _NONZERO_PAIR,
    "bracket-nonzero-latex": "bracket --latex " + _NONZERO_PAIR,
    "simulate-nlie": _NLIE,
    "simulate-nlie-k2": _NLIE + " --k2-amplitude 0.2 --reconstruct --stride 400",
    "simulate-translation": "simulate --flow translation --reconstruct --stride 3 --n 64 "
                            "--dt 1e-3 --t-end 0.01 --out out",
    "simulate-fifth-order": "simulate --flow file --flow-file flow.txt --stencil central6 --n 64 "
                            "--length 40 --dt 1e-4 --t-end 0.02 --stride 50 --k2-amplitude 0.2 "
                            "--out out",
    "simulate-no-derivative": "simulate --flow file --flow-file noderiv.txt --n 32 --dt 1e-3 "
                              "--t-end 0.01 --out out",
    "simulate-paired": "simulate --flow file --flow-file paired.txt --n 32 --dt 1e-3 --t-end 0.01 "
                       "--stride 2 --k2-amplitude 0.2 --reconstruct --out out",
    "classify-x-p": "classify \"k1;k1;0;0\"",
    "classify-x-star-p": "classify \"k1^2;k1';-eps1*a*k1;0\"",
    "classify-t-p-lambda": "classify \"b;0;0;0\"",
}
# file name -> the flow it holds, written beside every command
FLOW_FILES = {"flow.txt": "k1^(5) + 10*k1*k1''', k2^(5) + 5*k1*k2'''\n",
              "noderiv.txt": "k1*k2 - k2, k1^2 - 3\n",
              "paired.txt": "k1 + k2*k2' - k1^2*k1'', k1*k2' - k2 + 3*k2''*k2'^2\n"}


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


def export(repo: str, revision: str, dest: str) -> str:
    """Write the tree of revision into an emptied dest; returns its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", revision + "^{commit}"], cwd=repo,
                            capture_output=True, text=True, check=True).stdout.strip()
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=repo,
                               stdout=subprocess.PIPE)
    try:
        untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    finally:
        archive.stdout.close()
        archive.wait()
    if untar.returncode != 0:
        raise RuntimeError("tar -x into %s exited with code %d" % (dest, untar.returncode))
    if archive.returncode != 0:
        raise RuntimeError("git archive %s exited with code %d" % (commit, archive.returncode))
    return commit


def run_outputs(tree: str, dest: str, commands: dict) -> None:
    """Run each named CLI command of tree in dest/<name>, emptied first, beside FLOW_FILES."""
    for name, argv in commands.items():
        where = os.path.join(dest, name)
        shutil.rmtree(where, ignore_errors=True)
        os.makedirs(where)
        for file_name, flow in FLOW_FILES.items():
            Path(where, file_name).write_text(flow)
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from nullflow.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *shlex.split(argv)], cwd=where, capture_output=True,
            env={**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(tree), "src")})
        Path(where, "stdout").write_bytes(done.stdout)
        Path(where, "exit").write_text("%d\n" % done.returncode)


def differing_files(base: str, head: str) -> list[str]:
    """One line per file that differs between two directories or is in one only."""
    def files(top: str) -> set:
        return {os.path.relpath(os.path.join(d, n), top) for d, _, ns in os.walk(top) for n in ns}

    was, now, lines = files(base), files(head), []
    for path in sorted(was | now):
        if path not in was or path not in now:
            lines.append("%s: only in %s" % (path, "base" if path in was else "head"))
        elif Path(base, path).read_bytes() != Path(head, path).read_bytes():
            lines.append("%s: differs" % path)
    return lines


def directory_trees(repo: str, commit: str) -> dict:
    """The git tree id of each top-level directory of commit."""
    listing = subprocess.run(["git", "ls-tree", commit], cwd=repo, capture_output=True,
                             text=True, check=True).stdout
    trees = {}
    for line in listing.splitlines():
        meta, name = line.split("\t", 1)
        _, kind, oid = meta.split()
        if kind == "tree":
            trees[name] = oid
    return trees


def sides_in_order(pair: int) -> tuple[str, str]:
    """Which side runs first in the given pair: base in even pairs, head in odd ones."""
    return ("base", "head") if pair % 2 == 0 else ("head", "base")


def compare(base: list, head: list, end_to_end: list) -> dict:
    """Each side's summary and, per metric, the change and wins of paired runs.

    base[i] and head[i] are the records (as run_once returns them) of pair
    i; end_to_end is BENCHMARK.json's list of {"name", "better", ...}.
    """
    if len(base) != len(head):
        raise ValueError("%d base runs against %d head runs" % (len(base), len(head)))
    sides = {"base": summarize(base), "head": summarize(head)}
    comparison = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        wins = {"base": 0, "head": 0, "ties": 0}
        for b, h in zip(base, head):
            gap = sign * (h["metrics"][name]["value"] - b["metrics"][name]["value"])
            wins["head" if gap < 0 else "base" if gap > 0 else "ties"] += 1
        was, now = sides["base"]["metrics"][name], sides["head"]["metrics"][name]
        comparison[name] = {
            "change": now["median"] / was["median"] - 1,
            "wins": wins,
            "iqr_apart": now["q3"] < was["q1"] or was["q3"] < now["q1"],
        }
    return {**sides, "comparison": comparison}


def report_lines(workload: str, result: dict) -> list[str]:
    """The printed form of one workload's compare result."""
    lines = []
    for name, c in result["comparison"].items():
        was, now = result["base"]["metrics"][name], result["head"]["metrics"][name]
        lines.append(
            "%s %s: base %.5g [%.5g, %.5g]  head %.5g [%.5g, %.5g]  %s  "
            "wins base %d head %d ties %d  IQRs %s"
            % (workload, name, was["median"], was["q1"], was["q3"], now["median"], now["q1"],
               now["q3"], "%+.1f%%" % (100 * c["change"]),
               c["wins"]["base"], c["wins"]["head"], c["wins"]["ties"],
               "apart" if c["iqr_apart"] else "overlap"))
    lines.append("%s every run correct: base %s, head %s; failed base %s, head %s"
                 % (workload, result["base"]["all_correct"], result["head"]["all_correct"],
                    result["base"]["failed"], result["head"]["failed"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision measured as the parent")
    parser.add_argument("--head", required=True, help="revision measured as the change")
    parser.add_argument("--scratch", required=True, help="directory for the two exported trees")
    parser.add_argument("--out", default=None, help="JSON file to write, e.g. BENCH_18.json")
    parser.add_argument("--seeds", help="comma-separated seeds, one per pair")
    parser.add_argument("--outputs", action="store_true",
                        help="compare the outputs of OUTPUT_COMMANDS instead of timing")
    args = parser.parse_args(argv)
    if not args.outputs and not args.seeds:
        parser.error("--seeds is required without --outputs")
    trees = {side: os.path.join(os.path.abspath(args.scratch), side) for side in ("base", "head")}
    commits = {side: export(HERE_REPO, getattr(args, side), trees[side]) for side in trees}
    if args.outputs:
        for tree in trees.values():
            run_outputs(tree, tree + "-outputs", OUTPUT_COMMANDS)
        lines = differing_files(trees["base"] + "-outputs", trees["head"] + "-outputs")
        print("\n".join(lines) or "no difference: %d commands compared" % len(OUTPUT_COMMANDS))
        return 1 if lines else 0
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(trees["base"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    summary = {side: {"revision": getattr(args, side), "commit": commits[side],
                      "trees": directory_trees(HERE_REPO, commits[side])} for side in trees}
    summary.update(seeds=seeds, seconds=spec["run_seconds"], workloads={})
    for workload in (w["name"] for w in spec["workloads"]):
        records = {"base": [], "head": []}
        for pair, seed in enumerate(seeds):
            for side in sides_in_order(pair):
                records[side].append(run_once(trees[side], workload, seed, spec["run_seconds"]))
                print("%s seed %d %s: %s" % (workload, seed, side,
                                             json.dumps(records[side][-1]["metrics"])), flush=True)
        result = compare(records["base"], records["head"], spec["end_to_end"])
        summary["workloads"][workload] = result
        print("\n".join(report_lines(workload, result)), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
