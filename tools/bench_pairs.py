"""Alternating benchmark runs of a parent revision and of this working tree.

    python tools/bench_pairs.py PARENT_REV --workload W [--workload W2 ...]
                                [--pairs 10] [--seed S] [--seconds 20] [--json OUT]

The parent's `src` and `perfbench` (`git archive PARENT_REV`) and copies of
the working tree's are placed once in two sibling temporary directories whose
paths have the same length: the path length alone moves `setup_rss_mb`.
The workloads run in turn, each its `--pairs` pairs. Each pair runs
`perfbench/run.py --workload W` once on each side, the parent first in
odd-numbered pairs and the change first in even-numbered ones. A run that
reports `"correct": false` stops the comparison (exit 1).

For each workload and each end-to-end metric of BENCHMARK.json the report
gives each side's median and exclusive quartiles, the relative change of the
medians, the pairs the change wins (ties count for neither side; the
metric's `better` gives the direction), whether a gain claim holds (wins in
at least nine tenths of the pairs, and a median improvement larger than the
parent's quartile range) and whether the change is worse than the parent by
more than the metric's bound, relative to the parent's median. A metric is
`unresolved` when the parent's quartile range, relative to its median, is
wider than the bound, unless every run of the change beats every run of the
parent: the bound cannot then tell the change from the parent's own spread.
The report then attributes each workload's change to its jobs: from the
`job NAME wall W s cpu C s` lines that `perfbench/run.py` prints, one per
job of each pass, it gives each job's median wall and CPU time over all the
runs of a side, and the relative change of the medians.
--json writes the comparison of every workload in the `workloads` shape of
BENCH_*.json, each metric with its `claim`, `beyond_bound` and `unresolved`
verdicts, and the job medians under `jobs`. Nothing is written in the
repository, and the temporary directories are removed at the end.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "perfbench")
SIDES = ("parent", "change")  # equal lengths: the two trees' paths are as long
JOB_LINE = re.compile(r"job (\S+) +wall +(\S+) s +cpu +(\S+) s")


def quartiles(values):
    """(q1, q3) by the exclusive method; a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return q1, q3


def relative(parent, change):
    """(change - parent) / |parent|, signed infinity from a zero parent."""
    if parent:
        return (change - parent) / abs(parent)
    return 0.0 if change == parent else math.copysign(math.inf, change - parent)


def compare(parent_runs, change_runs, better, bound):
    """One metric's runs on both sides, paired by position, as in BENCH_*.json,
    with the claim rule and the bound check."""
    sign = 1.0 if better == "lower" else -1.0  # > 0 where the change is better
    parent, change = statistics.median(parent_runs), statistics.median(change_runs)
    q1, q3 = quartiles(parent_runs)
    change_vs_parent = relative(parent, change)
    spread = (q3 - q1) / abs(parent) if parent else 0.0 if q3 == q1 else math.inf
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent_runs, change_runs))
    return {
        "bound": bound,
        "parent": parent,
        "parent_iqr": [q1, q3],
        "parent_runs": list(parent_runs),
        "change": change,
        "change_iqr": list(quartiles(change_runs)),
        "change_runs": list(change_runs),
        "change_vs_parent": change_vs_parent,
        "change_wins": wins,
        "claim": 10 * wins >= 9 * len(parent_runs) and sign * (parent - change) > q3 - q1,
        "beyond_bound": sign * change_vs_parent > bound,
        "unresolved": spread > bound and not all(
            sign * (p - c) > 0 for p in parent_runs for c in change_runs),
    }


def job_times(stdout):
    """{job: [(wall_s, cpu_s) of each pass]} from the job lines of a run's output."""
    jobs = {}
    for match in map(JOB_LINE.match, stdout.splitlines()):
        if match:
            jobs.setdefault(match[1], []).append((float(match[2]), float(match[3])))
    return jobs


def compare_jobs(parent_jobs, change_jobs):
    """{job: {wall_s, cpu_s: {parent, change, change_vs_parent}}} of the median
    times of each job that both sides ran, in the parent's order."""
    out = {}
    for job, parent_times in parent_jobs.items():
        if job in change_jobs:
            out[job] = {}
            for i, name in enumerate(("wall_s", "cpu_s")):
                parent, change = (statistics.median(t[i] for t in times)
                                  for times in (parent_times, change_jobs[job]))
                out[job][name] = {"parent": parent, "change": change,
                                  "change_vs_parent": relative(parent, change)}
    return out


def run_pairs(run, pairs):
    """{side: [metrics of each run]} over `pairs` pairs of run(side), the parent
    first in odd-numbered pairs; stops at the first incorrect run."""
    metrics = {side: [] for side in SIDES}
    for pair in range(1, pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            doc = run(side)
            if not doc["correct"]:
                raise RuntimeError(f"pair {pair}: the {side} run is not correct: "
                                   f"{doc['failed']} of {doc['attempted']} jobs failed")
            metrics[side].append(doc["metrics"])
    return metrics


def prepare(parent_rev, workdir):
    """The parent's and the working tree's `src` and `perfbench` under workdir."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", parent_rev,
                              *TREES], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(workdir / "parent", filter="data")
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".perfbench_run", "*.egg-info")
    for tree in TREES:
        shutil.copytree(ROOT / tree, workdir / "change" / tree, ignore=ignore)


def run_benchmark(tree, workload, seed, seconds):
    """One `perfbench/run.py` run in tree; its closing JSON line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"perfbench/run.py in {tree} exited with {proc.returncode}: "
                           f"{proc.stderr[-1000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["jobs"] = job_times(proc.stdout)
    return doc


def report(workload, comparison, pairs, jobs):
    print(workload)
    print(f"{'metric':14s} {'parent median [q1, q3]':>28s} {'change median [q1, q3]':>28s} "
          f"{'change':>8s} {'wins':>6s} claim beyond-bound unresolved")
    for name, m in comparison.items():
        sides = ["%.4g [%.4g, %.4g]" % (m[side], *m[f"{side}_iqr"]) for side in SIDES]
        print(f"{name:14s} {sides[0]:>28s} {sides[1]:>28s} {m['change_vs_parent']:+8.1%} "
              f"{m['change_wins']:>3d}/{pairs:<2d} {'yes' if m['claim'] else 'no':5s} "
              f"{'yes' if m['beyond_bound'] else 'no':12s} {'yes' if m['unresolved'] else 'no'}")
    print(f"{'job':18s} {'parent wall':>12s} {'change wall':>12s} {'change':>8s} "
          f"{'parent cpu':>12s} {'change cpu':>12s} {'change':>8s}")
    for job, times in jobs.items():
        print(f"{job:18s} " + " ".join(
            f"{t['parent']:12.3f} {t['change']:12.3f} {t['change_vs_parent']:+8.1%}"
            for t in (times["wall_s"], times["cpu_s"])))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_rev", help="git revision of the parent")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload to compare; repeat for more")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, help="workload seed (default: perfbench's)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--json", type=Path, help="write the comparison here")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {}
    jobs = {workload: {side: {} for side in SIDES} for workload in args.workload}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        workdir = Path(tmp)
        try:
            prepare(args.parent_rev, workdir)

            def run(workload, side):
                doc = run_benchmark(workdir / side, workload, args.seed, args.seconds)
                for job, times in doc["jobs"].items():
                    jobs[workload][side].setdefault(job, []).extend(times)
                wall = doc["metrics"]["wall_s"]["value"]
                print(f"{workload} {side} wall_s {wall:.4g}", file=sys.stderr)
                return doc

            for workload in args.workload:
                runs[workload] = run_pairs(functools.partial(run, workload), args.pairs)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            return 1

    workloads = {
        workload: {
            m["name"]: compare([r[m["name"]]["value"] for r in sides["parent"]],
                               [r[m["name"]]["value"] for r in sides["change"]],
                               m["better"], m["bound"])
            for m in end_to_end
        }
        for workload, sides in runs.items()
    }
    jobs = {workload: compare_jobs(*sides.values()) for workload, sides in jobs.items()}
    for workload, comparison in workloads.items():
        report(workload, comparison, args.pairs, jobs[workload])
    if args.json:
        args.json.write_text(json.dumps({"workloads": workloads, "jobs": jobs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
