"""Self-check of the benchmark's output checks and metric list.

    python3 perfbench/selfcheck.py

Runs two short jobs (`spinodal`, and `boundary` on two lambda values) the
way a benchmark pass does, once as they are and once with one row of the
boundary table corrupted before its check. The clean pass must have no
failure; the corrupted pass must count exactly one failed job, which lowers
success_rate to 0.5. It also checks that BENCHMARK.json lists exactly the
metrics, units and directions that the benchmark reports. Exits 0 when all
of this holds.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import shutil
import sys

from metrics import END_TO_END, PER_LAYER, end_to_end
from run import ROOT, run_pass, run_setups
from workloads import WORKLOADS

SHORT_GRID = (0.4, 1.2)


def corrupt_first_row(check):
    """Check that first alters the last value of the table's first data row."""

    def corrupted(job, outdir):
        path = os.path.join(outdir, job.output)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][-1] = repr(float(rows[1][-1]) * 1.01 + 0.01)
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        return check(job, outdir)

    return corrupted


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"] + doc["per_layer"]]


def main():
    spinodal = WORKLOADS["classical-scan"][0]
    boundary = dataclasses.replace(
        next(j for j in WORKLOADS["classical-scan"] if j.name == "boundary"),
        argv=("boundary", "--beta0p", "1.7", "--lambda-start", "0.4", "--lambda-stop", "1.2",
              "--lambda-step", "0.8"),
        lambdas=SHORT_GRID,
    )
    bad = dataclasses.replace(boundary, check=corrupt_first_row(boundary.check))
    rundir = ROOT / ".perfbench_run" / f"selfcheck-{os.getpid()}"
    rundir.mkdir(parents=True)
    try:
        setups, cache = run_setups("classical-scan", rundir)
        clean = run_pass((spinodal, boundary), 1, rundir, cache, "clean", traced=False)
        corrupted = run_pass((spinodal, bad), 1, rundir, cache, "corrupted", traced=False)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass
    ok = True
    for name, result, want in (("clean", clean, 1.0), ("corrupted", corrupted, 0.5)):
        rate = end_to_end(setups, [result])["success_rate"]["value"]
        failed = [j.name for j in result.jobs if not j.ok]
        problems = [p for j in result.jobs for p in j.problems]
        print(f"{name} pass: failed jobs {failed}, success_rate {rate}, problems {problems}")
        ok &= rate == want
    declared = declared_metrics()
    reported = list(END_TO_END + PER_LAYER)
    if declared != reported:
        print("BENCHMARK.json metrics differ from the reported ones:",
              sorted(set(declared) ^ set(reported)))
        ok = False
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
