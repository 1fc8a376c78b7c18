"""Entry point of one benchmark process: a set-up step or one esqpt job.

    python3 perfbench/job.py TRACE_FILE cli ARGS...          # esqpt ARGS...
    python3 perfbench/job.py TRACE_FILE borderlines ARGS...  # trace_borderlines
    python3 perfbench/job.py - setup [BETA0P LAMBDA N]       # import, diagonalize

TRACE_FILE `-` runs untraced: `cli` then does exactly what the `esqpt`
console script does. Otherwise the span recorder is installed after
`import esqpt.cli` and its spans are written to TRACE_FILE when the job ends.
The set-up step prints one JSON line with its import and diagonalization
times and the backend it used.
"""

from __future__ import annotations

import json
import os
import sys
import time


def borderlines(argv):
    """Library job: stationary.trace_borderlines over a lambda grid, to JSON."""
    import argparse

    import numpy as np
    from esqpt import stationary

    parser = argparse.ArgumentParser(prog="job.py borderlines")
    for flag in ("--beta0p", "--lambda-start", "--lambda-stop", "--lambda-step"):
        parser.add_argument(flag, type=float, required=True)
    parser.add_argument("--n-seeds", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)
    n = int(round((args.lambda_stop - args.lambda_start) / args.lambda_step)) + 1
    grid = args.lambda_start + args.lambda_step * np.arange(n)
    curves = stationary.trace_borderlines(
        args.beta0p, grid, n_seeds=args.n_seeds, seed=args.seed, include_boundary=False
    )
    doc = {
        "kinetic_borderlines": stationary.kinetic_borderline_count(curves),
        "curves": [
            {"branch": c.branch, "index_r": str(c.index_r), "lambdas": len(c.lambdas)}
            for c in curves
        ],
    }
    with open(args.output, "w") as fh:
        json.dump(doc, fh)
    return 0


def setup(argv):
    import esqpt._kernels

    t0 = time.perf_counter()
    doc = {"diagonalize_s": 0.0, "use_numba": bool(esqpt._kernels.USE_NUMBA)}
    if argv:
        from esqpt import quantum
        from esqpt.models import ModelParams

        beta0p, lam, n = argv
        quantum.diagonalize(ModelParams(float(beta0p), float(lam)), int(n))
        doc["diagonalize_s"] = time.perf_counter() - t0
    print(json.dumps(doc))
    return 0


def main():
    trace_file, kind, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import esqpt.cli

    import_s = time.perf_counter() - t0
    if kind == "setup":
        return setup(argv)
    run = esqpt.cli.main if kind == "cli" else borderlines
    if trace_file == "-":
        return run(argv)
    from tracer import Recorder

    recorder = Recorder(os.path.basename(trace_file).rsplit(".", 1)[0])
    recorder.install()
    try:
        return run(argv)
    finally:
        recorder.dump(trace_file, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
