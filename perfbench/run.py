"""Benchmark for esqpt: fixed job lists run as separate esqpt processes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it uses the package in `src/`.
A run first does the workload's set-up in fresh processes, each with an empty
private ESQPT_CACHE_DIR (`import esqpt.cli`; for `spectra` also one cold
N = 50 diagonalization), up to three times within a set-up budget. The jobs
then run one after another (a closed loop with one client) and share the
last set-up's cache; ESQPT_THREADS is unset and BLAS keeps its default
threads. Whole passes of the job list repeat while the next one is expected
to end within --seconds; at least one pass runs. Every job's output is
checked. All files live in a private directory under `.perfbench_run/` in
the checkout and are removed at the end.

--trace 0 reports the end-to-end metrics (medians over set-ups and passes);
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from metrics import end_to_end, per_layer, trace_shares
from workloads import SETUP_DIAGONALIZE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20261017
SETUP_REPEATS = 3
SETUP_BUDGET_S = 10.0
JOB_TIMEOUT_S = 150.0


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


@dataclass
class JobResult:
    name: str
    proc: Proc
    problems: list

    @property
    def ok(self):
        return self.proc.returncode == 0 and not self.problems


@dataclass
class Pass:
    jobs: list = field(default_factory=list)
    bytes_out: int = 0
    trace_docs: list = field(default_factory=list)

    @property
    def wall_s(self):
        return sum(j.proc.wall_s for j in self.jobs)


def run_process(argv, env, cwd, log_stem):
    """Run one process to completion; wall time, CPU time and peak RSS from wait4."""
    out_path, err_path = Path(f"{log_stem}.out"), Path(f"{log_stem}.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no job running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode, out_path.read_text(), err_path.read_text())


def child_env(cache_dir):
    env = dict(os.environ)
    env.pop("ESQPT_THREADS", None)
    env["ESQPT_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def job_argv(job, seed, outdir, trace_file):
    return [sys.executable, str(HERE / "job.py"), trace_file, job.kind, *job.argv,
            "--seed", str(seed), "--output", str(outdir / job.output)]


def run_setups(workload, rundir):
    """Set-up processes until SETUP_REPEATS or the budget; returns (procs, cache of the last)."""
    procs, cache = [], None
    while True:
        if cache is not None:
            shutil.rmtree(cache)
        cache = rundir / f"cache{len(procs)}"
        cache.mkdir()
        argv = [sys.executable, str(HERE / "job.py"), "-", "setup",
                *SETUP_DIAGONALIZE.get(workload, ())]
        proc = run_process(argv, child_env(cache), rundir, rundir / f"setup{len(procs)}")
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited with {proc.returncode}: {proc.stderr[-2000:]}")
        procs.append(proc)
        spent = sum(p.wall_s for p in procs)
        if len(procs) == SETUP_REPEATS or spent + proc.wall_s > SETUP_BUDGET_S:
            return procs, cache


def run_pass(jobs, seed, rundir, cache, tag, traced):
    outdir, tracedir = rundir / f"out-{tag}", rundir / f"trace-{tag}"
    outdir.mkdir()
    tracedir.mkdir()
    result = Pass()
    for job in jobs:
        trace_file = str(tracedir / f"{job.name}.json") if traced else "-"
        proc = run_process(job_argv(job, seed, outdir, trace_file), child_env(cache), outdir,
                           rundir / f"{tag}-{job.name}")
        problems = [] if proc.returncode else job.check(job, str(outdir))
        result.jobs.append(JobResult(job.name, proc, problems))
        if traced and os.path.exists(trace_file):
            with open(trace_file) as fh:
                result.trace_docs.append(json.load(fh))
    result.bytes_out = sum(p.stat().st_size for p in outdir.iterdir())
    shutil.rmtree(outdir)
    shutil.rmtree(tracedir)
    return result


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git repository)"


def _read(path, default="unknown"):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def blas_info():
    """BLAS library as numpy was built with it, and its runtime thread count."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    maps = _read("/proc/self/maps", "")
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def environment(seed, setup_doc):
    import numpy as np
    import scipy

    cpuinfo = _read("/proc/cpuinfo", "")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    return {
        "backend": "numba" if setup_doc["use_numba"] else "numpy",
        "esqpt._kernels.USE_NUMBA": setup_doc["use_numba"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "ESQPT_THREADS": "unset for jobs (caller had "
                         f"{os.environ.get('ESQPT_THREADS', 'unset')})",
        "git_commit": git_commit(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed, passed to every job (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring budget; whole passes repeat while they fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "esqpt" / "cli.py").is_file():
        print(f"perfbench: no esqpt source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the output checks use the package's eval_H
    jobs = WORKLOADS[args.workload]
    rundir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    rundir.mkdir(parents=True)
    try:
        setups, cache = run_setups(args.workload, rundir)
        setup_docs = [json.loads(p.stdout.strip().splitlines()[-1]) for p in setups]
        if args.trace:
            passes = [run_pass(jobs, args.seed, rundir, cache, "base", traced=False),
                      run_pass(jobs, args.seed, rundir, cache, "traced", traced=True)]
            metrics = per_layer(passes[0], passes[1], setup_docs)
        else:
            passes, start = [], time.perf_counter()
            while True:
                passes.append(run_pass(jobs, args.seed, rundir, cache, f"p{len(passes)}",
                                       traced=False))
                if time.perf_counter() - start + passes[-1].wall_s > args.seconds:
                    break
            metrics = end_to_end(setups, passes)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass

    results = [j for p in passes for j in p.jobs]
    failed = sum(not j.ok for j in results)
    for j in results:
        status = "ok" if j.ok else f"FAILED (exit {j.proc.returncode})"
        print(f"job {j.name:18s} wall {j.proc.wall_s:8.3f} s  cpu {j.proc.cpu_s:8.3f} s  "
              f"rss {j.proc.rss_mb:7.1f} MB  {status}")
        for problem in j.problems[:5] or ([j.proc.stderr[-500:]] if not j.ok else []):
            print(f"    {problem}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        print("trace_shares " + json.dumps(trace_shares(passes[1], setups, setup_docs)))
    print("environment " + json.dumps(environment(args.seed, setup_docs[-1])))
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
