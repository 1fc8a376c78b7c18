"""The benchmark's job entry points still run against the package: every
name that `perfbench/job.py` and its span recorder look up must exist, and
the census jobs pass the benchmark's own output checks."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args, cwd=ROOT):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave perfbench/ as it is
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_job(*args):
    return run_python(ROOT / "perfbench" / "job.py", *args)


def test_benchmark_jobs_run_against_the_package(tmp_path):
    # traced: the recorder wraps every function that tracer.SPANS and LEAVES name
    run_job(tmp_path / "t.json", "cli", "spinodal", "--beta0p", "1.7", "-o", tmp_path / "s.csv")
    trace = json.loads((tmp_path / "t.json").read_text())
    assert "stationary.spinodal_points" in [span[0] for span in trace["spans"]]
    assert (tmp_path / "s.csv").is_file()

    run_job("-", "borderlines", "--beta0p", "1.7", "--lambda-start", "0.4",
            "--lambda-stop", "0.6", "--lambda-step", "0.1", "--n-seeds", "10", "--seed", "0",
            "--output", tmp_path / "b.json")
    assert "kinetic_borderlines" in json.loads((tmp_path / "b.json").read_text())

    assert json.loads(run_job("-", "setup"))["use_numba"] is False


def test_traced_spectrum_job_records_every_assembly(tmp_path, monkeypatch):
    # every lambda's diagonalize and its H assembly are spans, and the table one write
    monkeypatch.setenv("ESQPT_THREADS", "1")
    run_job(tmp_path / "t.json", "cli", "spectrum", "--beta0p", "1.7", "--n", "10",
            "--lambda-start", "0.2", "--lambda-stop", "1.8", "--lambda-step", "0.4",
            "-o", tmp_path / "spec.csv")
    names = [span[0] for span in json.loads((tmp_path / "t.json").read_text())["spans"]]
    assert names.count("quantum.diagonalize") == 5
    assert names.count("quantum.build_hamiltonian") == 5
    assert names.count("io.write_table") == 1


def test_traced_table_rows_are_the_data_lines_written(tmp_path):
    # io.write_table.rows is the len of the table each runner hands the writer
    jobs = {
        "phase-diagram": ("--beta0p", "1.7", "--lambda-start", "0.4", "--lambda-stop", "0.8",
                          "--lambda-step", "0.2", "--n-samples", "20000"),
        "spectrum": ("--beta0p", "1.7", "--n", "10", "--lambda-start", "0.2",
                     "--lambda-stop", "1.8", "--lambda-step", "0.4"),
    }
    lines = {}
    for command, args in jobs.items():
        out, trace = tmp_path / f"{command}.csv", tmp_path / f"{command}.json"
        run_job(trace, "cli", command, *args, "-o", out)
        lines[command] = len(out.read_text().splitlines()) - 1  # less the header
        rows = [span[5]["rows"] for span in json.loads(trace.read_text())["spans"]
                if span[0] == "io.write_table"]
        assert rows == [lines[command]]
    assert lines["phase-diagram"] == 3 * 300


# the runner's own job command line, environment and seed, and each job's check
CHECK_JOBS = textwrap.dedent("""
    import json, sys
    from pathlib import Path
    import run, workloads
    outdir, problems = Path(sys.argv[1]), {}
    for job in workloads.WORKLOADS["classical-scan"]:
        if job.name in sys.argv[2:]:
            argv = run.job_argv(job, run.DEFAULT_SEED, outdir, "-")
            proc = run.run_process(argv, run.child_env(outdir), outdir, outdir / job.name)
            problems[job.name] = ([f"exit {proc.returncode}: {proc.stderr[-500:]}"]
                                  if proc.returncode else job.check(job, outdir))
    print(json.dumps(problems))
""")


def test_classical_scan_census_jobs_pass_the_benchmark_checks(tmp_path):
    # a census whose outputs the benchmark would refuse fails here first
    jobs = ["stationary", "stationary-l0", "trace-borderlines"]
    out = run_python("-c", CHECK_JOBS, tmp_path, *jobs, cwd=ROOT / "perfbench")
    assert json.loads(out) == {job: [] for job in jobs}


# every CLI job's command line, as the runner builds it, through the esqpt parser
PARSE_JOBS = textwrap.dedent("""
    import json, sys
    from pathlib import Path
    import run, workloads
    from esqpt import cli
    parsed = {}
    for jobs in workloads.WORKLOADS.values():
        for job in jobs:
            if job.kind == "cli":
                argv = run.job_argv(job, run.DEFAULT_SEED, Path(sys.argv[1]), "-")
                assert argv[3] == "cli", argv  # job.py TRACE_FILE cli ARGS...
                try:
                    parsed[job.name] = sorted(cli.make_config(argv[4:]).inputs)
                except SystemExit as exc:
                    parsed[job.name] = f"exit {exc.code}"
    print(json.dumps(parsed))
""")


def test_every_benchmark_command_line_parses(tmp_path):
    # a CLI change that drops a flag the benchmark passes fails here, not in its run
    parsed = json.loads(run_python("-c", PARSE_JOBS, tmp_path, cwd=ROOT / "perfbench"))
    assert len(parsed) == 10  # all but the trace-borderlines library call
    refused = {name: v for name, v in parsed.items() if isinstance(v, str)}
    assert refused == {}
    for name in ("density-cut", "flow", "oscillatory"):
        assert {"lambda_start", "lambda_stop", "lambda_count"} <= set(parsed[name])
