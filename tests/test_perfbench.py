"""The benchmark's job entry points still run against the package: every
name that `perfbench/job.py` and its span recorder look up must exist."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_job(*args):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave perfbench/ as it is
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "job.py"), *map(str, args)],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
