"""CLI subcommands, config handling, exit codes, artifact reproducibility."""

import argparse
import concurrent.futures
import functools
import json
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from esqpt import cli, density, quantum
from esqpt.io import _CHUNK, Table, fmt, write_csv, write_manifest, write_table
from esqpt.models import ModelParams

from conftest import DOMAIN_CORNERS, SQRT2

SQRT2_STR = "1.41421356"


def run_cli(tmp_path, *args):
    return cli.main([*args]), tmp_path


def read_lines(path):
    text = path.read_text()
    assert "\r" not in text
    return text.strip().split("\n")


def test_fmt():
    assert fmt(3) == "3"
    assert fmt(0.5) == "0.5"
    assert fmt(1.0 / 3.0) == "0.333333333333"
    assert fmt("x") == "x"


def test_write_csv_newlines(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b"], Table((np.array([1, 3]), [2.5, "z"])))
    assert p.read_bytes() == b"a,b\n1,2.5\n3,z\n"


def test_write_csv_matches_fmt_bytes(tmp_path):
    values = [True, np.bool_(False), 7, -3, np.int64(12), 10**20, np.float32(0.1),
              np.float32(float("nan")), 0.1, 1.0 / 3.0, -2.5e-17, 1e300, 4.0,
              np.float64(2.0 / 3.0), np.float64(-0.0), float("nan"),
              float("inf"), np.float64("-inf"), "first", "", "50%", "%d"]
    n = len(values)
    floats = np.array([0.1, 1.0 / 3.0, -2.5e-17, 1e300, 1e-300, 4.0, -0.0, float("nan"),
                       float("inf"), -float("inf"), 123456789012345.0] * 2)[:n]
    singles = np.array([0.1, -0.0, float("nan"), float("inf"), 1.0 / 3.0] * n, np.float32)[:n]
    # float arrays print through %.12g, integer arrays through %d, and bool,
    # object and string arrays and plain sequences through fmt
    arrays = [floats, singles, np.arange(-3, n - 3) * 2**40,
              np.arange(n, dtype=np.uint8), np.arange(n) % 3 == 0,
              np.array([10**20] + [0.5] * (n - 1)), np.array(["50%", "%d", "x"] * n)[:n]]
    blocks = [(values, *arrays, values[::-1]),
              (arrays[2], values[::-1], *arrays[::-1], floats),
              [[]] * 3,
              (),
              # more rows than one '%' call takes
              (np.repeat(floats, 100), (values * 100)[::-1])]
    p = tmp_path / "t.csv"
    write_csv(p, ["h1", "h2"], Table(*blocks))
    rows = [row for block in blocks for row in zip(*block)]
    assert len(rows) > 2 * _CHUNK
    expected = "h1,h2\n" + "".join(",".join(fmt(v) for v in row) + "\n" for row in rows)
    assert p.read_bytes() == expected.encode()


def test_table_is_its_blocks_rows():
    table = Table((np.array([0.5, 1.5]), np.arange(2), ["a", np.float64(2.5)]), [[]] * 3,
                  (np.broadcast_to(0.25, 1), np.array([7]), [None]))
    assert len(table) == 3
    rows = list(table)
    assert rows == [(0.5, 0, "a"), (1.5, 1, 2.5), (0.25, 7, None)]
    assert [type(v) for v in rows[0][:2]] == [float, int]
    with pytest.raises(ValueError, match="differ in length"):
        Table((np.arange(3), [1, 2]))


class Unprintable:
    def __str__(self):
        raise RuntimeError("cannot format this value")


@pytest.mark.parametrize("fmt_kind", ["csv", "json"])
def test_failed_write_leaves_no_data_file(tmp_path, fmt_kind):
    p = tmp_path / "t.csv"
    with pytest.raises((RuntimeError, TypeError)):
        write_table(p, ["a"], Table([[1, Unprintable()]]), fmt_kind)
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_the_previous_file(tmp_path):
    p = tmp_path / "t.csv"
    write_table(p, ["a"], Table([[1]]))
    with pytest.raises(RuntimeError):
        write_table(p, ["a"], Table([[2, Unprintable()]]))
    assert p.read_bytes() == b"a\n1\n"
    assert list(tmp_path.iterdir()) == [p]


def test_failed_manifest_leaves_no_file(tmp_path):
    p = tmp_path / "t.csv"
    with pytest.raises(TypeError):
        write_manifest(p, "spinodal", {"beta0p": object()}, None, 0.0)
    assert list(tmp_path.iterdir()) == []


def test_spinodal_subcommand_at_a_tiny_beta0p(tmp_path):
    # beta0'^2 underflows; lambda* takes its beta0' -> 0 limit 2 sqrt(2) / 3
    out = tmp_path / "spin.csv"
    assert cli.main(["spinodal", "--beta0p", "1e-200", "-o", str(out)]) == 0
    assert read_lines(out)[1] == f"1e-200,{fmt(2 * SQRT2 / 3)},2,0"


def test_spinodal_subcommand(tmp_path):
    out = tmp_path / "spin.csv"
    code = cli.main(["spinodal", "--beta0p", SQRT2_STR, "-o", str(out)])
    assert code == 0
    header, row = read_lines(out)
    assert header == "beta0p,spinodal,antispinodal,barrier"
    _, lo, hi, barrier = row.split(",")
    assert float(lo) == pytest.approx(0.707, abs=5e-3)
    assert float(hi) == pytest.approx(1.333, abs=5e-3)
    b = float(SQRT2_STR)
    assert float(barrier) == pytest.approx((math.sqrt(1.0 + b * b) - 1.0) ** 2 / 4.0, rel=1e-9)
    manifest = json.loads((tmp_path / "spin.csv.manifest.json").read_text())
    assert manifest["command"] == "spinodal"
    assert manifest["seed"] == 0
    assert manifest["inputs"]["beta0p"] == pytest.approx(float(SQRT2_STR))
    assert "numpy" in manifest["versions"]
    assert manifest["wall_time_s"] >= 0


def test_boundary_subcommand(tmp_path):
    out = tmp_path / "bd.csv"
    assert cli.main(["boundary", "--beta0p", "1.7", "--lambda", "2.0", "-o", str(out)]) == 0
    header, row = read_lines(out)
    assert header == "lambda,e_min,e_max"
    lam, lo, hi = map(float, row.split(","))
    assert (lam, lo, hi) == pytest.approx((2.0, 1.5, 2.0), abs=1e-5)


def test_spectrum_subcommand_u5(tmp_path):
    out = tmp_path / "spec.csv"
    code = cli.main(
        ["spectrum", "--n", "3", "--lambda", "0", "--beta0p", SQRT2_STR, "-o", str(out)]
    )
    assert code == 0
    lines = read_lines(out)
    assert lines[0] == "lambda,level_index,energy,slope,nd_expect"
    energies = [float(line.split(",")[2]) for line in lines[1:]]
    assert energies == pytest.approx([0.0, 4.0, 4.0], abs=1e-7)


def test_density_cut_reproducible(tmp_path):
    args = ["density-cut", "--beta0p", "1.7", "--lambda", "0.5",
            "--n-samples", "50000", "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["-o", str(a)]) == 0
    assert cli.main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert read_lines(a)[0] == "lambda,e_center,rho,drho_dE,mc_error"


def test_phase_diagram_bytes_do_not_depend_on_workers(tmp_path, monkeypatch):
    usable_cpus(monkeypatch, 3)
    args = ["phase-diagram", "--beta0p", "1.7", "--lambda-start", "0.4",
            "--lambda-stop", "2.0", "--lambda-step", "0.8", "--n-samples", "50000"]
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    monkeypatch.delenv("ESQPT_THREADS", raising=False)
    assert cli.main(args + ["-o", str(serial)]) == 0
    monkeypatch.setenv("ESQPT_THREADS", "2")
    assert cli.main(args + ["-o", str(pooled)]) == 0
    assert len(read_lines(serial)) == 1 + 3 * 300
    assert serial.read_bytes() == pooled.read_bytes()
    # 5 lambda values do not split evenly over 2 or 3 workers
    args[args.index("--lambda-step") + 1] = "0.4"
    outputs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("ESQPT_THREADS", threads)
        outputs.append(tmp_path / f"uneven{threads}.csv")
        assert cli.main(args + ["-o", str(outputs[-1])]) == 0
    assert len(read_lines(outputs[0])) == 1 + 5 * 300
    assert outputs[0].read_bytes() == outputs[1].read_bytes() == outputs[2].read_bytes()


def test_phase_diagram_blocks_equal_density_cuts(tmp_path):
    common = ["--beta0p", "1.7", "--n-samples", "30000", "--seed", "4"]
    pd = tmp_path / "pd.csv"
    assert cli.main(["phase-diagram", "--lambda-start", "0.4", "--lambda-stop", "2.0",
                     "--lambda-step", "0.4", *common, "-o", str(pd)]) == 0
    header, *rows = read_lines(pd)
    assert len(rows) == 5 * 300
    for i, lam in enumerate(["0.4", "0.8", "1.2", "1.6", "2.0"]):
        cut = tmp_path / f"cut{lam}.csv"
        assert cli.main(["density-cut", "--lambda", lam, *common, "-o", str(cut)]) == 0
        assert read_lines(cut) == [header] + rows[300 * i:300 * (i + 1)]


def test_lambda_grid_values_are_their_printed_numbers():
    default = cli.make_config(["boundary", "--beta0p", "1.7"]).lambdas
    assert default.tolist() == [i / 100 for i in range(321)]
    grid = cli.make_config(["boundary", "--beta0p", "1.7", "--lambda-start", "0.4",
                            "--lambda-stop", "2.0", "--lambda-step", "0.4"]).lambdas
    assert grid.tolist() == [0.4, 0.8, 1.2, 1.6, 2.0]


def lambda_grid(*flags):
    return cli.make_config(["boundary", "--beta0p", "1.7", *flags]).lambdas.tolist()


def test_lambda_grid_stops_at_the_last_step_that_does_not_pass_lambda_stop():
    # 0.35 does not divide [0, 1]: 1.05 would be on the second branch
    assert lambda_grid("--lambda-stop", "1", "--lambda-step", "0.35") == [0.0, 0.35, 0.7]
    assert lambda_grid("--lambda-step", "0.3")[-1] == 3.0
    # a step that divides the range keeps its last value (the benchmark grids)
    assert len(lambda_grid()) == 321
    assert len(lambda_grid("--lambda-step", "0.02")) == 161
    assert lambda_grid("--lambda-start", "0.1", "--lambda-stop", "2.9",
                       "--lambda-step", "0.4") == [0.1, 0.5, 0.9, 1.3, 1.7, 2.1, 2.5, 2.9]
    assert lambda_grid("--lambda-step", "0.8") == [0.0, 0.8, 1.6, 2.4, 3.2]


def test_phase_diagram_and_density_cut_compute_at_the_printed_lambda(tmp_path, monkeypatch):
    monkeypatch.delenv("ESQPT_THREADS", raising=False)
    computed = []
    scan = density.mc_density_scan

    def recording_scan(beta0p, lambdas, **kwargs):
        computed.append([float(lam) for lam in lambdas])
        return scan(beta0p, lambdas, **kwargs)

    monkeypatch.setattr(density, "mc_density_scan", recording_scan)
    common = ["--beta0p", "1.7", "--n-samples", "1000", "-o", str(tmp_path / "x.csv")]
    assert cli.main(["phase-diagram", "--lambda-start", "0.4", "--lambda-stop", "2.0",
                     "--lambda-step", "0.4", *common]) == 0
    assert cli.main(["density-cut", "--lambda", "1.2", *common]) == 0
    assert computed == [[0.4, 0.8, 1.2, 1.6, 2.0], [1.2]]


def test_lambda_step_below_the_printed_digits_is_a_domain_error(tmp_path, capsys):
    assert cli.main(["boundary", "--beta0p", "1.7", "--lambda-start", "1",
                     "--lambda-stop", "1.000000000001", "--lambda-step", "1e-13",
                     "-o", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (
        "esqpt: domain error: lambda step 1e-13 is below the output's 12 significant digits\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("step", ["5e-324", "1e-300", "1e-13"])
def test_a_lambda_step_far_below_the_printed_digits_is_refused_before_its_grid(
        tmp_path, capsys, step):
    # the grid would hold 1e13 values or more (or an infinite count)
    assert cli.main(["boundary", "--beta0p", "1.7", "--lambda-stop", "1", "--lambda-step", step,
                     "-o", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (
        f"esqpt: domain error: lambda step {float(step):g} is below the output's "
        "12 significant digits\n")
    assert list(tmp_path.iterdir()) == []
    # a grid of one value takes any step
    assert lambda_grid("--lambda-start", "1", "--lambda-stop", "1", "--lambda-step", step) == [1.0]


def usable_cpus(monkeypatch, n):
    """Let this process run on n CPUs, as cli counts them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class SerialPool:
    """Stands in for either executor: records which one was asked for and its
    max_workers, and the tasks it maps, and runs them in this thread; it
    starts nothing."""

    def __init__(self, asked, mapped, executor, max_workers):
        asked.append((executor, max_workers))
        self.mapped = mapped

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.mapped.extend(tasks)
        return map(fn, tasks)


@pytest.fixture
def pool_tasks(monkeypatch):
    """(asked, mapped): the (executor, max_workers) of every pool a job asks
    for, and every task those pools map; SerialPool stands in for both
    executors."""
    asked, mapped = [], []
    for executor in ("ThreadPoolExecutor", "ProcessPoolExecutor"):
        monkeypatch.setattr(concurrent.futures, executor,
                            functools.partial(SerialPool, asked, mapped, executor))
    return asked, mapped


@pytest.fixture
def pools(pool_tasks):
    """The (executor, max_workers) of every pool a job asks for."""
    return pool_tasks[0]


def thread_diagnostics(out):
    return json.loads(out.with_name(out.name + ".manifest.json").read_text())[
        "diagnostics"]["threads"]


@pytest.mark.parametrize("argv, workers", [
    (["phase-diagram", "--lambda-start", "0.4", "--lambda-stop", "2.0", "--lambda-step", "0.8",
      "--n-samples", "49153"], [("ThreadPoolExecutor", 4)]),
    (["phase-diagram", "--lambda-start", "0.4", "--lambda-stop", "2.0", "--lambda-step", "0.8",
      "--n-samples", "16385"], [("ThreadPoolExecutor", 2)]),
    (["density-cut", "--lambda", "0.5", "--n-samples", "16384"], []),
    (["oscillatory", "--lambda", "0.5", "--n", "4", "--n-samples", "32768"],
     [("ThreadPoolExecutor", 2)]),
], ids=["4-blocks", "2-blocks", "1-block", "oscillatory-2-blocks"])
def test_density_workers_are_capped_by_the_block_count(tmp_path, monkeypatch, pools, argv,
                                                        workers):
    # a block is 16 384 samples; the lambda count does not cap the workers
    usable_cpus(monkeypatch, 64)
    monkeypatch.setenv("ESQPT_THREADS", "64")
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--beta0p", "1.7", "-o", str(out)]) == 0
    assert pools == workers
    threads = thread_diagnostics(out)
    assert threads["workers"] == (workers[0][1] if workers else 1)
    assert threads["pool"] == ("threads" if workers else "serial")


@pytest.mark.parametrize("argv, executor", [
    (["phase-diagram", "--n-samples", "200000"], "ThreadPoolExecutor"),
    (["spectrum", "--n", "4"], "ThreadPoolExecutor"),
])
def test_workers_are_capped_by_the_usable_cpus(tmp_path, monkeypatch, pools, argv, executor):
    # never against a real pool: it would start all the threads asked for;
    # 200 000 samples are 13 blocks, 5 lambda values are 5 tasks
    usable_cpus(monkeypatch, 2)
    monkeypatch.setenv("ESQPT_THREADS", "100000")
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--beta0p", "1.7", "--lambda-start", "0.4", "--lambda-stop", "2.0",
                     "--lambda-step", "0.4", "-o", str(out)]) == 0
    assert pools == [(executor, 2)]
    assert thread_diagnostics(out)["workers"] == 2


def test_default_pools_are_threads_for_spectra_and_densities(tmp_path, monkeypatch, pools):
    usable_cpus(monkeypatch, 3)
    for v in cli.BLAS_THREAD_VARIABLES + ("ESQPT_THREADS",):
        monkeypatch.delenv(v, raising=False)
    grid = ["--lambda-start", "0.4", "--lambda-stop", "2.0", "--lambda-step", "0.4"]
    runs = [(["spectrum", "--n", "4", *grid], 3, "threads"),
            (["spectrum", "--n", "4", "--lambda", "0.5"], 1, "serial"),
            (["phase-diagram", "--n-samples", "2000", *grid], 1, "serial"),
            (["phase-diagram", "--n-samples", "40000", *grid], 3, "threads"),
            (["density-cut", "--n-samples", "20000", "--lambda", "0.5"], 2, "threads"),
            (["oscillatory", "--n", "4", "--n-samples", "40000", "--lambda", "0.5"], 3,
             "threads")]
    for i, (argv, workers, pool) in enumerate(runs):
        out = tmp_path / f"{i}.csv"
        assert cli.main([*argv, "--beta0p", "1.7", "-o", str(out)]) == 0
        threads = thread_diagnostics(out)
        assert (threads["workers"], threads["pool"]) == (workers, pool)
    assert pools == [("ThreadPoolExecutor", 3), ("ThreadPoolExecutor", 3),
                     ("ThreadPoolExecutor", 2), ("ThreadPoolExecutor", 3)]


def pool_config(lambdas, threads):
    return argparse.Namespace(lambdas=np.array(lambdas), threads=threads, workers=1)


def test_pool_map_parts(monkeypatch, pool_tasks):
    # one lambda value per task, results in grid order
    asked, mapped = pool_tasks
    usable_cpus(monkeypatch, 4)
    grid = [0.1, 0.2, 0.3, 0.4, 0.5]
    calls = []

    def fn(lam):
        calls.append((lam, threading.get_ident()))
        return 10 * lam

    cfg = pool_config(grid, 3)
    assert cli._pool_map(cfg, fn) == [10 * lam for lam in grid]
    assert asked == [("ThreadPoolExecutor", 3)]
    assert [float(lam) for lam in mapped] == grid
    assert (cfg.workers, cli._thread_diagnostics(cfg.workers)["pool"]) == (3, "threads")

    # one worker: the calling thread maps the grid, without the executors' module
    asked.clear()
    mapped.clear()
    calls.clear()
    monkeypatch.setitem(sys.modules, "concurrent.futures", None)
    cfg = pool_config(grid, 1)
    assert cli._pool_map(cfg, fn) == [10 * lam for lam in grid]
    assert calls == [(lam, threading.get_ident()) for lam in grid]
    assert (cfg.workers, cli._thread_diagnostics(cfg.workers)["pool"]) == (1, "serial")
    assert asked == mapped == []


def test_spectrum_builds_the_operators_once(tmp_path, monkeypatch):
    # the lambda-independent operators and labels of one (N, beta0p) serve every lambda
    monkeypatch.setenv("ESQPT_THREADS", "1")
    quantum._operators.cache_clear()
    labelled = []
    chain_blocks = quantum.chain_blocks
    monkeypatch.setattr(quantum, "chain_blocks", lambda n: labelled.append(n) or chain_blocks(n))
    assert cli.main(["spectrum", "--beta0p", "1.7", "--lambda-start", "0.4",
                     "--lambda-stop", "2.0", "--lambda-step", "0.4", "--n", "6",
                     "-o", str(tmp_path / "spec.csv")]) == 0
    assert quantum._operators.cache_info().misses == 1
    assert labelled == [6]


@pytest.mark.parametrize("cpus, variables, asked", [
    (2, {"OPENBLAS_NUM_THREADS": "2"}, []),
    (4, {"OPENBLAS_NUM_THREADS": "2"}, [("ThreadPoolExecutor", 2)]),
    (4, {"OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "3"}, []),
    (4, {"OMP_NUM_THREADS": "0", "MKL_NUM_THREADS": "two"}, [("ThreadPoolExecutor", 4)]),
    (2, {"OPENBLAS_NUM_THREADS": "2", "ESQPT_THREADS": "2"}, [("ThreadPoolExecutor", 2)]),
    (4, {"OPENBLAS_NUM_THREADS": "4", "ESQPT_THREADS": "8"}, [("ThreadPoolExecutor", 4)]),
    (1, {"ESQPT_THREADS": "2"}, []),
], ids=["blas2-cpus2", "blas2-cpus4", "blas3-cpus4", "blas-not-positive-cpus4",
        "esqpt2-blas2-cpus2", "esqpt8-blas4-cpus4", "esqpt2-cpus1"])
def test_default_spectrum_threads_count_the_blas_threads(tmp_path, monkeypatch, pools, cpus,
                                                         variables, asked):
    # the widest BLAS variable divides the CPUs; a value that is not a positive
    # integer counts as one thread; ESQPT_THREADS wins, capped by the CPUs
    usable_cpus(monkeypatch, cpus)
    for v in cli.BLAS_THREAD_VARIABLES + ("ESQPT_THREADS",):
        monkeypatch.delenv(v, raising=False)
    for v, value in variables.items():
        monkeypatch.setenv(v, value)
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--beta0p", "1.7", "--lambda-start", "0.4",
                     "--lambda-stop", "2.0", "--lambda-step", "0.4", "--n", "4",
                     "-o", str(out)]) == 0
    assert pools == asked
    threads = thread_diagnostics(out)
    assert threads["workers"] == (asked[0][1] if asked else 1)
    assert threads["pool"] == ("threads" if asked else "serial")


def test_spectrum_thread_pool_leaves_no_thread_running(tmp_path, monkeypatch):
    usable_cpus(monkeypatch, 2)
    monkeypatch.setenv("ESQPT_THREADS", "2")
    before = threading.active_count()
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--beta0p", "1.7", "--lambda-start", "0.4",
                     "--lambda-stop", "2.0", "--lambda-step", "0.4", "--n", "4",
                     "-o", str(out)]) == 0
    assert threading.active_count() == before
    threads = thread_diagnostics(out)
    assert (threads["workers"], threads["pool"]) == (2, "threads")


@pytest.mark.parametrize("argv", [
    ["density-cut", "--beta0p", "1.7", "--lambda", "0.5", "--n-samples", "50001"],
    ["phase-diagram", "--beta0p", "1.7", "--lambda-start", "0.4", "--lambda-stop", "2.0",
     "--lambda-step", "0.4", "--n-samples", "20000"],
    ["density-cut", "--beta0p", "4", "--lambda", "0", "--n-samples", "40000"],
    ["phase-diagram", "--beta0p", "4", "--lambda-start", "0", "--lambda-stop", "0.5",
     "--lambda-step", "0.5", "--n-samples", "40000"],
], ids=["uneven-blocks", "fewer-blocks-than-workers", "outside-window",
        "outside-window-grid"])
def test_density_bytes_do_not_depend_on_threads(tmp_path, monkeypatch, capsys, argv):
    # real threads on three usable CPUs; 50 001 samples are 4 blocks, the
    # last of 847 points; 20 000 samples are 2 blocks
    usable_cpus(monkeypatch, 3)
    for v in cli.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(v, raising=False)
    data, diag = [], []
    for threads in (None, "1", "2", "3"):
        if threads is None:
            monkeypatch.delenv("ESQPT_THREADS", raising=False)
        else:
            monkeypatch.setenv("ESQPT_THREADS", threads)
        out = tmp_path / f"{threads}.csv"
        assert cli.main([*argv, "-o", str(out)]) == 0
        data.append(out.read_bytes())
        diag.append(json.loads(out.with_name(out.name + ".manifest.json").read_text())[
            "diagnostics"])
    warnings = capsys.readouterr().err.splitlines()
    assert len(set(data)) == 1
    blocks = -(-int(argv[-1]) // density._BLOCK)
    assert [d.pop("threads")["workers"] for d in diag] == [min(w, blocks) for w in (3, 1, 2, 3)]
    assert all(d == diag[0] for d in diag)
    assert diag[0]["mc_draws"] == int(argv[-1])
    # every run warns alike, or none does
    assert len(warnings) == (4 if diag[0]["coverage_min"] < 1.0 else 0)
    assert len(set(warnings)) <= 1
    if argv[2] == "4":
        assert diag[0]["coverage_min"] < 0.5


def test_density_thread_pool_leaves_no_thread_running(tmp_path, monkeypatch):
    usable_cpus(monkeypatch, 2)
    monkeypatch.setenv("ESQPT_THREADS", "2")
    before = threading.active_count()
    out = tmp_path / "pd.csv"
    assert cli.main(["phase-diagram", "--beta0p", "1.7", "--lambda-start", "0.4",
                     "--lambda-stop", "2.0", "--lambda-step", "0.4", "--n-samples", "40000",
                     "-o", str(out)]) == 0
    assert threading.active_count() == before
    threads = thread_diagnostics(out)
    assert (threads["workers"], threads["pool"]) == (2, "threads")


def test_non_integer_threads_is_a_domain_error(tmp_path, monkeypatch, capsys, pools):
    for threads, message in [("abc", "must be an integer, got 'abc'"),
                             ("0", "must be at least 1, got 0"),
                             ("-3", "must be at least 1, got -3")]:
        monkeypatch.setenv("ESQPT_THREADS", threads)
        for argv in (["density-cut", "--lambda", "0.5", "--n-samples", "2000"],
                     ["spectrum", "--lambda", "0.5", "--n", "4"],
                     ["phase-diagram", "--lambda", "0.5", "--n-samples", "2000"],
                     ["oscillatory", "--lambda", "0.5", "--n", "4", "--n-samples", "2000"],
                     ["stationary", "--lambda", "0.5"],
                     ["boundary", "--lambda", "0.5"],
                     ["spinodal"],
                     ["flow", "--lambda", "0.5", "--n", "4"],
                     ["excited-surfaces", "--lambda", "0.5", "--n", "4"]):
            assert cli.main([*argv, "--beta0p", "1.7", "-o", str(tmp_path / "out.csv")]) == 2
            assert capsys.readouterr().err == f"esqpt: domain error: ESQPT_THREADS {message}\n"
            assert list(tmp_path.iterdir()) == []


def test_density_cut_warns_when_samples_leave_the_window(tmp_path, capsys):
    out = tmp_path / "cut.csv"
    assert cli.main(["density-cut", "--beta0p", "4", "--lambda", "0",
                     "--n-samples", "20000", "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("esqpt: warning: 1 of 1 lambda values")
    assert err.count("\n") == 1
    diag = json.loads((tmp_path / "cut.csv.manifest.json").read_text())["diagnostics"]
    assert diag["mc_samples"] == 20000
    assert diag["coverage_min"] < 0.5


def test_density_cut_inside_the_window_is_quiet(tmp_path, monkeypatch, capsys):
    # 20 000 samples are 2 blocks: 2 real threads on 2 usable CPUs
    usable_cpus(monkeypatch, 2)
    monkeypatch.setenv("ESQPT_THREADS", "2")
    out = tmp_path / "cut.csv"
    assert cli.main(["density-cut", "--beta0p", SQRT2_STR, "--lambda", "0.2",
                     "--n-samples", "20000", "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    diag = json.loads((tmp_path / "cut.csv.manifest.json").read_text())["diagnostics"]
    assert diag.pop("threads")["workers"] == 2
    assert diag == {"mc_samples": 20000, "mc_draws": 20000, "coverage_min": 1.0}


@pytest.mark.parametrize("threads, workers", [("1", 1), ("3", 3)])
def test_phase_diagram_records_samples_binned_and_drawn(tmp_path, monkeypatch, pools, threads,
                                                        workers):
    # every lambda bins the same 50 000 samples (4 blocks), drawn once and
    # shared by the workers
    usable_cpus(monkeypatch, 3)
    monkeypatch.setenv("ESQPT_THREADS", threads)
    out = tmp_path / "pd.csv"
    assert cli.main(["phase-diagram", "--beta0p", SQRT2_STR, "--lambda-start", "0.2",
                     "--lambda-stop", "0.6", "--lambda-step", "0.2", "--n-samples", "50000",
                     "-o", str(out)]) == 0
    diag = json.loads((tmp_path / "pd.csv.manifest.json").read_text())["diagnostics"]
    assert diag["threads"]["workers"] == workers
    assert diag["mc_samples"] == 150_000
    assert diag["mc_draws"] == 50_000


def test_manifest_without_mc_has_only_thread_diagnostics(tmp_path):
    out = tmp_path / "spin.csv"
    assert cli.main(["spinodal", "--beta0p", "1.7", "-o", str(out)]) == 0
    diag = json.loads((tmp_path / "spin.csv.manifest.json").read_text())["diagnostics"]
    assert list(diag) == ["threads"]
    assert diag["threads"]["workers"] == 1
    assert diag["threads"]["pool"] == "serial"
    assert list(diag["threads"]["blas"]) == list(cli.BLAS_THREAD_VARIABLES)


def fresh_env(**variables):
    """This process's environment without thread settings, plus `variables`."""
    env = {k: v for k, v in os.environ.items()
           if k not in cli.BLAS_THREAD_VARIABLES + ("ESQPT_THREADS",)}
    env.update(variables)
    return env


def run_python(code, *args, env):
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env=env)
    return proc.stdout.strip()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_cli_import_runs_blas_on_one_thread():
    code = ("import os, esqpt.cli; "
            "print(len(os.listdir('/proc/self/task')), "
            "[os.environ[v] for v in esqpt.cli.BLAS_THREAD_VARIABLES])")
    assert run_python(code, env=fresh_env()) == "1 ['1', '1', '1']"


@pytest.mark.parametrize("variables, before", [
    ({"OPENBLAS_NUM_THREADS": "2"}, ""),
    ({}, "import numpy; "),  # BLAS has read its settings: leave them
])
def test_cli_import_keeps_the_callers_blas_threads(variables, before):
    code = (before + "import os, esqpt.cli; "
            "print([os.environ.get(v) for v in esqpt.cli.BLAS_THREAD_VARIABLES], "
            "esqpt.cli.BLAS_THREADS_SET)")
    values = [variables.get(v) for v in cli.BLAS_THREAD_VARIABLES]
    assert run_python(code, env=fresh_env(**variables)) == f"{values} ()"


def test_cli_import_leaves_the_process_pool_unloaded():
    # the pool is imported only by a job that runs more than one worker
    code = ("import esqpt.cli, sys; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    assert run_python(code, env=fresh_env()) == "[]"


def test_serial_density_job_runs_without_a_pool(tmp_path):
    # one worker bins the sample in the calling thread; two load the thread
    # pool and no process pool (two usable CPUs whatever the host has)
    code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
            "import esqpt.cli; rc = esqpt.cli.main(sys.argv[1:]); "
            "print(rc, [m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules])")
    out = tmp_path / "cut.csv"
    argv = ["density-cut", "--beta0p", "1.7", "--lambda", "0.5", "--n-samples", "40000",
            "-o", str(out)]
    assert run_python(code, *argv, env=fresh_env(ESQPT_THREADS="1")) == "0 []"
    assert thread_diagnostics(out)["workers"] == 1
    assert run_python(code, *argv, env=fresh_env()) == "0 ['concurrent.futures']"
    assert thread_diagnostics(out)["workers"] == 2


def test_spectrum_bytes_do_not_depend_on_threads(tmp_path):
    # three usable CPUs whatever the host has, so that every pool width runs
    code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1, 2}; "
            "from esqpt import cli; sys.exit(cli.main(sys.argv[1:]))")
    args = ["spectrum", "--beta0p", "1.7", "--lambda-start", "0.2", "--lambda-stop", "1.8",
            "--lambda-step", "0.4", "--n", "20"]
    runs = {"serial": {"ESQPT_THREADS": "1"}, "default": {}, "pooled": {"ESQPT_THREADS": "2"},
            "three": {"ESQPT_THREADS": "3"}, "openblas-1": {"OPENBLAS_NUM_THREADS": "1"}}
    data, diag = {}, {}
    for name, variables in runs.items():
        out = tmp_path / f"{name}.csv"
        run_python(code, *args, "-o", str(out), env=fresh_env(**variables))
        data[name] = out.read_bytes()
        diag[name] = thread_diagnostics(out)
    assert len(read_lines(tmp_path / "serial.csv")) == 1 + 5 * quantum.basis_dimension(20)
    assert len(set(data.values())) == 1
    assert [d["workers"] for d in diag.values()] == [1, 3, 2, 3, 3]
    assert [d["pool"] for d in diag.values()] == ["serial"] + ["threads"] * 4
    pinned = {v: {"value": "1", "set_by_esqpt": True} for v in cli.BLAS_THREAD_VARIABLES}
    assert diag["serial"]["blas"] == diag["default"]["blas"] == diag["pooled"]["blas"] == pinned
    assert diag["openblas-1"]["blas"] == {
        "OPENBLAS_NUM_THREADS": {"value": "1", "set_by_esqpt": False},
        "OMP_NUM_THREADS": {"value": None, "set_by_esqpt": False},
        "MKL_NUM_THREADS": {"value": None, "set_by_esqpt": False},
    }


def test_stationary_subcommand(tmp_path):
    out = tmp_path / "st.csv"
    assert cli.main(["stationary", "--beta0p", SQRT2_STR, "--lambda", "2.5",
                     "--n-seeds", "2000", "-o", str(out)]) == 0
    lines = read_lines(out)
    assert lines[0] == "lambda,x,y,px,py,energy,r,branch,class"
    rows = [line.split(",") for line in lines[1:]]
    origin = [r for r in rows if abs(float(r[1])) < 1e-6 and abs(float(r[2])) < 1e-6]
    # 1e-7 slack: the truncated beta0p string enters as beta0p^4
    assert origin and float(origin[0][5]) == pytest.approx(3.0, abs=1e-6)
    assert origin[0][8] == "v"


def test_stationary_manifest_counts_the_census_by_class(tmp_path):
    # at beta0' = 2, lambda = 2.9 and 3: the three minima (i) and the maximum
    # (v) of the trivial momentum and one kinetic orbit of saddles (ii); at
    # lambda = 3 also the degenerate orbit of three born there
    out = tmp_path / "st.csv"
    assert cli.main(["stationary", "--beta0p", "2", "--lambda-start", "2.9",
                     "--lambda-stop", "3", "--lambda-step", "0.1", "-o", str(out)]) == 0
    census = json.loads((tmp_path / "st.csv.manifest.json").read_text())["diagnostics"]["census"]
    assert census == {"i": 6, "ii": 12, "iii": 0, "iv": 0, "v": 2, "degenerate": 3}
    classes = [line.rsplit(",", 1)[1] for line in read_lines(out)[1:]]
    assert census == {c: classes.count(c) for c in census}


def test_stationary_manifest_records_the_seed_used(tmp_path):
    # the census is exact: the seed reaches the manifest but not the points
    base = ["stationary", "--beta0p", "1.7", "--lambda", "0", "--n-seeds", "300"]
    runs = {"default": [], "1234": ["--seed", "1234"], "0": ["--seed", "0"]}
    data, seeds = {}, {}
    for name, extra in runs.items():
        out = tmp_path / f"{name}.csv"
        assert cli.main(base + extra + ["-o", str(out)]) == 0
        data[name] = out.read_bytes()
        seeds[name] = json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())["seed"]
    assert seeds == {"default": 0, "1234": 1234, "0": 0}
    assert data["default"] == data["1234"] == data["0"]
    # lambda = 0: the origin and the sphere of stationary points, once
    assert len(read_lines(tmp_path / "default.csv")) == 1 + 2


def test_cli_import_leaves_slow_scipy_modules_unloaded():
    # each of these adds 0.3 s or more to the start of every esqpt process
    code = (
        "import esqpt.cli, sys; "
        "print([m for m in ('scipy', 'scipy.ndimage', 'scipy.stats', 'sympy', 'numba') "
        "if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_stationary_run_leaves_scipy_stats_unloaded(tmp_path):
    # the exact census needs no quasi-random seeds
    code = (
        "import sys; from esqpt import cli; "
        "rc = cli.main(sys.argv[1:]); "
        "print(rc, 'scipy.stats' in sys.modules)"
    )
    args = ["stationary", "--beta0p", "1.7", "--lambda", "0.5", "--n-seeds", "500",
            "-o", str(tmp_path / "st.csv")]
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "0 False"


def test_cli_import_leaves_the_oracle_out():
    # the boson operator algebra is a test-only oracle and `classical` a checker's
    # domain-checked entry point; the library uses closed forms and `_kernels`
    code = (
        "import esqpt.cli, sys; "
        "print(sorted(m for m in sys.modules if m in ('fractions', 'esqpt.algebra', 'esqpt.fock',"
        " 'esqpt.classical') or m.split('.')[0] == 'oracle'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_flow_and_oscillatory_subcommands(tmp_path):
    flow = tmp_path / "flow.csv"
    assert cli.main(["flow", "--beta0p", "1.7", "--lambda", "0.5", "--n", "20",
                     "-o", str(flow)]) == 0
    assert read_lines(flow)[0] == "lambda,e_center,rho,jbar,phibar"
    osc = tmp_path / "osc.csv"
    assert cli.main(["oscillatory", "--beta0p", "1.7", "--lambda", "0.5", "--n", "20",
                     "--n-samples", "50000", "-o", str(osc)]) == 0
    assert read_lines(osc)[0] == "lambda,e_center,rho_osc"


def test_excited_surfaces_subcommand(tmp_path):
    out = tmp_path / "surf.csv"
    assert cli.main(["excited-surfaces", "--beta0p", SQRT2_STR, "--lambda", "1.0",
                     "--n", "20", "--n-gamma", "0,2", "--n-beta", "30",
                     "-o", str(out)]) == 0
    lines = read_lines(out)
    assert lines[0] == "lambda,n_gamma,beta,energy"
    assert len(lines) == 1 + 2 * 30
    side = tmp_path / "surf_stationary.csv"
    assert read_lines(side)[0] == "lambda,n_gamma,beta_star,e_star,kind"


@pytest.mark.parametrize("blocked", ["surf.csv", "surf_stationary.csv"])
def test_failed_excited_surfaces_leaves_no_data_file(tmp_path, blocked):
    # a directory in the way of either table fails the job with nothing written
    (tmp_path / blocked).mkdir()
    assert cli.main(["excited-surfaces", "--beta0p", SQRT2_STR, "--lambda", "1.0",
                     "--n", "10", "--n-gamma", "0", "--n-beta", "5",
                     "-o", str(tmp_path / "surf.csv")]) == 74
    assert [p.name for p in tmp_path.iterdir()] == [blocked]


def test_json_format(tmp_path):
    out = tmp_path / "bd.json"
    assert cli.main(["boundary", "--beta0p", "1.7", "--lambda", "0.0",
                     "--format", "json", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc[0]["lambda"] == 0.0
    assert doc[0]["e_min"] == pytest.approx(1.0, abs=1e-6)


# writes a 200 000-row table of arrays as JSON in a fresh process; prints how
# far the write raised the process's peak resident set (VmHWM, which unlike
# ru_maxrss is not inherited) over its resident set before, in MB, and whether
# the bytes are those of json.dump
JSON_TABLE = """
import json, sys
import numpy as np
from esqpt.io import Table, _jsonable, write_table
header = ["lambda", "level_index", "energy", "slope", "nd_expect"]
i = np.arange(200_000)
table = Table((0.01 * (i // 234), i % 234, i / 7.0, 1.0 / (i + 1), i * 0.5))
def status_kb(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key))
rss = status_kb("VmRSS:")
write_table(sys.argv[1], header, table, "json")
grown = (status_kb("VmHWM:") - rss) / 1024
records = [dict(zip(header, map(_jsonable, row))) for row in table]
with open(sys.argv[1]) as fh:
    print(grown, fh.read() == json.dumps(records, indent=1) + "\\n")
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS and VmHWM")
def test_json_table_streams_its_records(tmp_path):
    # the records are encoded a chunk at a time: the table's size does not
    # raise the peak memory
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", JSON_TABLE, str(tmp_path / "t.json")], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    assert float(out[0]) < 8.0
    assert out[1] == "True"


@pytest.mark.parametrize("count", [0, 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_json_table_chunks_join_as_one_list(tmp_path, count):
    table = Table((np.arange(count), [[0.5, {}]] * count, [None] * count))
    write_table(tmp_path / "t.json", ["a", "b", "c"], table, "json")
    records = [{"a": i, "b": [0.5, {}], "c": None} for i in range(count)]
    assert (tmp_path / "t.json").read_text() == json.dumps(records, indent=1) + "\n"


def test_config_file_and_flag_override(tmp_path):
    cfgfile = tmp_path / "job.cfg"
    cfgfile.write_text("beta0p = 1.7\nlambda = 2.0\nseed = 3  # comment\n")
    out = tmp_path / "bd.csv"
    assert cli.main(["boundary", "--config", str(cfgfile), "-o", str(out)]) == 0
    assert read_lines(out)[1].split(",")[0] == "2"
    # flags override the file
    assert cli.main(["boundary", "--config", str(cfgfile), "--lambda", "0.5",
                     "-o", str(out)]) == 0
    assert read_lines(out)[1].split(",")[0] == "0.5"
    manifest = json.loads((tmp_path / "bd.csv.manifest.json").read_text())
    assert manifest["seed"] == 3


def test_exit_codes(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--bogus"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 64
    # domain errors
    assert cli.main(["spectrum", "--lambda", "0"]) == 2  # beta0p missing
    assert cli.main(["spectrum", "--beta0p", "1.0", "--lambda", "0", "--n", "999",
                     "-o", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["boundary", "--beta0p", "-1.0", "--lambda", "0",
                     "-o", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["flow", "--beta0p", "1.0", "-o", str(tmp_path / "x.csv")]) == 2
    assert list(tmp_path.iterdir()) == []
    # unwritable output
    assert cli.main(["spinodal", "--beta0p", "1.0",
                     "-o", str(tmp_path / "missing" / "x.csv")]) == 74


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--lambda", "0", "--n", "0"], "N must be a positive integer, got 0"),
    (["spectrum", "--lambda", "0", "--n", "-3"], "N must be a positive integer, got -3"),
    (["excited-surfaces", "--lambda", "1", "--n", "0"], "N must be a positive integer, got 0"),
    (["density-cut", "--lambda", "0.2", "--e-bins", "0"], "bins must be at least 2, got 0"),
    (["density-cut", "--lambda", "0.2", "--ref-n", "-1"],
     "ref_N must be a positive integer, got -1"),
    (["phase-diagram", "--lambda-step", "0.8", "--ref-n", "0"],
     "ref_N must be a positive integer, got 0"),
    (["oscillatory", "--lambda", "1", "--e-bins", "1"], "bins must be at least 2, got 1"),
    (["flow", "--lambda", "0.5", "--n", "10", "--width", "-1"], "width must be positive, got -1.0"),
    (["flow", "--lambda", "0.5", "--n", "10", "--e-bins", "0"], "bins must be positive, got 0"),
    (["excited-surfaces", "--lambda", "1", "--n-beta", "0"],
     "n_beta must be a positive integer, got 0"),
    (["oscillatory", "--lambda", "1", "--n", "0"], "N must be a positive integer, got 0"),
    (["oscillatory", "--lambda", "1", "--n", "201"], "N = 201 exceeds the cap 200"),
    # an infinite width flattens every Gaussian to 0
    (["flow", "--lambda", "0.5", "--n", "10", "--width", "inf"], "width must be finite, got inf"),
    (["flow", "--lambda", "0.5", "--n", "10", "--width", "nan"], "width must be finite, got nan"),
    (["excited-surfaces", "--lambda", "0.5", "--n", str(10**160)],
     f"N = {10**160} is above 8.65e+118, past which the excited surfaces at beta0p = 1.7, "
     "lambda = 0.5 leave the float range"),
])
def test_exit_codes_for_bad_sizes(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert cli.main(argv + ["--beta0p", "1.7", "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"esqpt: domain error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_flow_tiny_width_warns_nothing(tmp_path, capsys):
    # the Gaussians of a 1e-300 width overflow in their exponent; exp(-inf) = 0
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["flow", "--beta0p", "1.7", "--lambda", "0.5", "--n", "10",
                         "--width", "1e-300", "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len(read_lines(out)) == 1 + density.DEFAULT_BINS


@pytest.mark.parametrize("message", [
    "Unable to allocate 23.8 GiB for an array with shape (3200000001,) and data type int64",
    "",
], ids=["numpy-message", "no-message"])
def test_memory_error_is_a_domain_error(tmp_path, capsys, monkeypatch, message):
    # a size too large to allocate, e.g. boundary --lambda-step 1e-9
    def runner(cfg):
        raise MemoryError(message)

    monkeypatch.setitem(cli.COMMANDS, "boundary", (runner,) + cli.COMMANDS["boundary"][1:])
    assert cli.main(["boundary", "--beta0p", "1.7", "-o", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"esqpt: domain error: {message or 'out of memory'}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("beta0p, lam, argv", [
    ("nan", "0.5", ["boundary", "--beta0p", "nan", "--lambda", "0.5"]),
    ("1.7", "nan", ["boundary", "--beta0p", "1.7", "--lambda", "nan"]),
    ("inf", "0", ["spinodal", "--beta0p", "inf"]),
    ("-inf", "0.5", ["stationary", "--beta0p=-inf", "--lambda", "0.5"]),
    ("1.7", "inf", ["spectrum", "--beta0p", "1.7", "--lambda", "inf", "--n", "4"]),
])
def test_non_finite_parameters_are_domain_errors(tmp_path, capsys, beta0p, lam, argv):
    with pytest.raises(ValueError, match="finite"):
        ModelParams(float(beta0p), float(lam))
    assert cli.main(argv + ["-o", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("esqpt: domain error: ") and "finite" in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_an_overflowing_hamiltonian_is_a_domain_error(tmp_path, capsys, command):
    # finite parameters whose energy scale would overflow the formulas: refused
    # by ModelParams before any work, without a numpy warning
    takes_lambda = "lambda" in cli.COMMANDS[command][2]
    for beta0p, lam in [(1.7, 1e308), (1e200, 0.5)] if takes_lambda else [(1e200, 0.0)]:
        argv = [command, "--beta0p", str(beta0p), "-o", str(tmp_path / "x.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv + (["--lambda", str(lam)] if takes_lambda else [])) == 2
        assert capsys.readouterr().err == (
            f"esqpt: domain error: beta0p = {beta0p:g} and lambda = {lam:g} give an energy "
            f"scale (1 + xi) max(1, beta0p)^4 above 1e+60\n")
        assert list(tmp_path.iterdir()) == []


# small sizes: at the domain's edge only the scale of the values matters
CORNER_ARGS = {
    "phase-diagram": ["--n-samples", "2000"],
    "density-cut": ["--n-samples", "2000"],
    "spectrum": ["--n", "20"],
    "flow": ["--n", "20"],
    "oscillatory": ["--n", "20", "--n-samples", "2000"],
    "excited-surfaces": ["--n", "1000000", "--n-beta", "20"],
}


@pytest.mark.parametrize("beta0p, lam", DOMAIN_CORNERS)
def test_every_command_runs_clean_at_the_edge_of_the_parameter_domain(tmp_path, capsys,
                                                                       beta0p, lam):
    for command, (_, _, options) in cli.COMMANDS.items():
        argv = [command, "--beta0p", repr(beta0p), "-o", str(tmp_path / f"{command}.csv"),
                *CORNER_ARGS.get(command, [])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv + (["--lambda", repr(lam)] if "lambda" in options else [])) == 0
        err = capsys.readouterr().err
        # the density commands' energies lie far above the Monte-Carlo window
        assert err == "" or (command in ("phase-diagram", "density-cut")
                             and err.startswith("esqpt: warning: ") and err.count("\n") == 1)


def test_a_failed_eigensolve_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # np.linalg.LinAlgError is a ValueError, but exits 3, not 2
    def eigh(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert cli.main(["spectrum", "--beta0p", "1.7", "--lambda", "0.5", "--n", "4",
                     "-o", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err == "esqpt: numerical failure: Eigenvalues did not converge\n"
    assert list(tmp_path.iterdir()) == []


def test_flags_a_command_does_not_read_are_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--beta0p", "1.7", "--lambda", "0", "--n-samples", "5",
                  "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        cli.main(["spinodal", "--beta0p", "1.7", "--lambda", "0.5",
                  "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 64
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["density-cut", "flow", "oscillatory"])
def test_single_lambda_commands_take_one_lambda_and_no_grid(tmp_path, capsys, command):
    help_text = cli.build_parser().commands[command].format_help()
    assert "--lambda " in help_text and "--lambda-" not in help_text
    out = tmp_path / "x.csv"
    for flag in ("--lambda-start", "--lambda-stop", "--lambda-step"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--beta0p", "1.7", "--lambda", "0.5", flag, "0.1",
                      "-o", str(out)])
        assert exc.value.code == 64
        assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err
    # no --lambda from the flags or the config file
    cfgfile = tmp_path / "job.cfg"
    cfgfile.write_text("beta0p = 1.7\n")
    assert cli.main([command, "--config", str(cfgfile), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"esqpt: domain error: {command} needs a --lambda value\n"
    assert list(tmp_path.iterdir()) == [cfgfile]


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "job.cfg"
    cfgfile.write_text("beta0p = 1.7\nlambda = 0.2\nn_sample = 1000\n")
    out = tmp_path / "cut.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["density-cut", "--config", str(cfgfile), "-o", str(out)])
    assert exc.value.code == 64
    assert "unknown config key 'n_sample'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfgfile]


def test_config_values_are_converted_like_flags(tmp_path, capsys):
    cfgfile = tmp_path / "job.cfg"
    cfgfile.write_text("beta0p = 1.7\nlambda = 0.2\nn = abc\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--config", str(cfgfile), "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 64
    assert "argument --n: invalid int value: 'abc'" in capsys.readouterr().err
    cfgfile.write_text("beta0p = 1.7\nlambda = 0.2\nformat = xml\n")
    assert cli.main(["boundary", "--config", str(cfgfile), "-o", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "esqpt: domain error: unknown format: xml\n"
    assert list(tmp_path.iterdir()) == [cfgfile]


def test_config_keys_take_either_separator(tmp_path):
    cfgfile = tmp_path / "job.cfg"
    cfgfile.write_text("beta0p = 1.7\nlambda = 0.2\nn-samples = 20000\nref_n = 30\n"
                       "e_bins = 40\n")
    out = tmp_path / "cut.csv"
    assert cli.main(["density-cut", "--config", str(cfgfile), "-o", str(out)]) == 0
    assert len(read_lines(out)) == 1 + 40
    inputs = json.loads((tmp_path / "cut.csv.manifest.json").read_text())["inputs"]
    assert (inputs["n_samples"], inputs["ref_N"], inputs["e_bins"]) == (20000, 30, 40)


def test_manifest_inputs_are_the_declared_options(tmp_path):
    out = tmp_path / "spin.csv"
    assert cli.main(["spinodal", "--beta0p", "1.7", "-o", str(out)]) == 0
    inputs = json.loads((tmp_path / "spin.csv.manifest.json").read_text())["inputs"]
    assert inputs == {"beta0p": 1.7, "output": str(out), "format": "csv"}
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--beta0p", "1.7", "--lambda-start", "0.5",
                     "--lambda-stop", "0.7", "--lambda-step", "0.1", "--n", "4",
                     "-o", str(out)]) == 0
    inputs = json.loads((tmp_path / "spec.csv.manifest.json").read_text())["inputs"]
    assert inputs["N"] == 4
    assert (inputs["lambda_start"], inputs["lambda_count"]) == (0.5, 3)
    assert inputs["lambda_stop"] == pytest.approx(0.7)
    assert not {"n_samples", "n_seeds", "lambda_step"} & set(inputs)


@pytest.mark.parametrize("n_seeds", ["0", "-5"])
def test_stationary_rejects_nonpositive_seed_counts(tmp_path, capsys, n_seeds):
    out = tmp_path / "st.csv"
    assert cli.main(["stationary", "--beta0p", "1.7", "--lambda", "0.5",
                     "--n-seeds", n_seeds, "-o", str(out)]) == 2
    assert capsys.readouterr().err.strip() == (
        "esqpt: domain error: n_seeds must be a positive integer"
    )
    assert not out.exists()


def test_lambda_range_validation(tmp_path):
    assert cli.main(["boundary", "--beta0p", "1.0", "--lambda-start", "1.0",
                     "--lambda-stop", "0.5", "-o", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["boundary", "--beta0p", "1.0", "--lambda-step", "0",
                     "-o", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("flag, value", [
    ("--lambda-stop", "inf"), ("--lambda-start", "nan"), ("--lambda-step", "inf"),
    ("--lambda-step", "nan"), ("--lambda-stop", "nan"),
])
def test_non_finite_lambda_grids_are_domain_errors(tmp_path, capsys, flag, value):
    assert cli.main(["boundary", "--beta0p", "1.7", flag, value,
                     "-o", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("esqpt: domain error: lambda grid") and "finite" in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_empty_n_gamma_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "surf.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["excited-surfaces", "--beta0p", "1.7", "--lambda", "1", "--n", "4",
                  "--n-gamma", "", "-o", str(out)])
    assert exc.value.code == 64
    assert "argument --n-gamma: expected at least one integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    cfgfile = tmp_path / "job.cfg"
    cfgfile.write_text("beta0p = 1.7\nlambda = 1\nn = 4\nn_gamma =\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["excited-surfaces", "--config", str(cfgfile), "-o", str(out)])
    assert exc.value.code == 64
    assert "argument --n-gamma: expected at least one integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfgfile]
