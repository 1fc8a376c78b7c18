"""tools/bench_pairs.py: its statistics on fixed numbers, the order of its
runs, and the two trees it compares. No benchmark runs here."""

import importlib.util
import json
import subprocess

import pytest

from conftest import ROOT

# density-map wall_s of ten alternating pairs (BENCH_27.json), parent then change
PARENT = [3.0361, 2.6329, 2.6826, 2.5716, 2.4999, 2.7313, 2.9016, 2.387, 2.3631, 2.2197]
CHANGE = [2.1618, 2.0409, 2.0485, 2.1262, 2.0275, 1.9095, 1.8243, 1.7391, 1.8962, 1.9638]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles_are_exclusive(tool):
    assert tool.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 8.25)
    assert tool.quartiles([4.0]) == (4.0, 4.0)


def test_a_gain_in_every_pair_beyond_the_parent_spread_is_a_claim(tool):
    m = tool.compare(PARENT, CHANGE, "lower", 0.24)
    assert m["parent"] == pytest.approx(2.60225)
    assert m["change"] == pytest.approx(1.99565)
    assert m["parent_iqr"] == pytest.approx([2.381025, 2.773875])
    assert m["change_iqr"] == pytest.approx([1.878225, 2.067925])
    assert m["change_vs_parent"] == pytest.approx(1.99565 / 2.60225 - 1)
    assert (m["change_wins"], m["claim"], m["beyond_bound"]) == (10, True, False)
    assert (m["parent_runs"], m["change_runs"]) == (PARENT, CHANGE)

    # the other way round the change is 30% worse: beyond a 0.24 bound, not at 0.35
    m = tool.compare(CHANGE, PARENT, "lower", 0.24)
    assert (m["change_wins"], m["claim"], m["beyond_bound"]) == (0, False, True)
    assert tool.compare(CHANGE, PARENT, "lower", 0.35)["beyond_bound"] is False


def test_nine_wins_within_the_parent_spread_are_no_claim(tool):
    parent = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
    change = [p - 0.01 for p in parent[:9]] + [3.0]
    m = tool.compare(parent, change, "lower", 0.24)
    assert m["change_wins"] == 9
    assert m["claim"] is False  # the medians differ by 0.01, the parent's IQR is 1.0
    far = [p - 1.5 for p in parent[:9]] + [3.0]
    assert tool.compare(parent, far, "lower", 0.24)["claim"] is True
    assert tool.compare(parent, far[:8] + [3.0, 3.0], "lower", 0.24)["claim"] is False


def test_ties_count_for_neither_side_and_higher_is_better(tool):
    m = tool.compare([1.0] * 4, [1.0] * 4, "higher", 0.01)
    assert (m["change_wins"], m["change_vs_parent"], m["claim"], m["beyond_bound"]) == (
        0, 0.0, False, False)
    m = tool.compare([1.0] * 4, [1.0, 0.995, 0.995, 1.0], "higher", 0.01)
    assert (m["change_wins"], m["beyond_bound"]) == (0, False)
    assert m["change_vs_parent"] == pytest.approx(-0.0025)
    m = tool.compare([1.0] * 4, [0.98] * 4, "higher", 0.01)
    assert m["beyond_bound"] is True
    assert tool.compare([0.0] * 4, [0.5] * 4, "lower", 0.25)["beyond_bound"] is True
    assert tool.compare([0.9] * 4, [1.0] * 4, "higher", 0.01)["change_wins"] == 4


def test_pairs_alternate_and_stop_at_an_incorrect_run(tool):
    order = []

    def run(side):
        order.append(side)
        return {"correct": True, "metrics": {"wall_s": {"value": len(order)}}}

    runs = tool.run_pairs(run, 3)
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    assert [r["wall_s"]["value"] for r in runs["parent"]] == [1, 4, 5]
    assert [r["wall_s"]["value"] for r in runs["change"]] == [2, 3, 6]

    def failing(side):
        order.append(side)
        correct = len(order) < 3
        return {"correct": correct, "attempted": 11, "failed": int(not correct), "metrics": {}}

    order.clear()
    with pytest.raises(RuntimeError, match="pair 2: the change run is not correct"):
        tool.run_pairs(failing, 10)
    assert order == ["parent", "change", "change"]


def test_each_workload_runs_its_pairs_in_turn_on_trees_prepared_once(tool, tmp_path,
                                                                     monkeypatch):
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    prepared, ran = [], []
    monkeypatch.setattr(tool, "prepare", lambda rev, workdir: prepared.append(rev))

    def run_benchmark(tree, workload, seed, seconds):
        ran.append((tree.name, workload))
        return {"correct": True, "metrics": {name: {"value": len(ran)} for name in names},
                "jobs": {}}

    monkeypatch.setattr(tool, "run_benchmark", run_benchmark)
    out = tmp_path / "pairs.json"
    assert tool.main(["HEAD", "--workload", "spectra", "--workload", "density-map",
                      "--pairs", "2", "--json", str(out)]) == 0
    assert prepared == ["HEAD"]
    order = ["parent", "change", "change", "parent"]
    assert ran == [(side, w) for w in ("spectra", "density-map") for side in order]
    workloads = json.loads(out.read_text())["workloads"]
    assert list(workloads) == ["spectra", "density-map"]
    for comparison, first in zip(workloads.values(), (1, 5)):
        assert list(comparison) == names
        for m in comparison.values():
            assert m["parent_runs"] == [first, first + 3]
            assert m["change_runs"] == [first + 1, first + 2]


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs the git checkout")
def test_both_trees_sit_at_paths_of_equal_length(tool, tmp_path):
    tool.prepare("HEAD", tmp_path)
    trees = [tmp_path / side for side in tool.SIDES]
    assert len(str(trees[0])) == len(str(trees[1]))
    for tree in trees:
        assert sorted(p.name for p in tree.iterdir()) == ["perfbench", "src"]
        assert (tree / "perfbench" / "run.py").is_file()
        assert (tree / "src" / "esqpt" / "cli.py").is_file()
    assert (trees[1] / "src" / "esqpt" / "quantum.py").read_bytes() == (
        ROOT / "src" / "esqpt" / "quantum.py").read_bytes()


# spectra setup_s of a parent whose quartile range is 40% of its median
SETUP = [0.157, 0.334, 0.19, 0.27, 0.2, 0.25, 0.18, 0.29, 0.21, 0.23]


def test_a_spread_wider_than_the_bound_leaves_a_metric_unresolved(tool, tmp_path, monkeypatch,
                                                                  capsys):
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    monkeypatch.setattr(tool, "prepare", lambda rev, workdir: None)

    def stub(change_setup):
        runs = {side: iter(values) for side, values in zip(tool.SIDES, (SETUP, change_setup))}

        def run_benchmark(tree, workload, seed, seconds):
            metrics = {name: {"value": 1.0} for name in names}
            metrics["setup_s"]["value"] = next(runs[tree.name])
            return {"correct": True, "metrics": metrics, "jobs": {}}
        return run_benchmark

    out = tmp_path / "pairs.json"
    argv = ["HEAD", "--workload", "spectra", "--json", str(out)]
    # 10% worse: inside the 0.25 bound, but the parent's own spread is wider than it
    monkeypatch.setattr(tool, "run_benchmark", stub([1.1 * v for v in SETUP]))
    assert tool.main(argv) == 0
    m = json.loads(out.read_text())["workloads"]["spectra"]
    assert (m["setup_s"]["beyond_bound"], m["setup_s"]["unresolved"]) == (False, True)
    assert [m[name]["unresolved"] for name in names if name != "setup_s"] == [False] * 5
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-2:] == ["beyond-bound", "unresolved"]
    setup_line = next(line for line in lines if line.startswith("setup_s"))
    assert setup_line.split()[-3:] == ["no", "no", "yes"]
    # every change run below every parent run resolves it, whatever the spread
    monkeypatch.setattr(tool, "run_benchmark", stub([0.15] * 10))
    assert tool.main(argv) == 0
    m = json.loads(out.read_text())["workloads"]["spectra"]["setup_s"]
    assert (m["change_wins"], m["unresolved"]) == (10, False)
    assert tool.compare([0.0, 0.0, 1.0], [0.0] * 3, "lower", 0.25)["unresolved"] is True


# the job lines of one perfbench/run.py run of two passes, as it prints them
RUN_OUTPUT = """\
job spectrum           wall {w1:8.3f} s  cpu    2.400 s  rss    60.1 MB  ok
job flow               wall    0.300 s  cpu    0.310 s  rss    50.0 MB  ok
job spectrum           wall {w2:8.3f} s  cpu    2.600 s  rss    60.2 MB  ok
    a problem line of a job is indented
job flow               wall    0.500 s  cpu    0.330 s  rss    50.0 MB  ok
metric wall_s = 2.5 s
environment {{}}
{{"correct": true, "attempted": 4, "failed": 0, "metrics": {{}}}}
"""


def test_each_job_of_a_workload_gets_its_median_times_per_side(tool, tmp_path, monkeypatch,
                                                               capsys):
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    monkeypatch.setattr(tool, "prepare", lambda rev, workdir: None)
    # spectrum: the parent's passes take 2.0 and 2.2 s, the change's 1.0 and 1.2 s
    walls = {"parent": (2.0, 2.2), "change": (1.0, 1.2)}

    def run(argv, cwd, capture_output, text):
        w1, w2 = walls[cwd.name]
        return subprocess.CompletedProcess(argv, 0, RUN_OUTPUT.format(w1=w1, w2=w2), "")

    monkeypatch.setattr(tool.subprocess, "run", run)
    doc = tool.run_benchmark(tmp_path / "parent", "spectra", None, 20)
    assert doc["jobs"] == {"spectrum": [(2.0, 2.4), (2.2, 2.6)], "flow": [(0.3, 0.31), (0.5, 0.33)]}

    metrics = {name: {"value": 1.0} for name in names}
    real_run_benchmark = tool.run_benchmark

    def run_benchmark(tree, workload, seed, seconds):
        doc = real_run_benchmark(tree, workload, seed, seconds)
        doc["metrics"] = metrics
        return doc

    monkeypatch.setattr(tool, "run_benchmark", run_benchmark)
    out = tmp_path / "pairs.json"
    assert tool.main(["HEAD", "--workload", "spectra", "--pairs", "2", "--json", str(out)]) == 0
    jobs = json.loads(out.read_text())["jobs"]["spectra"]
    assert list(jobs) == ["spectrum", "flow"]
    # the median over every pass of every run of a side
    assert jobs["spectrum"]["wall_s"] == pytest.approx(
        {"parent": 2.1, "change": 1.1, "change_vs_parent": 1.1 / 2.1 - 1})
    assert jobs["spectrum"]["cpu_s"] == pytest.approx(
        {"parent": 2.5, "change": 2.5, "change_vs_parent": 0.0})
    assert jobs["flow"]["wall_s"] == pytest.approx(
        {"parent": 0.4, "change": 0.4, "change_vs_parent": 0.0})
    lines = capsys.readouterr().out.splitlines()
    assert lines[8].split() == ["job", "parent", "wall", "change", "wall", "change",
                                "parent", "cpu", "change", "cpu", "change"]
    assert lines[9].split() == ["spectrum", "2.100", "1.100", "-47.6%",
                                "2.500", "2.500", "+0.0%"]
