"""tools/census_sweep.py: a tree compared with itself shows no difference, and
a census that drops or reclassifies points, or has steep rows the other
lacks, is reported case by case."""

import importlib.util
import re
import subprocess
import sys

import numpy as np

from conftest import ROOT

SCRIPT = ROOT / "tools" / "census_sweep.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("census_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tree_files():
    return sorted(p for d in ("src", "tools") for p in (ROOT / d).rglob("*"))


def test_census_sweep_of_this_tree_against_itself_reports_no_difference():
    before = tree_files()
    proc = subprocess.run([sys.executable, str(SCRIPT), str(ROOT / "src"), "--cases", "30"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert tree_files() == before
    assert lines[0] == "census sweep: 30 cases, seed 11"
    assert lines[2:5] == [
        "cases that gain or lose points: 0 (gain 0, lose 0)",
        "cases that reclassify points: 0",
        "unchanged cases: max location difference 0.00e+00, max energy difference 0.00e+00",
    ]
    steep = re.fullmatch(r"rows with max\|grad H\| > 1e-09: parent (\d+) \((\d+) in unchanged "
                         r"cases\), this tree (\d+) \((\d+) in unchanged cases\)", lines[5])
    assert steep and len(set(steep.groups())) == 1
    assert len(lines) == 6


def test_census_sweep_reports_a_dropped_row_and_the_differences_elsewhere():
    # rows: case, x, y, px, py, energy, r, kinetic, max |grad H|
    old = np.array([
        [0, 0.0, 0.0, 0.0, 0.0, 1.0, 4, 0, 0.0],
        [0, 0.5, 0.0, 0.0, 0.0, 0.2, 0, 0, 1e-12],
        [1, 0.0, 0.0, 0.0, 0.0, 0.5, 0, 0, 0.0],
        [1, 1.2, 0.0, 0.0, 0.6, 0.9, 1, 1, 3e-9],
    ])
    new = old.copy()
    new[0, 5] += 2.0**-48  # exact in binary: 3.55e-15
    new[1, 1] += 2e-11
    new = np.delete(new, 3, axis=0)
    lines = load_tool().compare([(1.0, 0.5), (2.0, 1.5)], old, new)
    assert lines == [
        "case 1: beta0p = 2.0, lambda = 1.5",
        "  r = 1, kinetic: 1 -> 0 rows",
        "    - (1.2, 0, 0, 0.6)  2 - R^2 = 2.00e-01  max|grad H| = 3.00e-09",
        "cases that gain or lose points: 1 (gain 0, lose 1)",
        "cases that reclassify points: 0",
        "unchanged cases: max location difference 2.00e-11 (case 0), "
        "max energy difference 3.55e-15 (case 0)",
        "rows with max|grad H| > 1e-09: parent 1 (0 in unchanged cases), "
        "this tree 0 (0 in unchanged cases)",
        "  - case 1: (1.2, 0, 0, 0.6)  2 - R^2 = 2.00e-01  max|grad H| = 3.00e-09",
    ]


def test_census_sweep_lists_the_steep_rows_of_one_tree_only():
    # rows: case, x, y, px, py, energy, r, kinetic, max |grad H|; every case
    # keeps its points, so only the steep rows differ
    old = np.array([
        [0, 0.0, 0.0, 0.0, 0.0, 1.0, 4, 0, 2e-9],  # steep in both trees
        [0, 0.5, 0.0, 0.0, 0.0, 0.2, 0, 0, 5e-9],  # steep in the parent only
        [1, 0.0, 0.0, 0.0, 0.0, 0.5, 0, 0, 1e-12],
        [1, 1.2, 0.0, 0.0, 0.6, 0.9, 1, 1, 1e-12],  # steep in this tree only
        [2, 0.3, 0.4, 0.0, 0.0, 0.7, 2, 0, 1e-12],
    ])
    new = old.copy()
    new[0, 8] = 7e-9
    new[1, 8] = 1e-10
    new[3, 8] = 4.7e-9
    # case 2: a steep row 2e-6 from the parent's row, a different point
    new[4, [1, 8]] = 0.3 + 2e-6, 3e-9
    old[4, 8] = 2e-9
    lines = load_tool().compare([(1.0, 0.5), (2.0, 1.5), (3.0, 0.1)], old, new)
    assert lines[-5:] == [
        "rows with max|grad H| > 1e-09: parent 3 (3 in unchanged cases), "
        "this tree 3 (3 in unchanged cases)",
        "  - case 0: (0.5, 0, 0, 0)  2 - R^2 = 1.75e+00  max|grad H| = 5.00e-09",
        "  - case 2: (0.3, 0.4, 0, 0)  2 - R^2 = 1.75e+00  max|grad H| = 2.00e-09",
        "  + case 1: (1.2, 0, 0, 0.6)  2 - R^2 = 2.00e-01  max|grad H| = 4.70e-09",
        "  + case 2: (0.300002, 0.4, 0, 0)  2 - R^2 = 1.75e+00  max|grad H| = 3.00e-09",
    ]


def test_census_sweep_reports_a_reclassified_row_as_one():
    # rows: case, x, y, px, py, energy, r, kinetic, max |grad H|; case 0 keeps
    # its rows but one kinetic row turns degenerate; case 1 reclassifies one
    # row and loses another; case 2 only moves
    old = np.array([
        [0, 0.0, 0.0, 0.0, 0.0, 1.0, 4, 0, 0.0],
        [0, -1.0, 0.0, 0.0, 0.9, 1.1, 3, 1, 1e-12],
        [0, 0.5, 0.8, -0.8, 0.4, 1.1, 3, 1, 1e-12],
        [1, 0.0, 0.0, 0.0, 0.0, 0.5, 0, 0, 0.0],
        [1, 1.2, 0.0, 0.0, 0.0, 0.9, 1, 0, 1e-12],
        [2, 0.3, 0.0, 0.0, 0.0, 0.7, 2, 0, 1e-12],
    ])
    new = old.copy()
    new[1, [1, 6]] = -1.0 + 4e-7, -1  # within 1e-6 of the parent's row
    new[3, 6] = 1
    new[5, [1, 5]] += 1e-11, 2.0**-48
    new = np.delete(new, 4, axis=0)
    lines = load_tool().compare([(1.0, 0.5), (2.0, 1.5), (3.0, 0.1)], old, new)
    assert lines[:-1] == [
        "case 0: beta0p = 1.0, lambda = 0.5",
        "  r 3 -> degenerate: (-0.9999996, 0, 0, 0.9)  2 - R^2 = 1.90e-01  "
        "max|grad H| = 1.00e-12",
        "case 1: beta0p = 2.0, lambda = 1.5",
        "  r 0 -> 1: (0, 0, 0, 0)  2 - R^2 = 2.00e+00  max|grad H| = 0.00e+00",
        "  r = 1, trivial_momentum: 1 -> 0 rows",
        "    - (1.2, 0, 0, 0)  2 - R^2 = 5.60e-01  max|grad H| = 1.00e-12",
        "cases that gain or lose points: 1 (gain 0, lose 1)",
        "cases that reclassify points: 2",
        "unchanged cases: max location difference 1.00e-11 (case 2), "
        "max energy difference 3.55e-15 (case 2)",
    ]
