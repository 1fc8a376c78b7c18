"""Compare the stationary-point census of two source trees on random cases.

    python tools/census_sweep.py PARENT_SRC [--cases N] [--seed S]

PARENT_SRC is the `src` directory of another checkout of esqpt, for example
one unpacked by `git archive`.  The census of that tree and of this one
(`find_stationary_points`) each run in a child process on the same N cases,
drawn as beta0' = uniform(0.3, 4) then lambda = uniform(0, 3.2) per case
from numpy.random.default_rng(S).  The report lists every case that
reclassifies a row, one whose nearest counterpart on the other side lies
within 1e-6 but has another r, as one `r 3 -> degenerate` line per row, and
every case whose other rows differ in number per (r, branch), with the rows
that have no counterpart within 1e-6 on the other side; each listed row
comes with its 2 - R^2 and max |grad H|.  Over the other cases it gives the
largest location and energy differences between each row and its nearest
counterpart of the same (r, branch).  For both trees it counts the rows with
max |grad H| > 1e-9, and lists those that have no such row within 1e-6 in
the same case of the other tree.  It writes no file.

The child takes max |grad H| from `classical.grad_H(params, location)`, a
call whose signature both trees share; census rows lie at R^2 < INTERIOR_R2,
inside grad_H's boundary refusal.  When `classical` is folded into other
modules, this call must move with it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

THIS_SRC = Path(__file__).resolve().parent.parent / "src"
MATCH = 1e-6  # rows closer than this are one point, as in the census's own dedupe
GRAD_ROW = 1e-9  # a row with a larger max |grad H| is counted and, if new, listed

# reads the cases as JSON on stdin; writes one row per census point as an
# .npy array on stdout: case, x, y, px, py, energy, r (-1: degenerate),
# kinetic (0/1), max |grad H|
CHILD = """
import json, sys
import numpy as np
import esqpt
from esqpt.classical import grad_H
from esqpt.models import ModelParams
from esqpt.stationary import find_stationary_points

rows = []
for i, (beta0p, lam) in enumerate(json.load(sys.stdin)):
    params = ModelParams(beta0p, lam)
    for sp in find_stationary_points(params):
        grad = grad_H(params, sp.location)
        r = -1 if sp.index_r == "degenerate" else sp.index_r
        rows.append([i, *sp.location, sp.energy, r, sp.branch == "kinetic", np.abs(grad).max()])
print(esqpt.__file__, file=sys.stderr)
np.save(sys.stdout.buffer, np.array(rows, dtype=float).reshape(-1, 9))
"""


def draw_cases(n, seed):
    """n (beta0p, lambda) pairs; each pair draws beta0p first."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.3, 4.0), rng.uniform(0.0, 3.2)) for _ in range(n)]


def run_census(src, cases):
    """The (rows, 9) census array of the tree whose package lies in src."""
    src = Path(src).resolve()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(cases).encode(),
                          capture_output=True, env=env, cwd=src)
    if proc.returncode:
        sys.exit(f"census_sweep: the census of {src} failed:\n{proc.stderr.decode()}")
    imported = Path(proc.stderr.decode().strip().splitlines()[-1]).resolve()
    if src not in imported.parents:
        sys.exit(f"census_sweep: {src} imported esqpt from {imported}")
    return np.load(io.BytesIO(proc.stdout))


def by_case(rows, n):
    return np.split(rows, np.searchsorted(rows[:, 0], np.arange(1, n)))


def r_name(r):
    return "degenerate" if r < 0 else str(int(r))


def group_name(key):
    r, kinetic = key
    return f"r = {r_name(r)}, {'kinetic' if kinetic else 'trivial_momentum'}"


def nearest(a, b):
    """For each row of a, the distance to the nearest row of b (inf where b
    is empty) and the index of that row."""
    if not len(b):
        return np.full(len(a), np.inf), np.zeros(len(a), int)
    d = np.abs(a[:, None, 1:5] - b[None, :, 1:5]).max(axis=2)
    return d.min(axis=1), d.argmin(axis=1)


def describe(row):
    loc = row[1:5]
    return (f"({', '.join(f'{v:.12g}' for v in loc)})  2 - R^2 = {2.0 - loc @ loc:.2e}  "
            f"max|grad H| = {row[8]:.2e}")


def where(diff):
    value, case = diff
    return f"{value:.2e}" + ("" if case is None else f" (case {case})")


def compare(cases, old, new):
    """The report lines of the two census arrays."""
    lines, unchanged = [], np.ones(len(cases), bool)
    gains = losses = recounted = reclassified = 0
    dloc = denergy = (0.0, None)
    for i, (a, b) in enumerate(zip(by_case(old, len(cases)), by_case(new, len(cases)))):
        d, j = nearest(a, b)
        moved = np.flatnonzero(d <= MATCH)
        moved = moved[a[moved, 6] != b[j[moved], 6]]
        pairs = list(zip(a[moved], b[j[moved]]))
        a, b = np.delete(a, moved, axis=0), np.delete(b, j[moved], axis=0)
        keys = sorted({tuple(k) for k in np.vstack([a, b])[:, [6, 7]]})
        groups = [(k, a[(a[:, 6] == k[0]) & (a[:, 7] == k[1])],
                   b[(b[:, 6] == k[0]) & (b[:, 7] == k[1])]) for k in keys]
        same_counts = all(len(ga) == len(gb) for _, ga, gb in groups)
        if same_counts and not pairs:
            for _, ga, gb in groups:
                for x, y in ((ga, gb), (gb, ga)):
                    d, j = nearest(x, y)
                    de = np.abs(x[:, 5] - y[j, 5])
                    dloc = max(dloc, (d.max(), i), key=lambda t: t[0])
                    denergy = max(denergy, (de.max(), i), key=lambda t: t[0])
            continue
        unchanged[i] = False
        recounted += not same_counts
        reclassified += bool(pairs)
        gains += any(len(gb) > len(ga) for _, ga, gb in groups)
        losses += any(len(gb) < len(ga) for _, ga, gb in groups)
        lines.append(f"case {i}: beta0p = {cases[i][0]!r}, lambda = {cases[i][1]!r}")
        lines += [f"  r {r_name(x[6])} -> {r_name(y[6])}: {describe(y)}" for x, y in pairs]
        for key, ga, gb in groups:
            if len(ga) == len(gb):
                continue
            lines.append(f"  {group_name(key)}: {len(ga)} -> {len(gb)} rows")
            for sign, x, y in (("-", ga, gb), ("+", gb, ga)):
                lines += [f"    {sign} {describe(row)}" for row in x[nearest(x, y)[0] > MATCH]]
    steep = [(rows[:, 8] > GRAD_ROW, rows[:, 0].astype(int)) for rows in (old, new)]
    steep = [(int(s.sum()), int(s[unchanged[case]].sum())) for s, case in steep]
    lines += [
        f"cases that gain or lose points: {recounted} (gain {gains}, lose {losses})",
        f"cases that reclassify points: {reclassified}",
        f"unchanged cases: max location difference {where(dloc)}, "
        f"max energy difference {where(denergy)}",
        f"rows with max|grad H| > {GRAD_ROW:g}: parent {steep[0][0]} ({steep[0][1]} in unchanged "
        f"cases), this tree {steep[1][0]} ({steep[1][1]} in unchanged cases)",
    ]
    for sign, x, y in (("-", old, new), ("+", new, old)):
        x, y = x[x[:, 8] > GRAD_ROW], y[y[:, 8] > GRAD_ROW]
        for row in x:
            if nearest(row[None], y[y[:, 0] == row[0]])[0][0] > MATCH:
                lines.append(f"  {sign} case {int(row[0])}: {describe(row)}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=Path, help="the src directory of the tree to compare with")
    ap.add_argument("--cases", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args(argv)
    if not (args.parent_src / "esqpt").is_dir():
        ap.error(f"{args.parent_src} holds no esqpt package")
    if args.cases < 1:
        ap.error("--cases must be at least 1")
    cases = draw_cases(args.cases, args.seed)
    old, new = run_census(args.parent_src, cases), run_census(THIS_SRC, cases)
    print(f"census sweep: {len(cases)} cases, seed {args.seed}")
    print(f"parent: {args.parent_src} ({len(old)} rows); this tree: {THIS_SRC} ({len(new)} rows)")
    print("\n".join(compare(cases, old, new)))


if __name__ == "__main__":
    main()
