"""Workload definitions: the fixed job list of each workload and its output checks.

A job is one `esqpt` process. `argv` holds the esqpt command-line arguments
(the output path and the workload seed are appended when the job runs); a job
with `kind == "borderlines"` runs the library call
`stationary.trace_borderlines` instead of a CLI subcommand. Every check takes
the job's output directory and returns a list of problems; an empty list
means the output is correct. The checks hold for any workload seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

SQRT2 = repr(math.sqrt(2.0))

# Energy window and bin count of the density commands at their defaults.
E_WINDOW = (-0.05, 3.05)
E_BINS = 300
DEFAULT_LAMBDAS = tuple(float(v) for v in np.round(0.01 * np.arange(321), 10))  # CLI default
N_LEVELS = 234  # L = 0 states at N = 50


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    check: object
    kind: str = "cli"
    lambdas: tuple = ()

    @property
    def output(self):
        return f"{self.name}.{'json' if self.kind == 'borderlines' else 'csv'}"


def _grid(start, stop, step):
    n = int(round((stop - start) / step)) + 1
    return tuple(float(v) for v in np.round(start + step * np.arange(n), 10))


def _lambda_args(lambdas):
    if len(lambdas) == 1:
        return ("--lambda", repr(lambdas[0]))
    step = round(lambdas[1] - lambdas[0], 10)
    return ("--lambda-start", repr(lambdas[0]), "--lambda-stop", repr(lambdas[-1]),
            "--lambda-step", repr(step))


# ---------------------------------------------------------------------------
# reading outputs


def read_rows(path):
    """CSV rows as dicts of strings; raises OSError or ValueError when unreadable."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{os.path.basename(path)}: no data rows")
    return rows


def column(rows, key):
    return np.array([float(r[key]) for r in rows])


def _problems_of(fn):
    """Wrap a check so that an unreadable or malformed output is a problem."""

    def check(job, outdir):
        try:
            return fn(job, outdir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    check.__name__ = fn.__name__
    return check


def _lambda_set(job, lam):
    want = np.array(job.lambdas)
    got = np.unique(lam)
    if len(got) != len(want) or np.abs(got - want).max() > 1e-9:
        return [f"lambda values {got[:5]}... differ from the job's grid"]
    return []


# ---------------------------------------------------------------------------
# classical checks


def boundary_closed_form(lam):
    """(min, max) of the boundary energy: E = 1 + xi/2 + (zeta^2 - xi/2) p_gamma^2."""
    zeta, xi = min(lam, 1.0), max(lam - 1.0, 0.0)
    ends = (1.0 + xi / 2.0, 1.0 + zeta * zeta)
    return min(ends), max(ends)


@_problems_of
def check_spinodal(job, outdir):
    (row,) = read_rows(os.path.join(outdir, job.output))
    got = (float(row["spinodal"]), float(row["antispinodal"]))
    if abs(got[0] - 0.460) > 5e-3 or abs(got[1] - 1.257) > 5e-3:
        return [f"spinodal points {got} differ from (0.460, 1.257) by more than 5e-3"]
    return []


@_problems_of
def check_census(job, outdir):
    from esqpt.classical import eval_H, grad_H
    from esqpt.models import ModelParams

    rows = read_rows(os.path.join(outdir, job.output))
    beta0p = float(job.argv[job.argv.index("--beta0p") + 1])
    problems = _lambda_set(job, column(rows, "lambda"))
    for i, r in enumerate(rows):
        loc = np.array([float(r[k]) for k in ("x", "y", "px", "py")])
        params = ModelParams(beta0p, float(r["lambda"]))
        grad = np.abs(grad_H(params, loc)).max()
        e = float(r["energy"])
        if grad > 1e-8:
            problems.append(f"row {i + 1}: |grad H| = {grad:.2e} > 1e-8")
        if abs(eval_H(params, loc) - e) > 1e-9 * max(1.0, abs(e)):
            problems.append(f"row {i + 1}: eval_H differs from the energy {e}")
    return problems


@_problems_of
def check_boundary(job, outdir):
    rows = read_rows(os.path.join(outdir, job.output))
    problems = _lambda_set(job, column(rows, "lambda"))
    for i, r in enumerate(rows):
        lo, hi = boundary_closed_form(float(r["lambda"]))
        dev = max(abs(float(r["e_min"]) - lo), abs(float(r["e_max"]) - hi))
        if dev > 1e-6:
            problems.append(f"row {i + 1}: boundary extrema off the closed form by {dev:.2e}")
    return problems


@_problems_of
def check_borderlines(job, outdir):
    with open(os.path.join(outdir, job.output)) as fh:
        doc = json.load(fh)
    if doc["kinetic_borderlines"] != 3:
        return [f"{doc['kinetic_borderlines']} kinetic borderlines, expected 3"]
    return []


# ---------------------------------------------------------------------------
# density checks


def certified_inside(beta0p, lam, margin=0.01):
    """True when every classical energy provably lies inside the MC window.

    H >= 0 on the whole phase space for zeta <= 1, so only the top matters.
    With u = (|q|^2 + |p|^2)/2 the triangle inequality bounds each term of H
    by a function of u alone; the window holds every sample when the maximum
    of that bound over u in [0, 1] is below the window's top.
    """
    zeta, xi = min(lam, 1.0), max(lam - 1.0, 0.0)
    b2 = beta0p * beta0p
    u = np.linspace(0.0, 1.0, 20001)
    bound = (
        (1.0 + zeta * zeta) * u * u
        + b2 * (1.0 - u) * u
        + 2.0 * zeta * beta0p * u * np.sqrt(u * (1.0 - u))
        + 0.5 * xi * (u + b2 * (1.0 - u)) ** 2
    )
    return float(bound.max()) < E_WINDOW[1] - margin


def _check_energy_grid(centers):
    want = E_WINDOW[0] + (np.arange(E_BINS) + 0.5) * (E_WINDOW[1] - E_WINDOW[0]) / E_BINS
    if len(centers) != E_BINS or np.abs(centers - want).max() > 1e-9:
        return ["energy bins differ from the default 300-bin window"]
    return []


@_problems_of
def check_density(job, outdir):
    """Per lambda: rho >= 0 and integral <= 234; = 234 where the window holds H."""
    rows = read_rows(os.path.join(outdir, job.output))
    beta0p = float(job.argv[job.argv.index("--beta0p") + 1])
    lam, centers, rho = (column(rows, key) for key in ("lambda", "e_center", "rho"))
    problems = _lambda_set(job, lam)
    if problems:
        return problems
    if not np.all(np.isfinite(rho)) or rho.min() < 0:
        return ["rho is negative or not finite"]
    for value in job.lambdas:
        sel = np.abs(lam - value) < 1e-9
        problems += _check_energy_grid(centers[sel])
        integral = rho[sel].sum() * (E_WINDOW[1] - E_WINDOW[0]) / E_BINS
        if integral > N_LEVELS * (1 + 1e-9):
            problems.append(f"lambda {value}: integral of rho {integral} exceeds {N_LEVELS}")
        elif certified_inside(beta0p, value) and abs(integral - N_LEVELS) > 1e-6 * N_LEVELS:
            problems.append(f"lambda {value}: integral of rho {integral} != {N_LEVELS}")
    return problems


# ---------------------------------------------------------------------------
# spectra checks


def sector_size(n):
    """L = 0 states in the d-sector n: seniorities tau = n, n-2, ... with tau % 3 == 0."""
    return sum(1 for tau in range(n, -1, -2) if tau % 3 == 0)


def u5_spectrum(beta0p, n_total):
    e = []
    for n in range(n_total + 1):
        level = (2.0 / n_total) * n * (n - 1) + (2.0 * beta0p**2 / n_total) * (n_total - n) * n
        e.extend([level] * sector_size(n))
    return np.sort(e)


@_problems_of
def check_spectrum(job, outdir):
    rows = read_rows(os.path.join(outdir, job.output))
    beta0p = float(job.argv[job.argv.index("--beta0p") + 1])
    lam = column(rows, "lambda")
    energy = column(rows, "energy")
    index = column(rows, "level_index")
    problems = _lambda_set(job, lam)
    if problems:
        return problems
    if len(rows) != N_LEVELS * len(job.lambdas) or not np.all(np.isfinite(energy)):
        return [f"{len(rows)} rows, expected {N_LEVELS} finite levels per lambda"]
    at0 = np.sort(energy[lam == 0.0])
    dev = np.abs(at0 - u5_spectrum(beta0p, 50)).max()
    if dev > 1e-10:
        problems.append(f"U(5) spectrum at lambda = 0 off by {dev:.2e} > 1e-10")
    e0 = np.abs(energy[(index == 0) & (lam <= 1.0)]).max()
    if e0 >= 1e-10:
        problems.append(f"|E0| = {e0:.2e} >= 1e-10 for lambda <= 1")
    return problems


@_problems_of
def check_flow(job, outdir):
    """Gaussians (width 0.05) at 234 levels >= 0: the window holds all but the
    lower tails, each under one width below the window, so 233 < int rho <= 234."""
    rows = read_rows(os.path.join(outdir, job.output))
    centers, rho = column(rows, "e_center"), column(rows, "rho")
    values = np.concatenate([rho, column(rows, "jbar"), column(rows, "phibar")])
    problems = _check_energy_grid(centers)
    if not np.all(np.isfinite(values)):
        problems.append("non-finite flow values")
    integral = rho.sum() * (E_WINDOW[1] - E_WINDOW[0]) / E_BINS
    if not N_LEVELS - 1 < integral <= N_LEVELS + 1e-6:
        problems.append(f"integral of rho {integral} outside ({N_LEVELS - 1}, {N_LEVELS}]")
    return problems


@_problems_of
def check_oscillatory(job, outdir):
    rows = read_rows(os.path.join(outdir, job.output))
    problems = _check_energy_grid(column(rows, "e_center"))
    if not np.all(np.isfinite(column(rows, "rho_osc"))):
        problems.append("non-finite oscillatory density")
    return problems


@_problems_of
def check_surfaces(job, outdir):
    """At lambda <= 1 the N_gamma = 0 surface is the s-boson condensate at beta = 0,
    the zero-energy ground state; each surface has one primary minimum."""
    rows = read_rows(os.path.join(outdir, job.output))
    stem, ext = os.path.splitext(job.output)
    spt = read_rows(os.path.join(outdir, stem + "_stationary" + ext))
    n_gamma = column(rows, "n_gamma")
    beta, energy = column(rows, "beta"), column(rows, "energy")
    problems = []
    if len(rows) != 3 * 200 or not np.all(np.isfinite(energy)):
        problems.append(f"{len(rows)} rows, expected 600 finite values")
    origin0 = energy[(n_gamma == 0) & (beta == 0.0)]
    if len(origin0) != 1 or abs(origin0[0]) > 1e-10:
        problems.append(f"N_gamma = 0 surface at beta = 0 reads {origin0}, expected 0")
    for ng in (0, 2, 4):
        kinds = [r["kind"] for r in spt if int(r["n_gamma"]) == ng]
        if kinds.count("primary_min") != 1:
            problems.append(f"N_gamma = {ng}: {kinds.count('primary_min')} primary minima")
        at0 = [float(r["e_star"]) for r in spt if int(r["n_gamma"]) == ng
               and float(r["beta_star"]) == 0.0]
        surf0 = energy[(n_gamma == ng) & (beta == 0.0)]
        if len(at0) != 1 or len(surf0) != 1 or abs(at0[0] - surf0[0]) > 1e-12:
            problems.append(f"N_gamma = {ng}: stationary point at beta = 0 disagrees with the surface")
    return problems


# ---------------------------------------------------------------------------
# workloads

_STATIONARY_GRID = _grid(0.1, 2.9, 0.4)
_BOUNDARY_GRID = _grid(0.0, 3.2, 0.8)
_DENSITY_GRID = _grid(0.0, 3.2, 0.02)
BORDERLINE_GRID = _grid(0.1, 3.2, 0.1)

WORKLOADS = {
    # beta0' = 1.7 has three kinetic borderlines. Batched Newton (h_grad,
    # h_hess) and the Nelder-Mead boundary search (scalar h_eval) do the work;
    # lambda = 0 keeps the continuous-manifold census and its O(n^2) dedupe.
    # The lambda grids are coarse so that one pass takes about 20 s.
    "classical-scan": (
        Job("spinodal", ("spinodal", "--beta0p", "1.7"), check_spinodal),
        Job("stationary", ("stationary", "--beta0p", "1.7") + _lambda_args(_STATIONARY_GRID),
            check_census, lambdas=_STATIONARY_GRID),
        Job("stationary-l0", ("stationary", "--beta0p", "1.7", "--lambda", "0",
                              "--n-seeds", "1000"), check_census, lambdas=(0.0,)),
        Job("boundary", ("boundary", "--beta0p", "1.7") + _lambda_args(_BOUNDARY_GRID),
            check_boundary, lambdas=_BOUNDARY_GRID),
        Job("trace-borderlines", ("--beta0p", "1.7", "--n-seeds", "3000")
            + _lambda_args(BORDERLINE_GRID), check_borderlines,
            kind="borderlines", lambdas=BORDERLINE_GRID),
    ),
    # MC level densities: h_eval over large batches, histograms and CSV writing,
    # in 161 cache-sized calls (2e5 samples each, the default) and in one
    # stream of 2e6-point batches. The grid spans the default lambda range to
    # 3.2, beyond 1.74, where the fixed window drops up to 37% of samples.
    "density-map": (
        Job("phase-diagram", ("phase-diagram", "--beta0p", "1.7", "--lambda-step", "0.02"),
            check_density, lambdas=_DENSITY_GRID),
        Job("density-cut", ("density-cut", "--beta0p", "1.41421356", "--lambda", "0.2",
                            "--n-samples", "10000000"), check_density, lambdas=(0.2,)),
    ),
    # Exact N = 50 spectra: 321 warm assemblies plus eigh, the flow, the
    # oscillatory density (one small MC call) and the excited surfaces.
    "spectra": (
        Job("spectrum", ("spectrum", "--beta0p", SQRT2), check_spectrum,
            lambdas=DEFAULT_LAMBDAS),
        Job("flow", ("flow", "--beta0p", SQRT2, "--lambda", "0.5"), check_flow),
        Job("oscillatory", ("oscillatory", "--beta0p", SQRT2, "--lambda", "1.0"),
            check_oscillatory),
        Job("excited-surfaces", ("excited-surfaces", "--beta0p", SQRT2, "--lambda", "1.0",
                                 "--n-gamma", "0,2,4"), check_surfaces),
    ),
}

# The set-up of every workload imports esqpt.cli; `spectra` also builds the
# N = 50 quantum blocks cold with one diagonalization.
SETUP_DIAGONALIZE = {"spectra": (SQRT2, "0.5", "50")}

ALL_JOBS = tuple(job.name for jobs in WORKLOADS.values() for job in jobs)
