"""Command-line front end: reproducible batch jobs emitting CSV/JSON artifacts.

Every subcommand writes a data table plus a JSON manifest recording inputs,
seed, package versions, and wall time.  Options may come from flags and/or a
plain-text key=value config file; flags override the file.  Exit codes:
0 success, 2 domain error, 3 numerical failure, 64 usage error, 74 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import density, quantum, stationary, surfaces
from .io import write_manifest, write_table
from .models import ModelParams

DEFAULT_LAMBDA_RANGE = (0.0, 3.2, 0.01)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(64)


@dataclass
class JobConfig:
    command: str
    beta0p: float
    lambdas: np.ndarray
    N: int = 50
    n_samples: int = 200_000
    seed: int = 0
    e_bins: int = density.DEFAULT_BINS
    n_gamma: list = field(default_factory=lambda: [0, 2, 4])
    n_beta: int = 200
    width: float = 0.05
    n_seeds: int = 20000
    ref_N: int = density.DEFAULT_REF_N
    output: str = "out.csv"
    format: str = "csv"
    # what the run found, for the manifest; set by the runner, not an input
    diagnostics: dict | None = None

    def __post_init__(self):
        if len(self.lambdas) == 0:
            raise ValueError("empty lambda range")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format: {self.format}")

    def inputs(self):
        lam = self.lambdas
        return dict(
            beta0p=self.beta0p,
            lambda_start=float(lam[0]),
            lambda_stop=float(lam[-1]),
            lambda_count=len(lam),
            N=self.N,
            n_samples=self.n_samples,
            e_bins=self.e_bins,
            n_gamma=list(self.n_gamma),
            n_beta=self.n_beta,
            width=self.width,
            n_seeds=self.n_seeds,
            ref_N=self.ref_N,
            output=self.output,
            format=self.format,
        )


_CONFIG_ALIASES = {"lambda": "lam", "ref_n": "ref_N"}


def _read_config_file(path):
    """Plain-text key=value lines; '#' starts a comment; blank lines ignored."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            values[_CONFIG_ALIASES.get(key, key)] = val.strip()
    return values


def _pick(args, cfg, key, cast, default=None):
    """Flag value if given, else config-file value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in cfg:
        return cast(cfg[key])
    return default


def _int_list(text):
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    return [int(tok) for tok in str(text).replace(",", " ").split()]


def _lambda_grid(args, cfg):
    lam = _pick(args, cfg, "lam", float)
    if lam is not None:
        return np.array([lam])
    start = _pick(args, cfg, "lambda_start", float, DEFAULT_LAMBDA_RANGE[0])
    stop = _pick(args, cfg, "lambda_stop", float, DEFAULT_LAMBDA_RANGE[1])
    step = _pick(args, cfg, "lambda_step", float, DEFAULT_LAMBDA_RANGE[2])
    if step <= 0:
        raise ValueError("lambda step must be positive")
    if stop < start:
        raise ValueError("lambda range is empty")
    n = int(round((stop - start) / step)) + 1
    return start + step * np.arange(n)


def build_parser():
    parser = _Parser(
        prog="esqpt",
        description="Spectra, level densities, stationary-point phase diagrams, "
        "and excited surfaces of the s-d interacting boson Hamiltonian family.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    def add(name, help_text, **flags):
        p = sub.add_parser(name, help=help_text, parents=[common])
        return p

    common = _Parser(add_help=False)
    common.add_argument("--config", help="key=value config file; flags override it")
    common.add_argument("--beta0p", type=float, help="deformation parameter beta0'")
    common.add_argument("--lambda", dest="lam", type=float, help="single control-parameter value")
    common.add_argument("--lambda-start", type=float, help="lambda grid start (default 0)")
    common.add_argument("--lambda-stop", type=float, help="lambda grid stop (default 3.2)")
    common.add_argument("--lambda-step", type=float, help="lambda grid step (default 0.01)")
    common.add_argument("--n", type=int, help="boson number N (default 50)")
    common.add_argument("--n-samples", type=int, help="Monte-Carlo samples (default 200000)")
    common.add_argument("--seed", type=int, help="RNG seed (default 0)")
    common.add_argument("--e-bins", type=int, help="energy bins (default 300)")
    common.add_argument("--n-gamma", type=_int_list, help="comma list of N_gamma values (default 0,2,4)")
    common.add_argument("--n-beta", type=int, help="beta grid points for surfaces (default 200)")
    common.add_argument("--width", type=float, help="Gaussian smoothing width (default 0.05)")
    common.add_argument("--n-seeds", type=int, help="ignored: the stationary census is exact")
    common.add_argument("--ref-n", dest="ref_N", type=int, help="normalization N for densities (default 50)")
    common.add_argument("--output", "-o", help="output data file (default <command>.csv)")
    common.add_argument("--format", choices=("csv", "json"), help="table format (default csv)")

    add("phase-diagram", "d rho/dE matrix over a (lambda, E) grid")
    add("density-cut", "smoothed level density and derivative at one lambda")
    add("stationary", "stationary-point census over lambda")
    add("boundary", "boundary energy minimum and maximum over lambda")
    add("spectrum", "quantum spectrum with slopes and <n_d>")
    add("flow", "smoothed level density, flow, and velocity field")
    add("oscillatory", "oscillatory part of the level density")
    add("excited-surfaces", "excited energy surfaces and their stationary points")
    add("spinodal", "spinodal and antispinodal lambda values")
    return parser


def make_config(args):
    cfg = _read_config_file(args.config) if args.config else {}
    beta0p = _pick(args, cfg, "beta0p", float)
    if beta0p is None:
        raise ValueError("beta0p is required (flag --beta0p or config file)")
    command = args.command
    ext = "json" if _pick(args, cfg, "format", str, "csv") == "json" else "csv"
    return JobConfig(
        command=command,
        beta0p=beta0p,
        lambdas=_lambda_grid(args, cfg),
        N=_pick(args, cfg, "n", int, 50),
        n_samples=_pick(args, cfg, "n_samples", int, 200_000),
        seed=_pick(args, cfg, "seed", int, 0),
        e_bins=_pick(args, cfg, "e_bins", int, density.DEFAULT_BINS),
        n_gamma=_int_list(_pick(args, cfg, "n_gamma", _int_list, [0, 2, 4])),
        n_beta=_pick(args, cfg, "n_beta", int, 200),
        width=_pick(args, cfg, "width", float, 0.05),
        n_seeds=_pick(args, cfg, "n_seeds", int, 20000),
        ref_N=_pick(args, cfg, "ref_N", int, density.DEFAULT_REF_N),
        output=_pick(args, cfg, "output", str, f"{command}.{ext}"),
        format=_pick(args, cfg, "format", str, "csv"),
    )


def _single_lambda(cfg):
    if len(cfg.lambdas) != 1:
        raise ValueError(f"{cfg.command} needs a single --lambda value")
    return float(cfg.lambdas[0])


def _density_job(task):
    beta0p, lam, n_samples, seed, bins, ref_N = task
    grid = density.mc_density(
        ModelParams(beta0p, lam), n_samples=n_samples, seed=seed, bins=bins, ref_N=ref_N
    )
    density.density_derivative(grid)
    return grid


def _density_grids(cfg):
    tasks = [
        (cfg.beta0p, float(lam), cfg.n_samples, cfg.seed + i, cfg.e_bins, cfg.ref_N)
        for i, lam in enumerate(cfg.lambdas)
    ]
    workers = int(os.environ.get("ESQPT_THREADS", "1"))
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_density_job, tasks))
    return [_density_job(t) for t in tasks]


DENSITY_HEADER = ["lambda", "e_center", "rho", "drho_dE", "mc_error"]


def _report_coverage(cfg, grids):
    """Record MC coverage for the manifest; warn when samples left the window."""
    coverage = [1.0 - g.n_outside / g.n_samples for g in grids]
    cfg.diagnostics = {
        "mc_samples": sum(g.n_samples for g in grids),
        "coverage_min": min(coverage),
    }
    short = sum(g.n_outside > 0 for g in grids)
    if short:
        lo, hi = density.DEFAULT_E_RANGE
        print(
            f"esqpt: warning: {short} of {len(grids)} lambda values have Monte-Carlo "
            f"samples outside the energy window [{lo:g}, {hi:g}]; the lowest "
            f"in-window fraction is {min(coverage):.4f}",
            file=sys.stderr,
        )


def run_phase_diagram(cfg):
    grids = _density_grids(cfg)
    _report_coverage(cfg, grids)
    rows = []
    for lam, grid in zip(cfg.lambdas, grids):
        for e, r, d, err in zip(grid.e_centers, grid.rho, grid.drho_dE, grid.mc_error):
            rows.append((lam, e, r, d, err))
    return DENSITY_HEADER, rows


def run_density_cut(cfg):
    _single_lambda(cfg)
    return run_phase_diagram(cfg)


def run_stationary(cfg):
    if cfg.n_seeds < 1:
        raise ValueError("n_seeds must be a positive integer")
    rows = []
    for lam in cfg.lambdas:
        pts = stationary.find_stationary_points(ModelParams(cfg.beta0p, float(lam)))
        for sp in pts:
            x, y, px, py = sp.location
            rows.append(
                (lam, x, y, px, py, sp.energy, sp.index_r, sp.branch, sp.singularity_class)
            )
    return ["lambda", "x", "y", "px", "py", "energy", "r", "branch", "class"], rows


def run_boundary(cfg):
    rows = []
    for lam in cfg.lambdas:
        lo, hi = stationary.boundary_minmax(ModelParams(cfg.beta0p, float(lam)))
        rows.append((lam, lo, hi))
    return ["lambda", "e_min", "e_max"], rows


def run_spectrum(cfg):
    rows = []
    for lam in cfg.lambdas:
        spec = quantum.diagonalize(ModelParams(cfg.beta0p, float(lam)), cfg.N)
        for i, (e, s, nd) in enumerate(zip(spec.energies, spec.slopes, spec.nd_expectation)):
            rows.append((lam, i, e, s, nd))
    return ["lambda", "level_index", "energy", "slope", "nd_expect"], rows


def run_flow(cfg):
    lam = _single_lambda(cfg)
    spec = quantum.diagonalize(ModelParams(cfg.beta0p, lam), cfg.N)
    grid = density.smoothed_flow([spec], width=cfg.width, bins=cfg.e_bins)
    rows = [
        (lam, e, r, j, p)
        for e, r, j, p in zip(grid.e_centers, grid.rho, grid.jbar, grid.phibar)
    ]
    return ["lambda", "e_center", "rho", "jbar", "phibar"], rows


def run_oscillatory(cfg):
    lam = _single_lambda(cfg)
    params = ModelParams(cfg.beta0p, lam)
    grid = density.mc_density(
        params, n_samples=cfg.n_samples, seed=cfg.seed, bins=cfg.e_bins, ref_N=cfg.N
    )
    tilde = quantum.oscillatory_density(params, cfg.N, grid)
    rows = [(lam, e, t) for e, t in zip(grid.e_centers, tilde)]
    return ["lambda", "e_center", "rho_osc"], rows


def run_excited_surfaces(cfg):
    betas = np.linspace(0.0, surfaces.BETA_MAX - 1e-9, cfg.n_beta)
    rows, spt_rows = [], []
    for lam in cfg.lambdas:
        params = ModelParams(cfg.beta0p, float(lam))
        for ng in cfg.n_gamma:
            for b in betas:
                rows.append((lam, ng, b, surfaces.excited_energy(params, cfg.N, ng, float(b))))
            for sp in surfaces.surface_stationary_points(params, cfg.N, ng):
                spt_rows.append((lam, ng, sp.beta, sp.energy, sp.kind))
    stem, ext = os.path.splitext(cfg.output)
    write_table(
        stem + "_stationary" + ext,
        ["lambda", "n_gamma", "beta_star", "e_star", "kind"],
        spt_rows,
        cfg.format,
    )
    return ["lambda", "n_gamma", "beta", "energy"], rows


def run_spinodal(cfg):
    lo, hi = stationary.spinodal_points(cfg.beta0p)
    return ["beta0p", "spinodal", "antispinodal"], [(cfg.beta0p, lo, hi)]


RUNNERS = {
    "phase-diagram": run_phase_diagram,
    "density-cut": run_density_cut,
    "stationary": run_stationary,
    "boundary": run_boundary,
    "spectrum": run_spectrum,
    "flow": run_flow,
    "oscillatory": run_oscillatory,
    "excited-surfaces": run_excited_surfaces,
    "spinodal": run_spinodal,
}


def run(cfg: JobConfig):
    """Execute one job: data table(s) plus a manifest next to the output."""
    t0 = time.perf_counter()
    header, rows = RUNNERS[cfg.command](cfg)
    write_table(cfg.output, header, rows, cfg.format)
    write_manifest(
        cfg.output, cfg.command, cfg.inputs(), cfg.seed, time.perf_counter() - t0,
        cfg.diagnostics,
    )
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = make_config(args)
        return run(cfg)
    except ValueError as exc:
        print(f"esqpt: domain error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"esqpt: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"esqpt: i/o error: {exc}", file=sys.stderr)
        return 74


if __name__ == "__main__":
    sys.exit(main())
