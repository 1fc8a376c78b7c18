"""Command-line front end: reproducible batch jobs emitting CSV/JSON artifacts.

Every subcommand writes a data table plus a JSON manifest recording inputs,
seed, package versions, and wall time.  Each subcommand declares only the
options it reads (the `COMMANDS` table).  A grid command takes one `--lambda`
or the grid flags; `density-cut`, `flow` and `oscillatory` take only
`--lambda` and need it, and `density-cut` is `phase-diagram` at that one
value.  Options may come from flags and/or a plain-text key=value config
file, whose keys are the flag names without `--` (`_` and `-` are
interchangeable); its lines become flags ahead of the command line's, which
override them.  A runner returns its header and an `io.Table`:
the arrays it computed, one block per lambda with the lambda column a
broadcast view, or one block of its few rows' columns.  Exit codes: 0
success, 2 domain error, 3 numerical failure, 64 usage error, 74 I/O error.

Threads: BLAS runs on one thread, and a job's thread pool has at most one
worker per usable CPU and per task (`_pool_width`): by default one thread per
usable CPU and per BLAS thread, or `ESQPT_THREADS`, which every command
checks.  `spectrum` runs its eigensolves on threads (eigh releases the GIL),
one lambda value per task (`_pool_map`).  `phase-diagram`, `density-cut` and
`oscillatory` bin one Monte-Carlo sample on threads that share its blocks,
one block per task (`density.mc_density_scan`).  At these matrix sizes a
threaded eigh costs CPU time without saving wall time, and its results
depend on the number of BLAS threads, while the workers leave every output
byte-identical.  Importing this module before numpy sets the BLAS thread
variables below to 1 unless one of them is already set.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the variables set here; BLAS reads them once, when numpy loads it, so this
# stays above the first numpy import of the package
BLAS_THREADS_SET = ()
if "numpy" not in sys.modules and not any(v in os.environ for v in BLAS_THREAD_VARIABLES):
    BLAS_THREADS_SET = BLAS_THREAD_VARIABLES
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))

import numpy as np

from . import density, quantum, stationary, surfaces
from .io import Table, fmt, write_manifest, write_table
from .models import ModelParams


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(64)


def _int_list(text):
    values = [int(tok) for tok in text.replace(",", " ").split()]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


# every option, by flag name; COMMANDS says which subcommands declare it
OPTIONS = {
    "config": dict(help="key = value config file; flags override it"),
    "beta0p": dict(type=float, help="deformation parameter beta0' (required)"),
    "seed": dict(type=int, default=0, help="RNG seed (default %(default)s)"),
    "output": dict(help="output data file (default <command>.<format>)"),
    "format": dict(choices=("csv", "json"), default="csv",
                   help="table format (default %(default)s)"),
    "lambda": dict(dest="lam", type=float, help="one control-parameter value (on a grid "
                   "command it replaces the grid)"),
    "lambda-start": dict(type=float, default=0.0, help="lambda grid start (default %(default)s)"),
    "lambda-stop": dict(type=float, default=3.2, help="lambda grid stop (default %(default)s)"),
    "lambda-step": dict(type=float, default=0.01, help="lambda grid step (default %(default)s)"),
    "n": dict(dest="N", type=int, default=50, help="boson number N (default %(default)s)"),
    "n-samples": dict(type=int, default=200_000,
                      help="Monte-Carlo samples, drawn once from --seed; every lambda "
                      "bins the same samples (default %(default)s)"),
    "e-bins": dict(type=int, default=density.DEFAULT_BINS,
                   help="energy bins (default %(default)s)"),
    "ref-n": dict(dest="ref_N", type=int, default=density.DEFAULT_REF_N,
                  help="normalization N for densities (default %(default)s)"),
    "width": dict(type=float, default=0.05, help="Gaussian smoothing width (default %(default)s)"),
    "n-gamma": dict(type=_int_list, default="0,2,4",
                    help="comma list of N_gamma values (default %(default)s)"),
    "n-beta": dict(type=int, default=200,
                   help="beta grid points for surfaces (default %(default)s)"),
    "n-seeds": dict(type=int, default=20000,
                    help="ignored: the stationary census is exact (default %(default)s)"),
}
COMMON = ("config", "beta0p", "seed", "output", "format")
LAMBDA = ("lambda", "lambda-start", "lambda-stop", "lambda-step")


def _dest(option):
    return OPTIONS[option].get("dest", option.replace("-", "_"))


def _config_flags(path, options, parser):
    """Plain-text key=value lines ('#' starts a comment) as the `--key=value`
    flags they name, for the parser to read like the command line's; a key
    that names no option of the command is a usage error."""
    flags = {opt.replace("-", "_"): "--" + opt for opt in options if opt != "config"}
    argv = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            flag = flags.get(key.replace("-", "_"))
            if flag is None:
                parser.error(f"{path}:{lineno}: unknown config key {key!r}")
            argv.append(f"{flag}={val.strip()}")
    return argv


def _lambda_grid(args):
    if args.lam is not None:
        return np.array([args.lam])
    if "lambda-start" not in COMMANDS[args.command][2]:
        raise ValueError(f"{args.command} needs a --lambda value")
    start, stop, step = args.lambda_start, args.lambda_stop, args.lambda_step
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"lambda grid bounds and step must be finite, got "
                         f"start={start}, stop={stop}, step={step}")
    if step <= 0:
        raise ValueError("lambda step must be positive")
    if stop < start:
        raise ValueError("lambda range is empty")
    below_digits = f"lambda step {step:g} is below the output's 12 significant digits"
    # the steps that do not pass stop; the 1e-9 keeps a step that divides the
    # range, such as 0.02 into 3.2, from losing its last value to rounding
    steps = (stop - start) / step + 1e-9
    # a step under 1e-12 of the largest value, below its 12-digit resolution,
    # is refused before its grid is built
    if not math.isfinite(steps) or (steps >= 1 and step < 1e-12 * max(abs(start), abs(stop))):
        raise ValueError(below_digits)
    # each value is the number the CSV prints, not start + step * i, which
    # can miss it in the last bit (0.7000000000000001 for 0.7)
    grid = np.array([float(fmt(v)) for v in start + step * np.arange(math.floor(steps) + 1)])
    if np.any(np.diff(grid) <= 0):
        raise ValueError(below_digits)
    return grid


def _threads_from_env():
    """ESQPT_THREADS as a positive integer, or None when it is unset; checked by
    every command."""
    text = os.environ.get("ESQPT_THREADS")
    if text is None:
        return None
    try:
        threads = int(text)
    except ValueError:
        raise ValueError(f"ESQPT_THREADS must be an integer, got {text!r}") from None
    if threads < 1:
        raise ValueError(f"ESQPT_THREADS must be at least 1, got {threads}")
    return threads


def _usable_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_width(cfg, tasks):
    """Sets and returns cfg.workers, the width of a job's thread pool:
    ESQPT_THREADS, or by default one thread per usable CPU and per BLAS
    thread (the largest positive-integer BLAS variable); at most one per
    usable CPU and per task."""
    cpus = _usable_cpus()
    blas = max([int(v) for v in map(os.environ.get, BLAS_THREAD_VARIABLES)
                if v and v.isdecimal()] + [1])
    cfg.workers = min(cfg.threads or max(1, cpus // blas), cpus, tasks)
    return cfg.workers


def _pool_map(cfg, fn):
    """[fn(lam) for lam in cfg.lambdas], one lambda value per task on a pool of
    `_pool_width` threads; a single worker maps them in the calling thread."""
    if _pool_width(cfg, len(cfg.lambdas)) == 1:
        return list(map(fn, cfg.lambdas))
    import concurrent.futures

    with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(fn, cfg.lambdas))


def _density_workers(cfg):
    """`_pool_width` for a Monte-Carlo job: its tasks are the sample's blocks."""
    return _pool_width(cfg, -(-cfg.n_samples // density._BLOCK))


def _report_coverage(cfg, grids):
    """Record MC coverage for the manifest; warn when samples left the window."""
    coverage = [1.0 - g.n_outside / g.n_samples for g in grids]
    cfg.diagnostics.update(
        mc_samples=sum(g.n_samples for g in grids),
        # the workers share one draw of the sample
        mc_draws=cfg.n_samples,
        coverage_min=min(coverage),
    )
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
    grids = density.mc_density_scan(cfg.beta0p, cfg.lambdas, n_samples=cfg.n_samples,
                                    seed=cfg.seed, bins=cfg.e_bins, ref_N=cfg.ref_N,
                                    workers=_density_workers(cfg))
    _report_coverage(cfg, grids)
    return ["lambda", "e_center", "rho", "drho_dE", "mc_error"], Table(*[
        (np.broadcast_to(lam, cfg.e_bins), g.e_centers, g.rho, g.drho_dE, g.mc_error)
        for lam, g in zip(cfg.lambdas, grids)])


def run_stationary(cfg):
    if cfg.n_seeds < 1:
        raise ValueError("n_seeds must be a positive integer")
    rows = []
    # rows per singularity class (i)-(v) and degenerate rows, over all lambdas
    census = dict.fromkeys([*stationary.SINGULARITY_CLASS.values(), "degenerate"], 0)
    for lam in cfg.lambdas:
        for sp in stationary.find_stationary_points(ModelParams(cfg.beta0p, float(lam))):
            rows.append((lam, *sp.location, sp.energy, sp.index_r, sp.branch, sp.singularity_class))
            census[sp.singularity_class] += 1
    cfg.diagnostics["census"] = census
    return ["lambda", "x", "y", "px", "py", "energy", "r", "branch", "class"], Table(list(zip(*rows)))


def run_boundary(cfg):
    lo, hi = np.array([stationary.boundary_extrema(ModelParams(cfg.beta0p, float(lam)))
                       for lam in cfg.lambdas]).T
    return ["lambda", "e_min", "e_max"], Table((cfg.lambdas, lo, hi))


def run_spectrum(cfg):
    def solve(lam):
        return quantum.diagonalize(ModelParams(cfg.beta0p, float(lam)), cfg.N)

    spectra = _pool_map(cfg, solve)
    cfg.diagnostics["basis_dimension"] = quantum.basis_dimension(cfg.N)
    levels = np.arange(len(spectra[0].energies))
    return ["lambda", "level_index", "energy", "slope", "nd_expect"], Table(*[
        (np.broadcast_to(lam, len(levels)), levels, s.energies, s.slopes, s.nd_expectation)
        for lam, s in zip(cfg.lambdas, spectra)])


def run_flow(cfg):
    lam = float(cfg.lambdas[0])
    spec = quantum.diagonalize(ModelParams(cfg.beta0p, lam), cfg.N)
    cfg.diagnostics["basis_dimension"] = quantum.basis_dimension(cfg.N)
    grid = density.smoothed_flow(spec, width=cfg.width, bins=cfg.e_bins)
    return ["lambda", "e_center", "rho", "jbar", "phibar"], Table(
        (np.broadcast_to(lam, len(grid.rho)), grid.e_centers, grid.rho, grid.jbar, grid.phibar))


def run_oscillatory(cfg):
    lam = float(cfg.lambdas[0])
    quantum.check_boson_number(cfg.N)
    cfg.diagnostics["basis_dimension"] = quantum.basis_dimension(cfg.N)
    params = ModelParams(cfg.beta0p, lam)
    grid = density.mc_density(params, n_samples=cfg.n_samples, seed=cfg.seed,
                              bins=cfg.e_bins, ref_N=cfg.N, workers=_density_workers(cfg))
    _report_coverage(cfg, [grid])
    tilde = quantum.oscillatory_density(params, cfg.N, grid)
    return ["lambda", "e_center", "rho_osc"], Table(
        (np.broadcast_to(lam, len(tilde)), grid.e_centers, tilde))


def run_excited_surfaces(cfg):
    if cfg.n_beta < 1:
        raise ValueError(f"n_beta must be a positive integer, got {cfg.n_beta}")
    betas = np.linspace(0.0, surfaces.BETA_MAX - 1e-9, cfg.n_beta)
    blocks, spt_rows = [], []
    for lam in cfg.lambdas:
        params = ModelParams(cfg.beta0p, float(lam))
        for ng in cfg.n_gamma:
            energies = surfaces.excited_energy(params, cfg.N, ng, betas)
            blocks.append((np.broadcast_to(lam, len(betas)), np.broadcast_to(ng, len(betas)),
                           betas, energies))
            for sp in surfaces.surface_stationary_points(params, cfg.N, ng):
                spt_rows.append((lam, ng, sp.beta, sp.energy, sp.kind))
    stem, ext = os.path.splitext(cfg.output)
    cfg.side_tables.append((stem + "_stationary" + ext,
                            ["lambda", "n_gamma", "beta_star", "e_star", "kind"],
                            Table(list(zip(*spt_rows)))))
    return ["lambda", "n_gamma", "beta", "energy"], Table(*blocks)


def run_spinodal(cfg):
    lo, hi = stationary.spinodal_points(cfg.beta0p)
    barrier = stationary.critical_barrier(cfg.beta0p)
    return (["beta0p", "spinodal", "antispinodal", "barrier"],
            Table([[cfg.beta0p], [lo], [hi], [barrier]]))


# subcommand: (runner, help line, options it reads besides COMMON)
COMMANDS = {
    "phase-diagram": (run_phase_diagram, "d rho/dE matrix over a (lambda, E) grid",
                      LAMBDA + ("n-samples", "e-bins", "ref-n")),
    "density-cut": (run_phase_diagram, "smoothed level density and derivative at one lambda",
                    ("lambda", "n-samples", "e-bins", "ref-n")),
    "stationary": (run_stationary, "stationary-point census over lambda",
                   LAMBDA + ("n-seeds",)),
    "boundary": (run_boundary, "boundary energy minimum and maximum over lambda", LAMBDA),
    "spectrum": (run_spectrum, "quantum spectrum with slopes and <n_d>", LAMBDA + ("n",)),
    "flow": (run_flow, "smoothed level density, flow, and velocity field",
             ("lambda", "n", "width", "e-bins")),
    "oscillatory": (run_oscillatory, "oscillatory part of the level density",
                    ("lambda", "n", "n-samples", "e-bins")),
    "excited-surfaces": (run_excited_surfaces,
                         "excited energy surfaces and their stationary points",
                         LAMBDA + ("n", "n-gamma", "n-beta")),
    "spinodal": (run_spinodal, "spinodal and antispinodal lambda values, and the "
                 "barrier at lambda = 1", ()),
}


def build_parser():
    parser = _Parser(
        prog="esqpt",
        description="Spectra, level densities, stationary-point phase diagrams, "
        "and excited surfaces of the s-d interacting boson Hamiltonian family.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True
    for name, (_, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for opt in COMMON + options:
            flags = ("--output", "-o") if opt == "output" else ("--" + opt,)
            p.add_argument(*flags, **OPTIONS[opt])
    parser.commands = sub.choices
    return parser


def make_config(argv=None):
    """Parsed namespace of one job: flags over config-file values over defaults."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    options = COMMON + COMMANDS[args.command][2]
    if args.config:
        # the file's flags go before the command line's, which override them
        at = argv.index(args.command) + 1
        argv[at:at] = _config_flags(args.config, options, parser.commands[args.command])
        args = parser.parse_args(argv)
    if args.beta0p is None:
        raise ValueError("beta0p is required (flag --beta0p or config file)")
    if args.output is None:
        args.output = f"{args.command}.{args.format}"
    inputs = {_dest(opt): getattr(args, _dest(opt))
              for opt in options if opt not in ("config", "seed") + LAMBDA}
    if "lambda" in options:
        args.lambdas = _lambda_grid(args)
        inputs.update(lambda_start=float(args.lambdas[0]), lambda_stop=float(args.lambdas[-1]),
                      lambda_count=len(args.lambdas))
    # refuse parameters outside the domain before any work; its lambda range is
    # an interval, so the grid's ends decide it for every value
    for lam in (args.lambdas[0], args.lambdas[-1]) if "lambda" in options else (0.0,):
        ModelParams(args.beta0p, float(lam))
    args.inputs = inputs
    args.threads = _threads_from_env()
    # what the run found, for the manifest, and the (path, header, rows) of
    # tables written after the main one; set by the runner
    args.diagnostics = {}
    args.side_tables = []
    args.workers = 1
    return args


def _thread_diagnostics(workers):
    """Workers a job ran on, their pool, and the BLAS thread variables they saw."""
    return {
        "workers": workers,
        "pool": "threads" if workers > 1 else "serial",
        "blas": {v: {"value": os.environ.get(v), "set_by_esqpt": v in BLAS_THREADS_SET}
                 for v in BLAS_THREAD_VARIABLES},
    }


def run(cfg):
    """Execute one job: data table(s) plus a manifest next to the output.

    The main table is written first; if a later write fails, the tables
    already written are removed, so a failed job leaves no data file.
    """
    t0 = time.perf_counter()
    header, rows = COMMANDS[cfg.command][0](cfg)
    written = []
    try:
        for path, head, body in [(cfg.output, header, rows)] + cfg.side_tables:
            write_table(path, head, body, cfg.format)
            written.append(path)
        write_manifest(
            cfg.output, cfg.command, cfg.inputs, cfg.seed, time.perf_counter() - t0,
            {"threads": _thread_diagnostics(cfg.workers), **cfg.diagnostics},
        )
    except BaseException:
        for path in written:
            os.remove(path)
        raise
    return 0


def main(argv=None):
    try:
        return run(make_config(argv))
    # first: np.linalg.LinAlgError is a ValueError
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"esqpt: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"esqpt: domain error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # sizes too large to allocate are bad parameter values too
        print(f"esqpt: domain error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"esqpt: i/o error: {exc}", file=sys.stderr)
        return 74


if __name__ == "__main__":
    sys.exit(main())
