"""End-to-end and per-layer metrics from measured passes and recorded spans.

Metrics of a layer that a workload does not reach read 0.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from workloads import ALL_JOBS

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("setup_rss_mb", "MB", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "ratio", "higher"),
)

# Bytes one point reads (coordinates) and writes (value, gradient, Hessian),
# in float64: computed from array sizes, not measured traffic.
KERNEL_BYTES = {"h_eval": 8 * (4 + 1), "h_grad": 8 * (4 + 4), "h_hess": 8 * (4 + 16),
                "potential": 8 * (2 + 1)}

PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    *((f"cli.job.{job}.wall_s", "s", "lower") for job in ALL_JOBS),
    ("io.write_table.s", "s", "lower"),
    ("io.write_table.rows", "count", "lower"),
    ("io.bytes_out", "B", "lower"),
    *(item for k in KERNEL_BYTES for item in (
        (f"kernels.{k}.calls", "count", "lower"),
        (f"kernels.{k}.points", "count", "lower"),
        (f"kernels.{k}.s", "s", "lower"),
        (f"kernels.{k}.ns_per_point", "ns", "lower"),
        (f"kernels.{k}.bytes_computed", "B", "lower"),
    )),
    ("stationary.find_stationary_points.calls", "count", "lower"),
    ("stationary.find_stationary_points.s", "s", "lower"),
    ("stationary.find_stationary_points.self_s", "s", "lower"),
    ("stationary.find_stationary_points.points", "count", "higher"),
    ("stationary.trace_borderlines.s", "s", "lower"),
    ("stationary.trace_borderlines.self_s", "s", "lower"),
    ("stationary.spinodal_points.s", "s", "lower"),
    ("stationary.boundary_extrema.calls", "count", "lower"),
    ("stationary.boundary_extrema.s", "s", "lower"),
    ("stationary.boundary_extrema.self_s", "s", "lower"),
    ("quantum.setup_diagonalize_s", "s", "lower"),
    ("quantum.basis_dim", "count", "higher"),
    ("quantum.chain_blocks.calls", "count", "lower"),
    ("quantum.chain_blocks.s", "s", "lower"),
    ("quantum.build_hamiltonian.calls", "count", "lower"),
    ("quantum.build_hamiltonian.s", "s", "lower"),
    ("quantum.diagonalize.calls", "count", "lower"),
    ("quantum.diagonalize.s", "s", "lower"),
    ("quantum.diagonalize.self_s", "s", "lower"),
    ("quantum.diagonalize.p50_ms", "ms", "lower"),
    ("quantum.diagonalize.p95_ms", "ms", "lower"),
    ("quantum.oscillatory_density.s", "s", "lower"),
    ("density.mc_density.calls", "count", "lower"),
    ("density.mc_density.samples", "count", "lower"),
    ("density.mc_density.s", "s", "lower"),
    ("density.mc_density.p50_ms", "ms", "lower"),
    ("density.mc_density.p95_ms", "ms", "lower"),
    ("density.samples_per_s", "1/s", "higher"),
    ("density.density_derivative.s", "s", "lower"),
    ("density.smoothed_flow.s", "s", "lower"),
    ("density.coverage_min", "ratio", "higher"),
    ("density.coverage_mean", "ratio", "higher"),
    ("surfaces.excited_energy.calls", "count", "lower"),
    ("surfaces.excited_energy.s", "s", "lower"),
    ("surfaces.surface_stationary_points.calls", "count", "lower"),
    ("surfaces.surface_stationary_points.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _metric(name, value):
    return {"value": value, "unit": UNITS[name]}


def end_to_end(setups, passes):
    """Medians over the run's set-ups and passes; success over all jobs attempted."""
    jobs = [j for p in passes for j in p.jobs]
    values = {
        "setup_s": statistics.median(p.wall_s for p in setups),
        "setup_rss_mb": statistics.median(p.rss_mb for p in setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(sum(j.proc.cpu_s for j in p.jobs) for p in passes),
        "peak_rss_mb": statistics.median(max(j.proc.rss_mb for j in p.jobs) for p in passes),
        "success_rate": sum(j.ok for j in jobs) / len(jobs),
    }
    return {name: _metric(name, values[name]) for name, _, _ in END_TO_END}


def _p95(values):
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def per_layer(base, traced, setup_docs):
    spans = defaultdict(list)  # name -> [(duration, self, counts)]
    leaves = defaultdict(lambda: [0, 0, 0.0])
    for doc in traced.trace_docs:
        for name, t0, t1, _, self_s, counts in doc["spans"]:
            spans[name].append((t1 - t0, self_s, counts))
        for name, (calls, points, seconds, _) in doc["leaves"].items():
            total = leaves[name]
            total[0] += calls
            total[1] += points
            total[2] += seconds

    def calls(name):
        return len(spans[name])

    def total(name, index=0):
        return sum(s[index] for s in spans[name])

    def summed(name, key):
        return sum(s[2][key] for s in spans[name])

    def ms(name, fn):
        durations = [s[0] for s in spans[name]]
        return 1e3 * fn(durations) if durations else 0.0

    v = {"cli.import_s": statistics.median(d["import_s"] for d in traced.trace_docs)
         if traced.trace_docs else 0.0}
    walls = {j.name: j.proc.wall_s for j in traced.jobs}
    for job in ALL_JOBS:
        v[f"cli.job.{job}.wall_s"] = walls.get(job, 0.0)
    v["io.write_table.s"] = total("io.write_table")
    v["io.write_table.rows"] = summed("io.write_table", "rows")
    v["io.bytes_out"] = traced.bytes_out
    for k, per_point in KERNEL_BYTES.items():
        n_calls, points, seconds = leaves[f"kernels.{k}"]
        v[f"kernels.{k}.calls"] = n_calls
        v[f"kernels.{k}.points"] = points
        v[f"kernels.{k}.s"] = seconds
        v[f"kernels.{k}.ns_per_point"] = 1e9 * seconds / points if points else 0.0
        v[f"kernels.{k}.bytes_computed"] = points * per_point
    fsp = "stationary.find_stationary_points"
    v[f"{fsp}.calls"] = calls(fsp)
    v[f"{fsp}.s"] = total(fsp)
    v[f"{fsp}.self_s"] = total(fsp, 1)
    v[f"{fsp}.points"] = summed(fsp, "points")
    v["stationary.trace_borderlines.s"] = total("stationary.trace_borderlines")
    v["stationary.trace_borderlines.self_s"] = total("stationary.trace_borderlines", 1)
    v["stationary.spinodal_points.s"] = total("stationary.spinodal_points")
    v["stationary.boundary_extrema.calls"] = calls("stationary.boundary_extrema")
    v["stationary.boundary_extrema.s"] = total("stationary.boundary_extrema")
    v["stationary.boundary_extrema.self_s"] = total("stationary.boundary_extrema", 1)
    v["quantum.setup_diagonalize_s"] = statistics.median(d["diagonalize_s"] for d in setup_docs)
    v["quantum.basis_dim"] = max((s[2]["dim"] for s in spans["quantum.diagonalize"]), default=0)
    for name in ("chain_blocks", "build_hamiltonian", "diagonalize"):
        v[f"quantum.{name}.calls"] = calls(f"quantum.{name}")
        v[f"quantum.{name}.s"] = total(f"quantum.{name}")
    v["quantum.diagonalize.self_s"] = total("quantum.diagonalize", 1)
    v["quantum.diagonalize.p50_ms"] = ms("quantum.diagonalize", statistics.median)
    v["quantum.diagonalize.p95_ms"] = ms("quantum.diagonalize", _p95)
    v["quantum.oscillatory_density.s"] = total("quantum.oscillatory_density")
    mc = "density.mc_density"
    v[f"{mc}.calls"] = calls(mc)
    v[f"{mc}.samples"] = summed(mc, "samples")
    v[f"{mc}.s"] = total(mc)
    v[f"{mc}.p50_ms"] = ms(mc, statistics.median)
    v[f"{mc}.p95_ms"] = ms(mc, _p95)
    v["density.samples_per_s"] = v[f"{mc}.samples"] / v[f"{mc}.s"] if calls(mc) else 0.0
    v["density.density_derivative.s"] = total("density.density_derivative")
    v["density.smoothed_flow.s"] = total("density.smoothed_flow")
    coverage = [s[2]["coverage"] for s in spans[mc]]
    v["density.coverage_min"] = min(coverage, default=0.0)
    v["density.coverage_mean"] = statistics.fmean(coverage) if coverage else 0.0
    n_calls, _, seconds = leaves["surfaces.excited_energy"]
    v["surfaces.excited_energy.calls"] = n_calls
    v["surfaces.excited_energy.s"] = seconds
    v["surfaces.surface_stationary_points.calls"] = calls("surfaces.surface_stationary_points")
    v["surfaces.surface_stationary_points.s"] = total("surfaces.surface_stationary_points")
    v["trace.overhead_s"] = traced.wall_s - base.wall_s
    return {name: _metric(name, v[name]) for name, _, _ in PER_LAYER}


def trace_shares(traced, setups, setup_docs):
    """Share of the traced job wall time spent in each layer's outermost calls,
    and the share of set-up time spent diagonalizing."""
    by_layer = defaultdict(float)
    for doc in traced.trace_docs:
        for name, t0, t1, parent, _, _ in doc["spans"]:
            if parent == -1:
                by_layer[name.split(".")[0]] += t1 - t0
        for name, (_, _, _, outside) in doc["leaves"].items():
            by_layer[name.split(".")[0]] += outside
    wall = traced.wall_s
    shares = {layer: round(s / wall, 4) for layer, s in sorted(by_layer.items())}
    shares["setup.quantum"] = round(
        statistics.median(d["diagonalize_s"] for d in setup_docs)
        / statistics.median(p.wall_s for p in setups), 4)
    return shares
