"""Span recorder installed into a job process before `esqpt.cli.main` runs.

`install()` replaces named public functions of the esqpt modules with
recorders. In-package callers look these functions up as module attributes
at call time, so every call is seen; a function that a module imported by
name (`cli.write_table`) is replaced wherever it is bound. Spans and counts
stay in memory; `dump()` writes them once, when the job ends.

Two kinds of recorder:
- span: one record per call (name, start, end, parent, self time, counts);
- leaf: calls, points and seconds summed per function, for functions called
  up to ~10^5 times per job (the kernels, the excited-surface energy).

A span's self time is its duration minus the time of the recorded calls
made inside it.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

SPANS = {
    "io": ("write_table",),
    "stationary": ("find_stationary_points", "trace_borderlines", "spinodal_points",
                   "boundary_extrema"),
    "quantum": ("chain_blocks", "build_hamiltonian", "diagonalize", "oscillatory_density"),
    "density": ("mc_density", "density_derivative", "smoothed_flow"),
    "surfaces": ("surface_stationary_points",),
}
LEAVES = {
    "_kernels": ("h_eval", "h_grad", "h_hess", "potential"),
    "surfaces": ("excited_energy",),
}


def _counts(name, args, result):
    """Work done by one span call, taken from its arguments and result."""
    if name == "io.write_table":
        return {"rows": len(args[2]), "bytes": os.path.getsize(args[0])}
    if name == "stationary.find_stationary_points":
        return {"points": len(result)}
    if name == "quantum.diagonalize":
        return {"dim": len(result.energies)}
    if name == "density.mc_density":
        from esqpt.quantum import basis_dimension

        inside = float(result.rho.sum()) * result.binwidth / basis_dimension(result.ref_N)
        return {"samples": result.n_samples, "coverage": inside}
    return {}


class Recorder:
    def __init__(self, job):
        self.job = job
        self.spans = []  # [name, start, end, parent, self_s, counts]
        self.leaves = {}  # name -> [calls, points, seconds, seconds outside any span]
        self.stack = []  # [span index, seconds of recorded calls inside]

    def span(self, name, fn):
        clock = time.perf_counter

        def recorded(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1][0] if self.stack else -1
            frame = [idx, 0.0]
            self.spans.append(None)
            self.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += t1 - t0
                self.spans[idx] = [name, t0, t1, parent, t1 - t0 - frame[1], {}]
            self.spans[idx][5] = _counts(name, args, result)
            return result

        return recorded

    def leaf(self, name, fn):
        clock = time.perf_counter
        total = self.leaves.setdefault(name, [0, 0, 0.0, 0.0])

        def recorded(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            total[0] += 1
            total[1] += np.size(args[0])
            total[2] += dt
            if self.stack:
                self.stack[-1][1] += dt
            else:
                total[3] += dt
            return result

        return recorded

    def install(self):
        """Replace every target function wherever an esqpt module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "esqpt"]
        for kinds, make in ((SPANS, self.span), (LEAVES, self.leaf)):
            for short, names in kinds.items():
                owner = sys.modules[f"esqpt.{short}"]
                layer = short.lstrip("_")
                for attr in names:
                    original = getattr(owner, attr)
                    wrapped = make(f"{layer}.{attr}", original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)

    def dump(self, path, **extra):
        doc = dict(extra, job=self.job, spans=self.spans, leaves=self.leaves)
        with open(path, "w") as fh:
            json.dump(doc, fh)
