"""Classical limit of the model Hamiltonians on the compact phase space.

Energies are per-boson mean-field values evaluated in Cartesian variables
(x, y, px, py), which stay regular at beta = 0; the phase space is the
4-ball x^2 + y^2 + px^2 + py^2 <= R0_SQUARED (`models`).
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .models import R0_SQUARED, ModelParams


def _check_inside(v):
    r2 = v[0] ** 2 + v[1] ** 2 + v[2] ** 2 + v[3] ** 2
    if r2 > R0_SQUARED + 1e-12:
        raise ValueError(f"point outside the phase space: R^2 = {r2:.6f} > 2")
    return r2


def eval_H(params: ModelParams, pt) -> float:
    """Classical energy at a phase-space point."""
    v = np.asarray(pt, dtype=float)
    _check_inside(v)
    return float(_kernels.h_eval(v[0], v[1], v[2], v[3], params.beta0p, params.couplings))


def grad_H(params: ModelParams, pt):
    v = np.asarray(pt, dtype=float)
    r2 = _check_inside(v)
    if r2 > R0_SQUARED - 1e-12:
        # H_z has sqrt(1 - u) = sqrt(1 - R^2/2), whose derivatives diverge there
        raise ValueError(f"the gradient is singular on the boundary R^2 = 2: R^2 = {r2:.6f}")
    return _kernels.h_grad(v[0], v[1], v[2], v[3], params.beta0p, params.couplings)
