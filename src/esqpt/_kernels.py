"""Hot numerical kernels of the classical Hamiltonian, in numpy.

Every kernel broadcasts over array coordinates; the derivatives come from
the generated `_derivs` module.
"""

from __future__ import annotations

import numpy as np

from . import _derivs

# the one backend; perfbench/job.py and perfbench/run.py read this name
USE_NUMBA = False


def h_eval(x, y, px, py, b0, ze, xi):
    u = 0.5 * (x * x + y * y + px * px + py * py)
    pg = x * py - y * px
    a = (py * py - px * px) * x + 2.0 * px * py * y - x * x * x + 3.0 * x * y * y
    s = np.sqrt(np.abs(1.0 - u) / 2.0)
    h = u * u + b0 * b0 * (1.0 - u) * u + ze * ze * pg * pg + ze * b0 * s * a
    if xi != 0.0:
        bpb = x * px + y * py
        w = 0.5 * (x * x + y * y - px * px - py * py) - b0 * b0 * (1.0 - u)
        h = h + xi * 0.5 * (bpb * bpb + w * w)
    return h


def potential(x, y, b0, ze, xi):
    """Potential surface V(x, y) = H(x, y, 0, 0)."""
    return h_eval(x, y, 0.0, 0.0, b0, ze, xi)


_TRIU = np.array([0, 1, 2, 3, 1, 4, 5, 6, 2, 5, 7, 8, 3, 6, 8, 9])


def h_grad(x, y, px, py, b0, ze, xi):
    """Gradient of the classical Hamiltonian; shape (4,) + broadcast shape."""
    g = np.array(_derivs.grad_h1(x, y, px, py, b0, ze), dtype=float)
    if xi != 0.0:
        g = g + xi * np.array(_derivs.grad_extra(x, y, px, py, b0), dtype=float)
    return g


def h_hess(x, y, px, py, b0, ze, xi):
    """Hessian; shape broadcast + (4, 4)."""
    t = np.array(_derivs.hess_h1(x, y, px, py, b0, ze), dtype=float)
    if xi != 0.0:
        t = t + xi * np.array(_derivs.hess_extra(x, y, px, py, b0), dtype=float)
    return np.moveaxis(t[_TRIU], 0, -1).reshape(t.shape[1:] + (4, 4))
