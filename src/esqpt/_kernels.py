"""Hot numerical kernels of the classical Hamiltonian, in numpy.

Every kernel broadcasts over array coordinates.  The energy is linear in the
couplings (1, zeta^2, zeta, xi), H = H0 + zeta^2 H_zz + zeta H_z + xi H_xi,
mirroring N H = A + zeta^2 B + zeta C + xi D in `quantum`; so are its gradient
and Hessian.  The generated `_derivs.h_parts` gives the four lambda-independent
parts, and `_derivs.grad_parts` and `hess_parts` give their derivatives, all
from the one sympy definition of the parts (tools/gen_derivs.py); `h_combine`
weighs any of them by a coefficient vector, by the rule of `quantum._assemble`.
`h_eval`, `h_grad` and `h_hess` are parts-then-combine and take that vector:
`ModelParams.couplings` gives H, and (0, *`coupling_slopes(side)`) dH/dlambda.
"""

from __future__ import annotations

import numpy as np

from . import _derivs

# the one backend; perfbench/job.py and perfbench/run.py read this name
USE_NUMBA = False


def h_combine(parts, coeffs):
    """Sum of coeff * part over the nonzero coeffs, in order, as a new array (the
    first sum makes it: no part is written to); a part weighed by 1 is not multiplied."""
    terms = (part if c == 1.0 else c * part for c, part in zip(coeffs, parts) if c != 0.0)
    h = next(terms) + next(terms, 0.0)
    for term in terms:
        h += term
    return h


def h_eval(x, y, px, py, b0, coeffs):
    return h_combine(_derivs.h_parts(x, y, px, py, b0, coeffs[3] != 0.0), coeffs)


def potential(x, y, b0, coeffs):
    """Potential surface V(x, y) = H(x, y, 0, 0)."""
    return h_eval(x, y, 0.0, 0.0, b0, coeffs)


_TRIU = np.array([0, 1, 2, 3, 1, 4, 5, 6, 2, 5, 7, 8, 3, 6, 8, 9])


def _derivative(emitted, coeffs):
    """h_combine of the emitted per-part derivative tuples, each as one array."""
    return h_combine([None if p is None else np.array(p, dtype=float) for p in emitted], coeffs)


def h_grad(x, y, px, py, b0, coeffs):
    """Gradient of the classical Hamiltonian; shape (4,) + broadcast shape."""
    return _derivative(_derivs.grad_parts(x, y, px, py, b0, coeffs[3] != 0.0), coeffs)


def h_hess(x, y, px, py, b0, coeffs):
    """Hessian; shape broadcast + (4, 4)."""
    if len({np.shape(v) for v in (x, y, px, py)}) > 1:
        # a part's Hessian entry can depend on only some coordinates, and the
        # entries stack only when they share a shape
        x, y, px, py = np.broadcast_arrays(x, y, px, py)
    t = _derivative(_derivs.hess_parts(x, y, px, py, b0, coeffs[3] != 0.0), coeffs)
    return np.moveaxis(t[_TRIU], 0, -1).reshape(t.shape[1:] + (4, 4))
