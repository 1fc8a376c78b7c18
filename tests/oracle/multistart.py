"""4-D multistart census: batched Newton from Sobol points in the phase-space ball.

The census that the exact symmetry-plane roots of `esqpt.stationary`
replaced, kept to check them: it searches all of phase space, so it would
find a stationary point off the plane Fix(sigma) that the exact census
assumes does not exist.  The batched Newton search lives here and nowhere in
`esqpt`, whose census polishes each root on its own polynomial instead.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import qmc

from esqpt import _kernels, stationary
from esqpt.classical import R0_SQUARED
from esqpt.stationary import GRAD_TOL, INTERIOR_R2

NEWTON_STEP_CAP = 0.25  # longest step of the batched Newton search


def _newton_polish(params, pts, max_iter):
    """Batched Newton iteration on grad H = 0; returns converged points."""
    b0, coup = params.beta0p, params.couplings
    x = np.asarray(pts, dtype=float).copy()
    alive = np.ones(len(x), dtype=bool)
    done = np.zeros(len(x), dtype=bool)
    for _ in range(max_iter):
        idx = alive & ~done
        if not idx.any():
            break
        p = x[idx]
        g = np.stack(_kernels.h_grad(p[:, 0], p[:, 1], p[:, 2], p[:, 3], b0, coup), axis=-1)
        h = _kernels.h_hess(p[:, 0], p[:, 1], p[:, 2], p[:, 3], b0, coup)
        try:
            step = np.linalg.solve(h, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # an exactly singular member stops the batched solve; every point
            # takes the least-squares step of its own Hessian instead
            step = (np.linalg.pinv(h) @ g[..., None])[..., 0]
        norms = np.linalg.norm(step, axis=1)
        big = norms > NEWTON_STEP_CAP
        step[big] *= (NEWTON_STEP_CAP / norms[big])[:, None]
        newp = p - step
        r2 = np.einsum("ij,ij->i", newp, newp)
        escaped = r2 > INTERIOR_R2
        gnorm = np.abs(g).max(axis=1)
        conv = (np.linalg.norm(step, axis=1) < 1e-12) & (gnorm < GRAD_TOL)
        x[idx] = np.where(escaped[:, None], p, newp)
        ai = np.where(idx)[0]
        alive[ai[escaped]] = False
        done[ai[conv & ~escaped]] = True
    out = x[done]
    if len(out):
        g = np.stack(
            _kernels.h_grad(out[:, 0], out[:, 1], out[:, 2], out[:, 3], b0, coup), axis=-1
        )
        out = out[np.abs(g).max(axis=1) <= GRAD_TOL]
    return out


def ball_seeds(n, seed=1234):
    """The first n of 2**m scrambled Sobol points in [-r, r]^4 that lie in the open ball."""
    radius = math.sqrt(R0_SQUARED)
    m = max(4, math.ceil(math.log2(n * 3.5)))
    pts = (qmc.Sobol(d=4, scramble=True, seed=seed).random_base2(m) * 2.0 - 1.0) * radius
    r2 = np.einsum("ij,ij->i", pts, pts)
    return pts[r2 < radius**2 * (1 - 1e-6)][:n]


def multistart_census(params, n_seeds, seed=1234):
    """Deduplicated (k, 4) locations reached by Newton from the origin and the seeds."""
    seeds = np.vstack([np.zeros((1, 4)), ball_seeds(n_seeds, seed)])
    converged = _newton_polish(params, seeds, max_iter=200)
    return stationary._dedupe(np.vstack([converged, np.zeros((1, 4))]))
