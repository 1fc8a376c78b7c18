"""4-D multistart census: batched Newton from Sobol points in the phase-space ball.

The census that the exact symmetry-plane roots of `esqpt.stationary`
replaced, kept to check them: it searches all of phase space, so it would
find a stationary point off the plane Fix(sigma) that the exact census
assumes does not exist.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import qmc

from esqpt import stationary
from esqpt.classical import R0_SQUARED


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
    converged = stationary._newton_polish(params, seeds, max_iter=200)
    return stationary._dedupe(np.vstack([converged, np.zeros((1, 4))]))
