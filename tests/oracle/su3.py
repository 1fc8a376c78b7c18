"""Exact L = 0 spectrum on the SU(3) line (beta0', lambda) = (sqrt(2), 2).

There H is the SU(3) Casimir measured from the ground irrep (2N, 0): the
symmetric U(6) irrep [N] holds the SU(3) irreps (2N - 4k - 6m, 2k) with
k, m >= 0 and 2k + 3m <= N (Arima & Iachello 1978; Elliott 1958); both labels
are even, so each holds L = 0 exactly once, in its K = 0 band.  With
C2(lam, mu) = lam^2 + mu^2 + lam mu + 3 lam + 3 mu the levels are

    N E = C2(2N, 0) - C2(2N - 4k - 6m, 2k).
"""

from __future__ import annotations

import math

import numpy as np

SU3_LINE = (math.sqrt(2.0), 2.0)  # (beta0', lambda)


def casimir(lam, mu):
    """The SU(3) quadratic Casimir C2(lam, mu)."""
    return lam * lam + mu * mu + lam * mu + 3 * lam + 3 * mu


def su3_levels(N):
    """N E of every L = 0 level at N bosons, ascending, as exact integers."""
    top = casimir(2 * N, 0)
    return np.sort([top - casimir(2 * N - 4 * k - 6 * m, 2 * k)
                    for m in range(N // 3 + 1) for k in range((N - 3 * m) // 2 + 1)])
