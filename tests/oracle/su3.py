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


def su3_cdf(e):
    """F(E) = P(H <= E) on the ball on the SU(3) line, for an array of energies.

    The uniform measure of the phase-space ball is the uniform measure on the
    triangle a, kappa >= 0, a + 2 kappa <= 1 (area 1/4) of the labels
    a = lam / 2N, kappa = mu / 2N, which the L = 0 states fill as N grows, and
    there E = 2 (1 - a^2 - a kappa - kappa^2).  With c = 1 - E/2 on [0, 2], H <= E is
    the part of the triangle outside the ellipse a^2 + a kappa + kappa^2 < c:
    for c <= 1/4 (E >= 1.5) the ellipse's part in the quadrant a, kappa >= 0 lies
    inside the triangle and has area pi c / (3 sqrt(3)); above, its arc a(kappa)
    crosses a + 2 kappa = 1 at kappa_1, the part outside it lies at kappa < kappa_1,
    and G(kappa) / 2 - kappa^2 / 4 is the area under the arc from 0 to kappa.
    """
    c = 1.0 - np.clip(np.asarray(e, dtype=float), 0.0, 2.0) / 2.0
    f = 1.0 - 4.0 * math.pi * c / (3.0 * math.sqrt(3.0))
    wide = c > 0.25
    cw = c[wide]
    k1 = (3.0 - np.sqrt(12.0 * cw - 3.0)) / 6.0
    g = (k1 / 2.0 * np.sqrt(4.0 * cw - 3.0 * k1 * k1)
         + 2.0 * cw / math.sqrt(3.0) * np.arcsin(math.sqrt(3.0) * k1 / (2.0 * np.sqrt(cw))))
    f[wide] = 4.0 * (k1 - 0.75 * k1 * k1 - 0.5 * g)
    return f
