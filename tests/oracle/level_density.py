"""Exact classical level-counting function at lambda = 0.

At zeta = xi = 0 the energy depends on u = R^2 / 2 alone,
H = b^2 u - (b^2 - 1) u^2 with b = beta0', and u^2 = R^4 / 4 is uniform on
[0, 1] under the uniform measure on the 4-ball of radius sqrt(2), so
P(u <= t) = t^2.  H rises from 0 at u = 0; for b^2 <= 2 it rises up to
H = 1 at u = 1, and for b^2 > 2 it peaks at E_max = b^4 / (4 (b^2 - 1)) and
falls back to 1.  So the fraction F(E) of the ball with H <= E is u1^2 plus,
for 1 <= E < E_max, the 1 - u2^2 above the far root u2, where

    u1 = 2 E / (b^2 + sqrt(b^4 - 4 (b^2 - 1) E))

is the near root of H(u) = E, written so that it holds at b^2 = 1 too.
"""

from __future__ import annotations

import numpy as np


def zero_lambda_cdf(beta0p, e):
    """F(E) = P(H <= E) on the ball at lambda = 0, for an array of energies."""
    b2 = beta0p * beta0p
    e = np.asarray(e, dtype=float)
    top = b2 * b2 / (4.0 * (b2 - 1.0)) if b2 > 2.0 else 1.0
    inside = (e > 0.0) & (e < top)
    f = np.where(e >= top, 1.0, 0.0)
    ei = e[inside]
    root = np.sqrt(b2 * b2 - 4.0 * (b2 - 1.0) * ei)
    u1 = 2.0 * ei / (b2 + root)
    fi = u1 * u1
    if b2 > 2.0:
        u2 = (b2 + root) / (2.0 * (b2 - 1.0))
        fi = np.where(ei >= 1.0, fi + 1.0 - u2 * u2, fi)
    f[inside] = fi
    return f
