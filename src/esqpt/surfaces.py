"""Condensate energies and excited surfaces in closed form.

The excited state carries N_gamma quanta of the axial (d+_{+2} d+_{-2}) pair
on top of n = N - N_gamma bosons condensed in
B+(beta) = s s+ + d d+_0, with s = sqrt(1 - beta^2/2) and d = beta/sqrt(2).
N H is purely two-body, so its expectation in that state is a homogeneous
quartic in (s, d):

    2 N^2 E = sum_j f_j s^(4-j) d^j
            = 2 n (n-1) V(s, d)
              + n m (4 b^2 s^2 + 16 zeta b s d + 8 (1 + zeta^2) d^2) (s^2 + d^2)
              + [4 (1 - zeta^2) m (m-1) + 4 (1 + zeta^2 + xi) m^2] (s^2 + d^2)^2

with m = N_gamma/2, b = beta0', and V the gamma = 0 classical potential

    V = xi b^4 s^4 / 2 + b^2 (1 - xi) s^2 d^2 - 2 zeta b s d^3 + (1 + xi/2) d^4,

whose coefficients `_derivs.axial_quartic` gives from the parts of H
(tools/gen_derivs.py, at y = px = py = 0, x = sqrt(2) d, on s^2 + d^2 = 1).

Since s^2 + d^2 = 1, s = cos(theta) and d = sin(theta) with theta in
[0, pi/2); with t = tan(theta), dE/dtheta = cos^4(theta) p(t) / (2 N^2) for
the quartic p(t) = sum_j f_j [j t^(j-1) - (4-j) t^(j+1)], whose roots are the
stationary points of the surface. The test suite checks these formulas
against brute-force expectation values of the boson-operator Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _derivs, _kernels
from .models import R0_SQUARED, SCALE_MAX, ModelParams

BETA_MAX = math.sqrt(R0_SQUARED)
# the quartic's coefficients are at most 16 N^2 S (S = `ModelParams.energy_scale`);
# N is refused where that passes SCALE_MAX^4, the ceiling of the generated
# formulas at the edge of the parameter domain
COEFF_MAX = SCALE_MAX**4
# the kept roots of p lie below t = 841 (beta < sqrt(2) - 1e-6), inside [0, T_KEPT)
T_KEPT = 1e3


def condensate_energy(params: ModelParams, N, beta, gamma=0.0):
    """Exact finite-N energy per boson pair of the condensate state."""
    if not 0.0 <= beta <= BETA_MAX:
        raise ValueError(f"beta out of range [0, sqrt(2)]: {beta}")
    v = _kernels.potential(beta * math.cos(gamma), beta * math.sin(gamma), params.beta0p,
                           params.couplings)
    return (N - 1) / N * float(v)


def _quartic(params: ModelParams, N, N_gamma):
    """Coefficients (f_0, ..., f_4) of 2 N^2 E = sum_j f_j s^(4-j) d^j."""
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    n_max = math.sqrt(COEFF_MAX / (16.0 * params.energy_scale))
    if N > n_max:
        raise ValueError(f"N = {N} is above {n_max:.3g}, past which the excited surfaces "
                         f"at beta0p = {params.beta0p:.12g}, lambda = {params.lam:.12g} "
                         f"leave the float range")
    if N_gamma % 2 != 0:
        raise ValueError("N_gamma must be even (K = 0 pair construction)")
    if N_gamma < 0 or N_gamma > N:
        raise ValueError("need 0 <= N_gamma <= N")
    b, (_, z2, ze, xi) = params.beta0p, params.couplings
    n, m = N - N_gamma, N_gamma // 2
    v = np.array(_derivs.axial_quartic(b, ze, xi), dtype=float)
    a, c = 4.0 * b * b, 8.0 * (1.0 + z2)
    mixed = np.array([a, 16.0 * ze * b, a + c, 16.0 * ze * b, c])
    pairs = 4.0 * (1.0 - z2) * m * (m - 1) + 4.0 * (1.0 + z2 + xi) * m * m
    return 2.0 * n * (n - 1) * v + n * m * mixed + pairs * np.array([1.0, 0.0, 2.0, 0.0, 1.0])


def excited_energy(params: ModelParams, N, N_gamma, beta):
    """Excited surface value along the gamma = 0 cut, at a scalar or an array of beta.

    Expectation of H in the normalized state
    (d+_{+2} d+_{-2})^{N_gamma/2} (B+(beta, 0))^{N - N_gamma} |0>;
    N_gamma must be even (axial K = 0 selection). A scalar beta gives a float.
    """
    f = _quartic(params, N, N_gamma)
    beta = np.asarray(beta, dtype=float)
    if not np.all((0.0 <= beta) & (beta <= BETA_MAX)):
        raise ValueError(f"beta out of range [0, sqrt(2)]: {beta}")
    s, d = np.sqrt(np.maximum(1.0 - beta * beta / 2.0, 0.0)), beta / BETA_MAX
    e = sum(fj * s ** (4 - j) * d**j for j, fj in enumerate(f)) / (2.0 * N * N)
    return float(e) if np.ndim(e) == 0 else e


@dataclass(frozen=True)
class SurfaceStationaryPoint:
    beta: float
    energy: float
    kind: str  # primary_min | secondary_min | max


def surface_stationary_points(params: ModelParams, N, N_gamma):
    """Stationary points of the excited surface E(beta) on [0, sqrt(2)).

    Interior points are the real roots t > 0 of the quartic p(t) (module
    docstring) below beta = sqrt(2) - 1e-6, classified by the sign of
    d^2E/dtheta^2, i.e. of p'(t). The origin is always reported as the
    endpoint of the domain: its slope dE/dbeta(0) = 4 sqrt(2) zeta b n m / N^2
    vanishes only for N_gamma = 0, N_gamma = N or zeta = 0, and it is a
    minimum when the surface rises from it (a constant surface included).
    Minima are ranked by energy to 12 decimals, then by beta, so the exact
    lambda = 1 tie of the origin and beta = 2/sqrt(3) at E = 0 goes to the
    origin whatever the rounding; the result is sorted by beta.
    """
    f = _quartic(params, N, N_gamma)
    # p(t) from the highest power down: t^4, t^3, ..., t^0
    p = np.array([-f[3], 4 * f[4] - 2 * f[2], 3 * (f[3] - f[1]), 2 * f[2] - 4 * f[0], f[1]])
    # near t = 0 the lowest nonzero power of p sets the sign of dE/dtheta
    rising = next((c for c in p[::-1] if c != 0.0), 0.0) >= 0.0
    found = [(0.0, "min" if rising else "max")]
    # a leading term below eps of p's largest on [0, T_KEPT) only adds a root
    # far beyond T_KEPT, and np.roots would lose the others to its size
    terms = np.abs(p) * T_KEPT ** np.arange(4, -1, -1)
    p = p[np.argmax(terms >= np.finfo(float).eps * terms.max()):]
    roots = np.roots(p)
    dp = np.polyder(p)
    for t in roots[(roots.imag == 0.0) & (roots.real > 0.0)].real:
        beta = BETA_MAX * float(t) / math.sqrt(1.0 + t * t)
        if beta < BETA_MAX - 1e-6:
            found.append((beta, "min" if np.polyval(dp, t) > 0.0 else "max"))
    pts = [(beta, excited_energy(params, N, N_gamma, beta), kind) for beta, kind in found]
    minima = sorted((q for q in pts if q[2] == "min"), key=lambda q: (round(q[1], 12), q[0]))
    out = [
        SurfaceStationaryPoint(beta, e, "primary_min" if rank == 0 else "secondary_min")
        for rank, (beta, e, _) in enumerate(minima)
    ]
    out += [SurfaceStationaryPoint(beta, e, "max") for beta, e, kind in pts if kind == "max"]
    out.sort(key=lambda q: q.beta)
    return out
