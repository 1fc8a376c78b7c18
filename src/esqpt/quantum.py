"""L=0 boson basis, Hamiltonian matrices, and spectra in closed form.

The L = 0 states of N s/d bosons are labelled by the U(5) > O(5) quantum
numbers (n_d, tau): at d-boson number n the seniorities are
tau in {n, n-2, ...} with tau = 0 (mod 3), one state each (Arima & Iachello,
Ann. Phys. 99 (1976) 253): a = tau/3 runs over n mod 2, n mod 2 + 2, ... up
to n/3.  States are ordered by n_d, then by ascending tau, so (n, a) sits at
index offset[n] + (a - n mod 2)/2.
Every parameter-independent operator is analytic in (n_d, tau), with all
phases chosen +1 (k = tau / 3, G = [d+ d+]^(2), W = sum_mu G_mu d_mu):

    sum_mu G_mu G_mu+        diagonal, (2/7) [n(n-2) + tau(tau+3)]
    <n+2, tau|P+|n, tau>     sqrt((n-tau+2)(n+tau+5))
    <n+1, tau+3|W|n, tau>^2  2(k+1)^2 / [7(2k+1)(2k+3)] (n-tau)(n+tau+5)(n+tau+7)
    <n+1, tau-3|W|n, tau>^2  2k^2 / [7(2k-1)(2k+1)] (n-tau+2)(n-tau+4)(n+tau+3)

N H = A + zeta^2 B + zeta C + xi D with four sparse operators built, with the
n_d labels, once per (N, beta0p) (`_operators`, the one memo); `_assemble`
weighs them by `ModelParams.couplings`
for H and by (0, `ModelParams.coupling_slopes`) for dH/dlambda.
Spectra are exact for N <= N_CAP_DEFAULT = 200 (basis dimension 3434).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .models import ModelParams

N_CAP_DEFAULT = 200
DEGENERACY_TOL = 1e-9  # levels closer than this times max(1, |E|) form one cluster
# oscillatory density: a level's Gaussian has width OSC_C / rho, at most OSC_SIGMA_MAX
OSC_C = 0.5
OSC_SIGMA_MAX = 0.1


# ---------------------------------------------------------------------------
# labels and dimensions


def sector_size(n):
    """Number of L=0 states with n_d = n."""
    return len(range(n % 2, n // 3 + 1, 2))


def basis_dimension(N):
    """Number of L=0 states for N bosons: pairs (k, a) with 2k + 3a <= N."""
    return sum((N - 3 * a) // 2 + 1 for a in range(N // 3 + 1))


def check_boson_number(N):
    """Raise ValueError unless 1 <= N <= N_CAP_DEFAULT."""
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    if N > N_CAP_DEFAULT:
        raise ValueError(f"N = {N} exceeds the cap {N_CAP_DEFAULT}")


# ---------------------------------------------------------------------------
# parameter-independent operators


def chain_blocks(n_max):
    """(n_d, tau) arrays of the L=0 states with n_d <= n_max, in basis order."""
    states = [(n, 3 * a) for n in range(n_max + 1) for a in range(n % 2, n // 3 + 1, 2)]
    nd, tau = np.array(states, dtype=np.int64).reshape(-1, 2).T
    return nd, tau


@lru_cache(maxsize=4)
def _operators(N, beta0p):
    """n_d labels and A, B, C, D with N H = A + zeta^2 B + zeta C + xi D on the
    N-boson L=0 space, as (nd, (A, B, C, D)).

    Each operator is (rows, cols, values) listing every nonzero element once,
    both triangles included, so that a scatter-add assembles it exactly.
    The memo shares every array among its callers, so each is read-only.
    """
    check_boson_number(N)
    n, tau = chain_blocks(N)
    # the states of d-number m start at offset[m], with a = tau/3 = m mod 2, m mod 2 + 2, ...
    offset = np.searchsorted(n, np.arange(N + 1))

    def pairs(dn, da):
        """(rows, cols) of every state pair (n, a) -> (n + dn, a + da), by
        source, and the source's (n_d, tau)."""
        m, a = n + dn, tau // 3 + da
        cols = np.flatnonzero((a >= 0) & (3 * a <= m) & (m <= N))
        m, a = m[cols], a[cols]
        return offset[m] + (a - m % 2) // 2, cols, n[cols], tau[cols]

    diag = np.arange(len(n))
    a = (diag, diag, 2.0 * n * (n - 1) + 2.0 * beta0p**2 * (N - n) * n)
    q2 = (2.0 / 7.0) * (n * (n - 2) + tau * (tau + 3))  # sum_mu G_mu G_mu+
    b = (diag, diag, -2.0 * n * (n - 1) + 7.0 * q2)

    # C = sqrt(14) beta0p (s+ W + W+ s), W: (n, tau) -> (n + 1, tau +- 3)
    up_rows, up_cols, m, t = pairs(1, 1)
    k = t // 3
    up = 2.0 * (k + 1) ** 2 / (7 * (2 * k + 1) * (2 * k + 3)) * (m - t) * (m + t + 5) * (m + t + 7)
    down_rows, down_cols, m, t = pairs(1, -1)
    k = t // 3
    down = 2.0 * k**2 / (7 * (2 * k - 1) * (2 * k + 1)) * (m - t + 2) * (m - t + 4) * (m + t + 3)
    rows, cols = np.concatenate([up_rows, down_rows]), np.concatenate([up_cols, down_cols])
    cw = math.sqrt(14.0) * beta0p * np.sqrt(N - n[cols]) * np.sqrt(np.concatenate([up, down]))
    c = (np.concatenate([rows, cols]), np.concatenate([cols, rows]), np.concatenate([cw, cw]))

    # D = S+ S with S = P - beta0p^2 s s from the N- to the (N-2)-boson space,
    # P+: (n, tau) -> (n + 2, tau)
    rows, cols, m, t = pairs(2, 0)
    p = np.sqrt((m - t + 2.0) * (m + t + 5))
    ss = beta0p**2 * np.sqrt((N - n) * np.maximum(N - n - 1, 0))
    dd = ss**2
    dd[rows] += p**2
    off = -ss[cols] * p
    d = (
        np.concatenate([diag, rows, cols]),
        np.concatenate([diag, cols, rows]),
        np.concatenate([dd, off, off]),
    )
    for array in (n, *a, *b, *c, *d):
        array.flags.writeable = False
    return n, (a, b, c, d)


def _assemble(coeffs, operators):
    """Dense sum of coeff * operator over the nonzero coeffs; the size is A's, the first."""
    dim = len(operators[0][0])
    m = np.zeros((dim, dim))
    for coeff, (rows, cols, vals) in zip(coeffs, operators):
        if coeff != 0.0:
            m[rows, cols] += coeff * vals
    return m


# ---------------------------------------------------------------------------
# Hamiltonian assembly


def build_hamiltonian(params: ModelParams, N):
    """Dense symmetric H(lambda, beta0p) in the L=0 basis: `_operators` weighed by `couplings`."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = _assemble(params.couplings, _operators(N, params.beta0p)[1]) / N
    if not np.isfinite(h).all():
        raise ValueError(f"H is not finite at lambda = {params.lam:g}")
    return h


@dataclass
class SpectrumResult:
    params: ModelParams
    N: int
    energies: np.ndarray  # absolute eigenvalues of H, ascending
    slopes: np.ndarray  # dE_i/dlambda via first-order perturbation
    nd_expectation: np.ndarray

    @property
    def epsilon(self):
        """Eigenvalues on the classical energy scale."""
        return self.energies / (2.0 * self.N)

    @property
    def epsilon_slopes(self):
        return self.slopes / (2.0 * self.N)

    @property
    def excitation(self):
        return self.energies - self.energies[0]


def diagonalize(params: ModelParams, N, side="left") -> SpectrumResult:
    """Full spectrum with slope and <n_d> expectations per eigenstate.

    The slopes are dE/dlambda from the `side` ("left" or "right") of lambda;
    the sides differ only at the critical lambda = 1. Inside a cluster of
    degenerate levels (gaps <= DEGENERACY_TOL max(1, |E|)) the eigenvectors
    are rotated to diagonalize dH/dlambda, so the slopes are the one-sided
    derivatives of the levels on `side` and <n_d> belongs to the states those
    levels continue into, whatever basis `eigh` returned.
    """
    evals, evecs = np.linalg.eigh(build_hamiltonian(params, N))
    nd, operators = _operators(N, params.beta0p)
    dh = _assemble((0.0, *params.coupling_slopes(side)), operators) / N
    dh_v = dh @ evecs
    slopes = np.einsum("ij,ij->j", evecs, dh_v)
    # level i + 1 joins level i's cluster; joins lo..hi - 1 make levels lo..hi one cluster
    joined = np.diff(evals) <= DEGENERACY_TOL * np.maximum(1.0, np.abs(evals[1:]))
    for lo, hi in np.flatnonzero(np.diff(joined, prepend=False, append=False)).reshape(-1, 2):
        v = evecs[:, lo:hi + 1]
        slopes[lo:hi + 1], u = np.linalg.eigh(v.T @ dh_v[:, lo:hi + 1])
        evecs[:, lo:hi + 1] = v @ u
    nd_exp = np.einsum("ij,i,ij->j", evecs, nd, evecs)
    return SpectrumResult(params, N, evals, slopes, nd_exp)


def gaussian_spectral_density(energies, centers, width, weights=None):
    """Sum of unit-area Gaussians at `energies` on the 1-D `centers`: `width` is one
    width or one per level, `weights` one weight per level or a (k, levels) stack."""
    e = np.asarray(energies)[:, None]  # levels down, centers across
    s = np.broadcast_to(width, np.shape(energies))[:, None]
    w = np.ones_like(e) if weights is None else np.asarray(weights)[..., None]
    terms = np.zeros((*w.shape[:-2], len(e) + 1, len(centers)))  # a zero row, then the levels
    with np.errstate(over="ignore"):  # a tiny width: exp(-inf) = 0 is exact
        norm = 1.0 / (s * math.sqrt(2 * math.pi))
        terms[..., 1:, :] = w * norm * np.exp(-0.5 * ((centers - e) / s) ** 2)
    # added one level at a time, as a loop would (np.sum pairs them up at one center)
    return np.add.accumulate(terms, axis=-2)[..., -1, :]


def oscillatory_density(params: ModelParams, N, grid):
    """Oscillatory part of the level density on a DensityGrid's bins.

    Subtracts the smooth Monte-Carlo density from a sum of narrow Gaussians
    centered at the scaled eigenvalues; the per-level width is OSC_C / rho at
    the level's energy (at most OSC_SIGMA_MAX), keeping it below the local
    mean spacing.
    """
    eps = diagonalize(params, N).epsilon
    rho_at = np.interp(eps, grid.e_centers, grid.rho)
    sigma = np.where(
        rho_at > OSC_C / OSC_SIGMA_MAX, OSC_C / np.maximum(rho_at, 1e-12), OSC_SIGMA_MAX
    )
    return gaussian_spectral_density(eps, grid.e_centers, sigma) - grid.rho
