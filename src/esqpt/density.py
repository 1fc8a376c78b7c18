"""Smoothed semiclassical level density by Monte-Carlo phase-space sampling.

The density of classical energy values under the uniform measure on the
4-ball equals (up to normalization) the smoothed quantum level density; we
normalize so that the integral over the support reproduces the L=0 state
count at a configured reference boson number.

The uniform measure does not depend on lambda, and the classical energy is
H0 + zeta^2 H_zz + zeta H_z + xi H_xi, the four-part split of N H in
`quantum` (`_derivs.h_parts`, generated from the one definition of H in
tools/gen_derivs.py). A scan over lambda therefore draws one sample and
evaluates the parts once per block; each lambda weighs them by its
`ModelParams.couplings`.
The sample streams through fixed-size blocks: memory does not grow with the
number of samples.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import _derivs, _kernels
from .models import R0_SQUARED, ModelParams
from .quantum import basis_dimension, gaussian_spectral_density

DEFAULT_BINS = 300
DEFAULT_E_RANGE = (-0.05, 3.05)
DEFAULT_REF_N = 50
PRESMOOTH_BINS = 2.0  # width, in bins, of the Gaussian smoothing before d rho / dE
# a feature of d rho / dE is this many standard errors of its curvature
# statistic, taken over this many bins
DETECT_N_SIGMA = 5.0
DETECT_WINDOW = 6


@dataclass(frozen=True)
class DensityGrid:
    """A Monte-Carlo level density on fixed energy bins, with d rho / dE and
    its error (`density_derivative`)."""

    e_edges: np.ndarray
    rho: np.ndarray
    mc_error: np.ndarray
    drho_dE: np.ndarray
    drho_error: np.ndarray
    n_samples: int
    params: ModelParams
    ref_N: int
    n_outside: int  # samples whose energy falls outside the window

    @property
    def e_centers(self):
        return 0.5 * (self.e_edges[:-1] + self.e_edges[1:])

    @property
    def binwidth(self):
        return float(self.e_edges[1] - self.e_edges[0])


def _ball_points(normals):
    """Uniform points in the 4-ball of radius sqrt(2), as rows (x, y, px, py).

    A row g of four standard normals has a uniform direction and, independent
    of it, t = |g|^2 with the chi-square distribution of 4 degrees of freedom,
    whose CDF u = 1 - e^(-h) (1 + h), h = t/2, is uniform on (0, 1). Each row
    is scaled to radius sqrt(2) u**(1/4) by one multiply, sqrt(2)
    sqrt(sqrt(u) / t). t is summed x^2 + y^2 + px^2 + py^2 left to right, so a
    point depends on its own row only, not on the block it is evaluated in.
    """
    w = normals.T.copy()
    t = w[0] * w[0]
    t += w[1] * w[1]
    t += w[2] * w[2]
    t += w[3] * w[3]
    h = 0.5 * t
    u = -np.expm1(-h) - h * np.exp(-h)
    w *= math.sqrt(R0_SQUARED) * np.sqrt(np.sqrt(u) / t)
    return w


# Samples per block: the draws and temporaries of one block stay in cache.
_BLOCK = 16_384


def mc_density_scan(
    beta0p,
    lambdas,
    n_samples=1_000_000,
    seed=0,
    bins=DEFAULT_BINS,
    ref_N=DEFAULT_REF_N,
    workers=1,
) -> list[DensityGrid]:
    """Monte-Carlo smoothed level densities at each lambda, on the classical
    energy scale, on `bins` bins of the window DEFAULT_E_RANGE.

    Every lambda bins the same `n_samples` phase-space points. The i-th point
    is the i-th row of four standard normals of `np.random.default_rng(seed)`,
    mapped into the ball by `_ball_points`, so the sample does not depend on
    how it is cut into blocks. H is linear in the couplings, so each
    block of `_BLOCK` points gets its lambda-independent parts once
    (`_derivs.h_parts`) and each lambda costs one `_kernels.h_combine`, a new
    array, sorted in place, and a search of the bin edges, which count as
    np.histogram does. Each grid is the one a scan of that lambda alone gives,
    with d rho / dE taken (`density_derivative`); the grids of one scan are correlated.

    `workers` threads share the blocks; one worker runs in the calling
    thread. Each worker owns its buffers and counts. Under one lock it takes
    the next block and draws that block's stretch of the stream, so block
    k holds the same points whichever worker draws it; the parts and the
    binning run outside the lock, on numpy calls that release the GIL. The
    workers' integer counts are summed, so every output is the same for any
    number of workers.
    """
    params = [ModelParams(beta0p, float(lam)) for lam in lambdas]
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if bins < 2:
        raise ValueError(f"bins must be at least 2, got {bins}")
    if ref_N < 1:
        raise ValueError(f"ref_N must be a positive integer, got {ref_N}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    with_xi = any(par.xi != 0.0 for par in params)
    edges = np.linspace(*DEFAULT_E_RANGE, bins + 1)
    # h < cuts[-1] is h <= edges[-1]: the last bin is closed, as in np.histogram
    cuts = np.append(edges[:-1], np.nextafter(edges[-1], np.inf))
    rng = np.random.default_rng(seed)
    starts = iter(range(0, n_samples, _BLOCK))
    lock = threading.Lock()

    def work():
        """Samples below each of `cuts`, per lambda, over the blocks this
        worker takes."""
        below = np.zeros((len(params), bins + 1), dtype=np.int64)
        normals = np.empty((min(n_samples, _BLOCK), 4))
        while True:
            with lock:
                a = next(starts, None)
                if a is None:
                    return below
                take = min(_BLOCK, n_samples - a)
                rng.standard_normal(out=normals[:take])
            parts = _derivs.h_parts(*_ball_points(normals[:take]), beta0p, with_xi)
            for row, par in zip(below, params):
                h = _kernels.h_combine(parts, par.couplings)
                h.sort()
                row += h.searchsorted(cuts)

    if workers == 1:
        below = work()
    else:
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            below = sum(pool.map(lambda _: work(), range(workers)))
    counts = np.diff(below, axis=1)
    dim = basis_dimension(ref_N)
    width = edges[1] - edges[0]
    p = counts / n_samples
    rho = dim * p / width
    # binomial error of max(k, 1) counts: an empty bin carries one count's weight
    err = dim * np.sqrt(np.maximum(counts, 1) / n_samples * (1 - p) / n_samples) / width
    return [
        DensityGrid(edges, r, e, *density_derivative(r, e, width), int(n_samples), par,
                    int(ref_N), int(n_samples - row.sum()))
        for r, e, row, par in zip(rho, err, counts, params)
    ]


def mc_density(
    params: ModelParams,
    n_samples=1_000_000,
    seed=0,
    bins=DEFAULT_BINS,
    ref_N=DEFAULT_REF_N,
    workers=1,
) -> DensityGrid:
    """`mc_density_scan` at the one lambda of `params`."""
    return mc_density_scan(params.beta0p, [params.lam], n_samples, seed, bins, ref_N,
                           workers)[0]


def density_derivative(rho, mc_error, binwidth):
    """(d rho / dE, its error) on bins of `binwidth`: central differences after
    Gaussian smoothing over PRESMOOTH_BINS."""
    kernel = _gauss_kernel(PRESMOOTH_BINS)
    # variance shrinks by the sum of squared kernel weights
    err = _smooth(mc_error, kernel) * math.sqrt(float(np.sum(kernel**2)))
    derr = np.sqrt(np.roll(err, -1) ** 2 + np.roll(err, 1) ** 2) / (2 * binwidth)
    derr[0] = derr[1]
    derr[-1] = derr[-2]
    return np.gradient(_smooth(rho, kernel), binwidth), derr


def _gauss_kernel(sigma):
    half = int(4 * sigma + 0.5)
    x = np.arange(-half, half + 1)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _smooth(values, kernel):
    """Symmetric kernel applied with edge padding (each end value repeats)."""
    half = len(kernel) // 2
    return np.convolve(np.pad(values, half, mode="edge"), kernel, mode="valid")


@dataclass(frozen=True)
class DensityFeature:
    e_center: float
    kind: str  # jump_up | jump_down | spike_up | spike_down
    strength: float  # detection statistic in units of its standard error


def detect_singularities(grid: DensityGrid):
    """Statistically significant non-analytic features of d rho / dE.

    A windowed curvature statistic C[i] = d[i+w] - 2 d[i] + d[i-w] cancels
    smooth linear trends while responding to both derivative jumps (step of
    height h gives |C| ~ h) and log-type spikes (|C| ~ twice the peak excess
    over the flanks), with w = DETECT_WINDOW.  Bins where |C| exceeds
    DETECT_N_SIGMA times its propagated Monte-Carlo error are merged into
    features, localized at the steepest or highest bin, and typed by
    comparing the core against flanking baselines.
    """
    d = grid.drho_dE
    err = grid.drho_error
    centers = grid.e_centers
    n = len(d)
    w = DETECT_WINDOW
    # only look inside the sampled support (slightly expanded); smoothing
    # leakage outside the support has artificially tiny errors
    inside = grid.rho > 0
    support = np.zeros(n, dtype=bool)
    idx = np.where(inside)[0]
    if idx.size == 0:
        return []
    support[max(idx[0] - 1, 0) : min(idx[-1] + 2, n)] = True
    err_floor = float(np.median(err[inside]))
    eff_err = np.maximum(err, err_floor)
    curv = np.zeros(n)
    curv[w:-w] = d[2 * w :] - 2 * d[w:-w] + d[: -2 * w]
    cerr = np.sqrt(6.0) * eff_err
    stat = np.where(support, np.abs(curv) / cerr, 0.0)
    stat[:w] = 0.0
    stat[-w:] = 0.0
    hot = stat > DETECT_N_SIGMA
    feats = []
    i = 0
    while i < n:
        if not hot[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and (hot[j + 1] or (hot[min(j + w, n - 1)] and j - i < 6 * w)):
            j += 1
        peak = i + int(np.argmax(stat[i : j + 1]))
        lo = slice(max(0, peak - 3 * w), max(1, peak - w))
        hi = slice(min(n - 1, peak + w + 1), min(n, peak + 3 * w + 1))
        left = float(np.median(d[lo])) if d[lo].size else d[peak]
        right = float(np.median(d[hi])) if d[hi].size else d[peak]
        core = float(d[peak])
        base = 0.5 * (left + right)
        if abs(core - base) > abs(right - left):
            kind = "spike_up" if core > base else "spike_down"
            loc = peak
        else:
            kind = "jump_up" if right > left else "jump_down"
            # a smeared step is steepest at its center
            seg = slice(max(peak - w, 1), min(peak + w, n))
            steps = np.abs(np.diff(d[seg]))
            loc = seg.start + int(np.argmax(steps))
        feats.append(DensityFeature(float(centers[loc]), kind, float(stat[peak])))
        i = j + 1
    # merge detections closer than one window (e.g. the recovery flank of a
    # strong spike re-triggering); keep the strongest
    feats.sort(key=lambda f: -f.strength)
    merged = []
    for f in feats:
        if all(abs(f.e_center - g2.e_center) > w * grid.binwidth for g2 in merged):
            merged.append(f)
    merged.sort(key=lambda f: f.e_center)
    return merged


@dataclass
class FlowGrid:
    e_centers: np.ndarray
    rho: np.ndarray  # smoothed quantum level density
    jbar: np.ndarray  # smoothed level flow
    phibar: np.ndarray  # velocity field jbar / rho


def smoothed_flow(spectrum, width=0.05, bins=DEFAULT_BINS):
    """Smoothed level flow of one spectrum (a quantum.SpectrumResult).

    The flow field is built from the Hellmann-Feynman slopes of the levels;
    the density from their positions, both on the classical energy scale, on
    `bins` bins of the window DEFAULT_E_RANGE.
    """
    if not math.isfinite(width):
        raise ValueError(f"width must be finite, got {width}")
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    if bins < 1:
        raise ValueError(f"bins must be positive, got {bins}")
    edges = np.linspace(*DEFAULT_E_RANGE, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    weights = [np.ones_like(spectrum.epsilon_slopes), spectrum.epsilon_slopes]
    rho, jbar = gaussian_spectral_density(spectrum.epsilon, centers, width, weights)
    phibar = np.where(rho > 1e-10, jbar / np.maximum(rho, 1e-300), 0.0)
    return FlowGrid(centers, rho, jbar, phibar)
