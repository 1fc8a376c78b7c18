"""Stationary-point census, spinodals, boundary analysis, and borderlines.

Interior stationary points of the classical Hamiltonian are located by
batched Newton iteration from low-discrepancy seeds and classified by the
Hessian index r (number of negative eigenvalues).  The energy restricted to
the boundary 3-sphere has a closed form, and critical borderlines E_c(lambda)
are traced over a lambda grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .classical import R0_SQUARED, eval_H
from .models import ModelParams

DEGENERACY_RATIO = 1e-6
GRAD_TOL = 1e-9
KINETIC_P_TOL = 1e-6

SINGULARITY_CLASS = {0: "i", 1: "ii", 2: "iii", 3: "iv", 4: "v"}
BOUNDARY_CLASS = "vi"


@dataclass(frozen=True)
class StationaryPoint:
    location: np.ndarray  # (x, y, px, py)
    energy: float
    index_r: object  # int 0..4 or "degenerate"
    branch: str  # trivial_momentum | kinetic | boundary
    hessian_eigenvalues: np.ndarray | None = None

    @property
    def singularity_class(self):
        return _singularity_class(self.index_r, self.branch)


def _singularity_class(index_r, branch):
    if branch == "boundary":
        return BOUNDARY_CLASS
    if index_r == "degenerate":
        return "degenerate"
    return SINGULARITY_CLASS[index_r]


def _ball_seeds(n, seed=1234, radius=math.sqrt(R0_SQUARED)):
    """Low-discrepancy seed points in the open 4-ball."""
    # imported here, not at module load: scipy.stats takes ~0.3 s to import
    from scipy.stats import qmc

    # scrambled Sobol points in [-1, 1]^4 (a power of two, >= 16)
    m = max(4, math.ceil(math.log2(n * 3.5)))
    pts = qmc.Sobol(d=4, scramble=True, seed=seed).random_base2(m) * 2.0 - 1.0
    pts *= radius
    r2 = np.einsum("ij,ij->i", pts, pts)
    pts = pts[r2 < radius**2 * (1 - 1e-6)]
    return pts[:n]


def _newton_polish(params, pts, max_iter=200, step_cap=0.25):
    """Batched Newton iteration on grad H = 0; returns converged points."""
    b0, ze, xi = params.beta0p, params.zeta, params.xi
    x = np.asarray(pts, dtype=float).copy()
    alive = np.ones(len(x), dtype=bool)
    done = np.zeros(len(x), dtype=bool)
    for _ in range(max_iter):
        idx = alive & ~done
        if not idx.any():
            break
        p = x[idx]
        g = np.stack(_kernels.h_grad(p[:, 0], p[:, 1], p[:, 2], p[:, 3], b0, ze, xi), axis=-1)
        h = _kernels.h_hess(p[:, 0], p[:, 1], p[:, 2], p[:, 3], b0, ze, xi)
        try:
            step = np.linalg.solve(h, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # an exactly singular member stops the batched solve; every point
            # takes the least-squares step of its own Hessian instead
            step = (np.linalg.pinv(h) @ g[..., None])[..., 0]
        norms = np.linalg.norm(step, axis=1)
        big = norms > step_cap
        step[big] *= (step_cap / norms[big])[:, None]
        newp = p - step
        r2 = np.einsum("ij,ij->i", newp, newp)
        escaped = r2 > R0_SQUARED - 1e-9
        gnorm = np.abs(g).max(axis=1)
        conv = (np.linalg.norm(step, axis=1) < 1e-12) & (gnorm < GRAD_TOL)
        sub_alive = ~escaped
        x[idx] = np.where(escaped[:, None], p, newp)
        ai = np.where(idx)[0]
        alive[ai[escaped]] = False
        done[ai[conv & sub_alive]] = True
    out = x[done]
    if len(out):
        g = np.stack(
            _kernels.h_grad(out[:, 0], out[:, 1], out[:, 2], out[:, 3], b0, ze, xi), axis=-1
        )
        out = out[np.abs(g).max(axis=1) <= GRAD_TOL]
    return out


def _dedupe(points, tol=1e-6):
    """Rows of the (n, 4) array farther than tol from every earlier kept row.

    Greedy in row order: the first row left is kept, and one distance test
    against it drops every later row within tol, so the first of each
    near-duplicate group survives.  Returns a (k, 4) array.
    """
    left = np.arange(len(points))
    kept = []
    while len(left):
        first, rest = left[0], left[1:]
        kept.append(first)
        left = rest[np.linalg.norm(points[rest] - points[first], axis=1) > tol]
    return points[kept]


def _classify(params, loc):
    h = _kernels.h_hess(loc[0], loc[1], loc[2], loc[3], params.beta0p, params.zeta, params.xi)
    evals = np.linalg.eigvalsh(h)
    scale = np.abs(evals).max()
    if scale == 0 or np.abs(evals).min() < DEGENERACY_RATIO * scale:
        r = "degenerate"
    else:
        r = int(np.sum(evals < 0))
    branch = "kinetic" if math.hypot(loc[2], loc[3]) > KINETIC_P_TOL else "trivial_momentum"
    return StationaryPoint(
        np.asarray(loc, float), float(eval_H(params, loc)), r, branch, evals
    )


def _survey(params, seeds):
    """Stationary points reached from the seeds, deduplicated and classified.

    The first of near-duplicate points is kept, so the seed order matters.
    """
    # the origin is always stationary; make sure it is seeded exactly
    converged = _newton_polish(params, np.vstack([np.zeros((1, 4)), seeds]))
    locs = _dedupe(np.vstack([converged, np.zeros((1, 4))]))
    return [_classify(params, loc) for loc in locs]


def find_stationary_points(params: ModelParams, n_seeds=20000, seed=1234):
    """All interior stationary points, deduplicated and Hessian-classified."""
    pts = _survey(params, _ball_seeds(n_seeds, seed=seed))
    pts.sort(key=lambda s: (s.energy, np.linalg.norm(s.location)))
    return pts


# ---------------------------------------------------------------------------
# spinodal / antispinodal


def _axial_potential(params, x):
    return _kernels.potential(np.asarray(x, float), 0.0, params.beta0p, params.zeta, params.xi)


def _has_deformed_minimum(beta0p, lam, n_grid=4000):
    """True if the gamma=0 axial potential has an interior minimum off the origin."""
    params = ModelParams(beta0p, lam)
    x = np.linspace(1e-4, math.sqrt(R0_SQUARED) - 1e-9, n_grid)
    v = _axial_potential(params, x)
    dv = np.diff(v)
    # local minimum: derivative changes - to +
    sign = np.sign(dv)
    idx = np.where((sign[:-1] < 0) & (sign[1:] > 0))[0]
    return any(x[i + 1] > 1e-2 for i in idx)


def _origin_min_eig(beta0p, lam):
    params = ModelParams(beta0p, lam)
    h = _kernels.h_hess(0.0, 0.0, 0.0, 0.0, beta0p, params.zeta, params.xi)
    return float(np.linalg.eigvalsh(h).min())


def _bisect(f, lo, hi, tol):
    flo = f(lo)
    for _ in range(200):
        if hi - lo < tol:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) == flo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def spinodal_points(beta0p, tol=1e-5):
    """(lambda_star, lambda_star_star); either may be None if absent."""
    lam_hi = 3.5
    lam_star = None
    if not _has_deformed_minimum(beta0p, 1e-6) and _has_deformed_minimum(beta0p, lam_hi):
        lam_star = _bisect(lambda t: _has_deformed_minimum(beta0p, t), 1e-6, lam_hi, tol)
    elif _has_deformed_minimum(beta0p, 1e-6):
        lam_star = 0.0
    lam_star_star = None
    if _origin_min_eig(beta0p, 1.0) > 0 and _origin_min_eig(beta0p, lam_hi) < 0:
        lam_star_star = _bisect(
            lambda t: _origin_min_eig(beta0p, t) > 0, 1.0, lam_hi, tol
        )
    return lam_star, lam_star_star


# ---------------------------------------------------------------------------
# boundary analysis


@dataclass(frozen=True)
class BoundaryExtremum:
    direction: np.ndarray  # unit 4-vector; location is sqrt(2) * direction
    energy: float
    kind: str  # min | max


def boundary_energy(params: ModelParams, angular):
    """Energy restricted to the boundary sphere at a unit 4-direction."""
    v = np.asarray(angular, dtype=float)
    n = np.linalg.norm(v)
    if abs(n - 1.0) > 1e-9:
        raise ValueError("angular direction must be a unit vector")
    r = math.sqrt(R0_SQUARED)
    return float(
        _kernels.h_eval(
            r * v[0], r * v[1], r * v[2], r * v[3], params.beta0p, params.zeta, params.xi
        )
    )


def boundary_extrema(params: ModelParams):
    """Minimum and maximum of the boundary-restricted energy, in closed form.

    On the boundary u = 1 the sqrt(1 - u) term vanishes and
    p_beta^2 + w^2 = 1 - p_gamma^2, so E = 1 + xi/2 + (zeta^2 - xi/2) p_gamma^2
    with p_gamma^2 in [0, 1], independent of beta0p.  The extrema are the
    manifolds p_gamma = 0 and |p_gamma| = 1; each is represented by one
    direction.  The two energies are equal at lambda = 0 and lambda = 3.
    """
    flat = (np.array([1.0, 0.0, 0.0, 0.0]), float(1.0 + params.xi / 2.0))
    spun = (np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0), float(1.0 + params.zeta**2))
    lo, hi = sorted((flat, spun), key=lambda d: d[1])
    return [BoundaryExtremum(lo[0], lo[1], "min"), BoundaryExtremum(hi[0], hi[1], "max")]


def boundary_minmax(params: ModelParams):
    """(min, max) of the boundary-restricted energy."""
    lo, hi = boundary_extrema(params)
    return lo.energy, hi.energy


def boundary_exponent(k_list, m_exponent, f=2):
    """Level-density singularity exponent of a boundary stationary direction.

    k_list holds the 2f-1 leading even powers of the transverse angular
    expansion (math.inf allowed); m_exponent is the leading radial power in
    {1/2, 1, 3/2, 2}.  Returns (I, verdict, derivative_order) where the
    density derivative of that order is discontinuous (integer I) or
    divergent (non-integer I).
    """
    if m_exponent not in (0.5, 1.0, 1.5, 2.0, Fraction(1, 2), Fraction(3, 2), 1, 2):
        raise ValueError(f"unsupported radial exponent {m_exponent}")
    k_list = list(k_list)
    if len(k_list) != 2 * f - 1:
        raise ValueError(f"expected {2 * f - 1} transverse powers, got {len(k_list)}")
    inv_sum = Fraction(0)
    for k in k_list:
        if k == math.inf:
            continue
        if k < 2:
            raise ValueError(f"transverse powers must be >= 2, got {k}")
        inv_sum += Fraction(1, int(k)) if float(k).is_integer() else Fraction(1) / Fraction(k)
    mean_inv = inv_sum / (2 * f - 1)  # 1/K averaged over directions
    i_val = (2 * f - 1) * mean_inv + Fraction(1) / Fraction(m_exponent) - 1
    is_int = i_val.denominator == 1
    verdict = "discontinuous" if is_int else "divergent"
    order = int(math.ceil(i_val))
    return float(i_val), verdict, order


# ---------------------------------------------------------------------------
# borderline tracing


@dataclass
class CriticalBorderline:
    lambdas: list
    energies: list
    index_r: object
    branch: str

    @property
    def singularity_class(self):
        return _singularity_class(self.index_r, self.branch)

    @property
    def kinetic(self):
        return self.branch == "kinetic"


def _signature(sp: StationaryPoint):
    """Continuation signature invariant under the discrete symmetries."""
    x, y, px, py = sp.location
    return np.array([sp.energy, math.hypot(x, y), math.hypot(px, py)])


def trace_borderlines(
    beta0p,
    lambda_grid,
    n_seeds=6000,
    seed=1234,
    match_rate=6.0,
    max_gap=8,
    include_boundary=True,
):
    """Critical borderlines E_c(lambda) from the stationary-point census.

    Interior points are traced by matching symmetry-invariant signatures
    (energy, beta, |p|) between adjacent lambda values, requiring equal
    Hessian index; the matching tolerance scales with the lambda gap
    (match_rate per unit lambda).  Points flagged degenerate are skipped
    (they occur on continuous stationary manifolds and at bifurcations and
    carry no index).  Every survey is warm-started with the locations found
    at the previous lambda so curves stay connected even when their Newton
    basins are small.  Boundary min/max curves are appended when
    include_boundary is set.
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    step = float(np.min(np.diff(lambda_grid))) if len(lambda_grid) > 1 else 0.01
    curves = []  # dict: lambdas, energies, sig, r, branch, last_i
    prev_locs = np.zeros((0, 4))
    for i, lam in enumerate(lambda_grid):
        params = ModelParams(beta0p, lam)
        pts = _survey(params, np.vstack([prev_locs, _ball_seeds(n_seeds, seed=seed)]))
        prev_locs = np.array([sp.location for sp in pts]).reshape(-1, 4)
        # collapse symmetry copies, drop degenerate points
        recs = []
        for sp in pts:
            if sp.index_r == "degenerate":
                continue
            sig = _signature(sp)
            if any(
                r.branch == sp.branch
                and r.index_r == sp.index_r
                and np.abs(_signature(r) - sig).max() < 1e-6
                for r in recs
            ):
                continue
            recs.append(sp)
        used = set()
        for c in curves:
            gap = i - c["last_i"]
            if gap > max_gap:
                continue
            tol = match_rate * step * gap
            best, best_d = None, np.inf
            for j, sp in enumerate(recs):
                if j in used or sp.branch != c["branch"] or sp.index_r != c["r"]:
                    continue
                sig = _signature(sp)
                # gate on energy only: beta and |p| move with square-root
                # speed near curve births and deaths
                if abs(sig[0] - c["sig"][0]) >= tol:
                    continue
                d = np.abs(sig - c["sig"]).max()
                if d < best_d:
                    best, best_d = j, d
            if best is not None:
                sp = recs[best]
                used.add(best)
                c["lambdas"].append(lam)
                c["energies"].append(sp.energy)
                c["sig"] = _signature(sp)
                c["last_i"] = i
        for j, sp in enumerate(recs):
            if j in used:
                continue
            curves.append(
                dict(
                    lambdas=[lam],
                    energies=[sp.energy],
                    sig=_signature(sp),
                    r=sp.index_r,
                    branch=sp.branch,
                    last_i=i,
                )
            )
    out = [
        CriticalBorderline(c["lambdas"], c["energies"], c["r"], c["branch"])
        for c in curves
    ]
    if include_boundary:
        mins, maxs = [], []
        for lam in lambda_grid:
            lo, hi = boundary_minmax(ModelParams(beta0p, lam))
            mins.append(lo)
            maxs.append(hi)
        out.append(CriticalBorderline(list(lambda_grid), mins, None, "boundary"))
        out.append(CriticalBorderline(list(lambda_grid), maxs, None, "boundary"))
    return out


def kinetic_borderline_count(borderlines, min_length=3):
    """Number of distinct kinetic-branch bordelines of non-trivial extent."""
    return sum(
        1
        for c in borderlines
        if c.branch == "kinetic" and len(c.lambdas) >= min_length
    )
