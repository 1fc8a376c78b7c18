"""Stationary-point census, momentum branches, spinodals, boundary analysis,
and borderlines.

Interior stationary points of the classical Hamiltonian are located by
batched Newton iteration from low-discrepancy seeds and classified by the
Hessian index r (number of negative eigenvalues); the same solver finds the
momentum branches at fixed coordinates.  The spinodals and the energy
restricted to the boundary 3-sphere have closed forms, and critical
borderlines E_c(lambda) are traced over a lambda grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


_SOBOL_BITS = 30
# Joe-Kuo (s, a, m_1..m_s) of Sobol dimensions 2-4; dimension 1 has every m_j = 1
_SOBOL_JOE_KUO = ((1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)))


def _sobol_directions():
    """(4, 30) Sobol direction numbers v[d, j] = m_j << (29 - j)."""
    rows = [[1] * _SOBOL_BITS]
    for s, a, m in _SOBOL_JOE_KUO:
        m = list(m)
        for j in range(s, _SOBOL_BITS):
            new = m[j - s] ^ (m[j - s] << s)
            for k in range(1, s):
                if (a >> (s - 1 - k)) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        rows.append(m)
    return np.array(rows, np.uint32) << np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)


def _sobol(m, seed):
    """2**m scrambled Sobol points in [0, 1)^4, in Gray-code order.

    Equal bit for bit to scipy's qmc.Sobol(d=4, scramble=True,
    seed=seed).random_base2(m): the scramble is a random lower-triangular
    bit matrix per dimension applied to the direction numbers plus a random
    digital shift, drawn from default_rng(seed) in scipy's order.
    """
    if m > _SOBOL_BITS:
        raise ValueError(f"at most 2**{_SOBOL_BITS} Sobol points can be generated")
    bits = np.arange(_SOBOL_BITS, dtype=np.uint32)
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 2, (4, _SOBOL_BITS), dtype=np.uint32) @ (np.uint32(1) << bits)
    ltm = np.tril(rng.integers(0, 2, (4, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, bits, bits] = 1
    # bit 29 - p of scrambled v[d, j] is the parity of ltm[d, p, ::-1] . bits(v[d, j])
    v_bits = (_sobol_directions()[:, :, None] >> bits) & 1
    parity = np.einsum("dpi,dji->djp", ltm[:, :, ::-1], v_bits) & 1
    v = (parity << bits[::-1]).sum(axis=-1, dtype=np.uint32)
    # point i is shift ^ v[:, k] over the set bits k of gray(i) = i ^ (i >> 1)
    q = np.zeros((1, 4), dtype=np.uint32)
    for k in range(m):
        q = np.vstack([q, q[::-1] ^ v[:, k]])
    return (q ^ shift) * 2.0**-_SOBOL_BITS


def _ball_seeds(n, seed=1234, radius=math.sqrt(R0_SQUARED)):
    """Low-discrepancy seed points in the open 4-ball."""
    if n < 1:
        raise ValueError("n_seeds must be a positive integer")
    # scrambled Sobol points in [-1, 1]^4 (a power of two, >= 16)
    m = max(4, math.ceil(math.log2(n * 3.5)))
    pts = _sobol(m, seed) * 2.0 - 1.0
    pts *= radius
    r2 = np.einsum("ij,ij->i", pts, pts)
    pts = pts[r2 < radius**2 * (1 - 1e-6)]
    return pts[:n]


def _newton_polish(params, pts, max_iter=200, step_cap=0.25, free=slice(None)):
    """Batched Newton iteration on grad H = 0; returns converged points.

    Only the coordinates selected by free move, and only their gradient
    components must vanish: free=slice(2, 4) solves dH/dp = 0 at fixed q.
    """
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
        g, h = g[:, free], h[:, free, free]
        try:
            step = np.linalg.solve(h, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # an exactly singular member stops the batched solve; every point
            # takes the least-squares step of its own Hessian instead
            step = (np.linalg.pinv(h) @ g[..., None])[..., 0]
        norms = np.linalg.norm(step, axis=1)
        big = norms > step_cap
        step[big] *= (step_cap / norms[big])[:, None]
        newp = p.copy()
        newp[:, free] -= step
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
        out = out[np.abs(g[:, free]).max(axis=1) <= GRAD_TOL]
    return out


def _dedupe(points, tol=1e-6):
    """Rows of the (n, d) array farther than tol from every earlier kept row.

    Greedy in row order: the first row left is kept, and one distance test
    against it drops every later row within tol, so the first of each
    near-duplicate group survives.  Returns a (k, d) array.
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


def momentum_branches(params: ModelParams, q):
    """All momentum stationary points of H at fixed coordinates q = (x, y).

    Solves dH/dp = 0 by batched Newton in the momentum plane from a 64 x 64
    grid of seeds on the momentum disc.  The first entry is p = (0, 0); the
    others appear in sign-conjugated pairs, sorted by |p|.
    """
    x0, y0 = float(q[0]), float(q[1])
    if x0 * x0 + y0 * y0 >= R0_SQUARED:
        raise ValueError("coordinates outside the configuration disc")
    pmax = math.sqrt(R0_SQUARED - x0 * x0 - y0 * y0)
    lin = np.linspace(-pmax, pmax, 64)
    gx, gy = np.meshgrid(lin, lin)
    keep = gx**2 + gy**2 < pmax**2 * (1 - 1e-9)
    q_col = np.ones(int(keep.sum()))
    seeds = np.column_stack([x0 * q_col, y0 * q_col, gx[keep], gy[keep]])
    p = _newton_polish(params, seeds, free=slice(2, 4))[:, 2:]
    sols = _dedupe(np.vstack([np.zeros((1, 2)), p, -p]))
    nontrivial = sorted(sols[1:], key=lambda s: (round(float(np.hypot(*s)), 9), s[0], s[1]))
    return [sols[0]] + nontrivial


# ---------------------------------------------------------------------------
# spinodal / antispinodal


def spinodal_points(beta0p):
    """(lambda_star, lambda_star_star), the spinodal and antispinodal, in closed form.

    On the gamma = 0 axis of the first branch, with b = beta0p, u = beta^2/2
    and r = sqrt(u / (1 - u)), the potential is

        V = r^2 (r^2 - 2 zeta b r + b^2) / (1 + r^2)^2,

    and V'(r) = 0 exactly when zeta = f(r) = [b^2 + (2 - b^2) r^2] / [b r (3 - r^2)].
    f' vanishes at the roots s of (2 - b^2) s^2 + 6 s - 3 b^2 = 0, s = r^2.

    lambda_star is the lambda above which a deformed gamma = 0 minimum exists
    at every larger lambda.  For b^2 < 3 it is the minimum of f on
    (0, sqrt(3)), f(sqrt(s*)) with s* = 3 b^2 / (3 + sqrt(9 + 3 b^2 (2 - b^2)));
    for b^2 >= 3 a deformed minimum exists at every lambda > 0 and
    lambda_star = 0.  For 2 < b^2 < 3 a second, near-boundary minimum
    (r > sqrt(3)) also exists on 0 < lambda < f(sqrt(s2)), s2 the other root;
    it ends below lambda_star.

    lambda_star_star is the lambda at which the origin stops being a minimum.
    Its Hessian eigenvalues are b^2 [1 - xi (1 + b^2)] in the coordinates and
    b^2 [1 + xi (1 - b^2)] in the momenta; the first vanishes first, at
    xi = 1 / (1 + b^2).
    """
    ModelParams(beta0p, 0.0)  # rejects beta0p <= 0
    b2 = beta0p * beta0p
    lam_star = 0.0
    if b2 < 3.0:
        s = 3.0 * b2 / (3.0 + math.sqrt(9.0 + 3.0 * b2 * (2.0 - b2)))
        lam_star = (b2 + (2.0 - b2) * s) / (beta0p * math.sqrt(s) * (3.0 - s))  # f(sqrt(s*))
    return lam_star, 1.0 + 1.0 / (1.0 + b2)


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
    from fractions import Fraction  # exact arithmetic decides whether I is an integer

    if m_exponent not in (0.5, 1.0, 1.5, 2.0):
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
