"""Stationary-point census, spinodals, boundary analysis and borderlines.

Interior stationary points of the classical Hamiltonian are exact roots on
the symmetry plane Fix(sigma) = {(x, 0, 0, py)}: two cubics in X = x^2,
generated by tools/gen_derivs.py, give them as x = +-sqrt(X).  Each root is
polished by 3 Newton steps on its cubic, each plane point by up to 3 resolved
Newton steps on its own gradient, and a candidate is kept where the (x, s)
equations it came from hold to GRAD_TOL; no search from seeds, no
convergence loop.  The plane census keeps one point (x, 0, 0, py >= 0) per
Z3 x (p -> -p) orbit and classifies it once by its Hessian index r (number
of negative eigenvalues, by Sylvester's rule on its two 2 x 2 sigma blocks);
the full census carries each point over the phase space with the orbit's
images, which share its energy and index.  The spinodals and the energy
restricted to the boundary 3-sphere have closed forms, and critical
borderlines E_c(lambda) follow the plane census from one lambda grid value
to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _derivs, _kernels
from .models import R0_SQUARED, ModelParams

# tolerance of a plane point's residual in the (x, s) equations of the plane
# cubics; a sigma block's small eigenvalue below it makes the point degenerate
GRAD_TOL = 1e-9
# points with R^2 above this count as on the boundary sphere R^2 = 2
INTERIOR_R2 = R0_SQUARED - 1e-9
# roots of the plane polynomials with a smaller relative imaginary part are real
REAL_ROOT_TOL = 1e-6
DEDUPE_TOL = 1e-6  # points closer than this are one point
# a kinetic borderline counts when it spans at least this many grid lambdas
MIN_BORDERLINE_LENGTH = 3
DEGREES_OF_FREEDOM = 2  # f of the model

SINGULARITY_CLASS = {0: "i", 1: "ii", 2: "iii", 3: "iv", 4: "v"}
BOUNDARY_CLASS = "vi"


@dataclass(frozen=True)
class StationaryPoint:
    location: np.ndarray  # (x, y, px, py)
    energy: float
    index_r: object  # int 0..4 or "degenerate"
    branch: str  # trivial_momentum | kinetic | boundary

    @property
    def singularity_class(self):
        return _singularity_class(self.index_r, self.branch)


def _singularity_class(index_r, branch):
    if branch == "boundary":
        return BOUNDARY_CLASS
    if index_r == "degenerate":
        return "degenerate"
    return SINGULARITY_CLASS[index_r]


def _dedupe(points):
    """Rows of the (n, d) array farther than DEDUPE_TOL from every earlier kept row.

    Greedy in row order: the first row left is kept, and one distance test
    against it drops every later row within DEDUPE_TOL, so the first of each
    near-duplicate group survives.  Returns a (k, d) array.
    """
    left = np.arange(len(points))
    kept = []
    while len(left):
        first, rest = left[0], left[1:]
        kept.append(first)
        left = rest[np.linalg.norm(points[rest] - points[first], axis=1) > DEDUPE_TOL]
    return points[kept]


def _sigma_blocks(h):
    """(a, b, d, det = ad - b^2, resolved: |det| > 16 eps max(|ad|, b^2)), each
    (2, n), of the sigma-even (x, py) (row 0) and sigma-odd (y, px) blocks
    [[a, b], [b, d]], all that the (n, 4, 4) plane Hessians hold."""
    a, b, d = h[:, [0, 1], [0, 1]].T, h[:, [0, 1], [3, 2]].T, h[:, [3, 2], [3, 2]].T
    det = a * d - b * b
    return a, b, d, det, np.abs(det) > 16 * np.finfo(float).eps * np.maximum(np.abs(a * d), b * b)


def _classify(params, locs):
    """One StationaryPoint per row of the (n, 4) array of plane points.  Each
    sigma block adds 1 to r where det < 0, else 2 where a < 0 (Sylvester's rule),
    and makes the point degenerate where its det is unresolved or its small
    eigenvalue |det| / |large| is below GRAD_TOL: an absolute test, since
    |large| = |a + d| / 2 + hypot((a - d) / 2, b) diverges like 1/s near R^2 = 2."""
    coup = (params.beta0p, params.couplings)
    a, b, d, det, resolved = _sigma_blocks(_kernels.h_hess(*locs.T, *coup))
    r = np.where(det < 0, 1, np.where(a < 0, 2, 0)).sum(axis=0)
    large = 0.5 * np.abs(a + d) + np.hypot(0.5 * (a - d), b)
    degenerate = (~resolved | (np.abs(det) < GRAD_TOL * large)).any(axis=0)
    # py = 0 exactly on the trivial cubic, sqrt(t) > 0 on the kinetic one
    return [StationaryPoint(loc, float(e), "degenerate" if dg else int(ri),
                            "kinetic" if loc[3] > 0 else "trivial_momentum")
            for loc, e, dg, ri in zip(locs, _kernels.h_eval(*locs.T, *coup), degenerate, r)]


def _real_roots(coeffs):
    """Real parts of the polynomial's roots whose imaginary part is small; each
    real one takes 3 Newton steps on the same coefficients where the step is finite.
    A complex pair's real part, a near-double root where the slope vanishes, is not."""
    r = np.roots(coeffs)
    r = r[np.abs(r.imag) <= REAL_ROOT_TOL * (1.0 + np.abs(r))]
    real, x = r.imag == 0.0, r.real
    slope = np.polyder(np.asarray(coeffs, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            step = np.polyval(coeffs, x) / np.polyval(slope, x)
            x = np.where(real & np.isfinite(step), x - step, x)
    return x


def _plane_candidates(params):
    """Candidate stationary points (x, 0, 0, py >= 0) on the plane Fix(sigma).

    There, with s = sqrt((1 - u)/2) and t = py^2 = 2 - 4 s^2 - x^2, H is a
    quartic polynomial P(x, s).  Each candidate x is +-sqrt(X) at a root
    0 <= X < INTERIOR_R2 of a cubic: T, the resultant of 4 s P_x - x P_s and
    4 s^2 + x^2 - 2 over x^2, gives the points with py = 0 besides the origin;
    C, the resultant of P_x and P_s over x (x^2 - 1), gives the kinetic ones,
    each with the roots s > 0 of the cubic P_s(x, s) that leave t > 0 and
    py = sqrt(t) (roots of P_s that P_x does not share fail their residual).
    T has the roots of mirror points s < 0 too, stationary at -zeta (s -> -s
    is zeta -> -zeta): a root is dropped where its Newton step on
    H_x(x, 0, 0, 0) = 0 at zeta exceeds twice that at -zeta by more than
    DEDUPE_TOL.  The step is the distance to a simple root and half that to a
    double one, so a point stationary at both signs stays.
    """
    b0, (one, z2, ze, xi) = params.beta0p, params.couplings

    def roots_x(cubic):  # x = +-sqrt(X) at its roots 0 <= X < INTERIOR_R2
        big_x = _real_roots(cubic(b0, ze, xi))
        x = np.sqrt(big_x[(big_x >= 0.0) & (big_x < INTERIOR_R2)])
        return np.concatenate([x, -x])

    axis = np.outer(roots_x(_derivs.trivial_cubic), [1.0, 0.0, 0.0, 0.0])
    with np.errstate(divide="ignore", invalid="ignore"):  # nan: kept, the residual decides
        step, mirror = (np.abs(_kernels.h_grad(*axis.T, b0, coeffs)[0]
                               / _kernels.h_hess(*axis.T, b0, coeffs)[:, 0, 0])
                        for coeffs in ((one, z2, ze, xi), (one, z2, -ze, xi)))
        cands = [np.zeros(4), *axis[~(step > 2.0 * mirror + DEDUPE_TOL)]]
    for x in roots_x(_derivs.kinetic_cubic):
        for s in _real_roots(_derivs.ps_cubic(x, b0, ze, xi)):
            t = 2.0 - 4.0 * s * s - x * x
            if s > 0 and t > 0 and x * x + t < INTERIOR_R2:
                cands.append([x, 0.0, 0.0, math.sqrt(t)])
    return np.array(cands)


def _plane_polish(params, locs):
    """The (n, 4) plane points after 3 Newton steps on (H_x, H_py) = 0, and
    each one's residual in the (x, s) equations it came from.

    The steps remove the rounding that a root carries, which near R^2 = 2
    (where the Hessian grows like 1/s) or at a close root pair leaves
    |grad H| large.  A step is taken only where the determinant of the
    sigma-even block is resolved (_sigma_blocks), and where it lowers |grad H|
    and keeps py >= 0, so a (nearly) singular Hessian cannot move a point.
    The residual does not grow like 1/s: with 4 s = 2 sqrt(2 - x^2 - py^2), it
    is max(|P_x|, |P_s|) = max(|H_x - H_py x / py|, |H_py| 4 s / py) for
    py > 0, and |4 s P_x - x P_s| = 4 s |H_x| for py = 0.
    """
    coup = (params.beta0p, params.couplings)
    g = np.asarray(_kernels.h_grad(*locs.T, *coup))
    for _ in range(3):
        a, b, d, det, resolved = (v[0] for v in _sigma_blocks(_kernels.h_hess(*locs.T, *coup)))
        new = locs.copy()
        with np.errstate(divide="ignore", invalid="ignore"):  # nan: not a step
            new[:, 0] -= (d * g[0] - b * g[3]) / det
            new[:, 3] -= (a * g[3] - b * g[0]) / det
            new_g = np.asarray(_kernels.h_grad(*new.T, *coup))
        better = resolved & (np.abs(new_g).max(axis=0) < np.abs(g).max(axis=0)) & (new[:, 3] >= 0.0)
        locs, g = np.where(better[:, None], new, locs), np.where(better, new_g, g)
    x, py = locs[:, 0], locs[:, 3]
    four_s = 2.0 * np.sqrt(2.0 - x * x - py * py)
    with np.errstate(divide="ignore", invalid="ignore"):  # py = 0 takes the other branch
        kinetic = np.maximum(np.abs(g[0] - g[3] * x / py), np.abs(g[3]) * four_s / py)
    return locs, np.where(py > 0.0, kinetic, four_s * np.abs(g[0]))


_C3, _S3 = -0.5, math.sqrt(3.0) / 2.0
# rotation by 2 pi / 3 of (x, y) and (px, py) together
_ROT3 = np.array([[_C3, -_S3, 0, 0], [_S3, _C3, 0, 0], [0, 0, _C3, -_S3], [0, 0, _S3, _C3]])


def _orbit(loc):
    """The Z3 x (p -> -p) orbit of the plane point (x, 0, 0, py >= 0), led by
    it and without -0.0: 1 point at the origin, 3 where py = 0, 6 where py > 0."""
    pts = np.vstack([loc, _ROT3 @ loc, _ROT3 @ _ROT3 @ loc])[:3 if loc.any() else 1]
    return (np.vstack([pts, pts * [1.0, 1.0, -1.0, -1.0]]) if loc[3] > 0 else pts) + 0.0


def _flat_sphere(beta0p):
    """R^2 of the sphere of stationary points at zeta = 0, or None.

    At lambda = 0, H = u^2 + beta0p^2 (1 - u) u depends on u alone, and
    dH/du = 0 at u* = beta0p^2 / (2 (beta0p^2 - 1)), inside the ball for
    beta0p^2 > 2.
    """
    b2 = beta0p * beta0p
    if b2 <= 2.0:
        return None
    r2 = b2 / (b2 - 1.0)
    return r2 if r2 < INTERIOR_R2 else None


def _plane_census(params: ModelParams):
    """One classified point (x, 0, 0, py >= 0) per Z3 x (p -> -p) orbit.

    The plane roots (_plane_candidates) are polished (_plane_polish), kept
    where their residual is at most GRAD_TOL, deduplicated best first (by
    ascending residual) and classified.  At zeta = 0 the census is the origin
    and, for beta0p^2 > 2, the sphere u = u* of _flat_sphere, reported once
    as the degenerate point (sqrt(2 u*), 0, 0, 0).  Where the kinetic
    cubic vanishes identically otherwise (beta0p = sqrt2, lambda = 2),
    the stationary points form continuous manifolds, reported by the
    degenerate points where they cross the axis y = p = 0.
    """
    if params.zeta == 0.0:
        r2 = _flat_sphere(params.beta0p)
        locs = np.zeros((1, 4)) if r2 is None else np.array([[0.0] * 4, [math.sqrt(r2), 0, 0, 0]])
    else:
        locs, res = _plane_polish(params, _plane_candidates(params))
        order = np.argsort(res, kind="stable")
        locs = _dedupe(locs[order[res[order] <= GRAD_TOL]])
    return _classify(params, locs)


def find_stationary_points(params: ModelParams):
    """All interior stationary points, deduplicated and Hessian-classified.

    Each point of _plane_census stands for its Z3 x (p -> -p) orbit (_orbit), which
    shares its energy and index (at zeta = 0 the sphere is reported once).  Orbits
    follow their plane points' (energy, x, py) order, each a contiguous block led by it.
    """
    pts = sorted(_plane_census(params), key=lambda s: (s.energy, s.location[0], s.location[3]))
    if params.zeta != 0.0:
        pts = [replace(sp, location=loc) for sp in pts for loc in _orbit(sp.location)]
    return pts


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
    (0, sqrt(3)), f(sqrt(s*)) with s* = sigma b^2,
    sigma = 3 / (3 + sqrt(9 + 3 b^2 (2 - b^2))); with b^2 cancelled,
    f(sqrt(s*)) = [1 + (2 - b^2) sigma] / [sqrt(sigma) (3 - sigma b^2)], which
    stays finite as b -> 0, where it tends to 2 sqrt(2) / 3 (s* itself
    underflows there).  For b^2 >= 3 a deformed minimum exists at every
    lambda > 0 and lambda_star = 0.  For 2 < b^2 < 3 a second, near-boundary
    minimum (r > sqrt(3)) also exists on 0 < lambda < f(sqrt(s2)), s2 the
    other root; it ends below lambda_star.

    lambda_star_star is the lambda at which the origin stops being a minimum.
    Its Hessian eigenvalues are b^2 [1 - xi (1 + b^2)] in the coordinates and
    b^2 [1 + xi (1 - b^2)] in the momenta; the first vanishes first, at
    xi = 1 / (1 + b^2).  At the critical lambda_c = 1 both gamma = 0 minima,
    r = 0 and r = b, lie at E = 0, with the barrier `critical_barrier`
    between them.

    Two lines of beta0p are special: b^2 = 2, above which the lambda = 0
    census is a sphere of stationary points and, up to b^2 = 3, the
    near-boundary minimum exists (the SU(3) point lambda = 2 lies on b^2 = 2);
    and b^2 = 3, from which on lambda_star = 0.
    """
    ModelParams(beta0p, 0.0)  # rejects beta0p <= 0
    b2 = beta0p * beta0p
    lam_star = 0.0
    if b2 < 3.0:
        sigma = 3.0 / (3.0 + math.sqrt(9.0 + 3.0 * b2 * (2.0 - b2)))
        lam_star = (1.0 + (2.0 - b2) * sigma) / (math.sqrt(sigma) * (3.0 - sigma * b2))
    return lam_star, 1.0 + 1.0 / (1.0 + b2)


def critical_barrier(beta0p):
    """E_b = (sqrt(1 + b^2) - 1)^2 / 4 between the two E = 0 minima at lambda_c = 1.

    The gamma = 0 axis saddle between r = 0 and r = b, b = beta0p.  Written as
    (b^2 / (1 + hypot(1, b)))^2 / 4, free of the cancellation in
    sqrt(1 + b^2) - 1 at small b.
    """
    ModelParams(beta0p, 0.0)  # rejects beta0p <= 0
    return (beta0p * beta0p / (1.0 + math.hypot(1.0, beta0p))) ** 2 / 4.0


# ---------------------------------------------------------------------------
# boundary analysis


def boundary_extrema(params: ModelParams):
    """(E_min, E_max) of the boundary-restricted energy, in closed form.

    On the boundary u = 1 the sqrt(1 - u) term vanishes and
    p_beta^2 + w^2 = 1 - p_gamma^2, so E = 1 + xi/2 + (zeta^2 - xi/2) p_gamma^2
    with p_gamma^2 in [0, 1], independent of beta0p.  The extrema are the
    manifolds p_gamma = 0, through sqrt(2) (1, 0, 0, 0), with E = 1 + xi/2,
    and |p_gamma| = 1, through (1, 0, 0, 1), with E = 1 + zeta^2.  The two
    energies are equal at lambda = 0 and lambda = 3.
    """
    flat, spun = 1.0 + params.xi / 2.0, 1.0 + params.couplings[1]
    return min(flat, spun), max(flat, spun)


def boundary_exponent(k_list, m_exponent):
    """Level-density singularity exponent of a boundary stationary direction.

    k_list holds the 2f - 1 leading even powers of the transverse angular
    expansion (math.inf allowed); m_exponent is the leading radial power in
    {1/2, 1, 3/2, 2}.  Returns (I, verdict, derivative_order) where the
    density derivative of that order is discontinuous (integer I) or
    divergent (non-integer I).
    """
    from fractions import Fraction  # exact arithmetic decides whether I is an integer

    if m_exponent not in (0.5, 1.0, 1.5, 2.0):
        raise ValueError(f"unsupported radial exponent {m_exponent}")
    k_list = list(k_list)
    dirs = 2 * DEGREES_OF_FREEDOM - 1
    if len(k_list) != dirs:
        raise ValueError(f"expected {dirs} transverse powers, got {len(k_list)}")
    inv_sum = Fraction(0)  # sum of 1/K over the directions
    for k in k_list:
        if k == math.inf:
            continue
        if k < 2:
            raise ValueError(f"transverse powers must be >= 2, got {k}")
        inv_sum += 1 / Fraction(k)
    i_val = inv_sum + 1 / Fraction(m_exponent) - 1
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


def _mutual_nearest(prev, recs):
    """{j: i} for the mutually nearest pairs of census points prev[i], recs[j].

    Only points of equal branch and Hessian index pair up; the distance is the
    largest difference of their (energy, |x|, py), a plane point's (energy,
    beta, |p|).  recs[j] is the nearest of its class to prev[i], and vice versa.
    """
    if not prev or not recs:
        return {}
    a, b = (np.array([[sp.energy, abs(sp.location[0]), sp.location[3]] for sp in pts])
            for pts in (prev, recs))
    same = np.array([[(p.branch, p.index_r) == (r.branch, r.index_r) for r in recs]
                     for p in prev])
    d = np.where(same, np.abs(a[:, None] - b[None]).max(axis=2), np.inf)
    near_b, near_a = d.argmin(axis=1), d.argmin(axis=0)
    return {int(j): i for i, j in enumerate(near_b) if same[i, j] and near_a[j] == i}


def trace_borderlines(beta0p, lambda_grid, n_seeds=6000, seed=1234, include_boundary=True):
    """Critical borderlines E_c(lambda) from the plane census.

    Each point of _plane_census stands for one orbit.  A curve continues from
    one grid lambda to the next only, to the point of equal branch and
    Hessian index whose signature (energy, beta, |p|) is nearest to its own,
    and only if its own point is in turn the nearest of that class at the
    previous lambda; otherwise it ends.  The rule is symmetric in the two
    lambda values, so a reversed grid gives the same curves, reversed.
    Degenerate points carry no index and are skipped (they occur on
    continuous stationary manifolds and at bifurcations).  Boundary min/max
    curves are appended when include_boundary is set.

    The census is exact and takes no seeds: n_seeds and seed are accepted
    and ignored, because the benchmark job perfbench/job.py still passes
    them, and a non-positive n_seeds is still rejected.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be a positive integer")
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    out, live, prev = [], [], []  # live[i]: the curve of census point prev[i]
    for lam in lambda_grid:
        recs = [
            sp for sp in _plane_census(ModelParams(beta0p, lam)) if sp.index_r != "degenerate"
        ]
        match = _mutual_nearest(prev, recs)
        live = [live[match[j]] if j in match else CriticalBorderline([], [], sp.index_r, sp.branch)
                for j, sp in enumerate(recs)]
        out += [c for j, c in enumerate(live) if j not in match]
        for c, sp in zip(live, recs):
            c.lambdas.append(lam)
            c.energies.append(sp.energy)
        prev = recs
    if include_boundary:
        mins, maxs = [], []
        for lam in lambda_grid:
            lo, hi = boundary_extrema(ModelParams(beta0p, lam))
            mins.append(lo)
            maxs.append(hi)
        out.append(CriticalBorderline(list(lambda_grid), mins, None, "boundary"))
        out.append(CriticalBorderline(list(lambda_grid), maxs, None, "boundary"))
    return out


def kinetic_borderline_count(borderlines):
    """Number of kinetic-branch borderlines over at least MIN_BORDERLINE_LENGTH lambdas."""
    return sum(
        1
        for c in borderlines
        if c.branch == "kinetic" and len(c.lambdas) >= MIN_BORDERLINE_LENGTH
    )
