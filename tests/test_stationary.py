"""Stationary-point census, spinodals, boundary analysis, borderlines."""

import functools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from esqpt import _kernels, classical, stationary
from esqpt.models import ModelParams

from conftest import SQRT2
from oracle.multistart import _newton_polish, ball_seeds, multistart_census
from oracle.su3 import SU3_LINE


def by_location(points, loc, tol=1e-6):
    for sp in points:
        if np.abs(sp.location - np.asarray(loc)).max() < tol:
            return sp
    raise AssertionError(f"no stationary point at {loc}")


def test_su3_line_census_sits_at_the_casimir_energies():
    # the SU(3) energies 0, 3/2 and 2 of the classical limit; every critical
    # point but the deformed minimum at 0 lies on a degenerate manifold
    pts = stationary.find_stationary_points(ModelParams(*SU3_LINE))
    for sp in pts:
        assert min(abs(sp.energy - e) for e in (0.0, 1.5, 2.0)) < 1e-12
    isolated = [sp for sp in pts if sp.index_r != "degenerate"]
    assert isolated and {sp.index_r for sp in isolated} == {0}
    assert max(abs(sp.energy) for sp in isolated) < 1e-12


def test_census_spherical_phase():
    pts = stationary.find_stationary_points(ModelParams(SQRT2, 0.2))
    origin = by_location(pts, [0, 0, 0, 0])
    assert origin.energy == pytest.approx(0.0, abs=1e-12)
    assert origin.index_r == 0
    assert origin.singularity_class == "i"
    kinetic = [sp for sp in pts if sp.branch == "kinetic"]
    assert kinetic, "kinetic stationary points expected in the spherical phase"
    assert all(math.hypot(sp.location[2], sp.location[3]) > 1e-3 for sp in kinetic)


def test_census_origin_maximum_second_branch():
    params = ModelParams(SQRT2, 2.5)
    pts = stationary.find_stationary_points(params)
    origin = by_location(pts, [0, 0, 0, 0])
    assert origin.energy == pytest.approx(((2.5 - 1.0) / 2.0) * SQRT2**4, abs=1e-10)
    assert origin.index_r == 4
    assert origin.singularity_class == "v"
    ground = min(pts, key=lambda sp: sp.energy)
    assert ground.energy == pytest.approx(0.0, abs=1e-10)
    assert ground.index_r == 0


def test_census_points_are_stationary():
    params = ModelParams(1.7, 1.3)
    for sp in stationary.find_stationary_points(params):
        from esqpt.classical import grad_H

        assert np.abs(grad_H(params, sp.location * (1 - 1e-15))).max() < 1e-8


@pytest.mark.parametrize("beta0p", [1.2, 1.7, 2.5])
def test_dH_dlambda_at_each_census_point_is_the_slope_of_its_energy(beta0p):
    # the envelope theorem: grad H = 0 at a point, so dE/dlambda along it is
    # dH/dlambda there, the kernels weighed by (0, *coupling_slopes).  A
    # non-degenerate point moves by O(d) over a central step of 2 d; the
    # difference is off by d^2 |d^3 E / dlambda^3| / 6 and by eps |E| / d
    d = 1e-5
    for lam in (0.3, 0.7, 1.5, 2.2):
        params = ModelParams(beta0p, lam)
        pts = [sp for sp in stationary.find_stationary_points(params)
               if sp.index_r != "degenerate"]
        assert pts
        locs = np.array([sp.location for sp in pts])
        slope = _kernels.h_eval(*locs.T, beta0p, (0.0, *params.coupling_slopes()))
        ends = []
        for v in (lam - d, lam + d):
            moved = stationary.find_stationary_points(ModelParams(beta0p, v))
            near = np.linalg.norm(np.array([sp.location for sp in moved])[:, None] - locs, axis=2)
            assert near.min(axis=0).max() < 1e-3
            ends.append([moved[i] for i in near.argmin(axis=0)])
        for sp, lo, hi, want in zip(pts, *ends, slope):
            assert lo.index_r == hi.index_r == sp.index_r
            assert abs((hi.energy - lo.energy) / (2.0 * d) - want) < 1e-6, (lam, sp)


def dedupe_loop(points, tol=1e-6):
    """The O(n^2) dedupe that the batched one replaced, kept as its oracle."""
    kept = []
    for p in points:
        if all(np.linalg.norm(p - q) > tol for q in kept):
            kept.append(p)
    return np.array(kept).reshape(-1, 4)


def straddling_clusters(seed, tol=1e-6):
    """Shuffled chains of points whose steps are 0.5 tol to 2 tol long."""
    rng = np.random.default_rng(seed)
    chains = []
    for center in rng.uniform(-1.0, 1.0, (25, 4)):
        steps = rng.standard_normal((rng.integers(1, 12), 4))
        steps *= (tol * rng.uniform(0.5, 2.0, len(steps)) / np.linalg.norm(steps, axis=1))[:, None]
        chains.append(center + np.cumsum(steps, axis=0))
    pts = np.vstack(chains)
    return pts[rng.permutation(len(pts))]


@pytest.mark.parametrize(
    "points",
    [np.zeros((0, 4)), np.array([[0.1, 0.2, 0.3, 0.4]]), np.tile([0.5, 0.0, 0.0, 0.1], (7, 1))],
    ids=["empty", "one", "all-duplicates"],
)
def test_dedupe_small_inputs(points):
    got = stationary._dedupe(points)
    assert got.shape == (min(len(points), 1), 4)
    assert np.array_equal(got, dedupe_loop(points))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dedupe_matches_loop_on_straddling_clusters(seed):
    pts = straddling_clusters(seed)
    got = stationary._dedupe(pts)
    want = dedupe_loop(pts)
    assert 25 <= len(want) < len(pts)
    assert np.array_equal(got, want)


def test_dedupe_matches_loop_on_continuous_manifold_census():
    # lambda = 0 has continuous stationary manifolds: most points are distinct
    params = ModelParams(1.7, 0.0)
    seeds = np.vstack([np.zeros((1, 4)), ball_seeds(1000)])
    pts = np.vstack([_newton_polish(params, seeds, max_iter=200), np.zeros((1, 4))])
    got = stationary._dedupe(pts)
    assert 900 < len(got) < len(pts)
    assert np.array_equal(got, dedupe_loop(pts))


CENSUS_FIXTURE = Path(__file__).parent / "data" / "census_fixture.npz"


def test_census_matches_fixture():
    # recorded from the 4-D multistart at 20000 seeds and seed 1234; the order
    # of the copies within an orbit came from the seed order, so the points
    # are compared as a set
    ref = np.load(CENSUS_FIXTURE)
    pts = stationary.find_stationary_points(ModelParams(SQRT2, 0.3))
    assert len(pts) == len(ref["location"])
    for loc, energy, index_r, branch in zip(
        ref["location"], ref["energy"], ref["index_r"], ref["branch"]
    ):
        sp = by_location(pts, loc, tol=1e-12)
        assert (str(sp.index_r), sp.branch) == (index_r, branch)
        assert abs(sp.energy - energy) < 1e-12


CENSUS_GRID_BETA0P = [0.7, 1.0, SQRT2, 1.7, 2.0, 4.0]
CENSUS_GRID_LAMBDA = [0.0, 0.25, 0.6, 1.1, 1.5, 2.0, 2.5, 3.1]


def test_exact_census_contains_the_multistart():
    # Points on a continuous manifold of stationary points (degenerate
    # Hessian) are covered by a degenerate exact point at the same energy:
    # the sphere at lambda = 0, and the manifolds at E = 1.5 and 2 at
    # (sqrt2, 2), where the kinetic resultant vanishes identically.
    misses, not_stationary = [], []
    for beta0p in CENSUS_GRID_BETA0P:
        for lam in CENSUS_GRID_LAMBDA:
            params = ModelParams(beta0p, lam)
            exact = stationary.find_stationary_points(params)
            locs = np.array([sp.location for sp in exact])
            flat = [sp.energy for sp in exact if sp.index_r == "degenerate"]
            for loc in locs:
                grad = _kernels.h_grad(*loc, params.beta0p, params.couplings)
                if np.abs(grad).max() > stationary.GRAD_TOL:
                    not_stationary.append((beta0p, lam, loc))
            coup = (params.beta0p, params.couplings)
            for loc in multistart_census(params, 3000):
                if np.linalg.norm(locs - loc, axis=1).min() <= 1e-6:
                    continue
                # the census's own degeneracy rule, at an off-plane point
                evals = np.linalg.eigvalsh(_kernels.h_hess(*loc, *coup))
                energy = _kernels.h_eval(*loc, *coup)
                if np.abs(evals).min() >= stationary.GRAD_TOL or not any(
                    abs(energy - e) <= 1e-9 for e in flat
                ):
                    misses.append((beta0p, lam, loc))
    assert not misses
    assert not not_stationary


@pytest.mark.parametrize(
    "beta0p, lam, energy, index_r",
    [(2.0, 2.85, 1.909502, 1), (1.0, 0.25, 1.053869, 3)],
)
def test_census_finds_the_kinetic_orbits_the_multistart_missed(beta0p, lam, energy, index_r):
    # the 4-D multistart at 20000 seeds returned 4 of these 10 points
    pts = stationary.find_stationary_points(ModelParams(beta0p, lam))
    assert len(pts) == 10
    kinetic = [sp for sp in pts if sp.branch == "kinetic"]
    assert len(kinetic) == 6
    for sp in kinetic:
        assert sp.energy == pytest.approx(energy, abs=1e-6)
        assert sp.index_r == index_r


def test_census_keeps_the_degenerate_orbit_born_at_2_3():
    # an r = 2 / r = 3 pair is born on the axis at x = -sqrt(1.8), E = 2.5;
    # the Hessian there is singular, which a Newton search that waits for
    # convergence does not get past
    pts = stationary.find_stationary_points(ModelParams(2.0, 3.0))
    assert len(pts) == 13
    born = [sp for sp in pts if sp.energy == pytest.approx(2.5, abs=1e-12)]
    assert len(born) == 3
    assert all((sp.index_r, sp.branch) == ("degenerate", "trivial_momentum") for sp in born)
    by_location(born, [-math.sqrt(1.8), 0.0, 0.0, 0.0], tol=1e-12)


@pytest.mark.parametrize("beta0p, lam, count", [
    # the resultant root lies 1e-15 off a point where the Hessian is 8e5
    (3.496294534071453, 0.010365735284565148, 22),
    # a close pair of resultant roots leaves the kinetic root 4e-6 off
    (1.3926831864706346, 2.057342351666416, 16),
    # the mirror root x = +2.9e-4 of the axis saddle lies in the origin's
    # Newton basin, where the Hessian is small: it must not become a point
    (0.4743833670732533, 1.817349099390706, 10),
    # a genuine r = 3 orbit whose last Newton step is 1.35e-9 at |grad H| =
    # 1e-11: a gate on the Newton step at GRAD_TOL would drop it
    (1.0514669884796246, 2.620155559516155, 16),
    # non-stationary candidates, with |grad H| up to 3.8e-3, whose Newton
    # step is below DEDUPE_TOL: a gate on the step at DEDUPE_TOL keeps them
    (1.999292519886922, 1.642228818029831, 4),
    (1.516742439788233, 0.3876833605188452, 10),
    # the cubic P_s loses its leading term and the resultants gain roots at
    # s = infinity, which must not become points
    (1.0, 2.5, 10),
    # r = 3 kinetic orbits at 2 - R^2 = 1.4e-3 and 3.6e-3, next to the edge
    # x^2 = 1: a degree-9 resultant with the factor x (x^2 - 1) places their
    # roots 3.2e-6 and 2.1e-4 off, beside its spurious roots near x = +-1
    (1.3808185714914567, 2.088564660192366, 16),
    (1.4300832507400512, 1.9540866738196716, 16),
])
def test_census_polish_keeps_every_point_and_adds_none(beta0p, lam, count):
    params = ModelParams(beta0p, lam)
    pts = stationary.find_stationary_points(params)
    assert len(pts) == count
    for sp in pts:
        grad = _kernels.h_grad(*sp.location, beta0p, params.couplings)
        assert np.abs(grad).max() <= 1e-8


@pytest.fixture(scope="module")
def xs_equations(gen):
    """{kinetic: (F, J)}: mpmath functions of (x, s, b0, ze, xi) giving the
    (x, s) equations of the plane points and their Jacobian, from the
    generator's P: P_x = P_s = 0 where py > 0 (kinetic), and
    4 s P_x - x P_s = 4 s^2 + x^2 - 2 = 0 where py = 0."""
    import sympy as sp

    x, s, args = gen.x, gen.s, (gen.x, gen.s, gen.b0, gen.ze, gen.xi)
    systems = {True: [gen.Px, gen.Ps], False: [4 * s * gen.Px - x * gen.Ps, 4 * s**2 + x**2 - 2]}
    return {
        kinetic: (sp.lambdify(args, eqs, "mpmath"),
                  sp.lambdify(args, sp.Matrix(eqs).jacobian([x, s]).tolist(), "mpmath"))
        for kinetic, eqs in systems.items()
    }


@pytest.fixture(scope="module")
def exact_sigma_blocks(gen):
    """An mpmath function of (x, py, b0, ze, xi) giving the (a, b, d) of the
    sigma-even (x, py) and sigma-odd (y, px) Hessian blocks of the
    generator's H at the plane point (x, 0, 0, py)."""
    import sympy as sp

    plane = {gen.y: 0, gen.px: 0}
    entries = [sp.diff(gen.H, u, v).subs(plane)
               for i, j in ((gen.x, gen.py), (gen.y, gen.px)) for u, v in ((i, i), (i, j), (j, j))]
    return sp.lambdify((gen.x, gen.py, gen.b0, gen.ze, gen.xi), entries, "mpmath")


# the one rounding-floor case with an orbit whose even-block det is below
# 16 eps max(|ad|, b^2) at its 50-digit root: the kinetic orbit at 2 - R^2 =
# 2.9e-9, r = 3 by a 4 x 4 eigvalsh, has det = -50.2 against 16 eps |ad| = 212
EVEN_BLOCK_UNRESOLVED = {(1.1389355454248538, 0.0005771240812716627)}


@pytest.mark.parametrize("beta0p, lam, count", [
    (3.373080969144025, 0.0006092934611782397, 22),
    (3.08521616714032, 0.00035086136884920904, 22),
    (3.430045584038964, 0.0008668359356228451, 22),
    (1.1389355454248538, 0.0005771240812716627, 10),
    (3.3996301773606574, 0.001609498704709722, 22),
    (0.8629611798671146, 0.0002851337502711715, 4),
    (0.380289, 2.962655, 16),
    (1.4564034092103928, 0.7685209321078155, 16),
])
def test_census_keeps_the_points_at_the_rounding_floor(xs_equations, exact_sigma_blocks, beta0p,
                                                       lam, count):
    # each case has an orbit at 2 - R^2 < 2e-6, where one Hessian eigenvalue
    # grows like 1/s and rounding alone puts |grad H| near GRAD_TOL; a census
    # that judges points by |grad H| drops it.  Every orbit must lie within
    # 1e-10 of a 50-digit root of the (x, s) equations it came from.  There,
    # an orbit whose even-block det double precision cannot resolve reads
    # degenerate, and every other orbit has the index of Sylvester's rule on
    # the exact blocks.  Not checked: the kinetic orbit at (1.4564..., 0.7685...)
    # has an exact odd-block eigenvalue of 4.8e-11, below GRAD_TOL, where the
    # float Hessian's is 30 times larger, and reads r = 3, not degenerate
    import mpmath

    params = ModelParams(beta0p, lam)
    assert len(stationary.find_stationary_points(params)) == count
    floor = 16 * np.finfo(float).eps
    found = 0
    with mpmath.workdps(50):
        coup = [mpmath.mpf(v) for v in (beta0p, params.zeta, params.xi)]
        for sp in stationary._plane_census(params):
            x, _, _, py = map(mpmath.mpf, sp.location)
            f, jac = xs_equations[sp.branch == "kinetic"]
            start = (x, mpmath.sqrt(2 - x**2 - py**2) / 2)
            xr, sr = mpmath.findroot(lambda a, b: f(a, b, *coup), start,
                                     J=lambda a, b: jac(a, b, *coup))
            pyr = mpmath.sqrt(2 - 4 * sr**2 - xr**2) if sp.branch == "kinetic" else 0
            assert max(abs(xr - x), abs(pyr - py)) <= 1e-10, sp
            entries = exact_sigma_blocks(xr, pyr, *coup)
            (a, b, d), odd = entries[:3], entries[3:]
            if abs(a * d - b * b) <= floor * max(abs(a * d), b * b):
                found += 1
                assert sp.index_r == "degenerate", sp
                continue
            r = sum(1 if a * d < b * b else 2 if a < 0 else 0 for a, b, d in ((a, b, d), odd))
            assert sp.index_r == r, sp
    assert found == ((beta0p, lam) in EVEN_BLOCK_UNRESOLVED)


@pytest.mark.parametrize("lam, count", [(0.1, 22), (0.5, 22), (1.0, 22), (2.0, 7), (2.5, 10)])
def test_census_keeps_the_axis_points_stationary_at_both_signs_of_zeta(lam, count):
    # at beta0p = sqrt3, x = +-sqrt(3/2) on the axis is stationary at every
    # lambda and at both signs of zeta, so the trivial resultant has a double
    # (at lambda = 2 a triple) root there, which its mirror test must keep.
    # The multistart oracle finds the same counts (one point fewer at
    # lambda = 1); at lambda = 2 the point at -sqrt(3/2) is degenerate, and
    # the census places it only to ~2e-6, the accuracy of a triple root
    beta0p, x0 = math.sqrt(3.0), math.sqrt(1.5)
    params = ModelParams(beta0p, lam)
    coup = (beta0p, params.couplings)
    pts = stationary.find_stationary_points(params)
    assert len(pts) == count
    locs = np.array([sp.location for sp in pts])
    for x in (x0, -x0):
        loc = np.array([x, 0.0, 0.0, 0.0])
        assert np.abs(_kernels.h_grad(*loc, *coup)).max() <= 1e-14
        evals = np.linalg.eigvalsh(_kernels.h_hess(*loc, *coup))
        if np.abs(evals).min() < 1e-6:  # the degenerate point, placed only to ~2e-6
            continue
        for image in stationary._orbit(loc):
            (i,) = np.flatnonzero(np.abs(locs - image).max(axis=1) <= 1e-10)
            assert pts[i].index_r == int(np.sum(evals < 0))


@pytest.mark.parametrize("beta0p", [1.0, SQRT2, 1.7, 4.0])
def test_census_at_zero_lambda_is_the_origin_and_the_flat_sphere(beta0p):
    params = ModelParams(beta0p, 0.0)
    pts = stationary.find_stationary_points(params)
    assert np.array_equal(pts[0].location, np.zeros(4))
    assert pts[0].index_r == 0
    b2 = beta0p * beta0p
    if b2 < 2.0 + 1e-9:  # the sphere u* = b2 / (2 (b2 - 1)) lies inside only for b2 > 2
        assert len(pts) == 1
        return
    (sphere,) = pts[1:]
    r2 = b2 / (b2 - 1.0)
    assert np.allclose(sphere.location, [math.sqrt(r2), 0.0, 0.0, 0.0], atol=1e-15)
    assert sphere.index_r == "degenerate"
    # every point of the sphere is stationary at the same energy
    dirs = np.random.default_rng(5).standard_normal((50, 4))
    on_sphere = math.sqrt(r2) * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    grad = _kernels.h_grad(*on_sphere.T, beta0p, params.couplings)
    assert np.abs(grad).max() <= stationary.GRAD_TOL
    energies = _kernels.h_eval(*on_sphere.T, beta0p, params.couplings)
    assert np.abs(energies - sphere.energy).max() < 1e-12


@pytest.mark.parametrize("lam", [0.68, 0.70, 0.72])
def test_kinetic_orbit_near_the_ball_boundary_keeps_its_index(lam):
    # the orbit nears R^2 = 2 at lambda = 1/sqrt2, where one Hessian eigenvalue
    # diverges like 1/s; the index stays 3 on both sides
    kinetic = [
        sp for sp in stationary.find_stationary_points(ModelParams(SQRT2, lam))
        if sp.branch == "kinetic"
    ]
    assert kinetic
    assert all(sp.index_r == 3 for sp in kinetic)


def test_continuous_manifolds_stay_degenerate():
    (sphere,) = stationary.find_stationary_points(ModelParams(1.7, 0.0))[1:]
    assert sphere.index_r == "degenerate"
    manifold = [
        sp for sp in stationary.find_stationary_points(ModelParams(SQRT2, 2.0))
        if abs(sp.energy - 1.5) < 1e-9 or abs(sp.energy - 2.0) < 1e-9
    ]
    assert {round(sp.energy, 9) for sp in manifold} == {1.5, 2.0}
    assert all(sp.index_r == "degenerate" for sp in manifold)


@pytest.mark.parametrize("loc, size", [
    ([0.0, 0.0, 0.0, 0.0], 1), ([-0.7, 0.0, 0.0, 0.0], 3), ([0.4, 0.0, 0.0, 0.9], 6),
])
def test_orbit_of_a_plane_point(loc, size):
    loc = np.array(loc)
    orbit = stationary._orbit(loc)
    assert orbit.shape == (size, 4)
    assert (orbit[0] == loc).all()
    assert len({tuple(row) for row in orbit}) == size
    assert not np.signbit(orbit[orbit == 0.0]).any()
    np.testing.assert_allclose(np.linalg.norm(orbit, axis=1), np.linalg.norm(loc), atol=1e-15)
    # closed under the 2 pi / 3 rotation and p -> -p
    for image in (orbit @ stationary._ROT3.T, orbit * [1.0, 1.0, -1.0, -1.0]):
        assert np.abs(image[:, None] - orbit[None]).max(axis=2).min(axis=1).max() < 1e-15


@pytest.mark.parametrize("beta0p", CENSUS_GRID_BETA0P)
def test_census_is_the_orbits_of_the_plane_census(beta0p):
    for lam in CENSUS_GRID_LAMBDA[1:]:
        params = ModelParams(beta0p, lam)
        plane = stationary._plane_census(params)
        assert all(sp.location[1] == sp.location[2] == 0.0 <= sp.location[3] for sp in plane)
        pts = stationary.find_stationary_points(params)
        assert len(pts) == sum(len(stationary._orbit(sp.location)) for sp in plane)
        classes = {(sp.energy, sp.index_r, sp.branch) for sp in plane}
        assert {(sp.energy, sp.index_r, sp.branch) for sp in pts} == classes


# the benchmark's stationary grid at beta0p = 1.7; the images of an orbit share
# its plane point's energy exactly but not always its |location| to the last
# bit (at lambda = 0.5 the r = 3 images are one ulp shorter)
@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9, 1.3, 1.7, 2.1, 2.5, 2.9])
def test_census_rows_are_orbits_led_by_their_plane_point(lam):
    params = ModelParams(1.7, lam)
    pts = stationary.find_stationary_points(params)
    start = leads = 0
    while start < len(pts):
        lead = pts[start]
        assert lead.location[1] == lead.location[2] == 0.0 <= lead.location[3]
        images = stationary._orbit(lead.location)
        n = len(images)
        orbit = pts[start:start + n]
        for sp in orbit:
            assert (sp.energy, sp.index_r, sp.branch) == (lead.energy, lead.index_r, lead.branch)
            assert np.abs(images - sp.location).max(axis=1).min() == 0.0
        assert len({tuple(sp.location) for sp in orbit}) == n
        start, leads = start + n, leads + 1
    assert start == len(pts)
    assert leads == len(stationary._plane_census(params))


@pytest.mark.parametrize("beta0p", CENSUS_GRID_BETA0P)
def test_plane_hessian_does_not_couple_the_sigma_blocks(beta0p):
    # on Fix(sigma) the Hessian is block-diagonal in the sigma-even (x, py)
    # and sigma-odd (y, px) coordinates, exactly
    for lam in CENSUS_GRID_LAMBDA:
        params = ModelParams(beta0p, lam)
        for sp in stationary._plane_census(params):
            h = _kernels.h_hess(*sp.location, beta0p, params.couplings)
            assert np.all(h[np.ix_([0, 3], [1, 2])] == 0.0)


def block_hessian(even, odd):
    """The 4 x 4 Hessian with the sigma-even (x, py) block [[a, b], [b, d]] of
    even = (a, b, d) and the sigma-odd (y, px) block of odd."""
    h = np.zeros((4, 4))
    for (i, j), (a, b, d) in (((0, 3), even), ((1, 2), odd)):
        h[i, i], h[i, j], h[j, i], h[j, j] = a, b, b, d
    return h


@pytest.mark.parametrize("even, odd, index_r", [
    # det < 0: eigenvalues 3 and -1
    ((1.0, 2.0, 1.0), (2.0, 0.0, 3.0), 1),
    ((2.0, 0.0, 3.0), (1.0, 2.0, 1.0), 1),
    # a < 0 with det = 5 > 0
    ((-2.0, 1.0, -3.0), (2.0, 0.0, 3.0), 2),
    ((-2.0, 1.0, -3.0), (1.0, 2.0, 1.0), 3),
    ((-2.0, 1.0, -3.0), (-1.0, 0.5, -1.0), 4),
    # a dominant entry of 1e8 beside a small eigenvalue of +-1e-6
    ((1e8, 1.0, 1e-8 + 1e-6), (2.0, 0.0, 3.0), 0),
    ((1e8, 1.0, 1e-8 - 1e-6), (2.0, 0.0, 3.0), 1),
    ((-1e8, 1.0, -1e-8 + 1e-6), (2.0, 0.0, 3.0), 1),
    # ad and b^2 of 1e14 cancel to det = 0.25, below 16 eps 1e14 = 0.36,
    # though |det| / |large| = 2.5e-9 would pass GRAD_TOL
    ((1e8, 1e7, 1e6 + 2.5e-9), (2.0, 0.0, 3.0), "degenerate"),
    # det = 6.25e-10 over |large| = 1.25: a small eigenvalue of 5e-10
    ((2.0, 0.0, 3.0), (1.0, 0.5, 0.25 + 6.25e-10), "degenerate"),
    ((2.0, 0.0, 3.0), (-1.0, -0.5, -0.25 - 6.25e-10), "degenerate"),
])
def test_classify_counts_the_index_by_sylvesters_rule_on_the_blocks(monkeypatch, even, odd,
                                                                     index_r):
    h = block_hessian(even, odd)
    monkeypatch.setattr(_kernels, "h_hess", lambda *args: np.stack([h, h]))
    locs = np.array([[0.3, 0.0, 0.0, 0.0], [0.2, 0.0, 0.0, 0.4]])
    pts = stationary._classify(ModelParams(1.7, 0.5), locs)
    assert [sp.index_r for sp in pts] == [index_r, index_r]
    if index_r != "degenerate":
        assert index_r == int(np.sum(np.linalg.eigvalsh(h) < 0))


ACCEPTANCE_07_GRID = np.arange(0.0, 3.2001, 0.02)


@functools.lru_cache(maxsize=None)
def acceptance_07_curves(beta0p, order):
    """The borderlines on acceptance 07's grid, traced forward (order 1) or reversed (-1)."""
    return stationary.trace_borderlines(
        beta0p, ACCEPTANCE_07_GRID[::order], include_boundary=False
    )


@pytest.mark.parametrize("beta0p", [SQRT2, 1.7])
def test_borderlines_continue_step_to_step(beta0p):
    # acceptance 07's grid: no curve skips a grid value or jumps in energy
    grid = ACCEPTANCE_07_GRID
    curves = acceptance_07_curves(beta0p, 1)
    for c in curves:
        first = int(np.argmin(np.abs(grid - c.lambdas[0])))
        assert np.array_equal(c.lambdas, grid[first:first + len(c.lambdas)])
        steps = np.abs(np.diff(c.energies))
        assert np.all(steps <= 6.0 * np.diff(c.lambdas))


def test_borderline_follows_a_fast_origin():
    # at beta0' = 2 the origin's energy xi beta0'^4 / 2 moves faster than
    # 6 per unit lambda; its r = 4 curve is still one curve
    grid = 1.8 + 0.02 * np.arange(71)
    curves = stationary.trace_borderlines(2.0, grid, include_boundary=False)
    assert len(curves) == 5
    (r4,) = [c for c in curves if c.branch == "trivial_momentum" and c.index_r == 4]
    assert len(r4.lambdas) == 71


def test_borderlines_on_a_coarse_grid():
    # the benchmark's grid: the r = 2 curve born at 1.3 ends where the one
    # born at 1.4 goes on, as on acceptance 07's finer grid
    grid = 0.1 + 0.1 * np.arange(32)
    curves = stationary.trace_borderlines(1.7, grid, include_boundary=False)
    spans = sorted(
        (round(c.lambdas[0], 9), round(c.lambdas[-1], 9))
        for c in curves if c.branch == "trivial_momentum" and c.index_r == 2
    )
    assert spans == [(1.3, 1.5), (1.4, 3.2)]


@pytest.mark.parametrize("beta0p", [SQRT2, 1.7, 2.0])
def test_reversed_grid_gives_the_curves_reversed(beta0p):
    def curves(order):
        return sorted(
            (c.branch, str(c.index_r), c.lambdas[::order], c.energies[::order])
            for c in acceptance_07_curves(beta0p, order)
        )

    assert curves(-1) == curves(1)


@pytest.mark.parametrize("n_seeds", [0, -3])
def test_census_rejects_nonpositive_seed_counts(n_seeds):
    with pytest.raises(ValueError, match="n_seeds must be a positive integer"):
        stationary.trace_borderlines(SQRT2, [0.2, 0.3], n_seeds=n_seeds)


def test_borderlines_leave_scipy_stats_unloaded():
    code = (
        "import sys; from esqpt import stationary; "
        "stationary.trace_borderlines(1.7, [0.5, 0.6], n_seeds=200); "
        "print('scipy.stats' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_newton_singular_member_takes_its_own_step():
    # at the antispinodal the origin's Hessian is exactly singular, which
    # makes the batched solve raise for any batch that holds the origin
    params = ModelParams(SQRT2, 4.0 / 3.0)
    origin, regular = np.zeros(4), np.array([0.9, 0.1, 0.0, 0.2])
    h0 = _kernels.h_hess(*origin, params.beta0p, params.couplings)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(h0, np.ones(4))
    (alone,) = _newton_polish(params, regular[None], max_iter=200)
    for batch in ([origin, regular], [regular, origin]):
        out = _newton_polish(params, np.array(batch), max_iter=200)
        assert len(out) == 2
        assert any(np.array_equal(p, origin) for p in out)
        assert min(np.abs(p - alone).max() for p in out) < 1e-9


def test_spinodal_values():
    lo, hi = stationary.spinodal_points(SQRT2)
    assert lo == pytest.approx(1 / math.sqrt(2), abs=5e-4)
    assert hi == pytest.approx(4.0 / 3.0, abs=5e-4)
    lo, hi = stationary.spinodal_points(1.7)
    assert lo == pytest.approx(0.4605, abs=1e-3)
    assert hi == pytest.approx(1.2571, abs=1e-3)


def test_spinodal_closed_form():
    lo, hi = stationary.spinodal_points(SQRT2)
    assert abs(lo - 1 / math.sqrt(2)) < 1e-12
    assert abs(hi - 4.0 / 3.0) < 1e-12
    # for beta0p^2 >= 3 a deformed minimum exists at every lambda > 0
    for beta0p in (2.0, 4.0):
        assert stationary.spinodal_points(beta0p)[0] == 0.0
    with pytest.raises(ValueError):
        stationary.spinodal_points(0.0)
    with pytest.raises(ValueError):
        stationary.critical_barrier(0.0)


def test_spinodal_small_beta0p_limit():
    # lambda* -> 2 sqrt(2) / 3 as beta0' -> 0, also where beta0'^2 underflows;
    # the barrier E_b -> b^4 / 16, where sqrt(1 + b^2) - 1 rounds to 0
    for beta0p in (1e-200, 1e-160, 1e-8):
        lo, hi = stationary.spinodal_points(beta0p)
        assert lo == pytest.approx(2.0 * SQRT2 / 3.0, rel=1e-15)
        assert hi == 2.0
        assert stationary.critical_barrier(beta0p) == pytest.approx(beta0p**4 / 16.0, rel=1e-14)
    lo, hi = stationary.spinodal_points(1e-3)
    assert lo == pytest.approx(2.0 * SQRT2 / 3.0, rel=1e-6)
    assert hi == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("beta0p", [0.5, 1.0, SQRT2, 1.7, 2.0, 3.0])
def test_critical_point_has_two_minima_at_zero_and_the_closed_form_barrier(beta0p):
    # at lambda_c = 1 the gamma = 0 potential sin^2(th) (b cos(th) - sin(th))^2
    # has its minima th = 0 and tan(th) = b at E = 0, and between them the
    # axis saddle at E_b = (sqrt(1 + b^2) - 1)^2 / 4
    barrier = stationary.critical_barrier(beta0p)
    assert barrier == pytest.approx((math.sqrt(1.0 + beta0p**2) - 1.0) ** 2 / 4.0, rel=1e-14)
    trivial = [sp for sp in stationary._plane_census(ModelParams(beta0p, 1.0))
               if sp.branch == "trivial_momentum"]
    minima = [sp for sp in trivial if sp.index_r == 0]
    (saddle,) = [sp for sp in trivial if sp.index_r == 1]
    assert len(minima) == 2
    assert all(abs(sp.energy) <= 1e-12 for sp in minima)
    assert abs(saddle.energy - barrier) <= 1e-12


def has_axial_minimum(beta0p, lam):
    """A local minimum of the gamma = 0 kernel potential on 0 < beta < sqrt(1.5)."""
    beta = np.linspace(1e-4, math.sqrt(1.5), 40_001)
    params = ModelParams(beta0p, lam)
    v = _kernels.potential(beta, 0.0, params.beta0p, params.couplings)
    dv = np.diff(v)
    return bool(np.any((dv[:-1] < 0) & (dv[1:] > 0)))


SPINODAL_BETA0P = [0.3, 0.7, 1.0, SQRT2, 1.6, 1.7]


@pytest.mark.parametrize("beta0p", SPINODAL_BETA0P)
def test_spinodal_brackets_axial_minimum(beta0p):
    lam_star, _ = stationary.spinodal_points(beta0p)
    assert not has_axial_minimum(beta0p, lam_star - 1e-4)
    assert has_axial_minimum(beta0p, lam_star + 1e-4)


@pytest.mark.parametrize("beta0p", SPINODAL_BETA0P)
def test_antispinodal_origin_hessian_sign_change(beta0p):
    _, lam_ss = stationary.spinodal_points(beta0p)

    def min_eig(lam):
        params = ModelParams(beta0p, lam)
        hess = _kernels.h_hess(0.0, 0.0, 0.0, 0.0, beta0p, params.couplings)
        return np.linalg.eigvalsh(hess).min()

    assert min_eig(lam_ss - 1e-6) > 0
    assert min_eig(lam_ss + 1e-6) < 0


def boundary_closed_form(lam):
    if lam < 1.0:
        return 1.0, 1.0 + lam**2
    if lam < 3.0:
        return (1.0 + lam) / 2.0, 2.0
    return 2.0, (1.0 + lam) / 2.0


@pytest.mark.parametrize("beta0p", [SQRT2, 1.7])
def test_boundary_minmax_closed_form(beta0p):
    for lam in (0.0, 0.5, 1.4, 2.0, 2.9, 3.2):
        lo, hi = stationary.boundary_extrema(ModelParams(beta0p, lam))
        want_lo, want_hi = boundary_closed_form(lam)
        assert lo == pytest.approx(want_lo, abs=1e-6)
        assert hi == pytest.approx(want_hi, abs=1e-6)


@pytest.mark.parametrize("beta0p", [SQRT2, 1.7, 4.0])
def test_boundary_extrema_bound_the_kernel(beta0p):
    # the closed-form extrema against direct kernel evaluations on the sphere
    rng = np.random.default_rng(3)
    dirs = rng.standard_normal((200_000, 4))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = math.sqrt(2.0)
    for lam in (0.0, 0.3, 1.0, 1.4, 2.2, 3.0, 3.2, 5.0):
        params = ModelParams(beta0p, lam)
        lo, hi = stationary.boundary_extrema(params)
        assert lo <= hi
        e = _kernels.h_eval(*(r * dirs.T), beta0p, params.couplings)
        assert e.min() >= lo - 1e-6
        assert e.max() <= hi + 1e-6
        # attained on the boundary: p_gamma = 0 at sqrt(2) (1, 0, 0, 0), |p_gamma| = 1
        # at (1, 0, 0, 1)
        flat, spun = (classical.eval_H(params, x) for x in ([r, 0, 0, 0], [1, 0, 0, 1]))
        assert sorted((flat, spun)) == pytest.approx([lo, hi], abs=1e-6)
    lo, hi = stationary.boundary_extrema(ModelParams(beta0p, 3.0))
    assert lo == hi == 2.0


def test_boundary_exponent_reference_cases():
    i_val, verdict, order = stationary.boundary_exponent([2, 2, 2], 0.5)
    assert i_val == pytest.approx(2.5)
    assert verdict == "divergent"
    assert order == 3
    i_val, verdict, order = stationary.boundary_exponent([math.inf] * 3, 1)
    assert i_val == 0.0
    assert verdict == "discontinuous"
    assert order == 0


def test_boundary_exponent_validation():
    with pytest.raises(ValueError):
        stationary.boundary_exponent([2, 2], 1)
    with pytest.raises(ValueError):
        stationary.boundary_exponent([1, 2, 2], 1)
    with pytest.raises(ValueError):
        stationary.boundary_exponent([2, 2, 2], 0.3)


def test_trace_borderlines_short_grid():
    grid = np.arange(0.1, 0.45, 0.05)
    curves = stationary.trace_borderlines(SQRT2, grid, include_boundary=False)
    kinetic = [c for c in curves if c.branch == "kinetic" and len(c.lambdas) >= 3]
    assert len(kinetic) == 1
    assert stationary.kinetic_borderline_count(curves) == 1
    curve = kinetic[0]
    assert np.all(np.diff(curve.lambdas) > 0)
    assert curve.singularity_class in ("ii", "iii", "iv")


def test_trace_borderlines_includes_boundary_curves():
    grid = np.array([0.2, 0.3])
    curves = stationary.trace_borderlines(SQRT2, grid, include_boundary=True)
    boundary = [c for c in curves if c.branch == "boundary"]
    assert len(boundary) == 2
    for c in boundary:
        assert c.singularity_class == "vi"
