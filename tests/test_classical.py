"""Classical phase-space Hamiltonian: values, derivatives, kernels."""

import math

import numpy as np
import pytest

from esqpt import _derivs, _kernels, classical, stationary
from esqpt.classical import PhasePoint, R0_SQUARED
from esqpt.models import ModelParams

from conftest import SQRT2, interior_points
from oracle.hamiltonian import classical_h

PARAM_SETS = [ModelParams(SQRT2, 0.3), ModelParams(SQRT2, 2.0), ModelParams(1.7, 1.6)]


def test_phase_point_polar_round_trip():
    pt = PhasePoint.from_polar(0.8, 0.5, p_beta=0.2, p_gamma=-0.3)
    assert pt.beta == pytest.approx(0.8, abs=1e-12)
    assert pt.gamma == pytest.approx(0.5, abs=1e-12)
    assert pt.p_beta == pytest.approx(0.2, abs=1e-12)
    assert pt.p_gamma == pytest.approx(-0.3, abs=1e-12)
    assert pt.r_squared < R0_SQUARED


def test_phase_point_origin_guards():
    with pytest.raises(ValueError):
        PhasePoint.from_polar(0.0, 0.0, p_beta=0.1)
    with pytest.raises(ZeroDivisionError):
        PhasePoint(0.0, 0.0, 0.0, 0.0).p_beta


def test_eval_domain_check():
    with pytest.raises(ValueError):
        classical.eval_H(ModelParams(1.0, 0.5), [1.5, 0.0, 0.0, 0.9])


@pytest.mark.parametrize("params", PARAM_SETS)
def test_eval_matches_operator_classical_limit(params, rng):
    # the per-boson classical limit of N*H equals twice the phase-space energy
    f = classical_h(params)
    for x, y, px, py in interior_points(rng, 40):
        lhs = f(x, y, px, py)
        rhs = 2.0 * classical.eval_H(params, (x, y, px, py))
        assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("params", PARAM_SETS)
def test_gradient_and_hessian_match_finite_differences(params, rng):
    h = 1e-6
    for pt in interior_points(rng, 8, r_max=1.1):
        g = classical.grad_H(params, pt)
        hess = classical.hess_H(params, pt)
        assert hess == pytest.approx(hess.T, abs=1e-12)
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (classical.eval_H(params, pt + e) - classical.eval_H(params, pt - e)) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=5e-8)
            gd = (classical.grad_H(params, pt + e) - classical.grad_H(params, pt - e)) / (2 * h)
            assert np.abs(hess[i] - gd).max() < 5e-6


def stacked_hessian(x, y, px, py, b0, ze, xi):
    """Reference Hessian assembly: re-sum the parts entry by entry, broadcast the
    10 entries, then stack 16 of them."""
    h0, h_zz, h_z, h_xi = _derivs.hess_parts(x, y, px, py, b0, xi != 0.0)
    t = [a + (ze * ze) * b + ze * c for a, b, c in zip(h0, h_zz, h_z)]
    if xi != 0.0:
        t = [a + xi * d for a, d in zip(t, h_xi)]
    t = np.broadcast_arrays(*t)
    full = np.stack([t[i] for i in _kernels._TRIU], axis=-1)
    return full.reshape(full.shape[:-1] + (4, 4))


@pytest.mark.parametrize("lam", [0.3, 1.6])  # xi = 0 and xi != 0
def test_hessian_assembly_matches_stacked(lam, rng):
    params = ModelParams(1.7, lam)
    b0, ze, xi = params.beta0p, params.zeta, params.xi
    pts = interior_points(rng, 500)
    # the last case has scalar coordinates and array momenta, halved to stay inside
    mixed = (*pts[0, :2] / 2, *pts.T[2:] / 2)
    for args in (pts[0], pts.T, pts.T.reshape(4, 20, 25), mixed):
        got = _kernels.h_hess(*args, b0, ze, xi)
        want = stacked_hessian(*args, b0, ze, xi)
        assert got.shape == want.shape == np.broadcast_shapes(*map(np.shape, args)) + (4, 4)
        assert np.array_equal(got, want)


def ungrouped_h(x, y, px, py, b0, ze, xi):
    """The energy as one expression, before it was split into parts."""
    u = 0.5 * (x * x + y * y + px * px + py * py)
    pg = x * py - y * px
    a = (py * py - px * px) * x + 2.0 * px * py * y - x * x * x + 3.0 * x * y * y
    s = np.sqrt(np.abs(1.0 - u) / 2.0)
    h = u * u + b0 * b0 * (1.0 - u) * u + ze * ze * pg * pg + ze * b0 * s * a
    if xi != 0.0:
        bpb = x * px + y * py
        w = 0.5 * (x * x + y * y - px * px - py * py) - b0 * b0 * (1.0 - u)
        h = h + xi * 0.5 * (bpb * bpb + w * w)
    return h


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0, 2.5])
def test_h_eval_is_the_sum_of_its_parts(lam):
    params = ModelParams(1.7, lam)
    b0, ze, xi = params.beta0p, params.zeta, params.xi
    rng = np.random.default_rng(15)
    pts = interior_points(rng, 100_000, r_max=math.sqrt(R0_SQUARED)).T
    got = _kernels.h_eval(*pts, b0, ze, xi)
    for with_xi in {xi != 0.0, True}:
        parts = _kernels.h_parts(*pts, b0, with_xi)
        assert np.array_equal(_kernels.h_combine(parts, ze, xi), got)
    want = ungrouped_h(*pts, b0, ze, xi)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_decompose_sums_to_total(rng):
    params = ModelParams(1.7, 2.2)
    for pt in interior_points(rng, 20):
        kin, pot = classical.decompose(params, pt)
        assert kin + pot == pytest.approx(classical.eval_H(params, pt), abs=1e-12)
        assert pot == pytest.approx(classical.eval_H(params, (pt[0], pt[1], 0, 0)), abs=1e-12)


def test_potential_at_origin():
    # V(0) = 0 on the first branch, xi * beta0p^4 / 2 on the second
    for lam in (0.0, 0.5, 1.0):
        assert classical.potential(ModelParams(SQRT2, lam), 0.0, 0.0) == pytest.approx(0.0, abs=1e-14)
    v0 = classical.potential(ModelParams(SQRT2, 2.5), 0.0, 0.0)
    assert v0 == pytest.approx(((2.5 - 1.0) / 2.0) * SQRT2**4, abs=1e-12)


def test_potential_gamma_symmetry(rng):
    # V is invariant under gamma -> gamma + 2pi/3 (three-fold symmetry)
    params = ModelParams(1.7, 0.8)
    for _ in range(10):
        b = rng.uniform(0, 1.3)
        g = rng.uniform(0, 2 * math.pi)
        v1 = classical.potential(params, b * math.cos(g), b * math.sin(g))
        g2 = g + 2 * math.pi / 3
        v2 = classical.potential(params, b * math.cos(g2), b * math.sin(g2))
        assert v1 == pytest.approx(v2, abs=1e-12)


def test_momentum_branches_structure():
    params = ModelParams(SQRT2, 0.2)
    # inside the kinetic region there are non-trivial momentum branches
    sols = stationary.momentum_branches(params, (-1.12, 0.0))
    assert np.allclose(sols[0], 0.0)
    nontrivial = sols[1:]
    assert len(nontrivial) >= 2
    # sign-conjugate pairing
    for p in nontrivial:
        assert any(np.allclose(p, -q, atol=1e-7) for q in nontrivial)
    with pytest.raises(ValueError):
        stationary.momentum_branches(params, (1.5, 0.0))


def momentum_loop(params, q, grid=64, tol=1e-10, dedup=1e-8):
    """The per-seed Newton loop that the batched solver replaced, kept as its oracle."""
    x0, y0 = float(q[0]), float(q[1])
    pmax = math.sqrt(R0_SQUARED - x0 * x0 - y0 * y0)
    gx, gy = np.meshgrid(np.linspace(-pmax, pmax, grid), np.linspace(-pmax, pmax, grid))
    keep = gx**2 + gy**2 < pmax**2 * (1 - 1e-9)
    b0, ze, xi = params.beta0p, params.zeta, params.xi
    sols = [np.zeros(2)]
    for seed in np.column_stack([gx[keep], gy[keep]]):
        p = seed.copy()
        ok = False
        for _ in range(60):
            g = _kernels.h_grad(x0, y0, p[0], p[1], b0, ze, xi)[2:]
            h = _kernels.h_hess(x0, y0, p[0], p[1], b0, ze, xi)[2:, 2:]
            try:
                step = np.linalg.solve(h, g)
            except np.linalg.LinAlgError:
                break
            p = p - step
            if p[0] ** 2 + p[1] ** 2 > pmax**2:
                break
            if np.dot(step, step) < tol**2:
                ok = abs(_kernels.h_grad(x0, y0, p[0], p[1], b0, ze, xi)[2:]).max() < 1e-9
                break
        if ok and all(np.hypot(*(p - s)) > dedup for s in sols):
            sols.append(p)
            if all(np.hypot(*(p + s)) > dedup for s in sols):
                sols.append(-p)
    return sols


def momentum_gradient(params, q, p):
    return _kernels.h_grad(q[0], q[1], p[0], p[1], params.beta0p, params.zeta, params.xi)[2:]


@pytest.mark.parametrize(
    "beta0p, lam, q, n_found",
    [
        (SQRT2, 0.2, (-1.12, 0.0), 5),
        (SQRT2, 0.5, (-0.9, 0.3), 7),
        (1.7, 0.3, (-1.0, 0.0), 5),
        (1.7, 2.2, (-0.7, 0.4), 9),
        (1.0, 0.8, (-1.2, 0.1), 5),
        (1.7, 0.7, (-1.3, 0.0), 1),
        # pairs close to the ball boundary that no grid seed reaches, at
        # 2 - R^2 = 6.6e-5; 1.2e-5 and 4.0e-6; 6.5e-3 and 4.9e-4; 4.3e-4; 2.3e-3
        (1.0, 0.4, (-0.2, -0.1), 3),
        (1.0, 2.6, (-0.7, 0.4), 7),
        (2.0, 1.0, (0.3, 0.2), 11),
        (2.5, 2.8, (0.9, 0.6), 5),
        (0.7, 0.8, (0.8, 0.2), 3),
    ],
)
def test_momentum_branches_match_loop(beta0p, lam, q, n_found):
    params = ModelParams(beta0p, lam)
    sols = stationary.momentum_branches(params, q)
    assert len(sols) == n_found
    assert np.array_equal(sols[0], np.zeros(2))
    # every isolated solution of the loop is found ...
    for want in momentum_loop(params, q):
        assert min(np.abs(p - want).max() for p in sols) < 1e-9
    # ... and the rest are stationary, in the disc and sign-paired: the loop's
    # undamped steps leave the disc before they reach the pair at R^2 = 1.994
    # at (sqrt2, 0.5), and at (1.7, 2.2) its grid misses the two pairs at
    # 2 - R^2 = 2.1e-5 and 1.5e-6
    for p in sols:
        assert np.abs(momentum_gradient(params, q, p)).max() <= stationary.GRAD_TOL
        assert q[0] ** 2 + q[1] ** 2 + p @ p < R0_SQUARED
        assert min(np.abs(p + r).max() for r in sols) < 1e-9


def test_momentum_branches_ring():
    # at zeta = 0 H depends on p only through |p|, so the solutions form a
    # ring and are not isolated: it is reported as one +- pair, and only
    # stationarity and pairing are checked, not agreement with the loop
    params = ModelParams(1.7, 0.0)
    q = (0.5, 0.3)
    sols = stationary.momentum_branches(params, q)
    ring = np.array(sols[1:])
    assert len(ring) == 2
    radius = np.hypot(*ring.T)
    assert radius.max() - radius.min() < 1e-9
    for p in sols:
        assert np.abs(momentum_gradient(params, q, p)).max() <= stationary.GRAD_TOL
    for p in ring:
        assert np.hypot(*(ring + p).T).min() <= 1e-6


def test_momentum_branches_at_the_origin_are_one_ring():
    # at q = 0, H depends on p only through |p|: besides p = 0 the solutions
    # form the ring G_rho = 0, |p|^2 = 2 u* with u* = beta0p^2 / (2 (beta0p^2 - 1))
    # at lambda <= 1, reported as one +- pair
    params = ModelParams(1.7, 0.5)
    sols = stationary.momentum_branches(params, (0.0, 0.0))
    assert len(sols) == 3
    assert np.array_equal(sols[0], np.zeros(2))
    radius = math.sqrt(1.7**2 / (1.7**2 - 1.0))
    assert radius == pytest.approx(1.236568, abs=1e-6)
    for p in sols[1:]:
        assert np.hypot(*p) == pytest.approx(radius, abs=1e-12)
        assert np.abs(momentum_gradient(params, (0.0, 0.0), p)).max() <= stationary.GRAD_TOL
    assert np.array_equal(sols[1], -sols[2])
    # at lambda = 2.2 G_rho has no root inside the ball
    sols = stationary.momentum_branches(ModelParams(1.7, 2.2), (0.0, 0.0))
    assert len(sols) == 1 and np.array_equal(sols[0], np.zeros(2))


def test_momentum_branches_keep_a_pair_at_the_boundary():
    # 2 - R^2 = 3.0e-8 at this pair, where the rounding of s alone makes
    # |dH/dp| = 2.8e-8 > GRAD_TOL; a 50-digit Newton polish of dH/dp = 0
    # moves the point by 3e-16, so it is genuine
    params = ModelParams(0.75243565721866346, 0.78184053370696527)
    q = np.array([0.8464299707272644, -0.483482010116298])
    sols = stationary.momentum_branches(params, q)
    assert len(sols) == 3
    assert np.array_equal(sols[0], np.zeros(2))
    want = np.array([0.5081150111059207, 0.8897306088532155])
    assert np.abs(sols[2] - want).max() < 1e-12
    assert np.array_equal(sols[1], -sols[2])
    assert 0.0 < R0_SQUARED - q @ q - want @ want < 1e-7


def test_momentum_branches_sweep():
    # random couplings and coordinates: every returned p is in the ball and
    # sign-paired, and stationary to GRAD_TOL wherever 2 - R^2 > 1e-3, where
    # the rounding of s is not amplified (see momentum_branches)
    rng = np.random.default_rng(19)
    cases = checked = 0
    while cases < 200:
        beta0p, lam = rng.uniform(0.5, 3.0), rng.uniform(0.0, 3.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        q = SQRT2 * math.sqrt(rng.random()) * np.array([math.cos(angle), math.sin(angle)])
        if R0_SQUARED - q @ q <= 1e-3:
            continue
        cases += 1
        params = ModelParams(beta0p, lam)
        sols = stationary.momentum_branches(params, q)
        assert np.array_equal(sols[0], np.zeros(2))
        for p in sols:
            margin = R0_SQUARED - q @ q - p @ p
            assert margin > 0.0
            assert min(np.abs(p + r).max() for r in sols) < 1e-9
            if margin > 1e-3:
                checked += 1
                assert np.abs(momentum_gradient(params, q, p)).max() <= stationary.GRAD_TOL
    assert checked > 400
