"""Classical phase-space Hamiltonian: values, derivatives, kernels."""

import math

import numpy as np
import pytest

from esqpt import _derivs, _kernels, classical
from esqpt.classical import R0_SQUARED
from esqpt.models import ModelParams

from conftest import SQRT2, interior_points
from oracle.hamiltonian import classical_h

PARAM_SETS = [ModelParams(SQRT2, 0.3), ModelParams(SQRT2, 2.0), ModelParams(1.7, 1.6)]


def test_eval_domain_check():
    with pytest.raises(ValueError):
        classical.eval_H(ModelParams(1.0, 0.5), [1.5, 0.0, 0.0, 0.9])


def test_gradient_is_refused_on_the_boundary_as_singular():
    # (1, 1, 0, 0) is in the ball, at R^2 = 2 exactly: H is finite there, but
    # its gradient has sqrt(1 - u) in a denominator
    params = ModelParams(SQRT2, 0.5)
    assert classical.eval_H(params, [1.0, 1.0, 0.0, 0.0]) == 1.0
    with pytest.raises(ValueError, match=r"gradient is singular on the boundary R\^2 = 2"):
        classical.grad_H(params, [1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="point outside the phase space"):
        classical.grad_H(params, [1.0, 1.0, 0.1, 0.0])


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
        hess = _kernels.h_hess(*pt, params.beta0p, params.couplings)
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
        got = _kernels.h_hess(*args, b0, params.couplings)
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
    got = _kernels.h_eval(*pts, b0, params.couplings)
    for with_xi in {xi != 0.0, True}:
        parts = _derivs.h_parts(*pts, b0, with_xi)
        assert np.array_equal(_kernels.h_combine(parts, params.couplings), got)
        # the sum is a new array, also of one part alone ((1, 0, 0, 0) at
        # lambda = 0, or dH/dlambda there and on the second branch), and the
        # parts stay as they were: mc_density_scan sorts the sum in place
        kept = [None if p is None else p.copy() for p in parts]
        for coeffs in (params.couplings, (0.0, *params.coupling_slopes())):
            h = _kernels.h_combine(parts, coeffs)
            h.sort()
            assert not any(p is not None and np.shares_memory(h, p) for p in parts)
            assert all(p is q or np.array_equal(p, q) for p, q in zip(parts, kept))
    want = ungrouped_h(*pts, b0, ze, xi)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_potential_at_origin():
    # V(0) = 0 on the first branch, xi * beta0p^4 / 2 on the second
    for lam in (0.0, 0.5, 1.0):
        params = ModelParams(SQRT2, lam)
        v0 = _kernels.potential(0.0, 0.0, params.beta0p, params.couplings)
        assert v0 == pytest.approx(0.0, abs=1e-14)
    params = ModelParams(SQRT2, 2.5)
    v0 = _kernels.potential(0.0, 0.0, params.beta0p, params.couplings)
    assert v0 == pytest.approx(((2.5 - 1.0) / 2.0) * SQRT2**4, abs=1e-12)


def test_potential_gamma_symmetry(rng):
    # V is invariant under gamma -> gamma + 2pi/3 (three-fold symmetry)
    params = ModelParams(1.7, 0.8)
    coup = (params.beta0p, params.couplings)
    for _ in range(10):
        b = rng.uniform(0, 1.3)
        g = rng.uniform(0, 2 * math.pi)
        v1 = _kernels.potential(b * math.cos(g), b * math.sin(g), *coup)
        g2 = g + 2 * math.pi / 3
        v2 = _kernels.potential(b * math.cos(g2), b * math.sin(g2), *coup)
        assert v1 == pytest.approx(v2, abs=1e-12)
