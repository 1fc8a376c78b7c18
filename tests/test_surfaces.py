"""Coherent-state condensate energies and excited surfaces vs Fock oracle."""

import math
import warnings

import numpy as np
import pytest

from esqpt import surfaces
from esqpt.models import ModelParams

from conftest import SQRT2
from oracle import fock
from oracle.algebra import BosonExpr
from oracle.hamiltonian import h_scaled


def oracle_condensate_energy(params, N, beta, gamma=0.0):
    amps = fock.IntrinsicBosons(beta, gamma).condensate
    vec = fock.condensate_vector(amps, N)
    return fock.expectation(h_scaled(params), vec, N) / (2.0 * N * N)


def oracle_excited_energy(params, N, N_gamma, beta):
    """Expectation in (d+_{+2} d+_{-2})^{N_gamma/2} B+^{N-N_gamma} |0>."""
    amps = fock.IntrinsicBosons(beta, 0.0).condensate
    state = {(0, 0, 0, 0, 0, 0): 1.0}
    cond = BosonExpr()
    for m, a in enumerate(amps):
        if a != 0.0:
            cond = cond + BosonExpr.create(m, a)
    pair = BosonExpr.create(1) * BosonExpr.create(5)
    for _ in range(N - N_gamma):
        state = cond.apply(state)
    for _ in range(N_gamma // 2):
        state = pair.apply(state)
    norm2 = sum(abs(v) ** 2 for v in state.values())
    h_state = h_scaled(params).apply(state)
    val = sum(h_state.get(k, 0.0) * np.conj(v) for k, v in state.items())
    return float(np.real(val)) / norm2 / (2.0 * N * N)


def test_intrinsic_triple_orthonormal():
    for beta, gamma in [(0.0, 0.0), (0.7, 0.3), (1.2, 2.0)]:
        ib = fock.IntrinsicBosons(beta, gamma)
        vs = [ib.condensate, ib.beta_mode, ib.gamma_mode]
        gram = np.array([[float(a @ b) for b in vs] for a in vs])
        assert np.allclose(gram, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("params", [ModelParams(SQRT2, 0.6), ModelParams(1.7, 2.1)])
def test_condensate_energy_matches_fock_oracle(params, rng):
    for _ in range(4):
        beta = rng.uniform(0.0, 1.3)
        gamma = rng.uniform(0.0, 2 * math.pi)
        got = surfaces.condensate_energy(params, 8, beta, gamma)
        want = oracle_condensate_energy(params, 8, beta, gamma)
        assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("n_gamma", [0, 2, 4, 8])
def test_excited_energy_matches_fock_oracle(n_gamma, rng):
    # (sqrt2, 1.2) has xi != 0, (1.7, 0.6) has 0 < zeta < 1 with xi = 0, and
    # (1.3, 0) has zeta = 0, so every coupling of the quartic is exercised
    # an array of beta gives one value per beta, a scalar a float
    for params in (ModelParams(SQRT2, 1.2), ModelParams(1.7, 0.6), ModelParams(1.3, 0.0)):
        betas = rng.uniform(0.0, 1.3, 3)
        got = surfaces.excited_energy(params, 8, n_gamma, betas)
        assert got.shape == betas.shape
        for beta, e in zip(betas, got):
            want = oracle_excited_energy(params, 8, n_gamma, beta)
            assert e == pytest.approx(want, abs=1e-10)
            scalar = surfaces.excited_energy(params, 8, n_gamma, float(beta))
            assert type(scalar) is float and scalar == pytest.approx(e, abs=1e-14)


def test_excited_energy_reduces_to_condensate():
    params = ModelParams(1.7, 0.8)
    for beta in (0.0, 0.5, 1.1):
        assert surfaces.excited_energy(params, 12, 0, beta) == pytest.approx(
            surfaces.condensate_energy(params, 12, beta), abs=1e-12
        )


def test_excited_energy_validation():
    params = ModelParams(1.0, 0.5)
    with pytest.raises(ValueError):
        surfaces.excited_energy(params, 10, 3, 0.5)
    with pytest.raises(ValueError):
        surfaces.excited_energy(params, 10, 12, 0.5)
    with pytest.raises(ValueError):
        surfaces.excited_energy(params, 10, 2, 1.5)
    with pytest.raises(ValueError):
        surfaces.excited_energy(params, 10, 2, np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        surfaces.condensate_energy(params, 10, -0.1)


def test_surface_minima_critical_lambda():
    # at lambda = 1 the ground surface has degenerate minima at beta = 0 and
    # beta = 2/sqrt(3)
    pts = surfaces.surface_stationary_points(ModelParams(SQRT2, 1.0), 40, 0)
    minima = [p for p in pts if p.kind.endswith("min")]
    assert any(abs(p.beta) < 1e-6 for p in minima)
    deformed = [p for p in minima if p.beta > 0.5]
    assert deformed and deformed[0].beta == pytest.approx(2 / math.sqrt(3), abs=1e-3)
    assert abs(deformed[0].energy) < 1e-9


def test_surface_kinds_labelled():
    pts = surfaces.surface_stationary_points(ModelParams(SQRT2, 0.9), 30, 2)
    kinds = {p.kind for p in pts}
    assert "primary_min" in kinds
    primaries = [p for p in pts if p.kind == "primary_min"]
    assert len(primaries) == 1
    assert all(
        primaries[0].energy <= p.energy + 1e-12 for p in pts if p.kind.endswith("min")
    )


def slope(params, N, n_gamma, beta, h=1e-4):
    """dE/dbeta by a five-point stencil in theta = asin(beta/sqrt2), where E is a
    trigonometric polynomial."""
    theta = math.asin(beta / SQRT2)

    def e(th):
        return surfaces.excited_energy(params, N, n_gamma, SQRT2 * math.sin(th))

    d_theta = (e(theta - 2 * h) - 8 * e(theta - h) + 8 * e(theta + h) - e(theta + 2 * h)) / (12 * h)
    return d_theta / (SQRT2 * math.cos(theta))


# (beta0', lambda, N, N_gamma, beta of the barrier maximum next to the origin)
NEAR_ORIGIN_MAXIMA = [
    (SQRT2, 1.33, 50, 0, 0.00667),
    (1.7, 2.2, 50, 2, 0.01926),
    (3.0, 1.33, 50, 2, 0.01717),
]


@pytest.mark.parametrize("beta0p, lam, N, n_gamma, beta_max", NEAR_ORIGIN_MAXIMA)
def test_surface_stationary_points_are_exact_and_alternate(beta0p, lam, N, n_gamma, beta_max):
    params = ModelParams(beta0p, lam)
    pts = surfaces.surface_stationary_points(params, N, n_gamma)
    assert pts[0].beta == 0.0
    for p in pts[1:]:
        assert abs(slope(params, N, n_gamma, p.beta)) <= 1e-9
        assert p.energy == surfaces.excited_energy(params, N, n_gamma, p.beta)
    kinds = [p.kind for p in pts]
    for a, b in zip(kinds, kinds[1:]):
        assert not (a.endswith("min") and b.endswith("min")), kinds
    assert pts[1].kind == "max" and pts[1].beta == pytest.approx(beta_max, abs=1e-5)


@pytest.mark.parametrize("beta0p", [0.7, SQRT2, 3.0])
def test_surface_stationary_points_match_a_fine_scan(beta0p):
    # every sign change of dE along a 2001-point theta grid is one reported interior point
    thetas = np.linspace(0.0, math.asin(1.0 - 1e-6 / SQRT2), 2001)
    for lam in (0.3, 1.0, 1.33, 2.2):
        for n_gamma in (0, 2, 8):
            params = ModelParams(beta0p, lam)
            e = [surfaces.excited_energy(params, 50, n_gamma, SQRT2 * math.sin(t)) for t in thetas]
            signs = np.sign(np.diff(e))
            signs = signs[signs != 0]
            n_turns = int(np.count_nonzero(signs[1:] != signs[:-1]))
            pts = surfaces.surface_stationary_points(params, 50, n_gamma)
            assert len(pts) - 1 == n_turns, (lam, n_gamma, pts)


def test_constant_surface_reports_only_the_origin():
    # at N_gamma = N every boson sits in the gamma pairs and E does not depend on beta
    params = ModelParams(1.7, 0.7)
    energy = surfaces.excited_energy(params, 10, 10, 0.0)
    assert surfaces.excited_energy(params, 10, 10, 1.3) == pytest.approx(energy, abs=1e-14)
    assert surfaces.surface_stationary_points(params, 10, 10) == [
        surfaces.SurfaceStationaryPoint(0.0, energy, "primary_min")
    ]


@pytest.mark.parametrize("beta0p, lam, N, n_gamma", [
    (SQRT2, 1.0, 50, 2), (1.7, 0.4, 20, 6), (3.0, 2.2, 50, 2), (1.3, 0.0, 30, 4),
])
def test_origin_slope_closed_form(beta0p, lam, N, n_gamma):
    # the origin is an endpoint of [0, sqrt2), not a stationary point: its slope is
    # dE/dbeta(0) = 4 sqrt2 zeta beta0' n m / N^2 with n = N - N_gamma, m = N_gamma/2
    # (0.1536 at the critical point sqrt2, lambda = 1, N = 50, N_gamma = 2)
    params = ModelParams(beta0p, lam)
    want = 4 * SQRT2 * params.zeta * beta0p * (N - n_gamma) * (n_gamma / 2) / N**2
    h = 1e-5
    e0, e1, e2 = (surfaces.excited_energy(params, N, n_gamma, k * h) for k in range(3))
    assert (-3 * e0 + 4 * e1 - e2) / (2 * h) == pytest.approx(want, abs=1e-8)
    origin = surfaces.surface_stationary_points(params, N, n_gamma)[0]
    assert origin.beta == 0.0 and origin.kind.endswith("min")


@pytest.mark.parametrize("beta0p, lam, n_clean, n_refused", [
    (1.7, 0.5, 10**118, 10**119), (1.0, 1e60, 10**89, 10**90), (1e10, 1e20, 10**89, 10**90),
])
def test_an_n_past_the_float_range_is_refused(beta0p, lam, n_clean, n_refused):
    # the quartic's coefficients grow as N^2 times the energy scale; each
    # n_clean is a tenth of the n_refused past the bound
    params = ModelParams(beta0p, lam)
    betas = np.linspace(0.0, surfaces.BETA_MAX - 1e-9, 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ng in (0, 2, n_clean // 2, n_clean):
            assert np.isfinite(surfaces.excited_energy(params, n_clean, ng, betas)).all()
            assert surfaces.surface_stationary_points(params, n_clean, ng)
        with pytest.raises(ValueError, match=f"N = {n_refused} is above"):
            surfaces.excited_energy(params, n_refused, 0, betas)
