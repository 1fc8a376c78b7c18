"""Monte-Carlo level density, derivative, singularity detection, flow."""

import numpy as np
import pytest

from esqpt import cli, density, quantum
from esqpt.models import ModelParams

from conftest import SQRT2


def test_density_support_u5_limit():
    # at lambda = 0 with beta0p^2 <= 2 all energy values lie in [0, 1]
    grid = density.mc_density(ModelParams(SQRT2, 0.0), n_samples=200_000, seed=5)
    centers = grid.e_centers
    outside = (centers < -grid.binwidth) | (centers > 1.0 + grid.binwidth)
    assert np.all(grid.rho[outside] == 0.0)
    assert grid.rho[(centers > 0.1) & (centers < 0.9)].min() > 0.0


def test_density_normalization():
    grid = density.mc_density(ModelParams(SQRT2, 1.2), n_samples=400_000, seed=1, ref_N=50)
    total = grid.rho.sum() * grid.binwidth
    assert total == pytest.approx(quantum.basis_dimension(50), rel=5e-3)


def test_density_support_upper_bound_second_branch():
    # boundary maximum is 2 for lambda in [1, 3)
    grid = density.mc_density(ModelParams(SQRT2, 2.0), n_samples=300_000, seed=2)
    bad = grid.e_centers > 2.0 + grid.binwidth
    assert np.all(grid.rho[bad] == 0.0)


def test_density_deterministic_and_seed_sensitive():
    params = ModelParams(1.7, 0.7)
    a = density.mc_density(params, n_samples=100_000, seed=9)
    b = density.mc_density(params, n_samples=100_000, seed=9)
    assert np.array_equal(a.rho, b.rho)
    c = density.mc_density(params, n_samples=100_000, seed=10)
    assert not np.array_equal(a.rho, c.rho)


def test_mc_error_scaling():
    params = ModelParams(SQRT2, 0.8)
    small = density.mc_density(params, n_samples=100_000, seed=4)
    large = density.mc_density(params, n_samples=400_000, seed=4)
    inside = small.rho > 0
    ratio = small.mc_error[inside].mean() / large.mc_error[inside].mean()
    assert 2.0 * 0.8 < ratio < 2.0 * 1.2


def test_density_validation():
    with pytest.raises(ValueError):
        density.mc_density(ModelParams(1.0, 0.5), n_samples=0)


def test_derivative_flat_region_is_quiet():
    grid = density.mc_density(ModelParams(SQRT2, 0.2), n_samples=2_000_000, seed=6)
    d = density.density_derivative(grid)
    sel = (grid.e_centers > 1.9) & (grid.e_centers < 2.7)
    assert np.abs(d[sel]).max() < 5 * grid.drho_error[sel].max()


def test_detect_singularities_spherical_cut():
    # lambda = 0.2: the kinetic stationary sextet (r = 3) produces a strong
    # downward spike of the derivative near E = 1.055; detection is
    # one-directional, so weaker features (like the small upward jump at the
    # E = 0 minimum, ~3 sigma at this sample count) may legitimately be absent
    grid = density.mc_density(ModelParams(SQRT2, 0.2), n_samples=4_000_000, seed=11)
    feats = density.detect_singularities(grid)
    kinds = {round(f.e_center, 2): f.kind for f in feats}
    kin = [f for f in feats if abs(f.e_center - 1.055) < 0.02]
    assert kin and kin[0].kind == "spike_down", kinds
    assert kin[0].strength > 5.0


def test_phase_diagram_shapes():
    cfg = cli.JobConfig("phase-diagram", SQRT2, np.array([0.1, 0.3]), n_samples=50_000)
    grids = cli._density_grids(cfg)
    assert len(grids) == 2
    header, rows = cli.run_phase_diagram(cfg)
    mat = np.array([r[header.index("drho_dE")] for r in rows]).reshape(2, -1)
    assert mat.shape == (2, density.DEFAULT_BINS)
    assert np.array_equal(mat[0], grids[0].drho_dE)


def test_gaussian_spectral_density_normalization():
    centers = np.linspace(-1, 2, 600)
    e = np.array([0.0, 0.5, 0.9])
    rho = density.gaussian_spectral_density(e, centers, 0.05)
    total = np.trapezoid(rho, centers)
    assert total == pytest.approx(len(e), rel=1e-6)


def test_smoothed_flow_basic():
    spec = quantum.diagonalize(ModelParams(SQRT2, 0.5), 30)
    flow = density.smoothed_flow([spec], width=0.05)
    assert flow.rho.shape == flow.jbar.shape == flow.phibar.shape
    # velocity field finite wherever the density is appreciable
    sel = flow.rho > 1e-6
    assert np.all(np.isfinite(flow.phibar[sel]))
    # the ground state sits at E = 0 with zero slope: no flow at the bottom
    idx = np.argmin(np.abs(flow.e_centers))
    assert abs(flow.jbar[idx]) < 1e-3 * np.abs(flow.jbar).max() + 1e-9


def test_smoothed_flow_rejects_mixed_n():
    s1 = quantum.diagonalize(ModelParams(SQRT2, 0.5), 20)
    s2 = quantum.diagonalize(ModelParams(SQRT2, 0.5), 22)
    with pytest.raises(ValueError):
        density.smoothed_flow([s1, s2])
