"""Monte-Carlo level density, derivative, singularity detection, flow."""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from esqpt import _kernels, cli, density, quantum
from esqpt.models import ModelParams

from conftest import SQRT2
from oracle.level_density import zero_lambda_cdf
from oracle.su3 import SU3_LINE, su3_cdf


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


def _sample_ball(directions, radii, n):
    """The unblocked sampler: n direction rows from `directions` and n radius
    variates from `radii`, each in one draw; np.linalg.norm of whole rows."""
    v = directions.standard_normal((n, 4))
    v /= np.linalg.norm(v, axis=1)[:, None]
    r = math.sqrt(2.0) * radii.random(n) ** 0.25
    return v * r[:, None]


def _oracle_mc_density(params, n_samples, seed):
    """mc_density as one evaluation of the whole sample: all directions from
    the seed's first child stream, all radii from its second."""
    edges = np.linspace(*density.DEFAULT_E_RANGE, density.DEFAULT_BINS + 1)
    directions, radii = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    pts = _sample_ball(directions, radii, n_samples)
    e = _kernels.h_eval(*pts.T, params.beta0p, params.couplings)
    counts = np.histogram(e, bins=edges)[0]
    dim = quantum.basis_dimension(density.DEFAULT_REF_N)
    width = edges[1] - edges[0]
    p = counts / n_samples
    rho = dim * p / width
    err = dim * np.sqrt(np.maximum(counts, 1) / n_samples * (1 - p) / n_samples) / width
    return rho, err, n_samples - counts.sum()


def test_ball_points_equal_the_row_norm_points():
    # bit for bit, so no sample can change its energy bin
    n = 100_000
    rng = np.random.default_rng(5)
    rows = _sample_ball(rng, rng, n)
    rng = np.random.default_rng(5)
    normals = rng.standard_normal((n, 4))
    u = rng.random(n)
    assert np.array_equal(density._ball_points(normals, u), rows.T)
    assert np.array_equal(density._ball_points(normals[777:2000], u[777:2000]),
                          rows[777:2000].T)


@pytest.mark.parametrize("lam", [0.7, 2.5])  # xi = 0 and xi = 1.5
@pytest.mark.parametrize("n", [1, 777, 16_384, 16_385, 200_000])
def test_blocked_sampler_matches_unblocked(lam, n):
    params = ModelParams(1.7, lam)
    rho, err, outside = _oracle_mc_density(params, n, 13)
    grid = density.mc_density(params, n_samples=n, seed=13)
    assert np.array_equal(grid.rho, rho)
    assert np.array_equal(grid.mc_error, err)
    assert grid.n_outside == outside


@pytest.mark.parametrize("lam", [0.7, 2.5])
def test_blocked_sampler_matches_unblocked_over_batches(monkeypatch, lam):
    # the i-th sample is the same whatever the block size
    params = ModelParams(1.7, lam)
    rho, err, outside = _oracle_mc_density(params, 120_001, 21)
    for block in (1000, 16_384):
        monkeypatch.setattr(density, "_BLOCK", block)
        grid = density.mc_density(params, n_samples=120_001, seed=21)
        assert np.array_equal(grid.rho, rho)
        assert np.array_equal(grid.mc_error, err)
        assert grid.n_outside == outside


def test_binning_counts_the_edges_as_np_histogram_does(monkeypatch):
    # the i-th of 21 edges i + 1 times, one energy an ulp either side of each
    # edge, and two off the window; the last bin is closed, the others
    # half-open
    edges = np.linspace(*density.DEFAULT_E_RANGE, 21)
    h = np.concatenate([np.repeat(edges, np.arange(1, 22)), np.nextafter(edges, -np.inf),
                        np.nextafter(edges, np.inf), [-1.0, 5.0]])
    monkeypatch.setattr(_kernels, "h_combine", lambda parts, coeffs: h.copy())
    grid = density.mc_density(ModelParams(1.7, 0.5), n_samples=len(h), bins=20)
    counts = np.histogram(h, bins=edges)[0]
    dim = quantum.basis_dimension(density.DEFAULT_REF_N)
    assert grid.n_outside == len(h) - counts.sum() == 4
    assert np.array_equal(grid.rho, dim * (counts / len(h)) / (edges[1] - edges[0]))


def test_mc_density_memory_does_not_grow_with_the_sample():
    # the sample streams through fixed-size blocks; a whole-sample draw of
    # 2e6 points alone holds 80 MB
    params = ModelParams(1.7, 0.7)
    density.mc_density(params, n_samples=1000)
    tracemalloc.start()
    try:
        density.mc_density(params, n_samples=2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def assert_same_grid(got, want):
    assert np.array_equal(got.rho, want.rho)
    assert np.array_equal(got.mc_error, want.mc_error)
    assert got.n_outside == want.n_outside
    assert got.params == want.params


@pytest.mark.parametrize("lambdas", [[0.2, 0.7, 1.0], [1.0, 1.3, 2.5, 3.2], [0.5, 1.5]])
@pytest.mark.parametrize("n", [1, 16_385])
def test_scan_rows_equal_single_lambda_densities(lambdas, n):
    grids = density.mc_density_scan(1.7, lambdas, n_samples=n, seed=13)
    assert len(grids) == len(lambdas)
    for lam, grid in zip(lambdas, grids):
        assert_same_grid(grid, density.mc_density(ModelParams(1.7, lam), n_samples=n, seed=13))


def test_scan_rows_equal_single_lambda_densities_over_batches(monkeypatch):
    monkeypatch.setattr(density, "_BLOCK", 1000)
    lambdas = [0.3, 0.9, 1.1, 2.5]
    grids = density.mc_density_scan(1.7, lambdas, n_samples=120_001, seed=21)
    for lam, grid in zip(lambdas, grids):
        want = density.mc_density(ModelParams(1.7, lam), n_samples=120_001, seed=21)
        assert_same_grid(grid, want)


@pytest.mark.parametrize("block, n_samples", [(1000, 120_001), (7, 4001), (1000, 1500)])
@pytest.mark.parametrize("workers", [2, 3, 8])
def test_scan_does_not_depend_on_the_workers(monkeypatch, block, n_samples, workers):
    # real threads share 121 blocks, the last of one point, or 572 blocks of
    # 7 points, where the threads interleave often, or 2 blocks, fewer than
    # the workers; at beta0' = 4, lambda = 0 samples leave the window; a
    # short switch interval interleaves the threads often
    monkeypatch.setattr(density, "_BLOCK", block)
    lambdas = [0.0, 0.9, 2.5]
    want = density.mc_density_scan(4.0, lambdas, n_samples=n_samples, seed=21)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = density.mc_density_scan(4.0, lambdas, n_samples=n_samples, seed=21,
                                      workers=workers)
    finally:
        sys.setswitchinterval(interval)
    assert want[0].n_outside > 0
    for grid, serial in zip(got, want):
        assert_same_grid(grid, serial)
        assert np.array_equal(grid.drho_dE, serial.drho_dE)


def test_n_outside_counts_samples_off_the_window():
    # beta0p = 4, lambda = 0: the energies reach far above E = 3.05
    grid = density.mc_density(ModelParams(4.0, 0.0), n_samples=20_000, seed=3)
    inside = grid.rho.sum() * grid.binwidth / quantum.basis_dimension(grid.ref_N)
    assert grid.n_outside > 10_000
    assert inside == pytest.approx(1.0 - grid.n_outside / grid.n_samples, abs=1e-12)
    assert density.mc_density(ModelParams(SQRT2, 0.2), n_samples=20_000).n_outside == 0


@pytest.mark.parametrize("beta0p", [0.6, 1.0, 1.7, 2.5, 4.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_mc_density_at_zero_lambda_matches_the_exact_counting_function(beta0p, seed):
    # at lambda = 0, H depends on R alone and F(E) = P(H <= E) is exact
    # (oracle.level_density).  Bins expected to hold fewer than 5 samples are
    # left to the test of sparse bins below
    n = 1_000_000
    grid = density.mc_density(ModelParams(beta0p, 0.0), n_samples=n, seed=seed)
    assert_counts_follow(grid, zero_lambda_cdf(beta0p, grid.e_edges), n)


def test_mc_density_on_the_su3_line_matches_the_exact_counting_function():
    # at (sqrt(2), 2) the L = 0 states fill the SU(3) label triangle
    # uniformly, which gives F(E) in closed form (oracle.su3)
    n = 1_000_000
    grid = density.mc_density(ModelParams(*SU3_LINE), n_samples=n, seed=0)
    assert_counts_follow(grid, su3_cdf(grid.e_edges), n)


def assert_counts_follow(grid, cdf, n):
    """The bin counts of n samples against the counting function at the bin
    edges: a chi-square over the bins expected to hold 5 samples or more, the
    samples outside the window, and the median of the errors."""
    p = np.diff(cdf)
    expected = n * p
    counts = np.rint(grid.rho * grid.binwidth * n / quantum.basis_dimension(grid.ref_N))
    used = expected >= 5.0
    k = int(used.sum())
    chi2 = float(np.sum((counts[used] - expected[used]) ** 2 / expected[used]))
    # Wilson-Hilferty: (chi2 / k)^(1/3) is near normal, mean 1 - 2/(9k), variance 2/(9k)
    z = ((chi2 / k) ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * k))) / math.sqrt(2.0 / (9.0 * k))
    assert abs(z) <= 4.0
    outside = 1.0 - (cdf[-1] - cdf[0])
    assert abs(grid.n_outside / n - outside) <= 4.0 * math.sqrt(outside * (1.0 - outside) / n)
    sigma = quantum.basis_dimension(grid.ref_N) * np.sqrt(p * (1.0 - p) / n) / grid.binwidth
    assert np.median(grid.mc_error[used] / sigma[used]) == pytest.approx(1.0, abs=0.01)


def test_mc_density_of_sparse_bins_lies_within_its_errors_of_the_exact_density():
    # a bin expected to hold fewer than 5 samples carries the binomial error of
    # max(k, 1) counts; at beta0p = 1.7, 2e6 samples and seed 1 the bin
    # (-0.0087, 0.0017) is empty where 0.67 samples are expected
    n = 2_000_000
    grid = density.mc_density(ModelParams(1.7, 0.0), n_samples=n, seed=1)
    p = np.diff(zero_lambda_cdf(1.7, grid.e_edges))
    rho = quantum.basis_dimension(grid.ref_N) * p / grid.binwidth
    sparse = n * p < 5.0
    assert np.any(sparse & (p > 0.0) & (grid.rho == 0.0))
    assert np.all(np.abs(grid.rho - rho)[sparse] <= 5.0 * grid.mc_error[sparse])


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
    with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
        density.mc_density(ModelParams(1.0, 0.5), n_samples=10, workers=0)


def test_derivative_flat_region_is_quiet():
    grid = density.mc_density(ModelParams(SQRT2, 0.2), n_samples=2_000_000, seed=6)
    d = grid.drho_dE
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


def test_grid_is_built_with_its_derivative():
    grid = density.mc_density(ModelParams(1.7, 0.5), n_samples=20_000, seed=2, bins=60)
    rho, err = grid.rho.copy(), grid.mc_error.copy()
    d, derr = density.density_derivative(grid.rho, grid.mc_error, grid.binwidth)
    assert np.array_equal(d, grid.drho_dE) and np.array_equal(derr, grid.drho_error)
    assert np.array_equal(rho, grid.rho) and np.array_equal(err, grid.mc_error)
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.drho_dE = d


def test_phase_diagram_shapes():
    cfg = cli.make_config(["phase-diagram", "--beta0p", repr(SQRT2), "--lambda-start", "0.1",
                           "--lambda-stop", "0.3", "--lambda-step", "0.2", "--n-samples", "50000"])
    grids = density.mc_density_scan(cfg.beta0p, cfg.lambdas, n_samples=cfg.n_samples,
                                    seed=cfg.seed, bins=cfg.e_bins, ref_N=cfg.ref_N)
    assert len(grids) == 2
    header, table = cli.run_phase_diagram(cfg)
    mat = np.array([block[header.index("drho_dE")] for block in table.blocks])
    assert mat.shape == (2, density.DEFAULT_BINS)
    assert np.array_equal(mat[0], grids[0].drho_dE)


def test_gaussian_spectral_density_normalization():
    centers = np.linspace(-1, 2, 600)
    e = np.array([0.0, 0.5, 0.9])
    rho = quantum.gaussian_spectral_density(e, centers, 0.05)
    total = np.trapezoid(rho, centers)
    assert total == pytest.approx(len(e), rel=1e-6)


def test_smoothed_flow_takes_rho_and_jbar_from_one_gaussian_sum(monkeypatch):
    spec = quantum.diagonalize(ModelParams(SQRT2, 0.5), 30)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return quantum.gaussian_spectral_density(*args, **kwargs)

    monkeypatch.setattr(density, "gaussian_spectral_density", recording)
    flow = density.smoothed_flow(spec, width=0.05)
    assert len(calls) == 1
    # the same bits as two sums, of the levels and of their slopes
    rho = quantum.gaussian_spectral_density(spec.epsilon, flow.e_centers, 0.05)
    jbar = quantum.gaussian_spectral_density(spec.epsilon, flow.e_centers, 0.05,
                                             spec.epsilon_slopes)
    assert np.array_equal(flow.rho, rho) and np.array_equal(flow.jbar, jbar)


def test_smoothed_flow_basic():
    spec = quantum.diagonalize(ModelParams(SQRT2, 0.5), 30)
    flow = density.smoothed_flow(spec, width=0.05)
    assert flow.rho.shape == flow.jbar.shape == flow.phibar.shape
    # velocity field finite wherever the density is appreciable
    sel = flow.rho > 1e-6
    assert np.all(np.isfinite(flow.phibar[sel]))
    # the ground state sits at E = 0 with zero slope: no flow at the bottom
    idx = np.argmin(np.abs(flow.e_centers))
    assert abs(flow.jbar[idx]) < 1e-3 * np.abs(flow.jbar).max() + 1e-9
