"""End-to-end acceptance gates.

Each test exercises one published claim at its stated tolerance and prints a
single PASS/FAIL line to the terminal (bypassing capture), so a full run
yields an 11-line scorecard.
"""

import math

import numpy as np
import pytest

from esqpt import cli, density, quantum, stationary, surfaces
from esqpt.models import ModelParams

from conftest import SQRT2
from oracle import fock
from oracle.hamiltonian import h_scaled

_RESULTS = []
# the Monte-Carlo densities bin their sample on one thread per usable CPU;
# the sample and every number are those of one thread
WORKERS = cli._usable_cpus()


@pytest.fixture
def announce(capsys, request):
    def _report(number, title, ok, detail=""):
        line = f"acceptance {number:2d} [{title}]: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _report


# -- 1 ----------------------------------------------------------------------


def test_acceptance_01_spinodal(announce):
    got_a = stationary.spinodal_points(SQRT2)
    got_b = stationary.spinodal_points(1.7)
    ok = (
        abs(got_a[0] - 0.707) < 5e-3
        and abs(got_a[1] - 1.333) < 5e-3
        and abs(got_b[0] - 0.460) < 5e-3
        and abs(got_b[1] - 1.257) < 5e-3
    )
    announce(1, "spinodal/antispinodal", ok,
             f"sqrt2 -> {got_a[0]:.4f},{got_a[1]:.4f}; 1.7 -> {got_b[0]:.4f},{got_b[1]:.4f}")


# -- 2 ----------------------------------------------------------------------


def closed_form_boundary(lam):
    if lam < 1.0:
        return 1.0, 1.0 + lam**2
    if lam < 3.0:
        return (1.0 + lam) / 2.0, 2.0
    return 2.0, (1.0 + lam) / 2.0


def test_acceptance_02_boundary_energies(announce):
    worst = 0.0
    for beta0p in (SQRT2, 1.7):
        for lam in np.arange(0.0, 3.2001, 0.05):
            lo, hi = stationary.boundary_extrema(ModelParams(beta0p, float(lam)))
            want_lo, want_hi = closed_form_boundary(float(lam))
            worst = max(worst, abs(lo - want_lo), abs(hi - want_hi))
    announce(2, "boundary energy extrema", worst < 1e-6, f"max dev {worst:.2e}")


# -- 3 ----------------------------------------------------------------------


def test_acceptance_03_u5_spectrum(announce):
    worst = 0.0
    b0 = SQRT2
    for N in (2, 3, 10, 50):
        spec = quantum.diagonalize(ModelParams(b0, 0.0), N)
        want = []
        for n in range(N + 1):
            e = (2.0 / N) * n * (n - 1) + (2.0 * b0**2 / N) * (N - n) * n
            want.extend([e] * quantum.sector_size(n))
        worst = max(worst, np.abs(np.sort(spec.energies) - np.sort(want)).max())
    announce(3, "U(5) analytic spectrum", worst < 1e-10, f"max dev {worst:.2e}")


# -- 4 ----------------------------------------------------------------------


def test_acceptance_04_zero_modes(announce):
    worst_first = 0.0
    for b0 in (SQRT2, 1.7):
        for lam in np.linspace(0.0, 1.0, 11):
            e0 = quantum.diagonalize(ModelParams(b0, float(lam)), 50).energies[0]
            worst_first = max(worst_first, abs(e0))
    e0_su3 = abs(quantum.diagonalize(ModelParams(SQRT2, 2.0), 50).energies[0])
    ok = worst_first < 1e-10 and e0_su3 < 1e-8
    announce(4, "zero-energy ground states", ok,
             f"first branch {worst_first:.1e}, SU(3) {e0_su3:.1e}")


# -- 5 ----------------------------------------------------------------------


def fock_l0_spectrum(params, N):
    hf = fock.matrix(h_scaled(params), N).real / N
    l2 = fock.matrix(fock.l_operator_squared(), N).real
    evals, evecs = np.linalg.eigh(l2)
    q = evecs[:, np.abs(evals) < 1e-8]
    return np.linalg.eigvalsh(q.T @ hf @ q)


def test_acceptance_05_fock_oracle(announce):
    worst = 0.0
    for params in (ModelParams(SQRT2, 0.4), ModelParams(SQRT2, 2.2),
                   ModelParams(1.7, 0.9), ModelParams(1.3, 1.5)):
        for N in (2, 3, 4, 5, 6):
            got = np.sort(np.linalg.eigvalsh(quantum.build_hamiltonian(params, N)))
            want = np.sort(fock_l0_spectrum(params, N))
            worst = max(worst, np.abs(got - want).max())
    rng = np.random.default_rng(8)
    worst_cs = 0.0
    for params in (ModelParams(SQRT2, 0.7), ModelParams(1.7, 1.8)):
        for _ in range(4):
            beta = rng.uniform(0.0, 1.3)
            gamma = rng.uniform(0.0, 2 * math.pi)
            got = surfaces.condensate_energy(params, 8, beta, gamma)
            amps = fock.IntrinsicBosons(beta, gamma).condensate
            vec = fock.condensate_vector(amps, 8)
            want = fock.expectation(h_scaled(params), vec, 8) / (2.0 * 64)
            worst_cs = max(worst_cs, abs(got - want))
    ok = worst < 1e-10 and worst_cs < 1e-10
    announce(5, "Fock-space oracle equivalence", ok,
             f"spectra {worst:.1e}, coherent {worst_cs:.1e}")


# -- 6 ----------------------------------------------------------------------

# allowed derivative-feature kinds per interior Hessian index r
FEATURE_KINDS = {
    0: {"jump_up"},
    1: {"spike_up"},
    2: {"jump_down"},
    3: {"spike_down"},
    4: {"jump_up"},
}
ANY_KIND = {"jump_up", "jump_down", "spike_up", "spike_down"}

CUTS = {
    SQRT2: (0.2, 1.0, 1.6, 2.5),
    1.7: (0.12, 0.65, 1.45, 2.90),
}


def reference_energies(params):
    """(energy, allowed kinds) references from the census and the boundary."""
    refs = []
    for sp in stationary.find_stationary_points(params):
        if sp.index_r == "degenerate":
            refs.append((sp.energy, ANY_KIND))
        else:
            refs.append((sp.energy, FEATURE_KINDS[sp.index_r]))
    lo, hi = stationary.boundary_extrema(params)
    refs.append((lo, ANY_KIND))
    refs.append((hi, ANY_KIND))
    return refs


def test_acceptance_06_singularity_consistency(announce):
    failures, empty = [], []
    n_features = 0
    for beta0p, lams in CUTS.items():
        for lam in lams:
            params = ModelParams(beta0p, lam)
            grid = density.mc_density(params, n_samples=10_000_000, seed=17, workers=WORKERS)
            feats = density.detect_singularities(grid)
            refs = reference_energies(params)
            edges = grid.e_edges
            if not feats:
                empty.append((beta0p, lam))
            for f in feats:
                n_features += 1
                fbin = np.searchsorted(edges, f.e_center) - 1
                matched = any(
                    abs(np.searchsorted(edges, e) - 1 - fbin) <= 1 and f.kind in kinds
                    for e, kinds in refs
                )
                if not matched:
                    failures.append((beta0p, lam, round(f.e_center, 3), f.kind))
    # a cut without features would pass the matching vacuously
    announce(6, "density/census singularity consistency", not failures and not empty,
             f"{n_features} features over 8 cuts, unmatched: {failures}, "
             f"cuts without features: {empty}")


# -- 7 ----------------------------------------------------------------------


def test_acceptance_07_kinetic_counts(announce):
    grid = np.arange(0.0, 3.2001, 0.02)
    counts = {}
    for beta0p in (SQRT2, 1.7):
        curves = stationary.trace_borderlines(beta0p, grid, include_boundary=False)
        counts[beta0p] = stationary.kinetic_borderline_count(curves)
    ok = counts[SQRT2] == 1 and counts[1.7] == 3
    announce(7, "kinetic borderline counts", ok,
             f"sqrt2 -> {counts[SQRT2]}, 1.7 -> {counts[1.7]}")


# -- 8 ----------------------------------------------------------------------


def test_acceptance_08_continuity_equation(announce):
    N, width, delta = 50, 0.05, 0.02
    worst_ratio = 0.0
    for lam in (0.5, 1.5):
        lo = quantum.diagonalize(ModelParams(SQRT2, lam - delta), N)
        hi = quantum.diagonalize(ModelParams(SQRT2, lam + delta), N)
        mid = quantum.diagonalize(ModelParams(SQRT2, lam), N)
        flow = density.smoothed_flow(mid, width=width)
        centers = flow.e_centers
        rho_lo = quantum.gaussian_spectral_density(lo.epsilon, centers, width)
        rho_hi = quantum.gaussian_spectral_density(hi.epsilon, centers, width)
        drho_dlam = (rho_hi - rho_lo) / (2 * delta)
        dj_de = np.gradient(flow.jbar, centers)
        residual = np.abs(drho_dlam + dj_de).max()
        worst_ratio = max(worst_ratio, residual / np.abs(dj_de).max())
    announce(8, "continuity equation", worst_ratio < 0.10,
             f"max residual ratio {worst_ratio:.3f}")


# -- 9 ----------------------------------------------------------------------


def test_acceptance_09_cumulative_counts(announce):
    # compares the number of quantum levels inside E in (0.2, 2.8] against the
    # semiclassical integral over the same window; a pointwise comparison of
    # the two cumulative curves cannot work at N = 50 because the staircase
    # carries near-degenerate clusters of up to ~15 levels (6% of the
    # dimension) on top of an O(1/N) drift
    N = 50
    dim = quantum.basis_dimension(N)
    worst = 0.0
    for beta0p in (SQRT2, 1.7):
        for lam in (0.5, 2.0):
            params = ModelParams(beta0p, lam)
            spec = quantum.diagonalize(params, N)
            grid = density.mc_density(params, n_samples=2_000_000, seed=23, ref_N=N,
                                      workers=WORKERS)
            cum_semi = np.cumsum(grid.rho) * grid.binwidth
            n_quant = int(np.sum((spec.epsilon > 0.2) & (spec.epsilon <= 2.8)))
            n_semi = float(
                np.interp(2.8, grid.e_edges[1:], cum_semi)
                - np.interp(0.2, grid.e_edges[1:], cum_semi)
            )
            worst = max(worst, abs(n_quant - n_semi) / dim)
    announce(9, "quantum/semiclassical cumulative counts", worst < 0.03,
             f"max deviation {100 * worst:.2f}% of dimension")


# -- 10 ---------------------------------------------------------------------


def test_acceptance_10_surface_correlation(announce):
    # mean-field surface energies carry O(1/N) corrections, so a minimum sits
    # inside a positive ridge if rho-tilde turns positive within 1/N of it
    N = 50
    misses = []
    n_minima = 0
    for lam in (0.71, 1.0, 1.33):
        params = ModelParams(SQRT2, lam)
        grid = density.mc_density(params, n_samples=2_000_000, seed=29, ref_N=N,
                                  workers=WORKERS)
        tilde = quantum.oscillatory_density(params, N, grid)
        for n_gamma in (0, 2, 4):
            for sp in surfaces.surface_stationary_points(params, N, n_gamma):
                if not sp.kind.endswith("min") or sp.energy >= 1.0:
                    continue
                n_minima += 1
                window = np.abs(grid.e_centers - sp.energy) <= 1.0 / N
                value = float(tilde[window].max())
                if value <= 0.0:
                    misses.append((lam, n_gamma, round(sp.energy, 3), round(value, 2)))
    ok = n_minima > 0 and not misses
    announce(10, "excited-surface / oscillatory-density correlation", ok,
             f"{n_minima} minima below E=1, outside positive ridges: {misses}")


# -- 11 ---------------------------------------------------------------------


def test_acceptance_11_boundary_exponent(announce):
    i_a, verdict_a, order_a = stationary.boundary_exponent([2, 2, 2], 0.5)
    i_b, verdict_b, order_b = stationary.boundary_exponent([math.inf] * 3, 1)
    ok = (
        i_a == 2.5
        and order_a == 3
        and verdict_a == "divergent"
        and i_b == 0.0
        and verdict_b == "discontinuous"
    )
    announce(11, "boundary-exponent function", ok,
             f"(K=2, M=1/2) -> I={i_a}, order {order_a}; (K=inf, M=1) -> I={i_b}")
