"""L=0 basis, Hamiltonian assembly, spectra, slopes, oscillatory density."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from esqpt import _kernels, density, quantum
from esqpt.models import ModelParams

from conftest import ROOT, SQRT2, interior_points
from oracle import fock
from oracle.hamiltonian import h_scaled
from oracle.su3 import SU3_LINE, su3_levels


def fock_l0_spectrum(params, N):
    """Oracle: eigenvalues of H restricted to the L=0 subspace of Fock space."""
    hf = fock.matrix(h_scaled(params), N).real / N
    l2 = fock.matrix(fock.l_operator_squared(), N).real
    evals, evecs = np.linalg.eigh(l2)
    q = evecs[:, np.abs(evals) < 1e-8]
    return np.linalg.eigvalsh(q.T @ hf @ q)


# -- basis ------------------------------------------------------------------


def test_basis_dimension_small_values():
    assert [quantum.basis_dimension(n) for n in (0, 1, 2, 3, 6)] == [1, 1, 2, 3, 7]


def test_basis_dimension_matches_mscheme_oracle():
    for n in range(0, 7):
        assert quantum.basis_dimension(n) == fock.l0_dimension(n)


@pytest.mark.parametrize("N", [0, 1, 2, 3, 12, 40])
def test_basis_states_sorted_unique(N):
    nd, tau = quantum.chain_blocks(N)
    states = list(zip(nd.tolist(), tau.tolist()))
    assert len(states) == quantum.basis_dimension(N)
    # every (n_d, tau) with tau = 0 (mod 3) in {n_d, n_d - 2, ..., 0 or 1} once,
    # by n_d, then by ascending tau
    assert states == [(n, t) for n in range(N + 1) for t in range(n + 1)
                      if t % 3 == 0 and (n - t) % 2 == 0]
    sizes = np.bincount(nd, minlength=N + 1).tolist()
    assert [quantum.sector_size(n) for n in range(N + 1)] == sizes
    if N == 0:
        return  # no Hamiltonian below one boson
    # the nonzero off-diagonal elements of D and C are every pair, in both
    # triangles, that the selection rule of P+ (n, tau) -> (n + 2, tau) and of
    # W (n, tau) -> (n + 1, tau +- 3) allows, each listed once
    _, (_, _, c, d) = quantum._operators(N, 1.7)
    rules = {
        "D": (d, lambda n, t, n2, t2: n2 == n + 2 and t2 == t),
        "C": (c, lambda n, t, n2, t2: n2 == n + 1 and abs(t2 - t) == 3),
    }
    for name, ((rows, cols, vals), allowed) in rules.items():
        got = sorted((int(r), int(c)) for r, c, v in zip(rows, cols, vals) if r != c and v != 0.0)
        want = [(i, j) for i, s2 in enumerate(states) for j, s in enumerate(states)
                if allowed(*s, *s2) or allowed(*s2, *s)]
        assert got == want, name


# -- Hamiltonian vs Fock oracle ---------------------------------------------


@pytest.mark.parametrize("beta0p, lam", [(SQRT2, 0.4), (SQRT2, 2.2), (1.7, 0.9), (1.3, 1.5)])
def test_hamiltonian_matches_fock_oracle(beta0p, lam):
    params = ModelParams(beta0p, lam)
    for N in (2, 4, 5):
        got = np.linalg.eigvalsh(quantum.build_hamiltonian(params, N))
        want = fock_l0_spectrum(params, N)
        assert np.abs(np.sort(got) - np.sort(want)).max() < 1e-10


def test_hamiltonian_symmetric_and_trace():
    params = ModelParams(1.7, 2.5)
    h = quantum.build_hamiltonian(params, 30)
    assert np.array_equal(h, h.T)
    evals = np.linalg.eigvalsh(h)
    assert evals.sum() == pytest.approx(np.trace(h), rel=1e-9)


def test_n_cap():
    with pytest.raises(ValueError):
        quantum.build_hamiltonian(ModelParams(1.0, 0.5), 300)


def test_cap_n200_symmetric_and_u5_spectrum():
    N, b0 = quantum.N_CAP_DEFAULT, 1.3
    h = quantum.build_hamiltonian(ModelParams(1.7, 2.5), N)
    assert h.shape == (3434, 3434)
    assert np.array_equal(h, h.T)
    del h
    got = np.linalg.eigvalsh(quantum.build_hamiltonian(ModelParams(b0, 0.0), N))
    want = [
        (2.0 / N) * n * (n - 1) + (2.0 * b0**2 / N) * (N - n) * n
        for n in range(N + 1)
        for _ in range(quantum.sector_size(n))
    ]
    assert np.abs(got - np.sort(want)).max() < 1e-9
    with pytest.raises(ValueError):
        quantum.build_hamiltonian(ModelParams(b0, 0.5), N + 1)


# Energies, slopes and <n_d> at N = 20 and 50 recorded from the earlier numeric
# construction (m-scheme vectors orthonormalized sector by sector).
FIXTURE = Path(__file__).parent / "data" / "spectra_fixture.npz"


@pytest.mark.parametrize("N", [20, 50])
def test_spectra_match_recorded_fixture(N):
    data = np.load(FIXTURE)
    for i, (b0, lam) in enumerate(data["points"]):
        spec = quantum.diagonalize(ModelParams(float(b0), float(lam)), N)
        energies = data[f"energies_{N}"][i]
        assert np.abs(spec.energies - energies).max() < 1e-10
        # slopes and <n_d> of a degenerate level depend on the basis chosen
        gaps = np.diff(energies) > 1e-6
        single = np.r_[True, gaps] & np.r_[gaps, True]
        assert single.any()
        assert np.abs(spec.slopes - data[f"slopes_{N}"][i])[single].max() < 1e-9
        assert np.abs(spec.nd_expectation - data[f"nd_{N}"][i])[single].max() < 1e-9


# -- known spectra ----------------------------------------------------------


def test_u5_diagonal_formula():
    for N in (2, 3, 10):
        b0 = 1.3
        spec = quantum.diagonalize(ModelParams(b0, 0.0), N)
        nd = np.arange(N + 1)
        allowed = [n for n in nd if quantum.sector_size(n) > 0]
        want = []
        for n in allowed:
            e = (2.0 / N) * n * (n - 1) + (2.0 * b0**2 / N) * (N - n) * n
            want.extend([e] * quantum.sector_size(n))
        assert np.abs(np.sort(spec.energies) - np.sort(want)).max() < 1e-10


def test_u5_small_spectra():
    assert np.allclose(
        quantum.diagonalize(ModelParams(SQRT2, 0.0), 3).energies, [0, 4, 4], atol=1e-10
    )
    assert np.allclose(
        quantum.diagonalize(ModelParams(SQRT2, 0.0), 2).energies, [0, 2], atol=1e-10
    )


@pytest.mark.parametrize("N", [1, 2, 3, 7, 10, 20, 21, 50, 100, 200])
def test_su3_line_spectrum_is_the_casimir_formula(N):
    # N E = C2(2N, 0) - C2(2N - 4k - 6m, 2k) over 2k + 3m <= N; at N = 1 one level, 0
    want = su3_levels(N)
    got = N * quantum.diagonalize(ModelParams(*SU3_LINE), N).energies
    assert len(got) == len(want)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_zero_modes():
    for lam in (0.0, 0.35, 0.8, 1.0):
        e0 = quantum.diagonalize(ModelParams(1.7, lam), 30).energies[0]
        assert abs(e0) < 1e-10
    # condensate zero mode of the second branch at beta0p = sqrt(2), lambda = 2
    e0 = quantum.diagonalize(ModelParams(SQRT2, 2.0), 30).energies[0]
    assert abs(e0) < 1e-8


def test_ground_state_not_negative():
    for lam in (0.5, 1.0, 1.8, 3.0):
        for b0 in (0.9, SQRT2, 1.7):
            e0 = quantum.diagonalize(ModelParams(b0, lam), 25).energies[0]
            assert e0 > -1e-8


def test_spectrum_continuous_at_critical_lambda():
    b0 = 1.7
    e_left = quantum.diagonalize(ModelParams(b0, 1.0), 25).energies
    e_right = quantum.diagonalize(ModelParams(b0, 1.0 + 1e-12), 25).energies
    assert np.abs(e_left - e_right).max() < 1e-9


@pytest.mark.parametrize("N", [20, 21, 50, 51])
@pytest.mark.parametrize("b0", [0.5, 1.0, 1.7, 2.5])
def test_critical_lambda_has_exactly_two_zero_levels(N, b0):
    # the quantum image of lambda_c = 1, where the classical gamma = 0 minima
    # at r = 0 and r = b both lie at E = 0: two levels at zero, for even and
    # odd N, and a gap of order 1 above them
    e = quantum.diagonalize(ModelParams(b0, 1.0), N).energies
    assert np.sum(np.abs(e) < 1e-9) == 2
    assert np.abs(e[:2]).max() < 1e-9
    assert e[2] > 0.25


# -- slopes and expectations -------------------------------------------------


def test_hf_slopes_match_finite_differences():
    for lam in (0.6, 1.9):
        params = ModelParams(1.5, lam)
        d = 1e-6
        e1 = quantum.diagonalize(ModelParams(1.5, lam - d), 15).energies
        e2 = quantum.diagonalize(ModelParams(1.5, lam + d), 15).energies
        fd = (e2 - e1) / (2 * d)
        hf = quantum.diagonalize(params, 15).slopes
        assert np.abs(fd - hf).max() < 1e-5


@pytest.mark.parametrize("side, sign", [("left", -1.0), ("right", 1.0)])
def test_degenerate_slopes_are_one_sided_derivatives(side, sign):
    # two exactly degenerate E = 0 levels at the critical point
    params, N, d = ModelParams(1.7, 1.0), 6, 1e-7
    spec = quantum.diagonalize(params, N, side=side)
    cluster = np.abs(spec.energies) < 1e-9
    assert cluster.sum() == 2
    moved = quantum.diagonalize(ModelParams(1.7, 1.0 + sign * d), N).energies
    fd = sign * (moved - spec.energies) / d
    assert np.abs(np.sort(fd[cluster]) - np.sort(spec.slopes[cluster])).max() < 1e-5


def test_slopes_differ_across_critical_point():
    left = quantum.diagonalize(ModelParams(1.7, 1.0), 25, side="left").slopes
    right = quantum.diagonalize(ModelParams(1.7, 1.0), 25, side="right").slopes
    assert np.abs(left - right).max() > 1e-3


def test_coupling_slopes_are_one_sided_derivatives():
    # zeta^2 is zeta * zeta, correctly rounded, where pow is not
    assert ModelParams(1.7, 6e-05).couplings[1] == 6e-05 * 6e-05

    def couplings(lam):
        return np.array(ModelParams(1.7, lam).couplings[1:])

    # the classical kernels weighed by (0, *slopes) are dH/dlambda and its
    # gradient: the one-sided difference is off by d H_zz <= d on the first
    # branch (|grad H_zz| <= 4 d) and by rounding alone on the second
    pts = interior_points(np.random.default_rng(31), 200).T

    def h_and_grad(lam, coeffs):
        return (_kernels.h_eval(*pts, 1.7, coeffs), _kernels.h_grad(*pts, 1.7, coeffs))

    d = 1e-7
    for lam in (0.0, 0.4, 1.0, 2.3):
        for side, sign in (("left", -1.0), ("right", 1.0)):
            if lam + sign * d >= 0.0:
                fd = sign * (couplings(lam + sign * d) - couplings(lam)) / d
                got = ModelParams(1.7, lam).coupling_slopes(side)
                assert np.abs(np.array(got) - fd).max() < 1e-6
                moved, here = (h_and_grad(v, ModelParams(1.7, v).couplings)
                               for v in (lam + sign * d, lam))
                dh = h_and_grad(lam, (0.0, *got))
                for a, b, c in zip(moved, here, dh):
                    assert np.abs(sign * (a - b) / d - c).max() < 1e-6


def test_an_unknown_side_is_an_error():
    with pytest.raises(ValueError, match="side must be 'left' or 'right', got 'Left'"):
        ModelParams(1.7, 1.0).coupling_slopes("Left")
    with pytest.raises(ValueError, match="got 'Left'"):
        quantum.diagonalize(ModelParams(1.7, 1.0), 5, side="Left")


# the spectra of a fresh process, as the bytes of each result array
FRESH_SPECTRA = """
import sys
from esqpt import quantum
from esqpt.models import ModelParams
for N, beta0p, lam in [(10, 1.3, 0.6), (20, 1.7, 1.0), (10, 1.3, 2.2)]:
    spec = quantum.diagonalize(ModelParams(beta0p, lam), N)
    for a in (spec.energies, spec.slopes, spec.nd_expectation):
        sys.stdout.write(a.tobytes().hex() + "\\n")
"""


def test_memoized_operators_give_the_spectra_of_a_fresh_process():
    # interleaved (N, beta0p) keys hit and miss the memo; each result is the
    # one a process with an empty memo computes
    quantum._operators.cache_clear()
    got = []
    for N, beta0p, lam in [(10, 1.3, 0.6), (20, 1.7, 1.0), (10, 1.3, 2.2)]:
        spec = quantum.diagonalize(ModelParams(beta0p, lam), N)
        got += [a.tobytes().hex() for a in (spec.energies, spec.slopes, spec.nd_expectation)]
    info = quantum._operators.cache_info()
    assert (info.hits, info.misses) == (4, 2)  # two calls per diagonalize
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", FRESH_SPECTRA], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == got


def test_memoized_operators_are_read_only():
    nd, operators = quantum._operators(6, 1.7)
    for array in (nd, *(a for op in operators for a in op)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_nd_expectation_bounds_and_u5_integers():
    N = 20
    spec = quantum.diagonalize(ModelParams(1.2, 0.7), N)
    assert np.all(spec.nd_expectation > -1e-10)
    assert np.all(spec.nd_expectation < N + 1e-10)
    u5 = quantum.diagonalize(ModelParams(1.2, 0.0), N)
    assert np.abs(u5.nd_expectation - np.round(u5.nd_expectation)).max() < 1e-10


def test_epsilon_scaling():
    spec = quantum.diagonalize(ModelParams(1.7, 0.5), 20)
    assert np.allclose(spec.epsilon, spec.energies / 40.0)
    assert np.allclose(spec.excitation, spec.energies - spec.energies[0])


def diagonalize_by_level_loop(params, N, side):
    """Oracle: `diagonalize` with the cluster search of its earlier form, a walk
    over every level that rotates the eigenvectors of each run of two or more."""
    evals, evecs = np.linalg.eigh(quantum.build_hamiltonian(params, N))
    nd, operators = quantum._operators(N, params.beta0p)
    dh_v = quantum._assemble((0.0, *params.coupling_slopes(side)), operators) / N @ evecs
    slopes = np.einsum("ij,ij->j", evecs, dh_v)
    tol = quantum.DEGENERACY_TOL * np.maximum(1.0, np.abs(evals))
    edges = np.flatnonzero(np.diff(evals) > tol[1:]) + 1
    sizes = []
    for lo, hi in zip(np.r_[0, edges], np.r_[edges, len(evals)]):
        sizes.append(hi - lo)
        if hi - lo > 1:
            v = evecs[:, lo:hi]
            slopes[lo:hi], u = np.linalg.eigh(v.T @ dh_v[:, lo:hi])
            evecs[:, lo:hi] = v @ u
    return evals, slopes, np.einsum("ij,i,ij->j", evecs, nd, evecs), max(sizes)


@pytest.mark.parametrize("lam, side, largest", [
    # U(5): a cluster per n_d of sector_size(n_d) <= 9 levels, and at beta0p = sqrt(2)
    # n_d = 49 and 50 share N E = 198 n_d - 2 n_d^2: one cluster of 8 + 9
    (0.0, "left", 17),
    (0.5, "left", 1), (1.0, "left", 2), (1.0, "right", 2), (1.5, "right", 1),
])
def test_diagonalize_rotates_the_degenerate_clusters_as_a_loop_over_levels_does(lam, side,
                                                                                largest):
    params = ModelParams(SQRT2, lam)
    spec = quantum.diagonalize(params, 50, side=side)
    *want, biggest = diagonalize_by_level_loop(params, 50, side)
    assert biggest == largest
    for got, expected in zip((spec.energies, spec.slopes, spec.nd_expectation), want):
        assert np.array_equal(got, expected)


# -- Gaussian level sums -----------------------------------------------------


def gaussian_sum_by_level_loop(energies, centers, width, weights=None):
    """Oracle: the Gaussian level sum of its earlier form, one level at a time."""
    if weights is None:
        weights = np.ones_like(energies)
    widths = np.broadcast_to(width, np.shape(energies))
    out = np.zeros_like(centers, dtype=float)
    with np.errstate(over="ignore"):
        for e, s, w in zip(energies, widths, weights):
            norm = 1.0 / (s * math.sqrt(2 * math.pi))
            out += w * norm * np.exp(-0.5 * ((centers - e) / s) ** 2)
    return out


def same_bits(a, b):
    """Equal values and equal signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_gaussian_sum_equals_the_loop_over_levels_bit_for_bit(lam, monkeypatch):
    params = ModelParams(SQRT2, lam)
    spec = quantum.diagonalize(params, 50)
    eps, slopes = spec.epsilon, spec.epsilon_slopes
    assert slopes.min() < 0 < slopes.max()
    edges = np.linspace(*density.DEFAULT_E_RANGE, density.DEFAULT_BINS + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    gauss = quantum.gaussian_spectral_density
    for cs in (centers, centers[150:151]):  # one center: a plain sum would pair the terms
        for width, weights in [(0.05, None), (0.05, slopes), (1e-300, None), (1e-300, slopes)]:
            assert same_bits(gauss(eps, cs, width, weights),
                             gaussian_sum_by_level_loop(eps, cs, width, weights))
        # a (2, levels) stack gives the two one-row sums
        stack = gauss(eps, cs, 0.05, np.stack([np.ones_like(slopes), slopes]))
        assert stack.shape == (2, len(cs))
        assert same_bits(stack[0], gauss(eps, cs, 0.05))
        assert same_bits(stack[1], gauss(eps, cs, 0.05, slopes))
    # far above the spectrum every term underflows to a zero signed as its weight;
    # the sum starts from +0.0, as the loop's does
    far = np.array([1.0, 50.0])
    negative_first = np.where(np.arange(len(eps)) == 0, -1.0, slopes)
    for weights in (-np.ones_like(eps), negative_first):
        got = gauss(eps, far, 0.05, weights)
        assert same_bits(got, gaussian_sum_by_level_loop(eps, far, 0.05, weights))
        assert got[1] == 0.0 and not np.signbit(got[1])

    # oscillatory_density's per-level widths
    calls = []

    def recording(*args):
        calls.append(args)
        return gauss(*args)

    monkeypatch.setattr(quantum, "gaussian_spectral_density", recording)
    grid = density.mc_density(params, n_samples=20_000, seed=5)
    tilde = quantum.oscillatory_density(params, 50, grid)
    (args,) = calls
    assert np.ptp(args[2]) > 0  # one width per level
    assert same_bits(tilde, gaussian_sum_by_level_loop(*args) - grid.rho)


# -- oscillatory density -----------------------------------------------------


def test_oscillatory_density_integrates_to_zero():
    params = ModelParams(SQRT2, 0.5)
    grid = density.mc_density(params, n_samples=400_000, seed=3, ref_N=30)
    tilde = quantum.oscillatory_density(params, 30, grid)
    total = np.sum(tilde) * grid.binwidth
    assert abs(total) < 0.05 * quantum.basis_dimension(30)
