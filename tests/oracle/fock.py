"""Brute-force Fock-space oracle over the six s/d boson modes.

Independent dense representation used to check the closed-form L = 0 blocks,
condensate energies and excited surfaces at small particle number;
`IntrinsicBosons` gives the coherent-state amplitudes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import N_MODES, BosonExpr


@lru_cache(maxsize=None)
def fock_basis(n_total):
    """All 6-mode occupation tuples with exactly n_total quanta."""
    states = []
    for occ in itertools.product(range(n_total + 1), repeat=N_MODES - 1):
        rest = n_total - sum(occ)
        if rest >= 0:
            states.append((rest,) + occ)
    states.sort()
    return tuple(states)


@lru_cache(maxsize=None)
def _index(n_total):
    return {occ: i for i, occ in enumerate(fock_basis(n_total))}


def matrix(expr: BosonExpr, n_total, n_total_out=None):
    """Dense matrix of expr between the N=n_total and N=n_total_out sectors."""
    if n_total_out is None:
        n_total_out = n_total
    src = fock_basis(n_total)
    idx = _index(n_total_out)
    out = np.zeros((len(idx), len(src)), dtype=complex)
    for j, occ in enumerate(src):
        for occ2, amp in expr.apply({occ: 1.0}).items():
            if sum(occ2) == n_total_out:
                out[idx[occ2], j] += amp
    return out


@dataclass(frozen=True)
class IntrinsicBosons:
    """Amplitude 6-vectors over (s, d_{-2}, d_{-1}, d_0, d_{+1}, d_{+2})."""

    beta: float
    gamma: float

    @property
    def condensate(self):
        b, g = self.beta, self.gamma
        return np.array(
            [
                math.sqrt(max(1.0 - b * b / 2.0, 0.0)),
                b * math.sin(g) / 2.0,
                0.0,
                b * math.cos(g) / math.sqrt(2.0),
                0.0,
                b * math.sin(g) / 2.0,
            ]
        )

    @property
    def beta_mode(self):
        b, g = self.beta, self.gamma
        s = math.sqrt(max(1.0 - b * b / 2.0, 0.0))
        return np.array(
            [
                -b / math.sqrt(2.0),
                s * math.sin(g) / math.sqrt(2.0),
                0.0,
                s * math.cos(g),
                0.0,
                s * math.sin(g) / math.sqrt(2.0),
            ]
        )

    @property
    def gamma_mode(self):
        g = self.gamma
        return np.array(
            [
                0.0,
                math.cos(g) / math.sqrt(2.0),
                0.0,
                -math.sin(g),
                0.0,
                math.cos(g) / math.sqrt(2.0),
            ]
        )


def condensate_vector(amps, n_total):
    """Normalized (sum_k amps[k] b_k^+)^N |0> as a coefficient vector."""
    amps = np.asarray(amps, dtype=complex)
    basis = fock_basis(n_total)
    out = np.zeros(len(basis), dtype=complex)
    for i, occ in enumerate(basis):
        c = math.sqrt(math.factorial(n_total))
        for k, n in enumerate(occ):
            if n:
                c *= amps[k] ** n / math.sqrt(math.factorial(n))
            elif amps[k] == 0 and n:
                c = 0
        out[i] = c
    nrm = np.linalg.norm(out)
    if nrm == 0:
        raise ValueError("zero condensate vector")
    return out / nrm


def expectation(expr: BosonExpr, vec, n_total):
    """<vec| expr |vec> for a number-conserving expr."""
    m = matrix(expr, n_total)
    return complex(np.vdot(vec, m @ vec))


def l_operator_squared():
    """Total angular momentum squared sum_q L_q^+ L_q, L_q = sqrt(10)[d+ d~]^(1)_q."""
    from .algebra import BosonExpr, couple, d_annihilator_tilde, d_creator_tensor

    lq = couple(d_creator_tensor(), d_annihilator_tilde(), 1)
    total = BosonExpr()
    for m in (-1, 0, 1):
        comp = lq[m] * math.sqrt(10.0)
        total = total + comp.adjoint() * comp
    return total


def l0_dimension(n_total):
    """Count of L=0 states at boson number n_total by diagonalizing L^2."""
    m = matrix(l_operator_squared(), n_total)
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return int(np.sum(np.abs(evals) < 1e-8))
