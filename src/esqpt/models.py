"""Control parameters and phase space of the interpolating s/d boson Hamiltonian.

`ModelParams` holds beta0p and the single control parameter lambda, and maps
lambda to the two couplings of the Hamiltonian: zeta = lambda on [0, 1]
(xi = 0, the first branch) and xi = lambda - 1 for lambda > 1 (zeta = 1,
the second branch), weighed by `couplings`. `LAMBDA_CRITICAL` = 1 separates
the branches, where their derivative `coupling_slopes` is one-sided. The
classical phase space is the 4-ball x^2 + y^2 + px^2 + py^2 <= `R0_SQUARED`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LAMBDA_CRITICAL = 1.0
R0_SQUARED = 2.0


@dataclass(frozen=True)
class ModelParams:
    """Control parameters of the interpolating Hamiltonian."""

    beta0p: float
    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.beta0p) and self.beta0p > 0):
            raise ValueError(f"beta0p must be positive and finite, got {self.beta0p}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be non-negative and finite, got {self.lam}")

    @property
    def zeta(self):
        return min(self.lam, 1.0)

    @property
    def xi(self):
        return max(self.lam - 1.0, 0.0)

    @property
    def couplings(self):
        """(1, zeta^2, zeta, xi), the weights of A, B, C, D in N H (`quantum`) and of
        the parts of the classical H (`_kernels`); zeta^2 is zeta * zeta, correctly rounded."""
        return (1.0, self.zeta * self.zeta, self.zeta, self.xi)

    def coupling_slopes(self, side="left"):
        """d(zeta^2, zeta, xi)/dlambda from the `side` ("left" or "right") of lambda."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        if self.lam < LAMBDA_CRITICAL or (self.lam == LAMBDA_CRITICAL and side == "left"):
            return (2.0 * self.zeta, 1.0, 0.0)
        return (0.0, 0.0, 1.0)
