"""The model Hamiltonian N H(lambda, beta0p) as a boson operator expression.

H is built from the pair operators

    D+_mu = sqrt(2) beta0p [s+ d+]^(2)_mu + sqrt(7) zeta [d+ d+]^(2)_mu
    S+    = d+.d+ - beta0p^2 s+ s+

with zeta and xi taken from `ModelParams`. The expressions represent N * H,
so the quantum Hamiltonian is the returned expression divided by N.
"""

from __future__ import annotations

import math
from functools import lru_cache

from esqpt.models import LAMBDA_CRITICAL, ModelParams

from .algebra import (
    BosonExpr,
    TensorOp,
    couple,
    d_creator_tensor,
    d_mode,
    scalar_product,
)


@lru_cache(maxsize=None)
def nd_op():
    """d-boson number operator."""
    out = BosonExpr()
    for mu in range(-2, 3):
        m = d_mode(mu)
        out = out + BosonExpr.create(m) * BosonExpr.annihilate(m)
    return out


@lru_cache(maxsize=None)
def pair_d_creator():
    """P+ = d+.d+ = sum_mu (-1)^mu d+_mu d+_{-mu}."""
    out = BosonExpr()
    for mu in range(-2, 3):
        out = out + BosonExpr.create(d_mode(mu)) * BosonExpr.create(d_mode(-mu)) * float(
            (-1) ** mu
        )
    return out


@lru_cache(maxsize=None)
def s_pair_creator(beta0p):
    """S+ = d+.d+ - beta0p^2 s+ s+."""
    return pair_d_creator() - (beta0p**2) * BosonExpr.create(0) * BosonExpr.create(0)


@lru_cache(maxsize=None)
def d_pair_tensor(beta0p, zeta):
    """Rank-2 tensor D+ with components D+_mu."""
    dc = d_creator_tensor()
    gg = couple(dc, dc, 2)
    comps = []
    for mu in range(-2, 3):
        comps.append(
            BosonExpr.create(d_mode(mu)) * BosonExpr.create(0) * math.sqrt(2.0) * beta0p
            + gg[mu] * (math.sqrt(7.0) * zeta)
        )
    return TensorOp(2, comps)


@lru_cache(maxsize=None)
def h1_scaled(beta0p, zeta):
    """N * H of the first branch (xi = 0) = 2(1 - zeta^2) n_d (n_d - 1) + D+.D~."""
    nd = nd_op()
    dd = d_pair_tensor(beta0p, zeta)
    quad = scalar_product(dd, dd.tilde())
    return (2.0 * (1.0 - zeta**2)) * (nd * nd - nd) + quad


@lru_cache(maxsize=None)
def s_pair_squared(beta0p):
    """S+ S (the xi-coupled term of the second branch)."""
    sp = s_pair_creator(beta0p)
    return sp * sp.adjoint()


def h_scaled(params: ModelParams) -> BosonExpr:
    """N * H(lambda, beta0p) on the appropriate branch."""
    if params.lam <= LAMBDA_CRITICAL:
        return h1_scaled(params.beta0p, params.zeta)
    return h1_scaled(params.beta0p, 1.0) + params.xi * s_pair_squared(params.beta0p)


def classical_h(params: ModelParams):
    """Classical limit of H (energy in the scale of half the per-boson energy)."""
    f = h_scaled(params).classical()

    def h(x, y, px, py):
        return f(x, y, px, py).real

    return h
