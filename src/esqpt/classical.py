"""Classical limit of the model Hamiltonians on the compact phase space.

Energies are per-boson mean-field values evaluated in Cartesian variables
(x, y, px, py), which stay regular at beta = 0; the phase space is the
4-ball x^2 + y^2 + px^2 + py^2 <= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .models import ModelParams

R0_SQUARED = 2.0


@dataclass(frozen=True)
class PhasePoint:
    x: float
    y: float
    px: float
    py: float

    @property
    def r_squared(self):
        return self.x**2 + self.y**2 + self.px**2 + self.py**2

    @property
    def beta(self):
        return math.hypot(self.x, self.y)

    @property
    def gamma(self):
        return math.atan2(self.y, self.x)

    @property
    def p_beta(self):
        """Radial momentum (x px + y py)/beta; undefined at beta = 0."""
        b = self.beta
        if b == 0:
            raise ZeroDivisionError("p_beta undefined at beta = 0")
        return (self.x * self.px + self.y * self.py) / b

    @property
    def p_gamma(self):
        """Angular momentum conjugate to gamma: x py - y px."""
        return self.x * self.py - self.y * self.px

    @staticmethod
    def from_polar(beta, gamma, p_beta=0.0, p_gamma=0.0):
        if beta == 0 and (p_beta != 0 or p_gamma != 0):
            raise ValueError("polar momenta undefined at beta = 0")
        c, s = math.cos(gamma), math.sin(gamma)
        x, y = beta * c, beta * s
        if beta == 0:
            return PhasePoint(0.0, 0.0, 0.0, 0.0)
        px = p_beta * c - p_gamma * s / beta
        py = p_beta * s + p_gamma * c / beta
        return PhasePoint(x, y, px, py)

    def as_array(self):
        return np.array([self.x, self.y, self.px, self.py])


def _coords(pt):
    if isinstance(pt, PhasePoint):
        return pt.as_array()
    return np.asarray(pt, dtype=float)


def _check_inside(v, tol=1e-12):
    r2 = v[0] ** 2 + v[1] ** 2 + v[2] ** 2 + v[3] ** 2
    if r2 > R0_SQUARED + tol:
        raise ValueError(f"point outside the phase space: R^2 = {r2:.6f} > 2")


def eval_H(params: ModelParams, pt) -> float:
    """Classical energy at a phase-space point."""
    v = _coords(pt)
    _check_inside(v)
    return float(_kernels.h_eval(v[0], v[1], v[2], v[3], params.beta0p, params.zeta, params.xi))


def grad_H(params: ModelParams, pt):
    v = _coords(pt)
    _check_inside(v, tol=-1e-12)
    return _kernels.h_grad(v[0], v[1], v[2], v[3], params.beta0p, params.zeta, params.xi)


def hess_H(params: ModelParams, pt):
    v = _coords(pt)
    _check_inside(v, tol=-1e-12)
    return _kernels.h_hess(v[0], v[1], v[2], v[3], params.beta0p, params.zeta, params.xi)


def decompose(params: ModelParams, pt):
    """(kinetic, potential) with potential = H(q, 0); the sum is eval_H."""
    v = _coords(pt)
    _check_inside(v)
    total = eval_H(params, v)
    pot = float(_kernels.h_eval(v[0], v[1], 0.0, 0.0, params.beta0p, params.zeta, params.xi))
    return total - pot, pot


def potential(params: ModelParams, x, y):
    """Potential surface V(x, y) = H(x, y, 0, 0), vectorized."""
    return _kernels.potential(
        np.asarray(x, float), np.asarray(y, float), params.beta0p, params.zeta, params.xi
    )
