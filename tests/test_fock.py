"""Brute-force Fock-space oracle machinery."""

import math

import numpy as np
import pytest

from oracle import fock
from oracle.algebra import BosonExpr, parse_expr
from oracle.hamiltonian import nd_op


def test_basis_size_is_stars_and_bars():
    for n in range(0, 7):
        assert len(fock.fock_basis(n)) == math.comb(n + 5, 5)


def test_nd_matrix_is_diagonal_with_occupations():
    n = 3
    basis = fock.fock_basis(n)
    m = fock.matrix(nd_op(), n)
    diag = np.array([sum(occ[1:]) for occ in basis], dtype=float)
    assert np.allclose(m, np.diag(diag), atol=1e-12)


def test_matrix_rectangular_pair_creation():
    # s+ s+ maps the N-boson space into the (N+2)-boson space
    expr = parse_expr("s+ s+")
    m = fock.matrix(expr, 2, 4)
    vac2 = np.zeros(len(fock.fock_basis(2)))
    vac2[fock.fock_basis(2).index((2, 0, 0, 0, 0, 0))] = 1.0
    out = m @ vac2
    idx = fock.fock_basis(4).index((4, 0, 0, 0, 0, 0))
    assert out[idx] == pytest.approx(math.sqrt(12), abs=1e-12)


def test_condensate_vector_normalized():
    amps = np.array([0.6, 0.0, 0.0, 0.8, 0.0, 0.0])
    v = fock.condensate_vector(amps, 5)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_condensate_expectation_binomial():
    # <n_d> in a condensate with d0 weight w is N w
    amps = np.array([math.sqrt(0.7), 0.0, 0.0, math.sqrt(0.3), 0.0, 0.0])
    n = 6
    v = fock.condensate_vector(amps, n)
    assert fock.expectation(nd_op(), v, n) == pytest.approx(n * 0.3, abs=1e-10)


def test_l0_dimension_small():
    assert [fock.l0_dimension(n) for n in range(0, 7)] == [1, 1, 2, 3, 4, 5, 7]
