"""Operator algebra: Clebsch-Gordan coefficients, normal ordering, tensors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import algebra
from oracle.algebra import (
    BosonExpr,
    cg,
    couple,
    d_annihilator_tilde,
    d_creator_tensor,
    d_mode,
    parse_expr,
    scalar_product,
)
from oracle.hamiltonian import nd_op, pair_d_creator

from conftest import interior_points


# -- Clebsch-Gordan ---------------------------------------------------------

# hand-checkable table values
CG_TABLE = [
    ((1, 1, 1, -1, 0, 0), 1 / math.sqrt(3)),
    ((1, 0, 1, 0, 0, 0), -1 / math.sqrt(3)),
    ((1, 0, 1, 0, 2, 0), math.sqrt(2 / 3)),
    ((1, 0, 1, 0, 1, 0), 0.0),
    ((1, 1, 1, 0, 2, 1), 1 / math.sqrt(2)),
    ((1, 1, 1, 0, 1, 1), 1 / math.sqrt(2)),
    ((2, 2, 2, -2, 0, 0), 1 / math.sqrt(5)),
    ((2, 1, 2, -1, 0, 0), -1 / math.sqrt(5)),
    ((2, 0, 2, 0, 0, 0), 1 / math.sqrt(5)),
    ((2, 2, 2, -2, 4, 0), 1 / math.sqrt(70)),
]


@pytest.mark.parametrize("args, expected", CG_TABLE)
def test_cg_table(args, expected):
    assert cg(*args) == pytest.approx(expected, abs=1e-14)


@settings(deadline=None, max_examples=40)
@given(
    j1=st.integers(0, 3),
    j2=st.integers(0, 3),
    data=st.data(),
)
def test_cg_orthogonality(j1, j2, data):
    J = data.draw(st.integers(abs(j1 - j2), j1 + j2))
    Jp = data.draw(st.integers(abs(j1 - j2), j1 + j2))
    M = data.draw(st.integers(-min(J, Jp), min(J, Jp)))
    total = sum(
        cg(j1, m1, j2, M - m1, J, M) * cg(j1, m1, j2, M - m1, Jp, M)
        for m1 in range(-j1, j1 + 1)
    )
    assert total == pytest.approx(1.0 if J == Jp else 0.0, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(j1=st.integers(0, 3), j2=st.integers(0, 3), data=st.data())
def test_cg_exchange_symmetry(j1, j2, data):
    J = data.draw(st.integers(abs(j1 - j2), j1 + j2))
    m1 = data.draw(st.integers(-j1, j1))
    m2 = data.draw(st.integers(-j2, j2))
    lhs = cg(j1, m1, j2, m2, J, m1 + m2)
    rhs = (-1) ** (j1 + j2 - J) * cg(j2, m2, j1, m1, J, m1 + m2)
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_d_mode_range():
    assert [d_mode(mu) for mu in range(-2, 3)] == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        d_mode(3)


# -- BosonExpr --------------------------------------------------------------


def test_commutator_normal_ordering():
    # a a+ = a+ a + 1
    expr = BosonExpr.from_word(1.0, [("a", 3), ("c", 3)])
    assert expr.terms == {((3,), (3,)): 1 + 0j, ((), ()): 1 + 0j}
    # cross-mode operators commute
    expr = BosonExpr.from_word(1.0, [("a", 1), ("c", 2)])
    assert expr.terms == {((2,), (1,)): 1 + 0j}


def test_product_matches_apply():
    a = parse_expr("s+ d0")
    b = parse_expr("d0+ s")
    state = {(2, 0, 0, 1, 0, 0): 1.0}
    via_product = (a * b).apply(state)
    via_sequence = a.apply(b.apply(state))
    assert set(via_product) == set(via_sequence)
    for k in via_product:
        assert via_product[k] == pytest.approx(via_sequence[k], abs=1e-12)


def test_adjoint_involution_and_hermiticity():
    expr = parse_expr("2.0 * s+ s+ d0 d0") + parse_expr("0.5 * d+2+ d-1")
    assert (expr.adjoint().adjoint() - expr).terms == {}
    n_d = nd_op()
    assert n_d.is_hermitian()
    assert not expr.is_hermitian()
    herm = expr + expr.adjoint()
    assert herm.is_hermitian()


def test_number_conservation_and_body_count():
    assert nd_op().conserves_number()
    assert not pair_d_creator().conserves_number()
    assert nd_op().max_body() == 1
    assert (nd_op() * nd_op()).max_body() == 2


def test_parse_expr_round_trip():
    built = (
        BosonExpr.create(0) * BosonExpr.create(0) * BosonExpr.annihilate(3) * BosonExpr.annihilate(3) * 2.0
        - BosonExpr.create(d_mode(-2)) * BosonExpr.annihilate(d_mode(2))
    )
    parsed = parse_expr("2.0 * s+ s+ d0 d0 - d-2+ d+2")
    assert (parsed - built).terms == {}


def test_scalar_product_d_number():
    # (d+ . d~) is the d-boson number operator
    n_from_tensor = scalar_product(d_creator_tensor(), d_annihilator_tilde())
    assert (n_from_tensor - nd_op()).terms == {}


def test_pair_operator_is_scalar_coupled():
    # P+ = d+.d+ = sqrt(5) [d+ d+]^(0)_0
    dc = d_creator_tensor()
    coupled = couple(dc, dc, 0)[0] * math.sqrt(5.0)
    diff = coupled - pair_d_creator()
    assert all(abs(v) < 1e-12 for v in diff.terms.values())


def test_classical_limit_of_nd(rng):
    f = nd_op().classical()
    pts = interior_points(rng, 50)
    for x, y, px, py in pts:
        u = 0.5 * (x * x + y * y + px * px + py * py)
        assert complex(f(x, y, px, py)) == pytest.approx(u, abs=1e-12)


def test_classical_limit_rejections():
    with pytest.raises(ValueError):
        pair_d_creator().classical()
    three_body = nd_op() * nd_op() * nd_op()
    with pytest.raises(ValueError):
        three_body.classical()


def test_tensor_component_count():
    with pytest.raises(ValueError):
        algebra.TensorOp(2, [BosonExpr()] * 4)
    with pytest.raises(ValueError):
        couple(d_creator_tensor(), d_creator_tensor(), 5)
