"""The committed generated module matches its sympy generator, the generator's
axial quartic is the parts of H on the gamma = 0 axis, and the emitted kernel
`_derivs.h_parts` matches the generator's definition of the parts, and every
generated formula stays finite on the whole parameter domain."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from esqpt import _derivs
from esqpt.models import SCALE_MAX, ModelParams

from conftest import DOMAIN_CORNERS, ROOT, SQRT2, interior_points


def test_derivs_module_is_regenerated_byte_identically(gen):
    assert gen.derivs_source() == (ROOT / "src" / "esqpt" / "_derivs.py").read_text()


@pytest.mark.parametrize("beta0p, lam", DOMAIN_CORNERS)
def test_generated_formulas_stay_finite_at_the_edge_of_the_parameter_domain(beta0p, lam):
    # kinetic_cubic, of degree 12 in beta0p and 4 in xi, reaches ~S^4 here: a
    # generator change that raises a degree overflows here first
    params = ModelParams(beta0p, lam)
    assert 0.01 * SCALE_MAX < params.energy_scale <= SCALE_MAX
    b0, (_, _, ze, xi) = params.beta0p, params.couplings
    x, y, px, py = interior_points(np.random.default_rng(38), 1000).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [*_derivs.h_parts(x, y, px, py, b0, True)]
        for fn in (_derivs.grad_parts, _derivs.hess_parts):
            values += [v for part in fn(x, y, px, py, b0, True) for v in part]
        values += [*_derivs.kinetic_cubic(b0, ze, xi), *_derivs.trivial_cubic(b0, ze, xi),
                   *_derivs.ps_cubic(np.linspace(-1, 1, 101) * (SQRT2 - 1e-9), b0, ze, xi),
                   *_derivs.axial_quartic(b0, ze, xi)]
    assert all(np.isfinite(v).all() for v in values)


@pytest.mark.parametrize("beta0p, lam", [
    (1.7, 1e308), (1e200, 0.5), (1e300, 1e300), (1.0, 1.001e60), (1.001e10, 1e20),
    # 1e15^4 rounds to one ulp above 1e60
    (1e15, 0.5),
])
def test_parameters_past_the_energy_scale_bound_are_refused(beta0p, lam):
    message = (f"beta0p = {beta0p:.12g} and lambda = {lam:.12g} give an energy scale "
               f"(1 + xi) max(1, beta0p)^4 above 1e+60")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelParams(beta0p, lam)


def ball_and_boundary_points(n_ball=100_000):
    """(4, n) points: uniform in the ball R^2 <= 2; the 24 points
    (+-1, +-1, 0, 0), where R^2 = 2 exactly, also in floating point; and the
    same 24 points with +-nextafter(1, 2), just outside the ball, where the
    rounding of a sample's radius can put it.

    Elsewhere on the boundary R^2 = 2 holds only to rounding, and there the
    sqrt(1 - u) of H_z turns a 1e-16 difference in the rounding of 1 - u into
    a 1e-8 difference between any two ways of writing it.
    """
    ball = interior_points(np.random.default_rng(16), n_ball, r_max=SQRT2)
    lattice = np.zeros((24, 4))
    pairs = itertools.product(itertools.combinations(range(4), 2), itertools.product((-1, 1), repeat=2))
    for row, (where, signs) in zip(lattice, pairs):
        row[list(where)] = signs
    return np.vstack([ball, lattice, np.nextafter(lattice, 2 * lattice)]).T


@pytest.mark.parametrize("b0", [0.7, SQRT2, 1.7, 4.0])
def test_hand_parts_equal_the_generator_parts(gen, b0):
    # the generator's parts keep the abs that guards sqrt(|1 - u|/2) outside
    # the ball; without it H_z is NaN at the just-outside points
    import sympy as sp

    pts = ball_and_boundary_points()
    x, y, px, py = pts
    r2 = x * x + y * y + px * px + py * py
    assert np.count_nonzero(r2 == 2.0) == np.count_nonzero(r2 > 2.0) == 24
    emitted = _derivs.h_parts(*pts, b0, True)
    for part, got in zip(gen.NAMES, emitted):
        f = sp.lambdify((gen.x, gen.y, gen.px, gen.py, gen.b0), gen.resolved(part), "numpy")
        want = np.broadcast_to(f(*pts, b0), got.shape)
        scale = np.abs(want).max()
        assert math.isfinite(scale) and scale > 0, part
        assert np.abs(got - want).max() <= 1e-13 * scale, part


def parts_sum(gen):
    h0, hzz, hz, hxi = gen.PARTS
    return h0 + gen.ze**2 * hzz + gen.ze * hz + gen.xi * hxi


def test_axial_quartic_is_the_parts_on_the_axis(gen):
    # V(s, d) at s = sqrt(1 - x^2/2), d = x/sqrt(2) is H at y = px = py = 0
    import sympy as sp

    x, s, d = gen.x, gen.s, gen.d
    v = sum(gen.AXIAL.coeff(s, 4 - j).coeff(d, j) * s ** (4 - j) * d**j for j in range(5))
    assert sp.expand(v - gen.AXIAL) == 0
    on_axis = v.subs({s: sp.sqrt(1 - x**2 / 2), d: x / sp.sqrt(2)})
    assert sp.simplify(on_axis - parts_sum(gen).subs({gen.y: 0, gen.px: 0, gen.py: 0})) == 0


def test_the_dropped_resultant_factors_carry_no_interior_point(gen):
    # the census solves the kinetic resultant over x (x^2 - 1) and the
    # trivial one over x^2.  At x = 0, P_x vanishes only at s = 0 or at
    # t = 2 - 4 s^2 = 0, so no kinetic point (s > 0, t > 0) has x = 0; at
    # x^2 = 1 the common root of P_x and P_s is s = 0, the edge R^2 = 2.
    import sympy as sp

    x, s, b0, ze = gen.x, gen.s, gen.b0, gen.ze
    assert sp.expand(gen.Px.subs(x, 0) + 2 * b0 * ze * s * (2 * s**2 - 1)) == 0
    for p in (gen.Px, gen.Ps):
        assert sp.expand(p.subs(x, 1)).subs(s, 0) == 0
