"""Generate closed-form gradient/Hessian code for the classical Hamiltonian,
the polynomials whose roots are its stationary points, and its gamma = 0
quartic.

H is defined once, as its four lambda-independent parts

    H = H0 + ze^2 HZZ + ze HZ + xi HXI,

the split of `_kernels.h_parts` and the classical image of N H = A + ze^2 B +
ze C + xi D in `quantum`.  Everything emitted comes from these parts:

- `grad_parts` and `hess_parts` give each part's gradient and Hessian, which
  `_kernels.h_combine` re-sums like the energy;
- the plane polynomials (`kinetic_resultant`, `trivial_resultant`,
  `ps_cubic`) give the stationary points on the symmetry plane;
- `axial_quartic` gives the gamma = 0 potential as a quartic form in the
  condensate amplitudes (s, d), for `surfaces`.

Writes src/esqpt/_derivs.py.  Run manually after changing the Hamiltonian
definition; the output file is committed, and a test checks that
``derivs_source()`` still reproduces it.
"""
from pathlib import Path

import sympy as sp
from sympy.polys.polyfuncs import horner

TARGET = Path(__file__).resolve().parent.parent / "src" / "esqpt" / "_derivs.py"

x, y, px, py, b0, ze = sp.symbols('x y px py b0 ze', real=True)
s, xi = sp.symbols('s xi', positive=True)
d = sp.symbols('d', nonnegative=True)
V = [x, y, px, py]

pg = x * py - y * px
A = (py**2 - px**2) * x + 2 * px * py * y - x**3 + 3 * x * y**2
bpb = x * px + y * py


def parts(rho=px**2 + py**2, root=None):
    """The four parts of H, with |p|^2 written as rho and sqrt((1 - u)/2) as
    root; by default both are their definitions in the phase-space variables."""
    u = (x**2 + y**2 + rho) / 2
    w = (x**2 + y**2 - rho) / 2 - b0**2 * (1 - u)
    if root is None:
        root = sp.sqrt((1 - u) / 2)
    return (u**2 + b0**2 * (1 - u) * u, pg**2, b0 * root * A, (bpb**2 + w**2) / 2)


def hamiltonian(h0, hzz, hz, hxi):
    return h0 + ze**2 * hzz + ze * hz + xi * hxi


PARTS = parts()
H = hamiltonian(*PARTS)

# On the plane Fix(sigma) = {(x, 0, 0, py)} of sigma: (y, px) -> (-y, -px),
# with s = sqrt((1 - u)/2) and t = py^2 = 2 - 4 s^2 - x^2, H is a quartic
# polynomial P(x, s).  Kinetic points (t > 0) solve P_x = P_s = 0; points with
# py = 0 are stationary along the curve 4 s^2 + x^2 = 2, where
# 4 s P_x - x P_s = 0.  Eliminating s leaves one polynomial in x for each.
P = sp.expand(H.subs({y: 0, px: 0, py: sp.sqrt(2 - 4 * s**2 - x**2)}))
Px, Ps = sp.diff(P, x), sp.diff(P, s)

# The axial quartic.  On gamma = 0 (y = px = py = 0), x = sqrt(2) d with
# s^2 + d^2 = 1, so u = d^2 and sqrt((1 - u)/2) = s/sqrt(2); with 1 = s^2 + d^2
# every term becomes a quartic form V(s, d) = sum_j f_j s^(4-j) d^j.
AXIS = {x: sp.sqrt(2) * d, y: 0, px: 0, py: 0}
V_AXIS = sp.expand(hamiltonian(*parts(0, s / sp.sqrt(2))).subs(AXIS))


def homogenize(expr, degree):
    """expr, a polynomial in (s, d) of even-parity terms, as a form of the given
    degree on s^2 + d^2 = 1."""
    out = 0
    for (i, j), c in sp.Poly(expr, s, d).terms():
        k, odd = divmod(degree - i - j, 2)
        assert k >= 0 and not odd
        out += c * s**i * d**j * (s**2 + d**2) ** k
    return sp.expand(out)


AXIAL = homogenize(V_AXIS, 4)


def _code(expr):
    return sp.pycode(expr).replace("math.sqrt", "sqrt")


def _cse_lines(exprs, symbols):
    """Common-subexpression assignments of exprs, and the reduced exprs."""
    reps, reds = sp.cse(exprs, symbols=symbols, optimizations='basic')
    return [f"    {lhs} = {_code(rhs)}" for lhs, rhs in reps], [_code(e) for e in reds]


def emit_parts(name, derivs):
    """A function of (x, y, px, py, b0, with_xi) returning one tuple of
    derivatives per part of PARTS; the H_xi tuple is computed only with_xi
    (else None), as in `_kernels.h_parts`."""
    n = len(derivs[0])
    lines, reds = _cse_lines([e for d in derivs[:3] for e in d], sp.numbered_symbols("x"))
    lines = [f"def {name}(x, y, px, py, b0, with_xi):", *lines, "    parts = ("]
    lines += [f"        ({', '.join(reds[i:i + n])})," for i in range(0, 3 * n, n)]
    lines += ["    )", "    if not with_xi:", "        return parts + (None,)"]
    xi_lines, xi_reds = _cse_lines(derivs[3], sp.numbered_symbols("z"))
    lines += xi_lines + [f"    return parts + (({', '.join(xi_reds)}),)"]
    return "\n".join(lines)


def _horner(expr, args):
    gens = [{'x': x, 'b0': b0, 'ze': ze, 'xi': xi}[a] for a in args]
    return sp.pycode(horner(sp.expand(expr), *gens))


def emit_values(name, values, args):
    """A function of args returning the tuple of values, in Horner form."""
    lines = [f"def {name}({', '.join(args)}):", "    return ("]
    lines += [f"        {_horner(v, args)}," for v in values]
    lines.append("    )")
    return "\n".join(lines)


def emit_coeffs(name, expr, var, args):
    """A function returning the coefficients of expr in var, highest power first
    (np.roots order), in Horner form, divided by their common content, which
    keeps the roots."""
    coeffs = sp.Poly(expr, var).all_coeffs()
    content = sp.gcd_list(coeffs)
    return emit_values(name, [c / content for c in coeffs], args)


def derivs_source():
    """The text of src/esqpt/_derivs.py."""
    grads = [[sp.diff(h, v) for v in V] for h in PARTS]
    hessians = [[sp.diff(h, a, b) for i, a in enumerate(V) for b in V[i:]] for h in PARTS]
    plane = ["b0", "ze", "xi"]
    parts = [
        '"""Machine-generated derivative formulas (tools/gen_derivs.py); do not edit by hand."""',
        "from numpy import sqrt\n",
        emit_parts("grad_parts", grads),
        emit_parts("hess_parts", hessians),
        emit_coeffs("kinetic_resultant", sp.resultant(Px, Ps, s), x, plane),
        emit_coeffs(
            "trivial_resultant",
            sp.resultant(sp.expand(4 * s * Px - x * Ps), 4 * s**2 + x**2 - 2, s),
            x,
            plane,
        ),
        emit_coeffs("ps_cubic", Ps, s, ["x", *plane]),
        emit_values("axial_quartic", [AXIAL.coeff(s, 4 - j).coeff(d, j) for j in range(5)], plane),
    ]
    return "\n\n".join(parts) + "\n"


if __name__ == "__main__":
    TARGET.write_text(derivs_source())
    print(f"wrote {TARGET}")
