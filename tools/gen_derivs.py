"""Generate closed-form gradient/Hessian code for the classical Hamiltonian,
and the polynomials whose roots are its stationary points on the symmetry plane.

Writes src/esqpt/_derivs.py.  Run manually after changing the Hamiltonian
definition; the output file is committed, and a test checks that
``derivs_source()`` still reproduces it.
"""
from pathlib import Path

import sympy as sp
from sympy.polys.polyfuncs import horner

TARGET = Path(__file__).resolve().parent.parent / "src" / "esqpt" / "_derivs.py"

x, y, px, py, b0, ze = sp.symbols('x y px py b0 ze', real=True)
V = [x, y, px, py]

u = sp.Rational(1, 2) * (x**2 + y**2 + px**2 + py**2)
pg = x * py - y * px
A = (py**2 - px**2) * x + 2 * px * py * y - x**3 + 3 * x * y**2
root = sp.sqrt((1 - u) / 2)
H1 = u**2 + b0**2 * (1 - u) * u + ze**2 * pg**2 + ze * b0 * root * A

bpb = x * px + y * py
w = sp.Rational(1, 2) * (x**2 + y**2 - px**2 - py**2) - b0**2 * (1 - u)
EX = sp.Rational(1, 2) * (bpb**2 + w**2)

# On the plane Fix(sigma) = {(x, 0, 0, py)} of sigma: (y, px) -> (-y, -px),
# with s = sqrt((1 - u)/2) and t = py^2 = 2 - 4 s^2 - x^2, H is a quartic
# polynomial P(x, s).  Kinetic points (t > 0) solve P_x = P_s = 0; points with
# py = 0 are stationary along the curve 4 s^2 + x^2 = 2, where
# 4 s P_x - x P_s = 0.  Eliminating s leaves one polynomial in x for each.
s, xi = sp.symbols('s xi', positive=True)
P = sp.expand((H1 + xi * EX).subs({y: 0, px: 0, py: sp.sqrt(2 - 4 * s**2 - x**2)}))
Px, Ps = sp.diff(P, x), sp.diff(P, s)


def emit(name, exprs, args):
    reps, reds = sp.cse(exprs, optimizations='basic')
    lines = [f"def {name}({', '.join(args)}):"]
    for lhs, rhs in reps:
        lines.append(f"    {lhs} = {sp.pycode(rhs)}".replace("math.sqrt", "sqrt"))
    body = ", ".join(sp.pycode(e).replace("math.sqrt", "sqrt") for e in reds)
    lines.append(f"    return ({body})")
    return "\n".join(lines)


def emit_coeffs(name, expr, var, args):
    """A function returning the coefficients of expr in var, highest power first,
    divided by their common content and in Horner form (np.roots order)."""
    coeffs = sp.Poly(expr, var).all_coeffs()
    content = sp.gcd_list(coeffs)
    gens = [{'x': x, 'b0': b0, 'ze': ze, 'xi': xi}[a] for a in args]
    body = [sp.pycode(horner(sp.expand(c / content), *gens)) for c in coeffs]
    lines = [f"def {name}({', '.join(args)}):", "    return ("]
    lines += [f"        {b}," for b in body]
    lines.append("    )")
    return "\n".join(lines)


def derivs_source():
    """The text of src/esqpt/_derivs.py."""
    g1 = [sp.diff(H1, v) for v in V]
    h1 = [sp.diff(H1, a, b) for i, a in enumerate(V) for b in V[i:]]
    g2 = [sp.diff(EX, v) for v in V]
    h2 = [sp.diff(EX, a, b) for i, a in enumerate(V) for b in V[i:]]
    parts = [
        '"""Machine-generated derivative formulas (tools/gen_derivs.py); do not edit by hand."""',
        "from numpy import sqrt\n",
        emit("grad_h1", g1, ["x", "y", "px", "py", "b0", "ze"]),
        emit("hess_h1", h1, ["x", "y", "px", "py", "b0", "ze"]),
        emit("grad_extra", g2, ["x", "y", "px", "py", "b0"]),
        emit("hess_extra", h2, ["x", "y", "px", "py", "b0"]),
        emit_coeffs("kinetic_resultant", sp.resultant(Px, Ps, s), x, ["b0", "ze", "xi"]),
        emit_coeffs(
            "trivial_resultant",
            sp.resultant(sp.expand(4 * s * Px - x * Ps), 4 * s**2 + x**2 - 2, s),
            x,
            ["b0", "ze", "xi"],
        ),
        emit_coeffs("ps_cubic", Ps, s, ["x", "b0", "ze", "xi"]),
    ]
    return "\n\n".join(parts) + "\n"


if __name__ == "__main__":
    TARGET.write_text(derivs_source())
    print(f"wrote {TARGET}")
