"""Generate the classical Hamiltonian's code: its parts, their gradients and
Hessians, the polynomials whose roots are its stationary points, and its
gamma = 0 quartic.

H is written once, as its four lambda-independent parts

    H = H0 + ze^2 HZZ + ze HZ + xi HXI,

the classical image of N H = A + ze^2 B + ze C + xi D in `quantum`.
Everything emitted comes from these parts:

- `h_parts` evaluates the parts, step by step in their written order;
- `grad_parts` and `hess_parts` give each part's gradient and Hessian, which
  `_kernels.h_combine` re-sums like the energy;
- the plane polynomials give the stationary points on the symmetry plane:
  `kinetic_cubic` and `trivial_cubic` in X = x^2, and `ps_cubic` in s;
- `axial_quartic` gives the gamma = 0 potential as a quartic form in the
  condensate amplitudes (s, d), for `surfaces`.

Writes src/esqpt/_derivs.py.  Run manually after changing the Hamiltonian
definition; the output file is committed, and a test checks that
``derivs_source()`` still reproduces it.
"""
from pathlib import Path

import sympy as sp
from sympy.polys.polyfuncs import horner
from sympy.printing.precedence import PRECEDENCE
from sympy.printing.pycode import PythonCodePrinter

TARGET = Path(__file__).resolve().parent.parent / "src" / "esqpt" / "_derivs.py"

x, y, px, py, b0, ze = sp.symbols('x y px py b0 ze', real=True)
s, xi, X = sp.symbols('s xi X', positive=True)
d = sp.symbols('d', nonnegative=True)
V = [x, y, px, py]

# H's parts h0, hzz, hz, hxi, written once as named steps in the order
# `h_parts` evaluates them.  Each step is unevaluated, so it keeps its written
# order of terms and factors, and `h_parts` evaluates it in that order; sympy's
# canonical order (u summed as px, py, x, y, sqrt(2) taken out of the root)
# moves H by up to 3e-14 relative.  The abs guards the root where rounding
# puts a sampled point just outside the ball R^2 = 2.
u, w, bpb, root, A, pg = sp.symbols('u w bpb root A pg', real=True)
NAMES = h0, hzz, hz, hxi = sp.symbols('h0 hzz hz hxi', real=True)
half = sp.S.Half  # (1/2)*a prints as a product, which numpy computes faster than a/2
with sp.evaluate(False):
    STEPS = {
        u: half*(x*x + y*y + px*px + py*py),
        w: half*(x*x + y*y - px*px - py*py) - b0*b0*(1 - u),
        bpb: x*px + y*py,
        hxi: half*(bpb*bpb + w*w),
        h0: u*u + b0*b0*(1 - u)*u,
        root: sp.sqrt(half*sp.Abs(1 - u)),
        A: (py*py - px*px)*x + 2*px*py*y - x*x*x + 3*x*y*y,
        hz: b0*root*A,
        pg: x*py - y*px,
        hzz: pg*pg,
    }


def resolved(expr, given=None):
    """expr in the phase-space variables, evaluated: each step is replaced by
    its value in `given`, else by its definition."""
    for name, value in reversed(STEPS.items()):
        expr = expr.subs(name, (given or {}).get(name, value).doit())
    return expr


def hamiltonian(h0, hzz, hz, hxi):
    return h0 + ze**2 * hzz + ze * hz + xi * hxi


# Inside the ball 1 - u >= 0, and the derivatives need no abs.
PARTS = tuple(resolved(h, {root: sp.sqrt((1 - u) / 2)}) for h in NAMES)
H = hamiltonian(*PARTS)

# On the plane Fix(sigma) = {(x, 0, 0, py)} of sigma: (y, px) -> (-y, -px),
# with s = sqrt((1 - u)/2) and t = py^2 = 2 - 4 s^2 - x^2, H is a quartic
# polynomial P(x, s).  Kinetic points (t > 0) solve P_x = P_s = 0; points with
# py = 0 are stationary along the curve 4 s^2 + x^2 = 2, where
# 4 s P_x - x P_s = 0.  Eliminating s leaves one polynomial in x for each.
P = sp.expand(H.subs({y: 0, px: 0, py: sp.sqrt(2 - 4 * s**2 - x**2)}))
Px, Ps = sp.diff(P, x), sp.diff(P, s)


def in_X(expr, factor):
    """expr / factor, an exact division, as a polynomial in X = x^2."""
    quotient, remainder = sp.div(sp.Poly(expr, x), sp.Poly(factor, x))
    assert remainder.is_zero and all(k % 2 == 0 for (k,) in quotient.monoms())
    return sum(c * X ** (k // 2) for (k,), c in quotient.terms())


# Each resultant is a cubic in X times a factor with no interior point.
# P_x(0, s) = -2 b0 ze s (2 s^2 - 1) vanishes only at s = 0 or t = 0, and at
# x^2 = 1 both P_x and P_s have the factor s, the edge s = 0: the kinetic
# resultant is x (X - 1) C(X).  The trivial one is x^2 T(X), its x = 0 the
# origin.
KINETIC = in_X(sp.resultant(Px, Ps, s), x * (x**2 - 1))
TRIVIAL = in_X(sp.resultant(sp.expand(4 * s * Px - x * Ps), 4 * s**2 + x**2 - 2, s), x**2)

# The axial quartic.  On gamma = 0 (y = px = py = 0), x = sqrt(2) d with
# s^2 + d^2 = 1, so u = d^2 and sqrt((1 - u)/2) = s/sqrt(2); with 1 = s^2 + d^2
# every term becomes a quartic form V(s, d) = sum_j f_j s^(4-j) d^j.
AXIS = {x: sp.sqrt(2) * d, y: 0, px: 0, py: 0}
V_AXIS = sp.expand(hamiltonian(*(resolved(h, {root: s / sp.sqrt(2)}) for h in NAMES)).subs(AXIS))


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


def _is_product(expr):
    """Whether the printer writes expr, a power, as a product."""
    return expr.is_Pow and (expr.exp.is_Integer and expr.exp >= 3 or expr.exp == sp.Rational(3, 2))


class _Printer(PythonCodePrinter):
    """Python code for numpy arrays.  numpy's power is fast only for small
    exponents such as 2 and 1/2, so integer powers >= 3 print as products and
    x**(3/2) as x*sqrt(x).  A product printed so needs parentheses only where
    it is not a factor of a numerator, which keeps the text to compile small."""

    _numerator = ()

    def _print_Pow(self, expr, rational=False):
        if not _is_product(expr):
            return self._hprint_Pow(expr, rational, sqrt="sqrt")
        base = self.parenthesize(expr.base, PRECEDENCE["Mul"])
        if expr.exp.is_Integer:
            return "*".join([base] * int(expr.exp))
        return f"{base}*sqrt({self._print(expr.base)})"

    def _print_Mul(self, expr):
        outer, self._numerator = self._numerator, expr.args
        try:
            return super()._print_Mul(expr)
        finally:
            self._numerator = outer

    def parenthesize(self, item, level, strict=False):
        if _is_product(item) and level >= PRECEDENCE["Mul"] and item not in self._numerator:
            return f"({self._print(item)})"
        return super().parenthesize(item, level, strict)


def _leading_merged(expr):
    """expr with each sum or product that leads a sum or product merged into
    it, as Python groups a + b + c as (a + b) + c: printed in order, it needs
    no parentheses and keeps its evaluation order."""
    if expr.is_Atom:
        return expr
    args = [_leading_merged(a) for a in expr.args]
    if (expr.is_Add or expr.is_Mul) and type(args[0]) is type(expr):
        args[:1] = args[0].args
    return expr.func(*args, evaluate=False)


def _code(expr):
    return _Printer().doprint(expr)


def _written_code(expr):
    """expr printed in its written order of terms and factors."""
    return _Printer({"order": "none"}).doprint(_leading_merged(expr))


def _cse_lines(exprs, symbols):
    """Common-subexpression assignments of exprs, and the reduced exprs."""
    reps, reds = sp.cse(exprs, symbols=symbols, optimizations='basic')
    return [f"    {lhs} = {_code(rhs)}" for lhs, rhs in reps], [_code(e) for e in reds]


def _needs(name):
    """The steps that name is computed from, name included."""
    return {name}.union(*(_needs(n) for n in STEPS[name].free_symbols & STEPS.keys()))


def emit_h_parts():
    """`h_parts(x, y, px, py, b0, with_xi)` returning (h0, hzz, hz, hxi): the
    steps in order, each deleted after its last use, so that a block's
    temporaries do not add up; the steps of hxi alone run only with_xi (else
    hxi is None)."""
    steps = list(STEPS)
    shared = _needs(h0) | _needs(hzz) | _needs(hz)
    last_use = {n: i for i, name in enumerate(steps) for n in STEPS[name].free_symbols & STEPS.keys()}
    lines = ["def h_parts(x, y, px, py, b0, with_xi):"]
    for i, name in enumerate(steps):
        indent = "    " if name in shared else "        "
        if name not in shared and steps[i - 1] in shared:
            lines += [f"    {hxi} = None", "    if with_xi:"]
        lines.append(f"{indent}{name} = {_written_code(STEPS[name])}")
        dead = [str(n) for n in steps if last_use.get(n) == i and n not in NAMES]
        if dead:
            lines.append(f"{indent}del {', '.join(dead)}")
    lines.append(f"    return {', '.join(map(str, NAMES))}")
    return "\n".join(lines)


def emit_parts(name, derivs):
    """A function of (x, y, px, py, b0, with_xi) returning one tuple of
    derivatives per part of PARTS; the H_xi tuple is computed only with_xi
    (else None), as in `h_parts`."""
    n = len(derivs[0])
    lines, reds = _cse_lines([e for d in derivs[:3] for e in d], sp.numbered_symbols("x"))
    lines = [f"def {name}(x, y, px, py, b0, with_xi):", *lines, "    parts = ("]
    lines += [f"        ({', '.join(reds[i:i + n])})," for i in range(0, 3 * n, n)]
    lines += ["    )", "    if not with_xi:", "        return parts + (None,)"]
    xi_lines, xi_reds = _cse_lines(derivs[3], sp.numbered_symbols("z"))
    lines += xi_lines + [f"    return parts + (({', '.join(xi_reds)}),)"]
    return "\n".join(lines)


def emit_values(name, values, args):
    """A function of args returning the tuple of values, in Horner form.
    Values even in both b0 and ze are written in b2 = b0^2 and z2 = ze^2,
    which keeps the text to compile small."""
    gens = [{'x': x, 'b0': b0, 'ze': ze, 'xi': xi}[a] for a in args]
    lines = [f"def {name}({', '.join(args)}):"]
    if all(i % 2 == j % 2 == 0 for v in values for i, j in sp.Poly(v, b0, ze).monoms()):
        b2, z2 = sp.symbols('b2 z2', positive=True)
        values = [v.subs({b0: sp.sqrt(b2), ze: sp.sqrt(z2)}) for v in values]
        gens = [{b0: b2, ze: z2}.get(g, g) for g in gens]
        lines.append("    b2, z2 = b0**2, ze**2")
    lines += ["    return (", *(f"        {_code(horner(sp.expand(v), *gens))}," for v in values), "    )"]
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
        '"""Machine-generated formulas of the classical Hamiltonian (tools/gen_derivs.py); do not edit by hand."""',
        "from numpy import sqrt\n",
        emit_h_parts(),
        emit_parts("grad_parts", grads),
        emit_parts("hess_parts", hessians),
        emit_coeffs("kinetic_cubic", KINETIC, X, plane),
        emit_coeffs("trivial_cubic", TRIVIAL, X, plane),
        emit_coeffs("ps_cubic", Ps, s, ["x", *plane]),
        emit_values("axial_quartic", [AXIAL.coeff(s, 4 - j).coeff(d, j) for j in range(5)], plane),
    ]
    return "\n\n".join(parts) + "\n"


if __name__ == "__main__":
    TARGET.write_text(derivs_source())
    print(f"wrote {TARGET}")
