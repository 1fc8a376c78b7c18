"""Second-quantized boson operator algebra for the s/d (six-mode) system.

Operators are stored as normal-ordered polynomials in the creation and
annihilation operators of the modes

    0 -> s,   1..5 -> d_{-2}, d_{-1}, d_{0}, d_{+1}, d_{+2}.

The module also provides exact Clebsch-Gordan coefficients, spherical-tensor
coupling, and the mapping of number-conserving expressions to classical
phase-space functions (large-N limit with the s mode eliminated).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np

N_MODES = 6
MODE_NAMES = ("s", "d-2", "d-1", "d0", "d+1", "d+2")


def d_mode(mu):
    """Mode index of d_mu."""
    if not -2 <= mu <= 2:
        raise ValueError(f"d projection out of range: {mu}")
    return 3 + mu


@lru_cache(maxsize=None)
def _cg_exact(j1, m1, j2, m2, J, M):
    """(sign, square) of the Clebsch-Gordan coefficient as exact rationals."""
    if m1 + m2 != M or abs(m1) > j1 or abs(m2) > j2 or abs(M) > J:
        return 1, Fraction(0)
    if not (abs(j1 - j2) <= J <= j1 + j2):
        return 1, Fraction(0)
    f = math.factorial
    pref = Fraction(
        (2 * J + 1) * f(J + j1 - j2) * f(J - j1 + j2) * f(j1 + j2 - J),
        f(j1 + j2 + J + 1),
    ) * Fraction(
        f(J + M) * f(J - M) * f(j1 - m1) * f(j1 + m1) * f(j2 - m2) * f(j2 + m2)
    )
    total = Fraction(0)
    for k in range(0, j1 + j2 - J + 1):
        denoms = (
            k,
            j1 + j2 - J - k,
            j1 - m1 - k,
            j2 + m2 - k,
            J - j2 + m1 + k,
            J - j1 - m2 + k,
        )
        if min(denoms) < 0:
            continue
        term = Fraction((-1) ** k, math.prod(f(d) for d in denoms))
        total += term
    sign = 1 if total >= 0 else -1
    return sign, pref * total * total


def cg(j1, m1, j2, m2, J, M):
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M> (float, exact source)."""
    sign, square = _cg_exact(j1, m1, j2, m2, J, M)
    return sign * math.sqrt(float(square))


class BosonExpr:
    """Normal-ordered operator polynomial over the six boson modes.

    terms maps (creators, annihilators) -> complex coefficient, where the
    creator/annihilator mode tuples are sorted.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_word(coeff, ops):
        """Build from an operator word; ops is a list of ('c'|'a', mode)."""
        out = {}
        stack = [(complex(coeff), tuple(ops))]
        while stack:
            c, w = stack.pop()
            for i in range(len(w) - 1):
                if w[i][0] == "a" and w[i + 1][0] == "c":
                    swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                    stack.append((c, swapped))
                    if w[i][1] == w[i + 1][1]:
                        stack.append((c, w[:i] + w[i + 2:]))
                    break
            else:
                key = (
                    tuple(sorted(m for t, m in w if t == "c")),
                    tuple(sorted(m for t, m in w if t == "a")),
                )
                out[key] = out.get(key, 0j) + c
        return BosonExpr(out)._cleaned()

    @staticmethod
    def create(mode, coeff=1.0):
        return BosonExpr({((mode,), ()): complex(coeff)})

    @staticmethod
    def annihilate(mode, coeff=1.0):
        return BosonExpr({((), (mode,)): complex(coeff)})

    def _cleaned(self, tol=0.0):
        self.terms = {k: v for k, v in self.terms.items() if abs(v) > tol}
        return self

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0j) + v
        return BosonExpr(out)._cleaned()

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, BosonExpr):
            out = {}
            for (c1, a1), v1 in self.terms.items():
                for (c2, a2), v2 in other.terms.items():
                    word = (
                        [("c", m) for m in c1]
                        + [("a", m) for m in a1]
                        + [("c", m) for m in c2]
                        + [("a", m) for m in a2]
                    )
                    for k, v in BosonExpr.from_word(v1 * v2, word).terms.items():
                        out[k] = out.get(k, 0j) + v
            return BosonExpr(out)._cleaned()
        out = {k: v * other for k, v in self.terms.items()}
        return BosonExpr(out)._cleaned()

    __rmul__ = __mul__

    def adjoint(self):
        out = {}
        for (c, a), v in self.terms.items():
            word = [("c", m) for m in a] + [("a", m) for m in c]
            for k, w in BosonExpr.from_word(v.conjugate(), word).terms.items():
                out[k] = out.get(k, 0j) + w
        return BosonExpr(out)._cleaned()

    # -- predicates -------------------------------------------------------

    def is_hermitian(self, tol=1e-12):
        diff = self - self.adjoint()
        return all(abs(v) <= tol for v in diff.terms.values())

    def conserves_number(self):
        return all(len(c) == len(a) for c, a in self.terms)

    def max_body(self):
        """Largest creator count among number-conserving monomials."""
        return max((len(c) for c, _ in self.terms), default=0)

    # -- evaluation helpers ------------------------------------------------

    def apply(self, state):
        """Apply to a Fock state given as {occupation 6-tuple: amplitude}."""
        out = {}
        for (cs, ans), coeff in self.terms.items():
            for occ, amp in state.items():
                occ2 = list(occ)
                fac = 1.0
                ok = True
                for m in ans:
                    if occ2[m] == 0:
                        ok = False
                        break
                    fac *= math.sqrt(occ2[m])
                    occ2[m] -= 1
                if not ok:
                    continue
                for m in cs:
                    occ2[m] += 1
                    fac *= math.sqrt(occ2[m])
                key = tuple(occ2)
                out[key] = out.get(key, 0j) + coeff * fac * amp
        return {k: v for k, v in out.items() if v != 0}

    def classical(self, nd_like=None):
        """Large-N classical limit on the L=0 intrinsic plane.

        Returns a callable f(x, y, px, py) giving lim expr / N**degree with
        degree = the maximal boson-pair order; the eliminated s amplitude is
        sqrt(1 - Hd0).  Monomials above order 4 are unsupported.
        """
        if not self.conserves_number():
            raise ValueError("classical limit requires a number-conserving expression")
        degree = self.max_body()
        if degree > 2:
            raise ValueError("monomials above two-body order are unsupported")
        kept = [(c, a, v) for (c, a), v in self.terms.items() if len(c) == degree]

        def f(x, y, px, py):
            u = 0.5 * (x * x + y * y + px * px + py * py)
            s_amp = np.sqrt(np.maximum(1.0 - u, 0.0))
            # intrinsic L=0 embedding of the five d-mode phase variables
            q = {1: y / np.sqrt(2), 2: 0.0 * x, 3: x, 4: 0.0 * x, 5: y / np.sqrt(2)}
            p = {1: py / np.sqrt(2), 2: 0.0 * x, 3: px, 4: 0.0 * x, 5: py / np.sqrt(2)}
            total = 0j
            for cs, ans, v in kept:
                fac = v
                for m in cs:
                    fac = fac * (s_amp if m == 0 else (q[m] - 1j * p[m]) / np.sqrt(2))
                for m in ans:
                    fac = fac * (s_amp if m == 0 else (q[m] + 1j * p[m]) / np.sqrt(2))
                total = total + fac
            return total

        return f


class TensorOp:
    """Spherical tensor of BosonExpr components indexed by projection."""

    def __init__(self, rank, components):
        if len(components) != 2 * rank + 1:
            raise ValueError("component count must be 2*rank + 1")
        self.rank = rank
        self.components = list(components)

    def __getitem__(self, mu):
        return self.components[mu + self.rank]

    def tilde(self):
        """Conjugate tensor x~_m = (-1)**(rank+m) x_{-m} of the adjoint."""
        comps = []
        for m in range(-self.rank, self.rank + 1):
            comps.append(self[-m].adjoint() * float((-1) ** (self.rank + m)))
        return TensorOp(self.rank, comps)


def couple(a: TensorOp, b: TensorOp, rank: int) -> TensorOp:
    """Couple two spherical tensors to total rank with CG coefficients."""
    if not abs(a.rank - b.rank) <= rank <= a.rank + b.rank:
        raise ValueError(f"rank {rank} outside triangle ({a.rank}, {b.rank})")
    comps = []
    for m in range(-rank, rank + 1):
        acc = BosonExpr()
        for ma in range(-a.rank, a.rank + 1):
            mb = m - ma
            if abs(mb) > b.rank:
                continue
            c = cg(a.rank, ma, b.rank, mb, rank, m)
            if c != 0.0:
                acc = acc + (a[ma] * b[mb]) * c
        comps.append(acc)
    return TensorOp(rank, comps)


def scalar_product(a: TensorOp, b: TensorOp) -> BosonExpr:
    """(A . B) = (-1)**rank * sqrt(2*rank + 1) * [A B]^(0)_0."""
    if a.rank != b.rank:
        raise ValueError("scalar product requires equal ranks")
    coupled = couple(a, b, 0)
    return coupled[0] * float((-1) ** a.rank * math.sqrt(2 * a.rank + 1))


def d_creator_tensor():
    return TensorOp(2, [BosonExpr.create(d_mode(mu)) for mu in range(-2, 3)])


def d_annihilator_tilde():
    """d~_mu = (-1)**(2+mu) d_{-mu} as a rank-2 tensor."""
    comps = []
    for mu in range(-2, 3):
        comps.append(BosonExpr.annihilate(d_mode(-mu), (-1) ** mu))
    return TensorOp(2, comps)


_TOKEN = re.compile(r"(s|d[+-]?[0-2])(\+?)")


def parse_expr(text):
    """Parse a plain-text operator fixture like '2.0 * s+ s+ d0 d0'.

    Terms are separated by top-level '+' or '-'; each term is an optional
    numeric prefactor ('c *') followed by operator tokens, creation marked
    by a trailing '+', e.g. 's+', 'd-2+', 'd0'.
    """
    expr = BosonExpr()
    for sign, term in _split_terms(text):
        coeff = complex(sign)
        ops = []
        parts = term.replace("*", " ").split()
        for tok in parts:
            m = _TOKEN.fullmatch(tok)
            if m:
                name, dag = m.groups()
                if name == "s":
                    mode = 0
                else:
                    mode = d_mode(int(name[1:].replace("+", "")))
                ops.append(("c" if dag else "a", mode))
            else:
                coeff *= complex(tok)
        expr = expr + BosonExpr.from_word(coeff, ops)
    return expr


def _split_terms(text):
    out = []
    sign = 1.0
    buf = []
    for tok in re.split(r"(\s[+-]\s)", " " + text.strip() + " "):
        t = tok.strip()
        if t in ("+", "-") and buf:
            out.append((sign, " ".join(buf)))
            sign = 1.0 if t == "+" else -1.0
            buf = []
        elif t:
            buf.append(t)
    if buf:
        out.append((sign, " ".join(buf)))
    return out
