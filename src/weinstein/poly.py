"""Exact multivariate polynomials with rational coefficients.

Variables are ordered (r, y1, ..., yk); variable 0 is always the weighted
radial coordinate.  Coefficients are fractions.Fraction, so differential
identities checked with these polynomials are exact, not floating point.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ParityViolation


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary value of the float
    raise TypeError(f"cannot use {type(x).__name__} as a rational coefficient")


class PolyField:
    """Polynomial in (r, y1..yk) as a dict {exponent tuple: Fraction}."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars, coeffs=None):
        self.nvars = int(nvars)
        clean = {}
        for mono, c in (coeffs or {}).items():
            if len(mono) != self.nvars:
                raise ValueError(f"monomial {mono} has wrong arity (nvars={self.nvars})")
            c = _as_fraction(c)
            if c != 0:
                clean[tuple(int(e) for e in mono)] = c
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, nvars):
        return cls(nvars, {(0,) * nvars: _as_fraction(value)})

    @classmethod
    def variable(cls, index, nvars):
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {mono: Fraction(1)})

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PolyField):
            if other.nvars != self.nvars:
                raise ValueError("arity mismatch")
            return other
        return PolyField.constant(other, self.nvars)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return PolyField(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return PolyField(self.nvars, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, PolyField):
            c = _as_fraction(other)
            return PolyField(self.nvars, {m: k * c for m, k in self.coeffs.items()})
        if other.nvars != self.nvars:
            raise ValueError("arity mismatch")
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return PolyField(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = PolyField.constant(1, self.nvars)
        base = self
        while n:  # binary exponentiation
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, PolyField):
            other = PolyField.constant(other, self.nvars)
        return self.nvars == other.nvars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "PolyField(0)"
        parts = [f"{c}*x^{m}" for m, c in sorted(self.coeffs.items())]
        return "PolyField(" + " + ".join(parts) + ")"

    # -- calculus -----------------------------------------------------------

    def diff(self, axis):
        out = {}
        for mono, c in self.coeffs.items():
            e = mono[axis]
            if e == 0:
                continue
            new = list(mono)
            new[axis] = e - 1
            new = tuple(new)
            out[new] = out.get(new, Fraction(0)) + c * e
        return PolyField(self.nvars, out)

    # -- parity and weighted division ----------------------------------------

    def parity_in(self, axis):
        """'even', 'odd', or 'mixed' as a function of variable `axis`."""
        if not self.coeffs:
            return "even"
        pars = {m[axis] % 2 for m in self.coeffs}
        if pars == {0}:
            return "even"
        if pars == {1}:
            return "odd"
        return "mixed"

    def divide_by_var(self, axis):
        """Exact division by variable `axis`; every monomial must contain it."""
        out = {}
        for mono, c in self.coeffs.items():
            if mono[axis] == 0:
                raise ParityViolation(
                    f"polynomial is not divisible by variable {axis}; "
                    f"monomial {mono} has exponent 0"
                )
            new = list(mono)
            new[axis] -= 1
            out[tuple(new)] = c
        return PolyField(self.nvars, out)

    # -- evaluation -----------------------------------------------------------

    def eval_exact(self, point):
        """Evaluate at a point of Fractions/ints; exact rational result."""
        pt = [_as_fraction(x) for x in point]
        if len(pt) != self.nvars:
            raise ValueError("point has wrong arity")
        total = Fraction(0)
        for mono, c in self.coeffs.items():
            term = c
            for x, e in zip(pt, mono):
                if e:
                    term *= x ** e
            total += term
        return total

    def eval_float(self, points):
        """Vectorized float evaluation; points has shape (..., nvars)."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.nvars:
            raise ValueError("points have wrong arity")
        out = np.zeros(pts.shape[:-1], dtype=float)
        for mono, c in self.coeffs.items():
            term = np.full(pts.shape[:-1], float(c))
            for axis, e in enumerate(mono):
                if e:
                    term = term * pts[..., axis] ** e
            out += term
        return out

    def __call__(self, points):
        return self.eval_float(points)
