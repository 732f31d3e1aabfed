"""Carre-du-champ calculus for sums of Bessel operators.

For B u = sum_i (d_ii u + (a_i / x_i) d_i u) with weights a_i >= 0 the
iterated form splits into squares:

    Gamma(u)  = sum_i (d_i u)^2
    Gamma2(u) = sum_i (d_ii u)^2 + sum_{i != j} (d_i d_j u)^2
                + sum_i a_i q_i^2,          q_i = (d_i u) / x_i,

where q_i is a polynomial exactly when u is even in the weighted variable
x_i (parity-based division; no quotient fields needed).  The elementary
inequality sum w_i^{-1} A_i^2 >= (sum A_i)^2 / sum w_i then gives the
curvature-dimension bound

    Gamma2(u) >= (B u)^2 / (n + sum a_i)

with equality exactly on u = gamma + alpha sum_i (x_i^2 + beta_i x_i),
beta_i = 0 whenever a_i > 0.  On polynomials with rational coefficients
everything here is exact.  The grid mode computes Gamma and the
P-function of solver output with finite differences; Gamma2 and the
defect (`cd_defect`) are exact only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .differential import gradient_fields
from .errors import ParityViolation
from .field import ScalarField
from .params import WeinsteinParams
from .poly import PolyField, _as_fraction


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BesselWeights:
    """Nonnegative weights (a_1, ..., a_n), one per variable."""

    weights: tuple

    def __post_init__(self):
        ws = tuple(_as_fraction(w) for w in self.weights)
        if any(w < 0 for w in ws):
            raise ValueError("Bessel weights must be nonnegative")
        object.__setattr__(self, "weights", ws)

    @classmethod
    def weinstein(cls, params: WeinsteinParams):
        """The L_a pattern: weight a on r, zero on every y variable."""
        return cls((Fraction(params.a), *([Fraction(0)] * params.k)))

    @property
    def n(self):
        return len(self.weights)

    @property
    def effective_dimension(self) -> Fraction:
        return Fraction(self.n) + sum(self.weights, Fraction(0))


def _check_weights(weights: BesselWeights, nvars):
    if weights.n != nvars:
        raise ValueError(f"need {nvars} weights, got {weights.n}")


# ---------------------------------------------------------------------------
# exact mode on polynomials
# ---------------------------------------------------------------------------


def _exact_parts(u: PolyField, weights: BesselWeights):
    """First/second derivatives and weighted quotients, all polynomials."""
    n = u.nvars
    d1 = [u.diff(i) for i in range(n)]
    d2 = {}
    for i in range(n):
        for j in range(i, n):
            d2[(i, j)] = d1[i].diff(j)
    q = []
    for i, a_i in enumerate(weights.weights):
        if a_i == 0:
            q.append(None)
            continue
        if u.parity_in(i) != "even":
            raise ParityViolation(
                f"weight {a_i} on variable {i} needs an even polynomial in "
                f"that variable, parity is {u.parity_in(i)!r}"
            )
        q.append(d1[i].divide_by_var(i))
    return d1, d2, q


def bessel_sum_apply(u: PolyField, weights) -> PolyField:
    """B u = sum_i (d_ii u + a_i q_i) as an exact polynomial."""
    _check_weights(weights, u.nvars)
    _, d2, q = _exact_parts(u, weights)
    out = PolyField.zero(u.nvars)
    for i, a_i in enumerate(weights.weights):
        out = out + d2[(i, i)]
        if q[i] is not None:
            out = out + q[i] * a_i
    return out


def _gamma_poly(u):
    out = PolyField.zero(u.nvars)
    for i in range(u.nvars):
        di = u.diff(i)
        out = out + di * di
    return out


def gamma2(u: PolyField, weights: BesselWeights) -> PolyField:
    """Iterated carre du champ as an exact polynomial."""
    _check_weights(weights, u.nvars)
    _, d2, q = _exact_parts(u, weights)
    out = PolyField.zero(u.nvars)
    for (i, j), dij in d2.items():
        sq = dij * dij
        out = out + (sq if i == j else sq * 2)
    for a_i, q_i in zip(weights.weights, q):
        if q_i is not None:
            out = out + (q_i * q_i) * a_i
    return out


def cd_defect(u: PolyField, weights: BesselWeights) -> PolyField:
    """Gamma2(u) - (B u)^2 / N with N the effective dimension n + sum a_i.

    Nonnegative pointwise (for r > 0) by the curvature-dimension bound;
    vanishing identically exactly on the equality family."""
    g2 = gamma2(u, weights)
    bu = bessel_sum_apply(u, weights)
    return g2 - (bu * bu) * (Fraction(1) / weights.effective_dimension)


def cd_defect_values(u: PolyField, weights, points):
    """Exact rational Gamma2 - (B u)^2 / N at each point."""
    defect = cd_defect(u, weights)
    return [defect.eval_exact(pt) for pt in points]


# ---------------------------------------------------------------------------
# grid mode
# ---------------------------------------------------------------------------


def _grid_gamma(u: ScalarField, grads) -> ScalarField:
    """Gamma(u) from the gradient fields `grads` of u."""
    return ScalarField(grid=u.grid, domain=u.domain,
                       active=sum(g.active**2 for g in grads))


def gamma(u):
    """Gamma(u) = |grad u|^2: exact polynomial or nodewise grid field."""
    if isinstance(u, PolyField):
        return _gamma_poly(u)
    return _grid_gamma(u, gradient_fields(u))


# ---------------------------------------------------------------------------
# P-function
# ---------------------------------------------------------------------------


def p_function(u: ScalarField, params: WeinsteinParams) -> ScalarField:
    """P = |grad u|^2 + 2 u / (a+1+k) for a torsion-type field u."""
    return _p_from_gamma(u, gamma(u), params)


def _p_from_gamma(u, g, params):
    """P from u and its Gamma field g."""
    return ScalarField(grid=u.grid, domain=u.domain,
                       active=g.active + 2.0 * u.active / params.dim_eff)
