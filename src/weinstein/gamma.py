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
everything here is exact; the grid mode computes Gamma, Gamma2, the
P-function and L_a P with finite differences for solver output.  The
defect itself (`cd_defect`) is exact only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .differential import (
    axis_derivative,
    axis_second_derivative,
    deep_mask,
    gradient_fields,
    mixed_second_derivative,
)
from .errors import DegenerateFit, ParityViolation
from .field import ScalarField
from .operator import apply_operator
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


def _gamma2_poly(u, weights):
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
    g2 = _gamma2_poly(u, weights)
    bu = bessel_sum_apply(u, weights)
    return g2 - (bu * bu) * (Fraction(1) / weights.effective_dimension)


def cd_defect_values(u: PolyField, weights, points):
    """Exact rational Gamma2 - (B u)^2 / N at each point."""
    defect = cd_defect(u, weights)
    return [defect.eval_exact(pt) for pt in points]


# ---------------------------------------------------------------------------
# grid mode
# ---------------------------------------------------------------------------


def _grid_gamma(u: ScalarField):
    grads = gradient_fields(u)
    vals = np.zeros(u.grid.shape)
    for g in grads:
        vals = vals + g.values**2
    return ScalarField(grid=u.grid, domain=u.domain, values=vals,
                       boundary_values=None, parity="even")


def _grid_gamma2(u: ScalarField, params: WeinsteinParams):
    """Hessian-square plus the axis term, valid on the deep-node mask."""
    grid = u.grid
    dim = grid.k + 1
    mask = deep_mask(u.geometry)
    vals = np.zeros(grid.shape)
    for axis in range(dim):
        vals = vals + axis_second_derivative(u, axis) ** 2
    for i in range(dim):
        for j in range(i + 1, dim):
            vals = vals + 2.0 * mixed_second_derivative(u, i, j) ** 2
    if params.a != 0.0:
        ur = axis_derivative(u, 0)
        r = grid.r_nodes().reshape((-1,) + (1,) * grid.k)
        vals = vals + params.a * (ur / r) ** 2
    vals = np.where(mask, vals, np.nan)
    return ScalarField(grid=grid, domain=u.domain, values=vals,
                       boundary_values=None, parity="even")


def gamma(u):
    """Gamma(u) = |grad u|^2: exact polynomial or nodewise grid field."""
    if isinstance(u, PolyField):
        return _gamma_poly(u)
    return _grid_gamma(u)


def gamma2(u, weights):
    """Iterated carre du champ; exact polynomial, or a grid field valid on
    nodes with a full finite-difference neighborhood."""
    if isinstance(u, PolyField):
        return _gamma2_poly(u, weights)
    if not isinstance(weights, WeinsteinParams):
        raise ValueError("grid mode takes WeinsteinParams")
    return _grid_gamma2(u, weights)


# ---------------------------------------------------------------------------
# P-function
# ---------------------------------------------------------------------------


def p_function(u: ScalarField, params: WeinsteinParams) -> ScalarField:
    """P = |grad u|^2 + 2 u / (a+1+k) for a torsion-type field u."""
    g = _grid_gamma(u)
    vals = g.values + 2.0 * u.values / params.dim_eff
    return ScalarField(grid=u.grid, domain=u.domain, values=vals,
                       boundary_values=None, parity="even")


@dataclass
class SubharmonicityReport:
    field: ScalarField  # L_a P on the deep-node mask (NaN elsewhere)
    min_value: float
    n_nodes: int
    tol: float
    fraction_below: float  # fraction of evaluated nodes with L_a P < -tol


def p_subharmonicity_defect(u: ScalarField, params: WeinsteinParams,
                            tol: float = 0.0) -> SubharmonicityReport:
    """L_a P at nodes at least two layers from the boundary.

    For torsion solutions the continuum value is nonnegative (and vanishes
    identically only in the radial equality case), so negative values
    beyond discretization noise flag a genuine defect."""
    P = p_function(u, params)
    geo = u.geometry
    mask = deep_mask(geo) & (geo.sd <= -2.0 * u.grid.h_r)
    lp = apply_operator(P, params, rows_mask=mask)
    vals = lp.values[mask]
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return SubharmonicityReport(lp, np.nan, 0, tol, 0.0)
    below = float(np.mean(vals < -tol))
    return SubharmonicityReport(lp, float(vals.min()), int(vals.size), tol, below)


# ---------------------------------------------------------------------------
# quadratic equality-case fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticFit:
    alpha: float
    gamma: float
    y0: Optional[tuple]
    residual: float  # max-norm misfit over the sample

    def is_equality(self, tol):
        return self.residual <= tol


def quadratic_equality_fit(u, sample=None) -> QuadraticFit:
    """Least-squares fit of u by alpha (r^2 + |y - y0|^2) + gamma.

    The model is linear in (alpha, b, c) through
    u ~ alpha (r^2 + |y|^2) + b . y + c with y0 = -b / (2 alpha); a
    vanishing alpha returns the constant branch with y0 unset.  Accepts a
    grid field (fit over active nodes) or a polynomial (fit over a fixed
    lattice of sample points).
    """
    if isinstance(u, ScalarField):
        geo = u.geometry
        pts = u.grid.node_points()[geo.inside]
        vals = u.values[geo.inside]
        k = u.grid.k
    else:
        k = u.nvars - 1
        if sample is None:
            axes = [np.linspace(0.3, 1.5, 5)] + [np.linspace(-1.0, 1.0, 5)] * k
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack(mesh, axis=-1).reshape(-1, k + 1)
        else:
            pts = np.asarray(sample, dtype=float)
        vals = u.eval_float(pts)

    cols = [np.sum(pts**2, axis=-1)]
    cols += [pts[:, 1 + m] for m in range(k)]
    cols += [np.ones(pts.shape[0])]
    M = np.stack(cols, axis=-1)
    coef, _, rank, _ = np.linalg.lstsq(M, vals, rcond=None)
    if rank < k + 2:
        raise DegenerateFit(f"fit matrix has rank {rank} < {k + 2}")
    alpha = float(coef[0])
    beta = coef[1 : 1 + k]
    c = float(coef[-1])
    residual = float(np.max(np.abs(M @ coef - vals))) if vals.size else 0.0

    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    if abs(alpha) <= 1e-12 * scale:
        return QuadraticFit(alpha=0.0, gamma=c, y0=None, residual=residual)
    y0 = tuple(float(-b / (2.0 * alpha)) for b in beta)
    gamma_val = c - alpha * float(np.sum(np.asarray(y0) ** 2))
    return QuadraticFit(alpha=alpha, gamma=gamma_val, y0=y0, residual=residual)
