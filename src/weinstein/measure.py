"""Anisotropic measure: closed-form constants, quadrature, spherical means.

The reference measure is |r|^a dr dy on R x R^k.  Balls B_t about axis
points (0, y0) have weighted volume omega(a,k) t^(a+1+k) and weighted
surface measure sigma(a,k) t^(a+k) with sigma = (a+1+k) omega; both
constants come from Gamma-function closed forms evaluated through
log-Gamma to keep relative error at machine level.

Volume quadrature is a midpoint rule over the geometry's covered cells
with exact weighted cell measures in r and planar-model fractions where
the boundary crosses.  Sphere quadrature uses the deterministic lattices
of geometry.sphere_lattice restricted by evenness to |r|^a weights.
"""

from __future__ import annotations

import math

import numpy as np

from .differential import gradient_fields
from .errors import (
    DegenerateDimension,
    PoleEvaluation,
    SphereOutsideDomain,
)
from .field import ScalarField
from .geometry import grid_geometry, sphere_lattice


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------


def aniso_ball_volume(params, t=1.0):
    """Weighted volume of the full ball B_t about an axis point.

    omega(a, k) = 2 pi^(k/2) Gamma((a+1)/2) / ((a+1+k) Gamma((a+1+k)/2)),
    and the volume scales like t^(a+1+k).
    """
    if t < 0:
        raise ValueError("radius must be nonnegative")
    a, k = params.a, params.k
    log_omega = (
        math.log(2.0)
        + 0.5 * k * math.log(math.pi)
        + math.lgamma((a + 1.0) / 2.0)
        - math.log(a + 1.0 + k)
        - math.lgamma((a + 1.0 + k) / 2.0)
    )
    return math.exp(log_omega) * t ** (a + 1.0 + k)


def aniso_sphere_measure(params, t=1.0):
    """Weighted surface measure of the full sphere about an axis point:
    sigma(a,k) t^(a+k) with sigma = (a+1+k) omega."""
    if t < 0:
        raise ValueError("radius must be nonnegative")
    return params.dim_eff * aniso_ball_volume(params, 1.0) * t ** (params.a + params.k)


def r_cell_measure(grid, params):
    """Exact int r^a dr over each staggered r-cell [i h, (i+1) h].

    The exact measure (rather than r_i^a h) is the interior rows' dual cell
    in the flux form of the operator (`operator._r_flux`), the axis cell too."""
    a1 = params.a + 1.0
    i = np.arange(grid.n_r, dtype=float)
    # ((i+1) h)^(a+1) (1 - (i/(i+1))^(a+1)) / (a+1), with no power of h or i
    # alone (at h = 1/16 they leave range from a ~ 250); log(0) in cell 0
    with np.errstate(divide="ignore", over="ignore"):
        return ((i + 1.0) * grid.h) ** a1 * -np.expm1(a1 * np.log(i / (i + 1.0))) / a1


# ---------------------------------------------------------------------------
# volume quadrature
# ---------------------------------------------------------------------------


def weighted_volume_integral(field, params, domain=None, grid=None):
    """Integral of `field` against |r|^a dx over the half domain {r > 0}.

    field may be a ScalarField (domain/grid implied), a callable on points,
    or a numeric constant.  Each covered cell adds fraction x weighted cell
    measure x integrand: a field read at the cell's row (its donor's, or 0
    without one), a callable at the cell centre.
    Returns the integral as a float.
    """
    if isinstance(field, ScalarField):
        domain = field.domain
        grid = field.grid
    if domain is None or grid is None:
        raise ValueError("domain and grid are required for non-field integrands")
    cells = grid_geometry(domain, grid).covered
    m_r = r_cell_measure(grid, params)
    cell_w = m_r[cells.flat // (grid.n_nodes // grid.n_r)] * cells.fraction
    cell_w *= grid.h**grid.k

    if isinstance(field, ScalarField):
        vals = np.where(cells.rows >= 0, field.active[cells.rows], 0.0)
    elif callable(field):
        vals = np.asarray(field(grid.points_of(cells.flat)), dtype=float)
    else:
        vals = float(field)

    return float(np.sum(vals * cell_w))


# ---------------------------------------------------------------------------
# spherical means
# ---------------------------------------------------------------------------


def _axis_center(center, k):
    """Normalize a center given either as y-coordinates (length k) or as a
    full point (length k+1) sitting on the symmetry axis."""
    arr = np.atleast_1d(np.asarray(center, dtype=float))
    if arr.size == k:
        return arr
    if arr.size == k + 1:
        if abs(arr[0]) > 1e-12:
            raise ValueError("center must sit on the symmetry axis (r = 0)")
        return arr[1:]
    raise ValueError(f"center needs {k} or {k + 1} coordinates, got {arr.size}")


def _sphere_points(params, center, t, n_samples):
    if t <= 0:
        raise ValueError("sphere radius must be positive")
    omegas, w0 = sphere_lattice(params.k, n_samples)
    yc = _axis_center(center, params.k)
    center_pt = np.array([0.0, *yc], dtype=float)
    pts = center_pt + t * omegas
    r_weight = np.abs(omegas[:, 0]) ** params.a
    return pts, omegas, w0, r_weight


def _check_containment(field, pts):
    grid = field.grid
    margin = grid.h * math.sqrt(grid.k + 1.0)
    # exact within 0.5 * margin, so the comparison reads the sign of sd elsewhere
    sd = field.domain.signed_distance(pts, band=0.5 * margin)
    if np.any(sd > -0.5 * margin):
        sd = field.domain.signed_distance(pts)  # the exact maximum for the message
        raise SphereOutsideDomain(
            "averaging sphere is not contained in the field's domain "
            f"(max signed distance {sd.max():.3g})"
        )


def spherical_mean(field, params, center, t, n_samples=10000):
    """Weighted spherical mean about the axis point (0, center):

        M(t) = (1 / (sigma t^(a+k))) int_{dB_t} f |r|^a dsigma.

    Evenness in r makes the full-sphere lattice equivalent to doubling the
    r > 0 hemisphere.  field is a ScalarField or a callable on points.
    """
    pts, _, w0, r_weight = _sphere_points(params, center, t, n_samples)
    if isinstance(field, ScalarField):
        _check_containment(field, pts)
        fvals = field.interpolate(pts)
        if np.any(~np.isfinite(fvals)):
            raise SphereOutsideDomain("sphere touches nodes without values")
    else:
        fvals = np.asarray(field(pts), dtype=float)
    sigma = aniso_sphere_measure(params, 1.0)
    # dsigma = t^k domega and |r|^a = t^a |omega_r|^a cancel the t powers
    return float(w0 * np.sum(fvals * r_weight) / sigma)


def spherical_mean_derivative(field, params, center, t, n_samples=10000):
    """d/dt of the weighted spherical mean, evaluated through the radial
    derivation Z f = r f_r + <y - y0, grad_y f>:

        M'(t) = (1 / (sigma t^(a+1+k))) int_{dB_t} Z f |r|^a dsigma.
    """
    pts, _, w0, r_weight = _sphere_points(params, center, t, n_samples)
    zvals = _z_derivation_values(field, center, pts, t)
    sigma = aniso_sphere_measure(params, 1.0)
    return float(w0 * np.sum(zvals * r_weight) / (sigma * t))


def _z_derivation_values(field, center, pts, scale):
    center = _axis_center(center, pts.shape[1] - 1)
    if isinstance(field, ScalarField):
        _check_containment(field, pts)
        grads = gradient_fields(field)
        z = pts[:, 0] * grads[0].interpolate(pts)
        for m in range(field.grid.k):
            z = z + (pts[:, 1 + m] - center[m]) * grads[1 + m].interpolate(pts)
        if np.any(~np.isfinite(z)):
            raise SphereOutsideDomain("sphere touches nodes without values")
        return z
    delta = 1e-6 * max(1.0, float(scale))
    z = np.zeros(pts.shape[0])
    for axis in range(pts.shape[1]):
        e = np.zeros(pts.shape[1])
        e[axis] = delta
        d = (np.asarray(field(pts + e), dtype=float) - np.asarray(field(pts - e), dtype=float)) / (
            2.0 * delta
        )
        coord = pts[:, axis] if axis == 0 else pts[:, axis] - center[axis - 1]
        z += coord * d
    return z


# ---------------------------------------------------------------------------
# fundamental solution
# ---------------------------------------------------------------------------


def fundamental_solution(params, points, center=None):
    """Fundamental solution with pole at the axis point (0, center):

        E(x) = -rho^(1-a-k) / ((a+k-1) sigma(a,k)),   rho = |x - (0, center)|.

    Requires a + k > 1 (the decay exponent must be positive); at a = 0,
    k = 2 this is the Newtonian -1/(4 pi rho).  Raises on evaluation at
    (or numerically on top of) the pole.
    """
    a, k = params.a, params.k
    if a + k <= 1.0 + 1e-14:
        raise DegenerateDimension(
            f"fundamental solution needs a + k > 1, got a={a}, k={k}"
        )
    if center is None:
        center = (0.0,) * k
    yc = _axis_center(center, k)
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    q = pts - np.array([0.0, *yc])
    rho = np.linalg.norm(q, axis=-1)
    if np.any(rho < 1e-300):
        raise PoleEvaluation("fundamental solution evaluated at its pole")
    sigma = aniso_sphere_measure(params, 1.0)
    vals = -(rho ** (1.0 - a - k)) / ((a + k - 1.0) * sigma)
    return float(vals[0]) if single else vals
